"""Multi-process fleet tests: sharded serving, two-phase promotion
under live traffic and under faults, crash respawn, the replicas'
shared-memory mappings and the ``repro serve --workers`` process.

These spawn real worker processes (fork) over real sockets, so they are
the serving layer's heaviest tests — kept to 2 replicas and small
request counts.
"""

import asyncio
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cluster.config import ClusterConfig
from repro.core.persistence import load_pipeline
from repro.errors import ReproError
from repro.serve.client import ServeClient, fire_concurrent
from repro.serve.fleet import (
    MAX_AUTO_WORKERS,
    FleetConfig,
    FleetSupervisor,
    reuse_port_supported,
)

FIXTURE = Path(__file__).parent.parent / "golden" / "format1_pipeline"
SRC = Path(__file__).resolve().parent.parent.parent / "src"


def make_candidate(tmp_path, factor=1.25):
    """A re-calibrated copy of the golden pipeline (new fingerprint):
    the adjustment scales change, so estimates and the estimate-cache
    fingerprint both differ from the incumbent."""
    target = tmp_path / "candidate"
    shutil.copytree(FIXTURE, target)
    manifest_path = target / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["adjustment"]["scales"] = [
        [mi, scale * factor] for mi, scale in manifest["adjustment"]["scales"]
    ]
    manifest_path.write_text(json.dumps(manifest, indent=1))
    return target


def fingerprint_of(directory):
    return load_pipeline(directory).estimate_cache.fingerprint


def wait_for_epoch(supervisor, index, epoch, timeout=30.0):
    """Wait until replica ``index`` of ``epoch`` is alive and has
    published its stats row."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if (len(supervisor.worker_pids()) == supervisor.workers
                and supervisor.status()["workers"][index]["epoch"] == epoch):
            return
        time.sleep(0.05)
    raise AssertionError(f"replica {index} never reached epoch {epoch}")


def fingerprints_by_replica(supervisor, tries=200):
    """The served fingerprint of every replica: a fresh connection per
    probe, until each replica has answered one."""
    seen = {}
    for _ in range(tries):
        with ServeClient(supervisor.host, supervisor.port) as client:
            index = client.fleet_status()["answered_by"]
            seen[index] = client.estimate("golden", [1, 2, 8, 1], [1600])["fingerprint"]
        if len(seen) == supervisor.workers:
            return seen
    raise AssertionError(f"only replicas {sorted(seen)} answered in {tries} connections")


@pytest.fixture
def fleet():
    """A running 2-replica fleet serving the golden pipeline."""
    supervisor = FleetSupervisor(
        {"golden": FIXTURE}, FleetConfig(workers=2, stats_interval_s=0.05)
    )
    with supervisor:
        yield supervisor


class TestFleetConfig:
    def test_resolve_workers(self):
        assert FleetConfig(workers=3).resolve_workers() == 3
        auto = FleetConfig(workers=0).resolve_workers()
        assert 1 <= auto <= MAX_AUTO_WORKERS
        with pytest.raises(ReproError, match="workers must be >= 0"):
            FleetConfig(workers=-1).resolve_workers()

    def test_resolve_listener(self, monkeypatch):
        import repro.serve.fleet as fleet_mod

        assert FleetConfig(listener="router").resolve_listener() == "router"
        with pytest.raises(ReproError, match="unknown listener"):
            FleetConfig(listener="bogus").resolve_listener()
        monkeypatch.setattr(fleet_mod, "reuse_port_supported", lambda: True)
        assert FleetConfig(listener="auto").resolve_listener() == "reuseport"
        monkeypatch.setattr(fleet_mod, "reuse_port_supported", lambda: False)
        assert FleetConfig(listener="auto").resolve_listener() == "router"
        with pytest.raises(ReproError, match="no SO_REUSEPORT"):
            FleetConfig(listener="reuseport").resolve_listener()

    def test_fleet_needs_a_pipeline(self):
        with pytest.raises(ReproError, match="at least one pipeline"):
            FleetSupervisor({})


class TestFleetServing:
    def test_bitwise_identity_and_status(self, fleet):
        host, port = fleet.host, fleet.port
        direct = load_pipeline(FIXTURE)
        config = ClusterConfig.from_tuple(direct.plan.kinds, (1, 2, 8, 1))
        sizes = [1600, 2400, 3200]
        expected = [direct.estimate(config, n).total for n in sizes]

        with ServeClient(host, port) as client:
            result = client.estimate("golden", [1, 2, 8, 1], sizes)
            assert result["totals"] == expected  # bitwise, not approx
            assert result["fingerprint"] == direct.estimate_cache.fingerprint

            status = client.fleet_status()
        assert status["fleet"] is True
        assert len(status["workers"]) == 2
        assert status["totals"]["requests"] >= 1
        # the answering replica freshens its own row before aggregating
        assert status["answered_by"] in (0, 1)

    def test_supervisor_status_names_fingerprints(self, fleet):
        status = fleet.status()
        direct = load_pipeline(FIXTURE)
        assert status["pipelines"] == {
            "golden": direct.estimate_cache.fingerprint
        }
        assert status["restarts"] == [0, 0]

    def test_both_replicas_share_the_port(self, fleet):
        if fleet.listener != "reuseport":
            pytest.skip("kernel accept sharding needs SO_REUSEPORT")
        # Many short-lived connections: the kernel spreads them across
        # replicas; all of them answer on the fleet's single port.
        for _ in range(8):
            with ServeClient(fleet.host, fleet.port) as client:
                assert client.ping()["pong"] is True

    def test_mixed_replies_equal_the_direct_path(self, fleet):
        """Concurrent estimate and optimize traffic: every served total and
        every served ranking is bitwise the direct path's."""
        direct = load_pipeline(FIXTURE)
        values = [1, 2, 8, 1]
        config = ClusterConfig.from_tuple(direct.plan.kinds, values)
        sizes = [1600 + 8 * i for i in range(64)]
        totals = dict(zip(sizes, direct.estimate_totals(config, sizes).tolist()))
        kinds = direct.plan.kinds
        rankings = {
            n: [
                {"config": list(e.config.as_flat_tuple(kinds)), "estimate_s": e.estimate_s}
                for e in outcome.top(3)
            ]
            for n, outcome in zip(sizes[:16], direct.optimize_many(sizes[:16]))
        }
        payloads = [
            {"op": "estimate", "pipeline": "golden", "config": values, "n": n}
            for n in sizes
        ] + [{"op": "optimize", "pipeline": "golden", "n": n, "top": 3} for n in rankings]
        replies, _ = asyncio.run(
            fire_concurrent(fleet.host, fleet.port, payloads, concurrency=16)
        )
        for payload, reply in zip(payloads, replies):
            assert reply["ok"], reply
            result = reply["result"]
            if payload["op"] == "estimate":
                assert result["totals"] == [totals[payload["n"]]]
            else:
                assert result["sizes"][0]["ranking"] == rankings[payload["n"]]
        # a peer's stats row lags by up to one interval; wait two
        time.sleep(2 * fleet.config.stats_interval_s)
        with ServeClient(fleet.host, fleet.port) as client:
            status = client.fleet_status()
        assert len(status["workers"]) == 2
        assert status["totals"]["requests"] >= len(payloads)

    def test_replicas_map_no_shared_memory_but_the_stats_block(self, fleet, tmp_path):
        """Every shared-memory mapping of every replica is the stats
        block's, at start and after three promotions: the model artifacts
        reach a replica as process arguments, not as segments."""
        block = f"/dev/shm/{fleet._block.name}"

        def check():
            for pid in fleet.worker_pids():
                try:
                    maps = Path(f"/proc/{pid}/maps").read_text()
                except OSError:
                    pytest.skip("/proc/<pid>/maps cannot be read; mappings not checked")
                shared = [line for line in maps.splitlines() if "/dev/shm/" in line]
                assert shared, f"worker {pid} does not map the stats block"
                assert all(block in line for line in shared), shared

        check()
        candidate_dir = make_candidate(tmp_path)
        for directory in (candidate_dir, FIXTURE, candidate_dir):
            assert fleet.promote("golden", directory)["replicas"] == 2
        check()

    def test_router_listener_serves(self):
        supervisor = FleetSupervisor(
            {"golden": FIXTURE},
            FleetConfig(workers=2, listener="router", stats_interval_s=0.05),
        )
        with supervisor:
            direct = load_pipeline(FIXTURE)
            config = ClusterConfig.from_tuple(direct.plan.kinds, (1, 2, 8, 1))
            with ServeClient(supervisor.host, supervisor.port) as client:
                result = client.estimate("golden", [1, 2, 8, 1], [1600])
                assert result["totals"] == [direct.estimate(config, 1600).total]


class TestPromotion:
    def test_promote_under_traffic_never_tears(self, fleet, tmp_path):
        """The two-phase swap: every reply during a promotion carries
        either the old fingerprint or the new one — never anything
        else — and replies after the promotion all carry the new one."""
        old = load_pipeline(FIXTURE).estimate_cache.fingerprint
        candidate_dir = make_candidate(tmp_path)
        new = load_pipeline(candidate_dir).estimate_cache.fingerprint
        assert new != old

        payloads = [
            {"op": "estimate", "pipeline": "golden", "config": [1, 2, 8, 1],
             "ns": [1600 + 80 * (i % 16)]}
            for i in range(200)
        ]
        outcome = {}

        def promote():
            time.sleep(0.05)  # let some old-generation replies through
            outcome.update(fleet.promote("golden", candidate_dir))

        promoter = threading.Thread(target=promote)
        promoter.start()
        replies, _ = asyncio.run(
            fire_concurrent(fleet.host, fleet.port, payloads, concurrency=8)
        )
        promoter.join(timeout=60)
        assert not promoter.is_alive()

        assert outcome["fingerprint"] == new
        assert outcome["replicas"] == 2
        seen = {reply["result"]["fingerprint"] for reply in replies}
        assert seen <= {old, new}
        for reply in replies:
            assert reply["ok"], reply

        # post-promotion: every replica answers with the candidate
        with ServeClient(fleet.host, fleet.port) as client:
            for _ in range(4):
                result = client.estimate("golden", [1, 2, 8, 1], [1600])
                assert result["fingerprint"] == new
        assert fleet.status()["pipelines"]["golden"] == new

    def test_promoted_numbers_are_the_candidates(self, fleet, tmp_path):
        candidate_dir = make_candidate(tmp_path)
        direct = load_pipeline(candidate_dir)
        config = ClusterConfig.from_tuple(direct.plan.kinds, (1, 2, 8, 1))
        fleet.promote("golden", candidate_dir)
        with ServeClient(fleet.host, fleet.port) as client:
            result = client.estimate("golden", [1, 2, 8, 1], [3200])
        assert result["totals"] == [direct.estimate(config, 3200).total]

    def test_promote_unknown_pipeline_is_typed(self, fleet, tmp_path):
        with pytest.raises(ReproError, match="no pipeline named"):
            fleet.promote("nope", make_candidate(tmp_path))

    def test_replicas_building_another_fingerprint_abort_the_promotion(
        self, fleet, tmp_path, monkeypatch
    ):
        """The replicas read the candidate directory themselves; if it
        builds another fingerprint than the supervisor validated (here the
        supervisor's read is pointed at another directory), the
        transaction aborts naming both, and every replica keeps serving
        the incumbent."""
        import repro.serve.fleet as fleet_mod

        old = fingerprint_of(FIXTURE)
        candidate_dir = make_candidate(tmp_path)
        (tmp_path / "other").mkdir()
        other_dir = make_candidate(tmp_path / "other", factor=1.5)
        built, validated = fingerprint_of(candidate_dir), fingerprint_of(other_dir)
        assert len({old, built, validated}) == 3
        read = fleet_mod.read_pipeline_blobs
        monkeypatch.setattr(fleet_mod, "read_pipeline_blobs", lambda _: read(other_dir))
        with pytest.raises(ReproError, match="aborted in prepare") as caught:
            fleet.promote("golden", candidate_dir)
        assert built in str(caught.value) and validated in str(caught.value)
        assert fingerprints_by_replica(fleet) == {0: old, 1: old}
        assert fleet.status()["pipelines"]["golden"] == old

    def test_promote_bad_directory_aborts_cleanly(self, fleet, tmp_path):
        with pytest.raises(ReproError):
            fleet.promote("golden", tmp_path / "not-a-pipeline")
        # the fleet still serves the incumbent after the failed pack
        old = load_pipeline(FIXTURE).estimate_cache.fingerprint
        with ServeClient(fleet.host, fleet.port) as client:
            assert client.estimate("golden", [1, 2, 8, 1], [1600])[
                "fingerprint"
            ] == old


class TestCrashResilience:
    def test_respawn_serves_the_start_time_generation(self, tmp_path):
        """A re-save of the served directory after start does not reach a
        respawned replica: it serves the bytes the supervisor validated."""
        served = tmp_path / "served"
        shutil.copytree(FIXTURE, served)
        start = fingerprint_of(served)
        supervisor = FleetSupervisor(
            {"golden": served}, FleetConfig(workers=2, stats_interval_s=0.05)
        )
        with supervisor:
            resaved = make_candidate(tmp_path)
            for item in resaved.iterdir():
                shutil.copy2(item, served / item.name)
            assert fingerprint_of(served) != start
            supervisor.kill_worker(0)
            wait_for_epoch(supervisor, 0, 2)
            assert fingerprints_by_replica(supervisor) == {0: start, 1: start}
            assert supervisor.status()["pipelines"]["golden"] == start

    def test_replica_killed_between_prepare_and_commit(self, fleet, tmp_path, monkeypatch):
        """A replica that dies after acking prepare does not roll the
        promotion back: the survivor commits, and the respawned replica
        serves the candidate."""
        candidate_dir = make_candidate(tmp_path)
        new = fingerprint_of(candidate_dir)
        recv, killed = FleetSupervisor._recv, []

        def recv_then_kill(self, worker, deadline, expected):
            message = recv(self, worker, deadline, expected)
            if expected == "prepared" and worker.index == 0 and not killed:
                killed.append(self.kill_worker(0))
            return message

        monkeypatch.setattr(FleetSupervisor, "_recv", recv_then_kill)
        outcome = fleet.promote("golden", candidate_dir)
        monkeypatch.undo()
        assert killed and outcome["replicas"] == 1
        assert outcome["fingerprint"] == new
        wait_for_epoch(fleet, 0, 2)
        assert fleet.status()["restarts"] == [1, 0]
        assert fingerprints_by_replica(fleet) == {0: new, 1: new}

    def test_killed_replica_respawns_and_fleet_keeps_serving(self, fleet):
        pid = fleet.kill_worker(0)
        assert pid not in fleet.worker_pids()

        # survivors keep answering while the monitor respawns
        with ServeClient(fleet.host, fleet.port) as client:
            assert client.ping()["pong"] is True

        # wait for the respawn to *publish* (a live process may not have
        # written its stats row yet)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            workers = fleet.status()["workers"]
            if len(fleet.worker_pids()) == 2 and workers[0]["epoch"] == 2:
                break
            time.sleep(0.1)
        assert len(fleet.worker_pids()) == 2, "replica was not respawned"
        assert fleet.status()["restarts"] == [1, 0]

        # the respawned replica serves too, and fleet_status (answered
        # by whichever replica takes the connection) reports the restart
        with ServeClient(fleet.host, fleet.port) as client:
            status = client.fleet_status()
        assert status["restarts"] == [1, 0]
        epochs = {w["index"]: w["epoch"] for w in status["workers"]}
        assert epochs[0] == 2 and epochs[1] == 1

    def test_kill_reaps_the_replica_every_time(self, fleet):
        """Three kills in a row, each after the respawn: a killed pid is
        never reported alive, whatever the monitor thread is doing (a
        short switch interval interleaves the two threads more often)."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for epoch in (2, 3, 4):
                pid = fleet.kill_worker(0)
                assert pid not in fleet.worker_pids()
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if (len(fleet.worker_pids()) == 2
                            and fleet.status()["workers"][0]["epoch"] == epoch):
                        break
                    time.sleep(0.05)
                assert len(fleet.worker_pids()) == 2, "replica was not respawned"
        finally:
            sys.setswitchinterval(interval)
        assert fleet.status()["restarts"] == [3, 0]

    def test_respawned_replica_serves_the_promoted_generation(
        self, fleet, tmp_path
    ):
        candidate_dir = make_candidate(tmp_path)
        new = load_pipeline(candidate_dir).estimate_cache.fingerprint
        fleet.promote("golden", candidate_dir)
        fleet.kill_worker(1)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if len(fleet.worker_pids()) == 2:
                break
            time.sleep(0.1)
        assert len(fleet.worker_pids()) == 2
        # every reply (old replica or respawned one) is the candidate's
        with ServeClient(fleet.host, fleet.port) as client:
            for _ in range(6):
                assert (
                    client.estimate("golden", [1, 2, 8, 1], [1600])["fingerprint"]
                    == new
                )


class TestListenerSupport:
    def test_reuse_port_supported_is_bool(self):
        assert isinstance(reuse_port_supported(), bool)


class TestServeProcess:
    @staticmethod
    def serve_then_interrupt(serve_args, client_args, timeout):
        """Start ``repro serve`` on the golden pipeline and a free port
        with ``serve_args``, run one ``repro client`` call with
        ``client_args`` once it listens, then send SIGINT; returns the
        client's completed process, the server's exit code and output."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--dir", f"golden={FIXTURE}",
             "--port", str(port), *serve_args],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            deadline = time.monotonic() + timeout
            while True:
                try:
                    with socket.create_connection(("127.0.0.1", port), timeout=1.0):
                        break
                except OSError:
                    assert server.poll() is None, server.communicate()[0]
                    assert time.monotonic() < deadline, "repro serve never came up"
                    time.sleep(0.1)
            client = subprocess.run(
                [sys.executable, "-m", "repro", "client", "--port", str(port), *client_args],
                env=env, capture_output=True, text=True, timeout=timeout,
            )
            server.send_signal(signal.SIGINT)
            out, _ = server.communicate(timeout=timeout)
            return client, server.returncode, out
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()

    def test_cli_server_answers_an_estimate_and_exits_on_sigint(self):
        """One-process ``repro serve`` answers ``repro client --op
        estimate`` and exits 0 on SIGINT with its metrics printed."""
        client, code, out = self.serve_then_interrupt(
            [], ["--op", "estimate", "--pipeline", "golden", "--config", "1,2,8,1",
                 "--n", "3200"], timeout=30,
        )
        assert client.returncode == 0, client.stderr
        reply = json.loads(client.stdout)
        assert reply["ok"] and reply["result"]["totals"], client.stdout
        assert code == 0, out
        assert "requests" in out, out

    def test_cli_fleet_answers_and_drains_on_sigint(self):
        """``repro serve --workers 2`` comes up, answers ``repro client
        --op fleet_status`` for both replicas and exits 0 on SIGINT."""
        client, code, out = self.serve_then_interrupt(
            ["--workers", "2"], ["--op", "fleet_status"], timeout=60
        )
        assert client.returncode == 0, client.stderr
        reply = json.loads(client.stdout)
        assert reply["ok"] and len(reply["result"]["workers"]) == 2, client.stdout
        assert code == 0, out
        assert "replicas" in out, out

"""The acceptance loop per family: campaign -> fit -> compose -> adjust
-> search (all backends) -> persist -> serve -> calibrate, with no
workload-specific branches outside ``repro.workloads``."""

import asyncio
import json
import math

import pytest

from repro.calibrate import Calibrator, ObservationLog
from repro.cli import main as cli_main
from repro.cluster.config import ClusterConfig
from repro.core.persistence import load_pipeline, save_pipeline
from repro.core.search import registered_search_backends
from repro.serve import EstimationServer, ModelRegistry


SERVED_CONFIG = (1, 2, 8, 1)


async def serve_two(registry, family, n):
    """Ask a fresh server for one estimate under the right ``workload``
    and one under a wrong one; return both replies."""
    server = EstimationServer(registry, port=0, refresh_interval_s=None)
    host, port = await server.start()
    try:
        reader, writer = await asyncio.open_connection(host, port)
        replies = []
        for i, workload in enumerate((family, "hpl" if family != "hpl" else "sorting")):
            writer.write((json.dumps({
                "id": i, "op": "estimate", "pipeline": family,
                "config": list(SERVED_CONFIG), "n": n, "workload": workload,
            }) + "\n").encode())
            await writer.drain()
            replies.append(json.loads(await reader.readline()))
        writer.close()
        return replies
    finally:
        await server.shutdown()


def pipelines(request):
    return {
        "sorting": request.getfixturevalue("sorting_pipeline"),
        "montecarlo": request.getfixturevalue("montecarlo_pipeline"),
        "summa": request.getfixturevalue("summa_pipeline"),
    }


@pytest.mark.parametrize("family", ["sorting", "montecarlo", "summa"])
class TestFullLoop:
    def test_campaign_measures_the_planned_grid(self, request, family):
        pipeline = pipelines(request)[family]
        result = pipeline.campaign
        plan = pipeline.plan
        assert len(result.dataset) == len(list(plan.construction_runs()))
        assert result.total_cost_s > 0
        # Every record decomposes into the family's phases, not HPL's.
        record = result.dataset[0]
        phases = record.per_kind[0].phases
        assert tuple(phases.as_dict()) == pipeline.workload.phase_names

    def test_models_fit_and_estimates_are_finite(self, request, family):
        pipeline = pipelines(request)[family]
        assert pipeline.store.model_count > 0
        n = pipeline.plan.evaluation_sizes[0]
        config = ClusterConfig.from_tuple(pipeline.plan.kinds, (1, 2, 8, 1))
        total = float(pipeline.estimate_totals(config, [n])[0])
        assert math.isfinite(total) and total > 0

    def test_optimize_winner_is_finite_and_positive(self, request, family):
        pipeline = pipelines(request)[family]
        n = pipeline.plan.evaluation_sizes[0]
        winner = pipeline.optimize(n).ranking[0]
        assert math.isfinite(winner.estimate_s) and winner.estimate_s > 0

    def test_served_estimate_is_the_direct_one(self, request, family, tmp_path):
        """A saved family pipeline served over a socket answers an estimate
        carrying the ``workload`` field bitwise equal to the direct call,
        and refuses a mismatched ``workload`` with a typed reply."""
        pipeline = pipelines(request)[family]
        n = pipeline.plan.evaluation_sizes[0]
        config = ClusterConfig.from_tuple(pipeline.plan.kinds, SERVED_CONFIG)
        want = float(pipeline.estimate_totals(config, [n])[0])
        out = save_pipeline(pipeline, tmp_path / family, include_evaluation=False)
        assert json.loads((out / "manifest.json").read_text())["workload"] == family
        registry = ModelRegistry()
        registry.add(family, out)
        ok, refused = asyncio.run(serve_two(registry, family, n))
        assert ok.get("ok"), ok
        assert ok["result"]["totals"] == [want]  # bitwise
        error = refused.get("error", {})
        assert not refused.get("ok") and error.get("type") == "InvalidRequest"
        assert error.get("pipeline_workload") == family
        assert error.get("field") == "workload"

    def test_every_search_backend_runs(self, request, family):
        pipeline = pipelines(request)[family]
        n = pipeline.plan.evaluation_sizes[0]
        exhaustive = pipeline.optimize(n, backend="exhaustive")
        best = exhaustive.ranking[0].estimate_s
        for backend in registered_search_backends():
            outcome = pipeline.optimize(n, backend=backend)
            assert outcome.ranking, backend
            winner = outcome.ranking[0]
            assert math.isfinite(winner.estimate_s)
            # Every backend's winner is at least as slow as the true
            # optimum; the complete backends find exactly it.
            assert winner.estimate_s >= best or winner.estimate_s == pytest.approx(best)
            if backend in ("exhaustive", "branch-bound"):
                assert winner.estimate_s == best

    def test_save_load_round_trip_preserves_workload(
        self, request, family, tmp_path
    ):
        pipeline = pipelines(request)[family]
        out = save_pipeline(pipeline, tmp_path / family, include_evaluation=False)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["format"] == 3
        assert manifest["workload"] == family
        reloaded = load_pipeline(out)
        assert reloaded.config.workload == family
        assert reloaded.workload.tag == family
        n = pipeline.plan.evaluation_sizes[0]
        config = ClusterConfig.from_tuple(pipeline.plan.kinds, (1, 2, 8, 1))
        assert float(reloaded.estimate_totals(config, [n])[0]) == float(
            pipeline.estimate_totals(config, [n])[0]
        )  # bitwise
        # Without evaluation.json the ground truth is re-measured by the
        # family's own simulator.
        assert reloaded.measured_time(config, n) == pipeline.measured_time(config, n)

    def test_calibrator_tags_observations_with_the_family(self, request, family):
        pipeline = pipelines(request)[family]
        calibrator = Calibrator(
            name=family, pipeline_provider=lambda: pipeline, log=ObservationLog()
        )
        record = pipeline.campaign.dataset[0]
        result = calibrator.ingest(record, source="test")
        assert calibrator.log[result.seq].workload == family
        assert calibrator.status()["workload"] == family


class TestCLI:
    def run(self, capsys, *argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_workloads_inventory(self, capsys):
        code, out, _ = self.run(capsys, "workloads")
        assert code == 0
        for tag in ("hpl", "sorting", "montecarlo", "summa"):
            assert f"{tag}: " in out
        assert "scatter*" in out  # communication phases are marked
        assert "62 configs x 5 sizes" in out

    def test_workloads_single_tag(self, capsys):
        code, out, _ = self.run(capsys, "workloads", "--tag", "montecarlo")
        assert code == 0
        assert "montecarlo" in out and "sorting" not in out

    def test_unknown_workload_is_one_line_error_exit_1(self, capsys):
        code, out, err = self.run(capsys, "workloads", "--tag", "cholesky")
        assert code == 1
        assert err.strip() == (
            "error: unknown workload 'cholesky' (known: hpl, montecarlo, sorting, summa)"
        )

    def test_optimize_rejects_unknown_workload(self, capsys):
        code, _, err = self.run(
            capsys, "optimize", "--workload", "cholesky", "--n", "4000"
        )
        assert code == 1
        assert "unknown workload 'cholesky'" in err

    def test_optimize_runs_a_sorting_pipeline(self, capsys):
        code, out, _ = self.run(
            capsys,
            "optimize", "--workload", "sorting", "--protocol", "ns",
            "--n", "8000", "--top", "3",
        )
        assert code == 0
        assert "Top 3 of 62 configurations" in out

    def test_estimate_workload_assertion(self, capsys, tmp_path, sorting_pipeline):
        out_dir = save_pipeline(
            sorting_pipeline, tmp_path / "saved", include_evaluation=False
        )
        code, out, _ = self.run(
            capsys,
            "estimate", "--dir", str(out_dir), "--config", "1,2,8,1",
            "--n", "8000", "--workload", "sorting",
        )
        assert code == 0 and "N=8000" in out
        code, _, err = self.run(
            capsys,
            "estimate", "--dir", str(out_dir), "--config", "1,2,8,1",
            "--n", "8000", "--workload", "hpl",
        )
        assert code == 1
        assert "serves workload 'sorting', not 'hpl'" in err

"""The benchmark's four workloads.

``build-paper`` and ``search-wide`` run in the benchmark process as
closed loops: one caller, back-to-back rounds of a fixed batch of work.
``serve-estimate`` and ``serve-mixed`` drive a server subprocess from
``loadgen.py`` with an open loop at a fixed rate.  README.md gives the
reason for each choice.

Every workload reports the same end-to-end metrics (``END_TO_END``); what
an *operation* is differs: a round for the closed loops, a request for
the serve workloads.  Every output is checked, and a wrong one is
recorded as a mismatch, which fails the run.
"""

from __future__ import annotations

import asyncio
import resource
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from loadgen import ServerProcess, StepResult, open_loop, request_once
from probes import (
    SEARCH_TAGS,
    Counts,
    percentile,
    pipeline_counts,
    probe_calibrate,
    probe_estimation,
    probe_search,
    search_call,
    summarize,
)
from spans import Tracer

from repro.cluster.presets import kishimoto_cluster, synthetic_cluster
from repro.core.persistence import save_pipeline
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.hpl.driver import NoiseSpec, run_hpl
from repro.measure.grids import custom_plan
from repro.measure.record import MeasurementRecord
from repro.serve.registry import ModelRegistry

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "lat_p50_ms": "ms",
}
#: Percentiles of operation latency written to the full record.  Only the
#: median is a bounded metric: on the two-CPU host this was written on,
#: the closed loops' round-time p90 spread up to 0.37 of its median over
#: ten seeds, more than the largest bound a metric may have.
RECORDED_PERCENTILES = (50, 90, 99)

FAMILIES = ("hpl", "sorting", "montecarlo")
PROTOCOLS = ("basic", "nl", "ns")
#: Worst accepted ratio of a heuristic backend's winner to the exhaustive
#: winner on ``search-wide``.  Branch-and-bound must match exactly.  Over
#: 1,440 sizes (60 seeds x 24 sizes from the workload's range), beam and
#: greedy always found the optimum, anneal's worst was 1.33x and
#: hill-climb's 2.30x.  A random candidate's median is 5-10x the optimum
#: and its best 1% are 2.4-3.4x, so these limits still catch a backend
#: that stops searching.
HEURISTIC_RATIO = {"beam": 1.5, "anneal": 2.0, "greedy": 1.5, "hill-climb": 3.0}
#: Name the serve workloads' pipeline is served under.
SERVED = "p"
#: Nominal wall time of :func:`reference_loop`, about its median on the
#: host this was written on.  Closed-loop step times and every set-up
#: time are reported scaled to a host on which the reference loop takes
#: this long (README.md, "Reference speed").
REFERENCE_MS = 20.0


@dataclass
class Outcome:
    """What one run did: operations, failures, mismatches and samples."""

    attempted: int = 0
    failed: int = 0
    #: Descriptions of outputs that were wrong (each also counts as failed).
    mismatches: List[str] = field(default_factory=list)
    #: Set-up times at reference speed, and as the wall clock read them.
    setup_s: List[float] = field(default_factory=list)
    setup_wall_s: List[float] = field(default_factory=list)
    #: Peak RSS of the largest server subprocess (serve workloads).
    server_rss_mb: float = 0.0
    #: end-to-end metric -> (value, median/q1/q3/n of its repetitions)
    metrics: Dict[str, Tuple[float, dict]] = field(default_factory=dict)
    #: "p50"/"p90"/"p99" of operation latency in ms (untraced operations),
    #: as the wall clock read it.
    latency_ms: Dict[str, float] = field(default_factory=dict)
    #: Median wall time of the reference loop (closed loops).
    reference_ms: Optional[float] = None

    def add_setup(self, wall_s: float, scale: float) -> None:
        self.setup_wall_s.append(wall_s)
        self.setup_s.append(wall_s * scale)

    def record_latency(self, latencies_ms: List[float],
                       repetitions_ms: List[float]) -> None:
        """Median request latency as the bounded metric, percentiles for
        the record."""
        self.metrics["lat_p50_ms"] = (percentile(latencies_ms, 50),
                                      summarize(repetitions_ms))
        self.latency_ms = {f"p{q}": percentile(latencies_ms, q)
                           for q in RECORDED_PERCENTILES}

    def record_rounds(self, steps: "Steps") -> None:
        """A closed loop's bounded metric: the median of each step's time
        at reference speed, summed over the round's steps (the quartiles
        likewise).  The record's percentiles are of whole rounds on the
        wall clock."""
        per_step = [summarize(times) for times in steps.scaled_ms.values()]
        summary = {key: sum(s[key] for s in per_step) for key in ("median", "q1", "q3")}
        summary["n"] = min(s["n"] for s in per_step)
        self.metrics["lat_p50_ms"] = (summary["median"], summary)
        rounds_ms = [sum(times[i] for times in steps.wall_ms.values())
                     for i in range(summary["n"])]
        self.latency_ms = {f"p{q}": percentile(rounds_ms, q)
                           for q in RECORDED_PERCENTILES}
        self.reference_ms = percentile(steps.reference_ms, 50)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatches.append(what)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build(pipeline: EstimationPipeline, tracer: Tracer, counts: Counts) -> None:
    """Run a pipeline's stages cold, one span each: measure (campaign, and
    the evaluation grid when the adjustment needs it), fit, adjust."""
    started = time.perf_counter()
    runs = len(pipeline.campaign.dataset)
    if pipeline.config.adjust:
        runs += len(pipeline.evaluation)
    seconds = time.perf_counter() - started
    tracer.add("measure", seconds)
    counts.add("measure.runs_per_s", runs / seconds)
    with tracer.span("fit"):
        pipeline.store
    counts.add("fit.models", sum(1 for _ in pipeline.models.models()))
    with tracer.span("adjust"):
        pipeline.adjustment


def observations(pipeline: EstimationPipeline, sizes: Sequence[int], seed: int,
                 count: int) -> List[MeasurementRecord]:
    """``count`` noisy runs of the calibration family, simulated from ``seed``."""
    configs = pipeline.calibration_configs()
    kinds = pipeline.plan.kinds
    records = []
    for trial in range(count):
        config = configs[trial % len(configs)]
        n = int(sizes[trial % len(sizes)])
        result = run_hpl(pipeline.spec, config, n, noise=NoiseSpec(), seed=seed,
                         trial=trial)
        records.append(MeasurementRecord.from_result(result, kinds, seed=seed,
                                                     trial=trial))
    return records


# -- serving ----------------------------------------------------------------


class Traffic:
    """Seeded requests against one saved pipeline, and their checks.

    Estimates use four configurations and one N each from a pool of
    1,000 sizes; the expected totals are computed here, before any load,
    by :meth:`RegistryEntry.cached_totals` on the same saved directory.
    ``optimize`` (top 3) and ``observe`` requests join with the given
    shares; optimize rankings are checked against a direct
    ``optimize_many`` on that directory's pipeline.
    """

    def __init__(self, directory: Path, seed: int, optimize_share: float = 0.0,
                 observe_share: float = 0.0, records: Sequence = ()):
        registry = ModelRegistry()
        registry.add(SERVED, directory)
        entry = registry.get(SERVED)
        pipeline = entry.pipeline
        self.rng = np.random.default_rng(seed)
        kinds = pipeline.plan.kinds
        candidates = pipeline.plan.evaluation_configs
        picks = self.rng.choice(len(candidates), size=4, replace=False)
        self.configs = [list(candidates[i].as_flat_tuple(kinds)) for i in picks]
        self.sizes = [int(n) for n in self.rng.choice(
            np.arange(1000, 10000), size=1000, replace=False)]
        self.totals: Dict[Tuple[tuple, int], float] = {}
        for values in self.configs:
            totals = entry.cached_totals(entry.parse_config(values), self.sizes)
            for n, total in zip(self.sizes, totals):
                self.totals[(tuple(values), n)] = float(total)
        self.rankings: Dict[int, list] = {}
        if optimize_share:
            for n, outcome in zip(self.sizes, pipeline.optimize_many(self.sizes)):
                self.rankings[n] = [
                    {"config": list(e.config.as_flat_tuple(kinds)),
                     "estimate_s": e.estimate_s}
                    for e in outcome.top(3)
                ]
        self.shares = (optimize_share, observe_share)
        self.records = [record.to_dict() for record in records]
        self.mismatches: List[str] = []

    def payloads(self, count: int) -> List[dict]:
        optimize_share, observe_share = self.shares
        draws = self.rng.random(count)
        sizes = self.rng.choice(self.sizes, size=count)
        out = []
        for i in range(count):
            n = int(sizes[i])
            if draws[i] < optimize_share:
                out.append({"op": "optimize", "pipeline": SERVED, "n": n, "top": 3})
            elif draws[i] < optimize_share + observe_share:
                out.append({"op": "observe", "pipeline": SERVED, "source": "bench",
                            "record": self.records[i % len(self.records)]})
            else:
                out.append({"op": "estimate", "pipeline": SERVED,
                            "config": self.configs[i % 4], "n": n})
        return out

    def check(self, payload: dict, reply: dict) -> bool:
        """Whether an ``ok`` reply carries the right answer; a wrong one
        is recorded as a mismatch."""
        result = reply["result"]
        op = payload["op"]
        if op == "estimate":
            want = [self.totals[(tuple(payload["config"]), payload["n"])]]
            ok = result["totals"] == want
        elif op == "optimize":
            want = self.rankings[payload["n"]]
            ok = result["sizes"][0]["ranking"] == want
        else:
            want = "an observation sequence number"
            ok = isinstance(result.get("seq"), int)
        if not ok:
            self.mismatches.append(f"{op} {payload.get('n')}: got {result}, want {want}")
        return ok


@dataclass
class Pass:
    """One server process's life: spawn, open-loop load, stats, stop."""

    #: Spawn to first ``ping`` reply on the wall clock, and the factor
    #: that brings it to reference speed.
    setup_wall_s: float
    setup_scale: float
    load: StepResult
    stats: dict
    report: dict


def serve_pass(directory: Path, work: Path, traffic: Traffic, rate: float,
               seconds: float, trace: bool, calibrate: bool = False) -> Pass:
    """Start a fresh server, send ``rate`` requests/s for ``seconds``,
    read its ``stats``, stop it."""
    calibrate_log = work / "observations.jsonl" if calibrate else None
    report = work / "server-report.json"
    for stale in (calibrate_log, report):
        if stale is not None and stale.exists():
            stale.unlink()
    scale = reference_scale()
    with ServerProcess(directory, SERVED, report, calibrate_log, trace) as server:
        setup_s = server.start()
        load = asyncio.run(open_loop(
            server.port, traffic.payloads(max(1, int(rate * seconds))), rate,
            traffic.check))
        stats = asyncio.run(request_once(server.port, {"op": "stats"}))["result"]
        return Pass(setup_s, scale, load, stats, server.stop())


def serve_counts(step: Pass, counts: Counts) -> None:
    """Per-layer counters a traced pass read from the server."""
    stats = step.stats
    counts.add("batcher.batch_size_mean", stats["batches"]["sizes"]["mean"])
    counts.add("batcher.groups_mean", stats["batches"]["groups"]["mean"])
    counts.add("registry.cache_hit_ratio", stats["cache"]["session_cache"]["hit_rate"])
    counts.add("server.shed", stats["shed"])
    counts.add("server.errors",
               sum(e["errors"] for e in stats["endpoints"].values()))
    counts.add("server.cpu_per_request",
               step.report["serving_cpu_s"] / step.load.attempted)
    for late in step.load.lateness:
        counts.add("gen.late", late)


def served_pipeline(seed: int, tracer: Tracer, counts: Counts) -> EstimationPipeline:
    """The pipeline the serve workloads serve: HPL under the NS protocol
    on the paper's cluster, built from ``seed``."""
    pipeline = EstimationPipeline(
        kishimoto_cluster(), PipelineConfig(protocol="ns", seed=seed))
    build(pipeline, tracer, counts)
    return pipeline


def probe_serving(work: Path, seed: int, tracer: Tracer, counts: Counts,
                  outcome: Outcome) -> None:
    """A short open-loop estimate step against a traced server: the
    serving layers' per-layer metrics for a workload that does not serve.
    It serves the serve workloads' pipeline (built untraced, so its build
    stays out of this workload's measure and fit spans), because a
    pipeline over a custom plan cannot be loaded back from disk."""
    pipeline = served_pipeline(seed, Tracer(enabled=False), Counts())
    directory = work / "probe-pipeline"
    with tracer.span("persistence.save"):
        save_pipeline(pipeline, directory)
    traffic = Traffic(directory, seed)
    step = serve_pass(directory, work, traffic, rate=200.0, seconds=1.5, trace=True)
    tracer.extend(step.report["spans"])
    serve_counts(step, counts)
    outcome.attempted += step.load.attempted
    outcome.failed += step.load.failed
    outcome.mismatches += traffic.mismatches


# -- workloads ----------------------------------------------------------------


class Workload:
    """One workload: ``setup`` once, then ``run`` for a number of seconds."""

    name = ""
    #: True: set-up happens in the benchmark process (timed by ``run.py``
    #: from process start, and repeated in fresh processes); False: the
    #: workload times its own set-ups.
    setup_in_process = True

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self, tracer: Tracer, counts: Counts, outcome: Outcome) -> None:
        raise NotImplementedError

    def run(self, seconds: float, traced: bool, tracer: Tracer, counts: Counts,
            outcome: Outcome) -> None:
        raise NotImplementedError


_REFERENCE_ARRAYS = [np.random.default_rng(0).random(64) for _ in range(8)]


def reference_loop() -> float:
    """Fixed work of the program's own kind, many small NumPy calls made
    from Python, timed around every step of a closed loop to gauge the
    host's speed.  Of the references tried it tracked the closed loops'
    drift best: 2,500 rounds of ``maximum``/``cumsum``/``argmin`` on
    64-element arrays, against a pure-Python loop, large memory-bound
    array arithmetic and row sorts of a 300 x 300 matrix."""
    total = 0.0
    for k in range(2500):
        a = _REFERENCE_ARRAYS[k & 7]
        b = np.maximum(a, 0.5) + np.cumsum(a)
        total += float(b[np.argmin(b)])
    return total


def time_reference() -> float:
    """Wall time of one :func:`reference_loop`, in ms."""
    started = time.perf_counter()
    reference_loop()
    return (time.perf_counter() - started) * 1e3


def reference_scale(runs: int = 5) -> float:
    """:data:`REFERENCE_MS` over the median wall time of ``runs``
    reference loops run now: the factor that brings a time measured just
    before to reference speed."""
    return REFERENCE_MS / percentile([time_reference() for _ in range(runs)], 50)


class Steps:
    """Step times of a closed loop's rounds, on the wall clock and at
    reference speed.

    The speed of the two-CPU host this was written on drifts by a third
    within minutes, as neighbours load the machine.  The reference loop
    is timed just before and just after each step (one run between two
    steps of a round serves both), and the step's time at reference
    speed is its wall time times :data:`REFERENCE_MS` over the mean of
    the two.
    """

    def __init__(self) -> None:
        self.wall_ms: Dict[str, List[float]] = defaultdict(list)
        self.scaled_ms: Dict[str, List[float]] = defaultdict(list)
        self.reference_ms: List[float] = []
        #: The reference time that ended the previous step of this round.
        self.last: Optional[float] = None

    def reference(self) -> float:
        elapsed = time_reference()
        self.reference_ms.append(elapsed)
        return elapsed

    @contextmanager
    def span(self, name: str):
        before = self.reference() if self.last is None else self.last
        started = time.perf_counter()
        yield
        wall = (time.perf_counter() - started) * 1e3
        self.last = after = self.reference()
        self.wall_ms[name].append(wall)
        self.scaled_ms[name].append(wall * REFERENCE_MS / ((before + after) / 2))

    def end_round(self) -> None:
        self.last = None

    def median_sum(self) -> float:
        return sum(percentile(times, 50) for times in self.scaled_ms.values())


class ClosedLoop(Workload):
    """Back-to-back rounds until the time is up.  A round is a fixed
    sequence of named steps, each timed into :attr:`steps`.  A traced run
    alternates traced and untraced rounds; their step medians give the
    trace overhead."""

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        #: Step times of the rounds being timed (set-up's are dropped).
        self.steps = Steps()

    def round(self, index: int, tracer: Tracer, counts: Counts,
              outcome: Outcome) -> None:
        raise NotImplementedError

    def probe(self, tracer: Tracer, counts: Counts, outcome: Outcome) -> None:
        raise NotImplementedError

    def run(self, seconds, traced, tracer, counts, outcome):
        untraced = Tracer(enabled=False)
        steps = {True: Steps(), False: Steps()}
        deadline = time.perf_counter() + seconds
        index = 1
        while index <= (2 if traced else 1) or time.perf_counter() < deadline:
            on = traced and index % 2 == 0
            self.steps = steps[on]
            self.round(index, tracer if on else untraced, counts, outcome)
            self.steps.end_round()
            index += 1
        outcome.record_rounds(steps[False])
        if traced:
            counts.add("trace.overhead_frac",
                       steps[True].median_sum() / steps[False].median_sum() - 1.0)
            self.probe(tracer, counts, outcome)


class BuildPaper(ClosedLoop):
    """Each round builds the nine paper pipelines (three workload
    families x the Basic/NL/NS protocols) cold on the paper's cluster,
    with seed ``S + round``, and answers ``optimize_many`` over each
    plan's evaluation sizes; each pipeline is one step.  Every winner is
    re-checked with a scalar ``estimate``.  Set-up warms up by building
    the three families' NS pipelines once."""

    name = "build-paper"

    def setup(self, tracer, counts, outcome):
        self.spec = kishimoto_cluster()
        self.round(0, tracer, counts, outcome, protocols=("ns",))

    def round(self, index, tracer, counts, outcome, protocols=PROTOCOLS):
        for family in FAMILIES:
            for protocol in protocols:
                with self.steps.span(f"{family}/{protocol}"):
                    self.build_and_search(family, protocol, self.seed + index,
                                          tracer, counts, outcome)

    def build_and_search(self, family, protocol, seed, tracer, counts, outcome):
        pipeline = EstimationPipeline(self.spec, PipelineConfig(
            protocol=protocol, seed=seed, workload=family))
        build(pipeline, tracer, counts)
        sizes = pipeline.plan.evaluation_sizes
        outcomes = search_call(pipeline, "exhaustive", sizes, tracer, counts)
        for n, searched in zip(sizes, outcomes):
            best = searched.ranking[0]
            with tracer.span("estimator.scalar"):
                again = pipeline.estimate(best.config, n).total
            outcome.check(
                again == best.estimate_s,
                f"{family}/{protocol} seed {seed} N={n}: "
                f"winner {best.estimate_s!r}, scalar re-check {again!r}")
        pipeline_counts(pipeline, counts, optimize_calls=1)
        if family == "hpl" and protocol == "basic":
            self.last = pipeline

    def probe(self, tracer, counts, outcome):
        pipeline = self.last
        sizes = list(pipeline.plan.evaluation_sizes)
        probe_search(pipeline, sizes, tracer, counts, tags=SEARCH_TAGS[1:])
        probe_estimation(pipeline, pipeline.plan.evaluation_configs, sizes,
                         tracer, counts)
        probe_calibrate(pipeline, observations(pipeline, sizes, self.seed, 32),
                        self.work / "probe-observations.jsonl", tracer, counts)
        probe_serving(self.work, self.seed, tracer, counts, outcome)


class SearchWide(ClosedLoop):
    """A fitted pipeline over 28,560 candidate configurations (four
    synthetic kinds, 4 nodes x 2 CPUs each, up to 3 processes per PE on
    every kind).  Each round asks every search backend for the best
    configuration at four fresh sizes, cold, then makes 500 scalar
    estimates at those sizes, each checked bitwise against the grid
    kernel's value in the exhaustive ranking.  Each backend's call is a
    step, and so are the scalar estimates."""

    name = "search-wide"
    KIND_GFLOPS = (0.3, 0.6, 1.2, 2.4)
    CONSTRUCTION = (400, 800, 1600, 3200)
    EVALUATION = (1600, 3200, 6400)
    SCALAR_CALLS = 500

    def setup(self, tracer, counts, outcome):
        spec = synthetic_cluster(self.KIND_GFLOPS, nodes_per_kind=4, cpus_per_node=2)
        plan = custom_plan(spec, self.CONSTRUCTION, self.EVALUATION, max_procs=3,
                           multiproc_kinds=spec.kind_names)
        # adjust=False: the adjustment's ground truth would simulate
        # every candidate configuration.
        self.pipeline = EstimationPipeline(
            spec, PipelineConfig(seed=self.seed, adjust=False), plan=plan)
        build(self.pipeline, tracer, counts)
        self.rng = np.random.default_rng(self.seed)
        self.fresh = iter(int(n) for n in self.rng.permutation(np.arange(1000, 12001)))
        self.calls = 0
        # Routes every (kind, P, Mi) model into the grid kernel once.
        search_call(self.pipeline, "exhaustive", [next(self.fresh)], Tracer(False),
                    Counts())

    def round(self, index, tracer, counts, outcome):
        pipeline = self.pipeline
        ns = [next(self.fresh) for _ in range(4)]
        winners: Dict[str, list] = {}
        for tag in SEARCH_TAGS:
            with self.steps.span(tag):
                winners[tag] = search_call(pipeline, tag, ns, tracer, counts)
            self.calls += 1
        exact = winners["exhaustive"]
        for i, n in enumerate(ns):
            best = exact[i].ranking[0]
            got = winners["branch-bound"][i].ranking[0]
            outcome.check(
                (got.config.key(), got.estimate_s) == (best.config.key(), best.estimate_s),
                f"branch-bound N={n}: {got.config.label()} {got.estimate_s!r}, "
                f"exhaustive {best.config.label()} {best.estimate_s!r}")
            for tag, ratio in HEURISTIC_RATIO.items():
                found = winners[tag][i].ranking[0].estimate_s
                outcome.check(found <= ratio * best.estimate_s,
                              f"{tag} N={n}: {found!r} > {ratio} x {best.estimate_s!r}")
        positions = self.rng.integers(len(exact[0].ranking), size=self.SCALAR_CALLS)
        with self.steps.span("scalar"):
            for call, position in enumerate(positions):
                i = call % len(ns)
                entry = exact[i].ranking[int(position)]
                with tracer.span("estimator.scalar"):
                    value = pipeline.estimate(entry.config, ns[i]).total
                outcome.check(value == entry.estimate_s,
                              f"scalar {entry.config.label()} N={ns[i]}: {value!r}, "
                              f"grid {entry.estimate_s!r}")

    def probe(self, tracer, counts, outcome):
        pipeline = self.pipeline
        pipeline_counts(pipeline, counts, optimize_calls=self.calls)
        ns = [next(self.fresh) for _ in range(4)]
        probe_estimation(pipeline, pipeline.plan.evaluation_configs, ns, tracer,
                         counts)
        probe_calibrate(pipeline, observations(pipeline, ns, self.seed, 32),
                        self.work / "probe-observations.jsonl", tracer, counts)
        probe_serving(self.work, self.seed, tracer, counts, outcome)


class Serve(Workload):
    """Open-loop load at a fixed rate against a served pipeline.

    The pipeline (HPL, NS protocol, the paper's cluster) is built from
    the seed and saved; each of three passes starts a fresh server
    (spawn to first ``ping`` reply is one set-up sample) and sends
    :attr:`rate` requests per second for a third of the run.  A traced
    run traces the middle pass only; the other two give the trace
    overhead.
    """

    setup_in_process = False
    PASSES = 3
    rate = 0.0
    optimize_share = 0.0
    observe_share = 0.0

    def setup(self, tracer, counts, outcome):
        self.pipeline = served_pipeline(self.seed, tracer, counts)
        self.directory = self.work / "pipeline"
        with tracer.span("persistence.save"):
            save_pipeline(self.pipeline, self.directory)
        records = ()
        if self.observe_share:
            records = observations(self.pipeline, range(1600, 4000, 80),
                                   self.seed, 64)
        self.traffic = Traffic(self.directory, self.seed, self.optimize_share,
                               self.observe_share, records)

    def run(self, seconds, traced, tracer, counts, outcome):
        passes: List[Pass] = []
        for index in range(self.PASSES):
            on = traced and index == 1
            step = serve_pass(self.directory, self.work, self.traffic, self.rate,
                              seconds / self.PASSES, trace=on,
                              calibrate=bool(self.observe_share))
            passes.append(step)
            outcome.add_setup(step.setup_wall_s, step.setup_scale)
            outcome.attempted += step.load.attempted
            outcome.failed += step.load.failed
            if on:
                tracer.extend(step.report["spans"])
                serve_counts(step, counts)
                if self.observe_share:
                    counts.add("calibrate.observations",
                               step.stats["calibration"]["observations"])
        outcome.mismatches += self.traffic.mismatches
        outcome.server_rss_mb = max(p.report["peak_rss_mb"] for p in passes)
        untraced = [p for i, p in enumerate(passes) if not (traced and i == 1)]
        latencies = [t * 1e3 for p in untraced for t in p.load.latencies]
        outcome.record_latency(
            latencies, [percentile(p.load.latencies, 50) * 1e3 for p in untraced])
        if traced:
            traced_p50 = percentile(passes[1].load.latencies, 50) * 1e3
            counts.add("trace.overhead_frac",
                       traced_p50 / percentile(latencies, 50) - 1.0)
            self.probe(tracer, counts)

    def probe(self, tracer: Tracer, counts: Counts) -> None:
        pipeline = self.pipeline
        sizes = self.traffic.sizes[:4]
        probe_search(pipeline, sizes, tracer, counts)
        pipeline_counts(pipeline, counts, optimize_calls=len(SEARCH_TAGS))
        probe_estimation(pipeline, pipeline.plan.evaluation_configs, sizes,
                         tracer, counts)
        if not self.observe_share:
            probe_calibrate(pipeline, observations(pipeline, sizes, self.seed, 32),
                            self.work / "probe-observations.jsonl", tracer, counts)


class ServeEstimate(Serve):
    """Estimate requests only, open loop at 500 requests/s."""

    name = "serve-estimate"
    rate = 500.0


class ServeMixed(Serve):
    """60% estimate, 25% optimize (top 3), 15% observe into a calibration
    loop on a file-backed log; open loop at 150 requests/s."""

    name = "serve-mixed"
    rate = 150.0
    optimize_share = 0.25
    observe_share = 0.15


WORKLOADS: Dict[str, Callable[[int, Path], Workload]] = {
    cls.name: cls for cls in (BuildPaper, SearchWide, ServeEstimate, ServeMixed)
}

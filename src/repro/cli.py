"""Command-line interface: regenerate any of the paper's experiments.

Examples::

    repro describe                      # Table 1 (cluster inventory)
    repro workloads                     # registered workload families
    repro fig1 --mpich 1.2.1            # Fig. 1(a) series
    repro fig2                          # Fig. 2 (NetPIPE curves)
    repro fig3                          # Fig. 3(a)+(b) series
    repro campaign --protocol ns --profile      # measurements + PerfReport
    repro cost --protocol basic         # Table 3 (measurement cost)
    repro verify --protocol ns          # Table 9 (best-config errors)
    repro correlate --protocol basic --n 6400   # Fig. 6/7 ASCII scatter
    repro optimize --protocol nl --n 8000       # ranked configurations
    repro pareto --protocol basic --n 5000      # time/cost Pareto frontier
    repro report --protocol basic       # everything for one protocol
    repro models --dir saved/           # model inventory of a saved pipeline
    repro models --dir ledger/ --fingerprints   # ledger <-> artifact fingerprints
    repro calibrate status --dir saved/ --log obs.jsonl   # drift state
    repro calibrate refit --dir saved/ --log obs.jsonl --versions ledger/
    repro calibrate promote --versions ledger/ --dir saved/

Every command is deterministic in ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.correlation import correlation_data
from repro.analysis.figures import (
    ascii_scatter,
    fig1_series,
    fig2_series,
    fig3a_series,
    fig3b_series,
    series_table,
)
from repro.analysis.report import cost_table, protocol_report, verification_table
from repro.cluster.presets import kishimoto_cluster
from repro.core.model_api import MODEL_META_KEYS
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.errors import ReproError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'An Execution-Time Estimation Model for "
            "Heterogeneous Clusters' (IPDPS 2004)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign seed")
    parser.add_argument(
        "--mpich",
        default="1.2.5",
        choices=["1.2.1", "1.2.2", "1.2.5"],
        help="intra-node MPI version of the cluster",
    )
    parser.add_argument(
        "--network",
        default="100base-tx",
        choices=["100base-tx", "1000base-sx"],
        help="inter-node network of the cluster",
    )
    parser.add_argument(
        "--cluster",
        default=None,
        metavar="FILE",
        help=(
            "JSON cluster description (see repro.cluster.serialize); "
            "overrides the built-in paper testbed and the --mpich/--network "
            "options"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("describe", help="cluster inventory (the paper's Table 1)")

    workloads = sub.add_parser(
        "workloads", help="registered workload families (tags, phases, grids)"
    )
    workloads.add_argument(
        "--tag", default=None, help="show one workload family (default: all)"
    )

    fig1 = sub.add_parser("fig1", help="single-PE multiprocessing Gflops (Fig. 1)")
    fig1.add_argument("--mpich-version", default=None, choices=["1.2.1", "1.2.2"])

    sub.add_parser("fig2", help="intra-node NetPIPE throughput (Fig. 2)")
    sub.add_parser("fig3", help="heterogeneous-cluster Gflops (Fig. 3)")

    for name, help_text in [
        ("cost", "measurement-cost table (Tables 3/6)"),
        ("verify", "best-configuration error table (Tables 4/7/9)"),
        ("report", "full protocol report"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "--protocol", default="basic", choices=["basic", "nl", "ns"]
        )

    campaign = sub.add_parser(
        "campaign", help="run a construction campaign (the measurement step)"
    )
    campaign.add_argument(
        "--protocol", default="basic", choices=["basic", "nl", "ns"]
    )
    campaign.add_argument(
        "--workload", default="hpl",
        help="workload family tag (see `repro workloads`)",
    )
    campaign.add_argument(
        "--workers", type=int, default=1, help="process-pool width for the runs"
    )
    campaign.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print the per-stage PerfReport (walker time, batch sizes, "
            "panel-table hits, grid-kernel blocks) after the run"
        ),
    )

    corr = sub.add_parser("correlate", help="estimate-vs-measurement scatter (Figs 6-15)")
    corr.add_argument("--protocol", default="basic", choices=["basic", "nl", "ns"])
    corr.add_argument("--n", type=int, default=6400)
    corr.add_argument(
        "--raw", action="store_true", help="before adjustment (Figs 6/8/9/12/14)"
    )

    opt = sub.add_parser("optimize", help="rank candidate configurations")
    opt.add_argument("--protocol", default="basic", choices=["basic", "nl", "ns"])
    opt.add_argument(
        "--workload", default="hpl",
        help="workload family tag (see `repro workloads`)",
    )
    opt.add_argument("--n", type=int, required=True)
    opt.add_argument("--top", type=int, default=10)
    opt.add_argument(
        "--backend",
        default=None,
        help=(
            "search backend tag (exhaustive, branch-bound, beam, greedy, "
            "hill-climb, anneal; default: the pipeline's configured backend)"
        ),
    )
    opt.add_argument(
        "--budget",
        type=int,
        default=None,
        help="evaluation budget for budget-capable backends (default: unbounded)",
    )
    opt.add_argument(
        "--max-cost",
        type=float,
        default=None,
        help="dollar cap per run (needs a priced cluster; uses budget-frontier)",
    )
    opt.add_argument(
        "--objective",
        default=None,
        help="'time' (default) or 'weighted:ALPHA' time/cost scalarization",
    )
    opt.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print the pipeline's PerfReport (cache hit rates, per-backend "
            "search stats, grid-kernel block/fallback counters)"
        ),
    )

    pareto = sub.add_parser(
        "pareto", help="time/cost Pareto frontier over the candidate grid"
    )
    pareto.add_argument("--protocol", default="basic", choices=["basic", "nl", "ns"])
    pareto.add_argument(
        "--workload", default="hpl",
        help="workload family tag (see `repro workloads`)",
    )
    pareto.add_argument("--n", type=int, required=True)
    pareto.add_argument(
        "--budget",
        type=int,
        default=None,
        help="evaluation budget for the frontier search (default: unbounded)",
    )
    pareto.add_argument(
        "--max-cost",
        type=float,
        default=None,
        help="only keep frontier points with dollar cost <= this cap",
    )
    pareto.add_argument(
        "--rates",
        default=None,
        help=(
            "JSON rate card (repro.cost.model format); default: the cluster's "
            "own card, else the paper-era published card"
        ),
    )

    advise = sub.add_parser(
        "advise", help="sanity-check a measurement plan before running it"
    )
    advise.add_argument("--protocol", default="basic", choices=["basic", "nl", "ns"])
    advise.add_argument(
        "--workload", default="hpl",
        help="workload family tag (see `repro workloads`)",
    )

    breakdown = sub.add_parser(
        "breakdown", help="phase breakdown of one simulated run (Fig. 4 analog)"
    )
    breakdown.add_argument(
        "--config",
        required=True,
        help="flat configuration tuple, e.g. 1,2,8,1 (P1,M1,P2,M2 order of the cluster's kinds)",
    )
    breakdown.add_argument("--n", type=int, required=True)
    breakdown.add_argument(
        "--per-process", action="store_true", help="also print per-rank rows"
    )

    save = sub.add_parser(
        "save", help="run a pipeline and persist it for repro serve/estimate"
    )
    save.add_argument("--protocol", default="basic", choices=["basic", "nl", "ns"])
    save.add_argument(
        "--workload", default="hpl",
        help="workload family tag (see `repro workloads`)",
    )
    save.add_argument("--out", required=True, help="target directory")

    models = sub.add_parser(
        "models", help="model inventory of a saved pipeline directory"
    )
    models.add_argument(
        "--dir",
        required=True,
        help="directory written by save_pipeline (see repro.core.persistence)",
    )
    models.add_argument(
        "--fingerprints",
        action="store_true",
        help=(
            "terse fingerprint listing (accepts a version-ledger root too), "
            "for correlating ledger versions with on-disk artifacts"
        ),
    )

    calibrate = sub.add_parser(
        "calibrate",
        help="online-calibration loop: drift status, refit, promote, rollback",
    )
    calibrate_sub = calibrate.add_subparsers(dest="calibrate_command", required=True)
    cal_status = calibrate_sub.add_parser(
        "status", help="replay an observation log and report drift state"
    )
    cal_refit = calibrate_sub.add_parser(
        "refit", help="build + shadow-score a refit candidate from the log"
    )
    for cmd in (cal_status, cal_refit):
        cmd.add_argument(
            "--dir", required=True, help="served pipeline directory (the incumbent)"
        )
        cmd.add_argument(
            "--log", required=True, help="observation log (JSONL, see ObservationLog)"
        )
        cmd.add_argument(
            "--versions", default=None, help="model-version ledger root"
        )
    cal_refit.add_argument(
        "--holdout", type=float, default=0.25,
        help="fraction of the log tail held out for shadow evaluation",
    )
    cal_promote = calibrate_sub.add_parser(
        "promote", help="activate a ledger version (default: newest candidate)"
    )
    cal_promote.add_argument(
        "--version", default=None, help="version id (e.g. v0002)"
    )
    cal_rollback = calibrate_sub.add_parser(
        "rollback", help="re-promote the previously active version"
    )
    for cmd in (cal_promote, cal_rollback):
        cmd.add_argument(
            "--versions", required=True, help="model-version ledger root"
        )
        cmd.add_argument(
            "--dir", default=None,
            help=(
                "served pipeline directory to re-save the activated version "
                "into (a running `repro serve` hot-reloads it)"
            ),
        )

    estimate = sub.add_parser(
        "estimate", help="estimate one configuration from a saved pipeline"
    )
    estimate.add_argument(
        "--dir", required=True, help="directory written by save_pipeline"
    )
    estimate.add_argument(
        "--config",
        required=True,
        help="flat configuration tuple, e.g. 1,2,8,1 (P1,M1,P2,M2 order)",
    )
    estimate.add_argument(
        "--n",
        type=int,
        required=True,
        action="append",
        help="problem order (repeatable for several sizes)",
    )
    estimate.add_argument(
        "--workload", default=None,
        help=(
            "assert the saved pipeline's workload family tag "
            "(error out instead of estimating with the wrong simulator's "
            "models)"
        ),
    )

    serve = sub.add_parser(
        "serve", help="serve saved pipelines over a JSON-lines TCP socket"
    )
    serve.add_argument(
        "--dir",
        required=True,
        action="append",
        metavar="[NAME=]PATH",
        help=(
            "saved pipeline directory to serve (repeatable); NAME defaults "
            "to the directory's basename"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7453)
    serve.add_argument(
        "--max-pending", type=int, default=256,
        help="pending-queue bound; beyond it requests are shed (Overloaded)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64,
        help=(
            "micro-batch size cap; a batch takes what queued while the "
            "previous one ran (1 disables batching)"
        ),
    )
    serve.add_argument(
        "--cache-capacity", type=int, default=4096,
        help="per-pipeline bound on the estimate and search-engine caches (0 = unbounded)",
    )
    serve.add_argument(
        "--refresh-interval", type=float, default=0.5,
        help="seconds between hot-reload directory checks (0 disables)",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help=(
            "replica processes; 1 = classic single process, 0 = one per "
            "available CPU, N = a fleet of N sharing the port with "
            "zero-copy shared model artifacts"
        ),
    )
    serve.add_argument(
        "--listener", choices=("auto", "reuseport", "router"), default="auto",
        help=(
            "fleet accept sharding: SO_REUSEPORT kernel balancing or a "
            "round-robin front router (auto picks by platform support)"
        ),
    )

    client = sub.add_parser(
        "client", help="query a running `repro serve` (smoke testing)"
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=7453)
    client.add_argument(
        "--op",
        required=True,
        choices=[
            "estimate", "optimize", "whatif", "pareto", "models", "stats",
            "reload", "ping", "calibration", "fleet_status",
        ],
    )
    client.add_argument("--pipeline", default=None, help="pipeline name on the server")
    client.add_argument("--config", default=None, help="flat tuple, e.g. 1,2,8,1")
    client.add_argument(
        "--n", type=int, action="append", default=None, help="problem order (repeatable)"
    )
    client.add_argument("--top", type=int, default=10, help="ranking depth (optimize)")
    client.add_argument(
        "--backend", default=None, help="search backend tag (optimize/whatif)"
    )
    client.add_argument(
        "--budget",
        type=int,
        default=None,
        help="evaluation budget (optimize/whatif/pareto)",
    )
    client.add_argument(
        "--max-cost",
        type=float,
        default=None,
        help="dollar cap (optimize/pareto)",
    )
    client.add_argument(
        "--objective",
        default=None,
        help="'time' or 'weighted:ALPHA' scalarization (optimize)",
    )
    client.add_argument(
        "--workload",
        default=None,
        help=(
            "workload family tag asserted on the request "
            "(estimate/optimize/whatif/pareto)"
        ),
    )

    export = sub.add_parser(
        "export", help="write every experiment's data as CSV for plotting"
    )
    export.add_argument("--out", required=True, help="output directory")
    export.add_argument(
        "--protocol",
        default="all",
        choices=["all", "basic", "nl", "ns"],
        help="which protocol tables to export (figures always exported)",
    )

    return parser


def _spec(args: argparse.Namespace):
    if getattr(args, "cluster", None):
        from repro.cluster.serialize import load_cluster

        return load_cluster(args.cluster)
    return kishimoto_cluster(mpich=args.mpich, network=args.network)


def _priced_pipeline(args: argparse.Namespace) -> EstimationPipeline:
    """A pipeline whose cluster carries a rate card: ``--rates FILE`` when
    given, the cluster's own card when priced, else the published
    paper-era card (with a note, so the fallback is never silent)."""
    spec = _spec(args)
    rates = getattr(args, "rates", None)
    if rates is not None:
        import json as _json

        from repro.cost.model import cost_model_from_dict

        with open(rates, "r", encoding="utf-8") as handle:
            data = _json.load(handle)
        spec = spec.with_cost(cost_model_from_dict(data, origin=rates))
    elif spec.cost is None:
        from repro.cost.presets import kishimoto_rate_card

        print(
            f"note: cluster {spec.name!r} has no rate card; using the "
            "published paper-era card (override with --rates FILE)"
        )
        spec = spec.with_cost(kishimoto_rate_card())
    return EstimationPipeline(
        spec,
        PipelineConfig(
            protocol=args.protocol, seed=args.seed,
            workload=getattr(args, "workload", None) or "hpl",
        ),
    )


def _pipeline(args: argparse.Namespace) -> EstimationPipeline:
    return EstimationPipeline(
        _spec(args),
        PipelineConfig(
            protocol=args.protocol, seed=args.seed,
            workload=getattr(args, "workload", None) or "hpl",
        ),
    )


def _model_inventory(pipeline: EstimationPipeline, source: str) -> str:
    """The fitted/composed model inventory of a loaded pipeline: one row
    per model with its registry type, identity, provenance, coefficients
    and fingerprint (everything the estimate cache keys on)."""

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.6g}"
        if isinstance(value, list):
            return "[" + ", ".join(fmt(v) for v in value) + "]"
        return str(value)

    facade = pipeline.models
    models = list(facade.models())
    lines = [
        f"{len(models)} models from {source} "
        f"(backend: {facade.backend.name}, "
        f"store fingerprint {pipeline.store.fingerprint()})"
    ]
    for model in models:
        data = model.to_dict()
        p = data.get("p")
        identity = f"{model.kind_name:<10s} Mi={model.mi}" + (
            f" P={p}" if p is not None else ""
        )
        origin = (
            f"composed<-{data['composed_from']}"
            if model.is_composed
            else "fitted"
        )
        coefficients = "  ".join(
            f"{key}={fmt(value)}"
            for key, value in data.items()
            if key not in MODEL_META_KEYS
        )
        lines.append(
            f"  {model.model_type:<8s} {identity:<22s} {origin:<20s} "
            f"{model.fingerprint()}  {coefficients}"
        )
    return "\n".join(lines)


def _fingerprint_listing(directory: str) -> str:
    """``repro models --fingerprints``: terse fingerprint-per-line output.

    Accepts either a version-ledger root (rows straight from the ledger
    MANIFEST) or a single saved-pipeline directory (its estimate-cache,
    store and per-model fingerprints).
    """
    from pathlib import Path

    from repro.calibrate import ModelVersions
    from repro.core.persistence import load_pipeline

    if (Path(directory) / "MANIFEST.json").exists():
        versions = ModelVersions(directory)
        lines = [f"ledger {directory} (active: {versions.active_id or '-'})"]
        for info in versions.history():
            marker = "*" if info.version_id == versions.active_id else " "
            lines.append(
                f" {marker} {info.version_id}  {info.fingerprint}  "
                f"[{info.status}]  parent={info.parent_fingerprint or '-'}  "
                f"protocol={info.protocol}"
            )
        return "\n".join(lines)
    pipeline = load_pipeline(directory)
    lines = [
        f"pipeline {directory}",
        f"  estimate-cache fingerprint: {pipeline.estimate_cache.fingerprint}",
        f"  store fingerprint:          {pipeline.store.fingerprint()}",
    ]
    for model in pipeline.models.models():
        p = model.to_dict().get("p")
        identity = f"{model.kind_name} Mi={model.mi}" + (
            f" P={p}" if p is not None else ""
        )
        lines.append(f"  {model.fingerprint()}  {model.model_type:<8s} {identity}")
    return "\n".join(lines)


def _run_calibrate(args: argparse.Namespace) -> None:
    """``repro calibrate status|refit|promote|rollback``."""
    import json

    from repro.calibrate import Calibrator, ModelVersions, ObservationLog, Recalibrator
    from repro.core.persistence import load_pipeline, save_pipeline

    command = args.calibrate_command
    if command in ("status", "refit"):
        pipeline = load_pipeline(args.dir)
        versions = ModelVersions(args.versions) if args.versions else None
        with ObservationLog(args.log) as log:
            calibrator = Calibrator(
                name="cli",
                pipeline_provider=lambda: pipeline,
                log=log,
                versions=versions,
                recalibrator=Recalibrator(
                    holdout_fraction=getattr(args, "holdout", 0.25)
                ),
            )
            calibrator.replay_log()
            if command == "status":
                print(json.dumps(calibrator.status(), indent=1))
                print()
                print(calibrator.detector.describe())
                return
            info, shadow = calibrator.refit()
            print(shadow.describe())
            print(
                f"candidate {info.version_id} recorded "
                f"(fingerprint {info.fingerprint}, "
                f"parent {info.parent_fingerprint}) in {versions.root}"
            )
        return

    versions = ModelVersions(args.versions)
    if command == "promote":
        version_id = args.version
        if version_id is None:
            candidates = [v for v in versions.history() if v.status == "candidate"]
            if not candidates:
                raise ReproError("no candidate version to promote")
            version_id = candidates[-1].version_id
        info = versions.promote(version_id)
        verb = "promoted"
    else:
        info = versions.rollback()
        verb = "rolled back to"
    print(f"{verb} {info.version_id} (fingerprint {info.fingerprint})")
    if args.dir:
        pipeline = versions.load_pipeline(info.version_id)
        save_pipeline(
            pipeline,
            args.dir,
            include_evaluation=pipeline.graph.has("evaluation"),
        )
        print(f"re-saved active version into {args.dir} (hot-reload target)")


def _parse_dir_specs(specs) -> list:
    """``NAME=PATH`` (NAME defaulting to the basename) -> ``(name, path)``
    pairs, in order.  A name given twice raises the registry's error
    before either path is loaded."""
    from pathlib import Path

    out = []
    for spec_text in specs:
        name, _, path = spec_text.rpartition("=")
        name = name or Path(path).name or "pipeline"
        if any(name == seen for seen, _ in out):
            raise ReproError(f"pipeline name {name!r} already registered")
        out.append((name, path))
    return out


def _run_fleet(args: argparse.Namespace) -> None:
    """``repro serve --workers N``: a sharded multi-process fleet."""
    import signal
    import threading

    from repro.serve import FleetConfig, FleetSupervisor

    pipelines = dict(_parse_dir_specs(args.dir))
    config = FleetConfig(
        workers=args.workers,
        host=args.host,
        port=args.port,
        listener=args.listener,
        max_pending=args.max_pending,
        max_batch=args.max_batch,
        cache_capacity=args.cache_capacity if args.cache_capacity > 0 else None,
    )
    supervisor = FleetSupervisor(pipelines, config)
    stop = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    with supervisor:
        print(
            f"fleet of {supervisor.workers} replicas serving "
            f"{len(supervisor.pipelines)} pipeline(s) on "
            f"{supervisor.host}:{supervisor.port} "
            f"(listener={supervisor.listener}); Ctrl-C to stop"
        )
        for name, segment in sorted(supervisor._segments.items()):
            print(
                f"  shared {name!r}: {segment.size} bytes, "
                f"fingerprint {segment.meta.get('fingerprint')}"
            )
        stop.wait()
        status = supervisor.status()
        totals = status["totals"]
        print(
            f"\nfleet served {totals['requests']} requests "
            f"({totals['shed']} shed, {totals['errors']} errors) "
            f"across {len(status['workers'])} replicas; "
            f"restarts {status['restarts']}"
        )


def _run_server(args: argparse.Namespace) -> None:
    """``repro serve``: load every --dir, serve until interrupted."""
    import asyncio

    from repro.serve import EstimationServer, ModelRegistry

    if args.workers != 1:
        _run_fleet(args)
        return

    registry = ModelRegistry(
        cache_capacity=args.cache_capacity if args.cache_capacity > 0 else None
    )
    for name, path in _parse_dir_specs(args.dir):
        entry = registry.add(name, path)
        print(
            f"loaded {name!r} from {path} "
            f"(protocol {entry.pipeline.plan.name}, "
            f"workload {entry.workload}, "
            f"fingerprint {entry.fingerprint})"
        )

    async def run() -> None:
        server = EstimationServer(
            registry,
            host=args.host,
            port=args.port,
            max_pending=args.max_pending,
            max_batch=args.max_batch,
            refresh_interval_s=args.refresh_interval or None,
        )
        host, port = await server.start()
        print(
            f"serving {len(registry)} pipeline(s) on {host}:{port} "
            f"(max_batch={args.max_batch}, max_pending={args.max_pending}); "
            "Ctrl-C to stop"
        )
        try:
            await server.serve_forever()
        finally:
            await server.shutdown()
            print("\n" + server.metrics.describe())

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass


def _run_client(args: argparse.Namespace) -> None:
    """``repro client``: one request against a running server."""
    import json

    from repro.serve import ServeClient

    params = {}
    if args.pipeline is not None:
        params["pipeline"] = args.pipeline
    if args.config is not None:
        params["config"] = [int(v) for v in args.config.split(",")]
    if args.n:
        params["ns"] = list(args.n)
    if args.op == "optimize":
        params["top"] = args.top
        if args.objective is not None:
            params["objective"] = args.objective
    if args.op in ("optimize", "whatif"):
        if args.backend is not None:
            params["backend"] = args.backend
    if args.op in ("optimize", "whatif", "pareto"):
        if args.budget is not None:
            params["budget"] = args.budget
    if args.op in ("optimize", "pareto"):
        if args.max_cost is not None:
            params["max_cost"] = args.max_cost
    if args.op in ("estimate", "optimize", "whatif", "pareto"):
        if args.workload is not None:
            params["workload"] = args.workload
    try:
        client = ServeClient(args.host, args.port)
    except OSError as exc:
        raise ReproError(
            f"cannot reach server at {args.host}:{args.port} ({exc})"
        ) from exc
    with client:
        reply = client.request(args.op, **params)
    print(json.dumps(reply, indent=1))
    if not reply.get("ok"):
        error = reply.get("error") or {}
        raise ReproError(
            f"{error.get('type', 'Internal')}: {error.get('message', 'request failed')}"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _dispatch(args: argparse.Namespace) -> None:
    if args.command == "describe":
        print(_spec(args).describe())
    elif args.command == "workloads":
        from repro.workloads import create_workload, iter_workloads

        selected = (
            [(args.tag, create_workload(args.tag))]
            if args.tag is not None
            else list(iter_workloads())
        )
        for tag, workload in selected:
            info = workload.describe()
            sizes = info["construction_sizes"]
            eval_sizes = info["evaluation_sizes"]
            print(f"{tag}: {info['display']}")
            print(
                "  phases: "
                + ", ".join(
                    f"{name}{'*' if name in info['comm_phases'] else ''}"
                    for name in info["phases"]
                )
                + "  (* = communication)"
            )
            print(
                f"  construction grid: {info['construction_configs']} configs x "
                f"{len(sizes)} sizes (N {sizes[0]}..{sizes[-1]})"
            )
            print(
                f"  evaluation grid:   {info['evaluation_configs']} configs x "
                f"{len(eval_sizes)} sizes (N {eval_sizes[0]}..{eval_sizes[-1]})"
            )
    elif args.command == "fig1":
        versions = (
            [args.mpich_version] if args.mpich_version else ["1.2.1", "1.2.2"]
        )
        for version in versions:
            print(f"\nFigure 1 ({version}): HPL Gflops, one Athlon, n processes/CPU")
            print(series_table(fig1_series(version, seed=args.seed), "N"))
    elif args.command == "fig2":
        print("Figure 2: intra-node throughput [Gbit/s] vs block size [KB]")
        print(series_table(fig2_series(), "KB"))
    elif args.command == "fig3":
        spec = _spec(args)
        print("Figure 3(a): load imbalance [Gflops]")
        print(series_table(fig3a_series(seed=args.seed, spec=spec), "N"))
        print("\nFigure 3(b): multiprocessing [Gflops]")
        print(series_table(fig3b_series(seed=args.seed, spec=spec), "N"))
    elif args.command == "campaign":
        pipeline = EstimationPipeline(
            _spec(args),
            PipelineConfig(
                protocol=args.protocol, seed=args.seed, workers=args.workers
            ),
        )
        result = pipeline.campaign
        print(
            f"{result.plan_name} campaign: {len(result.dataset)} measurements, "
            f"simulated cost {result.total_cost_s:.1f} s"
        )
        if args.profile:
            print()
            print(pipeline.perf.render())
    elif args.command == "cost":
        print(cost_table(_pipeline(args)))
    elif args.command == "verify":
        pipeline = _pipeline(args)
        print(f"Adjustment: {pipeline.adjustment.describe()}\n")
        print(verification_table(pipeline))
    elif args.command == "report":
        print(protocol_report(_pipeline(args)))
    elif args.command == "correlate":
        pipeline = _pipeline(args)
        data = correlation_data(pipeline, args.n)
        adjusted = not args.raw
        state = "adjusted" if adjusted else "raw"
        print(
            f"Correlation ({args.protocol}, N={args.n}, {state}): "
            f"R^2={data.r_squared(adjusted=adjusted):.4f}, "
            f"mean|dev|={data.mean_abs_deviation(adjusted=adjusted):.3f}"
        )
        print(ascii_scatter(data, adjusted=adjusted))
    elif args.command == "optimize":
        pipeline = _pipeline(args)
        alpha = None
        if args.objective is not None:
            from repro.cost.pareto import parse_objective

            alpha = parse_objective(args.objective)
        if (args.max_cost is not None or alpha is not None) and (
            pipeline.cost_model is None
        ):
            pipeline = _priced_pipeline(args)
        outcome = pipeline.optimize(
            args.n,
            backend=args.backend,
            budget=args.budget,
            max_cost=args.max_cost,
            alpha=alpha,
        )
        kinds = pipeline.plan.kinds
        print(
            f"Top {args.top} of {len(outcome.ranking)} configurations at "
            f"N={args.n} ({outcome.search_seconds * 1e3:.1f} ms search):"
        )
        for i, entry in enumerate(outcome.top(args.top), 1):
            print(f"{i:3d}. {entry.config.label(kinds):>12s}  {entry.estimate_s:10.1f} s")
        stats = outcome.stats
        if stats is not None:
            detail = f"search: {stats.backend}, {stats.evaluations} evaluations"
            if stats.pruned_candidates:
                detail += (
                    f", pruned {stats.pruned_candidates} candidates "
                    f"in {stats.pruned_subtrees} subtrees"
                )
            if stats.budget is not None:
                detail += f", budget {stats.budget}"
                detail += " (exhausted)" if stats.exhausted else " (not exhausted)"
            if not outcome.complete:
                detail += " [partial ranking]"
            print(detail)
            if stats.stuck:
                print(
                    "warning: search stopped structurally stuck at a local "
                    "optimum without covering the space; treat the winner "
                    "as a lower-confidence suggestion"
                )
        if args.profile:
            print()
            print(pipeline.perf.render())
    elif args.command == "pareto":
        pipeline = _pipeline(args)
        if args.rates is not None or pipeline.cost_model is None:
            pipeline = _priced_pipeline(args)
        outcome = pipeline.pareto(args.n, budget=args.budget, max_cost=args.max_cost)
        kinds = pipeline.plan.kinds
        cap = f", cost <= ${args.max_cost:g}" if args.max_cost is not None else ""
        print(
            f"Pareto frontier at N={args.n}{cap}: {len(outcome.points)} points "
            f"({outcome.search_seconds * 1e3:.1f} ms search)"
        )
        print(f"{'':>5s}{'config':>12s}  {'time [s]':>12s}  {'cost [$]':>12s}  "
              f"{'energy [Wh]':>12s}")
        for i, point in enumerate(outcome.points, 1):
            print(
                f"{i:3d}. {point.config.label(kinds):>12s}  "
                f"{point.time_s:12.2f}  {point.dollars:12.6f}  "
                f"{point.energy_wh:12.4f}"
            )
        stats = outcome.stats
        if stats is not None:
            detail = f"search: {stats.backend}, {stats.evaluations} evaluations"
            if stats.pruned_candidates:
                detail += (
                    f", pruned {stats.pruned_candidates} candidates "
                    f"in {stats.pruned_subtrees} subtrees"
                )
            if not outcome.complete:
                detail += " [budget-exhausted: frontier covers visited candidates only]"
            print(detail)
    elif args.command == "advise":
        from repro.measure.advisor import advise as run_advisor
        from repro.workloads import create_workload

        plan = create_workload(args.workload).plan(args.protocol)
        print(run_advisor(_spec(args), plan, workload=args.workload).render())
    elif args.command == "breakdown":
        from repro.analysis.breakdown import breakdown_report
        from repro.cluster.config import ClusterConfig

        spec = _spec(args)
        values = [int(v) for v in args.config.split(",")]
        config = ClusterConfig.from_tuple(spec.kind_names, values)
        print(
            breakdown_report(
                spec, config, args.n, seed=args.seed, per_process=args.per_process
            )
        )
    elif args.command == "save":
        from repro.core.persistence import save_pipeline

        out = save_pipeline(_pipeline(args), args.out)
        print(f"saved {args.protocol} pipeline (seed {args.seed}) to {out}")
    elif args.command == "models":
        from repro.core.persistence import load_pipeline

        if args.fingerprints:
            print(_fingerprint_listing(args.dir))
        else:
            print(_model_inventory(load_pipeline(args.dir), args.dir))
    elif args.command == "estimate":
        from repro.cluster.config import ClusterConfig
        from repro.core.persistence import load_pipeline

        pipeline = load_pipeline(args.dir)
        if args.workload is not None and pipeline.config.workload != args.workload:
            raise ReproError(
                f"pipeline in {args.dir} serves workload "
                f"{pipeline.config.workload!r}, not {args.workload!r}"
            )
        values = [int(v) for v in args.config.split(",")]
        config = ClusterConfig.from_tuple(pipeline.plan.kinds, values)
        config.validate_against(pipeline.spec)
        totals = pipeline.estimate_totals(config, args.n)
        for n, total in zip(args.n, totals):
            rendered = f"{total:.6g} s" if total < float("inf") else "unestimable"
            print(f"{config.label(pipeline.plan.kinds):>12s}  N={n:<6d} {rendered}")
    elif args.command == "calibrate":
        _run_calibrate(args)
    elif args.command == "serve":
        _run_server(args)
    elif args.command == "client":
        _run_client(args)
    elif args.command == "export":
        from repro.analysis.export import export_figures, export_protocol

        spec = _spec(args)
        written = export_figures(args.out, seed=args.seed, spec=spec)
        protocols = (
            ["basic", "nl", "ns"] if args.protocol == "all" else [args.protocol]
        )
        for protocol in protocols:
            pipeline = EstimationPipeline(
                spec, PipelineConfig(protocol=protocol, seed=args.seed)
            )
            written += export_protocol(pipeline, args.out)
        for path in written:
            print(f"wrote {path}")
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

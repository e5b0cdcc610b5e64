"""One benchmark for the repository: four workloads, end to end and per layer.

From the repository root::

    python3 benchmarks/perf/run.py --workload serve-estimate --seed 1 --seconds 20
    python3 benchmarks/perf/run.py --seed 1 --out run.json          # every workload
    python3 benchmarks/perf/run.py --seed 1 --trace --out run.trace.json

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric of
``BENCHMARK.json``, or with ``--trace`` every per-layer metric, each as
``{"value": ..., "unit": ...}``.  ``--out FILE`` also writes the full
record: schema version, git sha, CPU counts and model, Python and NumPy
versions, the seed, and per workload its operations, its latency
percentiles and, per metric, the value with the median, quartiles and
count of the repetitions behind it.  A wrong output makes the run exit
with status 1.  Without ``--workload`` each workload runs in its own
process, one after another.
"""

from __future__ import annotations

import time

#: Set-up of the in-process workloads is timed from here: it includes
#: importing the program.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Working files of a run: saved pipelines, logs and server reports.
WORK_ROOT = HERE / ".work"
SCHEMA_VERSION = 1
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The keys of ``workloads.WORKLOADS``, listed here so that parsing the
#: arguments imports nothing from the program.
WORKLOAD_NAMES = ("build-paper", "search-wide", "serve-estimate", "serve-mixed")

sys.path.insert(0, str(ROOT / "src"))


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run the repository's benchmark workloads.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of every generated input")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1 (or bare --trace): per-layer run")
    parser.add_argument("--out", type=Path, help="write the full record here")
    parser.add_argument("--quick", action="store_true",
                        help="one set-up per run (no repeats), for smoke tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = float(benchmark["run_seconds"])
    return args


def setup_probe(name: str, seed: int) -> Tuple[float, float]:
    """Seconds a fresh process takes to import the program and set up
    ``name`` (the in-process workloads' repeated set-up), and the factor
    that brings them to reference speed."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed), "--seconds", "0"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["setup_wall_s"], probe["setup_scale"]


def run_workload(args: argparse.Namespace) -> dict:
    """Run one workload in this process; returns its record."""
    from probes import Counts, layer_metrics, summarize
    from spans import Tracer
    from workloads import END_TO_END, WORKLOADS, Outcome, peak_rss_mb, reference_scale

    traced = bool(args.trace)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        tracer, counts, outcome = Tracer(enabled=traced), Counts(), Outcome()
        workload.setup(tracer, counts, outcome)
        setup_wall_s = time.perf_counter() - STARTED
        if args.setup_probe:
            return {"setup_wall_s": setup_wall_s, "setup_scale": reference_scale()}
        if workload.setup_in_process:
            outcome.add_setup(setup_wall_s, reference_scale())
            repeats = 1 if args.quick else SETUP_REPEATS
            for _ in range(repeats - 1):
                outcome.add_setup(*setup_probe(args.workload, args.seed))
        workload.run(args.seconds, traced, tracer, counts, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics: Dict[str, dict] = {}
    record = {
        "correct": not outcome.mismatches,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "mismatches": outcome.mismatches[:20],
        "metrics": metrics,
    }
    if traced:
        for name, (value, unit) in layer_metrics(tracer, counts).items():
            metrics[name] = {"value": value, "unit": unit}
    else:
        rss = peak_rss_mb() + outcome.server_rss_mb
        found = dict(outcome.metrics)
        setup = summarize(outcome.setup_s)
        found["setup_s"] = (setup["median"], setup)
        found["peak_rss_mb"] = (rss, summarize([rss]))
        for name, unit in END_TO_END.items():
            value, summary = found[name]
            metrics[name] = {"value": value, "unit": unit, **summary}
        record["latency_ms"] = outcome.latency_ms
        record["reference_ms"] = outcome.reference_ms
        record["setup_wall_s"] = outcome.setup_wall_s
    return record


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_facts() -> dict:
    import numpy

    from repro.perf.parallel import available_cpu_count

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "available_cpu_count": available_cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def print_record(name: str, record: dict) -> None:
    status = "ok" if record["correct"] else "WRONG OUTPUT"
    print(f"{name}: {record['attempted']} operations, {record['failed']} failed, {status}")
    for metric, entry in record["metrics"].items():
        print(f"  {metric:<36s} {entry['value']:>14.6g} {entry['unit']}")
    for mismatch in record["mismatches"]:
        print(f"  mismatch: {mismatch}")


def run_all(args: argparse.Namespace) -> Dict[str, dict]:
    """Every workload, each in a fresh process (so RSS and set-up are its own)."""
    records = {}
    WORK_ROOT.mkdir(exist_ok=True)
    for name in WORKLOAD_NAMES:
        handle, path = tempfile.mkstemp(suffix=".json", dir=WORK_ROOT)
        os.close(handle)
        try:
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--out", path]
            if args.quick:
                command.append("--quick")
            subprocess.run(command, stdout=subprocess.DEVNULL, timeout=900)
            written = Path(path).read_text()
            if not written:
                raise RuntimeError(f"workload {name} wrote no record")
            records[name] = json.loads(written)["workloads"][name]
        finally:
            os.unlink(path)
    return records


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(json.dumps(run_workload(args)))
        return 0
    if args.workload:
        records = {args.workload: run_workload(args)}
    else:
        records = run_all(args)
    for name, record in records.items():
        print_record(name, record)
    if args.out:
        args.out.write_text(json.dumps({
            "schema_version": SCHEMA_VERSION,
            "git_sha": git_sha(),
            "host": host_facts(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "workloads": records,
        }, indent=1) + "\n")
    correct = all(record["correct"] for record in records.values())
    line = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
    }
    if args.workload:
        line["metrics"] = {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in records[args.workload]["metrics"].items()
        }
    else:
        line["metrics"] = {
            workload: {name: {"value": e["value"], "unit": e["unit"]}
                       for name, e in record["metrics"].items()}
            for workload, record in records.items()
        }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

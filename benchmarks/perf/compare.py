"""Compare two sets of benchmark records, metric by metric, against the bounds.

Usage, from the repository root::

    python3 benchmarks/perf/compare.py BASE.json NEW.json
    python3 benchmarks/perf/compare.py --base base-*.json --new new-*.json

Each file is a record written by ``run.py --out`` (any subset of the
workloads).  With one file per side, a metric's spread is the quartiles
of the repetitions inside that run; with several files per side (an A/B
of alternating runs), it is the quartiles of the per-run values.

For every workload and end-to-end metric of ``BENCHMARK.json`` the
table shows both medians with their quartiles, the relative change, the
metric's bound and a verdict:

* ``worse`` / ``better``: the medians differ by more than the bound;
* ``unresolved``: the base's own spread (q3 - q1, relative to its median)
  is wider than the bound, and the new runs do not all beat the base's;
* ``unchanged``: otherwise.

The exit status is 1 on any ``worse`` verdict, on a higher share of
failed operations than the base, or on a record with wrong outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_side(paths: List[Path]) -> Dict[str, dict]:
    """workload -> {"values": metric -> [per-run values], "summary": metric
    -> (median, q1, q3), "attempted", "failed", "correct"}."""
    side: Dict[str, dict] = {}
    for path in paths:
        for name, record in json.loads(path.read_text())["workloads"].items():
            entry = side.setdefault(name, {"values": {}, "summary": {},
                                           "attempted": 0, "failed": 0,
                                           "correct": True})
            entry["attempted"] += record["attempted"]
            entry["failed"] += record["failed"]
            entry["correct"] &= record["correct"]
            for metric, m in record["metrics"].items():
                entry["values"].setdefault(metric, []).append(m["value"])
                entry["summary"][metric] = (m.get("median", m["value"]),
                                            m.get("q1", m["value"]),
                                            m.get("q3", m["value"]))
    for entry in side.values():
        for metric, values in entry["values"].items():
            if len(values) > 1:
                q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
                entry["summary"][metric] = (median, q1, q3)
    return side


def _range(summary: Tuple[float, float, float], values: List[float]) -> Tuple[float, float]:
    """Where a side's runs lie: min and max of several runs, or the
    quartiles of one run's repetitions."""
    return (min(values), max(values)) if len(values) > 1 else summary[1:]


def verdict(base: Tuple[float, float, float], new: Tuple[float, float, float],
            base_values: List[float], new_values: List[float], bound: float,
            lower_is_better: bool) -> Tuple[float, str]:
    """(relative change of the median, verdict) for one metric."""
    base_median, base_q1, base_q3 = base
    change = (new[0] - base_median) / base_median
    worse_by = change if lower_is_better else -change
    if (base_q3 - base_q1) / base_median > bound:
        base_low, base_high = _range(base, base_values)
        new_low, new_high = _range(new, new_values)
        all_better = new_high < base_low if lower_is_better else new_low > base_high
        return change, "better" if all_better else "unresolved"
    if worse_by > bound:
        return change, "worse"
    if worse_by < -bound:
        return change, "better"
    return change, "unchanged"


def compare(base: Dict[str, dict], new: Dict[str, dict], metrics: List[dict]) -> int:
    status = 0
    header = (f"{'workload':<15} {'metric':<17} {'base median [q1, q3]':>32} "
              f"{'new median [q1, q3]':>32} {'change':>8} {'bound':>6}  verdict")
    print(header)
    for workload in sorted(set(base) & set(new)):
        b, n = base[workload], new[workload]
        for spec in metrics:
            metric = spec["name"]
            if metric not in b["summary"] or metric not in n["summary"]:
                continue
            change, word = verdict(
                b["summary"][metric], n["summary"][metric], b["values"][metric],
                n["values"][metric], spec["bound"], spec["better"] == "lower")
            if word == "worse":
                status = 1
            print(f"{workload:<15} {metric:<17} {_span(b['summary'][metric]):>32} "
                  f"{_span(n['summary'][metric]):>32} {change:>+8.1%} "
                  f"{spec['bound']:>6.0%}  {word}")
        base_frac = b["failed"] / max(b["attempted"], 1)
        new_frac = n["failed"] / max(n["attempted"], 1)
        if new_frac > base_frac:
            status = 1
            print(f"{workload:<15} failed share rose from {base_frac:.4%} to {new_frac:.4%}")
        if not (b["correct"] and n["correct"]):
            status = 1
            print(f"{workload:<15} a record has wrong outputs")
    return status


def _span(summary: Tuple[float, float, float]) -> str:
    median, q1, q3 = summary
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path, help="BASE.json NEW.json")
    parser.add_argument("--base", nargs="+", type=Path, default=[])
    parser.add_argument("--new", nargs="+", type=Path, default=[])
    args = parser.parse_args(argv)
    if args.files:
        if len(args.files) != 2 or args.base or args.new:
            parser.error("give BASE.json NEW.json, or --base ... --new ...")
        args.base, args.new = [args.files[0]], [args.files[1]]
    if not (args.base and args.new):
        parser.error("nothing to compare")
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    return compare(load_side(args.base), load_side(args.new), metrics)


if __name__ == "__main__":
    sys.exit(main())

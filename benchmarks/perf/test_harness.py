"""Smoke tests of the benchmark harness itself (not of the program).

Runs every workload briefly, untraced and traced, and checks that the
records carry every metric ``BENCHMARK.json`` names, with its unit and a
finite value; that ``compare.py`` finds no regression of a run against
itself; and that the runner fails cleanly where the program is absent.

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 3


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    # The runner finds the program itself; an inherited PYTHONPATH could
    # make it importable where it is meant to be absent.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "perf" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """Quick untraced and traced records of every workload."""
    out = {}
    for trace in ("0", "1"):
        path = tmp_path_factory.mktemp("records") / f"trace{trace}.json"
        done = run("--seed", str(SEED), "--seconds", "1", "--quick",
                   "--trace", trace, "--out", str(path))
        assert done.returncode == 0, done.stdout + done.stderr
        out[trace] = (path, json.loads(path.read_text()))
    return out


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == ["build-paper", "search-wide", "serve-estimate", "serve-mixed"]
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    seen = set(names)
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.fullmatch(metric["name"]) and UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        assert metric["name"] not in seen
        seen.add(metric["name"])
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in BENCHMARK["end_to_end"])}]
    assert len(BENCHMARK["per_layer"]) <= 128


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_with_its_unit(records, trace, kind):
    _, record = records[trace]
    want = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        result = record["workloads"][workload]
        assert result["correct"], result["mismatches"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        got = result["metrics"]
        assert set(got) == set(want), workload
        for name, unit in want.items():
            assert got[name]["unit"] == unit
            assert math.isfinite(got[name]["value"]), (workload, name)
            if kind == "end_to_end":
                assert got[name]["value"] > 0, (workload, name)


def test_compare_finds_no_regression_against_itself(records):
    path, _ = records["0"]
    done = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(path), str(path)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    assert " worse" not in done.stdout


def test_last_line_is_the_result_object():
    done = run("--workload", "serve-estimate", "--seed", str(SEED),
               "--seconds", "1", "--trace", "0", "--quick")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = run("--workload", "build-paper", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()

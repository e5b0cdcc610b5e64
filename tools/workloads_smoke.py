#!/usr/bin/env python
"""Workload subsystem smoke check: fast CI guard for ``repro.workloads``.

A trimmed-down version of the workloads test suite that runs in seconds
with no pytest dependency:

* **HPL golden guard** — an HPL pipeline built *through the workload
  registry* still reproduces the golden seed-7 NS estimates bitwise
  (the port onto the protocol must not change a single bit),
* **full loop per family** — every registered family but ``hpl`` runs
  campaign -> fit -> optimize on its own grids, every record
  decomposing into the family's phases,
* **serve round-trip per family** — a saved family pipeline served over
  a real socket answers an estimate (with the ``workload`` assertion
  field) bitwise equal to the direct call, and a mismatched ``workload``
  is refused with a typed ``InvalidRequest`` reply.

Exit status is non-zero on any failure.  Run it as::

    PYTHONPATH=src python tools/workloads_smoke.py
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
import tempfile
from pathlib import Path

from repro.cluster.config import ClusterConfig
from repro.cluster.presets import kishimoto_cluster
from repro.core.persistence import save_pipeline
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.serve import EstimationServer, ModelRegistry
from repro.workloads import registered_workloads

GOLDEN_PATH = (
    Path(__file__).parent.parent / "tests" / "golden" / "protocol_estimates_seed7.json"
)
FAMILIES = tuple(tag for tag in registered_workloads() if tag != "hpl")
SEED = 11
CONFIG = (1, 2, 8, 1)


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check_hpl_golden() -> None:
    """HPL through the registry must reproduce the golden estimates."""
    golden = json.loads(GOLDEN_PATH.read_text())["protocols"]["ns"]
    pipeline = EstimationPipeline(
        kishimoto_cluster(), PipelineConfig(protocol="ns", seed=7)
    )
    if pipeline.workload.tag != "hpl":
        fail(f"default pipeline workload is {pipeline.workload.tag!r}, not 'hpl'")
    if json.loads(json.dumps(pipeline.adjustment.to_dict())) != golden["adjustment"]:
        fail("HPL adjustment drifted from the golden seed-7 artifact")
    for n_text, expected in golden["sizes"].items():
        got = [
            {
                "config": list(e.config.as_flat_tuple(pipeline.plan.kinds)),
                "estimate": e.estimate_s,
            }
            for e in pipeline.optimize(int(n_text)).ranking
        ]
        if json.loads(json.dumps(got)) != expected:
            fail(f"HPL ranking at N={n_text} drifted from the golden artifact")
    print(
        f"hpl: golden seed-7 NS estimates bitwise reproduced through the "
        f"registry ({len(golden['sizes'])} sizes)"
    )


def build_family(family: str) -> EstimationPipeline:
    pipeline = EstimationPipeline(
        kishimoto_cluster(),
        PipelineConfig(protocol="ns", seed=SEED, workload=family),
    )
    plan = pipeline.plan
    campaign = pipeline.campaign
    planned = len(list(plan.construction_runs()))
    if len(campaign.dataset) != planned:
        fail(
            f"{family}: campaign measured {len(campaign.dataset)} runs, "
            f"plan calls for {planned}"
        )
    phases = campaign.dataset[0].per_kind[0].phases
    if tuple(phases.as_dict()) != pipeline.workload.phase_names:
        fail(f"{family}: campaign records decompose into the wrong phases")
    if pipeline.store.model_count == 0:
        fail(f"{family}: no models fit from the campaign")
    n = plan.evaluation_sizes[0]
    winner = pipeline.optimize(n).ranking[0]
    if not math.isfinite(winner.estimate_s) or winner.estimate_s <= 0:
        fail(f"{family}: optimize winner at N={n} is {winner.estimate_s!r}")
    print(
        f"{family}: campaign ({planned} runs) -> fit "
        f"({pipeline.store.model_count} models) -> optimize "
        f"(best {winner.config.label()} at N={n}: {winner.estimate_s:.3f} s)"
    )
    return pipeline


async def check_served(family: str, pipeline_dir: Path, want: float, n: int) -> None:
    registry = ModelRegistry()
    registry.add(family, pipeline_dir)
    server = EstimationServer(registry, port=0, refresh_interval_s=None)
    host, port = await server.start()
    try:
        reader, writer = await asyncio.open_connection(host, port)

        async def ask(payload):
            writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()
            return json.loads(await reader.readline())

        reply = await ask({
            "id": 1, "op": "estimate", "pipeline": family,
            "config": list(CONFIG), "n": n, "workload": family,
        })
        if not reply.get("ok"):
            fail(f"{family}: served estimate failed: {reply!r}")
        (total,) = reply["result"]["totals"]
        if total != want:
            fail(
                f"{family}: served total {total!r} at N={n} is not bitwise "
                f"the direct estimate {want!r}"
            )

        wrong = "hpl" if family != "hpl" else "sorting"
        refused = await ask({
            "id": 2, "op": "estimate", "pipeline": family,
            "config": list(CONFIG), "n": n, "workload": wrong,
        })
        error = refused.get("error", {})
        if refused.get("ok") or error.get("type") != "InvalidRequest":
            fail(f"{family}: mismatched workload should be InvalidRequest: {refused!r}")
        if error.get("pipeline_workload") != family or error.get("field") != "workload":
            fail(f"{family}: mismatch reply lacks the typed payload: {error!r}")
        writer.close()
    finally:
        await server.shutdown()
    print(
        f"{family}: served estimate bitwise direct, mismatched workload "
        f"refused with typed InvalidRequest"
    )


def main() -> int:
    check_hpl_golden()
    for family in FAMILIES:
        pipeline = build_family(family)
        n = pipeline.plan.evaluation_sizes[0]
        config = ClusterConfig.from_tuple(pipeline.plan.kinds, CONFIG)
        want = float(pipeline.estimate_totals(config, [n])[0])
        with tempfile.TemporaryDirectory() as tmp:
            out = save_pipeline(
                pipeline, Path(tmp) / family, include_evaluation=False
            )
            manifest = json.loads((out / "manifest.json").read_text())
            if manifest.get("workload") != family:
                fail(f"{family}: manifest records workload {manifest.get('workload')!r}")
            asyncio.run(check_served(family, out, want, n))
    print("workloads smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

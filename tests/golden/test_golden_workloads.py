"""Golden tests: the summa, sorting and montecarlo families, bitwise.

``workload_estimates_seed7.json`` pins, for each of the three families at
seed 7 under the NS protocol, every fitted/composed model's coefficients,
the calibrated adjustment and the full optimizer ranking (configuration
order *and* exact estimate floats) at every evaluation size — what
``protocol_estimates_seed7.json`` pins for HPL.  The tests compare with
``==``, no tolerances, so a change that moves any of these families by
one bit fails here.

The file was captured from the code that added this module by running it
as a script from the repository root::

    PYTHONPATH=src python tests/golden/test_golden_workloads.py

which rewrites the JSON.  Recapture only for a deliberate change of these
families' numbers, and say which numbers moved and why.
"""

import json
from pathlib import Path

import pytest

from repro.cluster.presets import kishimoto_cluster
from repro.core.pipeline import EstimationPipeline, PipelineConfig

GOLDEN_PATH = Path(__file__).parent / "workload_estimates_seed7.json"
SEED = 7
PROTOCOL = "ns"
FAMILIES = ("montecarlo", "sorting", "summa")


def _round_trip(value):
    """Normalize tuples/ints exactly as the JSON encoding does (floats
    survive JSON round-trips exactly, so ``==`` stays bitwise)."""
    return json.loads(json.dumps(value))


def pipeline_for(family):
    return EstimationPipeline(
        kishimoto_cluster(),
        PipelineConfig(protocol=PROTOCOL, seed=SEED, workload=family),
    )


def snapshot(pipeline):
    """Models, adjustment and the full ranking at every evaluation size."""
    kinds = pipeline.plan.kinds
    return _round_trip(
        {
            "models": {
                "nt": {
                    f"{kind}|{p}|{mi}": model.to_dict()
                    for (kind, p, mi), model in sorted(pipeline.store.nt.items())
                },
                "pt": {
                    f"{kind}|{mi}": model.to_dict()
                    for (kind, mi), model in sorted(pipeline.store.pt.items())
                },
            },
            "adjustment": pipeline.adjustment.to_dict(),
            "sizes": {
                str(n): [
                    {
                        "config": list(entry.config.as_flat_tuple(kinds)),
                        "estimate": entry.estimate_s,
                    }
                    for entry in pipeline.optimize(n).ranking
                ]
                for n in pipeline.plan.evaluation_sizes
            },
        }
    )


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def snapshots():
    return {family: snapshot(pipeline_for(family)) for family in FAMILIES}


@pytest.mark.parametrize("family", FAMILIES)
class TestGoldenWorkloads:
    def test_models_bitwise_identical(self, golden, snapshots, family):
        assert snapshots[family]["models"] == golden["workloads"][family]["models"]

    def test_adjustment_bitwise_identical(self, golden, snapshots, family):
        expected = golden["workloads"][family]["adjustment"]
        assert snapshots[family]["adjustment"] == expected

    def test_rankings_bitwise_identical(self, golden, snapshots, family):
        expected = golden["workloads"][family]["sizes"]
        got = snapshots[family]["sizes"]
        assert sorted(got) == sorted(expected)
        for n in expected:
            assert got[n] == expected[n], f"{family} ranking drifted at N={n}"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "seed": SEED,
                "protocol": PROTOCOL,
                "workloads": {
                    family: snapshot(pipeline_for(family)) for family in FAMILIES
                },
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")

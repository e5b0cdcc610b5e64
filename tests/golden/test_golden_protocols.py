"""Golden tests: the refactored pipeline must be *bitwise* identical.

``protocol_estimates_seed7.json`` was captured from the pre-refactor code
(one lazily-memoizing ``EstimationPipeline`` class, concrete-class model
dispatch) by ``tools``-style capture of seeded basic/nl/ns runs: every
fitted/composed model's coefficients, the calibrated adjustment, and the
full optimizer ranking (configuration order *and* exact estimate floats)
at every evaluation size.  These tests replay the same runs on the
current code and compare with ``==`` — no tolerances.  Any drift means
the model-API/stage-graph refactor changed behavior, which it must not.
"""

import json
from pathlib import Path

import pytest

from repro.cluster.presets import kishimoto_cluster
from repro.core.pipeline import EstimationPipeline, PipelineConfig

GOLDEN_PATH = Path(__file__).parent / "protocol_estimates_seed7.json"


def _round_trip(value):
    """Normalize tuples/ints exactly as the golden JSON encoding did
    (floats survive JSON round-trips exactly, so ``==`` stays bitwise)."""
    return json.loads(json.dumps(value))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def pipelines(golden):
    spec = kishimoto_cluster()
    return {
        protocol: EstimationPipeline(
            spec, PipelineConfig(protocol=protocol, seed=golden["seed"])
        )
        for protocol in golden["protocols"]
    }


@pytest.mark.parametrize("protocol", ["basic", "nl", "ns"])
class TestGoldenProtocols:
    def test_models_bitwise_identical(self, golden, pipelines, protocol):
        expected = golden["protocols"][protocol]["models"]
        pipeline = pipelines[protocol]
        nt = {
            f"{kind}|{p}|{mi}": _round_trip(model.to_dict())
            for (kind, p, mi), model in sorted(pipeline.store.nt.items())
        }
        pt = {
            f"{kind}|{mi}": _round_trip(model.to_dict())
            for (kind, mi), model in sorted(pipeline.store.pt.items())
        }
        assert nt == expected["nt"]
        assert pt == expected["pt"]

    def test_adjustment_bitwise_identical(self, golden, pipelines, protocol):
        expected = golden["protocols"][protocol]["adjustment"]
        assert _round_trip(pipelines[protocol].adjustment.to_dict()) == expected

    def test_rankings_bitwise_identical(self, golden, pipelines, protocol):
        expected = golden["protocols"][protocol]["sizes"]
        pipeline = pipelines[protocol]
        for n in pipeline.plan.evaluation_sizes:
            outcome = pipeline.optimize(n)
            got = [
                {
                    "config": list(entry.config.as_flat_tuple(pipeline.plan.kinds)),
                    "estimate": entry.estimate_s,
                }
                for entry in outcome.ranking
            ]
            assert _round_trip(got) == expected[str(n)], (
                f"{protocol} ranking drifted at N={n}"
            )


def test_default_pipeline_is_hpl_through_the_registry(golden, pipelines):
    """A pipeline built without naming a workload runs HPL through the
    workload registry and reproduces the golden NS artifact bitwise."""
    pipeline = pipelines["ns"]
    expected = golden["protocols"]["ns"]
    assert pipeline.workload.tag == "hpl"
    assert _round_trip(pipeline.adjustment.to_dict()) == expected["adjustment"]
    for n_text, ranking in expected["sizes"].items():
        got = [
            {
                "config": list(entry.config.as_flat_tuple(pipeline.plan.kinds)),
                "estimate": entry.estimate_s,
            }
            for entry in pipeline.optimize(int(n_text)).ranking
        ]
        assert _round_trip(got) == ranking, f"HPL ranking drifted at N={n_text}"

"""The ``workload`` request field: strict validation, typed payloads,
batcher routing."""

import asyncio
import json
from pathlib import Path

import pytest

from repro.cluster.presets import kishimoto_cluster
from repro.core.persistence import save_pipeline
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.serve.batcher import MicroBatcher
from repro.serve.protocol import (
    ERROR_INVALID_REQUEST,
    Overloaded,
    ProtocolError,
    Request,
    encode_exception,
    parse_request,
)
from repro.serve.registry import ModelRegistry

FIXTURE = Path(__file__).parent.parent / "golden" / "format1_pipeline"


def line(**payload):
    return json.dumps(payload)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def sorting_dir(tmp_path_factory):
    pipeline = EstimationPipeline(
        kishimoto_cluster(),
        PipelineConfig(protocol="ns", seed=11, workload="sorting"),
    )
    return save_pipeline(
        pipeline,
        tmp_path_factory.mktemp("served") / "sorting",
        include_evaluation=False,
    )


@pytest.fixture()
def registry(sorting_dir):
    registry = ModelRegistry()
    registry.add("golden", FIXTURE)
    registry.add("sorted", sorting_dir)
    return registry


class TestParseValidation:
    @pytest.mark.parametrize(
        "payload",
        [
            {"op": "estimate", "pipeline": "p", "config": [1, 2, 8, 1], "n": 3200},
            {"op": "optimize", "pipeline": "p", "n": 3200},
            {"op": "whatif", "config": [1, 2, 8, 1], "n": 3200},
            {"op": "pareto", "pipeline": "p", "n": 3200},
        ],
    )
    def test_batched_ops_accept_workload_uniformly(self, payload):
        request = parse_request(line(id=1, workload="sorting", **payload))
        assert request.workload == "sorting"
        # ...and it stays optional.
        assert parse_request(line(id=1, **payload)).workload is None

    def test_control_ops_reject_workload_as_unknown_field(self):
        with pytest.raises(ProtocolError) as err:
            parse_request(line(id=1, op="models", pipeline="p", workload="hpl"))
        assert err.value.error_type == ERROR_INVALID_REQUEST
        assert "'workload'" in str(err.value)

    def test_unknown_workload_carries_typed_payload(self):
        with pytest.raises(ProtocolError) as err:
            parse_request(
                line(id=1, op="optimize", pipeline="p", n=3200, workload="cholesky")
            )
        exc = err.value
        assert exc.error_type == ERROR_INVALID_REQUEST
        assert exc.extra() == {
            "field": "workload",
            "known": ["hpl", "montecarlo", "sorting", "summa"],
        }
        reply = json.loads(encode_exception(1, exc))
        assert reply["error"]["type"] == ERROR_INVALID_REQUEST
        assert reply["error"]["known"] == ["hpl", "montecarlo", "sorting", "summa"]
        assert reply["error"]["field"] == "workload"

    def test_non_string_workload_rejected(self):
        with pytest.raises(ProtocolError) as err:
            parse_request(
                line(id=1, op="estimate", pipeline="p", config=[1], n=10, workload=7)
            )
        assert err.value.error_type == ERROR_INVALID_REQUEST
        assert err.value.extra() == {"field": "workload"}


class TestUnifiedExtra:
    def test_plain_protocol_error_has_no_extra_keys(self):
        reply = json.loads(encode_exception(4, ProtocolError("nope")))
        assert set(reply["error"]) == {"type", "message"}

    def test_overloaded_still_carries_backoff_payload(self):
        reply = json.loads(encode_exception(4, Overloaded(9, 8, 25.0)))
        assert reply["error"]["type"] == "Overloaded"
        assert reply["error"]["pending"] == 9
        assert reply["error"]["capacity"] == 8
        assert reply["error"]["retry_after_ms"] == 25.0


class TestBatcherRouting:
    def submit_one(self, registry, request):
        async def scenario():
            batcher = MicroBatcher(registry)
            batcher.start()
            try:
                return await batcher.submit(request)
            finally:
                await batcher.drain_and_stop()

        return run(scenario())

    def test_matching_workload_assertion_passes(self, registry):
        result = self.submit_one(
            registry,
            Request(
                id=1, op="estimate", pipeline="sorted",
                config=(1, 2, 8, 1), ns=(8000,), workload="sorting",
            ),
        )
        assert result["totals"][0] > 0

    @pytest.mark.parametrize("op", ["estimate", "optimize", "pareto"])
    def test_mismatched_workload_is_typed_invalid_request(self, registry, op):
        request = Request(
            id=1, op=op, pipeline="golden",
            config=(1, 2, 8, 1) if op == "estimate" else None,
            ns=(3200,), workload="sorting",
        )
        with pytest.raises(ProtocolError) as err:
            self.submit_one(registry, request)
        exc = err.value
        assert exc.error_type == ERROR_INVALID_REQUEST
        assert exc.extra() == {
            "field": "workload",
            "pipeline": "golden",
            "pipeline_workload": "hpl",
            "requested_workload": "sorting",
        }

    def test_whatif_sweeps_only_the_requested_family(self, registry):
        result = self.submit_one(
            registry,
            Request(
                id=1, op="whatif", config=(1, 2, 8, 1), ns=(8000,),
                workload="sorting",
            ),
        )
        assert list(result["pipelines"]) == ["sorted"]
        assert result["pipelines"]["sorted"]["workload"] == "sorting"
        assert result["best"] == ["sorted"]

    def test_whatif_unserved_family_is_typed_error(self, registry):
        with pytest.raises(ProtocolError) as err:
            self.submit_one(
                registry,
                Request(
                    id=1, op="whatif", config=(1, 2, 8, 1), ns=(8000,),
                    workload="montecarlo",
                ),
            )
        assert err.value.error_type == ERROR_INVALID_REQUEST
        assert err.value.extra()["requested_workload"] == "montecarlo"


class TestRegistryExposure:
    def test_snapshot_and_inventory_name_the_family(self, registry):
        snapshot = registry.snapshot()
        assert snapshot["pipelines"]["golden"]["workload"] == "hpl"
        assert snapshot["pipelines"]["sorted"]["workload"] == "sorting"
        assert registry.get("sorted").model_inventory()["workload"] == "sorting"
        assert registry.get("golden").model_inventory()["workload"] == "hpl"

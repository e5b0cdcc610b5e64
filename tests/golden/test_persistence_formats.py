"""Persistence format compatibility.

``format1_pipeline/`` is a directory written by the *pre-refactor* code
(manifest ``format: 1``, ``models.json`` with separate ``nt``/``pt``
lists) from an NS seed-7 run.  The current loader must keep reading it —
and the models/adjustment it restores must reproduce the golden seed-7
estimates exactly, because the loaded state *is* the old pipeline's
state.  Unknown (future) manifest formats must be rejected loudly.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.core.persistence import load_pipeline, save_pipeline
from repro.errors import MeasurementError, ModelError

FIXTURE = Path(__file__).parent / "format1_pipeline"
GOLDEN_PATH = Path(__file__).parent / "protocol_estimates_seed7.json"


class TestFormat1Compatibility:
    def test_fixture_is_format_1(self):
        manifest = json.loads((FIXTURE / "manifest.json").read_text())
        assert manifest["format"] == 1

    def test_loads_without_rerunning(self):
        pipeline = load_pipeline(FIXTURE)
        assert pipeline.plan.name == "ns"
        assert pipeline.config.seed == 7
        assert pipeline.store.model_count > 0
        # Loading must not have scheduled any measurement/fit stages.
        assert pipeline.perf.stage_calls("campaign") == 0
        assert pipeline.perf.stage_calls("fit") == 0

    def test_loaded_state_reproduces_golden_estimates(self):
        golden = json.loads(GOLDEN_PATH.read_text())["protocols"]["ns"]
        pipeline = load_pipeline(FIXTURE)
        assert json.loads(json.dumps(pipeline.adjustment.to_dict())) == (
            golden["adjustment"]
        )
        for n_text, expected in golden["sizes"].items():
            outcome = pipeline.optimize(int(n_text))
            got = [
                {
                    "config": list(e.config.as_flat_tuple(pipeline.plan.kinds)),
                    "estimate": e.estimate_s,
                }
                for e in outcome.ranking
            ]
            assert json.loads(json.dumps(got)) == expected


class TestResaveRoundTrip:
    def test_resave_upgrades_to_current_format(self, tmp_path):
        pipeline = load_pipeline(FIXTURE)
        out = save_pipeline(pipeline, tmp_path / "saved", include_evaluation=False)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["format"] == 3
        # The old-format artifact had no workload tag; resaving records
        # the implicit hpl it loaded as.
        assert manifest["workload"] == "hpl"
        # The model store keeps its own (format-2) flat tagged list.
        models = json.loads((out / "models.json").read_text())
        assert models["format"] == 2
        assert all("type" in m for m in models["models"])
        reloaded = load_pipeline(out)
        assert reloaded.store.fingerprint() == pipeline.store.fingerprint()
        assert reloaded.adjustment.to_dict() == pipeline.adjustment.to_dict()

    def test_old_formats_load_as_implicit_hpl(self):
        pipeline = load_pipeline(FIXTURE)
        assert pipeline.config.workload == "hpl"
        assert pipeline.workload.tag == "hpl"


class TestFormatRejection:
    def test_unknown_manifest_format_is_model_error(self, tmp_path):
        bad = tmp_path / "future"
        shutil.copytree(FIXTURE, bad)
        manifest = json.loads((bad / "manifest.json").read_text())
        manifest["format"] = 99
        (bad / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ModelError, match="unknown pipeline format 99"):
            load_pipeline(bad)

    def test_missing_manifest_is_measurement_error(self, tmp_path):
        with pytest.raises(MeasurementError, match="not a saved pipeline"):
            load_pipeline(tmp_path)

    def test_unknown_workload_tag_is_model_error_naming_the_path(self, tmp_path):
        bad = tmp_path / "alien"
        shutil.copytree(FIXTURE, bad)
        manifest = json.loads((bad / "manifest.json").read_text())
        manifest["format"] = 3
        manifest["workload"] = "cholesky"
        (bad / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ModelError, match="unknown workload 'cholesky'") as err:
            load_pipeline(bad)
        # The error names both the known tags and the offending manifest.
        assert "hpl" in str(err.value)
        assert str(bad / "manifest.json") in str(err.value)

"""CLI integration tests (in-process via cli.main)."""

import re
from pathlib import Path

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCLI:
    def test_describe(self, capsys):
        code, out, _ = run_cli(capsys, "describe")
        assert code == 0
        assert "athlon" in out and "pentium2" in out

    def test_fig2(self, capsys):
        code, out, _ = run_cli(capsys, "fig2")
        assert code == 0
        assert "mpich-1.2.1" in out and "mpich-1.2.2" in out

    def test_fig1_single_version(self, capsys):
        code, out, _ = run_cli(capsys, "fig1", "--mpich-version", "1.2.2")
        assert code == 0
        assert "4P/CPU" in out
        assert "1.2.1" not in out.split("Figure 1")[1]

    def test_fig3(self, capsys):
        code, out, _ = run_cli(capsys, "fig3")
        assert code == 0
        assert "Figure 3(a)" in out and "Figure 3(b)" in out

    def test_cost_ns(self, capsys):
        code, out, _ = run_cli(capsys, "cost", "--protocol", "ns")
        assert code == 0
        assert "Measurement cost" in out and "Total" in out

    def test_campaign_ns(self, capsys):
        code, out, _ = run_cli(capsys, "campaign", "--protocol", "ns")
        assert code == 0
        assert "ns campaign: 120 measurements" in out
        assert "walker" not in out  # profile output only with --profile

    def test_campaign_profile(self, capsys):
        code, out, _ = run_cli(
            capsys, "campaign", "--protocol", "ns", "--profile"
        )
        assert code == 0
        assert "stage        calls   seconds" in out
        assert re.search(r"campaign\s+1\s+\d+\.\d+", out)
        assert re.search(r"walker: batch \d+ calls/\d+ sizes", out)
        assert "panel-table" in out

    def test_verify_ns(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--protocol", "ns")
        assert code == 0
        assert "Errors in estimated best configurations" in out
        assert "Adjustment" in out

    def test_correlate_raw_and_adjusted(self, capsys):
        code, out, _ = run_cli(
            capsys, "correlate", "--protocol", "ns", "--n", "1600", "--raw"
        )
        assert code == 0
        assert "raw" in out
        code, out, _ = run_cli(capsys, "correlate", "--protocol", "ns", "--n", "1600")
        assert "adjusted" in out

    def test_optimize(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--protocol", "ns", "--n", "3200", "--top", "3"
        )
        assert code == 0
        assert "  1. " in out and "  3. " in out

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_optimize_rejects_non_positive_order(self, capsys, n):
        code, out, err = run_cli(capsys, "optimize", "--protocol", "ns", "--n", n)
        assert code == 1
        assert f"problem order must be an integer >= 1, got {n}" in err
        assert "  1. " not in out

    def test_seed_changes_nothing_structural(self, capsys):
        _, out_a, _ = run_cli(capsys, "--seed", "1", "fig2")
        _, out_b, _ = run_cli(capsys, "--seed", "2", "fig2")
        assert out_a == out_b  # fig2 is noise-free

    def test_export_writes_csvs(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "export", "--out", str(tmp_path), "--protocol", "ns"
        )
        assert code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert "fig2_netpipe.csv" in names
        assert "ns_verification.csv" in names
        assert "ns_cost.csv" in names

    def test_advise_flags_ns(self, capsys):
        code, out, _ = run_cli(capsys, "advise", "--protocol", "ns")
        assert code == 0
        assert "FATAL" in out and "extrapolation" in out

    def test_advise_footprint(self, capsys):
        code, out, _ = run_cli(
            capsys, "advise", "--protocol", "nl", "--workload", "summa"
        )
        assert code == 0
        assert "paging-runs" in out

    def test_cluster_file_overrides_testbed(self, capsys, tmp_path):
        from repro.cluster.presets import synthetic_cluster
        from repro.cluster.serialize import save_cluster

        path = tmp_path / "mycluster.json"
        save_cluster(synthetic_cluster([0.5, 1.0], nodes_per_kind=2), path)
        code, out, _ = run_cli(capsys, "--cluster", str(path), "describe")
        assert code == 0
        assert "synthetic-2kinds" in out
        assert "athlon" not in out

    def test_models_inventory_of_saved_pipeline(self, capsys):
        fixture = Path(__file__).parent.parent / "golden" / "format1_pipeline"
        code, out, _ = run_cli(capsys, "models", "--dir", str(fixture))
        assert code == 0
        assert "backend: binned" in out
        # every model row carries type, identity, provenance, coefficients
        assert "nt " in out and "pt " in out
        assert "fitted" in out and "composed<-" in out
        assert "ka=[" in out and "ta_ref=[" in out
        # fingerprints are the 16-hex model_fingerprint form
        assert re.search(r"\b[0-9a-f]{16}\b", out)
        lines = [line for line in out.splitlines() if line.startswith("  ")]
        assert len(lines) == 42  # 36 N-T + 6 P-T models of the NS fixture

    def test_models_rejects_non_pipeline_dir(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "models", "--dir", str(tmp_path))
        assert code == 1
        assert "not a saved pipeline" in err

    def test_unknown_command_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


GOLDEN = Path(__file__).parent.parent / "golden" / "format1_pipeline"


@pytest.fixture
def corrupt_dir(tmp_path):
    """A saved pipeline whose model store was truncated mid-write."""
    import shutil

    target = tmp_path / "pipeline"
    shutil.copytree(GOLDEN, target)
    (target / "models.json").write_text('{"backend": "binned", "mod')
    return target


class TestEstimateCommand:
    def test_save_then_load_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "saved"
        code, msg, _ = run_cli(capsys, "save", "--protocol", "ns", "--out", str(out))
        assert code == 0
        assert str(out) in msg
        code, inventory, _ = run_cli(capsys, "models", "--dir", str(out))
        assert code == 0
        assert "backend: binned" in inventory
        code, estimate, _ = run_cli(
            capsys, "estimate", "--dir", str(out),
            "--config", "1,2,8,1", "--n", "3200",
        )
        assert code == 0
        assert "N=3200" in estimate

    def test_estimate_saved_pipeline(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--dir", str(GOLDEN),
            "--config", "1,2,8,1", "--n", "1600", "--n", "3200",
        )
        assert code == 0
        assert "N=1600" in out and "N=3200" in out
        assert re.search(r"N=3200\s+[0-9.]+ s", out)

    def test_estimate_missing_dir_one_line_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "estimate", "--dir", str(tmp_path / "nope"),
            "--config", "1,2,8,1", "--n", "1600",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_estimate_corrupt_dir_one_line_error(self, capsys, corrupt_dir):
        code, _, err = run_cli(
            capsys, "estimate", "--dir", str(corrupt_dir),
            "--config", "1,2,8,1", "--n", "1600",
        )
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "models.json" in err
        assert "Traceback" not in err

    def test_models_missing_dir_one_line_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "models", "--dir", str(tmp_path / "gone"))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_models_corrupt_dir_one_line_error(self, capsys, corrupt_dir):
        code, _, err = run_cli(capsys, "models", "--dir", str(corrupt_dir))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "models.json" in err
        assert "Traceback" not in err


class TestServeRepeatedName:
    """``repro serve`` refuses a ``--dir`` name given twice, in one process
    and as a fleet, before it loads a pipeline or spawns a replica."""

    DIRS = ("--dir", "a=/nonexistent/first", "--dir", "a=/nonexistent/second")

    def test_one_process_refuses_before_loading(self, capsys, monkeypatch):
        from repro.serve import ModelRegistry

        added = []
        add = ModelRegistry.add

        def recording(self, name, directory):
            added.append(name)
            return add(self, name, directory)

        monkeypatch.setattr(ModelRegistry, "add", recording)
        code, _, err = run_cli(capsys, "serve", *self.DIRS)
        assert code == 1
        assert "pipeline name 'a' already registered" in err
        assert added == []

    def test_fleet_refuses_before_spawning(self, capsys, monkeypatch):
        import repro.serve
        from repro.errors import ReproError

        def spawn(*args, **kwargs):
            raise ReproError("a fleet was started")

        monkeypatch.setattr(repro.serve, "FleetSupervisor", spawn)
        code, _, err = run_cli(capsys, "serve", "--workers", "2", *self.DIRS)
        assert code == 1
        assert "pipeline name 'a' already registered" in err

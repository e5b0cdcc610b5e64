"""Dataset merging, candidate building and shadow scoring."""

from __future__ import annotations

import pytest

import repro.calibrate.recalibrate as recalibrate_module
from repro.calibrate import (
    OBSERVATION_TRIAL_BASE,
    ObservationLog,
    Recalibrator,
    merge_with_observations,
)
from repro.cli import main
from repro.core.persistence import save_pipeline
from repro.errors import CalibrationError
from repro.measure.dataset import Dataset


@pytest.fixture()
def seed_dataset(base_spec, make_record, make_config):
    return Dataset(
        [
            make_record(base_spec, make_config(1, 3, 8, 1), 3200),
            make_record(base_spec, make_config(1, 4, 8, 1), 3200),
            make_record(base_spec, make_config(1, 3, 8, 1), 3200, trial=1),
        ]
    )


class TestMerge:
    def test_observation_supersedes_all_seed_trials(
        self, seed_dataset, drifted_spec, make_record, make_config
    ):
        log = ObservationLog()
        drifted = make_record(drifted_spec, make_config(1, 3, 8, 1), 3200)
        observation = log.append(drifted)
        merged, superseded = merge_with_observations(seed_dataset, [observation])
        # Both seed trials at (1,3,8,1)@3200 are gone; the observation stands.
        assert superseded == 2
        assert len(merged) == 2
        winners = [
            r for r in merged if r.trial >= OBSERVATION_TRIAL_BASE
        ]
        assert len(winners) == 1
        assert winners[0].wall_time_s == drifted.wall_time_s

    def test_newest_observation_wins_among_duplicates(
        self, seed_dataset, base_spec, drifted_spec, make_record, make_config
    ):
        log = ObservationLog()
        config = make_config(1, 3, 8, 1)
        log.append(make_record(base_spec, config, 3200))
        newest = log.append(make_record(drifted_spec, config, 3200))
        merged, _ = merge_with_observations(seed_dataset, log.observations)
        winners = [r for r in merged if r.trial >= OBSERVATION_TRIAL_BASE]
        assert len(winners) == 1
        assert winners[0].trial == OBSERVATION_TRIAL_BASE + newest.seq
        assert winners[0].wall_time_s == newest.record.wall_time_s

    def test_unobserved_coordinates_keep_seed_records(
        self, seed_dataset, drifted_spec, make_record, make_config
    ):
        log = ObservationLog()
        log.append(make_record(drifted_spec, make_config(1, 5, 8, 1), 3200))
        merged, superseded = merge_with_observations(
            seed_dataset, log.observations
        )
        assert superseded == 0
        assert len(merged) == len(seed_dataset) + 1


class TestSplit:
    def test_positional_tail_holdout(self):
        recalibrator = Recalibrator(holdout_fraction=0.25)
        observations = list(range(8))  # split() is shape-only
        fit, holdout = recalibrator.split(observations)
        assert fit == [0, 1, 2, 3, 4, 5]
        assert holdout == [6, 7]

    def test_minimum_one_holdout(self):
        fit, holdout = Recalibrator(holdout_fraction=0.25).split([1, 2])
        assert (fit, holdout) == ([1], [2])

    def test_too_few_observations(self):
        with pytest.raises(CalibrationError, match="at least 2"):
            Recalibrator().split([1])

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 2.0])
    def test_fraction_validation(self, fraction):
        with pytest.raises(CalibrationError):
            Recalibrator(holdout_fraction=fraction)


class TestCandidate:
    def test_refit_on_drifted_campaign_changes_fingerprint(
        self, incumbent, drifted_campaign
    ):
        log = ObservationLog()
        log.extend_from_dataset(drifted_campaign.dataset, source="replay")
        candidate = Recalibrator().build_candidate(incumbent, log.observations)
        assert candidate.parent_fingerprint == incumbent.estimate_cache.fingerprint
        assert candidate.fingerprint != candidate.parent_fingerprint
        assert candidate.fit_observations == len(log)
        assert candidate.fit_start_seq == 0
        assert candidate.fit_end_seq == len(log) - 1
        # Every drifted record lands on a seed construction coordinate.
        assert candidate.superseded_seed_records == len(
            incumbent.campaign.dataset
        )
        # Plan/protocol and adjustment are carried over, not re-derived.
        assert candidate.pipeline.plan.name == incumbent.plan.name
        assert candidate.pipeline.adjustment is incumbent.adjustment

    def test_requires_observations(self, incumbent):
        with pytest.raises(CalibrationError, match="at least one"):
            Recalibrator().build_candidate(incumbent, [])


class TestShadowScoring:
    def test_incumbent_scores_zero_on_its_own_platform(
        self, incumbent, base_spec, make_record
    ):
        # At the calibration size the adjusted model reproduces the
        # noiseless simulator to rounding error.
        log = ObservationLog()
        n = incumbent.calibration_size()
        for config in incumbent.calibration_configs():
            log.append(make_record(base_spec, config, n))
        score = Recalibrator().score(incumbent, log.observations)
        assert score.scored == len(log)
        assert score.skipped == 0
        assert score.mean_abs_relative_error < 1e-12

    def test_report_verdict(self, incumbent, base_spec, make_record):
        log = ObservationLog()
        n = incumbent.calibration_size()
        for config in incumbent.calibration_configs():
            log.append(make_record(base_spec, config, n))
        report = Recalibrator().shadow_evaluate(
            incumbent, incumbent, log.observations
        )
        assert report.holdout_size == len(log)
        assert report.improvement == 0.0
        assert not report.candidate_wins  # strict inequality on a tie
        assert "held-out" in report.describe()

    def test_empty_holdout_rejected(self, incumbent):
        with pytest.raises(CalibrationError, match="requires a holdout"):
            Recalibrator().shadow_evaluate(incumbent, incumbent, [])

    def test_all_points_outside_domain_rejected(
        self, incumbent, base_spec, make_record, make_config, monkeypatch
    ):
        log = ObservationLog()
        log.append(make_record(base_spec, make_config(1, 3, 8, 1), 3200))
        monkeypatch.setattr(
            recalibrate_module, "_predict", lambda pipeline, observation: None
        )
        with pytest.raises(CalibrationError, match="scored no observations"):
            Recalibrator().score(incumbent, log.observations)


class TestRefitCLI:
    def test_rank_deficient_refit_is_a_typed_one_line_error(
        self, tmp_path, capsys, incumbent, base_spec, make_record, make_config
    ):
        """Observations of a configuration the plan never measured, at four
        orders too close together for the N-T cubic, leave its refit
        rank-deficient: ``repro calibrate refit`` names the fit on one
        ``error:`` line and exits 1."""
        serving = tmp_path / "serving"
        save_pipeline(incumbent, serving, include_evaluation=incumbent.graph.has("evaluation"))
        log_path = tmp_path / "observations.jsonl"
        with ObservationLog(log_path) as log:
            for n in (20000, 20010, 20020, 20030):
                log.append(make_record(base_spec, make_config(0, 0, 3, 1), n))
            log.append(make_record(base_spec, make_config(1, 3, 8, 1), 3200))  # held out
        code = main([
            "calibrate", "refit", "--dir", str(serving), "--log", str(log_path),
            "--versions", str(tmp_path / "versions"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == [
            "error: N-T model for pentium2 (P=3, Mi=1) Ta at "
            "N = [20000, 20010, 20020, 20030]: rank-deficient design (rank 2 of 4)"
        ]

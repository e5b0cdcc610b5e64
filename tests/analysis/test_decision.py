"""Tests for decision-confidence (tie) analysis."""

import pytest

from repro.analysis.decision import (
    analyze_outcome,
    decision_report,
    decision_table,
)
from repro.cluster.config import ClusterConfig
from repro.core.search import ExhaustiveOptimizer, pointwise
from repro.errors import SearchError

KINDS = ("athlon", "pentium2")


def cfg(p1, m1, p2, m2):
    return ClusterConfig.from_tuple(KINDS, (p1, m1, p2, m2))


def outcome_for(times):
    configs = list(times)
    estimator = lambda c, n: times[c.label(KINDS)]
    return ExhaustiveOptimizer(
        pointwise(estimator), [ClusterConfig.from_tuple(KINDS, tuple(map(int, label.split(",")))) for label in configs]
    ).optimize(1)


class TestAnalyzeOutcome:
    def test_tie_set_membership(self):
        outcome = outcome_for(
            {"1,1,0,0": 100.0, "1,2,8,1": 103.0, "1,3,8,1": 120.0}
        )
        report = analyze_outcome(outcome, error_band=0.05)
        assert len(report.tie_set) == 2
        assert report.best.label(KINDS) == "1,1,0,0"
        assert report.contains(cfg(1, 2, 8, 1))
        assert not report.contains(cfg(1, 3, 8, 1))
        assert report.margin == pytest.approx(0.20)
        assert not report.is_confident

    def test_confident_when_winner_alone(self):
        outcome = outcome_for({"1,1,0,0": 100.0, "1,2,8,1": 150.0})
        report = analyze_outcome(outcome, error_band=0.05)
        assert report.is_confident
        assert report.margin == pytest.approx(0.50)

    def test_all_tied_gives_infinite_margin(self):
        outcome = outcome_for({"1,1,0,0": 100.0, "1,2,8,1": 101.0})
        report = analyze_outcome(outcome, error_band=0.10)
        assert len(report.tie_set) == 2
        assert report.margin == float("inf")
        assert "inf" in report.describe(KINDS)

    def test_negative_band_rejected(self):
        outcome = outcome_for({"1,1,0,0": 1.0})
        with pytest.raises(SearchError):
            analyze_outcome(outcome, error_band=-0.1)

    def test_describe(self):
        outcome = outcome_for({"1,1,0,0": 100.0, "1,2,8,1": 102.0})
        text = analyze_outcome(outcome, 0.05).describe(KINDS)
        assert "2 configuration(s) tied" in text


class TestOnPipeline:
    def test_near_ties_are_the_norm_at_large_n(self, basic_pipeline):
        """The reproduction's core nuance: at large N several M1 choices
        tie within the model's error band."""
        reports = decision_report(basic_pipeline, sizes=[9600], error_band=0.05)
        assert len(reports[0].tie_set) >= 2

    def test_measured_best_lies_in_tie_set(self, basic_pipeline):
        """Why argmin misses are benign: the ground-truth optimum is inside
        the estimated tie set at every evaluated size."""
        for report in decision_report(basic_pipeline, error_band=0.05):
            actual, _ = basic_pipeline.actual_best(report.n)
            assert report.contains(actual), (
                f"N={report.n}: measured best {actual.label(KINDS)} outside "
                f"tie set {[c.label(KINDS) for c, _ in report.tie_set]}"
            )

    def test_table_renders(self, basic_pipeline):
        text = decision_table(basic_pipeline, sizes=[3200, 9600])
        assert "tie" in text.lower()
        assert "9600" in text
        assert "NO" not in text  # measured best always inside the ties here

    def test_small_n_is_confident(self, basic_pipeline):
        """At N=3200 the Athlon-only configuration wins outright."""
        report = decision_report(basic_pipeline, sizes=[3200], error_band=0.03)[0]
        assert report.best.label(KINDS) == "1,1,0,0"

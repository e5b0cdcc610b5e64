"""Unit tests for the P-T model and model composition."""

import numpy as np
import pytest

from repro.core.composition import CompositionPolicy, PAPER_TA_FACTOR, PAPER_TC_FACTOR
from repro.core.model_store import ModelStore
from repro.core.nt_model import NTModel
from repro.core.pt_model import PTModel
from repro.errors import FitError, ModelError


def _ta_truth(n, p):
    """Representable computation truth: each of the P processes does 1/P of
    the total work (k7=1, k8=0).  A per-process offset that does *not*
    scale with 1/P would sit outside the family — one of the structural
    approximations the paper accepts."""
    return 1e-9 * np.asarray(n, dtype=float) ** 3 / p


def _tc_truth(n, p):
    """Representable P-T ground truth: k9=0.5, k10=0.8, k11=0 over the
    shape S_c(N) = 2e-8 N^2 + 1e-5 N + 0.1.  (A non-zero k11 would make
    the reference extraction inexact by construction — the systematic
    communication-model deviation the paper's Section 4.1 patches.)"""
    s_c = 2e-8 * np.asarray(n, dtype=float) ** 2 + 1e-5 * np.asarray(n, dtype=float) + 0.1
    return 0.5 * p * s_c + 0.8 * s_c / p


def synthetic_nt_family(kind="pentium2", mi=1, p_values=(1, 2, 4, 8)):
    """N-T models generated from a known P-T ground truth."""
    sizes = np.array([400.0, 800.0, 1600.0, 3200.0])
    family = []
    for p_pes in p_values:
        p = p_pes * mi
        ta = _ta_truth(sizes, p)
        tc = _tc_truth(sizes, p)
        family.append(NTModel.fit(kind, p, mi, sizes, ta, tc))
    return family, sizes


class TestFit:
    def test_recovers_ground_truth_scaling(self):
        family, sizes = synthetic_nt_family()
        model = PTModel.fit_from_nt_family(family, sizes)
        # Predictions must match the generating law at held-out P.
        for n in (800, 3200):
            for p in (3, 5, 7):
                assert model.predict_ta(n, p) == pytest.approx(
                    _ta_truth(n, p), rel=0.02
                )
                assert model.predict_tc(n, p) == pytest.approx(
                    _tc_truth(n, p), rel=0.02
                )

    def test_needs_three_distinct_p(self):
        family, sizes = synthetic_nt_family(p_values=(1, 2))
        with pytest.raises(FitError, match=">= 3 distinct P"):
            PTModel.fit_from_nt_family(family, sizes)

    def test_rank_deficient_design_fails_loudly(self):
        # A family without computation time: the Ta design [Ta_ref/P, 1]
        # has a zero column.
        family = [
            NTModel("k", p=p, mi=1, ka=(0.0, 0.0, 0.0, 0.0), kc=(2e-8, 1e-5, 0.1),
                    n_range=(400, 3200))
            for p in (1, 2, 4)
        ]
        with pytest.raises(FitError) as raised:
            PTModel.fit_from_nt_family(family, [400, 800, 1600, 3200])
        message = str(raised.value)
        assert "P-T model for (k, Mi=1) Ta over P = [1, 2, 4]" in message
        assert "N = [400, 800, 1600, 3200]" in message
        assert "rank 1 of 2" in message

    def test_mixed_family_rejected(self):
        fam_a, sizes = synthetic_nt_family(mi=1)
        fam_b, _ = synthetic_nt_family(mi=2)
        with pytest.raises(FitError, match="share kind and Mi"):
            PTModel.fit_from_nt_family(fam_a[:2] + fam_b[:1], sizes)

    def test_empty_family_rejected(self):
        with pytest.raises(FitError):
            PTModel.fit_from_nt_family([], [400, 800])

    def test_p_below_mi_rejected_at_predict(self):
        family, sizes = synthetic_nt_family(mi=2, p_values=(1, 2, 4, 8))
        model = PTModel.fit_from_nt_family(family, sizes)
        assert model.mi == 2
        with pytest.raises(ModelError, match="P < Mi"):
            model.predict_ta(800, 1)

    def test_ta_decreases_with_p(self):
        family, sizes = synthetic_nt_family()
        model = PTModel.fit_from_nt_family(family, sizes)
        assert model.predict_ta(3200, 8) < model.predict_ta(3200, 2)

    def test_tc_grows_with_p_for_large_p(self):
        family, sizes = synthetic_nt_family()
        model = PTModel.fit_from_nt_family(family, sizes)
        assert model.predict_tc(3200, 12) > model.predict_tc(3200, 4)

    def test_scalar_prediction_is_the_array_cell_bitwise(self):
        """Python int P and order take the scalar path; each phase equals
        the array path's cell, bit for bit, and is a Python float."""
        family, sizes = synthetic_nt_family(mi=2)
        model = PTModel.fit_from_nt_family(family, sizes)
        ns = np.array([700, 1600, 5000, 12000])
        for p in (2, 3, 8, 40):
            for phase in (model.predict_ta, model.predict_tc):
                cells = phase(ns, np.full(ns.size, p))
                for n, cell in zip(ns.tolist(), cells.tolist()):
                    got = phase(n, p)
                    assert type(got) is float and got.hex() == cell.hex(), (phase, n, p)

    def test_vectorized_prediction(self):
        family, sizes = synthetic_nt_family()
        model = PTModel.fit_from_nt_family(family, sizes)
        out = model.predict_total(np.array([800.0, 1600.0]), np.array([4, 4]))
        assert out.shape == (2,)


class TestComposition:
    def test_scaled_model_scales_predictions(self):
        family, sizes = synthetic_nt_family()
        source = PTModel.fit_from_nt_family(family, sizes)
        composed = source.scaled("athlon", 0.27, 0.85)
        assert composed.kind_name == "athlon"
        assert composed.is_composed and composed.composed_from == "pentium2"
        n, p = 1600, 6
        # Ta scales entirely (reference and offset), Tc likewise.
        assert composed.predict_ta(n, p) == pytest.approx(
            0.27 * source.predict_ta(n, p), rel=1e-9
        )
        assert composed.predict_tc(n, p) == pytest.approx(
            0.85 * source.predict_tc(n, p), rel=1e-9
        )

    def test_scaled_rejects_bad_factors(self):
        family, sizes = synthetic_nt_family()
        source = PTModel.fit_from_nt_family(family, sizes)
        with pytest.raises(ModelError):
            source.scaled("x", 0.0, 1.0)

    def test_paper_policy_factors(self):
        policy = CompositionPolicy(mode="paper")
        factors = policy.factors_for(ModelStore(), "athlon", "pentium2", 1)
        assert factors == (PAPER_TA_FACTOR, PAPER_TC_FACTOR)

    def test_fixed_policy_factors(self):
        policy = CompositionPolicy(mode="fixed", ta_factor=0.5, tc_factor=0.9)
        assert policy.factors_for(ModelStore(), "a", "b", 2) == (0.5, 0.9)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ModelError):
            CompositionPolicy(mode="magic")
        with pytest.raises(ModelError):
            CompositionPolicy(ta_factor=-1)

    def test_auto_mode_derives_speed_ratio(self):
        """Auto factors come from the single-PE N-T Ta ratio."""
        store = ModelStore()
        sizes = np.array([400.0, 800.0, 1600.0, 3200.0])
        # athlon is 4x faster than pentium2
        for kind, rate in (("athlon", 4.0), ("pentium2", 1.0)):
            ta = 1e-9 * sizes**3 / rate
            tc = 1e-6 * sizes
            store.nt[(kind, 1, 1)] = NTModel.fit(kind, 1, 1, sizes, ta, tc)
        policy = CompositionPolicy(mode="auto")
        ta_factor, tc_factor = policy.factors_for(store, "athlon", "pentium2", 1)
        assert ta_factor == pytest.approx(0.25, rel=0.01)
        assert tc_factor == 1.0

    def test_auto_mode_requires_single_pe_models(self):
        policy = CompositionPolicy(mode="auto")
        with pytest.raises(ModelError, match="single-PE N-T model"):
            policy.factors_for(ModelStore(), "athlon", "pentium2", 1)

    def test_compose_missing_fills_only_gaps(self):
        family, sizes = synthetic_nt_family()
        store = ModelStore()
        for model in family:
            store.nt[(model.kind_name, model.p, model.mi)] = model
        store.pt[("pentium2", 1)] = PTModel.fit_from_nt_family(family, sizes)
        policy = CompositionPolicy(mode="fixed", ta_factor=0.3, tc_factor=0.9)
        composed = policy.compose_missing(store, "athlon", "pentium2")
        assert composed == [1]
        assert store.has_pt("athlon", 1)
        # idempotent: nothing left to compose
        assert policy.compose_missing(store, "athlon", "pentium2") == []

    def test_composed_models_are_not_composition_sources(self):
        family, sizes = synthetic_nt_family()
        store = ModelStore()
        store.pt[("pentium2", 1)] = PTModel.fit_from_nt_family(family, sizes)
        policy = CompositionPolicy(mode="fixed", ta_factor=0.3, tc_factor=0.9)
        policy.compose_missing(store, "athlon", "pentium2")
        # composing a third kind from athlon (all composed) does nothing
        assert policy.compose_missing(store, "xeon", "athlon") == []


class TestSerialization:
    def test_roundtrip(self):
        family, sizes = synthetic_nt_family()
        model = PTModel.fit_from_nt_family(family, sizes)
        assert PTModel.from_dict(model.to_dict()) == model

    def test_composed_flag_survives(self):
        family, sizes = synthetic_nt_family()
        composed = PTModel.fit_from_nt_family(family, sizes).scaled("a", 0.3, 0.9)
        assert PTModel.from_dict(composed.to_dict()).is_composed

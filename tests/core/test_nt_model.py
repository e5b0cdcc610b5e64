"""Unit tests for the N-T model."""

import numpy as np
import pytest

from repro.core.nt_model import NTModel
from repro.errors import FitError, ModelError


class TestFit:
    def test_exact_cubic_recovered(self):
        sizes = [400, 800, 1200, 1600, 2400]
        ka = (1e-9, 2e-6, 3e-4, 0.01)
        kc = (5e-7, 1e-4, 0.02)
        ta = [np.polyval(ka, n) for n in sizes]
        tc = [np.polyval(kc, n) for n in sizes]
        model = NTModel.fit("athlon", 1, 1, sizes, ta, tc)
        assert np.allclose(model.ka, ka, rtol=1e-6)
        assert np.allclose(model.kc, kc, rtol=1e-6)
        assert model.n_range == (400, 2400)

    def test_prediction_interpolates(self):
        sizes = [400, 800, 1200, 1600]
        ta = [1.0, 8.0, 27.0, 64.0]  # exactly cubic in n/400
        model = NTModel.fit("k", 1, 1, sizes, ta, [0.1] * 4)
        assert model.predict_ta(800) == pytest.approx(8.0, rel=1e-9)
        assert model.predict_ta(1000) == pytest.approx((1000 / 400) ** 3, rel=1e-6)

    def test_needs_four_distinct_sizes(self):
        with pytest.raises(FitError, match=">= 4"):
            NTModel.fit("k", 1, 1, [400, 800, 1200], [1, 2, 3], [1, 2, 3])
        with pytest.raises(FitError):
            NTModel.fit("k", 1, 1, [400, 400, 800, 1200], [1, 1, 2, 3], [1, 1, 2, 3])

    @pytest.mark.parametrize("weighting", ["uniform", "relative"])
    @pytest.mark.parametrize(
        "sizes, rank",
        [([50000, 60000, 70000, 80000], 3), ([20000, 20010, 20020, 20030], 2)],
    )
    def test_rank_deficient_design_fails_loudly(self, sizes, rank, weighting):
        # Before the check, GSL's truncating SVD fitted these silently at
        # a lower rank, dropping a term of the cubic.
        n = np.array(sizes, dtype=float)
        with pytest.raises(FitError) as raised:
            NTModel.fit("k", 2, 1, sizes, 1e-9 * n**3 + 1.0, 1e-6 * n**2 + 0.5,
                        weighting=weighting)
        message = str(raised.value)
        assert "N-T model for k (P=2, Mi=1) Ta" in message
        assert f"N = [{', '.join(map(str, sizes))}]" in message
        assert f"rank {rank} of 4" in message

    def test_extrapolation_flag(self):
        model = NTModel.fit("k", 1, 1, [400, 800, 1200, 1600], [1, 2, 3, 4], [0, 0, 0, 0.1])
        assert not model.extrapolating(1000)
        assert model.extrapolating(3200)
        assert model.extrapolating(100)

    def test_vectorized_prediction(self):
        model = NTModel.fit("k", 1, 1, [1, 2, 3, 4], [1, 8, 27, 64], [1, 4, 9, 16.5])
        out = model.predict_total(np.array([1.0, 2.0]))
        assert out.shape == (2,)


class TestValidation:
    def test_p_less_than_mi_rejected(self):
        with pytest.raises(ModelError):
            NTModel("k", p=2, mi=4, ka=(0, 0, 0, 0), kc=(0, 0, 0), n_range=(1, 2))

    def test_wrong_coefficient_counts(self):
        with pytest.raises(ModelError):
            NTModel("k", 1, 1, ka=(1, 2, 3), kc=(1, 2, 3), n_range=(1, 2))
        with pytest.raises(ModelError):
            NTModel("k", 1, 1, ka=(1, 2, 3, 4), kc=(1, 2), n_range=(1, 2))

    def test_single_pe_flag(self):
        single = NTModel("k", 3, 3, (0, 0, 0, 1), (0, 0, 1), (1, 2))
        multi = NTModel("k", 6, 3, (0, 0, 0, 1), (0, 0, 1), (1, 2))
        assert single.is_single_pe and not multi.is_single_pe


class TestFromDataset:
    def test_fit_dataset_end_to_end(self, basic_campaign):
        dataset = basic_campaign.dataset
        model = NTModel.fit_dataset(dataset, "athlon", (1, 1, 0, 0))
        assert model.p == 1 and model.mi == 1
        # Positive dominant coefficient: time grows cubically.
        assert model.ka[0] > 0
        # The fitted model reproduces the measurements it was built from
        # (unweighted LSQ prioritizes the large sizes, so check those).
        for record in dataset.for_config((1, 1, 0, 0)):
            if record.n < 1600:
                continue
            measured = record.kind("athlon").ta
            assert model.predict_ta(record.n) == pytest.approx(measured, rel=0.05)

    def test_fit_dataset_multi_pe(self, basic_campaign):
        model = NTModel.fit_dataset(basic_campaign.dataset, "pentium2", (0, 0, 4, 2))
        assert model.p == 8 and model.mi == 2
        assert not model.is_single_pe

    def test_missing_config_rejected(self, basic_campaign):
        with pytest.raises(FitError):
            NTModel.fit_dataset(basic_campaign.dataset, "athlon", (1, 9, 0, 0))


class TestSerialization:
    def test_roundtrip(self):
        model = NTModel("k", 4, 2, (1e-9, 0, 0, 0.1), (1e-7, 0, 0.2), (400, 1600), 0.5, 0.1)
        assert NTModel.from_dict(model.to_dict()) == model

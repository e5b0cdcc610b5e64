"""Unit tests for the GSL-equivalent least-squares module."""

import numpy as np
import pytest

from repro.core import lsq
from repro.errors import FitError


class TestMultifitLinear:
    def test_exact_polynomial_recovered(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        coeffs = np.array([2.0, -3.0, 1.0, 0.5])
        y = np.polyval(coeffs, x)
        fit = lsq.multifit_linear(lsq.design_cubic(x), y)
        assert np.allclose(fit.coefficients, coeffs, rtol=1e-8)
        assert fit.chisq == pytest.approx(0.0, abs=1e-12)
        assert fit.rank == 4

    def test_matches_numpy_lstsq(self):
        rng = np.random.default_rng(0)
        design = rng.standard_normal((30, 5))
        y = rng.standard_normal(30)
        fit = lsq.multifit_linear(design, y)
        expected, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert np.allclose(fit.coefficients, expected)

    def test_chisq_is_residual_sum(self):
        rng = np.random.default_rng(1)
        design = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        fit = lsq.multifit_linear(design, y)
        residual = y - design @ fit.coefficients
        assert fit.chisq == pytest.approx(float(residual @ residual))

    def test_underdetermined_rejected(self):
        with pytest.raises(FitError):
            lsq.multifit_linear(np.ones((3, 4)), np.ones(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(FitError):
            lsq.multifit_linear(np.ones((4, 2)), np.ones(5))

    def test_nan_rejected(self):
        design = np.ones((4, 2))
        design[0, 0] = np.nan
        with pytest.raises(FitError):
            lsq.multifit_linear(design, np.ones(4))

    def test_zero_design_rejected(self):
        with pytest.raises(FitError):
            lsq.multifit_linear(np.zeros((4, 2)), np.ones(4))

    def test_rank_deficiency_handled_like_pinv(self):
        # Duplicate column: infinitely many solutions; SVD picks min-norm.
        x = np.array([1.0, 2.0, 3.0, 4.0])
        design = np.column_stack([x, x, np.ones_like(x)])
        y = 2 * x + 1
        fit = lsq.multifit_linear(design, y)
        assert fit.rank == 2
        predicted = design @ fit.coefficients
        assert np.allclose(predicted, y)
        # minimum-norm: the duplicated coefficients split evenly
        assert fit.coefficients[0] == pytest.approx(fit.coefficients[1])

    def test_covariance_diagonal_positive(self):
        rng = np.random.default_rng(2)
        design = rng.standard_normal((25, 3))
        y = design @ np.array([1.0, 2.0, 3.0]) + 0.01 * rng.standard_normal(25)
        fit = lsq.multifit_linear(design, y)
        assert np.all(np.diag(fit.covariance) >= 0)
        assert np.all(fit.standard_errors() < 0.1)

    def test_predict(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = 3 * x + 2
        fit = lsq.multifit_linear(lsq.design_poly(x, 1), y)
        out = fit.predict(lsq.design_poly([10.0], 1))
        assert out[0] == pytest.approx(32.0)
        with pytest.raises(FitError):
            fit.predict(np.ones((1, 5)))


class TestWeighted:
    def test_weights_pull_fit(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([0.0, 1.0, 2.0, 100.0])  # outlier at the end
        design = lsq.design_poly(x, 1)
        unweighted = lsq.multifit_linear(design, y)
        w = np.array([1.0, 1.0, 1.0, 1e-9])
        weighted = lsq.multifit_wlinear(design, w, y)
        assert abs(weighted.coefficients[0] - 1.0) < 1e-3
        assert unweighted.coefficients[0] > 10

    def test_uniform_weights_match_unweighted(self):
        rng = np.random.default_rng(3)
        design = rng.standard_normal((10, 2))
        y = rng.standard_normal(10)
        a = lsq.multifit_linear(design, y)
        b = lsq.multifit_wlinear(design, np.full(10, 2.0), y)
        assert np.allclose(a.coefficients, b.coefficients)

    def test_negative_weights_rejected(self):
        with pytest.raises(FitError):
            lsq.multifit_wlinear(np.ones((2, 1)), np.array([1.0, -1.0]), np.ones(2))

    def test_weight_count_mismatch(self):
        with pytest.raises(FitError):
            lsq.multifit_wlinear(np.ones((2, 1)), np.ones(3), np.ones(2))


class TestDesigns:
    def test_design_cubic_columns(self):
        d = lsq.design_cubic([2.0])
        assert d.tolist() == [[8.0, 4.0, 2.0, 1.0]]

    def test_design_quadratic_columns(self):
        d = lsq.design_quadratic([3.0])
        assert d.tolist() == [[9.0, 3.0, 1.0]]

    def test_design_degree_zero(self):
        assert lsq.design_poly([5.0, 6.0], 0).tolist() == [[1.0], [1.0]]

    def test_negative_degree_rejected(self):
        with pytest.raises(FitError):
            lsq.design_poly([1.0], -1)

    def test_polyval_scalar_and_array(self):
        assert lsq.polyval([1.0, 0.0, -1.0], 2.0) == pytest.approx(3.0)
        out = lsq.polyval([1.0, 0.0], np.array([1.0, 2.0]))
        assert out.tolist() == [1.0, 2.0]

    def test_python_scalar_orders_match_np_polyval_bitwise(self):
        """Python ``int``/``float`` orders take a Python-float Horner path;
        it must give ``np.polyval``'s bits, for tuple and array coefficients."""
        rng = np.random.default_rng(19)
        for _ in range(200):
            coeffs = rng.normal(size=int(rng.integers(1, 5))) * 10.0 ** rng.integers(-12, 3)
            for x in (int(rng.integers(1, 20000)), float(rng.uniform(-5e4, 5e4)), 0, True):
                expected = float(np.polyval(coeffs, np.asarray(x, dtype=float)))
                for given in (tuple(coeffs.tolist()), coeffs):
                    got = lsq.polyval(given, x)
                    assert type(got) is float
                    assert got.hex() == expected.hex(), (coeffs, x)

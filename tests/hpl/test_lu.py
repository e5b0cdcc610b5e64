"""Numeric validation of the blocked LU implementation against real linear
algebra (NumPy/SciPy) and HPL's own residual criterion."""

import numpy as np
import pytest
import scipy.linalg

from repro.errors import SimulationError
from repro.hpl import flops
from repro.hpl.lu import (
    FlopCounter,
    apply_pivots,
    blocked_lu,
    hpl_reference_run,
    hpl_residual_check,
    lu_solve,
    permutation_vector,
    reconstruct,
)


def random_matrix(n, seed=0):
    return np.random.default_rng(seed).standard_normal((n, n))


class TestFactorization:
    @pytest.mark.parametrize("n,nb", [(1, 1), (5, 2), (32, 8), (64, 64), (100, 7), (128, 32)])
    def test_pa_equals_lu(self, n, nb):
        a = random_matrix(n, seed=n)
        lu, piv = blocked_lu(a.copy(), nb=nb)
        perm = permutation_vector(piv)
        pa = a[perm]
        assert np.allclose(reconstruct(lu, piv), pa, atol=1e-10 * n)

    def test_matches_scipy_getrf(self):
        a = random_matrix(48, seed=3)
        lu_ours, piv_ours = blocked_lu(a.copy(), nb=16)
        lu_scipy, piv_scipy = scipy.linalg.lu_factor(a)
        assert np.allclose(lu_ours, lu_scipy, atol=1e-10)
        assert np.array_equal(piv_ours, piv_scipy)

    def test_block_size_does_not_change_result(self):
        a = random_matrix(60, seed=4)
        lu1, piv1 = blocked_lu(a.copy(), nb=4)
        lu2, piv2 = blocked_lu(a.copy(), nb=60)
        assert np.allclose(lu1, lu2, atol=1e-11)
        assert np.array_equal(piv1, piv2)

    def test_partial_pivoting_selects_largest(self):
        a = np.array([[1e-12, 1.0], [1.0, 1.0]])
        _, piv = blocked_lu(a.copy(), nb=2)
        assert piv[0] == 1  # swapped with the larger row

    def test_singular_matrix_rejected(self):
        a = np.zeros((3, 3))
        with pytest.raises(SimulationError, match="singular"):
            blocked_lu(a, nb=2)

    def test_input_validation(self):
        with pytest.raises(SimulationError):
            blocked_lu(np.ones((2, 3)))
        with pytest.raises(SimulationError):
            blocked_lu(np.ones((2, 2), dtype=np.float32))
        with pytest.raises(SimulationError):
            blocked_lu(np.ones((2, 2)), nb=0)


class TestSolve:
    @pytest.mark.parametrize("n", [1, 7, 50, 120])
    def test_solves_linear_system(self, n):
        a = random_matrix(n, seed=n + 1)
        b = np.random.default_rng(n).standard_normal(n)
        lu, piv = blocked_lu(a.copy(), nb=32)
        x = lu_solve(lu, piv, b)
        assert np.allclose(a @ x, b, atol=1e-8 * n)

    def test_matches_numpy_solve(self):
        a = random_matrix(40, seed=9)
        b = np.arange(40, dtype=float)
        lu, piv = blocked_lu(a.copy(), nb=8)
        assert np.allclose(lu_solve(lu, piv, b), np.linalg.solve(a, b), atol=1e-9)

    def test_rhs_length_mismatch(self):
        lu, piv = blocked_lu(random_matrix(4).copy(), nb=2)
        with pytest.raises(SimulationError):
            lu_solve(lu, piv, np.ones(5))

    def test_apply_pivots_is_permutation(self):
        b = np.arange(6, dtype=float)
        piv = np.array([3, 1, 4, 3, 5, 5])
        out = apply_pivots(b, piv)
        assert sorted(out.tolist()) == b.tolist()


class TestResidualCheck:
    def test_good_solution_passes(self):
        n = 64
        a = random_matrix(n, seed=2)
        b = np.random.default_rng(5).standard_normal(n)
        x = np.linalg.solve(a, b)
        value, passed = hpl_residual_check(a, x, b)
        assert passed and value < 1.0

    def test_corrupted_solution_fails(self):
        n = 64
        a = random_matrix(n, seed=2)
        b = np.random.default_rng(5).standard_normal(n)
        x = np.linalg.solve(a, b) + 0.1
        _, passed = hpl_residual_check(a, x, b)
        assert not passed

    def test_empty_system_rejected(self):
        with pytest.raises(SimulationError):
            hpl_residual_check(np.zeros((0, 0)), np.zeros(0), np.zeros(0))

    def test_reference_run_end_to_end(self):
        residual, passed, counter = hpl_reference_run(96, nb=32, seed=1)
        assert passed
        assert counter.total > 0


class TestFlopCounting:
    @pytest.mark.parametrize("n,nb", [(64, 16), (100, 25), (96, 96)])
    def test_counted_flops_match_closed_form(self, n, nb):
        counter = FlopCounter()
        blocked_lu(random_matrix(n, seed=n).copy(), nb=nb, counter=counter)
        expected = flops.total_lu_flops(n)
        assert counter.total == pytest.approx(expected, rel=1e-12)

    def test_phase_split_present(self):
        counter = FlopCounter()
        blocked_lu(random_matrix(64, seed=0).copy(), nb=16, counter=counter)
        assert set(counter.phases) == {"pfact", "update"}
        # update (O(n^3/..) GEMM) dominates pfact for multi-block runs
        assert counter.phases["update"] > counter.phases["pfact"]

    def test_solve_flops_counted(self):
        n = 32
        counter = FlopCounter()
        lu, piv = blocked_lu(random_matrix(n, seed=0).copy(), nb=8)
        lu_solve(lu, piv, np.ones(n), counter=counter)
        assert counter.phases["uptrsv"] == pytest.approx(flops.solve_flops(n))

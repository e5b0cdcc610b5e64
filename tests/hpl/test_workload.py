"""Unit tests for the operation-count formulas."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.hpl import flops


class TestTotals:
    def test_total_lu_flops_small_cases(self):
        # n=1: no work; n=2: 1 division + 2 flops (multiply-add) = 3
        assert flops.total_lu_flops(1) == pytest.approx(0.0, abs=1e-9)
        assert flops.total_lu_flops(2) == pytest.approx(3.0)

    def test_total_lu_flops_leading_term(self):
        n = 10_000
        assert flops.total_lu_flops(n) == pytest.approx((2 / 3) * n**3, rel=1e-3)

    def test_total_is_sum_of_columns(self):
        # direct summation of the elimination loop
        n = 57
        direct = sum((n - 1 - j) + 2 * (n - 1 - j) ** 2 for j in range(n))
        assert flops.total_lu_flops(n) == pytest.approx(direct)

    def test_hpl_benchmark_flops_convention(self):
        n = 1000
        assert flops.hpl_benchmark_flops(n) == pytest.approx(
            (2 / 3) * n**3 + 1.5 * n**2
        )

    def test_solve_flops(self):
        assert flops.solve_flops(100) == pytest.approx(2e4)

    def test_negative_orders_rejected(self):
        for fn in (flops.total_lu_flops, flops.solve_flops, flops.hpl_benchmark_flops):
            with pytest.raises(SimulationError):
                fn(-1)

    def test_negative_order_message_names_the_order(self):
        """The text is built only when raising, and still names the order
        (an array's as its repr)."""
        for fn in (flops.total_lu_flops, flops.solve_flops, flops.hpl_benchmark_flops):
            with pytest.raises(SimulationError, match=r"^negative order -3$"):
                fn(-3)
            with pytest.raises(SimulationError, match=r"^negative order \[ 4 -2\]$"):
                fn(np.array([4, -2]))


class TestPhaseCounts:
    def test_blocked_phases_telescope_to_total(self):
        """pfact + trsm + gemm across all panel steps == unblocked LU."""
        for n, nb in [(64, 16), (100, 25), (30, 7), (8, 3)]:
            total = 0.0
            for j0 in range(0, n, nb):
                jend = min(j0 + nb, n)
                w = jend - j0
                total += flops.pfact_flops(n - j0, w)
                total += flops.update_flops(n - j0, w, n - jend)
            assert total == pytest.approx(flops.total_lu_flops(n), rel=1e-12)

    def test_pfact_degenerate_cases(self):
        assert flops.pfact_flops(0, 10) == 0.0
        assert flops.pfact_flops(10, 0) == 0.0

    def test_pfact_tall_panel_exceeds_square(self):
        assert flops.pfact_flops(1000, 8) > flops.pfact_flops(8, 8)

    def test_update_flops_zero_columns(self):
        assert flops.update_flops(100, 8, 0) == 0.0

    def test_gemm_flops(self):
        assert flops.gemm_flops(10, 4, 7) == pytest.approx(2 * 10 * 4 * 7)

    def test_trsm_flops_exact(self):
        # unit triangular solve: q * sum_{i<nb} 2i
        assert flops.trsm_flops(4, 10) == pytest.approx(10 * (2 * (1 + 2 + 3)))
        assert flops.trsm_flops(0, 10) == 0.0

    def test_negative_dims_rejected(self):
        with pytest.raises(SimulationError):
            flops.pfact_flops(-1, 4)
        with pytest.raises(SimulationError):
            flops.gemm_flops(1, -2, 3)
        with pytest.raises(SimulationError):
            flops.trsm_flops(-1, 3)


class TestBytes:
    def test_panel_bytes_includes_pivots(self):
        assert flops.panel_bytes(100, 8) == pytest.approx(100 * 8 * 8 + 8 * 4)

    def test_laswp_bytes_scalar_and_array(self):
        assert flops.laswp_bytes(8, 10) == pytest.approx(2 * 8 * 10 * 8)
        arr = flops.laswp_bytes(8, np.array([10.0, 0.0, 5.0]))
        assert arr.tolist() == [1280.0, 0.0, 640.0]

    def test_laswp_negative_rejected(self):
        with pytest.raises(SimulationError):
            flops.laswp_bytes(8, -1)
        with pytest.raises(SimulationError):
            flops.panel_bytes(-1, 8)

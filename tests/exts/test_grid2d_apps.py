"""Tests for 2-D process grids and the SUMMA application."""

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.presets import kishimoto_cluster
from repro.errors import SimulationError
from repro.exts.grid2d import GridShape, grid_shapes, near_square_shape, simulate_schedule_2d
from repro.hpl.driver import NoiseSpec, run_hpl
from repro.hpl.schedule import simulate_schedule
from repro.runs import WorkloadResult
from repro.workloads.summa import run_summa, simulate_summa, summa_flops

KINDS = ("athlon", "pentium2")


def cfg(p1, m1, p2, m2):
    return ClusterConfig.from_tuple(KINDS, (p1, m1, p2, m2))


@pytest.fixture(scope="module")
def spec():
    return kishimoto_cluster()


class TestGridShape:
    def test_coords_roundtrip(self):
        shape = GridShape(3, 4)
        for rank in range(12):
            row, col = shape.coords(rank)
            assert shape.rank_of(row, col) == rank

    def test_column_major_layout(self):
        shape = GridShape(2, 3)
        assert shape.coords(0) == (0, 0)
        assert shape.coords(1) == (1, 0)
        assert shape.coords(2) == (0, 1)

    def test_grid_shapes_enumeration(self):
        assert [(s.pr, s.q) for s in grid_shapes(12)] == [(1, 12), (2, 6), (3, 4)]
        assert [(s.pr, s.q) for s in grid_shapes(7)] == [(1, 7)]

    def test_near_square(self):
        assert (near_square_shape(16).pr, near_square_shape(16).q) == (4, 4)
        assert (near_square_shape(8).pr, near_square_shape(8).q) == (2, 4)

    def test_validation(self):
        with pytest.raises(SimulationError):
            GridShape(0, 2)
        with pytest.raises(SimulationError):
            GridShape(2, 2).coords(5)
        with pytest.raises(SimulationError):
            GridShape(2, 2).rank_of(2, 0)
        with pytest.raises(SimulationError):
            grid_shapes(0)


class TestSchedule2D:
    def test_1xp_grid_matches_1d_walker(self, spec):
        """With Pr = 1 the 2-D walker must reproduce the 1-D one."""
        config = cfg(1, 1, 8, 1)
        n = 2400
        t1d = simulate_schedule(spec, config, n).wall_time_s
        t2d = simulate_schedule_2d(spec, config, n, GridShape(1, 9)).wall_time_s
        assert t2d == pytest.approx(t1d, rel=0.02)

    def test_grid_size_must_match_processes(self, spec):
        with pytest.raises(SimulationError):
            simulate_schedule_2d(spec, cfg(1, 1, 8, 1), 1600, GridShape(2, 2))

    def test_square_grid_reduces_bcast_volume(self, spec):
        """Per-process broadcast traffic shrinks by Pr on a Pr x Q grid."""
        config = cfg(1, 1, 8, 1)
        n = 4800
        flat = simulate_schedule_2d(spec, config, n, GridShape(1, 9))
        square = simulate_schedule_2d(spec, config, n, GridShape(3, 3))
        assert square.phase_arrays["bcast"].mean() < flat.phase_arrays["bcast"].mean()

    def test_square_grid_pays_pivot_communication(self, spec):
        config = cfg(1, 1, 8, 1)
        n = 4800
        flat = simulate_schedule_2d(spec, config, n, GridShape(1, 9))
        square = simulate_schedule_2d(spec, config, n, GridShape(3, 3))
        assert square.phase_arrays["mxswp"].sum() > flat.phase_arrays["mxswp"].sum()

    def test_wall_positive_and_phases_finite(self, spec):
        result = simulate_schedule_2d(spec, cfg(0, 0, 8, 1), 3200, GridShape(2, 4))
        assert result.wall_time_s > 0
        for arr in result.phase_arrays.values():
            assert np.all(np.isfinite(arr)) and np.all(arr >= 0)

    def test_invalid_order(self, spec):
        with pytest.raises(SimulationError):
            simulate_schedule_2d(spec, cfg(1, 1, 0, 0), 0)


class TestSumma:
    def test_flops_definition(self):
        assert summa_flops(100) == pytest.approx(2e6)
        with pytest.raises(SimulationError):
            summa_flops(-1)

    def test_gflops_uses_matmul_count(self, spec):
        result = run_summa(spec, cfg(1, 1, 0, 0), 1600)
        assert result.gflops == pytest.approx(
            summa_flops(1600) / result.wall_time_s / 1e9
        )

    def test_no_lu_phases(self, spec):
        result = simulate_summa(spec, cfg(1, 1, 8, 1), 1600)
        assert np.all(result.phase_arrays["pfact"] == 0)
        assert np.all(result.phase_arrays["laswp"] == 0)
        assert np.all(result.phase_arrays["uptrsv"] == 0)
        assert result.phase_arrays["bcast"].sum() > 0
        assert result.phase_arrays["update"].sum() > 0

    def test_single_process_has_no_comm(self, spec):
        result = simulate_summa(spec, cfg(1, 1, 0, 0), 800)
        assert result.phase_arrays["bcast"].sum() == 0

    def test_summa_slower_than_hpl_per_matrix(self, spec):
        """3x the flops of LU on the same order -> roughly 3x the time."""
        config = cfg(1, 1, 8, 1)
        hpl_t = run_hpl(spec, config, 3200).wall_time_s
        summa_t = run_summa(spec, config, 3200).wall_time_s
        assert 2.0 < summa_t / hpl_t < 4.5

    def test_noise_reproducible(self, spec):
        a = run_summa(spec, cfg(1, 2, 4, 1), 1600, noise=NoiseSpec(), seed=4)
        b = run_summa(spec, cfg(1, 2, 4, 1), 1600, noise=NoiseSpec(), seed=4)
        assert a.wall_time_s == b.wall_time_s

    def test_result_type(self, spec):
        assert isinstance(run_summa(spec, cfg(1, 1, 0, 0), 400), WorkloadResult)

    def test_kind_breakdown_available(self, spec):
        result = run_summa(spec, cfg(1, 1, 8, 1), 1600)
        assert result.kind_phases("pentium2").tc > 0
        assert result.kind_phases("athlon").ta > 0

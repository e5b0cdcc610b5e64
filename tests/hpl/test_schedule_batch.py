"""Golden tests: the vectorized multi-size walker against the reference loop.

The batched walker promises *bitwise* equality with the scalar walker
(same IEEE operations in the same order), so every assertion here is exact
— no tolerances.
"""

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.presets import kishimoto_cluster
from repro.errors import SimulationError
from repro.hpl.schedule import (
    HPLParameters,
    WalkerStats,
    clear_panel_tables,
    panel_table,
    reset_walker_stats,
    simulate_schedule,
    simulate_schedule_grid,
    walker_stats,
)
from repro.hpl.driver import NoiseSpec
from repro.hpl.timing import PHASE_NAMES
from repro.measure.campaign import run_campaign, run_evaluation
from repro.measure.grids import PAPER_KINDS, plan_by_name


def cfg(p1, m1, p2, m2):
    return ClusterConfig.from_tuple(PAPER_KINDS, (p1, m1, p2, m2))


def assert_bitwise_equal(scalar_result, batch_result):
    assert scalar_result.n == batch_result.n
    assert scalar_result.wall_time_s == batch_result.wall_time_s
    for name in PHASE_NAMES:
        assert np.array_equal(
            scalar_result.phase_arrays[name], batch_result.phase_arrays[name]
        ), f"phase {name!r} differs"


def simulate_group(spec, config, ns, params=None, compute_noise=None, comm_noise=None):
    """One configuration group of :func:`simulate_schedule_grid`."""
    return simulate_schedule_grid(spec, [(config, ns)], params, [(compute_noise, comm_noise)])[0]


def assert_batch_matches_scalar(
    spec, config, ns, params=None, compute_noise=None, comm_noise=None
):
    batch = simulate_group(spec, config, ns, params, compute_noise, comm_noise)
    assert len(batch) == len(ns)
    for i, n in enumerate(ns):
        scalar = simulate_schedule(
            spec,
            config,
            n,
            params,
            None if compute_noise is None else compute_noise[i],
            None if comm_noise is None else comm_noise[i],
        )
        assert_bitwise_equal(scalar, batch[i])


#: Sizes exercising every padding path of the batched walker at nb = 80: a
#: single panel, a partial final panel and multi-panel problems of
#: different block counts.
PADDING_SIZES = [79, 400, 999, 1600, 2400]


class TestGoldenEquality:
    @pytest.mark.parametrize(
        "values", [(1, 1, 0, 0), (1, 2, 4, 1), (1, 1, 8, 1), (0, 0, 8, 2)]
    )
    def test_padding_sizes_in_one_batch(self, spec, values):
        assert_batch_matches_scalar(
            spec, cfg(*values), PADDING_SIZES, HPLParameters(nb=80)
        )

    def test_multi_size_heterogeneous(self, spec):
        assert_batch_matches_scalar(spec, cfg(1, 2, 4, 1), [1000, 2000, 3200])

    def test_n_not_multiple_of_nb(self, spec):
        # nb=80: 1000 = 12*80 + 40 -> partial final panel
        assert_batch_matches_scalar(
            spec, cfg(1, 1, 8, 1), [1000, 1080, 999], HPLParameters(nb=80)
        )

    def test_single_panel_n_at_most_nb(self, spec):
        assert_batch_matches_scalar(
            spec, cfg(1, 2, 4, 1), [1, 60, 79, 80], HPLParameters(nb=80)
        )

    def test_single_process_no_bcast(self, spec):
        assert_batch_matches_scalar(spec, cfg(1, 1, 0, 0), [500, 1500, 2400])

    def test_per_rank_noise_rows(self, spec):
        config = cfg(1, 2, 8, 2)
        p = config.total_processes
        ns = [800, 1600, 2400]
        rng = np.random.default_rng(42)
        compute = np.exp(rng.normal(0.0, 0.05, size=(len(ns), p)))
        comm = np.exp(rng.normal(0.0, 0.08, size=(len(ns), p)))
        assert_batch_matches_scalar(
            spec, config, ns, compute_noise=compute, comm_noise=comm
        )

    def test_duplicate_sizes_with_distinct_noise(self, spec):
        config = cfg(0, 0, 4, 1)
        p = config.total_processes
        ns = [1200, 1200, 1200]
        rng = np.random.default_rng(7)
        compute = np.exp(rng.normal(0.0, 0.05, size=(len(ns), p)))
        comm = np.ones((len(ns), p))
        batch = simulate_group(
            spec, config, ns, compute_noise=compute, comm_noise=comm
        )
        walls = {result.wall_time_s for result in batch}
        assert len(walls) == 3  # each row got its own noise
        assert_batch_matches_scalar(
            spec, config, ns, compute_noise=compute, comm_noise=comm
        )

    def test_nondefault_parameters(self, spec):
        params = HPLParameters(
            nb=64, ring_pipeline_factor=1.0, pfact_wait_factor=0.5
        )
        assert_batch_matches_scalar(spec, cfg(1, 3, 2, 2), [640, 1000], params)


class TestBatchValidation:
    def test_empty_sizes_give_no_runs(self, spec):
        assert simulate_group(spec, cfg(1, 1, 0, 0), []) == []

    def test_nonpositive_size_rejected(self, spec):
        with pytest.raises(SimulationError, match="matrix order"):
            simulate_group(spec, cfg(1, 1, 0, 0), [100, 0])

    def test_bad_noise_shape_rejected(self, spec):
        config = cfg(1, 1, 4, 1)
        with pytest.raises(SimulationError, match="compute_noise"):
            simulate_group(
                spec, config, [400, 800], compute_noise=np.ones((2, 3))
            )
        with pytest.raises(SimulationError, match="comm_noise"):
            simulate_group(
                spec,
                config,
                [400, 800],
                comm_noise=np.ones((1, config.total_processes)),
            )

    def test_nonpositive_noise_rejected(self, spec):
        config = cfg(1, 1, 0, 0)
        noise = np.zeros((1, 1))
        with pytest.raises(SimulationError, match="positive"):
            simulate_group(spec, config, [400], compute_noise=noise)


class TestPanelTable:
    def test_memoized_and_counted(self):
        clear_panel_tables()
        reset_walker_stats()
        first = panel_table(1000, 80, 6)
        again = panel_table(1000, 80, 6)
        assert first is again
        stats = walker_stats()
        assert stats.table_misses == 1
        assert stats.table_hits == 1

    def test_geometry_matches_reference_loop(self):
        n, nb, p = 1000, 80, 6
        table = panel_table(n, nb, p)
        nblocks = (n + nb - 1) // nb
        assert table.nblocks == nblocks
        last_cols = n - (nblocks - 1) * nb
        for k in range(nblocks):
            assert table.owner[k] == k % p
            assert table.width[k] == min(nb, n - k * nb)
            assert table.m_rows[k] == n - k * nb
            if k + 1 < nblocks:
                counts = np.bincount(
                    np.arange(k + 1, nblocks) % p, minlength=p
                ).astype(float)
                q = counts * nb
                q[(nblocks - 1) % p] -= nb - last_cols
            else:
                q = np.zeros(p)
            assert np.array_equal(table.q[k], q), f"q mismatch at step {k}"

    def test_invalid_arguments_rejected(self):
        with pytest.raises(SimulationError):
            panel_table(0, 80, 4)


class TestWalkerStats:
    def test_counters_accumulate(self, spec):
        reset_walker_stats()
        simulate_schedule(spec, cfg(1, 1, 0, 0), 400)
        simulate_group(spec, cfg(1, 1, 0, 0), [400, 800])
        stats = walker_stats()
        assert stats.scalar_calls == 1
        assert stats.batch_calls == 1
        assert stats.batch_sizes == 2
        assert stats.batch_max == 2
        assert stats.scalar_seconds > 0 and stats.batch_seconds > 0

    def test_snapshot_delta_merge(self):
        stats = WalkerStats(scalar_calls=3, batch_calls=2, batch_sizes=10, batch_max=6)
        snap = stats.snapshot()
        stats.scalar_calls += 2
        stats.batch_sizes += 5
        delta = stats.delta(snap)
        assert delta.scalar_calls == 2
        assert delta.batch_sizes == 5
        assert delta.batch_max == 6  # max carries the current value
        merged = WalkerStats(batch_max=4)
        merged.merge(delta)
        assert merged.scalar_calls == 2
        assert merged.batch_max == 6
        assert set(delta.to_dict()) == set(merged.to_dict())
        assert "panel-table" in stats.describe()


class TestPaperGridPasses:
    """The six paper HPL grids (campaign and evaluation of Basic, NL, NS),
    each measured on a fresh spec so no run comes from a spec's run memo."""

    @staticmethod
    def measure_paper_grids():
        for protocol in ("basic", "nl", "ns"):
            plan = plan_by_name(protocol)
            run_campaign(kishimoto_cluster(), plan, noise=NoiseSpec(), seed=7)
            run_evaluation(kishimoto_cluster(), plan, noise=NoiseSpec(), seed=7)

    def test_one_walker_pass_per_grid_and_process_count(self):
        passes = sum(
            len({config.total_processes for config in configs})
            for plan in map(plan_by_name, ("basic", "nl", "ns"))
            for configs in (plan.construction_configs, plan.evaluation_configs)
        )
        assert passes == 99  # against 300 configuration batches
        reset_walker_stats()
        self.measure_paper_grids()
        stats = walker_stats()
        assert stats.batch_calls == passes
        assert stats.batch_sizes == 1780

    def test_panel_tables_of_the_paper_grids_stay_memoized(self):
        clear_panel_tables()
        self.measure_paper_grids()
        reset_walker_stats()
        self.measure_paper_grids()
        assert walker_stats().table_misses == 0
        assert walker_stats().table_hits > 0

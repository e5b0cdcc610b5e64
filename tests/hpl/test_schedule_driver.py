"""Tests for the HPL performance simulator and run driver — including the
calibration shape checks against the paper's published numbers."""

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.presets import kishimoto_cluster, single_node_cluster
from repro.errors import SimulationError
from repro.hpl.driver import NoiseSpec, run_hpl, run_hpl_grid
from repro.hpl.schedule import HPLParameters, simulate_schedule
from repro.hpl.timing import PHASE_NAMES
from repro.hpl.flops import hpl_benchmark_flops

KINDS = ("athlon", "pentium2")


def cfg(p1, m1, p2, m2):
    return ClusterConfig.from_tuple(KINDS, (p1, m1, p2, m2))


@pytest.fixture(scope="module")
def spec():
    return kishimoto_cluster()


class TestScheduleBasics:
    def test_phase_arrays_cover_all_processes(self, spec):
        result = simulate_schedule(spec, cfg(1, 2, 8, 1), 1600)
        assert result.size == 10
        for name in PHASE_NAMES:
            assert result.phase_arrays[name].shape == (10,)
            assert np.all(result.phase_arrays[name] >= 0)

    def test_wall_at_least_max_busy(self, spec):
        result = simulate_schedule(spec, cfg(1, 1, 8, 1), 3200)
        assert result.wall_time_s >= result.busy_times().max() * 0.999

    def test_single_process_has_no_communication(self, spec):
        result = simulate_schedule(spec, cfg(1, 1, 0, 0), 1600)
        phases = result.phase_arrays
        assert phases["bcast"][0] == 0.0
        assert phases["mxswp"][0] > 0.0  # pivot bookkeeping is local but counted
        assert phases["update"][0] > 0.0

    def test_multi_pe_runs_have_bcast(self, spec):
        result = simulate_schedule(spec, cfg(1, 1, 8, 1), 1600)
        for rank in range(result.size):
            assert result.phase_arrays["bcast"][rank] > 0.0

    def test_invalid_order_rejected(self, spec):
        with pytest.raises(SimulationError):
            simulate_schedule(spec, cfg(1, 1, 0, 0), 0)

    def test_noise_arrays_validated(self, spec):
        with pytest.raises(SimulationError):
            simulate_schedule(spec, cfg(1, 1, 0, 0), 400, compute_noise=np.ones(5))
        with pytest.raises(SimulationError):
            simulate_schedule(
                spec, cfg(1, 1, 0, 0), 400, compute_noise=np.array([-1.0])
            )

    def test_parameter_validation(self):
        with pytest.raises(SimulationError):
            HPLParameters(nb=0)
        with pytest.raises(SimulationError):
            HPLParameters(pfact_efficiency=0.0)
        with pytest.raises(SimulationError):
            HPLParameters(ring_pipeline_factor=1.5)
        with pytest.raises(SimulationError):
            HPLParameters(forward_interference=-0.1)
        with pytest.raises(SimulationError):
            HPLParameters(same_cpu_handoff_s=-1e-3)

    def test_time_monotone_in_n(self, spec):
        config = cfg(1, 1, 8, 1)
        times = [
            simulate_schedule(spec, config, n).wall_time_s
            for n in (800, 1600, 3200, 4800)
        ]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_update_dominates_at_large_n(self, spec):
        """The paper: update >> rfact, uptrsv for large problems."""
        result = simulate_schedule(spec, cfg(1, 1, 8, 1), 9600)
        phases = result.phase_arrays
        for rank in range(result.size):
            assert phases["update"][rank] > 20 * phases["pfact"][rank]
            assert phases["update"][rank] > 20 * phases["uptrsv"][rank]


class TestDriver:
    def test_gflops_definition(self, spec):
        result = run_hpl(spec, cfg(1, 1, 0, 0), 1600)
        expected = hpl_benchmark_flops(1600) / result.wall_time_s / 1e9
        assert result.gflops == pytest.approx(expected)

    def test_noise_reproducible(self, spec):
        noise = NoiseSpec()
        a = run_hpl(spec, cfg(1, 2, 4, 1), 1600, noise=noise, seed=5)
        b = run_hpl(spec, cfg(1, 2, 4, 1), 1600, noise=noise, seed=5)
        assert a.wall_time_s == b.wall_time_s

    def test_noise_varies_with_seed_and_trial(self, spec):
        noise = NoiseSpec()
        base = run_hpl(spec, cfg(1, 1, 4, 1), 1600, noise=noise, seed=5)
        other_seed = run_hpl(spec, cfg(1, 1, 4, 1), 1600, noise=noise, seed=6)
        other_trial = run_hpl(spec, cfg(1, 1, 4, 1), 1600, noise=noise, seed=5, trial=1)
        assert base.wall_time_s != other_seed.wall_time_s
        assert base.wall_time_s != other_trial.wall_time_s

    def test_noise_magnitude_is_small(self, spec):
        clean = run_hpl(spec, cfg(1, 1, 8, 1), 3200)
        noisy = run_hpl(spec, cfg(1, 1, 8, 1), 3200, noise=NoiseSpec(), seed=1)
        assert abs(noisy.wall_time_s / clean.wall_time_s - 1) < 0.10

    def test_kind_phases_and_bottleneck(self, spec):
        result = run_hpl(spec, cfg(1, 1, 8, 1), 3200)
        assert result.kind_names() == ["athlon", "pentium2"]
        # Pentium-IIs are the bottleneck in a balanced distribution
        assert result.bottleneck_kind() == "pentium2"
        assert result.kind_phases("athlon").ta < result.kind_phases("pentium2").ta

    def test_kind_phases_unknown_kind(self, spec):
        result = run_hpl(spec, cfg(1, 1, 0, 0), 400)
        with pytest.raises(SimulationError):
            result.kind_phases("pentium2")


def run_group(spec, config, ns, noise=None, seed=0, trial=0):
    """One configuration group of :func:`run_hpl_grid`."""
    return run_hpl_grid(spec, [(config, ns, trial)], noise=noise, seed=seed)[0]


class TestDriverBatch:
    """A configuration group of run_hpl_grid must be bit-identical to
    per-call run_hpl."""

    def assert_same(self, a, b):
        assert a.n == b.n
        assert a.wall_time_s == b.wall_time_s
        assert a.gflops == b.gflops
        for name in PHASE_NAMES:
            assert np.array_equal(a.phase_arrays[name], b.phase_arrays[name])

    def test_noise_free_matches_scalar(self, spec):
        config = cfg(1, 2, 4, 1)
        ns = [800, 1600, 2400]
        batch = run_group(spec, config, ns)
        assert [r.n for r in batch] == ns
        for result, n in zip(batch, ns):
            self.assert_same(result, run_hpl(spec, config, n))

    def test_noisy_matches_scalar_per_size(self, spec):
        config = cfg(1, 1, 8, 1)
        noise = NoiseSpec()
        ns = [1600, 3200, 1600]  # duplicate sizes draw identical streams
        batch = run_group(spec, config, ns, noise=noise, seed=9)
        for result, n in zip(batch, ns):
            self.assert_same(result, run_hpl(spec, config, n, noise=noise, seed=9))
        assert batch[0].wall_time_s == batch[2].wall_time_s

    def test_per_entry_trial_sequence(self, spec):
        config = cfg(1, 1, 4, 1)
        noise = NoiseSpec()
        ns = [1600, 1600, 1600]
        trials = [0, 1, 2]
        batch = run_group(spec, config, ns, noise=noise, seed=3, trial=trials)
        for result, n, t in zip(batch, ns, trials):
            self.assert_same(
                result, run_hpl(spec, config, n, noise=noise, seed=3, trial=t)
            )
        walls = {r.wall_time_s for r in batch}
        assert len(walls) == 3  # each trial gets its own stream

    def test_runs_share_rank_kinds_and_flop_counts(self, spec):
        """A batch builds its rank kinds once and one flop count per size;
        each run still equals its own ``to_result``."""
        config = cfg(1, 2, 4, 1)
        ns = [800, 1600, 800]
        batch = run_group(spec, config, ns)
        for result, n in zip(batch, ns):
            alone = run_hpl(spec, config, n)
            assert result.rank_kinds == alone.rank_kinds
            assert result.benchmark_flops == alone.benchmark_flops
            assert result.kind_names() == alone.kind_names()
        assert batch[0].rank_kinds is batch[1].rank_kinds

    def test_trial_length_mismatch_rejected(self, spec):
        with pytest.raises(SimulationError, match="trial"):
            run_group(spec, cfg(1, 1, 0, 0), [400, 800], trial=[0])

    def test_empty_sizes_give_no_runs(self, spec):
        assert run_group(spec, cfg(1, 1, 0, 0), []) == []


class TestCalibrationShapes:
    """The paper-anchored behaviours DESIGN.md commits to."""

    def test_athlon_alone_near_paper_times(self, spec):
        # Table 4: (1,1,0,0) at N=3200 ran in 20.4 s; Table 7: 2.82 s at 1600.
        t3200 = run_hpl(spec, cfg(1, 1, 0, 0), 3200).wall_time_s
        t1600 = run_hpl(spec, cfg(1, 1, 0, 0), 1600).wall_time_s
        assert t3200 == pytest.approx(20.4, rel=0.10)
        assert t1600 == pytest.approx(2.82, rel=0.15)

    def test_athlon_only_wins_small_n(self, spec):
        """Figure 3(b) / Table 4: for N <= 3200 the Athlon alone is best."""
        for n in (1600, 3200):
            athlon = run_hpl(spec, cfg(1, 1, 0, 0), n).wall_time_s
            cluster = run_hpl(spec, cfg(1, 1, 8, 1), n).wall_time_s
            assert athlon < cluster

    def test_full_cluster_wins_large_n(self, spec):
        for n in (6400, 9600):
            athlon = run_hpl(spec, cfg(1, 1, 0, 0), n).wall_time_s
            cluster = run_hpl(spec, cfg(1, 2, 8, 1), n).wall_time_s
            assert cluster < athlon * 0.85

    def test_optimal_m1_grows_with_n(self, spec):
        """The paper's Tables 4/7: the best Athlon process count rises
        from 1-2 at N=4800 to 3-4 at N=9600."""

        def best_m1(n):
            times = {
                m: run_hpl(spec, cfg(1, m, 8, 1), n).wall_time_s
                for m in range(1, 7)
            }
            return min(times, key=times.get)

        assert best_m1(4800) <= 2
        assert 3 <= best_m1(9600) <= 4

    def test_m5_m6_never_optimal(self, spec):
        """Over-subscribing beyond the speed ratio always loses (Fig 3(b))."""
        for n in (4800, 9600):
            t4 = run_hpl(spec, cfg(1, 4, 8, 1), n).wall_time_s
            t6 = run_hpl(spec, cfg(1, 6, 8, 1), n).wall_time_s
            assert t6 > t4

    def test_athlon_about_4_5x_pentium2(self, spec):
        athlon = run_hpl(spec, cfg(1, 1, 0, 0), 4800).wall_time_s
        p2 = run_hpl(spec, cfg(0, 0, 1, 1), 4800).wall_time_s
        assert 3.5 <= p2 / athlon <= 5.5

    def test_memory_cliff_at_n10000(self, spec):
        """Figure 3(a): the lone Athlon collapses at N=10000; five
        Pentium-IIs do not."""
        ath_9600 = run_hpl(spec, cfg(1, 1, 0, 0), 9600).gflops
        ath_10000 = run_hpl(spec, cfg(1, 1, 0, 0), 10000).gflops
        p2_10000 = run_hpl(spec, cfg(0, 0, 5, 1), 10000).gflops
        assert ath_10000 < 0.75 * ath_9600
        assert p2_10000 > ath_10000

    def test_mpich_version_effect(self):
        """Figure 1: multiprocessing collapses under 1.2.1, mostly works
        under 1.2.2."""
        old = single_node_cluster(mpich="1.2.1")
        new = single_node_cluster(mpich="1.2.2")
        config = ClusterConfig.of(athlon=(1, 4))
        n = 5000
        g_old = run_hpl(old, config, n).gflops
        g_new = run_hpl(new, config, n).gflops
        g_single = run_hpl(new, ClusterConfig.of(athlon=(1, 1)), n).gflops
        assert g_old < 0.80 * g_new  # drastic vs mild degradation
        assert g_new > 0.70 * g_single  # 1.2.2 keeps multiprocessing viable

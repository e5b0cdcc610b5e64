"""Tests for the heterogeneous-distribution (HBC) baseline."""

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.presets import kishimoto_cluster
from repro.errors import SimulationError
from repro.exts.baselines import run_hbc, simulate_hbc, weighted_owner_sequence
from repro.hpl.driver import NoiseSpec, run_hpl
from repro.hpl.schedule import simulate_schedule

KINDS = ("athlon", "pentium2")


def cfg(p1, m1, p2, m2):
    return ClusterConfig.from_tuple(KINDS, (p1, m1, p2, m2))


@pytest.fixture(scope="module")
def spec():
    return kishimoto_cluster()


class TestWeightedOwnerSequence:
    def test_equal_weights_are_round_robin(self):
        owners = weighted_owner_sequence(9, [1.0, 1.0, 1.0])
        assert owners.tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2]

    def test_counts_proportional_to_weights(self):
        owners = weighted_owner_sequence(100, [3.0, 1.0])
        counts = np.bincount(owners, minlength=2)
        assert counts[0] == 75 and counts[1] == 25

    def test_extreme_ratio(self):
        owners = weighted_owner_sequence(10, [9.0, 1.0])
        counts = np.bincount(owners, minlength=2)
        assert counts.tolist() == [9, 1]

    def test_weight_order_does_not_starve_anyone(self):
        owners = weighted_owner_sequence(30, [5.0, 1.0, 1.0])
        counts = np.bincount(owners, minlength=3)
        assert np.all(counts > 0)

    def test_validation(self):
        with pytest.raises(SimulationError):
            weighted_owner_sequence(-1, [1.0])
        with pytest.raises(SimulationError):
            weighted_owner_sequence(4, [])
        with pytest.raises(SimulationError):
            weighted_owner_sequence(4, [1.0, -1.0])

    def test_zero_blocks(self):
        assert weighted_owner_sequence(0, [1.0, 2.0]).size == 0


class TestSimulateHBC:
    def test_equal_weights_match_plain_schedule(self, spec):
        """With uniform weights HBC degenerates to the standard walker."""
        config = cfg(0, 0, 8, 1)  # homogeneous: speed weights are ~equal
        n = 2400
        plain = simulate_schedule(spec, config, n)
        hbc = simulate_hbc(spec, config, n, weights=[1.0] * 8)
        assert hbc.wall_time_s == pytest.approx(plain.wall_time_s, rel=1e-9)

    def test_weighting_fixes_heterogeneous_imbalance(self, spec):
        """One process per PE on the mixed cluster: HBC beats the
        equal-distribution run by shifting work to the Athlon — the claim
        of the rewriting approaches the paper cites."""
        config = cfg(1, 1, 8, 1)
        n = 6400
        equal = simulate_schedule(spec, config, n).wall_time_s
        weighted = simulate_hbc(spec, config, n).wall_time_s
        assert weighted < 0.95 * equal

    def test_hbc_shifts_update_work_to_fast_pe(self, spec):
        config = cfg(1, 1, 8, 1)
        n = 4800
        equal = simulate_schedule(spec, config, n)
        hbc = simulate_hbc(spec, config, n)
        # rank 0 is the Athlon: it computes more under HBC
        assert hbc.phase_arrays["update"][0] > equal.phase_arrays["update"][0]
        # and the Pentium-IIs compute less
        assert hbc.phase_arrays["update"][1:].mean() < equal.phase_arrays[
            "update"
        ][1:].mean()

    def test_invalid_order(self, spec):
        with pytest.raises(SimulationError):
            simulate_hbc(spec, cfg(1, 1, 0, 0), 0)


class TestRunHBC:
    def test_driver_shape(self, spec):
        result = run_hbc(spec, cfg(1, 1, 8, 1), 1600)
        assert result.gflops > 0
        assert result.kind_phases("athlon").ta > 0

    def test_noise_reproducible(self, spec):
        a = run_hbc(spec, cfg(1, 1, 4, 1), 1600, noise=NoiseSpec(), seed=8)
        b = run_hbc(spec, cfg(1, 1, 4, 1), 1600, noise=NoiseSpec(), seed=8)
        assert a.wall_time_s == b.wall_time_s


class TestPaperComparison:
    """The paper's critique, measured: HBC must use every PE; the paper's
    subset+multiprocessing method may exclude slow ones."""

    def test_hbc_loses_at_small_n(self, spec):
        n = 1600
        hbc = run_hbc(spec, cfg(1, 1, 8, 1), n).wall_time_s
        athlon_alone = run_hpl(spec, cfg(1, 1, 0, 0), n).wall_time_s
        assert athlon_alone < hbc

    def test_hbc_competitive_at_large_n(self, spec):
        n = 9600
        hbc = run_hbc(spec, cfg(1, 1, 8, 1), n).wall_time_s
        best_multiproc = min(
            run_hpl(spec, cfg(1, m, 8, 1), n).wall_time_s for m in range(1, 5)
        )
        # both approaches fix the imbalance; within ~25% of each other
        assert hbc == pytest.approx(best_multiproc, rel=0.25)

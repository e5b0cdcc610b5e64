"""Simulator determinism: scalar == batch bitwise, vectorized == reference."""

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.errors import SimulationError
from repro.hpl.driver import NoiseSpec
from repro.measure.grids import PAPER_KINDS
from repro.workloads import run_montecarlo, run_montecarlo_batch, run_sorting, run_sorting_batch
from repro.workloads.montecarlo import simulate_montecarlo_reference
from repro.workloads.sorting import simulate_sorting_reference

CONFIGS = [(1, 2, 4, 1), (1, 3, 0, 0), (0, 0, 8, 1), (1, 1, 1, 1), (1, 5, 8, 1)]

FAMILIES = {
    "sorting": (run_sorting, run_sorting_batch, simulate_sorting_reference, 4000),
    "montecarlo": (
        run_montecarlo, run_montecarlo_batch, simulate_montecarlo_reference, 4096,
    ),
}


def config_of(values):
    return ClusterConfig.from_tuple(PAPER_KINDS, values)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("values", CONFIGS)
class TestBitwiseDeterminism:
    def test_scalar_equals_batch_with_noise(self, spec, family, values):
        """Batching must not change a single bit of any run, even under
        per-run noise: every (config, N, trial) seeds its own stream."""
        run, run_batch, _, n = FAMILIES[family]
        config = config_of(values)
        noise = NoiseSpec()
        sizes = [n, n // 2, n]
        trials = [0, 3, 1]
        batched = run_batch(spec, config, sizes, noise=noise, seed=7, trial=trials)
        for size, trial, from_batch in zip(sizes, trials, batched):
            scalar = run(spec, config, size, noise=noise, seed=7, trial=trial)
            assert scalar.wall_time_s == from_batch.wall_time_s  # bitwise
            for name, values_arr in scalar.phase_arrays.items():
                assert np.array_equal(values_arr, from_batch.phase_arrays[name])

    def test_repeated_runs_are_identical(self, spec, family, values):
        run, _, _, n = FAMILIES[family]
        config = config_of(values)
        noise = NoiseSpec()
        a = run(spec, config, n, noise=noise, seed=7, trial=2)
        b = run(spec, config, n, noise=noise, seed=7, trial=2)
        assert a.wall_time_s == b.wall_time_s

    def test_vectorized_matches_reference(self, spec, family, values):
        run, _, reference, n = FAMILIES[family]
        config = config_of(values)
        vectorized = run(spec, config, n)
        scalar = reference(spec, config, n)
        assert vectorized.wall_time_s == pytest.approx(
            scalar.wall_time_s, rel=1e-9
        )
        for name, values_arr in vectorized.phase_arrays.items():
            np.testing.assert_allclose(
                values_arr, scalar.phase_arrays[name], rtol=1e-9
            )


class TestResultInterface:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_result_satisfies_measurement_duck_interface(self, spec, family):
        run, _, _, n = FAMILIES[family]
        result = run(spec, config_of((1, 2, 4, 1)), n)
        assert result.total_processes == 6
        assert result.wall_time_s > 0
        assert result.gflops > 0
        assert set(result.kind_names()) == {"athlon", "pentium2"}
        assert result.bottleneck_kind() in result.kind_names()
        for kind in result.kind_names():
            phases = result.kind_phases(kind)
            assert phases.total > 0
            assert phases.total == pytest.approx(phases.ta + phases.tc)

    def test_noise_perturbs_times(self, spec):
        config = config_of((1, 2, 4, 1))
        quiet = run_sorting(spec, config, 4000)
        noisy = run_sorting(spec, config, 4000, noise=NoiseSpec(), seed=3)
        assert noisy.wall_time_s != quiet.wall_time_s

    def test_bad_order_rejected(self, spec):
        with pytest.raises(SimulationError, match=">= 1"):
            run_sorting(spec, config_of((1, 1, 0, 0)), 0)
        with pytest.raises(SimulationError, match=">= 1"):
            run_montecarlo_batch(spec, config_of((1, 1, 0, 0)), [1024, 0])

    def test_trial_length_mismatch_rejected(self, spec):
        with pytest.raises(SimulationError, match="trial indices"):
            run_sorting_batch(
                spec, config_of((1, 1, 0, 0)), [1000, 2000], trial=[0]
            )

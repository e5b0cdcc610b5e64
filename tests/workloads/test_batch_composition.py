"""Differential oracles over every workload family's batch runner.

*Batch composition.*  A run is determined by its ``(config, N, trial)``
alone, so it must get the same bits — wall time, every per-rank phase
array and its measurement record — whether it is simulated by the
family's scalar runner, as a one-size batch, in the full batch, in any
subset of the batch's sizes or in any order.  Noise is on, outliers
included, and the configurations reach 16 processes: a sum over more than
eight ranks is where a layout-dependent (pairwise) reduction shows.

*Per-kind mean.*  ``kind_phases(kind)`` is the left fold of that kind's
per-rank values times ``1/k``, bit for bit, and any non-finite or
negative rank value is rejected with an error naming the phase — even
when the kind's mean would still be positive.
"""

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.errors import SimulationError
from repro.hpl.driver import NoiseSpec, run_hpl, run_hpl_batch
from repro.measure.grids import PAPER_KINDS
from repro.measure.record import MeasurementRecord
from repro.runs import noise_rows
from repro.workloads import (
    run_montecarlo,
    run_montecarlo_batch,
    run_sorting,
    run_sorting_batch,
    run_summa,
    run_summa_batch,
)

SEED = 7
NOISE = NoiseSpec(outlier_probability=0.5, outlier_factor=3.0)

#: family -> (scalar runner, batch runner, noise stream label, sizes)
FAMILIES = {
    "hpl": (run_hpl, run_hpl_batch, "hpl-run", (400, 999, 1600, 2400)),
    "summa": (run_summa, run_summa_batch, "summa-run", (400, 999, 1600, 2400)),
    "sorting": (run_sorting, run_sorting_batch, "sorting-run", (2000, 4000, 6000, 12000)),
    "montecarlo": (
        run_montecarlo, run_montecarlo_batch, "montecarlo-run", (1024, 2048, 4096, 10240),
    ),
}

CONFIGS = [(1, 5, 8, 1), (0, 0, 8, 2), (1, 2, 4, 1), (1, 3, 0, 0)]


def config_of(values):
    return ClusterConfig.from_tuple(PAPER_KINDS, values)


def entries_of(sizes):
    """Every size at trial 0, plus a repeated size at four more trials."""
    ns = list(sizes) + [sizes[1]] * 4
    trials = [0] * len(sizes) + [1, 2, 3, 4]
    return ns, trials


def bits(result, trial):
    """Everything a run contributes, in a form ``==`` compares bitwise."""
    record = MeasurementRecord.from_result(result, PAPER_KINDS, seed=SEED, trial=trial)
    return (
        result.n,
        result.wall_time_s,
        {name: values.tobytes() for name, values in result.phase_arrays.items()},
        record.to_dict(),
    )


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("values", CONFIGS)
class TestBatchComposition:
    def test_run_bits_do_not_depend_on_the_batch(self, spec, family, values):
        run, run_batch, label, sizes = FAMILIES[family]
        config = config_of(values)
        ns, trials = entries_of(sizes)
        compute, _ = noise_rows(label, config, ns, trials, NOISE, SEED)
        assert compute.max() > 2.0, "no entry exercises the outlier branch"

        def batch(order):
            results = run_batch(
                spec, config, [ns[i] for i in order], noise=NOISE, seed=SEED,
                trial=[trials[i] for i in order],
            )
            return {i: bits(r, trials[i]) for i, r in zip(order, results)}

        expected = {
            i: bits(run(spec, config, ns[i], noise=NOISE, seed=SEED, trial=trials[i]), trials[i])
            for i in range(len(ns))
        }
        everything = list(range(len(ns)))
        assert batch(everything) == expected
        assert batch(everything[::-1]) == expected
        for i in everything:
            assert batch([i]) == {i: expected[i]}
        rng = np.random.default_rng(len(values) + sum(values))
        for size in (2, 3, len(ns) - 1):
            order = [int(i) for i in rng.permutation(len(ns))[:size]]
            assert batch(order) == {i: expected[i] for i in order}


def left_fold_mean(values):
    acc = values[0]
    for value in values[1:]:
        acc = acc + value
    return acc * (1.0 / len(values))


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestKindMeanContract:
    @pytest.fixture
    def result(self, spec, family):
        run, _, _, sizes = FAMILIES[family]
        return run(spec, config_of((1, 5, 8, 1)), sizes[-1], noise=NOISE, seed=SEED)

    def test_mean_is_left_fold_times_reciprocal(self, result):
        kinds = np.array(result.rank_kinds)
        for kind in result.kind_names():
            phases = result.kind_phases(kind)
            for name, values in result.phase_arrays.items():
                per_rank = [float(v) for v in values[kinds == kind]]
                assert getattr(phases, name) == left_fold_mean(per_rank), (kind, name)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rank_rejected(self, result, bad):
        name = result.phase_class.PHASE_NAMES[-1]
        rank = len(result.rank_kinds) - 1
        result.phase_arrays[name] = result.phase_arrays[name].copy()
        result.phase_arrays[name][rank] = bad
        with pytest.raises(SimulationError, match=f"phase {name} has invalid time"):
            result.kind_phases(result.rank_kinds[rank])

    def test_negative_rank_rejected_even_when_kind_mean_is_positive(self, result):
        kind = result.rank_kinds[0]
        ranks = [r for r, k in enumerate(result.rank_kinds) if k == kind]
        name = max(
            result.phase_class.PHASE_NAMES,
            key=lambda phase: result.phase_arrays[phase][ranks].sum(),
        )
        values = result.phase_arrays[name].copy()
        values[ranks[0]] = -0.5 * values[ranks[1:]].sum()
        assert values[ranks].sum() > 0
        result.phase_arrays[name] = values
        with pytest.raises(SimulationError, match=f"phase {name} has invalid time"):
            result.kind_phases(kind)

    def test_unknown_kind_rejected(self, spec, family):
        run, _, _, sizes = FAMILIES[family]
        result = run(spec, config_of((1, 2, 0, 0)), sizes[0])
        with pytest.raises(SimulationError, match="has no processes"):
            result.kind_phases("pentium2")

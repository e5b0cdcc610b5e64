"""Differential oracles over every workload family's batch runner.

*Batch composition.*  A run is determined by its ``(config, N, trial)``
alone, so it must get the same bits — wall time, every per-rank phase
array and its measurement record — whether it is simulated alone (HPL's
scalar reference :func:`run_hpl`, or a one-run grid), as a one-size
configuration group, in the full group, in any subset of the group's
sizes or in any order.  Noise is on, outliers included, and the
configurations reach 16 processes: a sum over more than eight ranks is
where a layout-dependent (pairwise) reduction shows.

*Grid composition.*  The same holds for the family's grid runner: a run
gets its bits in the whole grid, in any chunk of the grid's
configurations, in any configuration order and alone, with trials, and
with two configurations sharing a process count (one HPL walker pass).

*Bulk seeding.*  The PCG64 states seeded for a whole grid at once equal
NumPy's ``PCG64(SeedSequence([seed & 0xFFFFFFFF, key]))`` for every key,
including keys that give SeedSequence fewer entropy words.

*Per-kind mean.*  ``kind_phases(kind)`` is the left fold of that kind's
per-rank values times ``1/k``, bit for bit, and any non-finite or
negative rank value is rejected with an error naming the phase — even
when the kind's mean would still be positive.
"""

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.errors import SimulationError
from repro.hpl.driver import NoiseSpec, run_hpl
from repro.measure.grids import PAPER_KINDS
from repro.measure.record import MeasurementRecord
from repro.rng import pcg64_states
from repro.runs import noise_grid
from repro.workloads import create_workload

SEED = 7
NOISE = NoiseSpec(outlier_probability=0.5, outlier_factor=3.0)


def one_run(family):
    """A family's run alone: a one-group, one-size call of its grid runner."""
    grid_runner = create_workload(family).batch_runner()

    def run(spec, config, n, noise=None, seed=0, trial=0):
        return grid_runner(spec, [(config, [n], trial)], noise=noise, seed=seed)[0][0]

    return run


def one_group(family):
    """A family's one-configuration call: a one-group grid."""
    grid_runner = create_workload(family).batch_runner()

    def run_group(spec, config, ns, noise=None, seed=0, trial=0):
        return grid_runner(spec, [(config, ns, trial)], noise=noise, seed=seed)[0]

    return run_group


#: family -> (run alone, one configuration group, noise stream label, sizes)
FAMILIES = {
    "hpl": (run_hpl, one_group("hpl"), "hpl-run", (400, 999, 1600, 2400)),
    "summa": (one_run("summa"), one_group("summa"), "summa-run", (400, 999, 1600, 2400)),
    "sorting": (
        one_run("sorting"), one_group("sorting"), "sorting-run", (2000, 4000, 6000, 12000),
    ),
    "montecarlo": (
        one_run("montecarlo"), one_group("montecarlo"), "montecarlo-run",
        (1024, 2048, 4096, 10240),
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
        [(compute, _)] = noise_grid(label, [(config, ns, trials)], NOISE, SEED)
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


#: The grid: every batch configuration, plus one sharing P = 6 with (1, 2, 4, 1).
GRID = CONFIGS + [(0, 0, 3, 2)]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_run_bits_do_not_depend_on_the_grid(spec, family):
    run, _, _, sizes = FAMILIES[family]
    grid_runner = create_workload(family).batch_runner()
    ns, trials = entries_of(sizes)
    configs = [config_of(values) for values in GRID]
    assert len({c.total_processes for c in configs}) < len(configs)
    assert max(c.total_processes for c in configs) >= 9

    def grid(order):
        """``order``: (configuration index, entry indices) per group, in call order."""
        results = grid_runner(
            spec,
            [(configs[g], [ns[i] for i in entries], [trials[i] for i in entries])
             for g, entries in order],
            noise=NOISE, seed=SEED,
        )
        assert len(results) == len(order)
        return {
            (g, i): bits(result, trials[i])
            for (g, entries), group_results in zip(order, results)
            for i, result in zip(entries, group_results)
        }

    everything = list(range(len(ns)))
    expected = {
        (g, i): bits(run(spec, config, ns[i], noise=NOISE, seed=SEED, trial=trials[i]),
                     trials[i])
        for g, config in enumerate(configs) for i in everything
    }
    whole = [(g, everything) for g in range(len(configs))]
    assert grid(whole) == expected
    assert grid(whole[::-1]) == expected
    for g in range(len(configs)):
        assert grid([(g, everything)]) == {k: v for k, v in expected.items() if k[0] == g}
        assert grid([(g, [len(ns) - 1])]) == {(g, len(ns) - 1): expected[g, len(ns) - 1]}
    rng = np.random.default_rng(len(family))
    for parts in (2, 3):
        shuffled = [(int(g), [int(i) for i in rng.permutation(len(ns))])
                    for g in rng.permutation(len(configs))]
        got = {}
        for chunk in np.array_split(np.arange(len(shuffled)), parts):
            got.update(grid([shuffled[c] for c in chunk]))
        assert got == expected


class TestBulkSeeding:
    def test_states_equal_numpys_seed_sequence(self):
        rng = np.random.default_rng(2004)
        seeds = [0, 7, 2**32 - 1, 2**32 + 9, -3] + rng.integers(0, 2**62, 4).tolist()
        keys = (
            [0, 1, 2**31, 2**32 - 1, 2**32, 2**64 - 1]
            + rng.integers(0, 2**32, 8).tolist()
            + rng.integers(0, 2**64, 32, dtype=np.uint64).tolist()
        )
        for seed in seeds:
            states, incs = pcg64_states(seed, keys)
            for key, state, inc in zip(keys, states, incs):
                want = np.random.PCG64(
                    np.random.SeedSequence([seed & 0xFFFFFFFF, key])
                ).state["state"]
                assert (state, inc) == (want["state"], want["inc"]), (seed, key)


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

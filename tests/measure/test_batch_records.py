"""Records built from a configuration batch's phase block.

``MeasurementRecord.from_results`` turns one configuration's runs into
records in one pass over their ``(S, F, P)`` phase block.  For every
family, with noise on and off and with repeated trials, it must give
the records ``from_result`` gives run by run — and both must equal an
independent per-kind left fold written out here — compared by value and
by the bits of every float.  An invalid phase value anywhere in the
block fails for the first offending run in batch order, with the error
``kind_phases`` raises for that run.
"""

import math

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.errors import SimulationError
from repro.hpl.driver import NoiseSpec
from repro.measure.grids import PAPER_KINDS
from repro.measure.record import MeasurementRecord
from repro.workloads import create_workload, registered_workloads

SEED = 7
NOISE = NoiseSpec(outlier_probability=0.5, outlier_factor=3.0)
CONFIGS = [(1, 5, 8, 1), (0, 0, 8, 2), (1, 3, 0, 0)]


def config_of(values):
    return ClusterConfig.from_tuple(PAPER_KINDS, values)


def sizes_of(family):
    return list(create_workload(family).plan("ns").evaluation_sizes[:3])


def run_batch(spec, family, values, ns, noise, trials=0):
    runner = create_workload(family).batch_runner()
    return runner(spec, [(config_of(values), ns, trials)], noise=noise, seed=SEED)[0]


def float_bits(value):
    """``value`` with every float replaced by its exact hex spelling."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: float_bits(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [float_bits(v) for v in value]
    return value


def reference_per_kind(result):
    """Per-kind means by a plain Python left fold over the kind's ranks,
    times ``1/k`` — kinds in cluster order, unmeasured kinds skipped."""
    out = []
    for name in PAPER_KINDS:
        ranks = [r for r, kind in enumerate(result.rank_kinds) if kind == name]
        if not ranks:
            continue
        phases = {}
        for phase in result.phase_class.PHASE_NAMES:
            acc = float(result.phase_arrays[phase][ranks[0]])
            for rank in ranks[1:]:
                acc = acc + float(result.phase_arrays[phase][rank])
            phases[phase] = acc * (1.0 / len(ranks))
        out.append((name, phases))
    return out


def assert_same_records(got, expected):
    assert [r.to_dict() for r in got] == [r.to_dict() for r in expected]
    assert float_bits([r.to_dict() for r in got]) == float_bits(
        [r.to_dict() for r in expected]
    )


@pytest.mark.parametrize("family", registered_workloads())
@pytest.mark.parametrize("values", CONFIGS)
class TestBatchEqualsRunByRun:
    @pytest.mark.parametrize("noise", [NOISE, None], ids=["noise", "no-noise"])
    def test_batch_equals_from_result_and_reference(self, spec, family, values, noise):
        results = run_batch(spec, family, values, sizes_of(family), noise)
        batch = MeasurementRecord.from_results(results, PAPER_KINDS, seed=SEED)
        one_by_one = [
            MeasurementRecord.from_result(r, PAPER_KINDS, seed=SEED) for r in results
        ]
        assert_same_records(batch, one_by_one)
        for record, result in zip(batch, results):
            got = [(km.kind_name, km.phases.as_dict()) for km in record.per_kind]
            assert float_bits(got) == float_bits(reference_per_kind(result))
            assert record.wall_time_s == result.wall_time_s
            assert record.gflops == result.gflops

    def test_trials_batch_equals_run_by_run(self, spec, family, values):
        sizes = sizes_of(family)
        ns = [n for n in sizes for _ in range(3)]
        trials = [t for _ in sizes for t in range(3)]
        results = run_batch(spec, family, values, ns, NOISE, trials)
        batch = MeasurementRecord.from_results(results, PAPER_KINDS, seed=SEED,
                                               trials=trials)
        one_by_one = [
            MeasurementRecord.from_result(r, PAPER_KINDS, seed=SEED, trial=t)
            for r, t in zip(results, trials)
        ]
        assert_same_records(batch, one_by_one)
        assert [r.trial for r in batch] == trials

    def test_one_result_batch_is_from_result(self, spec, family, values):
        (result,) = run_batch(spec, family, values, sizes_of(family)[-1:], NOISE, 4)
        (record,) = MeasurementRecord.from_results([result], PAPER_KINDS, seed=SEED,
                                                   trials=4)
        assert_same_records(
            [record],
            [MeasurementRecord.from_result(result, PAPER_KINDS, seed=SEED, trial=4)],
        )


def corrupt(result, phase, rank, value):
    values = result.phase_arrays[phase].copy()
    values[rank] = value
    result.phase_arrays[phase] = values


def kind_phases_error(result):
    with pytest.raises(SimulationError) as info:
        result.kind_phases(result.rank_kinds[0])
    return str(info.value)


@pytest.mark.parametrize("family", registered_workloads())
class TestInvalidValues:
    @pytest.fixture
    def results(self, spec, family):
        return run_batch(spec, family, (1, 5, 8, 1), sizes_of(family), NOISE)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.25])
    def test_first_offending_entry_in_batch_order(self, results, bad):
        names = results[0].phase_class.PHASE_NAMES
        last = len(results[0].rank_kinds) - 1
        corrupt(results[2], names[0], 0, bad)
        corrupt(results[1], names[-1], last, bad)
        expected = kind_phases_error(results[1])
        assert expected == f"phase {names[-1]} has invalid time {bad!r} on rank {last}"
        with pytest.raises(SimulationError) as info:
            MeasurementRecord.from_results(results, PAPER_KINDS, seed=SEED)
        assert str(info.value) == expected

    def test_lowest_rank_then_phase_order_within_an_entry(self, results):
        names = results[0].phase_class.PHASE_NAMES
        corrupt(results[0], names[0], 7, -1.0)
        corrupt(results[0], names[-1], 3, math.inf)
        corrupt(results[0], names[1], 3, math.nan)
        expected = kind_phases_error(results[0])
        assert expected == f"phase {names[1]} has invalid time nan on rank 3"
        with pytest.raises(SimulationError) as info:
            MeasurementRecord.from_results(results, PAPER_KINDS, seed=SEED)
        assert str(info.value) == expected

    def test_only_the_batch_runs_are_checked(self, results):
        names = results[0].phase_class.PHASE_NAMES
        corrupt(results[-1], names[1], 2, np.float64(-3.0))
        records = MeasurementRecord.from_results(results[:-1], PAPER_KINDS, seed=SEED)
        assert len(records) == len(results) - 1
        with pytest.raises(SimulationError, match=f"phase {names[1]} has invalid time"):
            MeasurementRecord.from_results(results, PAPER_KINDS, seed=SEED)


def test_runs_of_different_configurations_are_refused(spec):
    a = run_batch(spec, "sorting", (1, 2, 0, 0), [2000], None)
    b = run_batch(spec, "sorting", (0, 0, 2, 1), [2000], None)
    with pytest.raises(SimulationError, match="one configuration"):
        MeasurementRecord.from_results(a + b, PAPER_KINDS)

"""Property-based tests for system-level invariants: numeric LU, the
schedule simulator, configurations, the event engine and the models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import ClusterConfig
from repro.cluster.presets import kishimoto_cluster
from repro.core.adjustment import LinearAdjustment
from repro.core.nt_model import NTModel
from repro.hpl.driver import run_hpl
from repro.hpl.lu import blocked_lu, lu_solve, permutation_vector, reconstruct
from repro.hpl.timing import PhaseTimes
from repro.simnet.collectives import ring_delivery_times
from repro.simnet.event_sim import Put, Receive, Simulator

KINDS = ("athlon", "pentium2")
SPEC = kishimoto_cluster()


class TestLUProperties:
    @given(
        n=st.integers(min_value=1, max_value=40),
        nb=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_pa_equals_lu_for_random_matrices(self, n, nb, seed):
        a = np.random.default_rng(seed).standard_normal((n, n))
        lu, piv = blocked_lu(a.copy(), nb=nb)
        perm = permutation_vector(piv)
        assert np.allclose(reconstruct(lu, piv), a[perm], atol=1e-8 * max(n, 4))

    @given(
        n=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_solve_satisfies_system(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + np.eye(n) * 0.5
        b = rng.standard_normal(n)
        lu, piv = blocked_lu(a.copy(), nb=8)
        x = lu_solve(lu, piv, b)
        assert np.allclose(a @ x, b, atol=1e-7 * max(n, 4))

    @given(n=st.integers(min_value=1, max_value=25))
    @settings(max_examples=15, deadline=None)
    def test_pivots_produce_valid_permutation(self, n):
        a = np.random.default_rng(n).standard_normal((n, n))
        _, piv = blocked_lu(a.copy(), nb=5)
        perm = permutation_vector(piv)
        assert sorted(perm.tolist()) == list(range(n))


config_strategy = st.tuples(
    st.integers(min_value=0, max_value=1),  # P1
    st.integers(min_value=1, max_value=6),  # M1
    st.integers(min_value=0, max_value=8),  # P2
    st.integers(min_value=1, max_value=3),  # M2
).filter(lambda t: t[0] + t[2] > 0)


class TestScheduleProperties:
    @given(config=config_strategy, n=st.sampled_from([400, 800, 1600]))
    @settings(max_examples=25, deadline=None)
    def test_phase_times_nonnegative_and_wall_covers_busy(self, config, n):
        p1, m1, p2, m2 = config
        cc = ClusterConfig.from_tuple(
            KINDS, (p1, m1 if p1 else 0, p2, m2 if p2 else 0)
        )
        result = run_hpl(SPEC, cc, n)
        busy = sum(result.phase_arrays[name] for name in PhaseTimes.PHASE_NAMES)
        assert np.all(busy > 0)
        assert result.wall_time_s >= busy.max() * (1 - 1e-9)
        for rank in range(result.total_processes):
            phases = PhaseTimes.from_arrays(result.phase_arrays, rank)
            assert phases.total == pytest.approx(phases.ta + phases.tc)

    @given(config=config_strategy)
    @settings(max_examples=15, deadline=None)
    def test_gflops_bounded_by_cluster_peak(self, config):
        p1, m1, p2, m2 = config
        cc = ClusterConfig.from_tuple(
            KINDS, (p1, m1 if p1 else 0, p2, m2 if p2 else 0)
        )
        result = run_hpl(SPEC, cc, 1600)
        peak = p1 * 1.10 + p2 * 0.24
        assert 0 < result.gflops < peak * 1.01


class TestRingProperties:
    @given(
        hops=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=20,
        ),
        pipeline=st.floats(min_value=0.0, max_value=1.0),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_delivery_monotone_in_distance_and_bounded(self, hops, pipeline, data):
        root = data.draw(st.integers(min_value=0, max_value=len(hops) - 1))
        delivery = ring_delivery_times(hops, root=root, pipeline_factor=pipeline)
        p = len(hops)
        by_distance = [delivery[(root + d) % p] for d in range(p)]
        assert by_distance[0] == 0.0
        assert all(b >= a - 1e-12 for a, b in zip(by_distance, by_distance[1:]))
        full_chain = ring_delivery_times(hops, root=root, pipeline_factor=1.0)
        assert np.all(delivery <= full_chain + 1e-12)


class TestAdjustmentProperties:
    pairs = st.lists(
        st.tuples(
            st.integers(min_value=3, max_value=6),
            st.floats(min_value=0.1, max_value=1e4),
            st.floats(min_value=0.1, max_value=1e4),
        ),
        min_size=0,
        max_size=8,
    )

    @given(pairs=pairs)
    @settings(max_examples=60)
    def test_fit_apply_invariants(self, pairs):
        adj = LinearAdjustment.fit(pairs)
        # scales are positive; below-threshold untouched; output positive
        for mi, _, _ in pairs:
            assert adj.scale_for(mi) > 0
        assert adj.apply(10.0, max_mi=1) == 10.0
        assert adj.apply(10.0, max_mi=6) > 0

    @given(
        estimate=st.floats(min_value=0.1, max_value=1e3),
        measurement=st.floats(min_value=0.1, max_value=1e3),
    )
    def test_single_point_calibration_is_exact_at_that_point(
        self, estimate, measurement
    ):
        adj = LinearAdjustment.fit([(3, estimate, measurement)])
        assert adj.apply(estimate, max_mi=3) == pytest.approx(measurement)


class TestPhaseTimesProperties:
    times = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)

    @given(a=times, b=times, c=times, d=times, e=times, f=times)
    def test_ta_tc_partition_total(self, a, b, c, d, e, f):
        t = PhaseTimes(pfact=a, mxswp=b, bcast=c, update=d, laswp=e, uptrsv=f)
        assert t.ta + t.tc == pytest.approx(t.total)
        assert t.rfact == pytest.approx(a + b)

    @given(a=times, b=times, scale=st.floats(min_value=0.0, max_value=100.0))
    def test_scaling_commutes_with_grouping(self, a, b, scale):
        t = PhaseTimes(pfact=a, bcast=b)
        assert t.scaled(scale).ta == pytest.approx(t.ta * scale)
        assert t.scaled(scale).tc == pytest.approx(t.tc * scale)


class TestNTModelProperties:
    @given(
        ka=st.tuples(
            st.floats(min_value=1e-12, max_value=1e-8),
            st.floats(min_value=0, max_value=1e-5),
            st.floats(min_value=0, max_value=1e-2),
            st.floats(min_value=0, max_value=1.0),
        )
    )
    @settings(max_examples=40)
    def test_fit_reproduces_generating_polynomial(self, ka):
        sizes = np.array([400.0, 800.0, 1600.0, 3200.0, 6400.0])
        ta = np.polyval(np.asarray(ka), sizes)
        tc = 1e-8 * sizes**2
        model = NTModel.fit("k", 1, 1, sizes, ta, tc)
        predicted = np.asarray(model.predict_ta(sizes))
        assert np.allclose(predicted, ta, rtol=1e-5, atol=1e-9)


class TestEventEngineProperties:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=40)
    def test_clock_is_monotone(self, delays):
        sim = Simulator()
        observed = []
        for delay in delays:
            sim.schedule(delay, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert sim.now == max(delays)

    @given(items=st.lists(st.integers(), min_size=1, max_size=30))
    @settings(max_examples=30)
    def test_mailboxes_preserve_order(self, items):
        sim = Simulator()
        got = []

        def producer():
            for item in items:
                yield Put("box", item)

        def consumer():
            for _ in items:
                got.append((yield Receive("box")))

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert got == items

"""Property-based tests (hypothesis) for the mathematical substrates:
block-cyclic arithmetic, least squares, workload counts and unit helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import lsq
from repro.hpl import flops
from repro.hpl.blockcyclic import (
    column_owner,
    columns_after,
    global_to_local,
    local_to_global,
    numroc,
)
from repro.units import gflops, pretty_bytes, pretty_seconds


dims = st.integers(min_value=0, max_value=500)
blocks = st.integers(min_value=1, max_value=64)
procs = st.integers(min_value=1, max_value=16)


class TestBlockCyclicProperties:
    @given(n=dims, nb=blocks, p=procs)
    def test_numroc_partitions_exactly(self, n, nb, p):
        assert sum(numroc(n, nb, i, p) for i in range(p)) == n

    @given(n=dims, nb=blocks, p=procs)
    def test_numroc_balanced_within_one_block(self, n, nb, p):
        counts = [numroc(n, nb, i, p) for i in range(p)]
        assert max(counts) - min(counts) <= nb

    @given(n=st.integers(min_value=1, max_value=400), nb=blocks, p=procs)
    def test_global_local_bijection(self, n, nb, p):
        seen = set()
        for j in range(n):
            owner, local = global_to_local(j, nb, p)
            assert owner == column_owner(j, nb, p)
            assert local_to_global(local, owner, nb, p) == j
            seen.add((owner, local))
        assert len(seen) == n

    @given(n=dims, nb=blocks, p=procs, data=st.data())
    def test_columns_after_consistent(self, n, nb, p, data):
        j0 = data.draw(st.integers(min_value=0, max_value=n))
        counts = columns_after(j0, n, nb, p)
        assert counts.sum() == n - j0
        assert np.all(counts >= 0)


coeff = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


class TestLSQProperties:
    @given(coeffs=st.tuples(coeff, coeff, coeff, coeff))
    @settings(max_examples=50)
    def test_exact_cubic_always_recovered(self, coeffs):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 7.0])
        y = np.polyval(np.asarray(coeffs), x)
        fit = lsq.multifit_linear(lsq.design_cubic(x), y)
        predicted = fit.predict(lsq.design_cubic(x))
        assert np.allclose(predicted, y, atol=1e-6 + 1e-9 * np.abs(y).max())

    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=5,
            max_size=30,
        )
    )
    @settings(max_examples=50)
    def test_residual_never_exceeds_constant_fit(self, ys):
        """LSQ with an intercept column is at least as good as the mean."""
        y = np.asarray(ys)
        x = np.arange(len(y), dtype=float)
        fit = lsq.multifit_linear(lsq.design_poly(x, 1), y)
        mean_residual = float(np.sum((y - y.mean()) ** 2))
        assert fit.chisq <= mean_residual + 1e-6 + 1e-9 * mean_residual


class TestWorkloadProperties:
    @given(n=st.integers(min_value=1, max_value=2000))
    def test_total_flops_positive_and_increasing(self, n):
        assert flops.total_lu_flops(n + 1) > flops.total_lu_flops(n) >= 0

    @given(
        n=st.integers(min_value=2, max_value=600),
        nb=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60)
    def test_blocked_phases_always_telescope(self, n, nb):
        total = 0.0
        for j0 in range(0, n, nb):
            jend = min(j0 + nb, n)
            total += flops.pfact_flops(n - j0, jend - j0)
            total += flops.update_flops(n - j0, jend - j0, n - jend)
        assert total == pytest.approx(flops.total_lu_flops(n), rel=1e-9)

    @given(m=st.integers(min_value=0, max_value=5000), nb=st.integers(min_value=0, max_value=128))
    def test_panel_bytes_nonnegative_monotone(self, m, nb):
        assert flops.panel_bytes(m, nb) >= 0
        assert flops.panel_bytes(m + 1, nb) >= flops.panel_bytes(m, nb)


class TestUnitsProperties:
    @given(st.floats(min_value=1e-9, max_value=1e12, allow_nan=False))
    def test_pretty_seconds_always_renders(self, value):
        assert isinstance(pretty_seconds(value), str)

    @given(st.floats(min_value=0, max_value=1e15, allow_nan=False))
    def test_pretty_bytes_always_renders(self, value):
        text = pretty_bytes(value)
        assert any(unit in text for unit in ("B", "KB", "MB", "GB", "TB"))

    @given(
        flops=st.floats(min_value=1.0, max_value=1e15),
        seconds=st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_gflops_positive(self, flops, seconds):
        assert gflops(flops, seconds) > 0

    def test_gflops_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            gflops(1.0, 0.0)

"""Operation counts of LU decomposition with partial pivoting.

These closed forms define the *work* the performance simulator converts
into time, and they are validated against the numeric implementation in
tests (FLOP counting instrumentation of :mod:`repro.hpl.lu`).

HPL convention: the benchmark charges ``2/3 N^3 - 1/2 N^2 + ...`` — we use
the standard ``total_lu_flops`` plus ``solve_flops`` for the triangular
solves, and per-phase counts matching the paper's Section 3.2 orders:

* panel factorization (``pfact``): factoring an ``m x nb`` tall panel,
  ``m*nb^2 - nb^3/3`` flops to leading order;
* trailing update (``update``): triangular solve on the ``nb x q`` strip
  plus the rank-``nb`` GEMM on the ``(m-nb) x q`` trailing block,
  ``nb^2*q + 2*(m-nb)*nb*q``;
* backward substitution (``uptrsv``): ``~N^2`` flops total.

Every function accepts scalars or NumPy arrays (broadcasting element-wise)
so the vectorized schedule walker can evaluate a whole panel sweep as one
array program.  All counts are integers well below 2**53, so the closed
forms are *exact* — array results are bitwise identical to the scalar
ones, which is what lets the batched walker's golden tests demand
equality rather than tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError


def _check_nonneg(value, message: str) -> None:
    """Validation that works for scalars and arrays alike; ``message`` is
    formatted with ``value`` only when raising (an array's text is costly)."""
    if np.any(np.asarray(value) < 0):
        raise SimulationError(message.format(value))


def total_lu_flops(n) -> float:
    """Flops of LU factorization of an ``n x n`` matrix (exact polynomial).

    ``2/3 n^3 - 1/2 n^2 - 1/6 n`` — the classic Gaussian-elimination count
    with one multiply and one add per inner element and division row scaling.
    """
    _check_nonneg(n, "negative order {}")
    n_arr = np.asarray(n, dtype=float)
    # exact value is 0 at n in {0, 1}; clamp the float round-off
    out = np.maximum((2.0 / 3.0) * n_arr**3 - 0.5 * n_arr**2 - (1.0 / 6.0) * n_arr, 0.0)
    return out if out.ndim else float(out)


def solve_flops(n) -> float:
    """Flops of the two triangular solves for one right-hand side."""
    _check_nonneg(n, "negative order {}")
    n_arr = np.asarray(n, dtype=float)
    out = 2.0 * n_arr**2
    return out if out.ndim else float(out)


def hpl_benchmark_flops(n) -> float:
    """The flop count HPL divides by to report Gflops
    (``2/3 n^3 + 3/2 n^2``, matrix generation excluded)."""
    _check_nonneg(n, "negative order {}")
    n_arr = np.asarray(n, dtype=float)
    out = (2.0 / 3.0) * n_arr**3 + 1.5 * n_arr**2
    return out if out.ndim else float(out)


def pfact_flops(m, nb) -> float:
    """Flops of factoring an ``m x nb`` panel (``m >= nb``), leading order.

    Derived by summing the rank-1 update column by column:
    ``sum_{j=0}^{k-1} 2 (m-1-j)(nb-1-j) + (m-1-j)`` with ``k = min(m, nb)``.
    The sum telescopes to the closed form below (``S1 = k(k-1)/2``,
    ``S2 = (k-1)k(2k-1)/6``); every term is an exact integer in float64, so
    the closed form equals the column-by-column loop bitwise.
    """
    _check_nonneg(m, "panel dimensions must be >= 0")
    _check_nonneg(nb, "panel dimensions must be >= 0")
    m_arr = np.asarray(m, dtype=float)
    nb_arr = np.asarray(nb, dtype=float)
    k = np.minimum(m_arr, nb_arr)
    a = m_arr - 1.0
    b = nb_arr - 1.0
    s1 = k * (k - 1.0) / 2.0
    s2 = (k - 1.0) * k * (2.0 * k - 1.0) / 6.0
    total = k * (2.0 * a * b + a) - (2.0 * a + 2.0 * b + 1.0) * s1 + 2.0 * s2
    out = np.where(k > 0.0, total, 0.0)
    return out if out.ndim else float(out)


def trsm_flops(nb, q) -> float:
    """Flops of the unit-lower triangular solve ``L11^{-1} * U12``
    (``nb x nb`` unit triangle applied to ``nb x q``): each of the ``q``
    columns costs ``sum_{i<nb} 2i = nb (nb - 1)`` flops — exact, so the
    blocked totals telescope to the unblocked LU count (tested against the
    instrumented numeric factorization)."""
    _check_nonneg(nb, "dimensions must be >= 0")
    _check_nonneg(q, "dimensions must be >= 0")
    nb_arr = np.asarray(nb, dtype=float)
    q_arr = np.asarray(q, dtype=float)
    out = np.where(nb_arr > 0.0, nb_arr * (nb_arr - 1.0) * q_arr, 0.0)
    return out if out.ndim else float(out)


def gemm_flops(m, nb, q) -> float:
    """Flops of the trailing rank-``nb`` update ``A22 -= L21 @ U12``
    (``(m) x nb`` times ``nb x q``)."""
    _check_nonneg(m, "dimensions must be >= 0")
    _check_nonneg(nb, "dimensions must be >= 0")
    _check_nonneg(q, "dimensions must be >= 0")
    m_arr = np.asarray(m, dtype=float)
    out = 2.0 * m_arr * np.asarray(nb, dtype=float) * np.asarray(q, dtype=float)
    return out if out.ndim else float(out)


def update_flops(m, nb, q) -> float:
    """Flops a process spends updating ``q`` local trailing columns when the
    panel is ``m x nb`` (``m`` = trailing height including the panel rows)."""
    mm = np.maximum(np.asarray(m, dtype=float) - np.asarray(nb, dtype=float), 0.0)
    out = trsm_flops(nb, q) + gemm_flops(mm, nb, q)
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


def panel_bytes(m, nb, element_size: int = 8) -> float:
    """Bytes broadcast per panel: the factored ``m x nb`` block plus the
    pivot vector."""
    _check_nonneg(m, "panel dimensions must be >= 0")
    _check_nonneg(nb, "panel dimensions must be >= 0")
    m_arr = np.asarray(m, dtype=float)
    nb_arr = np.asarray(nb, dtype=float)
    out = m_arr * nb_arr * element_size + nb_arr * 4.0
    return out if out.ndim else float(out)


def laswp_bytes(nb, q, element_size: int = 8):
    """Local memory traffic of applying ``nb`` row interchanges across ``q``
    local columns (each swap reads and writes both rows).

    ``nb`` and ``q`` may be scalars or NumPy arrays (per-step panel widths,
    per-process column counts); the result broadcasts accordingly.
    """
    nb_arr = np.asarray(nb, dtype=float)
    q_arr = np.asarray(q, dtype=float)
    if np.any(nb_arr < 0) or np.any(q_arr < 0):
        raise SimulationError("dimensions must be >= 0")
    result = 2.0 * nb_arr * q_arr * element_size
    return result if result.ndim else float(result)

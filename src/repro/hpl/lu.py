"""Numeric blocked LU factorization with partial pivoting.

This is a working implementation of the algorithm HPL times: right-looking
blocked LU with partial pivoting, panel by panel, exactly the schedule the
performance simulator walks.  It exists to pin the reproduction to real
linear algebra:

* tests verify ``P A = L U`` to machine precision and compare against
  :func:`scipy.linalg.lu_factor`;
* the optional flop counter validates the closed forms of
  :mod:`repro.hpl.flops` phase by phase;
* :func:`hpl_residual_check` reproduces HPL's pass/fail criterion
  ``||Ax - b||_inf / (eps * (||A||_inf ||x||_inf + ||b||_inf) * N) < threshold``.

The implementation is vectorized NumPy (rank-``nb`` GEMM updates), fast
enough for the validation sizes used in tests and examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.hpl import flops


@dataclass
class FlopCounter:
    """Per-phase flop tally, filled when passed to :func:`blocked_lu`."""

    phases: Dict[str, float] = field(default_factory=dict)

    def add(self, phase: str, count: float) -> None:
        self.phases[phase] = self.phases.get(phase, 0.0) + count

    @property
    def total(self) -> float:
        return sum(self.phases.values())


def _panel_factor(
    a: np.ndarray, piv: np.ndarray, j0: int, nb: int, counter: Optional[FlopCounter]
) -> None:
    """Factor the panel ``a[j0:, j0:j0+nb]`` in place with partial pivoting.

    Row swaps are applied across the *full* width of ``a`` (simplest correct
    choice; HPL defers the trailing part to ``laswp`` but the arithmetic is
    identical).
    """
    n = a.shape[0]
    jend = min(j0 + nb, n)
    for j in range(j0, jend):
        # pivot search in column j below the diagonal
        col = a[j:, j]
        p = j + int(np.argmax(np.abs(col)))
        piv[j] = p
        if p != j:
            a[[j, p], :] = a[[p, j], :]
        pivot = a[j, j]
        if pivot == 0.0:
            raise SimulationError(f"singular matrix: zero pivot at column {j}")
        if j + 1 < n:
            a[j + 1 :, j] /= pivot
            if counter is not None:
                counter.add("pfact", float(n - j - 1))
            if j + 1 < jend:
                # rank-1 update restricted to the panel
                a[j + 1 :, j + 1 : jend] -= np.outer(
                    a[j + 1 :, j], a[j, j + 1 : jend]
                )
                if counter is not None:
                    counter.add("pfact", 2.0 * (n - j - 1) * (jend - j - 1))


def blocked_lu(
    a: np.ndarray,
    nb: int = 64,
    counter: Optional[FlopCounter] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Factor ``a`` in place: right-looking blocked LU with partial pivoting.

    Returns ``(lu, piv)`` where ``lu`` holds ``L`` strictly below the
    diagonal (unit diagonal implied) and ``U`` on and above it, and
    ``piv[j]`` is the row swapped with row ``j`` at step ``j`` (LAPACK
    ``getrf`` convention, 0-based).
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SimulationError(f"need a square matrix, got shape {a.shape}")
    if a.dtype != np.float64:
        raise SimulationError(f"need float64, got {a.dtype}")
    if nb < 1:
        raise SimulationError(f"block size must be >= 1, got {nb}")
    n = a.shape[0]
    piv = np.arange(n)
    for j0 in range(0, n, nb):
        jend = min(j0 + nb, n)
        width = jend - j0
        _panel_factor(a, piv, j0, nb, counter)
        if jend < n:
            # U12 = L11^{-1} A12  (unit lower triangular solve)
            l11 = a[j0:jend, j0:jend]
            a12 = a[j0:jend, jend:]
            for i in range(1, width):
                a12[i, :] -= l11[i, :i] @ a12[:i, :]
            if counter is not None:
                counter.add("update", flops.trsm_flops(width, n - jend))
            # A22 -= L21 @ U12
            a[jend:, jend:] -= a[jend:, j0:jend] @ a12
            if counter is not None:
                counter.add(
                    "update", flops.gemm_flops(n - jend, width, n - jend)
                )
    return a, piv


def apply_pivots(b: np.ndarray, piv: np.ndarray) -> np.ndarray:
    """Apply the row interchanges recorded in ``piv`` to ``b`` (forward order)."""
    out = b.copy()
    for j, p in enumerate(piv):
        if p != j:
            out[[j, p]] = out[[p, j]]
    return out


def lu_solve(
    lu: np.ndarray, piv: np.ndarray, b: np.ndarray, counter: Optional[FlopCounter] = None
) -> np.ndarray:
    """Solve ``A x = b`` given the output of :func:`blocked_lu`."""
    n = lu.shape[0]
    if b.shape[0] != n:
        raise SimulationError(f"rhs length {b.shape[0]} != order {n}")
    x = apply_pivots(np.asarray(b, dtype=np.float64), piv)
    # forward substitution with unit lower triangle
    for i in range(1, n):
        x[i] -= lu[i, :i] @ x[:i]
    # backward substitution with upper triangle
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] -= lu[i, i + 1 :] @ x[i + 1 :]
        x[i] /= lu[i, i]
    if counter is not None:
        counter.add("uptrsv", flops.solve_flops(n))
    return x


def reconstruct(lu: np.ndarray, piv: np.ndarray) -> np.ndarray:
    """Rebuild the (row-permuted) original matrix ``P A = L U``; tests use
    this to verify the factorization exactly."""
    n = lu.shape[0]
    lower = np.tril(lu, -1) + np.eye(n)
    upper = np.triu(lu)
    return lower @ upper


def permutation_vector(piv: np.ndarray) -> np.ndarray:
    """Convert LAPACK-style swap records to the permutation ``perm`` with
    ``(P A)[i] = A[perm[i]]``."""
    n = piv.shape[0]
    perm = np.arange(n)
    for j, p in enumerate(piv):
        if p != j:
            perm[[j, p]] = perm[[p, j]]
    return perm


def hpl_residual_check(
    a: np.ndarray, x: np.ndarray, b: np.ndarray, threshold: float = 16.0
) -> Tuple[float, bool]:
    """HPL's scaled residual: returns ``(value, passed)``.

    ``value = ||Ax - b||_inf / (eps * (||A||_inf * ||x||_inf + ||b||_inf) * N)``
    and the run *passes* when ``value < threshold`` (HPL default 16).
    """
    n = a.shape[0]
    if n == 0:
        raise SimulationError("empty system")
    r = a @ x - b
    eps = np.finfo(np.float64).eps
    denom = eps * (
        np.linalg.norm(a, np.inf) * np.linalg.norm(x, np.inf)
        + np.linalg.norm(b, np.inf)
    ) * n
    value = float(np.linalg.norm(r, np.inf) / denom)
    return value, value < threshold


def hpl_reference_run(
    n: int, nb: int = 64, seed: int = 0
) -> Tuple[float, bool, FlopCounter]:
    """Generate a random system, factor, solve and residual-check it —
    the full numeric path of one HPL run.  Returns
    ``(residual, passed, flop counter)``."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    counter = FlopCounter()
    lu, piv = blocked_lu(a.copy(), nb=nb, counter=counter)
    x = lu_solve(lu, piv, b, counter=counter)
    residual, passed = hpl_residual_check(a, x, b)
    return residual, passed, counter

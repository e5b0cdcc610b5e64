"""Multi-parameter linear least squares, equivalent to GSL's
``gsl_multifit_linear``.

The paper extracts every model coefficient with ``gsl_multifit_linear``
(GSL 1.4).  That routine solves the ordinary least-squares problem
``min ||y - X c||^2`` by singular value decomposition, discarding singular
values below a tolerance, and reports the coefficient covariance and
chi-squared.  :func:`multifit_linear` reproduces exactly that contract on
NumPy arrays (we call :func:`numpy.linalg.svd` rather than reimplementing
Golub-Kahan bidiagonalization; the *interface* and edge-case behaviour
follow GSL).

Also provided: weighted fitting (GSL's ``gsl_multifit_wlinear``) and the
polynomial design matrices used by the N-T models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import FitError


@dataclass(frozen=True)
class FitResult:
    """Output of a linear least-squares fit.

    Attributes
    ----------
    coefficients:
        The fitted parameter vector ``c``.
    covariance:
        Parameter covariance matrix (scaled by the residual variance, as
        GSL does for unweighted fits).
    chisq:
        Residual sum of squares ``||y - X c||^2``.
    rank:
        Effective rank used (singular values above tolerance).
    singular_values:
        All singular values of the design matrix.
    """

    coefficients: np.ndarray
    covariance: np.ndarray
    chisq: float
    rank: int
    singular_values: np.ndarray

    def predict(self, design: np.ndarray) -> np.ndarray:
        """Evaluate the fitted model on a design matrix."""
        x = np.asarray(design, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.coefficients.shape[0]:
            raise FitError(
                f"design shape {x.shape} incompatible with "
                f"{self.coefficients.shape[0]} coefficients"
            )
        return x @ self.coefficients

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.maximum(np.diag(self.covariance), 0.0))

    def require_full_rank(self, what: str) -> "FitResult":
        """This fit, or :class:`FitError` naming ``what`` when the SVD
        dropped a direction of the design (rank below its column count):
        a truncated fit silently loses a term of the model."""
        columns = self.coefficients.shape[0]
        if self.rank < columns:
            raise FitError(f"{what}: rank-deficient design (rank {self.rank} of {columns})")
        return self


def multifit_linear(
    design: np.ndarray,
    y: np.ndarray,
    tol: float = 2.2204460492503131e-16,
) -> FitResult:
    """Ordinary least squares by SVD, GSL ``gsl_multifit_linear`` semantics.

    Singular values smaller than ``tol * s_max`` are treated as zero
    (GSL's default uses machine epsilon scaled by the largest singular
    value times max(n, p); we use ``tol * s_max`` with a generous default,
    which matches GSL for well-posed problems and degrades identically on
    rank-deficient ones).

    Raises :class:`FitError` when there are fewer observations than
    parameters or on shape mismatches.
    """
    x = np.atleast_2d(np.asarray(design, dtype=float))
    yv = np.asarray(y, dtype=float).ravel()
    n_obs, n_par = x.shape
    if yv.shape[0] != n_obs:
        raise FitError(f"y has {yv.shape[0]} entries for {n_obs} observations")
    if n_obs < n_par:
        raise FitError(
            f"need at least {n_par} observations to fit {n_par} coefficients, "
            f"got {n_obs}"
        )
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(yv)):
        raise FitError("design matrix and observations must be finite")

    u, s, vt = np.linalg.svd(x, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise FitError("design matrix is identically zero")
    threshold = tol * s[0] * max(n_obs, n_par)
    keep = s > threshold
    rank = int(np.count_nonzero(keep))
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)

    coef = vt.T @ (s_inv * (u.T @ yv))
    residuals = yv - x @ coef
    chisq = float(residuals @ residuals)

    # Covariance: sigma^2 (X^T X)^+, with sigma^2 estimated from residuals
    # (GSL convention for the unweighted routine).
    dof = max(n_obs - rank, 1)
    sigma2 = chisq / dof
    cov = (vt.T * (s_inv**2)) @ vt * sigma2

    return FitResult(
        coefficients=coef,
        covariance=cov,
        chisq=chisq,
        rank=rank,
        singular_values=s.copy(),
    )


def multifit_wlinear(
    design: np.ndarray,
    weights: np.ndarray,
    y: np.ndarray,
    tol: float = 2.2204460492503131e-16,
) -> FitResult:
    """Weighted least squares (GSL ``gsl_multifit_wlinear``): minimizes
    ``sum_i w_i (y_i - (X c)_i)^2``."""
    w = np.asarray(weights, dtype=float).ravel()
    x = np.atleast_2d(np.asarray(design, dtype=float))
    yv = np.asarray(y, dtype=float).ravel()
    if w.shape[0] != x.shape[0]:
        raise FitError(f"{w.shape[0]} weights for {x.shape[0]} observations")
    if np.any(w < 0):
        raise FitError("weights must be non-negative")
    sqrt_w = np.sqrt(w)
    return multifit_linear(x * sqrt_w[:, None], yv * sqrt_w, tol=tol)


# -- design matrices -----------------------------------------------------------


def design_poly(x: Sequence[float], degree: int) -> np.ndarray:
    """Design matrix ``[x^degree, ..., x, 1]`` (highest power first, the
    coefficient order the paper writes its models in)."""
    if degree < 0:
        raise FitError(f"degree must be >= 0, got {degree}")
    xv = np.asarray(x, dtype=float).ravel()
    return np.vander(xv, degree + 1, increasing=False)


def design_cubic(x: Sequence[float]) -> np.ndarray:
    """``[N^3, N^2, N, 1]`` — the Ta design of the N-T model."""
    return design_poly(x, 3)


def design_quadratic(x: Sequence[float]) -> np.ndarray:
    """``[N^2, N, 1]`` — the Tc design of the N-T model."""
    return design_poly(x, 2)


def polyval(coefficients: Sequence[float], x) -> np.ndarray | float:
    """Evaluate a highest-power-first polynomial (shape-preserving); a Python
    number runs ``np.polyval``'s steps ``y = y * x + c`` in floats, same bits."""
    if isinstance(x, (int, float)):
        y, x = 0.0, float(x)
        for c in coefficients:
            y = y * x + c
        return float(y)
    result = np.polyval(np.asarray(coefficients, dtype=float), np.asarray(x, dtype=float))
    return result if np.ndim(result) else float(result)

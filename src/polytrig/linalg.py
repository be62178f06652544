"""Small dense complex linear algebra: determinant and solve, for n <= 24.

Everything comes from ``numpy.linalg`` (LAPACK); a LAPACK failure surfaces as
:class:`LinalgError`.  One rule refuses a solve: the condition estimate
``norm1(A) * norm1(inv(A))`` times eps is not below 1.  It needs no pivot
check beside it, as a pivot of partial pivoting below ``delta * norm1(A)``
forces the estimate above ``1 / (n delta)`` (Higham, *Accuracy and Stability
of Numerical Algorithms*, 2002, ch. 9).
"""
from __future__ import annotations

import math

import numpy as np


class LinalgError(ValueError):
    pass


class SingularMatrixError(LinalgError):
    """A solve refused: its condition estimate times eps is not below 1."""

    def __init__(self, condition_estimate: float, cause: str = ""):
        super().__init__(f"matrix is singular to working precision (condition estimate "
                         f"{condition_estimate:.3e}{cause})")
        self.condition_estimate = condition_estimate


def _as_matrix(M) -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise LinalgError(f"expected a square matrix, got shape {A.shape}")
    if not np.logical_and.reduce(np.isfinite(A.view(float)), axis=None):
        raise LinalgError("matrix has non-finite entries")
    return A


def _lapack(fn, *args):
    """Call a ``numpy.linalg`` routine, re-raising its failure as LinalgError."""
    try:
        return fn(*args)
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"LAPACK {fn.__name__} failed: {exc}") from exc


def norm1(M) -> float:
    """Maximum absolute column sum."""
    A = np.asarray(M, dtype=complex)
    return float(np.maximum.reduce(np.add.reduce(np.abs(A), axis=0)))


def _condition(A: np.ndarray) -> float:
    """``norm1(A) * norm1(inv(A))``; where LAPACK's inverse fails (an exact zero
    pivot), :class:`SingularMatrixError` with the estimate inf."""
    try:
        return norm1(A) * norm1(np.linalg.inv(A))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(math.inf, f"; LAPACK inv failed: {exc}") from exc


def determinant(M) -> complex:
    """Determinant via LAPACK LU; singular matrices give ~0."""
    return complex(_lapack(np.linalg.det, _as_matrix(M)))


def solve(M, b):
    """Solve ``M x = b`` for one right-hand side (shape ``(n,)``) or several
    (columns of shape ``(n, k)``); returns ``(x, condition_estimate)``.

    Raises :class:`SingularMatrixError` exactly when the estimate, taken once,
    times eps is not below 1 (nan, and inf where LAPACK's inverse fails on an
    exact zero pivot); otherwise ``x`` is ``numpy.linalg.solve(M, b)``.
    """
    A = _as_matrix(M)
    rhs = np.asarray(b, dtype=complex)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != A.shape[0]:
        raise LinalgError("right-hand side length does not match the matrix")
    cond = _condition(A)
    if not cond * np.finfo(float).eps < 1:
        raise SingularMatrixError(cond)
    return _lapack(np.linalg.solve, A, rhs), cond


def condition_number(M) -> float:
    """The estimate :func:`solve` takes; infinity only on an exact zero pivot."""
    try:
        return _condition(_as_matrix(M))
    except SingularMatrixError as exc:
        return exc.condition_estimate

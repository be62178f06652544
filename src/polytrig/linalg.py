"""Small dense complex linear algebra: determinant and solve.

Sized for dimensions up to 24; matrices are numpy arrays of dtype complex.
Determinants, solutions and inverses come from ``numpy.linalg`` (LAPACK); a
LAPACK failure surfaces as :class:`LinalgError`.  A partial-pivot LU is kept
only as the pivot check behind :class:`SingularMatrixError`, and runs only
where the condition estimate says a pivot could fall below its threshold.
"""
from __future__ import annotations

import numpy as np

#: a pivot below this times norm1 of the matrix makes it singular to working precision
PIVOT_RTOL = 1e-13


class LinalgError(ValueError):
    pass


class SingularMatrixError(LinalgError):
    """Pivot below the working-precision threshold; carries the pivot index."""

    def __init__(self, pivot_index: int):
        super().__init__(f"matrix is singular to working precision (pivot {pivot_index})")
        self.pivot_index = pivot_index


def _as_matrix(M) -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise LinalgError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A.view(float))):
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
    return float(np.max(np.sum(np.abs(A), axis=0)))


def _check_pivots(A: np.ndarray):
    """LU with partial pivoting by modulus; raise on the first pivot below
    ``PIVOT_RTOL * norm1(A)``."""
    U = A.copy()
    threshold = PIVOT_RTOL * max(norm1(A), np.finfo(float).tiny)
    for k in range(U.shape[0]):
        p = int(np.argmax(np.abs(U[k:, k]))) + k
        if p != k:
            U[[k, p]] = U[[p, k]]
        pivot = U[k, k]
        if abs(pivot) < threshold:
            raise SingularMatrixError(k)
        U[k + 1:, k + 1:] -= np.outer(U[k + 1:, k] / pivot, U[k, k + 1:])


def _condition(A: np.ndarray) -> float:
    return norm1(A) * norm1(_lapack(np.linalg.inv, A))


def _screened_condition(A: np.ndarray) -> float:
    """``_condition(A)``, after the pivot check wherever that check could raise.

    With partial pivoting PA = LU and |L| <= 1 entrywise, so
    1/|u_kk| <= norm1(U^-1) <= n norm1(A^-1) (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2002, ch. 9): a pivot below
    ``PIVOT_RTOL * norm1(A)`` forces cond > 1/(n PIVOT_RTOL).  The LU runs
    only when cond > 1/(2 n PIVOT_RTOL), the factor 2 covering the roundoff
    of both estimates, or when the inverse fails; then an exactly singular
    matrix still raises :class:`SingularMatrixError` with its pivot index.
    """
    try:
        cond = _condition(A)
    except LinalgError:
        _check_pivots(A)
        raise
    if not cond * 2 * A.shape[0] * PIVOT_RTOL <= 1:  # also for a nan estimate
        _check_pivots(A)
    return cond


def determinant(M) -> complex:
    """Determinant via LAPACK LU; singular matrices give ~0."""
    return complex(_lapack(np.linalg.det, _as_matrix(M)))


def solve(M, b):
    """Solve ``M x = b`` for one right-hand side (shape ``(n,)``) or several
    (columns of shape ``(n, k)``); returns ``(x, condition_estimate)``.

    The condition estimate is ``norm1(M) * norm1(inv(M))``.  Raises
    :class:`SingularMatrixError` when a pivot falls below
    ``PIVOT_RTOL * norm1(M)``; the pivot check runs only where the condition
    estimate allows such a pivot (:func:`_screened_condition`).
    """
    A = _as_matrix(M)
    rhs = np.asarray(b, dtype=complex)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != A.shape[0]:
        raise LinalgError("right-hand side length does not match the matrix")
    cond = _screened_condition(A)
    return _lapack(np.linalg.solve, A, rhs), cond


def condition_number(M) -> float:
    """One-norm condition estimate; infinity when the solve refuses the matrix."""
    A = _as_matrix(M)
    try:
        return _screened_condition(A)
    except SingularMatrixError:
        return float("inf")

"""Small dense complex linear algebra: determinant, solve and left eigenpairs.

Sized for dimensions up to 24; matrices are numpy arrays of dtype complex.
Eigenpairs, determinants, solutions and inverses come from ``numpy.linalg``
(LAPACK); a LAPACK failure surfaces as :class:`LinalgError`.  A partial-pivot
LU is kept only as the pivot check behind :class:`SingularMatrixError`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 24


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


def _check_pivots(A: np.ndarray, pivot_rtol: float):
    """LU with partial pivoting by modulus; raise on the first pivot below
    ``pivot_rtol * norm1(A)``."""
    U = A.copy()
    threshold = pivot_rtol * max(norm1(A), np.finfo(float).tiny)
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


def determinant(M) -> complex:
    """Determinant via LAPACK LU; singular matrices give ~0."""
    return complex(_lapack(np.linalg.det, _as_matrix(M)))


def solve(M, b, pivot_rtol: float = 1e-13):
    """Solve ``M x = b`` for one right-hand side (shape ``(n,)``) or several
    (columns of shape ``(n, k)``); returns ``(x, condition_estimate)``.

    The condition estimate is ``norm1(M) * norm1(inv(M))``.  Raises
    :class:`SingularMatrixError` when a pivot falls below
    ``pivot_rtol * norm1(M)``.
    """
    A = _as_matrix(M)
    rhs = np.asarray(b, dtype=complex)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != A.shape[0]:
        raise LinalgError("right-hand side length does not match the matrix")
    _check_pivots(A, pivot_rtol)
    return _lapack(np.linalg.solve, A, rhs), _condition(A)


def condition_number(M, pivot_rtol: float = 1e-13) -> float:
    """One-norm condition estimate; infinity when the solve refuses the matrix."""
    A = _as_matrix(M)
    try:
        _check_pivots(A, pivot_rtol)
    except SingularMatrixError:
        return float("inf")
    return _condition(A)


@dataclass(frozen=True)
class Eigenpair:
    value: complex
    left_vector: np.ndarray  # L with L @ M == value * L
    residual: float


def eigenpairs(M) -> list:
    """Eigenvalues with left eigenvectors, in lexicographic eigenvalue order.

    The left eigenvectors of M are the right eigenvectors of M^T, taken from
    ``numpy.linalg.eig``; each is normalized so its maximum-modulus entry
    (the first, on ties) equals 1.  Defective matrices are not special-cased:
    the reported residual ``max|L M - lam L|`` is the quality statement.
    """
    A = _as_matrix(M)
    n = A.shape[0]
    if n > MAX_DIM:
        raise LinalgError(f"dimension {n} exceeds the supported maximum {MAX_DIM}")

    mean = complex(np.trace(A) / n)
    spread = norm1(A - mean * np.eye(n, dtype=complex))
    if spread <= 1e-12 * (norm1(A) + 1.0):
        # scalar matrix: every vector is an eigenvector; use the canonical basis
        return [Eigenpair(mean, v, spread) for v in np.eye(n, dtype=complex)]

    values, vectors = _lapack(np.linalg.eig, A.T)
    V = vectors.T.copy()  # row k: the left eigenvector of values[k]
    V /= V[np.arange(n), np.argmax(np.abs(V), axis=1)][:, None]
    residuals = np.max(np.abs(V @ A - values[:, None] * V), axis=1)
    return [Eigenpair(complex(values[k]), V[k], float(residuals[k]))
            for k in np.lexsort((values.imag, values.real))]

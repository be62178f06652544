"""The linear solve of the closed-form sums: one LAPACK LU per matrix.

:func:`solve` factors ``A`` once with ``numpy.linalg.solve`` and returns the
solution with the condition estimate ``norm1(A) * norm1(inv(A))``, the inverse
being the solve of the identity columns in the same call.  It refuses nothing:
the caller applies its rule to the estimate (``series.evaluate_sums`` refuses
when the estimate times eps is not below 1).  That rule needs no pivot check
beside it, as a pivot of partial pivoting below ``delta * norm1(A)`` forces
the estimate above ``1 / (n delta)`` (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2002, ch. 9).
"""
from __future__ import annotations

import math

import numpy as np

from .poly import MAX_DEGREE

#: the identity columns of ``[B | I]``, read-only and sliced by the order n
_IDENTITY = np.eye(MAX_DEGREE)
_IDENTITY.setflags(write=False)


def solve(A: np.ndarray, B: np.ndarray | None = None):
    """Solve ``A X = B`` for the columns of ``B`` (shape ``(n, k)``; none if
    omitted) by one LU of ``A``, of order n at most ``MAX_DEGREE``; returns
    ``(X, condition_estimate)``.

    ``X`` and the inverse behind the estimate are the columns of
    ``numpy.linalg.solve(A, [B | I])``.  Where LAPACK finds an exact zero
    pivot, ``X`` is None and the estimate is inf; an estimate of nan (from
    non-finite entries, or an inverse that overflows) is returned as is.
    """
    n = len(A)
    k = 0 if B is None else B.shape[1]
    eye = _IDENTITY[:n, :n]
    rhs = eye if B is None else np.concatenate((B, eye), axis=1)  # solve casts A, rhs to one type
    try:
        Y = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:  # an exact zero pivot
        return None, math.inf
    return Y[:, :k], float(_norm1(A) * _norm1(Y[:, k:]))


def _norm1(M: np.ndarray):
    """The largest column sum of moduli, by the reductions of ``np.linalg.norm(M, 1)``."""
    return np.maximum.reduce(np.add.reduce(np.abs(M), axis=0), initial=0)

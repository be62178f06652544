"""Closed-form evaluation of sum(n**k / P(n)) and sum((-1)**n n**k / P(n)) over all integers.

Route: boundary functions R_l built from the exponential-sum system of P, their
Fourier data packed into the associated matrix C(P), and a linear solve against
the boundary values.  Every output is cross-checked by a brute-force symmetric
summation oracle with extrapolation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .gentrig import GenTrigSystem, _cached, _check_index, deflation_matrix, make_system
from .poly import Polynomial

#: refuse roots closer than this to an integer (the boundary kernel blows up)
INTEGER_ROOT_TOL = 1e-8

#: smallest oracle size: below it the extrapolation reports a false error bar
#: (for x^2+1, N = 1 would give B_0 = 0 with error bar 1e-12; the true value is 0.272)
MIN_ORACLE_N = 1000

#: alternating sums average this many levels of tail partial sums
TAIL_DEPTH = 40

TWO_PI_I = 2j * math.pi


class SeriesError(ValueError):
    pass


class IntegerRootError(SeriesError):
    """A root sits (numerically) on the integer lattice where sin(pi r) vanishes."""

    def __init__(self, root: complex, distance: float):
        super().__init__(
            f"root {root} is within {distance:.3e} of an integer; "
            f"the boundary functions are undefined there"
        )
        self.root = root
        self.distance = distance


class DegenerateMatrixError(SeriesError):
    """C(P) is singular, violating the non-degeneracy hypothesis of the solve."""


def _check_roots(sys: GenTrigSystem):
    distance = np.abs(sys.r - np.round(sys.r.real))
    j = int(np.argmin(distance))
    if distance[j] < INTEGER_ROOT_TOL:
        raise IntegerRootError(complex(sys.r[j]), float(distance[j]))


def _boundary_weights(sys: GenTrigSystem) -> np.ndarray:
    """T / (exp(-i r pi) - exp(i r pi)), the R_l weights, once per system."""

    def compute():
        _check_roots(sys)
        E = sys.exponentials(np.array([math.pi, -math.pi]))
        return sys.T / (E[0] - E[1])

    return _cached(sys, "boundary_weights", compute)


def eval_R(sys: GenTrigSystem, l: int, x: complex) -> complex:
    """R_l(x) = sum_j T[l][j] exp(-i r_j x) / (exp(-i r_j pi) - exp(i r_j pi)).

    An array of x gives an array.
    """
    _check_index(sys, l)
    value = sys.exponentials(x) @ _boundary_weights(sys)[l]
    return complex(value) if np.isscalar(value) else value


def fourier_coefficient(sys: GenTrigSystem, l: int, n: int) -> complex:
    """Closed-form Fourier coefficient of R_l: (-1)^n/(2 pi i) sum_j T[l][j]/(n - r_j)."""
    _check_index(sys, l)
    _check_roots(sys)
    return ((-1) ** n) * (sys.T[l] @ (1 / (n - sys.r))) / TWO_PI_I


@dataclass(frozen=True)
class AssociatedMatrix:
    """C[l][k] with columns in ascending powers of n; condition from the solve kernel."""

    m: int
    C: np.ndarray
    condition_estimate: float


def _cross_checked_C(sys: GenTrigSystem) -> np.ndarray:
    """C(P) by two independent routes, cross-checked entrywise.

    Route 1 is T Q for the deflated quotients Q of P; route 2 uses the Vieta
    substitution directly on the T grid.  A gap beyond 1e3 m eps max|C| means
    the inputs are inconsistent and is an error.
    """
    _check_roots(sys)
    m, T = sys.m, sys.T
    C1 = T @ deflation_matrix(sys.poly, sys.r)
    signs = np.append((-1.0) ** np.arange(m - 1, 0, -1), 0.0)  # (-1)^(m-k-1), none at k = m-1
    C2 = np.outer(T.sum(axis=1), sys.poly.coeffs[1:]) - (T @ T[::-1].T) * signs
    mismatch = float(np.max(np.abs(C1 - C2)))
    bound = 1e3 * m * np.finfo(float).eps * float(np.max(np.abs(C1)))
    if not mismatch <= bound:
        raise ArithmeticError(
            f"associated-matrix cross-check failed (entrywise gap {mismatch:.3e} "
            f"> {bound:.3e})"
        )
    return C1 / TWO_PI_I


def associated_matrix(sys: GenTrigSystem) -> AssociatedMatrix:
    """C(P), cross-checked by two routes, with its condition estimate."""
    C = _cross_checked_C(sys)
    return AssociatedMatrix(sys.m, C, linalg.condition_number(C))


def _horner(desc: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.polyval(desc, x)`` updated in place, without a temporary per coefficient."""
    y = np.full(x.shape, desc[0], dtype=np.result_type(desc, x))
    for c in desc[1:]:
        y *= x
        y += c
    return y


def brute_force_sums(p: Polynomial, n_terms: int = 100_000):
    """Oracle for all 2m sums at once: symmetric (n, -n) pairing, then extrapolation.

    P(n) and P(-n) are evaluated once for n = 1..4N (N = ``n_terms``), in four
    blocks of N points, and shared by every power k and both signs: the pair
    term is n**k (1/P(n) + 1/P(-n)) for even k and n**k (1/P(n) - 1/P(-n))
    for odd k.  Non-alternating sums use three-level Richardson over the
    partial sums at N, 2N, 4N; alternating sums use iterated averaging of the
    last ``TAIL_DEPTH + 1`` partial sums of the first N terms.  Returns
    ``(oracle_A, oracle_B)``, each a tuple of ``(estimate, error_bar)`` pairs
    indexed by k.
    """
    if n_terms < MIN_ORACLE_N:
        raise SeriesError(
            f"oracle size {n_terms} is below {MIN_ORACLE_N}; "
            f"its extrapolation would report a false error bar"
        )
    _check_roots(make_system(p))
    m = p.degree
    desc = np.array(p.coeffs[::-1], dtype=complex)
    if not desc.imag.any():
        desc = desc.real  # real arithmetic for real coefficients: same values up to rounding

    sign = np.resize([-1.0, 1.0], n_terms)  # (-1)**n for n = 1..N
    block_sums = np.zeros((4, m), dtype=complex)  # blocks end at N, 2N, 3N, 4N
    tails = np.zeros((m, TAIL_DEPTH + 1), dtype=complex)
    for block in range(4):
        n = np.arange(block * n_terms + 1.0, (block + 1) * n_terms + 1.0)
        inv_pos = 1.0 / _horner(desc, n)
        inv_neg = 1.0 / _horner(desc, -n)
        pairs = (inv_pos + inv_neg, inv_pos - inv_neg)  # by parity of k
        power = np.ones_like(n)
        for k in range(m):
            t = power * pairs[k % 2]
            block_sums[block, k] = t.sum()
            if block == 0:
                # the last TAIL_DEPTH + 1 partial sums of the first N terms
                t *= sign
                tails[k, 0] = t[:-TAIL_DEPTH].sum()
                tails[k, 1:] = tails[k, 0] + np.cumsum(t[-TAIL_DEPTH:])
            power *= n

    center = np.zeros(m, dtype=complex)  # n = 0 term; 0**0 == 1
    center[0] = 1.0 / p(0)

    s1 = center + block_sums[0]
    s2 = center + (block_sums[0] + block_sums[1])
    s4 = center + ((block_sums[0] + block_sums[1]) + (block_sums[2] + block_sums[3]))
    r1a = 2 * s2 - s1
    r1b = 2 * s4 - s2
    estimate_a = (4 * r1b - r1a) / 3
    error_a = np.maximum(np.abs(estimate_a - r1b), 1e-12)

    tails += center[:, None]
    for _ in range(TAIL_DEPTH):
        previous = tails[:, -1]
        tails = 0.5 * (tails[:, 1:] + tails[:, :-1])
    estimate_b = tails[:, 0]
    error_b = np.maximum(np.abs(estimate_b - previous), 1e-12)

    def as_tuples(estimate, error):
        return tuple((complex(e), float(b)) for e, b in zip(estimate, error))

    return as_tuples(estimate_a, error_a), as_tuples(estimate_b, error_b)


@dataclass(frozen=True)
class SeriesResult:
    """Closed-form sums with oracle estimates; index k matches the power of n."""

    A: tuple  # sum over all integers of n**k / P(n)
    B: tuple  # same with alternating sign (-1)**n
    oracle_A: tuple  # (estimate, error_bar) pairs
    oracle_B: tuple
    condition_estimate: float


def evaluate_sums(p: Polynomial, oracle_n: int = 100_000, run_oracle: bool = True) -> SeriesResult:
    """Solve C(P) . A = boundary averages and C(P) . B = midpoint values.

    The top-degree sum (terms decaying like 1/n) is the symmetric
    principal-value limit; that is the limit the Fourier boundary data
    represents.  With ``run_oracle`` every sum is paired with its
    :func:`brute_force_sums` estimate, one oracle pass of ``oracle_n``
    (at least ``MIN_ORACLE_N``) for all 2m sums; without it the oracle
    fields hold ``(nan, inf)`` and ``oracle_n`` is unused.  A C(P) that the
    pivot check rejects, or whose condition estimate times eps reaches 1
    (singular to working precision), raises :class:`DegenerateMatrixError`.
    """
    if p.degree < 2:
        raise SeriesError("degree must be at least 2 for the sums to converge")
    sys = make_system(p)
    lead = p.coeffs[-1]  # solve against the monic system, then undo the scaling
    C = _cross_checked_C(sys)
    R = sys.exponentials(np.array([math.pi, -math.pi, 0.0])) @ _boundary_weights(sys).T
    try:
        AB, cond = linalg.solve(C, np.column_stack([(R[0] + R[1]) / 2, R[2]]))
    except linalg.SingularMatrixError as exc:
        raise DegenerateMatrixError(
            "associated matrix C(P) is singular; the non-degeneracy hypothesis "
            "of the closed-form solve fails for this polynomial"
        ) from exc
    if cond * np.finfo(float).eps >= 1:
        raise DegenerateMatrixError(
            f"associated matrix C(P) is singular to working precision (condition "
            f"estimate {cond:.3e}); the closed-form solve would return no correct digits"
        )
    A, B = AB.T / lead

    if run_oracle:
        oracle_a, oracle_b = brute_force_sums(p, oracle_n)
    else:
        nan = complex(math.nan, math.nan)
        oracle_a = tuple((nan, math.inf) for _ in range(sys.m))
        oracle_b = tuple((nan, math.inf) for _ in range(sys.m))
    return SeriesResult(tuple(map(complex, A)), tuple(map(complex, B)), oracle_a, oracle_b, cond)

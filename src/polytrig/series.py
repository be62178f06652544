"""Closed-form evaluation of sum(n**k / P(n)) and sum((-1)**n n**k / P(n)) over all integers.

Route: boundary functions R_l built from the exponential-sum system of P, their
Fourier data packed into the associated matrix C(P), and a linear solve against
the boundary values.  Every output is cross-checked by an oracle that needs no
roots: the terms |n| <= N summed directly, the rest summed exactly as Hurwitz
zeta values of the Laurent series of 1/P at infinity, with an error bar that
bounds the Laurent remainder, the Euler-Maclaurin remainder and the roundoff.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .gentrig import (GenTrigSystem, _check_index, _integer, _scalar, deflation_matrix,
                      make_system)
from .poly import Polynomial

#: refuse roots closer than this to an integer (the boundary kernel blows up)
INTEGER_ROOT_TOL = 1e-8

#: smallest oracle head N: the tail's zeta values come from Euler-Maclaurin
#: with no direct terms, which needs a >= N/2 far above every exponent used
MIN_ORACLE_N = 1000

#: the oracle head reaches at least this many Fujiwara root radii, so the
#: Laurent series of 1/P converges on the tail with ratio at most 1/2
HEAD_RADII = 4

#: the largest head a root radius may force; a larger oracle size is honoured
_MAX_AUTO_HEAD = 2 ** 20

#: B_2 .. B_14; the last only bounds the Euler-Maclaurin remainder
_BERNOULLI = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6])

_EPS = float(np.finfo(float).eps)

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
    W = sys.__dict__.get("boundary_weights")
    if W is None:
        _check_roots(sys)
        E = sys.exponentials(np.array([math.pi, -math.pi]))
        W = sys.__dict__.setdefault("boundary_weights", sys.T / (E[0] - E[1]))
    return W


def eval_R(sys: GenTrigSystem, l: int, x: complex) -> complex:
    """R_l(x) = sum_j T[l][j] exp(-i r_j x) / (exp(-i r_j pi) - exp(i r_j pi)).

    An array of x gives an array.
    """
    if type(l) is not int or not 0 <= l < sys.m:
        l = _check_index(sys.m, l)
    return _scalar(sys.exponentials(x) @ _boundary_weights(sys)[l])


def fourier_coefficient(sys: GenTrigSystem, l: int, n: int) -> complex:
    """Closed-form Fourier coefficient of R_l at an integer n (else :class:`SeriesError`):
    (-1)^n/(2 pi i) sum_j T[l][j]/(n - r_j)."""
    l = _check_index(sys.m, l)
    n = _integer(n, "Fourier index", SeriesError)
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


def _hurwitz_zeta(s, a):
    """``a**(s-1) * zeta(s, a)`` and a bound on its truncation error, for s >= 2.

    Euler-Maclaurin with no direct terms: 1/(s-1) + 1/(2a) plus the corrections
    B_2k/(2k)! (s)_(2k-1) a^-2k for k = 1..6.  Every derivative of (a+x)^-s has
    one sign, so the remainder is at most the first omitted correction, which
    is the bound.  ``s`` and ``a`` broadcast.
    """
    s, a = np.asarray(s, dtype=float), np.asarray(a, dtype=float)
    k = np.arange(1, len(_BERNOULLI) + 1)
    # (s)_(2k-1) / ((2k)! a^2k) = (s-1)_2k / ((2k)! a^2k) / (s-1), one running product
    ratio = ((s[..., None] + 2 * k - 3) * (s[..., None] + 2 * k - 2)
             / ((2 * k - 1) * (2 * k) * a[..., None] ** 2))
    terms = _BERNOULLI * np.cumprod(ratio, axis=-1) / (s[..., None] - 1)
    return 1 / (s - 1) + 1 / (2 * a) + terms[..., :-1].sum(axis=-1), np.abs(terms[..., -1])


def _fujiwara_radius(monic: np.ndarray) -> float:
    """Fujiwara's root-free bound 2 max |b_(m-i)|^(1/i), b_0 halved, on every |root|."""
    c = np.abs(monic[-2::-1])  # |b_(m-1)|, ..., |b_0|
    c[-1] /= 2
    return 2 * float(np.max(c ** (1 / np.arange(1, len(c) + 1))))


def brute_force_sums(p: Polynomial, n_terms: int = MIN_ORACLE_N):
    """Independent oracle for all 2m sums: an exact head and a summed asymptotic tail.

    Head: the terms n = -N..N, from one Horner pass each for P(n) and P(-n),
    where N is ``n_terms`` raised to ``HEAD_RADII`` Fujiwara root radii.  The
    pair term n^k (1/P(n) + (-1)^k / P(-n)) serves every power k and both signs.

    Tail: for n > N, 1/P(n) = n^-m sum_j d_j n^-j, with d the power-series
    inverse of the reversed coefficients of P.  In a pair term only the even
    exponents s = m + j - k >= 2 survive, each twice.  Summed over n > N,
    n^-s gives the Hurwitz zeta value zeta(s, N+1), and (-1)^n n^-s gives
    2^-s (zeta(s, e/2) - zeta(s, o/2)) for the first even e and odd o above N.

    The error bar is a bound, the sum of: a Cauchy estimate of the Laurent
    remainder, the Euler-Maclaurin remainder of the zeta values and the
    roundoff of head and tail.  Returns ``(oracle_A, oracle_B)``, each a tuple
    of ``(estimate, error_bar)`` pairs indexed by k.  An integer n with
    |P(n)| <= ``INTEGER_ROOT_TOL`` |P'(n)| raises :class:`IntegerRootError`
    naming the Newton estimate n - P(n)/P'(n) of the root.
    """
    if n_terms < MIN_ORACLE_N:
        raise SeriesError(
            f"oracle size {n_terms} is below {MIN_ORACLE_N}; "
            f"its zeta tail would lose precision"
        )
    m, lead = p.degree, p.coeffs[-1]
    coeffs = np.array(p.monic().coeffs, dtype=complex)  # the sums are divided by lead at the end
    if not coeffs.imag.any():
        coeffs = coeffs.real  # real arithmetic for real coefficients: same values up to rounding
    desc = coeffs[::-1]
    radius = _fujiwara_radius(coeffs)
    if not HEAD_RADII * radius <= max(n_terms, _MAX_AUTO_HEAD):
        raise SeriesError(
            f"roots of modulus up to {radius:.3e} need an oracle head of "
            f"{HEAD_RADII * radius:.3e} terms; pass that many as the oracle size"
        )
    N = max(n_terms, math.ceil(HEAD_RADII * radius))

    n = np.arange(1.0, N + 1)
    values = _horner(desc, np.array([n, -n]))  # P(n), P(-n)
    # An integer beyond radius + 1 is at least 1 from every root, so its
    # Newton step |P/P'| is at least 1/m: only the nearer ones can be refused.
    near = min(N, int(radius) + 1)
    x = np.concatenate(([0.0], n[:near], -n[:near]))
    at_x = np.concatenate(([coeffs[0]], values[0, :near], values[1, :near]))
    slope = _horner(desc[:-1] * np.arange(m, 0, -1), x)  # P'
    hit = np.abs(at_x) <= INTEGER_ROOT_TOL * np.abs(slope)
    if hit.any():
        i = int(np.argmax(hit))
        step = at_x[i] / slope[i] if at_x[i] != 0 else 0.0
        raise IntegerRootError(complex(x[i] - step), float(abs(step)))

    inv = 1 / values
    # P~(|n|) / |P(+-n)|^2 with P~(x) = sum |a_i| x^i: at least 1/|P|, and the
    # Horner error of P is at most about 3m eps P~ (complex arithmetic)
    weight = ((_horner(np.abs(desc), n) * np.abs(inv)) * np.abs(inv)).sum(axis=0)
    pairs = (inv[0] + inv[1], inv[0] - inv[1])  # by parity of k
    sign = np.ones(N)
    sign[::2] = -1.0  # (-1)**n
    head = np.zeros((m, 2), dtype=complex)
    size = np.empty(m)
    power = np.ones(N)
    for k in range(m):
        t = power * pairs[k % 2]
        head[k] = t.sum(), (t * sign).sum()
        size[k] = power @ weight
        power *= n
    head[0] += 1 / coeffs[0]  # n = 0; 0**0 == 1
    size[0] += 1 / abs(coeffs[0])
    k = np.arange(m)
    # Horner, then the reciprocal, n^k, the pair and a pairwise sum of depth <= 20 + log2 N
    head_error = _EPS * (3 * m + k + 31 + math.log2(N)) * size

    # Tail.  P(n) = n^m q(sigma/n) with q(t) = sum_i beta_i t^i and
    # sigma = N + 1, so t <= 1 on the tail, and 1/P has the Laurent
    # coefficients d_j = sigma^j c_j for 1/q(t) = sum_j c_j t^j.
    sigma = N + 1.0
    beta = desc / sigma ** np.arange(m + 1)
    unit = 2 * sigma ** (k + 1.0 - m)  # the pair's 2 times sigma^j / sigma^(s-1)
    # Cauchy: on |t| = g with q~(g) = 1 - sum_(i>=1) |beta_i| g^i > 0,
    # |1/q| <= 1/q~(g) =: cauchy, so |c_j| <= cauchy g^-j, and past J terms
    # 1/q leaves at most factor (t/g)^J, factor = cauchy / (1 - 1/g).  With
    # sum_(n>=sigma) n^-p <= sigma^-p (1 + sigma/(p-1)) the Laurent remainder
    # of sum k is at most unit factor g^-J (1/sigma + 1/(m+J-k-1)).  g = 2
    # always qualifies, as sigma >= HEAD_RADII radii.  J is the fewest terms
    # that bring this below eps times the head size, at the g needing fewest.
    # Every root is within sigma/4, so |P(n)| <= (1.5 n)^m for n >= N/2, the
    # head size is at least unit / (4 1.5^m), and J <= 72 at degree 24.
    g = 2.0 ** np.arange(1, 13)
    q_low = 1 - g * _horner(np.abs(beta[:0:-1]), g)
    g, cauchy = g[q_low > 0], 1 / q_low[q_low > 0]
    factor = cauchy / (1 - 1 / g)
    needed = np.log(2 * factor[:, None] * (unit / size / _EPS)) / np.log(g)[:, None]  # 2 >= 1/sigma + 1
    best = int(np.argmin(needed.max(axis=1)))
    J = max(1, math.ceil(needed[best].max()))
    g, cauchy, factor = g[best], cauchy[best], factor[best]

    c = np.zeros(J, dtype=beta.dtype)
    c[0] = 1.0
    for j in range(1, J):
        i = min(j, m)
        c[j] = -(beta[1:i + 1] @ c[j - 1::-1][:i])

    # sigma^(s-1) zeta(s, N+1) and sigma^(s-1) 2^-s (zeta(s, e/2) - zeta(s, o/2))
    # from a^(s-1) zeta(s, a) at a = N + 1, e/2 and o/2
    e, o = (N + 2, N + 1) if N % 2 == 0 else (N + 1, N + 2)
    s = np.arange(2, m + J)[:, None]
    z, z_error = _hurwitz_zeta(s, np.array([sigma, e / 2, o / 2]))
    rescale = (sigma / np.array([sigma, e, o])) ** (s - 1.0)
    mix = np.array([[1.0, 0.0], [0.0, 0.5], [0.0, -0.5]])
    pad = np.zeros((2, 2))  # s = 0 and 1 never survive
    zeta = np.concatenate([pad, (z * rescale) @ mix])
    zeta_size = np.concatenate([pad, (z * rescale) @ np.abs(mix)])
    zeta_error = np.concatenate([pad, (z_error * rescale) @ np.abs(mix)])

    exponent = m + np.arange(J) - k[:, None]  # s by k and j
    surviving = exponent % 2 == 0
    tail = unit[:, None] * (np.where(surviving, c, 0)[..., None] * zeta[exponent]).sum(axis=1)
    # |c_j| <= cauchy g^-j, and its recurrence adds at most about m (j+1) cauchy^2 g^-j eps
    majorant = np.where(surviving, cauchy * g ** -np.arange(J, dtype=float), 0)
    rounding = _EPS * (m + 4) * (J + 4) * cauchy
    tail_error = unit[:, None] * (
        (factor * g ** -J * (1 / sigma + 1 / (m + J - k - 1)))[:, None]
        + (majorant[..., None] * (zeta_error[exponent] + rounding * zeta_size[exponent])).sum(axis=1))

    estimate = (head + tail) / lead
    error = (head_error[:, None] + tail_error) / abs(lead)

    def as_tuples(col):
        return tuple((complex(v), float(b)) for v, b in zip(estimate[:, col], error[:, col]))

    return as_tuples(0), as_tuples(1)


@dataclass(frozen=True)
class SeriesResult:
    """Closed-form sums with oracle estimates; index k matches the power of n."""

    A: tuple  # sum over all integers of n**k / P(n)
    B: tuple  # same with alternating sign (-1)**n
    oracle_A: tuple  # (estimate, error_bar) pairs
    oracle_B: tuple
    condition_estimate: float


def evaluate_sums(p: Polynomial, oracle_n: int = MIN_ORACLE_N, run_oracle: bool = True) -> SeriesResult:
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

"""Closed-form evaluation of sum(n**k / P(n)) and sum((-1)**n n**k / P(n)) over all integers.

Route: boundary functions R_l built from the exponential-sum system of P, their
Fourier data packed into the associated matrix C(P), and a linear solve against
the boundary values: one LAPACK LU of C(P) (``linalg.solve``) gives the sums
and the condition estimate, and an estimate whose product with eps is not
below 1 raises :class:`DegenerateMatrixError`.  Every output is cross-checked
by an oracle that needs no roots: the terms |n| <= N summed directly, the rest
summed exactly as Hurwitz zeta values of the Laurent series of 1/P at
infinity, with an error bar that bounds the Laurent remainder, the
Euler-Maclaurin remainder and the roundoff.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gentrig, linalg
from .gentrig import _NUMBER, GenTrigSystem, _check_index, _integer, deflation_matrix, make_system
from .poly import _EPS, _EXPONENTS, MAX_DEGREE, Polynomial

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

#: the Cauchy radii g = 2, 4, ..., 2^12 the oracle tail tries, their
#: logarithms, and their powers g^i for i = 1..MAX_DEGREE, one row per g
_RADII = 2.0 ** np.arange(1, 13)
_LOG_RADII = np.log(_RADII)
_RADII_POWERS = _RADII[:, None] ** np.arange(1, MAX_DEGREE + 1)

#: 0, -1, 1, -1, ...: entry i is (-1)^i, but 0 at i = 0
_SIGNS = np.append(0.0, (-1.0) ** np.arange(1, MAX_DEGREE))
_SIGNS.setflags(write=False)

#: 1/i for i = 1..MAX_DEGREE, the exponents of Fujiwara's bound
_ROOT_EXPONENTS = 1 / np.arange(1, MAX_DEGREE + 1)

#: (-1)^k for k = 0..MAX_DEGREE, the signs of the plain and alternating sums,
#: and the rows that take x, y to x + y and x - y
_ALTERNATING = (-1.0) ** _EXPONENTS
_PLUS_MINUS = np.array([1.0, -1.0])
_PAIR_MIX = np.array([[1.0, 1.0], [1.0, -1.0]])

#: the oracle head walks n = 1..N in blocks of at most this many integers; it
#: is even, so n has one parity at a given column of every block, and a
#: block's power matrix holds (m + 1) 2^14 floats, 3.3 MB at degree 24
_HEAD_BLOCK = 2 ** 14

TWO_PI_I = 2j * math.pi

#: pi, -pi and 0: the boundary points of the R_l weights and the sums' right-hand
#: sides, read-only
_BOUNDARY_POINTS = np.array([math.pi, -math.pi, 0.0])
_BOUNDARY_POINTS.setflags(write=False)

#: the oracle fields of sums without the oracle: (nan, inf) for each power k
_NO_ORACLE = ((complex(math.nan, math.nan), math.inf),) * MAX_DEGREE


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
    """C(P) is singular to working precision: its condition estimate times eps
    is not below 1 (nan included; inf on an exact zero pivot), so the solve's
    non-degeneracy hypothesis fails."""

    def __init__(self, condition_estimate: float):
        super().__init__(f"associated matrix C(P) is singular to working precision "
                         f"(condition estimate {condition_estimate:.3e}); the "
                         "closed-form solve would return no correct digits")
        self.condition_estimate = condition_estimate


class CrossCheckError(SeriesError, ArithmeticError):
    """The two routes to C(P) disagree: the roots, T and P are inconsistent."""


def _check_roots(sys: GenTrigSystem):
    distance = np.abs(sys.r - np.rint(sys.r.real))
    j = int(distance.argmin())
    if distance[j] < INTEGER_ROOT_TOL:
        raise IntegerRootError(complex(sys.r[j]), float(distance[j]))


def _boundary_weights(sys: GenTrigSystem, E: np.ndarray) -> np.ndarray:
    """T / (exp(-i r pi) - exp(i r pi)), the R_l weights, from rows 0 and 1 of E,
    the exponentials at pi and -pi."""
    return sys.T / (E[0] - E[1])


#: the empty row slot: no argument is this object
_NO_ROW = (object(), None)


def eval_R(sys: GenTrigSystem, l: int, x: complex) -> complex:
    """R_l(x) = sum_j T[l][j] exp(-i r_j x) / (exp(-i r_j pi) - exp(i r_j pi)).

    The system keeps the ``(x, row)`` of the last scalar x in its ``"R_row"``
    slot.  A call at the very object x of the slot (``is``, so ``-0.0`` never
    meets ``0.0``'s row, nor an int a complex's) reads its entry, a Python
    complex; any other scalar takes the whole row E(x) @ W.T and replaces the
    slot in one assignment.  An array of x gives an array, from its own
    product with W[l] (a 0-d array gives a complex); no array or raising call
    is stored.
    """
    if type(l) is not int or not 0 <= l < sys.m:
        l = _check_index(sys.m, l)
    last = sys.__dict__.get("R_row", _NO_ROW)  # set only after the weights
    if last[0] is x:
        return last[1][l]
    W = sys.__dict__.get("boundary_weights")  # once per system
    if W is None:
        _check_roots(sys)
        E = gentrig._guarded_exp(_BOUNDARY_POINTS[:2], sys)
        W = sys.__dict__.setdefault("boundary_weights", _boundary_weights(sys, E))
    E = gentrig._guarded_exp(x, sys)
    if not isinstance(x, _NUMBER):
        value = E @ W[l]
        return value if value.ndim else complex(value)
    row = (E @ W.T).tolist()
    sys.__dict__["R_row"] = (x, row)
    return row[l]


def fourier_coefficient(sys: GenTrigSystem, l: int, n: int) -> complex:
    """Closed-form Fourier coefficient of R_l at an integer n (else :class:`SeriesError`):
    (-1)^n/(2 pi i) sum_j T[l][j]/(n - r_j)."""
    l = _check_index(sys.m, l)
    n = _integer(n, "Fourier index", SeriesError)
    _check_roots(sys)
    return ((-1) ** n) * sys.T[l].dot(1 / (n - sys.r)) / TWO_PI_I


@dataclass(frozen=True)
class AssociatedMatrix:
    """C[l][k] with columns in ascending powers of n; the condition estimate of its solve."""

    m: int
    C: np.ndarray
    condition_estimate: float


def _cross_checked_C(sys: GenTrigSystem) -> np.ndarray:
    """C(P) by two independent routes, cross-checked entrywise.

    Route 1 is T Q for the deflated quotients Q of P; route 2 uses the Vieta
    substitution directly on the T grid.  A gap beyond 1e3 m eps max|C| means
    the inputs are inconsistent and raises :class:`CrossCheckError`.  An
    integer root raises first (:func:`_check_roots`).
    """
    _check_roots(sys)
    m, T = sys.m, sys.T
    C1 = T.dot(deflation_matrix(sys.poly, sys.r))
    signs = _SIGNS[m - 1::-1]  # (-1)^(m-k-1), none at k = m-1
    C2 = np.add.reduce(T, axis=1)[:, None] * sys.poly.coeffs[1:] - T.dot(T[::-1].T) * signs
    mismatch = float(np.maximum.reduce(np.abs(C1 - C2), axis=None))
    bound = 1e3 * m * _EPS * float(np.maximum.reduce(np.abs(C1), axis=None))
    if not mismatch <= bound:
        raise CrossCheckError(
            f"associated-matrix cross-check failed (entrywise gap {mismatch:.3e} "
            f"> {bound:.3e})"
        )
    return C1 / TWO_PI_I


def associated_matrix(sys: GenTrigSystem) -> AssociatedMatrix:
    """C(P), cross-checked by two routes, with the condition estimate of its solve."""
    C = _cross_checked_C(sys)
    return AssociatedMatrix(sys.m, C, linalg.solve(C)[1])


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
    terms = _BERNOULLI * np.multiply.accumulate(ratio, axis=-1) / (s[..., None] - 1)
    body = np.add.reduce(terms[..., :-1], axis=-1)
    return 1 / (s - 1) + 1 / (2 * a) + body, np.abs(terms[..., -1])


def _fujiwara_radius(monic: np.ndarray) -> float:
    """Fujiwara's root-free bound 2 max |b_(m-i)|^(1/i), b_0 halved, on every |root|."""
    c = np.abs(monic[-2::-1])  # |b_(m-1)|, ..., |b_0|
    c[-1] /= 2
    return 2 * float(np.maximum.reduce(c ** _ROOT_EXPONENTS[:len(c)]))


def _cauchy_floor(size: np.ndarray) -> np.ndarray:
    """q~(g) = 1 - sum_i |beta_i| g^i at each radius g, from ``size`` = |beta_i|
    for i = 1..m, less (m + 3) eps (1 + sum): an allowance for the rounding of
    |beta_i| (an ulp), of the sum (gamma_m of it) and of the differences, so
    that q~ is a lower bound."""
    total = _RADII_POWERS[:, :len(size)].dot(size)
    return 1 - total - (len(size) + 3) * _EPS * (1 + total)


@functools.lru_cache(maxsize=64)
def _tail_operators(N: int, m: int, J: int):
    """The oracle tail as operators on the J Laurent coefficients, at head size N
    and degree m.

    With sigma = N + 1, the zeta factors of an exponent s are
    sigma^(s-1) zeta(s, N+1) and sigma^(s-1) 2^-s (zeta(s, e/2) - zeta(s, o/2))
    for the first even e and odd o above N, from a^(s-1) zeta(s, a)
    (:func:`_hurwitz_zeta`).  With those at s = m + j - k, only the even ones
    surviving, and unit[k] = 2 sigma^(k+1-m), returns
    ``(Z, Z_size, Z_error, remainder)``: Z[k, :, j] is unit[k] times the zeta
    factors (zero for an odd exponent), so that the tail sums are Z @ c,
    Z_size and Z_error the same from the moduli and the Euler-Maclaurin
    bounds, each ``(m, 2, J)``, and ``remainder`` the ``(m, 1)`` column
    unit[k] (1/sigma + 1/(m+J-k-1)) of the Laurent remainder.  All four are
    read-only.  They depend on N, m and J alone; at degree 24 (J <= 72) an
    entry holds at most about 83 KB, so the memo of 64 entries holds at most
    about 5.3 MB.
    """
    sigma = N + 1.0
    e, o = (N + 2, N + 1) if N % 2 == 0 else (N + 1, N + 2)
    s = np.arange(2, m + J)[:, None]  # s = 0 and 1 never survive: zero rows
    z, z_error = _hurwitz_zeta(s, np.array([sigma, e / 2, o / 2]))
    rescale = (sigma / np.array([sigma, e, o])) ** (s - 1.0)
    mix = np.array([[1.0, 0.0], [0.0, 0.5], [0.0, -0.5]])
    tables = [np.concatenate([np.zeros((2, 2)), a.dot(b)]) for a, b in (
        (z * rescale, mix), (z * rescale, np.abs(mix)), (z_error * rescale, np.abs(mix)))]
    k = np.arange(m)
    unit = 2 * sigma ** (k + 1.0 - m)
    exponent = m + np.arange(J) - k[:, None]  # s by k and j
    scale = (unit[:, None] * (exponent % 2 == 0))[:, None, :]
    operators = tuple(scale * table[exponent].transpose(0, 2, 1) for table in tables)
    remainder = (unit * (1 / sigma + 1 / (m + J - k - 1)))[:, None]
    for array in operators + (remainder,):
        array.setflags(write=False)
    return operators + (remainder,)


def _exact_value(coeffs, n: int) -> complex:
    """P(n) / a_m correctly rounded, for ascending ``coeffs`` and an integer n, or
    :class:`IntegerRootError` naming n - P(n)/P'(n) if |P(n)| <= INTEGER_ROOT_TOL
    |P'(n)|.  Exact: 2^1074 x is an int for every float x, so 2^1074 P(n) and
    2^1074 P'(n) are (real, imaginary) pairs of ints."""
    def quotient(u, w):  # u / w for such pairs, each part correctly rounded (int / int is)
        q = w[0] * w[0] + w[1] * w[1]
        return complex((u[0] * w[0] + u[1] * w[1]) / q, (u[1] * w[0] - u[0] * w[1]) / q)

    ratios = [x.as_integer_ratio() for c in coeffs for x in (c.real, c.imag)]
    parts = [[num * (2 ** 1074 // den) for num, den in ratios[i::2]] for i in (0, 1)]
    value = [sum(c * n ** k for k, c in enumerate(part)) for part in parts]
    slope = [sum(k * c * n ** (k - 1) for k, c in enumerate(part) if k) for part in parts]
    num, den = INTEGER_ROOT_TOL.as_integer_ratio()
    if (value[0] ** 2 + value[1] ** 2) * den ** 2 <= num ** 2 * (slope[0] ** 2 + slope[1] ** 2):
        step = quotient(value, slope) if any(value) else 0j
        raise IntegerRootError(n - step, abs(step))
    return quotient(value, [part[-1] for part in parts])


def _parity_sums(powers: np.ndarray, pairs: np.ndarray, out=None) -> tuple:
    """The sums over even and over odd n of t = powers * pairs, in k order:
    ``powers`` holds n^k as (k even, k odd) row pairs over a block that starts
    at an odd n, ``pairs`` the pair terms by parity of k.  Each sum is a numpy
    pairwise sum along the contiguous n axis, taken with stride 2."""
    t = np.multiply(powers, pairs, out=out)
    return np.add.reduce(t[..., 1::2], axis=-1).ravel(), np.add.reduce(t[..., ::2], axis=-1).ravel()


def _pairwise_sum(parts: list) -> tuple:
    """The entrywise sum of a list of equal tuples of arrays, as a balanced
    tree: each term passes through at most ceil(log2 len(parts)) additions."""
    while len(parts) > 1:
        odd = parts[len(parts) // 2 * 2:]
        parts = [tuple(a + b for a, b in zip(x, y)) for x, y in zip(parts[::2], parts[1::2])] + odd
    return parts[0]


def brute_force_sums(p: Polynomial, n_terms: int = MIN_ORACLE_N):
    """Independent oracle for all 2m sums: an exact head and a summed asymptotic tail.

    Head: the terms n = -N..N, where N is ``n_terms`` raised to ``HEAD_RADII``
    Fujiwara root radii, walked in blocks of at most ``_HEAD_BLOCK`` integers,
    so the memory it holds is one block whatever N is.  In a block, the power
    matrix V[k, i] = n_i^k (a running product) times the rows a_k, (-1)^k a_k
    and |a_k| (real and imaginary parts apart for complex P) gives P(n), P(-n)
    and P~(n) = sum |a_i| n^i in one product.  The pair term
    n^k (1/P(n) + (-1)^k / P(-n)) serves every power k and both signs: its
    sums over even and over odd n are two strided numpy pairwise sums, the
    plain sum is even + odd and the alternating one even - odd, and the block
    partials add up as a balanced tree.

    Head roundoff, in units of size_k = sum n^k P~(n) / |P(+-n)|^2 >= sum
    n^k / |P(+-n)|: the powers n^k carry at most k - 1 roundings, so the dot
    product with the coefficients is within gamma_2m P~(n) <= 3m eps P~(n) of
    P(n) (for complex P each of the real and imaginary parts is within
    gamma_2m of its own sum of moduli, and the two add in quadrature to at
    most P~).  The reciprocal, the pair and its product with n^k add a few eps.
    A numpy pairwise sum of h terms passes each term through at most
    18 + log2 h additions; with the sum over half a block of b <=
    ``_HEAD_BLOCK`` terms, the even +- odd and the tree over ceil(N / b)
    blocks, a head term passes through at most 18 + log2 N.  So the bound
    eps (3m + k + 31 + log2 N) size_k still covers the head.

    Tail: for n > N, 1/P(n) = n^-m sum_j d_j n^-j, with d the power-series
    inverse of the reversed coefficients of P.  In a pair term only the even
    exponents s = m + j - k >= 2 survive, each twice.  Summed over n > N,
    n^-s gives the Hurwitz zeta value zeta(s, N+1), and (-1)^n n^-s gives
    2^-s (zeta(s, e/2) - zeta(s, o/2)) for the first even e and odd o above N.
    Those zeta factors, the mask and the scale of each sum form operators on
    the J Laurent coefficients (:func:`_tail_operators`), the same for every
    polynomial of this degree, head and J.

    The error bar is a bound, the sum of: a Cauchy estimate of the Laurent
    remainder, the Euler-Maclaurin remainder of the zeta values and the
    roundoff of head and tail.  Returns ``(oracle_A, oracle_B)``, each a tuple
    of ``(estimate, error_bar)`` pairs indexed by k.  A degree below 1, an
    ``n_terms`` that is not an integer (a bool included) or is below
    ``MIN_ORACLE_N``, and roots too large for a head of ``max(n_terms,
    _MAX_AUTO_HEAD)`` terms raise :class:`SeriesError`.  An integer n with
    |P(n)| <= ``INTEGER_ROOT_TOL`` |P'(n)|, decided exactly where a float screen
    says it could hold (:func:`_exact_value`), raises :class:`IntegerRootError`
    naming n - P(n)/P'(n), for the first such n in the order 0, 1, -1, 2, -2, ...;
    a screened n that is not refused enters the head with its exact P(n).
    """
    n_terms = _integer(n_terms, "oracle size", SeriesError)
    if n_terms < MIN_ORACLE_N:
        raise SeriesError(
            f"oracle size {n_terms} is below {MIN_ORACLE_N}; "
            f"its zeta tail would lose precision"
        )
    if p.degree < 1:
        raise SeriesError("the oracle needs a polynomial of degree at least 1")
    m, lead = p.degree, p.coeffs[-1]
    coeffs = np.array(p.monic().coeffs, dtype=complex)  # the sums are divided by lead at the end
    real = not coeffs.imag.any()
    if real:
        coeffs = coeffs.real  # real arithmetic for real coefficients: same values up to rounding
    radius = _fujiwara_radius(coeffs)
    if not HEAD_RADII * radius <= max(n_terms, _MAX_AUTO_HEAD):
        raise SeriesError(
            f"roots of modulus up to {radius:.3e} need an oracle head of "
            f"{HEAD_RADII * radius:.3e} terms; pass that many as the oracle size"
        )
    N = max(n_terms, math.ceil(HEAD_RADII * radius))

    rows = np.array([coeffs, _ALTERNATING[:m + 1] * coeffs, np.abs(coeffs)])  # P(n), P(-n), P~(n)
    if not real:
        rows = np.concatenate((rows.real, rows.imag[:2]))  # real rows, imaginary parts last
    # An integer beyond radius + 1 is at least 1 from every root, so its
    # Newton step |P/P'| is at least 1/m: only the nearer ones can be refused.
    # For n >= 1, |P'(+-n)| <= m P~(n), so the exact test can fire only where
    # |P(+-n)| <= tol m P~(n) (a factor 2 covers the roundoff).
    if abs(coeffs[0]) <= 2 * INTEGER_ROOT_TOL * abs(coeffs[1]):  # n = 0: P = a_0, P' = a_1
        _exact_value(p.coeffs, 0)
    near = min(N, int(radius) + 1)
    even_rows = m + m % 2  # the powers k < m, and n^m for odd m, as (k even, k odd) row pairs
    parts = []
    for start in range(0, N, _HEAD_BLOCK):  # start is even, so n = start + 1 + i is odd at even i
        n = np.arange(start + 1.0, min(start + _HEAD_BLOCK, N) + 1)
        V = np.empty((m + 1, len(n)))
        V[0] = 1.0
        V[1] = n
        for k in range(2, m + 1):  # one multiply per row: accumulate along k is 4x slower
            np.multiply(V[k - 1], n, out=V[k])
        Y = rows.dot(V)
        values = Y[:2] if real else Y[:2] + 1j * Y[3:]  # P(n), P(-n)
        bound = Y[2]  # P~(n)
        below = max(near - start, 0)  # the integers of the block below near
        screen = np.abs(values[:, :below]) <= 2 * m * INTEGER_ROOT_TOL * bound[:below]
        exact = []  # an exact P(+-n) is within eps |P| of P: its weight below is 1/|P|
        for i, sign in zip(*np.nonzero(screen.T)):  # in the order 1, -1, 2, -2, ...
            value = _exact_value(p.coeffs, (start + 1 + int(i)) * (1 - 2 * int(sign)))
            values[sign, i] = value.real if real else value  # P(x) / lead, as in rows
            exact.append((sign, i, 1 / (abs(value) * bound[i])))

        inv = 1 / values
        size_inv = np.square(inv if real else np.abs(inv))
        for sign, i, weight in exact:
            size_inv[sign, i] = weight
        # P~(n) / |P(+-n)|^2 over both signs: at least 1/|P|, and the error of P
        # is at most 3m eps P~
        weight = (size_inv[0] + size_inv[1]) * bound
        pairs = _PAIR_MIX.dot(inv)  # by parity of k: 1/P(n) +- 1/P(-n), one rounding each
        size = V[:m].dot(weight)
        powers = V[:even_rows].reshape(-1, 2, len(n))
        if real:
            even, odd = _parity_sums(powers, pairs, out=powers)  # V is not read again
        else:  # two real products: a complex t would take twice the memory of V
            even, odd = _parity_sums(powers, pairs.real)
            even_im, odd_im = _parity_sums(powers, pairs.imag, out=powers)
            even, odd = even + 1j * even_im, odd + 1j * odd_im
        parts.append((even, odd, size))
    even, odd, size = _pairwise_sum(parts)
    head = even[:m, None] + odd[:m, None] * _PLUS_MINUS  # (-1)^n: even - odd
    head[0] += 1 / coeffs[0]  # n = 0; 0**0 == 1
    size[0] += 1 / abs(coeffs[0])
    k = _EXPONENTS[:m]
    head_error = (3 * m + 31 + math.log2(N) + k) * (_EPS * size)

    # Tail.  P(n) = n^m q(sigma/n) with q(t) = sum_i beta_i t^i and
    # sigma = N + 1, so t <= 1 on the tail, and 1/P has the Laurent
    # coefficients d_j = sigma^j c_j for 1/q(t) = sum_j c_j t^j.
    sigma = N + 1.0
    beta = coeffs[::-1] / sigma ** _EXPONENTS[:m + 1]
    unit = 2 * sigma ** (k + 1.0 - m)  # the pair's 2 times sigma^j / sigma^(s-1)
    # Cauchy: on |t| = g with q~(g) = 1 - sum_(i>=1) |beta_i| g^i > 0,
    # |1/q| <= 1/q~(g) =: cauchy, so |c_j| <= cauchy g^-j, and past J terms
    # 1/q leaves at most factor (t/g)^J, factor = cauchy / (1 - 1/g).  With
    # sum_(n>=sigma) n^-p <= sigma^-p (1 + sigma/(p-1)) the Laurent remainder
    # of sum k is at most unit factor g^-J (1/sigma + 1/(m+J-k-1)).  g = 2
    # always qualifies, as sigma >= HEAD_RADII radii.  J is the fewest terms
    # that bring this below eps times the head size, at the g needing fewest;
    # only the largest unit / size over k matters, as the rest is monotone.
    # Every root is within sigma/4, so |P(n)| <= (1.5 n)^m for n >= N/2, the
    # head size is at least unit / (4 1.5^m), and J <= 72 at degree 24.
    q_low = _cauchy_floor(np.abs(beta[1:]))
    ok = q_low > 0
    g, cauchy = _RADII[ok], 1 / q_low[ok]
    factor = cauchy / (1 - 1 / g)
    worst = np.maximum.reduce(unit / size)
    needed = np.log(2 * factor * (worst / _EPS)) / _LOG_RADII[ok]  # 2 >= 1/sigma + 1
    best = int(needed.argmin())
    J = max(1, math.ceil(needed[best]))
    g, cauchy, factor = float(g[best]), float(cauchy[best]), float(factor[best])

    c = np.zeros(J, dtype=beta.dtype)
    c[0] = 1.0
    for j in range(1, J):
        i = min(j, m)
        c[j] = -beta[1:i + 1].dot(c[j - 1::-1][:i])

    Z, Z_size, Z_error, remainder = _tail_operators(N, m, J)
    tail = Z @ c
    # |c_j| <= cauchy g^-j, and its recurrence adds at most about m (j+1) cauchy^2 g^-j eps
    majorant = cauchy * g ** -np.arange(J, dtype=float)
    rounding = _EPS * (m + 4) * (J + 4) * cauchy
    tail_error = factor * g ** -J * remainder + (Z_error + rounding * Z_size) @ majorant

    estimate = ((head + tail) / lead).T.tolist()
    error = ((head_error[:, None] + tail_error) / abs(lead)).T.tolist()
    return tuple(zip(estimate[0], error[0])), tuple(zip(estimate[1], error[1]))


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
    fields hold ``(nan, inf)`` and ``oracle_n`` is unused.  One LU of C(P)
    gives the sums and the condition estimate; the one refusal of the solve,
    an estimate whose product with eps is not below 1 (singular to working
    precision, nan and inf included), raises :class:`DegenerateMatrixError`
    carrying the estimate.
    """
    if p.degree < 2:
        raise SeriesError("degree must be at least 2 for the sums to converge")
    sys = make_system(p)
    lead = p.coeffs[-1]  # solve against the monic system, then undo the scaling
    C = _cross_checked_C(sys)
    E = sys.exponentials(_BOUNDARY_POINTS)  # the weights need pi and -pi
    R = E.dot(_boundary_weights(sys, E).T)
    R[0] += R[1]
    R[0] /= 2  # the boundary average (R(pi) + R(-pi)) / 2
    AB, cond = linalg.solve(C, R[0::2].T)
    if not cond * _EPS < 1:
        raise DegenerateMatrixError(cond)
    A, B = AB.T / lead

    if run_oracle:
        oracle_a, oracle_b = brute_force_sums(p, oracle_n)
    else:
        oracle_a = oracle_b = _NO_ORACLE[:sys.m]
    return SeriesResult(tuple(map(complex, A)), tuple(map(complex, B)), oracle_a, oracle_b, cond)

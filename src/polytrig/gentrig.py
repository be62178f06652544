"""Exponential-sum trigonometric systems of a polynomial.

Given P with roots r_1..r_m, builds the coefficient grid T[l][j], evaluates
the m functions S_l(x) = sum_j T[l][j] exp(-i r_j x), their Taylor data, the
derivative matrix K with S' = K S, and constant-determinant identity
certificates among the S_l.
"""
from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .poly import (MAX_DEGREE, Polynomial, PolynomialError, RootFindingError, RootSet,
                   _expand_roots, _measure, _powers, find_roots)

#: per-term bound on the modulus of the real part of every exponent taken
EXP_GUARD = 700.0

#: threshold of the kernel's bound test max|x|*rho, below EXP_GUARD by the
#: roundoff of |x|, rho, their product and the complex product -i r_j x, so the
#: test never passes an exponent whose computed real part exceeds EXP_GUARD
_BOUND_GUARD = EXP_GUARD * (1 - 8 * np.finfo(float).eps)

#: scalar arguments, which take the kernel's path without array conversion
_NUMBER = (complex, float, int, np.number)


class GenTrigError(ValueError):
    pass


class ArgumentOverflowError(GenTrigError):
    """Evaluation would overflow ``exp``; names the offending root."""

    def __init__(self, root: complex, x: complex):
        super().__init__(
            f"argument {x} overflows the exponential for root {root} "
            f"(real part of the exponent beyond +-{EXP_GUARD:g})"
        )
        self.root = root


class CertificateUnavailableError(GenTrigError):
    pass


@functools.lru_cache(maxsize=MAX_DEGREE)
def _gathers(m: int):
    """Read-only index arrays of degree m into the coefficients a_0..a_m
    followed by m - 1 zeros, and their negatives after that.

    ``hankel[t, k] = t + k + 1`` (a_(t+k+1), zero past a_m) for t, k in
    0..m-1; ``toeplitz[l-1, s-1]`` for l, s in 1..m-1 is a_(m-l+s) signed
    (-1)^(l-1), zero for s > l.  The memo holds one entry per degree.
    """
    t = np.arange(m)
    hankel = t[:, None] + t + 1
    l, s = t[1:, None], t[1:]
    toeplitz = np.where(s <= l, m - l + s + (l % 2 == 0) * 2 * m, m + 1)
    for index in (hankel, toeplitz):
        index.setflags(write=False)
    return hankel, toeplitz


def deflation_matrix(p: Polynomial, roots) -> np.ndarray:
    """Q[j, k]: coefficient of x^k in P(x) / (x - r_j), that is
    sum_(i>k) a_i r_j^(i-k-1): the powers r_j^t (t = 0..m-1) times the
    Hankel matrix of a_1..a_m, one product for all roots."""
    r = np.asarray(roots, dtype=complex)
    m = p.degree
    return _powers(r, m).dot(np.array(p.coeffs + (0j,) * (m - 1))[_gathers(m)[0]])


def tuple_coefficients(roots: RootSet) -> np.ndarray:
    """The m-by-m grid T[l][j] of the monic polynomial with these roots.

    Row 0 is all ones; row l >= 1 holds r_j times the elementary symmetric
    function of order l-1 of the other roots, (-1)^(l-1) times the
    coefficient of x^(m-l) in the deflated quotient of the monic P rebuilt
    from the roots by (x - r_j): sum_(s=1..l) a_(m-l+s) r_j^s.  So
    T[1:] = signs * (Toeplitz matrix of a) @ (r_j^s, s = 1..m-1), one product
    for all roots.  A rebuilt coefficient that is not finite raises
    :class:`PolynomialError`.
    """
    rs = tuple(roots)
    m = len(rs)
    T = np.empty((m, m), dtype=complex)
    T[0] = 1
    if m > 1:
        a = _expand_roots(rs)
        if not all(map(cmath.isfinite, a)):
            raise PolynomialError("a coefficient rebuilt from the roots is not finite")
        signed = np.array(a + [0j] * (m - 1) + [-c for c in a])
        T[1:] = signed[_gathers(m)[1]].dot(_powers(np.array(rs), m)[:, 1:].T)
    return T


def derivative_matrix(p: Polynomial) -> np.ndarray:
    """The banded m-by-m matrix K with S' = K S, from the monic coefficients."""
    m = p.degree
    if m < 2:
        raise GenTrigError("derivative matrix needs degree at least 2")
    a = np.array(p.monic().coeffs, dtype=complex)
    K = np.zeros((m, m), dtype=complex)
    K.flat[1::m + 1] = 1j  # K[l, l + 1]
    K[0, 1] = -1j
    K[1:, 1] = (-1.0) ** np.arange(2, m + 1) * 1j * a[m - 1:0:-1]  # (-1)^(l+1) i a_(m-l)
    K[m - 1, 0] = ((-1) ** m) * 1j * a[0]
    return K


@dataclass(frozen=True, eq=False)
class GenTrigSystem:
    """Monic polynomial, its roots and the T grid, with the functions
    S_l(x) = sum_j T[l][j] exp(-i r_j x), for l = 0..m-1; it keeps per-object
    caches, so it compares and hashes by identity.

    Set once at construction: ``m``, the roots ``r`` as an array in the
    column order of T, the exponent rates ``minus_ir`` = -i r and the root
    radius ``radius`` = max |r_j|.  The derivative matrix ``K`` is built on
    first use.
    """

    poly: Polynomial
    roots: RootSet
    T: np.ndarray = field(repr=False)

    def __post_init__(self):
        r = np.array(self.roots.roots, dtype=complex)
        put = functools.partial(object.__setattr__, self)
        put("m", self.poly.degree)
        put("r", r)
        put("minus_ir", -1j * r)
        put("radius", float(np.maximum.reduce(np.abs(r))))

    @functools.cached_property
    def K(self) -> np.ndarray:
        """The derivative matrix with S' = K S (:func:`derivative_matrix`); [-i r] at degree 1."""
        return derivative_matrix(self.poly) if self.m >= 2 else self.minus_ir[:, None].copy()

    def exponentials(self, x) -> np.ndarray:
        """E[..., j] = exp(-i r_j x) for a scalar x or an array of them (leading axes),
        a new array on every call."""
        return _guarded_exp(x, self)


def _guarded_exp(x, sys: GenTrigSystem) -> np.ndarray:
    """E[..., j] = exp(-i r_j x) for a scalar x or an array of them (leading axes).

    The one exponential kernel of the package.  Since |Re(-i r_j x)| <=
    |r_j| |x|, an argument set with max |x| * ``sys.radius`` within
    ``EXP_GUARD`` needs no further check.  Otherwise every exponent is
    scanned: the worst one past ``EXP_GUARD``, or a non-finite one, raises
    :class:`ArgumentOverflowError` naming its root and argument.
    """
    if isinstance(x, _NUMBER):
        # math.hypot, since abs() of a huge complex raises OverflowError
        if math.hypot(x.real, x.imag) * sys.radius <= _BOUND_GUARD:
            return np.exp(x * sys.minus_ir)
    else:
        x = np.asarray(x, dtype=complex)
        if float(np.maximum.reduce(np.abs(x), axis=None, initial=0.0)) * sys.radius <= _BOUND_GUARD:
            return np.exp(np.multiply.outer(x, sys.minus_ir))
    # the bound failed, or an argument is nan or infinite
    x = np.asarray(x, dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        z = np.multiply.outer(x, sys.minus_ir)
        size = np.abs(z.real)
    worst = size.argmax()  # the first nan, if any
    if not size.flat[worst] <= EXP_GUARD:
        *at, j = np.unravel_index(worst, size.shape)
        raise ArgumentOverflowError(complex(sys.r[j]), complex(x[tuple(at)]))
    return np.exp(z)


def _scalar(value):
    """The numpy scalar or array ``value`` as a Python complex, unless it is an
    array of points (not 0-d)."""
    return value if value.ndim else complex(value)


def make_system(p: Polynomial) -> GenTrigSystem:
    mon = p.monic()
    roots = find_roots(mon)
    return GenTrigSystem(mon, roots, tuple_coefficients(roots))


def from_roots(roots) -> GenTrigSystem:
    """System from explicitly known roots, bypassing the root finder; the root
    set's residual and backward error are those of ``poly._measure``.  A
    residual that is not finite (a power of a root overflows) raises
    :class:`poly.RootFindingError`.

    P is rebuilt from the roots in floating point, so the roots of x^m - c
    give a_1 .. a_(m-1) of roundoff size rather than zero, and the
    certificate takes its generic branch, not the exact one for x^m - c;
    for that identity, pass the polynomial to :func:`make_system` instead.
    """
    rs = tuple(sorted((complex(r) for r in roots), key=lambda r: (r.real, r.imag)))
    if not rs:
        raise GenTrigError("a system needs at least one root")
    mon = Polynomial.from_roots(rs)
    with np.errstate(all="ignore"):  # an overflow shows in the measurement
        residual, backward = _measure(np.array(rs), np.array(mon.coeffs))[2:]
    if not math.isfinite(residual):  # else the backward error, residual / scale, is finite
        raise RootFindingError(f"given roots: residual max|P(r)| = {residual:.3e} is not "
                               f"finite, a power of a root overflows", rs, residual)
    roots = RootSet(rs, residual, backward)
    return GenTrigSystem(mon, roots, tuple_coefficients(roots))


def _integer(n, what: str, error) -> int:
    """``n`` as an int; a bool or a non-integer raises ``error``."""
    if not isinstance(n, (bool, np.bool_)):
        try:
            return operator.index(n)
        except TypeError:
            pass
    raise error(f"{what} {n!r} is not an integer")


def _check_index(m: int, l, error=GenTrigError) -> int:
    """``l`` as a function index in 0..m-1; anything else raises ``error``.

    The hot paths test ``type(l) is int and 0 <= l < m`` inline and call this
    only when that test fails.
    """
    l = _integer(l, "function index", error)
    if not 0 <= l < m:
        raise error(f"function index {l} out of range 0..{m - 1}")
    return l


def eval_S(sys: GenTrigSystem, l: int, x: complex) -> complex:
    """S_l(x), entry l of :func:`eval_S_vector`; an array of x gives an array."""
    if type(l) is not int or not 0 <= l < sys.m:
        l = _check_index(sys.m, l)
    return _scalar(eval_S_vector(sys, x)[..., l])


def eval_S_vector(sys: GenTrigSystem, x: complex) -> np.ndarray:
    """S_l(x) for every l, a new array with l on the last axis."""
    return sys.exponentials(x) @ sys.T.T


def taylor_coeffs(sys: GenTrigSystem, l: int, order: int) -> list:
    """Taylor coefficients b_0..b_order of S_l about 0, for 0 <= order <= 170.

    b_k = sum_j T[l][j] (-i r_j)^k / k!, with the per-root weights
    (-i r_j)^k / k! built as one running product for stability.  Once per
    order and system, one product of those weights with T gives the
    coefficients of every l, kept as lists; a call returns a copy of row l.
    """
    if type(l) is not int or not 0 <= l < sys.m:
        l = _check_index(sys.m, l)
    if type(order) is not int:
        order = _integer(order, "Taylor order", GenTrigError)
    tables = sys.__dict__.setdefault("taylor_coeffs", {})
    table = tables.get(order)
    if table is None:
        if order > 170:
            raise GenTrigError("order above 170 overflows double-precision factorials")
        if order < 0:
            raise GenTrigError(f"Taylor order {order} is negative")
        table = tables[order] = _taylor_weights(sys, order).dot(sys.T.T).T.tolist()
    return table[l][:]


def _taylor_weights(sys: GenTrigSystem, order: int) -> np.ndarray:
    """W[k, j] = (-i r_j)^k / k! for k = 0..order, as one running product."""
    steps = np.ones((order + 1, sys.m), dtype=complex)
    steps[1:] = sys.minus_ir / np.arange(1.0, order + 1)[:, None]
    return np.multiply.accumulate(steps, axis=0)


@dataclass(frozen=True)
class IdentityCertificate:
    """Witness of the constant-determinant identity among the S_l.

    L is a left eigenvector of K^m with eigenvalue ``lam``; with
    f_l = (L K^l) . S the shifted matrix M(x) of :func:`_circulant_rows` has
    constant determinant ``det_ref``.  ``rows`` holds the spectral rows G of
    those f_l (:func:`_certificate_rows`), with det M(x) = prod_j (G E(x))_j.
    """

    L: np.ndarray
    lam: complex
    det_ref: complex
    eigen_residual: float
    rows: np.ndarray = field(repr=False, compare=False)


def _circulant_rows(F: np.ndarray, lam: complex) -> np.ndarray:
    """G with det M(x) = prod_j (G E(x))_j, for f = F E(x).

    M[p, q] is f[p+q], or lam * f[p+q-m] past the anti-diagonal.  Reversing
    its columns, a permutation of sign (-1)^(m(m-1)/2), leaves a
    lam-circulant whose eigenvalues are sum_d f[d] w_j^(m-1-d) at the m roots
    w_j of w^m = lam (Davis, *Circulant Matrices*, 1979).  So G = W F with
    W[j, d] = w_j^(m-1-d) (``poly._powers``, reversed), and the sign goes into
    row 0.  For a certificate, row j of G vanishes up to roundoff unless w_j
    is one of the rates -i r_k, so det M is zero unless P = x^m - c.
    """
    m = len(F)
    w = abs(lam) ** (1 / m) * np.exp(1j * (cmath.phase(lam) + 2 * np.pi * np.arange(m)) / m)
    G = _powers(w, m)[:, ::-1].dot(F)
    G[0] *= (-1) ** (m * (m - 1) // 2)
    return G


def _spectral_det(G: np.ndarray, E) -> complex:
    """det M for f = F E, with G from :func:`_circulant_rows`; E on the last
    axis, so an array of points gives an array."""
    return _scalar(np.multiply.reduce(E @ G.T, -1))


def _certificate_rows(sys: GenTrigSystem, L: np.ndarray, lam: complex) -> np.ndarray:
    """:func:`_circulant_rows` of the certificate rows F = (L K^l) T, with f = F E(x):
    K T = T diag(-i r) gives F[l, j] = (L T)_j (-i r_j)^l, with no power of K."""
    F = _powers(sys.minus_ir, sys.m).T * L.dot(sys.T)
    return _circulant_rows(F, lam)


def _left_eigenvector(K: np.ndarray, mu: complex) -> np.ndarray:
    """L with L K = mu L for a rate mu = -i r_j, in O(m) from K's banded shape.

    Column q >= 2 of K holds only K[q-1, q] = i, so (L K)_q = mu L_q gives
    L_q = (i/mu) L_(q-1); column 0 holds only K[m-1, 0], so
    L_0 = L_(m-1) K[m-1, 0] / mu.  Column 1 is then P(r_j) = 0.  Normalized
    so the entry of largest modulus (the first, on ties) is 1.
    """
    m = len(K)
    y = np.empty(m, dtype=complex)
    y[1:] = (1j / mu) ** np.arange(m - 1)
    y[0] = y[m - 1] * K[m - 1, 0] / mu
    return y / y[np.abs(y).argmax()]


def identity_certificate(sys: GenTrigSystem) -> IdentityCertificate:
    """Pick the largest-modulus nonzero eigenvalue of K^m and certify the identity.

    K T = T diag(-i r), so the eigenvalues of K^m are (-i r_j)^m, and the
    left eigenvector of the chosen one is that of K for its rate -i r_j
    (:func:`_left_eigenvector`); no eigenproblem is solved.  Eigenvalues
    whose moduli agree with the largest to 1e-12 relative (a conjugate pair,
    say) count as tied; the tie goes to the smallest phase, and among equal
    phases to the first root.  ``eigen_residual`` is L's own residual
    max|L K - mu L| against K for the rate mu = -i r_j, whose column 1 is
    the root's backward error and the rest roundoff.  When a_1 .. a_(m-1)
    are all exactly zero (P = x^m + a_0), K is a weighted cyclic shift and
    K^m = (-i)^m (-a_0) I exactly in floating point: the certificate takes
    L = e_0, that product (no -0.0) as ``lam`` and ``eigen_residual`` 0.  A
    constant det M(0) that overflows a double raises
    :class:`CertificateUnavailableError`.
    """
    if sys.m < 2:
        raise GenTrigError("certificates need degree at least 2")
    a = sys.poly.coeffs
    binomial = not any(a[1:-1])
    values = np.array([(-1j) ** sys.m * -a[0] + 0]) if binomial else sys.minus_ir ** sys.m
    moduli = np.abs(values)
    scale = float(np.maximum.reduce(moduli))
    if not scale > 1e-12 * (scale + 1.0):
        raise CertificateUnavailableError(
            f"no nonzero eigenvalue of K^{sys.m}: the largest modulus {scale:.3e} is not above "
            f"1e-12 (1 + {scale:.3e}); certificate unavailable")
    j = min((moduli >= (1 - 1e-12) * scale).nonzero()[0], key=lambda j: cmath.phase(values[j]))
    lam = complex(values[j])
    if binomial:
        L, residual = np.eye(sys.m, dtype=complex)[0], 0.0
    else:
        L = _left_eigenvector(sys.K, sys.minus_ir[j])
        residual = float(np.maximum.reduce(np.abs(L.dot(sys.K) - sys.minus_ir[j] * L)))
    G = _certificate_rows(sys, L, lam)
    with np.errstate(over="ignore", invalid="ignore"):
        det_ref = _spectral_det(G, np.ones(sys.m))  # E(0) is all ones
    if not cmath.isfinite(det_ref):
        raise CertificateUnavailableError(
            f"det M(0) = {det_ref} is not finite: the product of the {sys.m} "
            f"spectral factors overflows a double; certificate unavailable")
    return IdentityCertificate(L, lam, det_ref, residual, G)


def eval_det_M(cert: IdentityCertificate, sys: GenTrigSystem, x: complex) -> complex:
    """det M(x) for the certified function family; constant in x up to roundoff.

    The product of the eigenvalues ``cert.rows @ E(x)`` (:func:`_circulant_rows`);
    an array of x gives an array.
    """
    return _spectral_det(cert.rows, sys.exponentials(x))

"""Exponential-sum trigonometric systems of a polynomial.

Given P with roots r_1..r_m, builds the coefficient grid T[l][j], evaluates
the m functions S_l(x) = sum_j T[l][j] exp(-i r_j x), their Taylor data, the
derivative matrix K with S' = K S, and constant-determinant identity
certificates among the S_l.
"""
from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .poly import Polynomial, RootSet, find_roots

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


def deflation_matrix(p: Polynomial, roots) -> np.ndarray:
    """Q[j, k]: coefficient of x^k in P(x) / (x - r_j), one Horner sweep for all roots."""
    r = np.asarray(roots, dtype=complex)
    Q = np.empty((len(r), p.degree), dtype=complex)
    Q[:, -1] = p.coeffs[-1]
    for k in range(p.degree - 1, 0, -1):
        Q[:, k - 1] = Q[:, k] * r + p.coeffs[k]
    return Q


def tuple_coefficients(roots: RootSet) -> np.ndarray:
    """The m-by-m grid T[l][j] of the monic polynomial with these roots.

    Row 0 is all ones; row l >= 1 holds r_j times the
    elementary symmetric function of order l-1 of the other roots, read off
    the deflated quotient of P by (x - r_j): its coefficient of x^(m-1-k) is
    (-1)^k e_k(other roots).
    """
    r = np.array(tuple(roots), dtype=complex)
    m = len(r)
    T = np.ones((m, m), dtype=complex)
    if m > 1:
        Q = deflation_matrix(Polynomial.from_roots(r), r)
        signs = (-1.0) ** np.arange(m - 1)
        T[1:] = signs[:, None] * Q[:, :0:-1].T * r
    return T


def derivative_matrix(p: Polynomial) -> np.ndarray:
    """The banded m-by-m matrix K with S' = K S, from the monic coefficients."""
    m = p.degree
    if m < 2:
        raise GenTrigError("derivative matrix needs degree at least 2")
    a = p.monic().coeffs
    K = np.zeros((m, m), dtype=complex)
    K[0, 1] = -1j
    for l in range(1, m - 1):
        K[l, 1] = ((-1) ** (l + 1)) * 1j * a[m - l]
        K[l, l + 1] = 1j
    K[m - 1, 0] = ((-1) ** m) * 1j * a[0]
    K[m - 1, 1] = ((-1) ** m) * 1j * a[1]
    return K


#: the empty memo: no argument is this object
_NO_POINT = (object(), None)


class _ExpSum:
    """Rates, root radius and exponentials of a family S_l(x) = sum_j W[l][j] exp(-i r_j x),
    from the roots ``r`` that the subclass provides."""

    @cached_property
    def minus_ir(self) -> np.ndarray:
        """The exponent rates -i r_j."""
        return -1j * self.r

    @cached_property
    def radius(self) -> float:
        """The root radius max |r_j|."""
        return float(np.max(np.abs(self.r)))

    def exponentials(self, x) -> np.ndarray:
        """E[..., j] = exp(-i r_j x) for a scalar x or an array of them (leading axes).

        The functions of a family evaluated at one point share one exponential
        pass: a call whose argument is the very object of the last scalar call
        (``is``, so ``-0.0`` never meets ``0.0``'s E, nor an int a complex's)
        returns the stored E, exactly what a recomputation gives.  The stored E
        is read-only, since callers share it.  Arrays are never stored, and a
        call that raises stores nothing.  The pair is written in one assignment
        and read once, so concurrent callers never see one point with another's E.
        """
        last = self.__dict__.get("last_point", _NO_POINT)
        if last[0] is x:
            return last[1]
        E = _guarded_exp(x, self)
        if isinstance(x, _NUMBER):
            E.setflags(False)  # positional: write=False parses keywords, 3x the cost
            self.__dict__["last_point"] = (x, E)
        return E


def _guarded_exp(x, sys: _ExpSum) -> np.ndarray:
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
        if float(np.abs(x).max(initial=0.0)) * sys.radius <= _BOUND_GUARD:
            return np.exp(np.multiply.outer(x, sys.minus_ir))
    # the bound failed, or an argument is nan or infinite
    x = np.asarray(x, dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        z = np.multiply.outer(x, sys.minus_ir)
        size = np.abs(z.real)
    worst = np.argmax(size)  # the first nan, if any
    if not size.flat[worst] <= EXP_GUARD:
        *at, j = np.unravel_index(worst, size.shape)
        raise ArgumentOverflowError(complex(sys.r[j]), complex(x[tuple(at)]))
    return np.exp(z)


def _scalar(value):
    """``value`` as a Python complex, unless it is an array (an array of points)."""
    return value if isinstance(value, np.ndarray) else complex(value)


@dataclass(frozen=True)
class GenTrigSystem(_ExpSum):
    """Monic polynomial, its roots, the T grid and the derivative matrix K."""

    poly: Polynomial
    roots: RootSet
    T: np.ndarray
    K: np.ndarray

    @cached_property
    def m(self) -> int:
        return self.poly.degree

    @cached_property
    def r(self) -> np.ndarray:
        """The roots as an array, in the column order of T."""
        return np.array(self.roots.roots, dtype=complex)


def _system(mon: Polynomial, roots: RootSet) -> GenTrigSystem:
    """The T grid and K of monic ``mon`` with the given roots; K = [-i r] at degree 1."""
    if mon.degree >= 2:
        K = derivative_matrix(mon)
    else:
        K = np.array([[-1j * roots.roots[0]]], dtype=complex)
    return GenTrigSystem(mon, roots, tuple_coefficients(roots), K)


def make_system(p: Polynomial) -> GenTrigSystem:
    mon = p.monic()
    return _system(mon, find_roots(mon))


def from_roots(roots) -> GenTrigSystem:
    """System from explicitly known roots, bypassing the root finder."""
    rs = tuple(sorted((complex(r) for r in roots), key=lambda r: (r.real, r.imag)))
    mon = Polynomial.from_roots(rs)
    return _system(mon, RootSet(rs, max(abs(mon(r)) for r in rs)))


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
    """S_l(x) as the direct exponential sum; an array of x gives an array."""
    if type(l) is not int or not 0 <= l < sys.m:
        l = _check_index(sys.m, l)
    return _scalar(sys.exponentials(x) @ sys.T[l])


def eval_S_vector(sys: GenTrigSystem, x: complex) -> np.ndarray:
    return sys.exponentials(x) @ sys.T.T


def taylor_coeffs(sys: GenTrigSystem, l: int, order: int) -> list:
    """Taylor coefficients b_0..b_order of S_l about 0, for 0 <= order <= 170.

    b_k = sum_j T[l][j] (-i r_j)^k / k!, with the per-root weights
    (-i r_j)^k / k! built as one running product for stability, once per
    order and system.
    """
    if type(l) is not int or not 0 <= l < sys.m:
        l = _check_index(sys.m, l)
    tables = sys.__dict__.setdefault("taylor_weights", {})
    W = tables.get(order) if type(order) is int else None
    if W is None:
        order = _integer(order, "Taylor order", GenTrigError)
        if order > 170:
            raise GenTrigError("order above 170 overflows double-precision factorials")
        if order < 0:
            raise GenTrigError(f"Taylor order {order} is negative")
        W = tables.setdefault(order, _taylor_weights(sys, order))
    return (W @ sys.T[l]).tolist()


def _taylor_weights(sys: GenTrigSystem, order: int) -> np.ndarray:
    """W[k, j] = (-i r_j)^k / k! for k = 0..order, as one running product."""
    steps = np.ones((order + 1, sys.m), dtype=complex)
    steps[1:] = sys.minus_ir / np.arange(1.0, order + 1)[:, None]
    return np.cumprod(steps, axis=0)


@dataclass(frozen=True)
class IdentityCertificate:
    """Witness of the constant-determinant identity among the S_l.

    L is a left eigenvector of K^m with eigenvalue ``lam``; with
    f_l = (L K^l) . S the shifted matrix M(x) of :func:`_spectral_rows` has
    constant determinant ``det_ref``.
    """

    L: np.ndarray
    lam: complex
    det_ref: complex
    eigen_residual: float


def _spectral_rows(F: np.ndarray, lam: complex) -> np.ndarray:
    """G with det M(x) = prod_j (G E(x))_j, for f = F E(x).

    M[p, q] is f[p+q], or lam * f[p+q-m] past the anti-diagonal.  Reversing
    its columns, a permutation of sign (-1)^(m(m-1)/2), leaves a
    lam-circulant whose eigenvalues are sum_d f[d] w_j^(m-1-d) at the m roots
    w_j of w^m = lam (Davis, *Circulant Matrices*, 1979).  So G = W F with
    W[j, d] = w_j^(m-1-d), and the sign goes into row 0.  For a certificate,
    row j of G vanishes up to roundoff unless w_j is one of the rates -i r_k,
    so det M is zero unless P = x^m - c.
    """
    m = len(F)
    w = abs(lam) ** (1 / m) * np.exp(1j * (cmath.phase(lam) + 2 * np.pi * np.arange(m)) / m)
    G = np.vander(w, m) @ F
    G[0] *= (-1) ** (m * (m - 1) // 2)
    return G


def _spectral_det(G: np.ndarray, E) -> complex:
    """det M for f = F E, with G from :func:`_spectral_rows`; E on the last
    axis, so an array of points gives an array."""
    return _scalar(np.multiply.reduce(E @ G.T, -1))


def _certificate_rows(sys: GenTrigSystem, L: np.ndarray, lam: complex) -> np.ndarray:
    """:func:`_spectral_rows` of the certificate rows F = (L K^l) T, with f = F E(x)."""
    V = np.empty((sys.m, sys.m), dtype=complex)
    V[0] = L
    for l in range(1, sys.m):
        V[l] = V[l - 1] @ sys.K
    return _spectral_rows(V @ sys.T, lam)


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
    return y / y[np.argmax(np.abs(y))]


def identity_certificate(sys: GenTrigSystem) -> IdentityCertificate:
    """Pick the largest-modulus nonzero eigenvalue of K^m and certify the identity.

    K T = T diag(-i r), so the eigenvalues of K^m are (-i r_j)^m, and the
    left eigenvector of the chosen one is that of K for its rate -i r_j
    (:func:`_left_eigenvector`); no eigenproblem is solved.  Eigenvalues
    whose moduli agree with the largest to 1e-12 relative (a conjugate pair,
    say) count as tied; the tie goes to the smallest phase, and among equal
    phases to the first root.  When K^m is a scalar matrix (P = x^m - c)
    every vector is an eigenvector, and the certificate takes L = e_0 with
    the mean of its diagonal.  ``eigen_residual`` is L's own residual
    max|L K - mu L| against K for the rate mu = -i r_j, whose column 1 is
    the root's backward error and the rest roundoff; for a scalar K^m it is
    max|L K^m - lam L|, which is zero.
    """
    if sys.m < 2:
        raise GenTrigError("certificates need degree at least 2")
    M = linalg._as_matrix(np.linalg.matrix_power(sys.K, sys.m))
    mean = complex(np.trace(M) / sys.m)
    scalar = linalg.norm1(M - mean * np.eye(sys.m)) <= 1e-12 * (linalg.norm1(M) + 1.0)
    values = np.array([mean]) if scalar else sys.minus_ir ** sys.m
    moduli = np.abs(values)
    scale = float(moduli.max())
    if not scale > 1e-12 * (scale + 1.0):
        raise CertificateUnavailableError("no nonzero eigenvalue; certificate unavailable")
    j = min(np.flatnonzero(moduli >= (1 - 1e-12) * scale), key=lambda j: cmath.phase(values[j]))
    lam = complex(values[j])
    if scalar:
        L = np.eye(sys.m, dtype=complex)[0]
        residual = float(np.max(np.abs(L @ M - lam * L)))
    else:
        mu = sys.minus_ir[j]
        L = _left_eigenvector(sys.K, mu)
        residual = float(np.max(np.abs(L @ sys.K - mu * L)))
    G = _certificate_rows(sys, L, lam)
    det_ref = _spectral_det(G, np.ones(sys.m))  # E(0) is all ones
    cert = IdentityCertificate(L, lam, det_ref, residual)
    cert.__dict__["spectral_rows"] = G  # kept in the frozen instance, like a cached_property
    return cert


def eval_det_M(cert: IdentityCertificate, sys: GenTrigSystem, x: complex) -> complex:
    """det M(x) for the certified function family; constant in x up to roundoff.

    The product of the eigenvalues G E(x) of :func:`_spectral_rows`; an array
    of x gives an array.
    """
    G = cert.__dict__.get("spectral_rows")
    if G is None:
        G = cert.__dict__.setdefault("spectral_rows", _certificate_rows(sys, cert.L, cert.lam))
    return _spectral_det(G, sys.exponentials(x))

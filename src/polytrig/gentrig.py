"""Exponential-sum trigonometric systems of a polynomial.

Given P with roots r_1..r_m, builds the coefficient grid T[l][j], evaluates
the m functions S_l(x) = sum_j T[l][j] exp(-i r_j x), their Taylor data, the
derivative matrix K with S' = K S, and constant-determinant identity
certificates among the S_l.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .poly import Polynomial, RootSet, find_roots

#: per-term bound on the modulus of the real part of every exponent taken
EXP_GUARD = 700.0


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


def tuple_coefficients(roots: RootSet, leading: complex = 1.0) -> np.ndarray:
    """The m-by-m grid T[l][j].

    Row 0 is the leading coefficient; row l >= 1 holds r_j times the
    elementary symmetric function of order l-1 of the other roots, read off
    the deflated quotient of P by (x - r_j): its coefficient of x^(m-1-k) is
    (-1)^k e_k(other roots).
    """
    r = np.array(tuple(roots), dtype=complex)
    m = len(r)
    T = np.full((m, m), leading, dtype=complex)
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


@dataclass(frozen=True)
class GenTrigSystem:
    """Monic polynomial, its roots, the T grid and the derivative matrix K."""

    poly: Polynomial
    roots: RootSet
    T: np.ndarray
    K: np.ndarray

    @property
    def m(self) -> int:
        return self.poly.degree

    @cached_property
    def r(self) -> np.ndarray:
        """The roots as an array, in the column order of T."""
        return np.array(self.roots.roots, dtype=complex)

    def exponentials(self, x) -> np.ndarray:
        """E[..., j] = exp(-i r_j x) for a scalar x or an array of them (leading axes).

        Every exponent is checked against ``EXP_GUARD`` first; the worst one
        past it raises :class:`ArgumentOverflowError` naming its root and argument.
        """
        x = np.asarray(x, dtype=complex)
        z = np.multiply.outer(x, -1j * self.r)
        size = np.abs(z.real)
        if size.max() > EXP_GUARD:
            *at, j = np.unravel_index(np.argmax(size), size.shape)
            raise ArgumentOverflowError(complex(self.r[j]), complex(x[tuple(at)]))
        return np.exp(z)


def make_system(p: Polynomial, tol: float = 1e-13, max_iter: int = 500) -> GenTrigSystem:
    mon = p.monic()
    roots = find_roots(mon, tol=tol, max_iter=max_iter)
    T = tuple_coefficients(roots)
    if mon.degree >= 2:
        K = derivative_matrix(mon)
    else:
        K = np.array([[-1j * roots.roots[0]]], dtype=complex)
    return GenTrigSystem(mon, roots, T, K)


def from_roots(roots) -> GenTrigSystem:
    """System from explicitly known roots, bypassing the root finder."""
    rs = tuple(sorted((complex(r) for r in roots), key=lambda r: (r.real, r.imag)))
    mon = Polynomial.from_roots(rs)
    T = tuple_coefficients(RootSet(rs, 0.0), 1.0)
    K = derivative_matrix(mon) if mon.degree >= 2 else np.array([[-1j * rs[0]]])
    return GenTrigSystem(mon, RootSet(rs, max(abs(mon(r)) for r in rs)), T, K)


def eval_S(sys: GenTrigSystem, l: int, x: complex) -> complex:
    """S_l(x) as the direct exponential sum; an array of x gives an array."""
    if not 0 <= l < sys.m:
        raise GenTrigError(f"function index {l} out of range 0..{sys.m - 1}")
    value = sys.exponentials(x) @ sys.T[l]
    return complex(value) if np.isscalar(value) else value


def eval_S_vector(sys: GenTrigSystem, x: complex) -> np.ndarray:
    return sys.exponentials(x) @ sys.T.T


def taylor_coeffs(sys: GenTrigSystem, l: int, order: int) -> list:
    """Taylor coefficients b_0..b_order of S_l about 0.

    b_k = sum_j T[l][j] (-i r_j)^k / k!, with the per-root weights
    (-i r_j)^k / k! built as one running product for stability.
    """
    if not 0 <= l < sys.m:
        raise GenTrigError(f"function index {l} out of range 0..{sys.m - 1}")
    if order > 170:
        raise GenTrigError("order above 170 overflows double-precision factorials")
    steps = np.ones((order + 1, sys.m), dtype=complex)
    steps[1:] = -1j * sys.r / np.arange(1.0, order + 1)[:, None]
    return (np.cumprod(steps, axis=0) @ sys.T[l]).tolist()


def taylor_eval(sys: GenTrigSystem, l: int, x: complex, order: int) -> complex:
    bs = taylor_coeffs(sys, l, order)
    acc = 0j
    xp = 1 + 0j
    for b in bs:
        acc += b * xp
        xp *= x
    return acc


@dataclass(frozen=True)
class IdentityCertificate:
    """Witness of the constant-determinant identity among the S_l.

    L is a left eigenvector of K^m with eigenvalue ``lam``; with
    f_l = (L K^l) . S the shifted matrix M(x) built below has constant
    determinant ``det_ref``.
    """

    L: np.ndarray
    lam: complex
    det_ref: complex
    eigen_residual: float


def _shift_fold(m: int, lam: complex) -> tuple:
    """Index and twist with M[p, q] = twist * f[index]: f[p+q], or lam * f[p+q-m]
    past the anti-diagonal."""
    s = np.add.outer(np.arange(m), np.arange(m))
    return s % m, np.where(s < m, 1, lam)


def _shift_parts(sys: GenTrigSystem, L: np.ndarray, lam: complex) -> tuple:
    """The rows F = (L K^l) T with f = F E(x), and the fold of f into M(x)."""
    V = np.empty((sys.m, sys.m), dtype=complex)
    V[0] = L
    for l in range(1, sys.m):
        V[l] = V[l - 1] @ sys.K
    return (V @ sys.T, *_shift_fold(sys.m, lam))


def _cached(obj, key: str, compute):
    """``compute()`` once per frozen ``obj``, kept in its instance dict like a cached_property."""
    if key not in obj.__dict__:
        obj.__dict__[key] = compute()
    return obj.__dict__[key]


def identity_certificate(sys: GenTrigSystem) -> IdentityCertificate:
    """Pick the largest-modulus nonzero eigenvalue of K^m and certify the identity.

    Eigenvalues whose moduli agree with the largest to 1e-12 relative (a
    conjugate pair, say) count as tied; the tie goes to the smallest phase.
    """
    if sys.m < 2:
        raise GenTrigError("certificates need degree at least 2")
    M = np.linalg.matrix_power(sys.K, sys.m)
    pairs = linalg.eigenpairs(M)
    scale = max(abs(p.value) for p in pairs)
    live = [p for p in pairs if abs(p.value) > 1e-12 * (scale + 1.0)]
    if not live:
        raise CertificateUnavailableError("no nonzero eigenvalue; certificate unavailable")
    chosen = min((p for p in live if abs(p.value) >= (1 - 1e-12) * scale),
                 key=lambda p: cmath.phase(p.value))
    residual = float(np.max(np.abs(chosen.left_vector @ M - chosen.value * chosen.left_vector)))
    F, index, twist = parts = _shift_parts(sys, chosen.left_vector, chosen.value)
    det_ref = linalg.determinant(F.sum(axis=1)[index] * twist)  # E(0) is all ones
    cert = IdentityCertificate(chosen.left_vector, chosen.value, det_ref, residual)
    _cached(cert, "shift_parts", lambda: parts)
    return cert


def eval_det_M(cert: IdentityCertificate, sys: GenTrigSystem, x: complex) -> complex:
    """det M(x) for the certified function family; constant in x up to roundoff."""
    F, index, twist = _cached(cert, "shift_parts", lambda: _shift_parts(sys, cert.L, cert.lam))
    return linalg.determinant((sys.exponentials(x) @ F.T)[index] * twist)

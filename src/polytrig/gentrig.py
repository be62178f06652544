"""Exponential-sum trigonometric systems of a polynomial.

Given P with roots r_1..r_m, builds the coefficient grid T[l][j], evaluates
the m functions S_l(x) = sum_j T[l][j] exp(-i r_j x), their Taylor data, the
derivative matrix K with S' = K S, and constant-determinant identity
certificates among the S_l.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import linalg
from .poly import Polynomial, RootSet, find_roots, synthetic_divide

#: per-term bound on the real part of the exponent in eval_S
EXP_GUARD = 700.0


class GenTrigError(ValueError):
    pass


class ArgumentOverflowError(GenTrigError):
    """Evaluation would overflow ``exp``; names the offending root."""

    def __init__(self, root: complex, x: complex):
        super().__init__(
            f"argument {x} overflows the exponential for root {root} "
            f"(|Im r * Re x| + |Re r * Im x| > {EXP_GUARD:g})"
        )
        self.root = root


class CertificateUnavailableError(GenTrigError):
    pass


def tuple_coefficients(roots: RootSet, leading: complex = 1.0) -> np.ndarray:
    """The m-by-m grid T[l][j].

    Row 0 is the leading coefficient; row l >= 1 holds r_j times the
    elementary symmetric function of order l-1 of the other roots, read off
    the deflated quotient of P by (x - r_j).
    """
    rs = tuple(roots)
    m = len(rs)
    T = np.zeros((m, m), dtype=complex)
    T[0, :] = leading
    if m == 1:
        return T
    P = Polynomial.from_roots(rs)
    for j, r in enumerate(rs):
        quotient, _ = synthetic_divide(P, r)
        # quotient coeff of x^(m-1-k) is (-1)^k e_k(other roots)
        for l in range(1, m):
            e = ((-1) ** (l - 1)) * quotient.coeffs[m - l]
            T[l, j] = r * e
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
    """S_l(x) as the direct exponential sum."""
    if not 0 <= l < sys.m:
        raise GenTrigError(f"function index {l} out of range 0..{sys.m - 1}")
    x = complex(x)
    acc = 0j
    for j, r in enumerate(sys.roots):
        if abs(r.imag * x.real) + abs(r.real * x.imag) > EXP_GUARD:
            raise ArgumentOverflowError(r, x)
        acc += sys.T[l, j] * cmath.exp(-1j * r * x)
    return acc


def eval_S_vector(sys: GenTrigSystem, x: complex) -> np.ndarray:
    return np.array([eval_S(sys, l, x) for l in range(sys.m)])


def taylor_coeffs(sys: GenTrigSystem, l: int, order: int) -> list:
    """Taylor coefficients b_0..b_order of S_l about 0.

    b_k = sum_j (-i)^k T[l][j] r_j^k / k!, accumulated with incremental
    per-root weights for stability.
    """
    if not 0 <= l < sys.m:
        raise GenTrigError(f"function index {l} out of range 0..{sys.m - 1}")
    if order > 170:
        raise GenTrigError("order above 170 overflows double-precision factorials")
    w = np.array(sys.T[l, :], dtype=complex)
    rs = np.array(sys.roots.roots, dtype=complex)
    out = [complex(np.sum(w))]
    for k in range(1, order + 1):
        w *= (-1j * rs) / k
        out.append(complex(np.sum(w)))
    return out


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


def _assemble_shift_matrix(f, lam: complex) -> np.ndarray:
    m = len(f)
    M = np.empty((m, m), dtype=complex)
    for p in range(m):
        for q in range(m):
            s = p + q
            M[p, q] = f[s] if s < m else lam * f[s - m]
    return M


def _f_values(sys: GenTrigSystem, L: np.ndarray, S: np.ndarray) -> list:
    v = np.array(L, dtype=complex)
    fs = []
    for _ in range(sys.m):
        fs.append(complex(v @ S))
        v = v @ sys.K
    return fs


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
    S0 = np.array(sys.T.sum(axis=1))
    f0 = _f_values(sys, chosen.left_vector, S0)
    det_ref = linalg.determinant(_assemble_shift_matrix(f0, chosen.value))
    return IdentityCertificate(chosen.left_vector, chosen.value, det_ref, residual)


def eval_det_M(cert: IdentityCertificate, sys: GenTrigSystem, x: complex) -> complex:
    """det M(x) for the certified function family; constant in x up to roundoff."""
    S = eval_S_vector(sys, x)
    fs = _f_values(sys, cert.L, S)
    return linalg.determinant(_assemble_shift_matrix(fs, cert.lam))

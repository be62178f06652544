"""The x^m - 1 special case: rescaled functions, identities and the boundary-jump matrix.

Conventions: zeta = exp(2*pi*i/m) and eta = exp(i*pi/m), so eta**2 == zeta and
eta**m == -1.  The rescaled functions are S_l(x) = (1/m) * S^P_l(i*eta*x) for
P = x^m - 1; for m = 2 they are cos and sin.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import gentrig, linalg
from .poly import MAX_DEGREE


class CyclotomicError(ValueError):
    pass


@dataclass(frozen=True)
class CyclotomicSystem(gentrig._ExpSum):
    """S_l(x) = sum_j weights[l][j] exp(-i r[j] x), for l = 0..m-1."""

    m: int
    zeta: complex
    eta: complex

    @cached_property
    def r(self) -> np.ndarray:
        """i eta zeta^j for j = 0..m-1, so that exp(-i r[j] x) = exp(eta zeta^j x)."""
        return 1j * (self.eta * self.zeta ** np.arange(self.m))

    @cached_property
    def weights(self) -> np.ndarray:
        """zeta^(l j) / (m eta^l), with l on the rows."""
        l = np.arange(self.m)
        return self.zeta ** (np.outer(l, l) % self.m) / (self.m * self.eta ** l)[:, None]

    @cached_property
    def _det_rows(self) -> np.ndarray:
        """The spectral rows of f_l = zeta^l S_l with lam = -1, so w_j = eta zeta^j."""
        F = (self.zeta ** np.arange(self.m))[:, None] * self.weights
        return gentrig._spectral_rows(F, -1.0)


def make_cyclotomic(m: int) -> CyclotomicSystem:
    """The system of order m, an integer in 1..``MAX_DEGREE``."""
    m = gentrig._integer(m, "order m", CyclotomicError)
    if not 1 <= m <= MAX_DEGREE:
        raise CyclotomicError(f"order m = {m} is outside 1..{MAX_DEGREE}")
    return CyclotomicSystem(m, cmath.exp(2j * math.pi / m), cmath.exp(1j * math.pi / m))


def _check_index(m: int, l) -> int:
    return gentrig._check_index(m, l, CyclotomicError)


def _eval_all(sys: CyclotomicSystem, x) -> np.ndarray:
    """S[..., l] = S_l(x) for every l at once."""
    return sys.exponentials(x) @ sys.weights.T


def eval_S_cyclo(sys: CyclotomicSystem, l: int, x: complex) -> complex:
    """S_l(x) = (1/(m eta^l)) sum_j zeta^(l j) exp(eta zeta^j x); an array of x gives an array."""
    if type(l) is not int or not 0 <= l < sys.m:
        l = _check_index(sys.m, l)
    return gentrig._scalar(sys.exponentials(x) @ sys.weights[l])


@lru_cache(maxsize=32)
def _unit_system(m: int) -> gentrig.GenTrigSystem:
    # exact roots of unity; avoids re-running the root finder per call
    return gentrig.from_roots(np.exp(2j * np.pi * np.arange(m) / m))


def rescale_consistency(sys: CyclotomicSystem, l: int, x: complex):
    """Both sides of the rescaling relation tying S_l to the x^m - 1 system.

    For l >= 1 the exponential-sum route carries an extra unit factor
    (-1)**(l-1) * eta**l relative to the plain 1/m rescale (forced by the
    coefficient grid of the roots of unity; visible already at m = 2 where
    the uncorrected rescale would yield i*sin instead of sin).
    """
    lhs = eval_S_cyclo(sys, l, x)
    unit = 1.0 if l == 0 else ((-1) ** (l - 1)) * sys.eta ** l
    rhs = gentrig.eval_S(_unit_system(sys.m), l, 1j * sys.eta * x) / (sys.m * unit)
    return lhs, rhs


def taylor_eval_cyclo(sys: CyclotomicSystem, l: int, x: complex, terms: int) -> complex:
    """Truncated power series: only the exponents congruent to -l mod m survive.

    The terms (-1)^k x^p / p! with p = k m - l (k from 0 for l = 0, else from
    1) are read off one running product of x / n; an array of x gives an array.
    ``terms`` is a non-negative integer.
    """
    l = _check_index(sys.m, l)
    terms = gentrig._integer(terms, "term count", CyclotomicError)
    if not 0 <= terms * sys.m <= 170:
        raise CyclotomicError(f"term count {terms} is outside 0..{170 // sys.m}: "
                              f"terms * m above 170 overflows double-precision factorials")
    k = np.arange(terms) + (l > 0)
    p = k * sys.m - l
    x = np.asarray(x, dtype=complex)
    steps = np.ones(x.shape + (p.max(initial=0) + 1,), dtype=complex)
    steps[..., 1:] = x[..., None] / np.arange(1.0, steps.shape[-1])
    return gentrig._scalar(np.cumprod(steps, axis=-1)[..., p] @ (-1.0) ** k / sys.zeta ** l)


@dataclass(frozen=True)
class AdditionRule:
    """S_l(x1+x2) = sum_r signs[r] * S_partners[r](x1) * S_r(x2)."""

    m: int
    l: int
    signs: tuple
    partners: tuple


def addition_rule(m: int, l: int) -> AdditionRule:
    l = _check_index(m, l)
    signs = tuple(1 if r <= l else -1 for r in range(m))
    partners = tuple((l - r) % m for r in range(m))
    return AdditionRule(m, l, signs, partners)


def apply_addition(sys: CyclotomicSystem, rule: AdditionRule, x1: complex, x2: complex) -> complex:
    """The right-hand side of ``rule`` at (x1, x2); arrays of points give an array."""
    if rule.m != sys.m:
        raise CyclotomicError("rule and system orders differ")
    value = (_eval_all(sys, x1)[..., list(rule.partners)] * _eval_all(sys, x2)) @ rule.signs
    return gentrig._scalar(value)


def det_M_constant(m: int) -> int:
    """The constant value of det_M_cyclo: (-1)**(m*(m-1)//2).

    Forced at x = 0, where S_l(0) = delta_{l,0} leaves a single 1 and an
    anti-diagonal of -1 entries whose reversal permutation contributes
    (-1)**((m-1)*(m-2)//2) on top of the (-1)**(m-1) product.
    """
    return (-1) ** (m * (m - 1) // 2)


def det_M_cyclo(sys: CyclotomicSystem, x: complex) -> complex:
    """Determinant of the shifted matrix of f_l = zeta^l S_l(x), as the product
    of its lam-circulant eigenvalues (``gentrig._spectral_rows``).

    Constant in x for m >= 2; equals :func:`det_M_constant` of the order.
    At m = 1 the matrix is [[S_0(x)]] = [[exp(-x)]], with no wrap and no
    identity, and :class:`CyclotomicError` is raised.  An array of x gives
    an array.
    """
    if sys.m < 2:
        raise CyclotomicError("the determinant identity needs m at least 2")
    return gentrig._spectral_det(sys._det_rows, sys.exponentials(x))


def factorial_identity_check(n: int):
    """Exact-rational check of the mod-3 factorial identity at total degree n.

    sum_A runs over ordered triples (k1, k2, k3) with k1+k2+k3 = n and all
    three congruent mod 3; sum_B over triples covering all three residue
    classes, counted once per value set.  Returns (sum_A, sum_B, holds) with
    holds = (sum_A == 3 * sum_B) exactly.  ``n`` is a non-negative integer.
    """
    n = gentrig._integer(n, "total degree", CyclotomicError)
    if not 0 <= n <= 120:
        raise CyclotomicError(f"total degree {n} is outside the supported 0..120")
    if n % 3 != 0:
        raise CyclotomicError(f"n = {n} is not divisible by 3")
    # n! / (k1! k2! k3!) is an integer multinomial, so both sums are
    # integers over n!: one Fraction each, not one per term
    factorial = [math.factorial(k) for k in range(n + 1)]
    count_a = count_b_ordered = 0
    for k1 in range(n + 1):
        for k2 in range(n - k1 + 1):
            k3 = n - k1 - k2
            classes = len({k1 % 3, k2 % 3, k3 % 3})
            if classes == 2:
                continue
            term = factorial[n] // (factorial[k1] * factorial[k2] * factorial[k3])
            if classes == 1:
                count_a += term
            else:
                count_b_ordered += term
    sum_a = Fraction(count_a, factorial[n])
    # distinct residues force distinct values, so each value set appears 3! times
    sum_b = Fraction(count_b_ordered, 6 * factorial[n])
    return sum_a, sum_b, sum_a == 3 * sum_b


def matrix_A(sys: CyclotomicSystem):
    """The boundary-jump solvability matrix and two determinant routes.

    Returns ``(A, det, det_via_factorization)`` where the second determinant
    is the modulus predicted by the Vandermonde factorization
    m^m J' = V J''; only moduli are comparable since unit phase factors are
    discarded along the way.  That modulus is prod_j |a_j| with
    a_j = exp(eta zeta^j pi) - exp(-eta zeta^j pi) = 2 sinh(pi eta zeta^j).
    Since eta zeta^j = exp(i pi (2j+1)/m), a_j = 0 exactly when
    eta zeta^j = +-i, so det A_m = 0 exactly when m is congruent to 2 mod 4;
    the vanishing factors are j = (m-2)/4 and j = (3m-2)/4 (j = 0, 1 for
    m = 2; j = 1, 4 for m = 6), and both routes then return roundoff.
    """
    m, eta, zeta = sys.m, sys.eta, sys.zeta
    if m > 12:
        raise CyclotomicError("m above 12 is not supported here")
    E = sys.exponentials(np.array([math.pi, -math.pi]))
    S = E @ sys.weights.T
    d = S[0] - S[1]  # every jump S_l(pi) - S_l(-pi)
    l, k = np.ogrid[:m, :m]
    idx = (m - 1 - k + l) % m
    J = eta ** (m - 1 - k - l + idx) * d[idx]
    A = (-1.0) ** (k + 1) * J * np.array([1, 1j, -1, -1j])[(k + m * (k % 2)) % 4]
    det = linalg.determinant(A)

    a = E[0] - E[1]
    j = np.arange(m)
    V = zeta ** (np.outer(j, j) % m)
    det_fact = abs(np.prod(a)) * abs(linalg.determinant(V)) ** 2 / m ** m
    return A, det, float(det_fact)

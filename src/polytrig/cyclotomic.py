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
from functools import lru_cache

import numpy as np

from . import gentrig, linalg
from .gentrig import EXP_GUARD, ArgumentOverflowError
from .poly import Polynomial


class CyclotomicError(ValueError):
    pass


@dataclass(frozen=True)
class CyclotomicSystem:
    m: int
    zeta: complex
    eta: complex


def make_cyclotomic(m: int) -> CyclotomicSystem:
    if m < 1:
        raise CyclotomicError("m must be a positive integer")
    return CyclotomicSystem(m, cmath.exp(2j * math.pi / m), cmath.exp(1j * math.pi / m))


def eval_S_cyclo(sys: CyclotomicSystem, l: int, x: complex) -> complex:
    """S_l(x) = (1/(m eta^l)) sum_j zeta^(l j) exp(eta zeta^j x)."""
    if not 0 <= l < sys.m:
        raise CyclotomicError(f"function index {l} out of range 0..{sys.m - 1}")
    x = complex(x)
    acc = 0j
    for j in range(sys.m):
        w = sys.eta * sys.zeta ** j
        if abs((w * x).real) > EXP_GUARD:
            raise ArgumentOverflowError(w, x)
        acc += sys.zeta ** (l * j) * cmath.exp(w * x)
    return acc / (sys.m * sys.eta ** l)


@lru_cache(maxsize=32)
def _unit_system(m: int) -> gentrig.GenTrigSystem:
    # exact roots of unity; avoids re-running the root finder per call
    return gentrig.from_roots([cmath.exp(2j * math.pi * j / m) for j in range(m)])


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
    """Truncated power series: only the exponents congruent to -l mod m survive."""
    if not 0 <= l < sys.m:
        raise CyclotomicError(f"function index {l} out of range 0..{sys.m - 1}")
    if terms * sys.m > 170:
        raise CyclotomicError("terms * m above 170 overflows double-precision factorials")
    x = complex(x)
    acc = 0j
    if l == 0:
        for k in range(terms):
            p = k * sys.m
            acc += ((-1) ** k) * x ** p / math.factorial(p)
        return acc
    for k in range(1, terms + 1):
        p = k * sys.m - l
        acc += ((-1) ** k) * x ** p / math.factorial(p)
    return acc / sys.zeta ** l


@dataclass(frozen=True)
class AdditionRule:
    """S_l(x1+x2) = sum_r signs[r] * S_partners[r](x1) * S_r(x2)."""

    m: int
    l: int
    signs: tuple
    partners: tuple


def addition_rule(m: int, l: int) -> AdditionRule:
    if not 0 <= l < m:
        raise CyclotomicError(f"function index {l} out of range 0..{m - 1}")
    signs = tuple(1 if r <= l else -1 for r in range(m))
    partners = tuple((l - r) % m for r in range(m))
    return AdditionRule(m, l, signs, partners)


def apply_addition(sys: CyclotomicSystem, rule: AdditionRule, x1: complex, x2: complex) -> complex:
    if rule.m != sys.m:
        raise CyclotomicError("rule and system orders differ")
    acc = 0j
    for r in range(sys.m):
        acc += rule.signs[r] * eval_S_cyclo(sys, rule.partners[r], x1) * eval_S_cyclo(sys, r, x2)
    return acc


def det_M_constant(m: int) -> int:
    """The constant value of det_M_cyclo: (-1)**(m*(m-1)//2).

    Forced at x = 0, where S_l(0) = delta_{l,0} leaves a single 1 and an
    anti-diagonal of -1 entries whose reversal permutation contributes
    (-1)**((m-1)*(m-2)//2) on top of the (-1)**(m-1) product.
    """
    return (-1) ** (m * (m - 1) // 2)


def det_M_cyclo(sys: CyclotomicSystem, x: complex) -> complex:
    """Determinant of the shifted matrix of f_l = zeta^l S_l(x).

    Constant in x; equals :func:`det_M_constant` of the order.
    """
    fs = [sys.zeta ** l * eval_S_cyclo(sys, l, x) for l in range(sys.m)]
    index, twist = gentrig._shift_fold(sys.m, -1.0)
    return linalg.determinant(np.array(fs)[index] * twist)


def factorial_identity_check(n: int):
    """Exact-rational check of the mod-3 factorial identity at total degree n.

    sum_A runs over ordered triples (k1, k2, k3) with k1+k2+k3 = n and all
    three congruent mod 3; sum_B over triples covering all three residue
    classes, counted once per value set.  Returns (sum_A, sum_B, holds) with
    holds = (sum_A == 3 * sum_B) exactly.
    """
    if n % 3 != 0:
        raise CyclotomicError(f"n = {n} is not divisible by 3")
    if n > 120:
        raise CyclotomicError("n above 120 is not supported")
    sum_a = Fraction(0)
    sum_b_ordered = Fraction(0)
    for k1 in range(n + 1):
        for k2 in range(n - k1 + 1):
            k3 = n - k1 - k2
            residues = (k1 % 3, k2 % 3, k3 % 3)
            if residues[0] == residues[1] == residues[2]:
                sum_a += Fraction(1, math.factorial(k1) * math.factorial(k2) * math.factorial(k3))
            elif len(set(residues)) == 3:
                sum_b_ordered += Fraction(1, math.factorial(k1) * math.factorial(k2) * math.factorial(k3))
    # distinct residues force distinct values, so each value set appears 3! times
    sum_b = sum_b_ordered / 6
    return sum_a, sum_b, sum_a == 3 * sum_b


def delta(sys: CyclotomicSystem, l: int) -> complex:
    """Jump of S_l across the period endpoints: S_l(pi) - S_l(-pi)."""
    return eval_S_cyclo(sys, l, math.pi) - eval_S_cyclo(sys, l, -math.pi)


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
    d = [delta(sys, l) for l in range(m)]
    A = np.empty((m, m), dtype=complex)
    for l in range(m):
        for k in range(m):
            idx = (m - 1 - k + l) % m
            J_lk = eta ** (m - 1 - k - l + idx) * d[idx]
            A[l, k] = ((-1) ** (k + 1)) * J_lk * (1j) ** (k + m * (k % 2))
    det = linalg.determinant(A)

    a = [cmath.exp(eta * zeta ** j * math.pi) - cmath.exp(-eta * zeta ** j * math.pi)
         for j in range(m)]
    V = np.array([[zeta ** (i * j) for j in range(m)] for i in range(m)], dtype=complex)
    det_fact = abs(np.prod(a)) * abs(linalg.determinant(V)) ** 2 / m ** m
    return A, det, float(det_fact)

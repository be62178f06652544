"""The x^m - 1 special case: rescaled functions, identities and the boundary-jump matrix.

Conventions: zeta = exp(2*pi*i/m) and eta = exp(i*pi/m), so eta**2 == zeta and
eta**m == -1.  The rescaled functions are S_l(x) = (1/m) * S^P_l(i*eta*x) for
P = x^m - 1 (cos and sin for m = 2), and the functions of the system of
x^m + i^m, whose roots are i*eta*zeta^j, with row l scaled by s_l.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import gentrig
from .poly import MAX_DEGREE, Polynomial, RootSet, _measure


class CyclotomicError(ValueError):
    pass


def _unit(k, m: int) -> np.ndarray:
    """q^k for q = exp(i pi / (2m)), a primitive 4m-th root of unity; the
    integer exponents are reduced mod 4m first, so each power is one rounding."""
    return np.exp(0.5j * np.pi / m * (np.asarray(k) % (4 * m)))


def _binomial(m: int, c: complex, k: np.ndarray, cls=gentrig.GenTrigSystem, **fields):
    """The system of x^m - c from its exact roots q^k[j] (:func:`_unit`) in
    lexicographic order.  (x^m - c) / (x - r_j) = sum_k r_j^k x^(m-1-k), so the
    T grid is T[0] = 1 and T[l][j] = (-1)^(l-1) r_j^l = -(-r_j)^l."""
    r = _unit(k, m)
    k = k[np.lexsort((r.imag, r.real))]
    r, T = _unit(k, m), -_unit(np.outer(np.arange(m), k + 2 * m), m)
    T[0] = 1
    mon = Polynomial((-c,) + (0,) * (m - 1) + (1,))
    roots = RootSet(tuple(r.tolist()), *_measure(r, np.array(mon.coeffs))[2:])
    return gentrig._system(mon, roots, T, cls, **fields)


@dataclass(frozen=True, eq=False)
class CyclotomicSystem(gentrig.GenTrigSystem):
    """The system of P = x^m + i^m, with roots r_j = i eta zeta^j so that
    exp(-i r_j x) = exp(eta zeta^j x); S_l is its function l times ``_scale[l]``."""

    zeta: complex
    eta: complex

    @cached_property
    def _scale(self) -> list:
        """s_l = 1/m at l = 0, else -(-1)^l / (m (i zeta)^l) = -q^((m-4) l) / m,
        so that s_l T[l][j] = zeta^(l j) / (m eta^l)."""
        s = -_unit((self.m - 4) * np.arange(self.m), self.m) / self.m
        s[0] = 1 / self.m
        return s.tolist()


def _order(m) -> int:
    """``m`` as an order, an integer in 1..``MAX_DEGREE``; anything else raises CyclotomicError."""
    m = gentrig._integer(m, "order m", CyclotomicError)
    if not 1 <= m <= MAX_DEGREE:
        raise CyclotomicError(f"order m = {m} is outside 1..{MAX_DEGREE}")
    return m


def make_cyclotomic(m: int) -> CyclotomicSystem:
    """The system of order m, an integer in 1..``MAX_DEGREE``; its roots are q^(4j + 2 + m)."""
    m = _order(m)
    return _binomial(m, -(1j ** m), 4 * np.arange(m) + 2 + m, CyclotomicSystem,
                     zeta=cmath.exp(2j * math.pi / m), eta=cmath.exp(1j * math.pi / m))


def _eval_all(sys: CyclotomicSystem, x) -> np.ndarray:
    """S[..., l] = S_l(x) for every l at once."""
    return gentrig.eval_S_vector(sys, x) * sys._scale


def eval_S_cyclo(sys: CyclotomicSystem, l: int, x: complex) -> complex:
    """S_l(x) = (1/(m eta^l)) sum_j zeta^(l j) exp(eta zeta^j x), entry l of
    :func:`_eval_all`; an array of x gives an array."""
    if type(l) is not int or not 0 <= l < sys.m:
        l = gentrig._check_index(sys.m, l, CyclotomicError)
    return gentrig._scalar(_eval_all(sys, x)[..., l])


@lru_cache(maxsize=32)
def _unit_system(m: int) -> gentrig.GenTrigSystem:
    """The system of x^m - 1 from its exact roots zeta^j = q^(4j), built once per order."""
    return _binomial(m, 1, 4 * np.arange(m))


def rescale_consistency(sys: CyclotomicSystem, l: int, x: complex):
    """Both sides of the rescaling relation tying S_l to the x^m - 1 system.

    For l >= 1 the route through x^m - 1 carries a unit factor (-1)**(l-1) *
    eta**l beyond the plain 1/m: the sign of its T grid and the eta**l of
    S_l's 1/(m eta^l) (at m = 2 the plain rescale gives i*sin, not sin).
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
    l = gentrig._check_index(sys.m, l, CyclotomicError)
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
    """The addition rule of S_l at order m, an integer in 1..``MAX_DEGREE``."""
    m = _order(m)
    l = gentrig._check_index(m, l, CyclotomicError)
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
    """(-1)**(m*(m-1)//2), the value of det_M_cyclo at an order m in 1..``MAX_DEGREE``.

    At x = 0, S_l(0) = delta_{l,0} leaves one 1 and an anti-diagonal of -1
    entries, whose reversal adds (-1)**((m-1)*(m-2)//2) to their (-1)**(m-1).
    """
    m = _order(m)
    return (-1) ** (m * (m - 1) // 2)


def det_M_cyclo(sys: CyclotomicSystem, x: complex) -> complex:
    """det of the shifted matrix of f_l = zeta^l S_l(x) with lam = -1, constant in x
    at :func:`det_M_constant`.  The system's certificate (L = e_0, lam = -1) has rows
    (-i r_j)^l = m zeta^l s_l T[l][j], so its f_l are m zeta^l S_l and this is its
    ``gentrig.eval_det_M`` over m^m.  At m = 1, [[exp(-x)]] has no wrap and no
    identity: :class:`CyclotomicError`.  An array of x gives an array."""
    if sys.m < 2:
        raise CyclotomicError("the determinant identity needs m at least 2")
    return gentrig.eval_det_M(gentrig.identity_certificate(sys), sys, x) / sys.m ** sys.m


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

    Returns ``(A, det, det_via_factorization)``: ``det`` from one LAPACK LU of
    A (``numpy.linalg.det``), the second the modulus of the Vandermonde
    factorization m^m J' = V J'' (unit phases dropped).  V = zeta^(jk) / sqrt(m)
    is unitary, so that modulus is prod_j |a_j|, a_j = 2 sinh(pi eta zeta^j).
    As eta zeta^j = exp(i pi (2j+1)/m), a_j = 0 exactly at eta zeta^j = +-i,
    j = (m-2)/4 and (3m-2)/4: det A_m = 0 for m = 2 mod 4 (j = 0, 1 at m = 2;
    1, 4 at m = 6), and both routes then return roundoff.
    """
    m, eta = sys.m, sys.eta
    if m > 12:
        raise CyclotomicError("m above 12 is not supported here")
    E = sys.exponentials(np.array([math.pi, -math.pi]))
    S = E @ sys.T.T * sys._scale
    d = S[0] - S[1]  # every jump S_l(pi) - S_l(-pi)
    l, k = np.ogrid[:m, :m]
    idx = (m - 1 - k + l) % m
    J = eta ** (m - 1 - k - l + idx) * d[idx]
    A = (-1.0) ** (k + 1) * J * np.array([1, 1j, -1, -1j])[(k + m * (k % 2)) % 4]
    a = E[0] - E[1]
    return A, complex(np.linalg.det(A)), float(abs(np.prod(a)))

"""Complex polynomials: parsing, printing, root finding and deflation."""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MAX_DEGREE = 24

#: Aberth sweeps after which the root polish gives up
MAX_SWEEPS = 500


class PolynomialError(ValueError):
    """Base class for errors raised by this package's polynomial layer."""


class ParseError(PolynomialError):
    """Syntax error in a polynomial expression; carries the character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at position {offset})")
        self.offset = offset


class RootFindingError(PolynomialError):
    """Failure of the root finder; carries its last iterate and residual."""

    def __init__(self, message: str, best_roots: Sequence[complex], residual: float):
        super().__init__(message)
        self.best_roots = tuple(best_roots)
        self.residual = residual


def _require_finite(z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise PolynomialError(f"non-finite value {z!r}")
    return z


@dataclass(frozen=True)
class Polynomial:
    """Immutable polynomial; ``coeffs[k]`` multiplies ``x**k`` (ascending powers).

    Exact trailing zeros are stripped; the zero polynomial and a degree above
    ``MAX_DEGREE`` are rejected.
    """

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(_require_finite(c) for c in self.coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            raise PolynomialError("empty coefficient sequence")
        if coeffs[-1] == 0:
            raise PolynomialError("zero polynomial is not representable")
        if len(coeffs) > MAX_DEGREE + 1:
            raise PolynomialError(
                f"degree {len(coeffs) - 1} exceeds the supported maximum {MAX_DEGREE}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            raise PolynomialError("derivative of a constant is the zero polynomial")
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def monic(self) -> "Polynomial":
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        # the lead is set, not divided: a complex lead / lead can round off 1
        return Polynomial(tuple(c / lead for c in self.coeffs[:-1]) + (1,))

    @classmethod
    def from_roots(cls, roots: Sequence[complex]) -> "Polynomial":
        return cls(tuple(_expand_roots(roots)))


def _expand_roots(roots: Sequence[complex]) -> list:
    """The ascending coefficients of the monic polynomial with these roots, as
    a list of complex, multiplied out one root at a time and not validated."""
    coeffs = [1 + 0j]
    for r in map(complex, roots):
        coeffs.append(0j)
        for k in range(len(coeffs) - 1, 0, -1):
            coeffs[k] = coeffs[k - 1] - r * coeffs[k]
        coeffs[0] = -r * coeffs[0]
    return coeffs


#: a number literal (group 1) or any other character that is not a space
_TOKEN_RE = re.compile(r"((?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)|\S")


def _power_sums(text: str, max_power: int) -> dict:
    """The summed coefficient of each power of x that a term of ``text`` names.

    ``text`` is a sum of terms ``c``, ``c*x^k``, ``c x^k``, ``x^k`` or ``x``,
    the first optionally negated, with k at most ``max_power``; ``c`` is
    ``i``, a number literal, a number literal followed by ``i``, or a
    parenthesized sum of those.  Whitespace is ignored.  A
    :class:`ParseError` carries the offset of the first token that does not
    fit, or ``len(text)`` if the text ends early.
    """
    # (kind, text, offset): kind is "number" or the character itself
    tokens = [("number" if m.group(1) else m.group(), m.group(), m.start())
              for m in _TOKEN_RE.finditer(text)] + [("", "", len(text))]
    at = 0

    def fail(message):
        raise ParseError(message, tokens[at][2])

    def take(kind):
        nonlocal at
        if tokens[at][0] != kind:
            return None
        at += 1
        return tokens[at - 1][1]

    def sign():
        return -1.0 if take("-") else 1.0 if take("+") else None

    def literal():
        if take("i"):
            return 1j
        number = take("number")
        if number is None:
            fail("expected a numeric literal")
        return float(number) * 1j if take("i") else complex(float(number))

    if tokens[0][0] in ("", "+"):
        fail("empty input" if tokens[0][0] == "" else "unexpected leading '+'")
    powers: dict[int, complex] = {}
    term_sign = -1.0 if take("-") else 1.0
    while True:
        coeff = None
        if take("("):
            coeff, part_sign = 0j, sign() or 1.0
            while True:
                coeff += part_sign * literal()
                if take(")"):
                    break
                part_sign = sign()
                if part_sign is None:
                    fail("expected ')'")
        elif tokens[at][0] in ("i", "number"):
            coeff = literal()
        if coeff is not None and take("*") and tokens[at][0] != "x":
            fail("expected 'x' after '*'")
        power, power_offset = 0, tokens[at][2]
        if take("x"):
            power = 1
            if take("^"):
                kind, exponent, power_offset = tokens[at]
                if kind != "number" or not exponent.isdecimal():
                    fail("expected a non-negative integer exponent")
                at += 1
                power = int(exponent)
        elif coeff is None:
            fail("expected a term")
        if power > max_power:
            raise ParseError(f"exponent {power} exceeds the supported maximum {max_power}"
                             if max_power else "expected a constant", power_offset)
        powers[power] = powers.get(power, 0j) + term_sign * (1 + 0j if coeff is None else coeff)
        if tokens[at][0] == "":
            return powers
        term_sign = sign()
        if term_sign is None:
            fail("expected '+' or '-' between terms")


def parse_polynomial(text: str) -> Polynomial:
    """Parse a polynomial expression such as ``"x^3+x^2+1"`` or ``"(1+2i)x^2-3"``.

    The grammar is that of :func:`_power_sums`, up to ``x^MAX_DEGREE``; a
    polynomial whose coefficients all cancel is a :class:`ParseError`.
    """
    powers = _power_sums(text, MAX_DEGREE)
    coeffs = [powers.get(k, 0j) for k in range(max(powers) + 1)]
    if all(c == 0 for c in coeffs):
        raise ParseError("polynomial is identically zero", 0)
    return Polynomial(tuple(coeffs))


def parse_complex(text: str) -> complex:
    """Parse a constant of the polynomial grammar, such as ``0.3+0.1i``, ``-2`` or ``0``."""
    return _require_finite(_power_sums(text, 0)[0])


def _format_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _format_coeff(c: complex) -> str:
    if c.imag == 0:
        return _format_real(c.real)
    if c.real == 0:
        if c.imag == 1:
            return "i"
        if c.imag == -1:
            return "-i"
        return _format_real(c.imag) + "i"
    op = "+" if c.imag > 0 else "-"
    return f"({_format_real(c.real)}{op}{_format_real(abs(c.imag))}i)"


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form; ``parse_polynomial(format_polynomial(p))`` equals ``p``."""
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        xs = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        if not xs:
            term = _format_coeff(c)
        elif c == 1:
            term = xs
        elif c == -1:
            term = "-" + xs
        else:
            term = _format_coeff(c) + "*" + xs
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += term if term.startswith("-") else "+" + term
    return out


def _powers(z: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """V[j, k] = z_j^k for k = 0..n-1, the one power matrix of a point set: the running
    product of ``np.vander(z, n, increasing=True)``, bit for bit, without its checks,
    written into ``out`` when given.  The oracle head fills its integer powers n-major
    instead, one row per multiply: 4x faster."""
    V = np.empty((len(z), n), dtype=complex) if out is None else out
    V[:, 0] = 1
    rest = V[:, 1:]
    rest[...] = z[:, None]
    np.multiply.accumulate(rest, axis=1, out=rest)
    return V


def _with_slope(a: np.ndarray) -> np.ndarray:
    """[a | a']: the ascending coefficients of P and P' as the columns of one matrix."""
    coef = np.zeros((len(a), 2), dtype=complex)
    coef[:, 0] = a
    coef[:-1, 1] = a[1:] * np.arange(1, len(a))
    return coef


def _sizes(V: np.ndarray, value: np.ndarray, scale: np.ndarray):
    """``(residual, backward_error)`` of the values P(z): max |P(z)| and
    max |P(z)| / sum |a_k| |z|^k, the sums being |V| @ ``scale`` for the power
    matrix V of z and ``scale`` = |a|."""
    size = np.abs(value)
    backward = size / np.maximum(np.abs(V).dot(scale), 5e-324)  # scale 0 has P = 0: counts 0
    return float(np.maximum.reduce(size)), float(np.maximum.reduce(backward))


def _measure(z: np.ndarray, a: np.ndarray):
    """``(P(z), P'(z), residual, backward_error)`` of the points z as roots of the
    monic P with ascending coefficients a: the residual max |P(z)| and the
    backward error max |P(z)| / sum |a_k| |z|^k (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2002, section 5.1), from V = ``_powers(z, m + 1)``
    in the products V @ [a | a'] and |V| @ |a|."""
    V = _powers(z, len(a))
    value, slope = V.dot(_with_slope(a)).T
    return (value, slope) + _sizes(V, value, np.abs(a))


@dataclass(frozen=True)
class RootSet:
    """All roots of a polynomial (with multiplicity), lexicographically sorted, with
    max |P(z)|, max |P(z)| / sum |a_k| |z|^k and the number of polishing sweeps."""

    roots: tuple
    residual: float
    backward_error: float = 0.0
    sweeps: int = 0

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)


def find_roots(p: Polynomial) -> RootSet:
    """All roots: companion eigenvalues (backward stable) polished by Aberth sweeps.

    The iterate is kept in the order in which it is returned: the seeds are
    sorted, and so is each corrected iterate.  Each sweep takes P(z) and P'(z)
    at every iterate from one product of the power matrix V (:func:`_powers`),
    then makes one Aberth correction of them all.  The polish stops when the
    largest correction no longer halves (or is zero) and the backward error
    read off that sweep's own V, which is :func:`_measure` of the sorted
    iterate bit for bit, is at most 4 m eps; that correction is not applied,
    and the seed always gets at least one.  Raises :class:`RootFindingError`,
    naming the rule that fired, when LAPACK returns no eigenvalues, when |z|^m
    overflows at a seed, at a fixed point (a sweep above the bound that would
    leave every iterate as it is), at a cycle (a sweep above the bound that
    reaches an iterate an earlier one reached), after ``MAX_SWEEPS`` sweeps,
    or when the residual max|P(r)| |a_m| is not finite; its ``best_roots``,
    residual and backward error then describe the last iterate.  A sweep is a
    function of the iterate alone, and the halving test's threshold one of the
    iterate before, so once an iterate recurs the polish repeats that stretch
    of sweeps up to the cap.  No floating-point warning escapes.
    """
    m = p.degree
    if m < 1:
        raise PolynomialError(f"degree {m} must be at least 1")
    a = np.array(p.monic().coeffs, dtype=complex)  # monic() refuses an overflowing quotient
    last_column = -a[:-1]
    if not last_column.imag.any():
        last_column = last_column.real  # conjugate pairs come out exact
    companion = np.eye(m, k=-1, dtype=last_column.dtype)
    companion[:, -1] = last_column
    try:
        z = np.linalg.eigvals(companion).astype(complex, copy=False)
    except np.linalg.LinAlgError as exc:  # non-finite companion, or no QR convergence
        raise RootFindingError(f"roots: no companion eigenvalues ({exc})", (), math.inf) from exc

    bound = 4 * m * float(np.finfo(float).eps)
    half_step = np.inf
    converged = False
    seen = {}  # iterate bytes -> the sweep that measured it above the bound
    # 0 * inf at coincident iterates, 0 / 0 at a zero root, and a' or |z|^m overflowing
    with np.errstate(all="ignore"):
        coef, scale = _with_slope(a), np.abs(a)
        V = np.empty((m, m + 1), dtype=complex)
        gap = np.empty((m, m), dtype=complex)
        diagonal = gap.reshape(-1)[::m + 1]  # a view of gap's diagonal
        z.sort()  # in the returned order: a row's bits in V @ [a | a'] depend on its place
        top = np.maximum.reduce(np.abs(z))
        if not np.isfinite(top ** m):  # V would hold inf, and no scale bounds |P(z)|
            raise RootFindingError(f"roots: |z|^{m} overflows at |z| = {top:.3e}",
                                   (z + 0).tolist(), math.inf)
        for sweep in range(1, MAX_SWEEPS + 1):
            value, slope = _powers(z, m + 1, V).dot(coef).T
            np.subtract.outer(z, z, out=gap)
            diagonal.fill(np.inf)  # drops k = j from the Aberth sum
            corr = value / (slope - value * np.add.reduce(np.reciprocal(gap, out=gap), 1))
            step = np.maximum.reduce(np.abs(corr))
            if math.isnan(step):  # 0 * inf or 0 / 0: such an iterate stays put
                corr[np.isnan(corr)] = 0
                step = np.maximum.reduce(np.abs(corr))
            if step > half_step or step == 0:
                residual, backward = _sizes(V, value, scale)
                if converged := not backward > bound:  # so is nan (inf / inf): raised below
                    break
                if np.array_equal(z - corr, z):  # every later sweep would repeat this one
                    stop = "the polish stalls at a fixed point"
                    break
                first = seen.setdefault(z.tobytes(), sweep)
                if first != sweep:  # every later sweep repeats sweeps first..sweep - 1
                    stop = f"the polish cycles (sweeps {first} and {sweep} reach one iterate)"
                    break
            z -= corr
            z.sort()
            half_step = 0.5 * step
        else:  # the cap: measure the corrected iterate that is returned
            stop = "no convergence"
            _, _, residual, backward = _measure(z, a)
    residual *= abs(p.coeffs[-1])
    roots = tuple((z + 0).tolist())  # + 0 turns -0.0 into 0.0
    if not (converged and math.isfinite(residual)):
        if converged:
            stop = f"residual max|P(r)| |a_m| = {residual:.3e} is not finite"
        raise RootFindingError(f"roots: {stop} after {sweep} sweeps, backward error "
                               f"{backward:.3e} (bound {bound:.3e})", roots, residual)
    return RootSet(roots, residual, backward, sweep)


def synthetic_divide(p: Polynomial, r: complex):
    """Divide by ``(x - r)``: returns ``(quotient, remainder)`` with ``remainder == p(r)``.

    A scalar Horner loop, kept as the independent reference that the
    all-roots-at-once ``gentrig.deflation_matrix`` is tested against.
    """
    if p.degree < 1:
        raise PolynomialError("degree must be at least 1")
    r = _require_finite(r)
    quotient = [0j] * p.degree
    acc = p.coeffs[-1]
    for k in range(p.degree - 1, -1, -1):
        quotient[k] = acc
        acc = acc * r + p.coeffs[k]
    return Polynomial(tuple(quotient)), acc

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

    Exact trailing zeros are stripped; the zero polynomial is rejected.
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
        return Polynomial(tuple(c / lead for c in self.coeffs))

    @classmethod
    def from_roots(cls, roots: Sequence[complex]) -> "Polynomial":
        coeffs = [1 + 0j]
        for r in roots:
            coeffs.append(0j)
            for k in range(len(coeffs) - 1, 0, -1):
                coeffs[k] = coeffs[k - 1] - r * coeffs[k]
            coeffs[0] = -r * coeffs[0]
        return cls(tuple(coeffs))


_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def number(self) -> float:
        self.skip_ws()
        m = _NUMBER_RE.match(self.text, self.pos)
        if m is None:
            self.fail("expected a numeric literal")
        self.pos = m.end()
        return float(m.group())


def _parse_simple_coeff(s: _Scanner) -> complex:
    # number, number followed by 'i', or a bare 'i'
    if s.peek() == "i":
        s.pos += 1
        return 1j
    value = s.number()
    if s.peek() == "i":
        s.pos += 1
        return value * 1j
    return complex(value)


def _parse_paren_coeff(s: _Scanner) -> complex:
    # '(' already consumed: a+bi, a-bi, bi, bi+a ...
    total = 0j
    sign = 1.0
    if s.take("-"):
        sign = -1.0
    elif s.take("+"):
        pass
    total += sign * _parse_simple_coeff(s)
    while s.peek() in "+-":
        sign = -1.0 if s.take("-") else (s.take("+"), 1.0)[1]
        total += sign * _parse_simple_coeff(s)
    if not s.take(")"):
        s.fail("expected ')'")
    return total


def _parse_x_part(s: _Scanner) -> int:
    # 'x' already consumed; returns the exponent
    if not s.take("^"):
        return 1
    s.skip_ws()
    m = re.match(r"\d+", s.text[s.pos:])
    if m is None:
        s.fail("expected a non-negative integer exponent")
    s.pos += m.end()
    return int(m.group())


def parse_polynomial(text: str) -> Polynomial:
    """Parse a polynomial expression such as ``"x^3+x^2+1"`` or ``"(1+2i)x^2-3"``.

    Terms are ``c``, ``c*x^k``, ``x^k`` or ``x`` with a real, imaginary or
    parenthesized complex coefficient; whitespace is ignored.
    """
    s = _Scanner(text)
    powers: dict[int, complex] = {}
    first = True
    while True:
        s.skip_ws()
        if s.pos >= len(s.text):
            if first:
                s.fail("empty input")
            break
        sign = 1.0
        if s.take("-"):
            sign = -1.0
        elif s.take("+"):
            if first:
                s.fail("unexpected leading '+'")
        elif not first:
            s.fail("expected '+' or '-' between terms")
        first = False

        ch = s.peek()
        coeff = 1 + 0j
        have_coeff = False
        if ch == "(":
            s.pos += 1
            coeff = _parse_paren_coeff(s)
            have_coeff = True
        elif ch == "i" or ch.isdigit() or ch == ".":
            coeff = _parse_simple_coeff(s)
            have_coeff = True
        exponent = 0
        s.take("*") if have_coeff else None
        if s.peek() == "x":
            s.pos += 1
            exponent = _parse_x_part(s)
        elif not have_coeff:
            s.fail("expected a term")
        if exponent > MAX_DEGREE:
            s.fail(f"exponent {exponent} exceeds the supported maximum {MAX_DEGREE}")
        powers[exponent] = powers.get(exponent, 0j) + sign * coeff

    degree = max(powers)
    coeffs = [powers.get(k, 0j) for k in range(degree + 1)]
    if all(c == 0 for c in coeffs):
        raise ParseError("polynomial is identically zero", 0)
    while coeffs[-1] == 0:
        coeffs.pop()
    return Polynomial(tuple(coeffs))


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

    Each sweep is one Horner pass for P(z), P'(z) and the scale sum |a_k| |z|^k
    at every iterate, then one Aberth correction of them all.  The polish stops
    when every iterate has |P(z)| <= 4 m eps scale and the largest correction no
    longer halves (or is zero); that correction is not applied, and the seed
    always gets at least one.  Raises :class:`RootFindingError` when LAPACK
    returns no eigenvalues or after ``MAX_SWEEPS`` sweeps.
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

    # falling-power coefficients of P, P' and the scale, one copy per root
    desc = a[::-1]
    rows = np.array([desc, np.concatenate(([0], desc[:-1] * np.arange(m, 0, -1))), np.abs(desc)])
    head, *columns = np.repeat(rows.T[:, :, None], m, axis=2)
    points = np.empty((3, m), dtype=complex)  # z, z, |z|
    bound = 4 * m * float(np.finfo(float).eps)
    half_step = np.inf
    converged = False
    with np.errstate(all="ignore"):  # 0 * inf at coincident iterates, 0 / 0 at a zero root
        for sweep in range(1, MAX_SWEEPS + 1):
            points[:2] = z
            points[2] = np.abs(z)
            H = head.copy()
            for column in columns:
                H *= points
                H += column
            value, slope, scale = H[0], H[1], H[2].real
            gap = z[:, None] - z
            gap.flat[::m + 1] = np.inf  # drops k = j from the Aberth sum
            corr = value / (slope - value * np.add.reduce(np.reciprocal(gap), 1))
            step = np.maximum.reduce(np.abs(corr))
            if math.isnan(step):  # 0 * inf or 0 / 0: such an iterate stays put
                corr[np.isnan(corr)] = 0
                step = np.maximum.reduce(np.abs(corr))
            if step > half_step or step == 0:
                converged = (np.abs(value) <= bound * scale).all()
                if converged:
                    break
            z -= corr
            half_step = 0.5 * step
        size = np.abs(value)
        backward = float(np.maximum.reduce(size / scale, where=scale > 0, initial=0.0))
    residual = abs(p.coeffs[-1]) * float(np.maximum.reduce(size))
    roots = tuple((np.sort(z) + 0).tolist())  # + 0 turns -0.0 into 0.0
    if not (converged and math.isfinite(residual)):  # inf <= bound * inf holds
        raise RootFindingError(f"roots: no convergence after {sweep} sweeps, backward "
                               f"error {backward:.3e} (bound {bound:.3e})", roots, residual)
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

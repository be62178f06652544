import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytrig import poly
from polytrig.poly import (MAX_DEGREE, ParseError, Polynomial, PolynomialError,
                           RootFindingError, find_roots, format_polynomial,
                           parse_polynomial, synthetic_divide)

EPS = float(np.finfo(float).eps)


def backward_errors(p, roots):
    """|P(z)| / sum |a_k| |z|^k for each root, by direct summation."""
    return [abs(p(z)) / sum(abs(c) * abs(z) ** k for k, c in enumerate(p.coeffs))
            for z in roots]


def in_domain_poly(rng, degree):
    """P from roots in the unit square, |r| >= 0.1 and at least 0.05 off the integers."""
    while True:
        roots = rng.uniform(-1, 1, degree) + 1j * rng.uniform(-1, 1, degree)
        if (np.min(np.abs(roots)) >= 0.1
                and np.min(np.abs(roots - np.round(roots.real))) >= 0.05):
            return Polynomial(tuple(complex(c) for c in np.poly(roots)[::-1]))


class TestParsing:
    def test_basic_cubic(self):
        p = parse_polynomial("x^3+x^2+1")
        assert p.coeffs == (1, 0, 1, 1)

    def test_coefficients_and_star(self):
        assert parse_polynomial("2*x^2-3x+0.5").coeffs == (0.5, -3, 2)

    def test_complex_literals(self):
        p = parse_polynomial("(1+2i)x^2 - i*x + (3-0.5i)")
        assert p.coeffs == (3 - 0.5j, -1j, 1 + 2j)

    def test_bare_i_and_merged_terms(self):
        assert parse_polynomial("i").coeffs == (1j,)
        assert parse_polynomial("x + x").coeffs == (0, 2)

    def test_whitespace(self):
        assert parse_polynomial("  x ^ 2  +  1 ") == parse_polynomial("x^2+1")

    @pytest.mark.parametrize("text,offset", [
        ("", 0),
        ("x^", 2),
        ("x^-2", 2),
        ("x+", 2),
        ("(1+2i", 5),
        ("x 1", 2),
        ("x^2 + * 3", 6),
    ])
    def test_error_offsets(self, text, offset):
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text)
        assert exc.value.offset == offset

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("x - x")

    def test_degree_cap(self):
        with pytest.raises(ParseError):
            parse_polynomial(f"x^{MAX_DEGREE + 1}")


class TestFormatting:
    def test_canonical_form(self):
        assert format_polynomial(parse_polynomial("x^3+x^2+1")) == "x^3+x^2+1"
        assert format_polynomial(Polynomial((3 - 0.5j, -1j, 1 + 2j))) == \
            "(1+2i)*x^2-i*x+(3-0.5i)"

    def test_unit_coefficients(self):
        assert format_polynomial(Polynomial((0, -1, 0, 1))) == "x^3-x"

    @given(st.lists(
        st.complex_numbers(allow_nan=False, allow_infinity=False,
                           min_magnitude=0, max_magnitude=1e6),
        min_size=1, max_size=8,
    ))
    @settings(max_examples=200)
    def test_roundtrip(self, coeffs):
        # print-then-parse must be the identity on every representable polynomial
        if all(c == 0 for c in coeffs):
            coeffs[-1] = 1.0
        p = Polynomial(tuple(coeffs))
        assert parse_polynomial(format_polynomial(p)) == p


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        assert Polynomial((1, 2, 0, 0)).degree == 1

    def test_zero_rejected(self):
        with pytest.raises(PolynomialError):
            Polynomial((0,))

    def test_nonfinite_rejected(self):
        with pytest.raises(PolynomialError):
            Polynomial((math.inf, 1))

    def test_eval_and_derivative(self):
        p = Polynomial((1, 0, 1, 1))  # x^3 + x^2 + 1
        assert p(2) == 13
        assert p.derivative().coeffs == (0, 2, 3)

    def test_from_roots(self):
        p = Polynomial.from_roots([1, 2, 3])
        assert p.coeffs == pytest.approx((-6, 11, -6, 1))


class TestRoots:
    def test_quadratic(self):
        rs = find_roots(parse_polynomial("x^2+1"))
        assert rs.roots == pytest.approx((-1j, 1j))

    def test_cubic_real_root(self):
        """The real root of x^3+x^2+1, oracled here by bisection."""
        p = parse_polynomial("x^3+x^2+1")
        lo, hi = -2.0, -1.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if (p(lo) * p(mid)).real <= 0:
                hi = mid
            else:
                lo = mid
        real_root = (lo + hi) / 2
        assert abs(real_root - (-1.4655712319)) < 1e-9
        rs = find_roots(p)
        assert rs.roots[0] == pytest.approx(real_root, abs=1e-12)
        # remaining pair solves the deflated quadratic
        q, _ = synthetic_divide(p.monic(), rs.roots[0])
        c, b, a = q.coeffs
        disc = cmath.sqrt(b * b - 4 * a * c)
        pair = sorted([(-b - disc) / (2 * a), (-b + disc) / (2 * a)],
                      key=lambda z: (z.real, z.imag))
        assert rs.roots[1] == pytest.approx(pair[0], abs=1e-12)
        assert rs.roots[2] == pytest.approx(pair[1], abs=1e-12)

    def test_roots_of_unity(self):
        rs = find_roots(parse_polynomial("x^5-1"))
        expected = sorted((cmath.exp(2j * math.pi * j / 5) for j in range(5)),
                          key=lambda z: (z.real, z.imag))
        for got, want in zip(rs, expected):
            assert got == pytest.approx(want, abs=1e-12)

    def test_repeated_root(self):
        rs = find_roots(Polynomial.from_roots([2, 2, 2]))
        for r in rs:
            assert abs(r - 2) < 1e-3  # multiplicity-3 clusters lose digits

    @pytest.mark.parametrize("p", [Polynomial.from_roots([1, 1, 1, 1]),
                                   Polynomial((1, 0, 2, 0, 1))], ids=["(x-1)^4", "(x^2+1)^2"])
    def test_clusters_converge(self, p):
        rs = find_roots(p)
        bound = 4 * p.degree * EPS
        assert len(rs) == p.degree and rs.sweeps >= 1
        assert rs.backward_error <= bound
        assert max(backward_errors(p, rs)) <= 2 * bound  # reevaluated, own rounding
        centers = (1,) if p.coeffs[1] else (1j, -1j)
        for r in rs:  # a cluster of multiplicity k spreads to about eps^(1/k)
            assert min(abs(r - c) for c in centers) < 1e-3

    def test_in_domain_random_polys_converge(self):
        rng = np.random.default_rng(2016)
        for _ in range(120):
            p = in_domain_poly(rng, int(rng.integers(12, 25)))
            rs = find_roots(p)
            bound = 4 * p.degree * EPS
            assert len(rs) == p.degree
            assert rs.backward_error <= bound
            assert max(backward_errors(p, rs)) <= 2 * bound  # reevaluated, own rounding

    def test_roots_at_zero(self):
        # coincident iterates at 0, where P and the scale both vanish
        rs = find_roots(parse_polynomial("x^3+x^2"))
        assert rs.roots == (-1, 0, 0) and rs.backward_error == 0
        assert find_roots(parse_polynomial("x^2")).roots == (0, 0)

    def test_polish_reaches_exact_roots(self):
        # complex coefficients: the eigenvalue seed is off by ~1e-16, the polish is not
        assert find_roots(Polynomial((-2, -3j, 1))).roots == (1j, 2j)

    def test_sweep_cap_names_the_stage(self, monkeypatch):
        monkeypatch.setattr(poly, "MAX_SWEEPS", 1)
        with pytest.raises(RootFindingError, match=r"^roots: no convergence after 1 sweeps, "
                                                   r"backward error") as exc:
            find_roots(Polynomial((-2, -3j, 1)))
        assert len(exc.value.best_roots) == 2

    def test_nonmonic_and_linear(self):
        assert find_roots(Polynomial((6, 3))).roots == (-2,)
        rs = find_roots(Polynomial((2, 0, 2)))
        assert rs.roots == pytest.approx((-1j, 1j))

    def test_residual_reported(self):
        rs = find_roots(parse_polynomial("x^4-2x+3"))
        assert rs.residual < 1e-12

    def test_random_polys_converge(self):
        import random

        rng = random.Random(7)
        for _ in range(20):
            deg = rng.randint(2, 10)
            coeffs = [complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(deg)]
            coeffs.append(1.0)
            p = Polynomial(tuple(coeffs))
            rs = find_roots(p)
            lead = abs(p.coeffs[-1])
            for r in rs:
                assert abs(p(r)) < 1e-8 * lead * (1 + abs(r)) ** deg


class TestSymmetricFunctions:
    def test_synthetic_divide(self):
        p = parse_polynomial("x^3+x^2+1")
        q, rem = synthetic_divide(p, 2.0)
        assert rem == p(2.0)
        assert q.coeffs == (6, 3, 1)

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytrig import poly
from polytrig.cyclotomic import make_cyclotomic
from polytrig.gentrig import from_roots, make_system
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

    def test_leading_sign(self):
        # a leading '-' negates the first term; a leading '+' is refused at
        # the '+' (test_error_offsets), but a '+' opening a parenthesis is not
        assert parse_polynomial("-x^2+1").coeffs == (1, 0, -1)
        assert parse_polynomial("(+2-i)x").coeffs == (0, 2 - 1j)

    @pytest.mark.parametrize("text,offset", [
        ("", 0),
        ("x^", 2),
        ("x^-2", 2),
        ("x+", 2),
        ("(1+2i", 5),
        ("x 1", 2),
        ("x^2 + * 3", 6),
        ("+x", 0),  # the offset of the '+'
        (" + x", 1),
        ("(1+2", 4),  # "expected ')'" (test_unclosed_parenthesis)
        ("x^25 + 1", 2),  # the offset of the exponent above the cap
        ("x^2.5", 2),  # a literal exponent that is not an integer, whole
        ("x^1e3", 2),
        ("2*", 2),  # a '*' not followed by x
        ("2*+3", 2),
    ])
    def test_error_offsets(self, text, offset):
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text)
        assert exc.value.offset == offset

    def test_missing_literal_in_a_parenthesized_sum(self):
        with pytest.raises(ParseError, match=r"^expected a numeric literal \(at position 3\)$") as exc:
            parse_polynomial("(1+)x")
        assert exc.value.offset == 3

    def test_unclosed_parenthesis(self):
        with pytest.raises(ParseError, match=r"expected '\)' \(at position 4\)"):
            parse_polynomial("(1+2")

    def test_non_finite_coefficient_is_not_a_parse_error(self):
        # the text parses; the coefficient it names is refused
        for text in ("1e999x", "1e999i", "x - 1e999"):
            with pytest.raises(PolynomialError, match="non-finite") as exc:
                parse_polynomial(text)
            assert not isinstance(exc.value, ParseError)

    def test_parse_complex(self):
        # a constant of the same grammar: a sum of power-0 terms, zero included
        for text, value in (("0", 0j), ("1 - 1", 0j), ("-0.5i", complex(0, -0.5)), ("(1-2i)", 1 - 2j),
                            (" 2 - 3 ", -1 + 0j), ("x^0", 1 + 0j)):
            got = poly.parse_complex(text)
            assert type(got) is complex and repr(got) == repr(value), text
        for text, offset in (("x", 0), ("", 0), ("2x", 1), (" 1 + x^2", 7), ("0*x", 2)):
            with pytest.raises(ParseError) as exc:
                poly.parse_complex(text)
            assert exc.value.offset == offset, text
        with pytest.raises(PolynomialError, match="non-finite"):
            poly.parse_complex("1e999")

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("x - x")

    def test_degree_cap(self):
        with pytest.raises(ParseError):
            parse_polynomial(f"x^{MAX_DEGREE + 1}")


class TestDegreeCap:
    def test_every_polynomial_is_capped(self):
        assert Polynomial((1,) * (MAX_DEGREE + 1)).degree == MAX_DEGREE
        assert Polynomial((1,) * (MAX_DEGREE + 1) + (0, 0)).degree == MAX_DEGREE  # zeros stripped first
        with pytest.raises(PolynomialError, match="degree 25 exceeds the supported maximum 24") as exc:
            Polynomial((1,) * (MAX_DEGREE + 2))
        assert not isinstance(exc.value, ParseError)

    def test_from_roots_is_capped(self):
        assert Polynomial.from_roots([0.5j] * MAX_DEGREE).degree == MAX_DEGREE
        with pytest.raises(PolynomialError, match="degree 25"):
            Polynomial.from_roots([0.5j] * (MAX_DEGREE + 1))


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

    def test_empty_coefficients_rejected(self):
        with pytest.raises(PolynomialError, match="^empty coefficient sequence$"):
            Polynomial(())

    def test_eval_and_derivative(self):
        p = Polynomial((1, 0, 1, 1))  # x^3 + x^2 + 1
        assert p(2) == 13
        assert p.derivative().coeffs == (0, 2, 3)

    def test_from_roots(self):
        p = Polynomial.from_roots([1, 2, 3])
        assert p.coeffs == pytest.approx((-6, 11, -6, 1))

    def test_from_roots_of_an_array_is_the_same_polynomial(self):
        # numpy complex roots take the same Python complex arithmetic
        rng = np.random.default_rng(12)
        roots = rng.uniform(-2, 2, 12) + 1j * rng.uniform(-2, 2, 12)
        p = Polynomial.from_roots(roots)
        assert [repr(c) for c in p.coeffs] == [repr(c) for c in Polynomial.from_roots(roots.tolist()).coeffs]
        assert all(type(c) is complex for c in p.coeffs)

    def test_monic_lead_is_exactly_one(self):
        # lead / lead gives 1 + 1.1e-20i for this lead; monic() sets the lead
        # to 1, so a system's polynomial is monic and the root finder divides
        # by its lead no second time
        lead = complex(-1.3446230625272966e-05, -0.15259712443881257)
        p = Polynomial((3e10 + 1e-6j, -2 + 5e-7j, 1e5 + 2e-9j, lead))
        m = p.monic()
        assert m.coeffs[-1] == 1 and m.monic() is m
        assert m.coeffs[:-1] == tuple(c / lead for c in p.coeffs[:-1])
        # a system's roots are find_roots of P as given, its residual that of P
        rs, own = make_system(p).roots, find_roots(p)
        assert rs == own and rs.residual == find_roots(m).residual * abs(lead)
        # a negative real lead gives 1 + 0i, not 1 - 0i
        assert math.copysign(1, Polynomial((1, -2)).monic().coeffs[-1].imag) == 1


class TestMeasure:
    """One power matrix of a point set (``poly._powers``) and one measurement of
    a root set (``poly._measure``) serve every layer."""

    def test_powers_are_numpy_vander(self):
        rng = np.random.default_rng(27)
        for size in (1, 2, 7, 24):
            z = rng.normal(size=size) + 1j * rng.normal(size=size)
            for n in (1, 2, size, size + 1):
                assert poly._powers(z, n).tobytes() == np.vander(z, n, increasing=True).tobytes()

    @staticmethod
    def measured(rs, a, lead=1.0):
        _, _, residual, backward = poly._measure(np.array(rs.roots, dtype=complex), np.array(a))
        return lead * residual, backward

    @pytest.mark.parametrize("degree", range(1, MAX_DEGREE + 1))
    def test_found_roots_are_their_measurement(self, degree):
        # the residual scales with |lead|; the backward error does not
        rng = np.random.default_rng(degree)
        for lead in (1.0, 2.5 - 1j):
            roots = rng.uniform(-2, 2, degree) + 1j * rng.uniform(-2, 2, degree)
            p = Polynomial(tuple(complex(c) * lead for c in np.poly(roots)[::-1]))
            rs = find_roots(p)
            assert (rs.residual, rs.backward_error) == self.measured(rs, p.monic().coeffs, abs(lead))

    def test_given_and_cyclotomic_roots_are_their_measurement(self):
        rng = np.random.default_rng(24)
        for m in range(1, MAX_DEGREE + 1):
            given = from_roots(rng.uniform(-2, 2, m) + 1j * rng.uniform(-2, 2, m))
            for sys in (given, make_cyclotomic(m)):
                rs = sys.roots
                assert (rs.residual, rs.backward_error) == self.measured(rs, sys.poly.coeffs), m
            assert 0 < rs.backward_error <= 4 * m * EPS  # exact roots, rounded once

    @pytest.mark.parametrize("p", [Polynomial((1, 0, 1)),
                                   in_domain_poly(np.random.default_rng(12), 12),
                                   Polynomial((1, 0, 2, 0, 1))],
                             ids=["x^2+1", "degree 12", "(x^2+1)^2"])
    def test_converged_polish_measures_its_own_sweeps(self, monkeypatch, p):
        # one power matrix a sweep, the stop test's among them; no second measurement
        calls = {"_powers": 0, "_measure": 0}

        def counting(name, original):
            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(poly, name, counting(name, getattr(poly, name)))
        rs = find_roots(p)
        assert calls == {"_powers": rs.sweeps, "_measure": 0}


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

    @pytest.mark.parametrize("degree", range(1, 12))
    def test_in_domain_low_degree_polys_converge(self, degree):
        rng = np.random.default_rng(degree)
        for _ in range(40):
            p = in_domain_poly(rng, degree)
            rs = find_roots(p)
            bound = 4 * degree * EPS
            assert len(rs) == degree
            assert rs.backward_error <= bound
            assert max(backward_errors(p, rs)) <= 2 * bound  # reevaluated, own rounding

    @pytest.mark.parametrize("degree", [15, 16, 18])
    def test_polish_stops_within_the_backward_bound(self, degree):
        # the roots 0, 1, 2, each repeated: the correction stops halving after two
        # sweeps at a backward error up to 5e-12, so only the stop rule's
        # |P(z)| <= 4 m eps scale test carries the polish on to the bound
        rs = find_roots(Polynomial.from_roots([k % 3 for k in range(degree)]))
        assert rs.backward_error <= 4 * degree * EPS

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

    def test_sweep_cap_reports_the_returned_iterate(self, monkeypatch):
        # residual and backward error are those of best_roots, the iterate after
        # the last correction; there the real parts, below 1e-31, are all that is
        # inexact, so any summation order gives |P(z)| to a few ulps
        monkeypatch.setattr(poly, "MAX_SWEEPS", 1)
        p = Polynomial((-2, -3j, 1))
        with pytest.raises(RootFindingError) as exc:
            find_roots(p)
        best = exc.value.best_roots
        residual = max(abs(p(z)) for z in best)
        assert exc.value.residual == pytest.approx(residual, rel=1e-12, abs=0)
        reported = float(re.search(r"backward error (\S+) ", str(exc.value)).group(1))
        assert reported == pytest.approx(max(backward_errors(p, best)), rel=1e-3, abs=0)

    def test_overflowing_powers_are_refused(self):
        # z^2 overflows at the root 1e300, so no finite scale bounds |P(z)| there
        with pytest.raises(RootFindingError,
                           match=r"^roots: \|z\|\^2 overflows at \|z\| = 1\.000e\+300$") as exc:
            find_roots(Polynomial((1, -1e300, 1)))
        assert len(exc.value.best_roots) == 2 and exc.value.residual == math.inf
        rs = find_roots(Polynomial((-1e300,) + (0,) * 23 + (1,)))  # |z|^24 = 1e300 fits
        assert rs.backward_error <= 4 * 24 * EPS

    def test_fixed_point_is_refused_at_once(self):
        # the root -1e-400 underflows to 0, where the correction 1e-300 / 1e100
        # rounds to 0: every later sweep would repeat the one that found it
        with pytest.raises(RootFindingError, match=r"^roots: the polish stalls at a fixed point "
                           r"after \d+ sweeps, backward error 1\.000e\+00 ") as exc:
            find_roots(Polynomial((1e-300, 1e100, 1)))
        assert int(re.search(r"after (\d+) sweeps", str(exc.value)).group(1)) <= 3
        assert exc.value.best_roots == (-1e100, 0) and exc.value.residual == 1e-300

    def test_cycle_is_refused_at_its_first_repeat(self):
        # the iterate of sweep 5 is the one of sweep 3, so sweeps 3 and 4 would
        # repeat up to the cap; a warning would be an error here
        p = Polynomial((1.7874389004141485e-20, 7.143809126011949e-27, -4.979832996242469e+161,
                        6.501680065893538e+123, -2.3106397337144413e+186))
        with pytest.raises(RootFindingError, match=r"^roots: the polish cycles \(sweeps 3 and 5 "
                           r"reach one iterate\) after 5 sweeps, backward error 1\.000e\+00 "
                           r"\(bound 3\.553e-15\)$") as exc:
            find_roots(p)
        # residual and backward error are those of best_roots, the iterate measured
        best = exc.value.best_roots
        _, _, residual, backward = poly._measure(np.array(best), np.array(p.monic().coeffs))
        assert exc.value.residual == residual * abs(p.coeffs[-1]) and backward == 1
        assert max(backward_errors(p, best)) == 1  # the two zero roots
        # |P(z)| at the nonzero pair cancels from 1e137: direct summation agrees to its rounding
        scale = max(sum(abs(c) * abs(z) ** k for k, c in enumerate(p.coeffs)) for z in best)
        assert abs(exc.value.residual - max(abs(p(z)) for z in best)) <= 4 * 4 * EPS * scale

    def test_overflowing_derivative_row_warns_nothing(self):
        # a'_1 = 2e308 overflows in [a | a']; a warning would be an error here
        with pytest.raises(RootFindingError,
                           match=r"^roots: \|z\|\^3 overflows at \|z\| = 1\.000e\+308$"):
            find_roots(Polynomial((1, 0, 1e308, 1)))

    def test_overflowing_residual_names_its_rule(self):
        # the monic polish converges within its bound, but the residual
        # max|P(r)| |a_m| of coefficients up to 1.3e288 overflows
        p = Polynomial((complex(-1.412431114941114e-286, -1.844136406119404e-286),
                        complex(-1.2054094825238261e+288, 5.5203483611197465e+287),
                        complex(-2.137710784285715e+183, 9.69056769267374e+183),
                        complex(-1.6782390989492118e+193, 2.9266115213127854e+193)))
        with pytest.raises(RootFindingError, match=r"^roots: residual max\|P\(r\)\| \|a_m\| = inf "
                           r"is not finite after 3 sweeps, backward error 1\.303e-16 "
                           r"\(bound 2\.665e-15\)$") as exc:
            find_roots(p)
        assert exc.value.residual == math.inf and len(exc.value.best_roots) == 3

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

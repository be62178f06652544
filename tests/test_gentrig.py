import cmath
import itertools
import math

import numpy as np
import pytest

from polytrig import gentrig, linalg, poly
from polytrig.gentrig import (ArgumentOverflowError, GenTrigError,
                              derivative_matrix, eval_S, eval_S_vector,
                              eval_det_M, from_roots, identity_certificate,
                              make_system, taylor_coeffs, taylor_eval,
                              tuple_coefficients)
from polytrig.poly import Polynomial, RootSet, parse_polynomial


def brute_tuple(roots, l, j):
    """Oracle for T[l][j]: sum of all products of l distinct roots containing r_j."""
    others = [r for k, r in enumerate(roots) if k != j]
    if l == 0:
        return 1.0
    total = 0j
    for combo in itertools.combinations(others, l - 1):
        total += roots[j] * math.prod(combo, start=1 + 0j)
    return total


def test_deflation_matrix_matches_synthetic_division():
    rng = np.random.default_rng(24)
    roots = rng.uniform(-1, 1, 24) + 1j * rng.uniform(-1, 1, 24)
    p = Polynomial.from_roots(tuple(roots))
    Q = gentrig.deflation_matrix(p, roots)
    for r, row in zip(roots, Q):
        quotient, _ = poly.synthetic_divide(p, r)
        # same Horner steps in the same order
        assert np.max(np.abs(row - quotient.coeffs)) <= 4 * np.finfo(float).eps * np.max(np.abs(row))


class TestTupleCoefficients:
    def test_integer_roots_oracle(self):
        roots = [1.0, 2.0, 3.0, 4.0, 5.0]
        T = tuple_coefficients(RootSet(tuple(roots), 0.0))
        for l in range(5):
            for j in range(5):
                assert T[l, j] == pytest.approx(brute_tuple(roots, l, j), abs=1e-9)
        # spot value: 3-tuples through the root 2
        assert T[3, 1] == pytest.approx(118)

    def test_random_complex_roots_oracle(self):
        rng = np.random.default_rng(21)
        roots = list(rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4))
        T = tuple_coefficients(RootSet(tuple(roots), 0.0))
        for l in range(4):
            for j in range(4):
                assert T[l, j] == pytest.approx(brute_tuple(roots, l, j), abs=1e-12)

    def test_leading_coefficient_row(self):
        T = tuple_coefficients(RootSet((1j, -1j), 0.0), leading=3.0)
        assert np.allclose(T[0], [3, 3])

    def test_row_sums_are_symmetric(self):
        # summing T[l] over j counts each l-tuple once per member: l * e_l
        roots = [0.5, -1.5, 2 + 1j, -0.3j]
        T = tuple_coefficients(RootSet(tuple(roots), 0.0))
        for l in range(1, 4):
            e_l = sum(math.prod(c, start=1 + 0j)
                      for c in itertools.combinations(roots, l))
            assert T[l].sum() == pytest.approx(l * e_l, abs=1e-12)


class TestDerivativeMatrix:
    def test_quadratic(self):
        K = derivative_matrix(parse_polynomial("x^2+1"))
        assert np.allclose(K, [[0, -1j], [1j, 0]])

    def test_band_structure(self):
        K = derivative_matrix(parse_polynomial("x^4+2x^3-x+5"))
        m = 4
        allowed = {(0, 1)} | {(l, c) for l in range(1, m - 1) for c in (1, l + 1)}
        allowed |= {(m - 1, 0), (m - 1, 1)}
        for i in range(m):
            for j in range(m):
                if (i, j) not in allowed:
                    assert K[i, j] == 0

    def test_eigenvalues_are_scaled_roots(self):
        p = parse_polynomial("x^3+x^2+1")
        sys = make_system(p)
        vals = sorted(np.linalg.eigvals(sys.K), key=lambda z: (z.real, z.imag))
        expect = sorted((-1j * r for r in sys.roots), key=lambda z: (z.real, z.imag))
        assert vals == pytest.approx(expect, abs=1e-10)

    def test_finite_difference(self):
        rng = np.random.default_rng(22)
        roots = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
        sys = from_roots(roots)
        h = 1e-5
        for x in (0.0, 0.4 - 0.2j, -1.1):
            fd = (eval_S_vector(sys, x + h) - eval_S_vector(sys, x - h)) / (2 * h)
            assert np.max(np.abs(fd - sys.K @ eval_S_vector(sys, x))) < 1e-8

    def test_degree_one_rejected(self):
        with pytest.raises(GenTrigError):
            derivative_matrix(parse_polynomial("x+1"))


class TestEvaluation:
    def test_quadratic_is_hyperbolic(self):
        # roots +-i give S0 = 2 cosh, S1 = 2i sinh
        sys = make_system(parse_polynomial("x^2+1"))
        for x in (0.0, 0.7, -1.3 + 0.2j):
            assert eval_S(sys, 0, x) == pytest.approx(2 * cmath.cosh(x), abs=1e-13)
            assert eval_S(sys, 1, x) == pytest.approx(2j * cmath.sinh(x), abs=1e-13)

    def test_nonmonic_matches_monic(self):
        a = make_system(Polynomial((3, 0, 3)))
        b = make_system(parse_polynomial("x^2+1"))
        assert eval_S(a, 0, 0.3) == pytest.approx(eval_S(b, 0, 0.3))

    def test_index_range(self):
        sys = make_system(parse_polynomial("x^2+1"))
        with pytest.raises(GenTrigError):
            eval_S(sys, 2, 0.0)

    def test_overflow_guard(self):
        sys = make_system(parse_polynomial("x^2+1"))
        with pytest.raises(ArgumentOverflowError):
            eval_S(sys, 0, 1e4)

    def test_overflow_guard_edge(self):
        # roots +-i: the exponent's real part is +-Re x, bounded by EXP_GUARD
        sys = make_system(parse_polynomial("x^2+1"))
        edge = gentrig.EXP_GUARD
        assert np.all(np.isfinite(eval_S_vector(sys, edge).view(float)))
        with pytest.raises(ArgumentOverflowError):
            eval_S_vector(sys, edge * (1 + 1e-12))

    def test_overflow_guard_names_the_argument_in_an_array(self):
        sys = make_system(parse_polynomial("x^2+4"))
        xs = np.array([0.5, 1j, 400 + 1j, -3.0])
        with pytest.raises(ArgumentOverflowError) as exc:
            eval_S(sys, 1, xs)
        assert "(400+1j)" in str(exc.value)
        assert abs(abs(exc.value.root) - 2) < 1e-12

    def test_array_argument(self):
        sys = from_roots([0.3 + 0.5j, -0.7 + 0.1j, 0.2 - 0.9j])
        xs = np.array([[0.0, 1.5], [-2j, 0.3 - 0.4j]])
        S = eval_S_vector(sys, xs)
        assert S.shape == xs.shape + (3,)
        assert type(eval_S(sys, 1, 0.5)) is complex
        for l in range(3):
            values = eval_S(sys, l, xs)
            assert values.shape == xs.shape
            for x, v, s in zip(xs.ravel(), values.ravel(), S[..., l].ravel()):
                assert v == pytest.approx(eval_S(sys, l, x), rel=1e-14, abs=1e-14)
                assert s == pytest.approx(v, rel=1e-14, abs=1e-14)

    def test_value_at_zero(self):
        # S_l(0) is the row sum of T: each l-tuple counted once per member, l*e_l
        rng = np.random.default_rng(23)
        roots = list(rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4))
        sys = from_roots(roots)
        v = eval_S_vector(sys, 0.0)
        assert v[0] == pytest.approx(4)
        for l in range(1, 4):
            e_l = sum(math.prod(c, start=1 + 0j)
                      for c in itertools.combinations(roots, l))
            assert v[l] == pytest.approx(l * e_l, abs=1e-12)


class TestTaylor:
    def test_against_direct_evaluation(self):
        sys = make_system(parse_polynomial("x^3+x^2+1"))
        for l in range(3):
            for x in (0.5, -0.8 + 0.3j, 1.2j):
                assert taylor_eval(sys, l, x, 60) == pytest.approx(
                    eval_S(sys, l, x), abs=1e-11)

    def test_hyperbolic_coefficients(self):
        sys = make_system(parse_polynomial("x^2+1"))
        bs = taylor_coeffs(sys, 0, 6)
        expect = [2 / math.factorial(k) if k % 2 == 0 else 0 for k in range(7)]
        assert bs == pytest.approx(expect)

    def test_permutation_invariance(self):
        # k! b_k is symmetric in the roots, so any ordering gives the same series
        roots = [0.4 + 0.1j, -0.9, 0.2 - 0.6j]
        a = from_roots(roots)
        b = from_roots(roots[::-1])
        assert taylor_coeffs(a, 2, 12) == pytest.approx(taylor_coeffs(b, 2, 12))

    def test_gaussian_integer_series(self):
        # integer roots make k! b_k a polynomial in the roots with integer values
        sys = from_roots([1.0, 2.0, 3.0])
        for l in range(3):
            for k, b in enumerate(taylor_coeffs(sys, l, 10)):
                w = b * math.factorial(k) / ((-1j) ** k)
                assert abs(w.real - round(w.real)) < 1e-9
                assert abs(w.imag - round(w.imag)) < 1e-9

    def test_order_cap(self):
        sys = make_system(parse_polynomial("x^2+1"))
        with pytest.raises(GenTrigError):
            taylor_coeffs(sys, 0, 171)


class TestIdentityCertificate:
    def test_quadratic_pythagorean(self):
        # for x^2+1 the certificate is (2cosh)^2 - (2sinh)^2 = 4
        sys = make_system(parse_polynomial("x^2+1"))
        cert = identity_certificate(sys)
        assert cert.lam == pytest.approx(1.0)
        assert cert.det_ref == pytest.approx(4.0)
        for x in (0.3, -1.1 + 0.4j, 2.0):
            assert eval_det_M(cert, sys, x) == pytest.approx(4.0, abs=1e-10)

    def test_eigen_residual_small(self):
        sys = make_system(parse_polynomial("x^3+x^2+1"))
        cert = identity_certificate(sys)
        assert cert.eigen_residual < 1e-9

    def test_constancy_random_systems(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            deg = int(rng.integers(2, 6))
            roots = rng.uniform(0.2, 1, deg) * np.exp(2j * np.pi * rng.uniform(size=deg))
            sys = from_roots(roots)
            cert = identity_certificate(sys)
            tol = 1e-7 * (1 + abs(cert.det_ref))
            for _ in range(10):
                x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                assert abs(eval_det_M(cert, sys, x) - cert.det_ref) < tol

    def test_degree_one_rejected(self):
        with pytest.raises(GenTrigError):
            identity_certificate(from_roots([2.0]))

    @staticmethod
    def assert_certified(sys, cert):
        # L K^m = lam L up to roundoff on the scale of K^m
        M = np.linalg.matrix_power(sys.K, sys.m)
        bound = 100 * sys.m * np.finfo(float).eps * linalg.norm1(M)
        assert cert.eigen_residual <= bound
        assert np.max(np.abs(cert.L @ M - cert.lam * cert.L)) <= bound
        assert np.max(np.abs(cert.L)) == pytest.approx(1.0)

    @pytest.mark.parametrize("text", ["x^4+3x^2+1", "x^6+2x^2+1",
                                      "x^8+3x^4+1", "x^10+x^2+1"])
    def test_even_polynomials(self, text):
        # P(-x) = P(x) pairs the roots r, -r, so K^m has double eigenvalues
        sys = make_system(parse_polynomial(text))
        self.assert_certified(sys, identity_certificate(sys))

    def test_degree_24_from_roots(self):
        rng = np.random.default_rng(24)
        roots = rng.uniform(0.5, 1.2, 24) * np.exp(2j * np.pi * rng.uniform(size=24))
        sys = from_roots(roots)
        cert = identity_certificate(sys)
        self.assert_certified(sys, cert)
        # eigenvalues of K^24 are (-i r_j)^24 = r_j^24
        assert abs(cert.lam) == pytest.approx(np.max(np.abs(roots)) ** 24, rel=1e-9)

    @pytest.mark.parametrize("text,lam", [
        ("x^2+1", 1.0),
        ("x^3+x^2+1", -3.1478990357047874j),
        ("x^4+1", -1.0),
        ("x^5-x+3", 4.341293531690693j),
        ("x^8+1", -1.0),
        # conjugate pairs of equal modulus: the smaller phase wins
        ("x^4+2x^3-x+5", -4.371564914510812 - 13.688956103802742j),
        ("x^6+x+1", 1.94540233331126 - 0.6118366937810062j),
    ])
    def test_chosen_eigenvalue(self, text, lam):
        cert = identity_certificate(make_system(parse_polynomial(text)))
        assert abs(cert.lam - lam) <= 1e-12 * abs(lam)

    def test_no_root_finding(self, monkeypatch):
        sys = make_system(parse_polynomial("x^5-x+3"))
        calls = []
        original = poly.find_roots

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (poly, gentrig, linalg):
            monkeypatch.setattr(module, "find_roots", counting, raising=False)
        identity_certificate(sys)
        assert calls == []

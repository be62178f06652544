import cmath
import itertools
import math

import numpy as np
import pytest

from polytrig import cyclotomic, gentrig, linalg, poly, series, verify
from polytrig.gentrig import (ArgumentOverflowError, GenTrigError,
                              derivative_matrix, eval_S, eval_S_vector,
                              eval_det_M, from_roots, identity_certificate,
                              make_system, taylor_coeffs, tuple_coefficients)
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


def certificate_rows(sys, cert):
    """F with f = F E(x): row l is (L K^l) T."""
    rows = [cert.L]
    for _ in range(sys.m - 1):
        rows.append(rows[-1] @ sys.K)
    return np.array(rows) @ sys.T


def shift_fold(f, lam):
    """The index/twist fold that the spectral determinant replaced, kept as the
    LU reference: M[p, q] = f[p+q], or lam * f[p+q-m] past the anti-diagonal
    (f on the last axis)."""
    m = f.shape[-1]
    s = np.add.outer(np.arange(m), np.arange(m))
    return f[..., s % m] * np.where(s < m, 1, lam)


def hadamard(M):
    """The product of the row norms; LU roundoff in det M is about m eps times it."""
    return np.prod(np.linalg.norm(M, axis=-1), axis=-1)


def binomial(m, c):
    """The system of x^m - c."""
    return make_system(Polynomial((-c,) + (0,) * (m - 1) + (1,)))


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

    @pytest.mark.parametrize("l", [True, False, np.True_, 1.5, 1.0, "1", None, -1, 3],
                             ids=["True", "False", "np.True_", "1.5", "1.0", "str", "None", "-1", "3"])
    @pytest.mark.parametrize("evaluate", ["eval_S", "eval_R", "taylor_coeffs", "fourier_coefficient"])
    def test_index_must_be_an_integer_in_range(self, l, evaluate):
        sys = make_system(parse_polynomial("x^3+x^2+1"))
        call = {
            "eval_S": lambda: eval_S(sys, l, 0.5),
            "eval_R": lambda: series.eval_R(sys, l, 0.5),
            "taylor_coeffs": lambda: taylor_coeffs(sys, l, 4),
            "fourier_coefficient": lambda: series.fourier_coefficient(sys, l, 2),
        }[evaluate]
        with pytest.raises(GenTrigError, match="function index"):
            call()

    def test_integer_types_index_like_int(self):
        sys = make_system(parse_polynomial("x^3+x^2+1"))
        for l in range(3):
            for index in (np.int64(l), np.uint8(l)):
                assert eval_S(sys, index, 0.5) == eval_S(sys, l, 0.5)
                assert series.eval_R(sys, index, 0.5) == series.eval_R(sys, l, 0.5)
                assert taylor_coeffs(sys, index, 6) == taylor_coeffs(sys, l, 6)
                assert type(eval_S(sys, index, 0.5)) is complex

    @pytest.mark.parametrize("evaluate", ["eval_S", "eval_R", "eval_det_M", "eval_S_vector",
                                          "eval_S_cyclo"])
    def test_empty_array(self, evaluate):
        sys = make_system(parse_polynomial("x^3+x^2+1"))
        cyclo = cyclotomic.make_cyclotomic(4)
        empty = np.array([])
        value = {
            "eval_S": lambda: eval_S(sys, 1, empty),
            "eval_R": lambda: series.eval_R(sys, 1, empty),
            "eval_det_M": lambda: eval_det_M(identity_certificate(sys), sys, empty),
            "eval_S_vector": lambda: eval_S_vector(sys, empty),
            "eval_S_cyclo": lambda: cyclotomic.eval_S_cyclo(cyclo, 1, empty),
        }[evaluate]()
        assert value.shape == ((0, 3) if evaluate == "eval_S_vector" else (0,))
        assert value.dtype == complex
        assert sys.exponentials(np.empty((2, 0))).shape == (2, 0, 3)

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

    @pytest.mark.parametrize("x", [
        0.3, -1.1 + 0.4j, 0, np.float64(0.7), np.complex128(0.2 - 0.9j),
        np.array(0.5 - 0.25j), np.array([[0.0, 1.5], [-2j, 0.3 - 0.4j]]),
        np.linspace(-3, 3, 7) + 0.5j,
    ], ids=["float", "complex", "int", "float64", "complex128", "0-d", "2-d", "1-d"])
    def test_bound_first_kernel_is_exact(self, x):
        sys = from_roots([0.3 + 0.5j, -0.7 + 0.1j, 0.2 - 0.9j, 1.4])
        E = sys.exponentials(x)
        expect = np.exp(np.multiply.outer(x, -1j * sys.r))
        assert E.shape == expect.shape
        assert np.array_equal(E, expect)

    def test_kernel_scans_past_a_failed_bound(self):
        # roots +-i: |x| * rho is about 990 > EXP_GUARD, yet every |Re| is exactly 700
        sys = make_system(parse_polynomial("x^2+1"))
        x = 700 + 700j
        assert abs(x) * sys.radius > gentrig.EXP_GUARD
        E = sys.exponentials(x)
        assert np.all(np.isfinite(E.view(float)))
        assert np.array_equal(E, np.exp(np.multiply.outer(x, -1j * sys.r)))
        assert np.isfinite(eval_S(sys, 0, x))

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, complex(math.nan, 0),
                                   complex(1.5e308, 1.5e308)],
                             ids=["inf", "-inf", "nan", "complex-nan", "huge"])
    @pytest.mark.parametrize("evaluate", ["eval_S", "eval_R", "eval_det_M", "eval_S_cyclo"])
    def test_non_finite_argument_is_refused(self, x, evaluate):
        sys = make_system(parse_polynomial("x^2-2"))
        call = {
            "eval_S": lambda: eval_S(sys, 0, x),
            "eval_R": lambda: series.eval_R(sys, 1, x),
            "eval_det_M": lambda: eval_det_M(identity_certificate(sys), sys, x),
            "eval_S_cyclo": lambda: cyclotomic.eval_S_cyclo(cyclotomic.make_cyclotomic(3), 1, x),
        }[evaluate]
        with pytest.raises(ArgumentOverflowError) as exc:
            call()
        assert f"argument {complex(x)} " in str(exc.value)

    def test_nan_in_an_array_is_the_argument_named(self):
        sys = make_system(parse_polynomial("x^2+4"))
        xs = np.array([0.5, 1j, complex(math.nan, 0), -3.0])
        with pytest.raises(ArgumentOverflowError) as exc:
            eval_S(sys, 1, xs)
        assert "argument (nan+0j) " in str(exc.value)

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


class TestLastPointMemo:
    """The kernel keeps (x, E) for the last scalar x of each system."""

    ROOTS = [0.3 + 0.5j, -0.7 + 0.1j, 0.2 - 0.9j, 1.4, -0.4 - 0.6j]

    @staticmethod
    def values(sys, x):
        """Every evaluator of the family at x, each called twice."""
        cert = identity_certificate(sys)
        out = []
        for _ in range(2):
            out.append(eval_S_vector(sys, x))
            out += [eval_S(sys, l, x) for l in range(sys.m)]
            out += [series.eval_R(sys, l, x) for l in range(sys.m)]
            out.append(eval_det_M(cert, sys, x))
        return out

    @staticmethod
    def same(a, b):
        """Equal bit for bit, the signs of zeros included."""
        return all(np.asarray(u).tobytes() == np.asarray(v).tobytes() for u, v in zip(a, b))

    @pytest.mark.parametrize("x", [0.3 - 0.2j, 1.5, np.complex128(-0.8j), 2], ids=["complex", "float", "complex128", "int"])
    def test_repeated_point_matches_a_fresh_system(self, x):
        sys = from_roots(self.ROOTS)
        got = self.values(sys, x)
        half = len(got) // 2
        assert self.same(got[:half], got[half:])
        fresh = [f(from_roots(self.ROOTS)) for f in (
            lambda s: eval_S_vector(s, x),
            *(lambda s, l=l: eval_S(s, l, x) for l in range(5)),
            *(lambda s, l=l: series.eval_R(s, l, x) for l in range(5)),
            lambda s: eval_det_M(identity_certificate(s), s, x))]
        assert len(fresh) == half and self.same(got[:half], fresh)
        cyclo = cyclotomic.make_cyclotomic(5)
        repeated = [cyclotomic.eval_S_cyclo(cyclo, l, x) for l in range(5) for _ in range(2)]
        assert repeated == [cyclotomic.eval_S_cyclo(cyclotomic.make_cyclotomic(5), l, x)
                            for l in range(5) for _ in range(2)]

    def test_alternating_points(self):
        # equal values that are distinct objects, and -0.0 against 0.0
        points = [0.5, -0.25j, 0.0, -0.0, complex(0.0, -0.0), 1, 1.0, 1 + 0j, np.float64(1.0), 0.5]
        sys = from_roots(self.ROOTS)
        cyclo = cyclotomic.make_cyclotomic(4)
        for _ in range(3):
            for x in points + points[::-1]:
                assert self.same([sys.exponentials(x)], [np.exp(x * sys.minus_ir)])
                assert self.same([cyclo.exponentials(x)], [np.exp(x * cyclo.minus_ir)])
                assert self.same(self.values(sys, x), self.values(from_roots(self.ROOTS), x))

    def test_arrays_are_never_stored(self, monkeypatch):
        sys = from_roots(self.ROOTS)
        calls = []
        kernel = gentrig._guarded_exp
        monkeypatch.setattr(gentrig, "_guarded_exp", lambda *args: calls.append(1) or kernel(*args))
        for xs in (np.array([0.1, 0.2 - 0.3j]), np.array(0.4 + 0.1j)):
            first = sys.exponentials(xs)
            assert first.flags.writeable
            xs[...] = 0.7  # an array may change between calls
            again = sys.exponentials(xs)
            assert np.array_equal(again, np.exp(np.multiply.outer(xs, sys.minus_ir)))
        assert len(calls) == 4

    def test_stored_exponentials_are_read_only(self):
        sys = from_roots(self.ROOTS)
        x = 0.6 + 0.1j
        E = sys.exponentials(x)
        assert sys.exponentials(x) is E
        assert not E.flags.writeable
        with pytest.raises(ValueError):
            E[0] = 0
        assert eval_S(sys, 1, x) == eval_S(from_roots(self.ROOTS), 1, x)
        assert not cyclotomic.make_cyclotomic(3).exponentials(x).flags.writeable

    @pytest.mark.parametrize("x", [1e4, math.nan, complex(0, math.inf)], ids=["overflow", "nan", "inf"])
    def test_a_refused_point_raises_on_every_call(self, x):
        sys = from_roots(self.ROOTS)
        good = 0.5
        expected = eval_S(sys, 2, good)
        for _ in range(3):
            with pytest.raises(ArgumentOverflowError):
                eval_S(sys, 2, x)
            with pytest.raises(ArgumentOverflowError):
                series.eval_R(sys, 1, x)
            with pytest.raises(ArgumentOverflowError):
                cyclotomic.eval_S_cyclo(cyclotomic.make_cyclotomic(3), 0, x)
            assert eval_S(sys, 2, good) == expected

    def test_one_kernel_pass_per_point(self, monkeypatch):
        sys = from_roots(self.ROOTS)
        cert = identity_certificate(sys)
        series.eval_R(sys, 0, 0.25)  # the boundary weights take a pass of their own
        cyclo = cyclotomic.make_cyclotomic(4)
        calls = []
        kernel = gentrig._guarded_exp
        monkeypatch.setattr(gentrig, "_guarded_exp", lambda *args: calls.append(args[0]) or kernel(*args))
        for x in (0.3 - 0.2j, -1.1, 0.3 - 0.2j):
            eval_S_vector(sys, x)
            for l in range(sys.m):
                series.eval_R(sys, l, x)
                eval_S(sys, l, x)
            eval_det_M(cert, sys, x)
            for l in range(cyclo.m):
                cyclotomic.eval_S_cyclo(cyclo, l, x)
            cyclotomic.det_M_cyclo(cyclo, x)
        assert calls == [0.3 - 0.2j, 0.3 - 0.2j, -1.1, -1.1, 0.3 - 0.2j, 0.3 - 0.2j]


class TestTaylor:
    def test_against_direct_evaluation(self):
        sys = make_system(parse_polynomial("x^3+x^2+1"))
        for l in range(3):
            for x in (0.5, -0.8 + 0.3j, 1.2j):
                series = np.polyval(taylor_coeffs(sys, l, 60)[::-1], x)
                assert series == pytest.approx(eval_S(sys, l, x), abs=1e-11)

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

    def test_weight_tables_are_cached_per_order_and_system(self):
        # two systems share one sequence of calls; each must match a fresh system
        roots = ([0.4 + 0.1j, -0.9, 0.2 - 0.6j, 1.1j], [0.5j, -0.3 + 0.8j, 0.7])
        systems = [from_roots(r) for r in roots]
        orders = [0, 5, 20, 170]
        for sequence in (orders, orders[::-1], [20, 0, 170, 5, 20, 170, 0]):
            for order in sequence:
                for sys, r in zip(systems, roots):
                    for l in range(sys.m):
                        assert taylor_coeffs(sys, l, order) == taylor_coeffs(from_roots(r), l, order)

    def test_order_cap(self):
        sys = make_system(parse_polynomial("x^2+1"))
        with pytest.raises(GenTrigError):
            taylor_coeffs(sys, 0, 171)
        assert len(taylor_coeffs(sys, 0, 170)) == 171

    @pytest.mark.parametrize("order", [-1, -2, -171])
    def test_negative_order_is_refused(self, order):
        sys = make_system(parse_polynomial("x^2+1"))
        with pytest.raises(GenTrigError, match="negative"):
            taylor_coeffs(sys, 0, order)
        assert taylor_coeffs(sys, 0, 0) == [2]

    @pytest.mark.parametrize("order", [True, 4.0, 2.5, "4"], ids=["True", "4.0", "2.5", "str"])
    def test_order_must_be_an_integer(self, order):
        sys = make_system(parse_polynomial("x^2+1"))
        taylor_coeffs(sys, 0, 4)  # a cached table for order 4 must not answer 4.0
        with pytest.raises(GenTrigError, match="not an integer"):
            taylor_coeffs(sys, 0, order)


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

    def test_constancy_within_hadamard_roundoff(self):
        # the 25 systems and points of acceptance check 04, against a bound
        # that scales with the matrix: LU roundoff is about m eps times the
        # Hadamard bound H (the product of the row norms) of M(x)
        def shifted_matrix(sys, cert, x):
            return shift_fold(np.exp(-1j * sys.r * x) @ certificate_rows(sys, cert).T, cert.lam)

        rng = np.random.default_rng(0)
        worst_check_04 = 0.0
        for _ in range(25):
            sys = verify._random_system(rng, int(rng.integers(2, 7)))
            cert = identity_certificate(sys)
            h0 = hadamard(shifted_matrix(sys, cert, 0.0))
            x = verify.sample_points(rng, verify.SAMPLES, 1.0)
            # the check's own array call: per-point calls may differ in the last bit
            gaps = np.abs(eval_det_M(cert, sys, x) - cert.det_ref)
            for point, gap in zip(x, gaps):
                bound = 1e3 * np.finfo(float).eps * sys.m * (hadamard(shifted_matrix(sys, cert, point)) + h0)
                assert gap <= bound, (sys.m, point, gap, bound)
            worst_check_04 = max(worst_check_04, float(np.max(gaps)) / (1e-7 * (1 + abs(cert.det_ref))))
        # the same systems and points as the check itself
        assert worst_check_04 == verify.certificate_constancy(seed=0).measured

    @pytest.mark.parametrize("m", range(2, 25))
    @pytest.mark.parametrize("c", [1, -2, 0.5j], ids=["1", "-2", "0.5i"])
    def test_binomial_constancy(self, m, c):
        # x^m - c is the one family whose det M stands above roundoff, so this
        # check sees a relative error of 1e-9 in det M(x)
        sys = binomial(m, c)
        cert = identity_certificate(sys)
        x = verify.sample_points(np.random.default_rng(m), verify.SAMPLES, 1.0)
        gap = np.abs(eval_det_M(cert, sys, x) - cert.det_ref)
        assert np.all(gap <= 1e3 * m * np.finfo(float).eps * abs(cert.det_ref)), np.max(gap)

    @staticmethod
    def rate(sys, cert):
        """The rate mu = -i r_j of the certificate, with mu^m = lam."""
        j = int(np.argmin(np.abs(sys.minus_ir ** sys.m - cert.lam)))
        assert (sys.minus_ir ** sys.m)[j] == cert.lam
        return sys.minus_ir[j]

    @classmethod
    def assert_certified(cls, sys, cert):
        # eigen_residual is L's own residual max|L K - mu L|.  Column 1 is
        # i r^(1-m) P(r), within the root's backward error 4 m eps of its
        # scale |L| |K| + |mu| |L|; the other columns are roundoff alone, so
        # 8 m eps of the scale bounds every column
        mu = cls.rate(sys, cert)
        residual = np.abs(cert.L @ sys.K - mu * cert.L)
        scale = np.abs(cert.L) @ np.abs(sys.K) + abs(mu) * np.abs(cert.L)
        assert cert.eigen_residual == np.max(residual)
        assert np.all(residual <= 8 * sys.m * np.finfo(float).eps * scale), "residual above 8 m eps"
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

    @staticmethod
    def random_18():
        """P from 18 random roots in [0, 1]^2."""
        rng = np.random.default_rng(18)
        return make_system(Polynomial.from_roots(tuple(rng.uniform(0, 1, 18) + 1j * rng.uniform(0, 1, 18))))

    def test_random_roots_where_the_power_bound_failed(self):
        # the rounded K^18 carries roundoff far above 100 m eps norm1(K^18),
        # so a residual against K^m exceeds that bound here
        sys = self.random_18()
        cert = identity_certificate(sys)
        self.assert_certified(sys, cert)
        M = np.linalg.matrix_power(sys.K, sys.m)
        assert np.max(np.abs(cert.L @ M - cert.lam * cert.L)) > (
            100 * sys.m * np.finfo(float).eps * linalg.norm1(M))

    @pytest.mark.parametrize("case", ["x^4+3x^2+1", "x^10+x^2+1", "x^3+x^2+1", "degree-24", "rng-18"])
    def test_a_bent_eigenvector_fails(self, case, monkeypatch):
        # scaling L_0 by 1 + 1e-9 must fail the bound of assert_certified
        if case == "degree-24":
            rng = np.random.default_rng(24)
            sys = from_roots(rng.uniform(0.5, 1.2, 24) * np.exp(2j * np.pi * rng.uniform(size=24)))
        elif case == "rng-18":
            sys = self.random_18()
        else:
            sys = make_system(parse_polynomial(case))
        original = gentrig._left_eigenvector

        def bent(K, mu):
            L = original(K, mu)
            L[0] *= 1 + 1e-9
            return L

        monkeypatch.setattr(gentrig, "_left_eigenvector", bent)
        with pytest.raises(AssertionError, match="residual above 8 m eps"):
            self.assert_certified(sys, identity_certificate(sys))

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


class TestSpectralDeterminant:
    @pytest.mark.parametrize("degree", range(2, 25))
    def test_matches_lu_fold(self, degree):
        rng = np.random.default_rng(200 + degree)
        systems = [verify._random_system(rng, degree) for _ in range(3)]
        systems += [binomial(degree, c) for c in (1, -2, 0.5j)]
        for sys in systems:
            cert = identity_certificate(sys)
            F = certificate_rows(sys, cert)
            M0 = shift_fold(F.sum(axis=1), cert.lam)
            x = verify.sample_points(rng, verify.SAMPLES, 1.0)
            M = shift_fold(sys.exponentials(x) @ F.T, cert.lam)
            c, h0 = 1e3 * degree * np.finfo(float).eps, hadamard(M0)
            assert abs(cert.det_ref - np.linalg.det(M0)) <= c * 2 * h0
            assert np.all(np.abs(eval_det_M(cert, sys, x) - np.linalg.det(M)) <= c * (hadamard(M) + h0))

    @pytest.mark.parametrize("m", range(1, 13))
    def test_cyclotomic_matches_lu_fold(self, m):
        sys = cyclotomic.make_cyclotomic(m)
        F = (sys.zeta ** np.arange(m))[:, None] * sys.weights
        x = verify.sample_points(np.random.default_rng(300 + m), verify.SAMPLES, 2.0)
        if m == 1:  # [[exp(-x)]] has no wrap and no identity: refused
            with pytest.raises(cyclotomic.CyclotomicError):
                cyclotomic.det_M_cyclo(sys, x)
            return
        M = shift_fold(sys.exponentials(x) @ F.T, -1.0)
        bound = 1e3 * m * np.finfo(float).eps * (hadamard(M) + hadamard(shift_fold(F.sum(axis=1), -1.0)))
        assert np.all(np.abs(cyclotomic.det_M_cyclo(sys, x) - np.linalg.det(M)) <= bound)

    def test_array_argument(self):
        xs = np.array([[0.0, 1.5, -0.2 + 0.7j], [-2j, 0.3 - 0.4j, 1.1]])
        sys = binomial(5, -2)
        cert = identity_certificate(sys)
        cyclo = cyclotomic.make_cyclotomic(5)
        for evaluate in (lambda x: eval_det_M(cert, sys, x),
                         lambda x: cyclotomic.det_M_cyclo(cyclo, x)):
            values = evaluate(xs)
            assert values.shape == xs.shape
            assert type(evaluate(0.5)) is complex
            for x, v in zip(xs.ravel(), values.ravel()):
                assert v == pytest.approx(evaluate(x), rel=1e-14)

    @staticmethod
    def live_rows(sys, cert):
        """Rows of G above the roundoff of the largest, and the roots with (-i r)^m = lam."""
        G = gentrig._certificate_rows(sys, cert.L, cert.lam)
        norms = np.linalg.norm(G, axis=1)
        tol = 1e3 * sys.m * np.finfo(float).eps
        matched = np.abs(sys.minus_ir ** sys.m - cert.lam) <= 1e-8 * abs(cert.lam)
        return int(np.sum(norms > tol * norms.max())), int(np.sum(matched))

    @pytest.mark.parametrize("text,matched", [("x^3+x^2+1", 1), ("x^6-x^3+2", 3),
                                              ("x^5+1", 5), ("x^2+1", 2)])
    def test_live_rows(self, text, matched):
        # row j of G is live only where w_j is a rate -i r_k, so det M is not
        # zero only when every w_j is, that is for P = x^m - c.  Off the
        # binomials L is the eigenvector of one root, which leaves one live
        # row even where several rates match, as the three of x^6 - x^3 + 2
        # with (-i r)^6 = lam do; a binomial's L = e_0 leaves all m
        sys = make_system(parse_polynomial(text))
        live = sys.m if matched == sys.m else 1
        assert self.live_rows(sys, identity_certificate(sys)) == (live, matched)

    def test_random_systems_have_dead_rows(self):
        # the systems of acceptance check 04: det M(x) is roundoff on every one
        rng = np.random.default_rng(0)
        for _ in range(25):
            sys = verify._random_system(rng, int(rng.integers(2, 7)))
            rows, matched = self.live_rows(sys, identity_certificate(sys))
            assert rows == matched < sys.m
            verify.sample_points(rng, verify.SAMPLES, 1.0)  # the check's draws, to stay in step

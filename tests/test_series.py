import cmath
import dataclasses
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from polytrig import gentrig, linalg, series
from polytrig.gentrig import ArgumentOverflowError
from polytrig.poly import MAX_DEGREE, Polynomial, PolynomialError, RootSet, parse_polynomial
from polytrig.series import (MIN_ORACLE_N, CrossCheckError, DegenerateMatrixError,
                             IntegerRootError, SeriesError,
                             associated_matrix, brute_force_sums, eval_R, evaluate_sums,
                             fourier_coefficient)


EPS = float(np.finfo(float).eps)


def _random_system(rng, degree):
    while True:
        roots = rng.uniform(-1, 1, degree) + 1j * rng.uniform(-1, 1, degree)
        if np.min(np.abs(roots.imag)) > 0.05:  # comfortably off the integers
            return gentrig.from_roots(roots)


def _random_poly(rng, degree, real):
    """Monic P with roots in the unit square, off the integers; conjugate pairs if real."""
    while True:
        half = rng.uniform(-1, 1, degree) + 1j * rng.uniform(-1, 1, degree)
        roots = (np.concatenate([half[:degree // 2], half[:degree // 2].conj(),
                                 half.real[:degree % 2]]) if real else half)
        if (np.min(np.abs(roots)) > 0.1
                and np.min(np.abs(roots - np.round(roots.real))) > 0.05):
            desc = np.poly(roots)
            return Polynomial(tuple(complex(c) for c in (desc.real if real else desc)[::-1]))


class TestBoundaryFunctions:
    def test_quadratic_closed_form(self):
        # roots +-i: R_0(x) = sinh(x)/sinh(pi), R_1(x) = i cosh(x)/sinh(pi)
        sys = gentrig.make_system(parse_polynomial("x^2+1"))
        for x in (0.0, 1.2, -2.5):
            assert eval_R(sys, 0, x) == pytest.approx(
                math.sinh(x) / math.sinh(math.pi), abs=1e-13)
            assert eval_R(sys, 1, x) == pytest.approx(
                1j * math.cosh(x) / math.sinh(math.pi), abs=1e-13)

    def test_overflowing_denominator_is_typed(self):
        # sin(pi r) for r = 300i needs exp(300 pi), past EXP_GUARD
        sys = gentrig.make_system(parse_polynomial("x^2+90000"))
        for x in (0.0, np.linspace(-1, 1, 5)):
            with pytest.raises(ArgumentOverflowError) as exc:
                eval_R(sys, 0, x)
            assert abs(abs(exc.value.root) - 300) < 1e-9
            assert "300j" in str(exc.value)

    def test_array_argument(self):
        sys = _random_system(np.random.default_rng(43), 5)
        xs = np.array([[-2.0, 0.5j], [1 - 1j, 3.0]])
        values = eval_R(sys, 2, xs)
        assert values.shape == xs.shape
        assert type(eval_R(sys, 2, 0.5)) is complex
        for x, v in zip(xs.ravel(), values.ravel()):
            assert v == pytest.approx(eval_R(sys, 2, x), rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("l", [-1, -3, 3])
    def test_index_out_of_range(self, l):
        # a negative index used to wrap: eval_R(sys, -1, x) returned R_2
        sys = gentrig.make_system(parse_polynomial("x^3+x^2+1"))
        with pytest.raises(gentrig.GenTrigError, match="out of range 0..2"):
            eval_R(sys, l, 0.3)
        with pytest.raises(gentrig.GenTrigError, match="out of range 0..2"):
            fourier_coefficient(sys, l, 1)

    @pytest.mark.parametrize("n", [0.5, 1.5, 1.0, True, None],
                             ids=["0.5", "1.5", "1.0", "True", "None"])
    def test_fourier_index_must_be_an_integer(self, n):
        sys = gentrig.make_system(parse_polynomial("x^3+x^2+1"))
        with pytest.raises(SeriesError, match="Fourier index"):
            fourier_coefficient(sys, 1, n)

    def test_fourier_index_integer_types(self):
        sys = gentrig.make_system(parse_polynomial("x^3+x^2+1"))
        for n in (-3, 0, 2):
            assert fourier_coefficient(sys, 1, np.int64(n)) == fourier_coefficient(sys, 1, n)

    def test_integer_root_rejected(self):
        sys = gentrig.make_system(parse_polynomial("x^2-1"))
        with pytest.raises(IntegerRootError) as exc:
            eval_R(sys, 0, 0.0)
        assert exc.value.distance < 1e-12

    def test_fourier_consistency_identity(self):
        # c_{n,l} must equal (-1)^n * sum_k C[l][k] n^k / P(n) for integer n
        rng = np.random.default_rng(41)
        for _ in range(10):
            sys = _random_system(rng, int(rng.integers(2, 6)))
            C = associated_matrix(sys).C
            for n in (-3, -1, 0, 2, 5):
                pn = sys.poly(n)
                for l in range(sys.m):
                    predicted = ((-1) ** n) * sum(
                        C[l, k] * n ** k for k in range(sys.m)) / pn
                    assert fourier_coefficient(sys, l, n) == pytest.approx(
                        predicted, abs=1e-10)


class TestAssociatedMatrix:
    def test_known_cubic(self):
        sys = gentrig.make_system(parse_polynomial("x^3+x^2+1"))
        am = associated_matrix(sys)
        got = am.C * series.TWO_PI_I
        expected_desc = np.array([[3, 2, 0], [-1, 0, -3], [0, 3, 2]])
        assert np.max(np.abs(got[:, ::-1] - expected_desc)) < 1e-10
        assert am.condition_estimate < 100

    def test_cross_check_passes_at_degree_24(self):
        rng = np.random.default_rng(44)
        sys = _random_system(rng, 24)
        assert np.all(np.isfinite(associated_matrix(sys).C.view(float)))

    def test_cross_check_catches_a_moved_root(self):
        # T and the roots say one polynomial, P another: the routes must disagree
        rng = np.random.default_rng(44)
        for degree in (3, 8, 24):
            sys = _random_system(rng, degree)
            moved = list(sys.roots.roots)
            moved[0] *= 1 + 1e-9
            bad = dataclasses.replace(sys, roots=RootSet(tuple(moved), 0.0),
                                      T=gentrig.tuple_coefficients(moved))
            with pytest.raises(ArithmeticError, match="cross-check"):
                associated_matrix(bad)

    def test_cross_check_error_is_typed(self):
        # roots +-i doubled, plus 2+0.5i: the routes differ by 1.8e-8 > 2.7e-11
        assert issubclass(CrossCheckError, SeriesError)
        assert issubclass(CrossCheckError, ArithmeticError)
        with pytest.raises(CrossCheckError, match="cross-check"):
            evaluate_sums(Polynomial.from_roots((1j, 1j, -1j, -1j, 2 + 0.5j)))

    def test_two_routes_on_random_polys(self):
        # associated_matrix itself raises if its two internal routes disagree
        rng = np.random.default_rng(42)
        for _ in range(50):
            sys = _random_system(rng, int(rng.integers(2, 8)))
            am = associated_matrix(sys)
            assert am.C.shape == (sys.m, sys.m)
            assert np.all(np.isfinite(am.C.view(float)))


class TestOracle:
    def test_quadratic_reference_values(self):
        oracle_a, oracle_b = brute_force_sums(parse_polynomial("x^2+1"))
        est, err = oracle_a[0]
        assert abs(est - math.pi / math.tanh(math.pi)) < 1e-9
        assert abs(est - math.pi / math.tanh(math.pi)) < 10 * err + 1e-11
        est, err = oracle_b[0]
        assert abs(est - math.pi / math.sinh(math.pi)) < 1e-9

    def test_odd_powers_cancel(self):
        oracle_a, _ = brute_force_sums(parse_polynomial("x^2+1"))
        est, _ = oracle_a[1]
        assert abs(est) < 1e-12

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("degree", range(2, 9))
    def test_all_sums_against_residue_formula(self, degree, real):
        # sum n^k/P(n) = -pi sum_j r_j^k cot(pi r_j)/P'(r_j), 1/sin for the
        # alternating sum, at np.roots roots: independent of the closed form
        p = _random_poly(np.random.default_rng(100 + degree), degree, real)
        desc = np.array(p.coeffs[::-1])
        roots = np.roots(desc)
        dp = np.polyval(np.polyder(desc), roots)
        oracle_a, oracle_b = brute_force_sums(p)
        for k in range(degree):
            base = -math.pi * roots ** k / dp
            for terms, (est, _) in ((base / np.tan(math.pi * roots), oracle_a[k]),
                                    (base / np.sin(math.pi * roots), oracle_b[k])):
                assert abs(est - terms.sum()) <= 1e-6 * (1 + np.abs(terms).sum())

    @pytest.mark.parametrize("n_terms", [0, 1, MIN_ORACLE_N - 1])
    def test_small_oracle_rejected(self, n_terms):
        # at N = 1, x^2+1 gave B_0 = 0 with error bar 1e-12 (true value 0.272)
        p = parse_polynomial("x^2+1")
        with pytest.raises(SeriesError, match="oracle size"):
            brute_force_sums(p, n_terms)
        with pytest.raises(SeriesError, match="oracle size"):
            evaluate_sums(p, oracle_n=n_terms)

    def test_roots_too_large_for_the_head(self):
        # the roots +-1e6 i have Fujiwara's bound 2 (1e12 / 2)^(1/2) = 1.414e6, and
        # a head of four such radii is above the 2^20 terms a radius may force
        with pytest.raises(SeriesError, match=r"^roots of modulus up to 1\.414e\+06 need an "
                           r"oracle head of 5\.657e\+06 terms; pass that many"):
            brute_force_sums(parse_polynomial("x^2+1e12"))

    @pytest.mark.parametrize("n_terms", [1000.0, 1000.5, True, "1000"])
    def test_oracle_size_must_be_an_integer(self, n_terms):
        p = parse_polynomial("x^2+1")
        with pytest.raises(SeriesError, match="oracle size .* is not an integer"):
            brute_force_sums(p, n_terms)
        with pytest.raises(SeriesError, match="oracle size .* is not an integer"):
            evaluate_sums(p, oracle_n=n_terms)

    def test_numpy_integer_oracle_size_accepted(self):
        p = parse_polynomial("x^2+1")
        assert brute_force_sums(p, np.int64(1001)) == brute_force_sums(p, 1001)

    def test_degree_zero_refused(self):
        with pytest.raises(SeriesError, match="degree at least 1"):
            brute_force_sums(Polynomial((5.0,)))

    @pytest.mark.parametrize("text, root", [("x^2-4", 2.0), ("x^4-6x^3+10x^2-6x+9", 3.0)])
    def test_integer_root_refused(self, text, root):
        # x^2 - 4 and (x-3)^2 (x^2+1): P(n) = 0 at a head integer, before any division
        with pytest.raises(IntegerRootError) as exc:
            brute_force_sums(parse_polynomial(text))
        assert exc.value.root == root and exc.value.distance == 0.0

    def test_near_integer_root_named_by_its_newton_step(self):
        r = 2 + 1e-10
        with pytest.raises(IntegerRootError) as exc:
            brute_force_sums(Polynomial((-r * r, 0.0, 1.0)))
        assert exc.value.root.real == pytest.approx(r, abs=1e-15)
        assert exc.value.distance == pytest.approx(1e-10, rel=1e-5)

    @pytest.mark.parametrize("roots, named", [
        ((2.0, -1.0), -1.0),  # 1, -1, 2, -2, ...: |n| = 1 comes first
        ((20000.0, 1j, -1j), 20000.0),  # N = 160,000; n = 20000 is in the second block
    ])
    def test_integer_roots_named_nearest_zero_first(self, roots, named):
        p = Polynomial(tuple(complex(c) for c in np.poly(roots)[::-1]))
        with pytest.raises(IntegerRootError) as exc:
            brute_force_sums(p)
        assert exc.value.root == named and exc.value.distance == 0.0

    def test_smallest_oracle_is_honest(self):
        oracle_a, oracle_b = brute_force_sums(parse_polynomial("x^2+1"), MIN_ORACLE_N)
        est, err = oracle_a[0]
        assert abs(est - math.pi / math.tanh(math.pi)) <= err
        est, err = oracle_b[0]
        assert abs(est - math.pi / math.sinh(math.pi)) <= err


class TestZetaTable:
    """The oracle tail's zeta factors, computed inside the operator memo
    (``_tail_operators``), which is the oracle's one memo."""

    #: (x^2 + 100^2)^12 needed the most Laurent terms, m + J = 51, in a sweep
    #: of degree-24 inputs (random, annulus, real and imaginary-axis roots of
    #: modulus 1 to 3e4)
    WORST_24 = Polynomial.from_roots((100j,) * 12 + (-100j,) * 12)

    @staticmethod
    def direct(N, top):
        """The zeta block computed inline for one call, at ``top`` rows s < top:
        the reference that the operators' zeta factors must equal."""
        sigma = N + 1.0
        e, o = (N + 2, N + 1) if N % 2 == 0 else (N + 1, N + 2)
        s = np.arange(2, top)[:, None]
        z, z_error = series._hurwitz_zeta(s, np.array([sigma, e / 2, o / 2]))
        rescale = (sigma / np.array([sigma, e, o])) ** (s - 1.0)
        mix = np.array([[1.0, 0.0], [0.0, 0.5], [0.0, -0.5]])
        pad = np.zeros((2, 2))
        return (np.concatenate([pad, (z * rescale) @ mix]),
                np.concatenate([pad, (z * rescale) @ np.abs(mix)]),
                np.concatenate([pad, (z_error * rescale) @ np.abs(mix)]))

    # 565686 is the head that x^2 + 1e10 forces: 4 Fujiwara radii of 141421.4
    @pytest.mark.parametrize("N", [1000, 1001, 565686], ids=["even", "odd", "large-radius"])
    def test_rows_equal_the_direct_computation(self, N):
        # m + J rows of 4, 5, 11, 51 and 96, unmemoized and memoized; equal
        # floats have equal bits, but for the sign of a masked-out zero
        for m, J in ((2, 2), (2, 3), (5, 6), (24, 27), (24, 72)):
            want = TestTailOperators.direct(N, m, J)
            for got in (series._tail_operators.__wrapped__(N, m, J), series._tail_operators(N, m, J)):
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (m, J)

    def test_large_radius_head(self, monkeypatch):
        asked = []
        tail = series._tail_operators
        monkeypatch.setattr(series, "_tail_operators", lambda N, m, J: asked.append(N) or tail(N, m, J))
        brute_force_sums(Polynomial((1e10, 0.0, 1.0)))
        assert asked == [565686]

    @pytest.mark.parametrize("p", [parse_polynomial("x^2+1"), parse_polynomial("x^3+x^2+1"),
                                   parse_polynomial("x^8+1"), parse_polynomial("x^5-x+3"),
                                   Polynomial((1e10, 0.0, 1.0)), WORST_24],
                             ids=["x^2+1", "x^3+x^2+1", "x^8+1", "x^5-x+3", "x^2+1e10", "degree-24"])
    def test_cold_warm_and_unmemoized_agree(self, p, monkeypatch):
        def both():
            try:
                sums = evaluate_sums(p)
            except (ArgumentOverflowError, SeriesError) as exc:  # the two large-root inputs
                sums = f"{type(exc).__name__}: {exc}"
            return repr((brute_force_sums(p), sums))

        series._tail_operators.cache_clear()
        cold = both()
        warm = both()
        assert series._tail_operators.cache_info().hits >= 1
        assert warm == cold
        monkeypatch.setattr(series, "_tail_operators", series._tail_operators.__wrapped__)
        assert both() == cold

    def test_table_covers_the_worst_degree_24_input(self, monkeypatch):
        # the tail reads the zeta factors at s = m + j - k up to m + J - 1, so
        # the last Laurent term of the sum k = 0 reads row 50 of the block
        asked = []
        tail = series._tail_operators.__wrapped__
        monkeypatch.setattr(series, "_tail_operators",
                            lambda N, m, J: asked.append((N, m, J)) or tail(N, m, J))
        brute_force_sums(self.WORST_24)
        (N, m, J), = asked
        assert (m, J) == (24, 27)  # m + J = 51, within the m + 72 <= 96 rows of degree 24
        Z = tail(N, m, J)[0]
        row = self.direct(N, m + J)[0][m + J - 1]
        assert np.array_equal(Z[0, :, J - 1], 2 * (N + 1.0) ** (1.0 - m) * row) and row.all()

    def test_memo_memory_is_bounded(self):
        # the operators' memo is the oracle's only one, and many heads fill
        # it to its bound and no further
        assert [name for name, f in vars(series).items() if hasattr(f, "cache_info")] == \
            ["_tail_operators"]
        maxsize = series._tail_operators.cache_info().maxsize
        series._tail_operators.cache_clear()
        p = parse_polynomial("x^2+1")
        for N in range(MIN_ORACLE_N, MIN_ORACLE_N + maxsize + 8):
            brute_force_sums(p, N)
        assert series._tail_operators.cache_info().currsize == maxsize


class TestCauchyFloor:
    """q~(g) = 1 - sum_i |beta_i| g^i, from which the oracle takes its Cauchy
    factor 1/q~, is a lower bound."""

    def test_floor_never_exceeds_the_exact_value(self, monkeypatch):
        # in rationals from the same floats |beta_i|; rounded without an
        # allowance, about half of these (input, g) pairs land above it
        calls = []
        floor = series._cauchy_floor
        monkeypatch.setattr(series, "_cauchy_floor",
                            lambda size: calls.append((size, floor(size))) or calls[-1][1])
        rng = np.random.default_rng(25)
        for _ in range(40):
            m = int(rng.integers(1, 9))
            scale = 0.3 * 2100 ** rng.uniform()  # 0.3 .. 630
            brute_force_sums(Polynomial.from_roots(
                scale * (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m))))
        assert len(calls) == 40
        for size, q in calls:
            for g, q_g in zip(series._RADII, q):
                exact = 1 - sum(Fraction(b) * Fraction(g) ** i for i, b in enumerate(size.tolist(), 1))
                assert Fraction(q_g) <= exact, (size, g)


class TestTailOperators:
    """The oracle tail as three operators on the Laurent coefficients, memoized
    per head size, degree and term count."""

    @staticmethod
    def direct(N, m, J):
        """The operators from the zeta block as the tail formula reads it: unit[k]
        times the zeta factors at s = m + j - k, zero at an odd s."""
        sigma = N + 1.0
        k = np.arange(m)
        unit = 2 * sigma ** (k + 1.0 - m)
        s = m + np.arange(J) - k[:, None]
        zeta, size, error = TestZetaTable.direct(N, m + J)
        keep = (s % 2 == 0)[..., None]
        return [np.moveaxis(unit[:, None, None] * np.where(keep, t[s], 0), 1, 2)
                for t in (zeta, size, error)] + [(unit * (1 / sigma + 1 / (m + J - k - 1)))[:, None]]

    @pytest.mark.parametrize("N, m, J", [(1000, 2, 6), (1001, 5, 7), (1000, 8, 6), (565686, 2, 9),
                                         (1000, 24, 72)])
    def test_operators_equal_the_tail_formula(self, N, m, J):
        got = series._tail_operators(N, m, J)
        for a, b in zip(got, self.direct(N, m, J)):
            assert a.shape == b.shape and np.array_equal(a, b)
        assert got[0].shape == (m, 2, J) and got[3].shape == (m, 1)

    def test_operators_are_read_only(self):
        for t in series._tail_operators(MIN_ORACLE_N, 3, 8):
            with pytest.raises(ValueError, match="read-only"):
                t[0, 0] = 0.0

    def test_memo_memory_is_bounded(self):
        # a bounded number of entries, each at most 3 (m, 2, J) arrays and an
        # (m, 1) column, m <= 24 and J <= 72, whatever N is
        maxsize = series._tail_operators.cache_info().maxsize
        per_entry = 3 * 24 * 2 * 72 * 8 + 24 * 8
        assert maxsize is not None and maxsize * per_entry <= 6 * 2 ** 20
        series._tail_operators.cache_clear()
        for N in range(1000, 1000 + 2 * maxsize):
            series._tail_operators(N, 2, 4)
        assert series._tail_operators.cache_info().currsize == maxsize
        assert sum(t.nbytes for t in series._tail_operators(10 ** 9, 24, 72)) == per_entry


class TestIntegerScreen:
    """P(+-n) and P~(n) come from one product with the power block; the integer
    check decides in exact arithmetic (ints on the coefficients), with one
    exact pass of P and P' at each n where a screen says it could fire:
    |a_0| <= 2 tol |a_1| at n = 0, and |P(+-n)| <= 2 m tol P~(n) beyond; the
    refusals stay as they were (``test_integer_root_refused``,
    ``test_near_integer_root_named_by_its_newton_step`` and
    ``test_integer_roots_named_nearest_zero_first`` above)."""

    @staticmethod
    def exact_passes(monkeypatch, p):
        calls = []
        exact = series._exact_value
        monkeypatch.setattr(series, "_exact_value", lambda c, n: calls.append(n) or exact(c, n))
        brute_force_sums(p)
        return calls

    def test_no_pass_for_a_typical_polynomial(self, monkeypatch):
        assert self.exact_passes(monkeypatch, parse_polynomial("x^3+x^2+1")) == []

    def test_screen_fires_but_the_exact_test_does_not(self, monkeypatch):
        # root 2 + 5e-8: |P(2)| = 2.0e-7 is below 2 m tol P~(2) = 3.2e-7, but the
        # Newton step 5e-8 is above tol, so the sums come back, with one exact
        # pass at each integer the screen names: 2, then -2 (P is even)
        r = 2 + 5e-8
        p = Polynomial((-r * r, 0.0, 1.0))
        assert self.exact_passes(monkeypatch, p) == [2, -2]
        oracle_a, _ = brute_force_sums(p)
        assert all(math.isfinite(abs(v)) and math.isfinite(b) for v, b in oracle_a)

    def test_zero_has_its_own_screen(self, monkeypatch):
        # (x - 1.5e-8)(x + 1/2): |a_0| = 7.5e-9 is within 2 tol |a_1|, but the
        # Newton step 1.5e-8 is above tol: one exact pass, at n = 0; x (x + 1/2)
        # is refused there
        assert self.exact_passes(monkeypatch, Polynomial((-0.75e-8, 0.5 - 1.5e-8, 1.0))) == [0]
        with pytest.raises(IntegerRootError) as exc:
            brute_force_sums(Polynomial((0.0, 0.5, 1.0)))
        assert exc.value.root == 0 and exc.value.distance == 0.0


class TestOracleAgainstMpmath:
    """The oracle's zeta helper and error bar against 40-digit references."""

    @pytest.fixture(autouse=True)
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            yield mpmath

    @pytest.mark.parametrize("a", [1001, 500.5, 501])
    def test_hurwitz_zeta(self, mp, a):
        # every even exponent the tail uses: s < m + J, with m <= 24 and J <= 72
        s = np.arange(2, MAX_DEGREE + 72, 2)
        got, bound = series._hurwitz_zeta(s, a)
        for sj, value, b in zip(s, got, bound):
            # mpmath's zeta(s, a) loses about s log10(a) of its working digits
            with mp.workdps(40 + 4 * int(sj)):
                ref = mp.zeta(int(sj), a) * mp.mpf(a) ** (int(sj) - 1)
            assert abs(value - ref) <= b + 4 * EPS * ref, f"s = {sj}"

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("degree", range(2, 9))
    def test_error_bar_holds(self, mp, degree, real):
        # -pi sum_j r_j^k cot(pi r_j)/P'(r_j), 1/sin for the alternating sum,
        # at 40-digit roots of the same double coefficients
        p = _random_poly(np.random.default_rng(100 + degree), degree, real)
        desc = [mp.mpc(c.real, c.imag) for c in p.coeffs[::-1]]
        slope = [c * (degree - i) for i, c in enumerate(desc[:-1])]
        roots = mp.polyroots(desc, maxsteps=200, extraprec=200)
        weight = [-mp.pi / mp.polyval(slope, r) for r in roots]
        oracle_a, oracle_b = brute_force_sums(p)
        for k in range(degree):
            ref_a = mp.fsum(w * r ** k * mp.cot(mp.pi * r) for w, r in zip(weight, roots))
            ref_b = mp.fsum(w * r ** k / mp.sin(mp.pi * r) for w, r in zip(weight, roots))
            for (est, err), ref in ((oracle_a[k], ref_a), (oracle_b[k], ref_b)):
                assert abs(est - complex(ref)) <= err, f"k = {k}"
                assert err <= 1e-10 * (1 + abs(est))

    def test_roots_clustered_near_an_integer(self, mp):
        # a draw of roots clustered near -5..5, each 1e-11..1e-7 from an
        # integer; P, with its coefficients rounded, has the roots
        # 3 + (2.3 - 1.1i)e-8 and 3 - (3.2 + 1.5i)e-8.  |P(3)| is below the rounding
        # bound of its float evaluation, whose Newton step 2.1e-11 was refused;
        # the exact step |P(3)/P'(3)| is 3.3e-8, above tol, so the sums come
        # back, the exact P(3) in the head and its bar from eps |P(3)|
        rng = np.random.default_rng(42)
        m = int(rng.integers(2, 9))
        c = int(rng.integers(-5, 6))
        roots = [c + int(rng.integers(-1, 2)) + 10 ** rng.uniform(-11, -7)
                 * np.exp(2j * np.pi * rng.uniform()) for _ in range(m)]
        p = Polynomial(tuple(complex(x) for x in np.poly(roots)[::-1]))
        assert m == 2 and np.allclose(roots, 3, atol=1e-7)
        desc = [mp.mpc(x.real, x.imag) for x in p.coeffs[::-1]]
        exact = mp.polyroots(desc, maxsteps=200, extraprec=200)
        weight = [-mp.pi / (2 * r + desc[1]) for r in exact]
        oracle_a, oracle_b = brute_force_sums(p)
        for k in range(m):
            ref_a = mp.fsum(w * r ** k * mp.cot(mp.pi * r) for w, r in zip(weight, exact))
            ref_b = mp.fsum(w * r ** k / mp.sin(mp.pi * r) for w, r in zip(weight, exact))
            for (est, err), ref in ((oracle_a[k], ref_a), (oracle_b[k], ref_b)):
                assert abs(est - complex(ref)) <= err, f"k = {k}"
                assert err <= 1e-12 * abs(est)

    @pytest.mark.parametrize("a", [50, 300, 10 ** 4])
    def test_large_roots(self, mp, a):
        # sum 1/(n^2+a^2) = (pi/a) coth(pi a), alternating (pi/a)/sinh(pi a); every
        # term is positive, so both are measured against the first, the size of
        # the terms.  The closed form overflows at a = 300, so this goes through
        # brute_force_sums.  At a = 10^4 the head is N = 56,569, four blocks.
        oracle_a, oracle_b = brute_force_sums(parse_polynomial(f"x^2+{a * a}"), MIN_ORACLE_N)
        ref_a = mp.pi / a / mp.tanh(mp.pi * a)
        ref_b = mp.pi / a / mp.sinh(mp.pi * a)
        for (est, err), ref in ((oracle_a[0], ref_a), (oracle_b[0], ref_b)):
            assert abs(est - complex(ref)) <= 1e-14 * ref_a
            assert abs(est - complex(ref)) <= err


class TestHeadBlocks:
    """The head walks n = 1..N in blocks of ``_HEAD_BLOCK`` integers."""

    @pytest.mark.parametrize("text", ["x^3+x^2+1", "x^2+1"])
    def test_heads_across_block_boundaries(self, text):
        # one block short of full, one full, one full and one of a single n,
        # and two full and one of a single n: a partial last block dropped or
        # counted twice moves A_0 of x^2 + 1 by 2/(n^2 + 1) >= 1.8e-9 for some
        # n <= 2B + 1, far above the bars
        p = parse_polynomial(text)
        closed = evaluate_sums(p, run_oracle=False)
        B = series._HEAD_BLOCK
        runs = [brute_force_sums(p, n) for n in (B - 1, B, B + 1, 2 * B + 1)]
        for oracle_a, oracle_b in runs:
            for exact, (est, bar) in zip(closed.A + closed.B, oracle_a + oracle_b):
                assert abs(est - exact) <= bar
        for (a_a, a_b), (b_a, b_b) in itertools.combinations(runs, 2):
            for (est_a, bar_a), (est_b, bar_b) in zip(a_a + a_b, b_a + b_b):
                assert abs(est_a - est_b) <= bar_a + bar_b

    @pytest.mark.parametrize("coeffs, limit", [
        ((1e10, 0.0, 1.0), 8e6),  # x^2 + 1e10: N = 565,686 (length-N head arrays took 68 MB)
        ((1e115,) + (0.0,) * 23 + (1.0,), 32e6),  # x^24 + 1e115: N = 481,077
    ])
    def test_memory_is_one_block(self, coeffs, limit):
        p = Polynomial(coeffs)
        assert series.HEAD_RADII * series._fujiwara_radius(np.array(coeffs)) >= 1e5
        brute_force_sums(p)  # the tail operators are memoized on the first call
        tracemalloc.start()
        try:
            brute_force_sums(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


class TestEvaluateSums:
    def test_quadratic(self):
        res = evaluate_sums(parse_polynomial("x^2+1"))
        assert res.A[0] == pytest.approx(math.pi / math.tanh(math.pi), abs=1e-12)
        assert res.B[0] == pytest.approx(math.pi / math.sinh(math.pi), abs=1e-12)
        assert abs(res.A[1]) < 1e-12 and abs(res.B[1]) < 1e-12

    def test_shifted_quadratic(self):
        # P(n) = (n - 1/2)^2 + 1: closed form via the digamma reflection is
        # avoided; the oracle is the reference
        p = Polynomial((1.25, -1.0, 1.0))
        res = evaluate_sums(p)
        for k in range(2):
            assert abs(res.A[k] - res.oracle_A[k][0]) < 1e-6
            assert abs(res.B[k] - res.oracle_B[k][0]) < 1e-6

    def test_nonmonic_scaling(self):
        res1 = evaluate_sums(parse_polynomial("x^2+1"))
        res3 = evaluate_sums(Polynomial((3.0, 0.0, 3.0)))
        for k in range(2):
            assert res3.A[k] == pytest.approx(res1.A[k] / 3, abs=1e-12)
            assert res3.B[k] == pytest.approx(res1.B[k] / 3, abs=1e-12)

    def test_complex_coefficients(self):
        p = Polynomial((1 + 0.5j, 0.25, 1.0))
        res = evaluate_sums(p)
        for k in range(2):
            assert abs(res.A[k] - res.oracle_A[k][0]) < 1e-5
            assert abs(res.B[k] - res.oracle_B[k][0]) < 1e-6

    def test_large_roots(self):
        # roots +-50i: the closed form and the oracle at its smallest size
        res = evaluate_sums(parse_polynomial("x^2+2500"), oracle_n=MIN_ORACLE_N)
        ref = math.pi / 50 / math.tanh(50 * math.pi)
        for est in (res.A[0], res.oracle_A[0][0]):
            assert abs(est - ref) <= 1e-14 * ref
        for est in (res.B[0], res.oracle_B[0][0]):
            assert abs(est) <= 1e-14 * ref  # (pi/50)/sinh(50 pi) is 7.6e-70

    def test_quartic_against_oracle(self):
        res = evaluate_sums(parse_polynomial("x^4+1"), oracle_n=50_000)
        for k in range(4):
            assert abs(res.A[k] - res.oracle_A[k][0]) < 1e-6
            assert abs(res.B[k] - res.oracle_B[k][0]) < 1e-6

    def test_top_power_principal_value(self):
        # the k = m-1 terms decay like 1/n; symmetric summation still converges
        res = evaluate_sums(parse_polynomial("x^3+x^2+1"))
        assert abs(res.A[2] - res.oracle_A[2][0]) < 1e-6
        assert abs(res.B[2] - res.oracle_B[2][0]) < 1e-6

    def test_degree_one_rejected(self):
        with pytest.raises(SeriesError):
            evaluate_sums(parse_polynomial("x+5"))

    def test_degree_above_the_cap_never_reaches_the_sums(self, monkeypatch):
        # x^25 + 1, from coefficients or from roots: refused when the polynomial is built
        monkeypatch.setattr(series, "make_system", lambda p: pytest.fail("reached"))
        roots = [cmath.exp(1j * math.pi * (2 * k + 1) / 25) for k in range(MAX_DEGREE + 1)]
        for build in (lambda: Polynomial((1,) + (0,) * MAX_DEGREE + (1,)),
                      lambda: Polynomial.from_roots(roots)):
            with pytest.raises(PolynomialError, match="exceeds the supported maximum"):
                evaluate_sums(build())

    def test_integer_root_rejected(self):
        with pytest.raises(IntegerRootError):
            evaluate_sums(parse_polynomial("x^2-4"))
        # before the solve, not only by the oracle
        with pytest.raises(IntegerRootError):
            evaluate_sums(parse_polynomial("x^2-4"), run_oracle=False)
        with pytest.raises(IntegerRootError):
            associated_matrix(gentrig.make_system(parse_polynomial("x^2-4")))

    def test_one_root_check_and_one_exponential_pass(self, monkeypatch):
        # the pass at pi, -pi and 0 serves the R_l weights and the right-hand sides
        checks, points = [], []
        check, exponentials = series._check_roots, gentrig.GenTrigSystem.exponentials
        monkeypatch.setattr(series, "_check_roots", lambda sys: checks.append(sys) or check(sys))
        monkeypatch.setattr(gentrig.GenTrigSystem, "exponentials",
                            lambda sys, x: points.append(x) or exponentials(sys, x))
        evaluate_sums(parse_polynomial("x^3+x^2+1"), run_oracle=False)
        assert len(checks) == 1
        assert len(points) == 1 and list(points[0]) == [math.pi, -math.pi, 0.0]

    def test_one_root_system_for_the_oracle(self, monkeypatch):
        builds = []

        def counting(p):
            builds.append(p)
            return gentrig.make_system(p)

        monkeypatch.setattr(series, "make_system", counting)
        evaluate_sums(parse_polynomial("x^8+1"), oracle_n=MIN_ORACLE_N)
        assert len(builds) == 1  # the closed form's; the oracle needs no roots

    def test_overflow_is_typed(self):
        with pytest.raises(ArgumentOverflowError, match="300j"):
            evaluate_sums(parse_polynomial("x^2+90000"), run_oracle=False)

    def test_one_inverse_per_solve(self, monkeypatch):
        # one LAPACK LU per solve: numpy.linalg.solve once, on [B | I], which
        # gives the inverse behind the estimate; no numpy.linalg.inv
        calls = []

        def counted(name):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *args: calls.append(name) or original(*args))

        counted("inv")
        counted("solve")
        p = parse_polynomial("x^3+x^2+1")
        res = evaluate_sums(p, run_oracle=False)
        assert calls == ["solve"]
        calls.clear()
        am = associated_matrix(gentrig.make_system(p))
        assert calls == ["solve"]
        assert res.condition_estimate == am.condition_estimate

    @pytest.mark.parametrize("factor, singular", [(0.5, False), (1.0, True), (4.0, True)])
    def test_singular_to_working_precision(self, monkeypatch, factor, singular):
        # a C(P) whose estimate is factor / eps exactly: refused, with the
        # estimate in the message, exactly when the estimate times eps reaches 1
        C = np.diag([1.0, 1.0, EPS / factor]) + 0j
        monkeypatch.setattr(series, "_cross_checked_C", lambda sys: C)
        p = parse_polynomial("x^3+x^2+1")
        if singular:
            message = f"working precision (condition estimate {factor / EPS:.3e})"
            with pytest.raises(DegenerateMatrixError, match=re.escape(message)) as exc:
                evaluate_sums(p, run_oracle=False)
            assert exc.value.condition_estimate == factor / EPS
        else:
            assert evaluate_sums(p, run_oracle=False).condition_estimate == factor / EPS

    @pytest.mark.parametrize("case", ["nan", "inf"])
    def test_non_finite_estimates_are_refused(self, monkeypatch, case):
        # subnormal entries give an inverse and an estimate of nan; an exact
        # zero pivot fails LAPACK's LU, the estimate inf.  Both refuse.
        C = {"nan": np.array([[1, 1, 0], [1, 2, 0], [0, 0, 1]]) * 1e-310,
             "inf": np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]])}[case] + 0j
        monkeypatch.setattr(series, "_cross_checked_C", lambda sys: C)
        p = parse_polynomial("x^3+x^2+1")
        with pytest.raises(DegenerateMatrixError, match=f"condition estimate {case}") as exc:
            evaluate_sums(p, run_oracle=False)
        assert str(exc.value.condition_estimate) == case
        assert str(associated_matrix(gentrig.make_system(p)).condition_estimate) == case

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_planted_pivots_are_solved(self, monkeypatch, n):
        # pivots at (1 -+ 1e-6) 1e-13 norm1(C) have cond eps < 1: the sums
        # come back as numpy's solve against the boundary data, bit for bit
        rng = np.random.default_rng(600 + n)
        p = parse_polynomial(f"x^{n}+0.5")  # monic, so the sums are the solve's columns
        solves, rule = [], linalg.solve
        monkeypatch.setattr(linalg, "solve", lambda C, B: solves.append(B) or rule(C, B))
        for k in range(n):
            for scale in (1 - 1e-6, 1 + 1e-6):
                L = np.tril(rng.uniform(-0.3, 0.3, (n, n)), -1) + np.eye(n)
                U = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
                U[np.diag_indices(n)] = 1 + rng.uniform(size=n)
                U[:k + 1, k] = 0
                C = L @ U
                C[:, k] = L[:, k] * (scale * 1e-13 * np.linalg.norm(C, 1))
                monkeypatch.setattr(series, "_cross_checked_C", lambda sys: C)
                res = evaluate_sums(p, run_oracle=False)
                cond = np.linalg.norm(C, 1) * np.linalg.norm(np.linalg.inv(C), 1)
                assert res.condition_estimate == cond and cond * n * 1e-13 > 1 - 1e-6
                assert np.array_equal(np.column_stack([res.A, res.B]), np.linalg.solve(C, solves[-1]))

    def test_oracle_skippable(self):
        res = evaluate_sums(parse_polynomial("x^2+1"), run_oracle=False)
        assert math.isnan(res.oracle_A[0][0].real)
        assert res.A[0] == pytest.approx(math.pi / math.tanh(math.pi), abs=1e-12)


def test_solve_is_the_one_rule_on_the_bench_pools(monkeypatch, bench_polys):
    # every C(P) the closed sums solve in the benchmark's small, large and
    # sums pools: numpy's x and the estimate norm1(C) norm1(inv C), and a
    # refusal carrying that estimate exactly when it times eps reaches 1,
    # which happens once, at degree 24
    rule, solved, refused = linalg.solve, [], []

    def checked(C, B):
        cond = np.linalg.norm(C, 1) * np.linalg.norm(np.linalg.inv(C), 1)
        x, estimate = rule(C, B)
        assert estimate == cond
        if cond * EPS < 1:
            assert np.array_equal(x, np.linalg.solve(C, B))
            solved.append(len(C))
        else:
            refused.append((len(C), cond))
        return x, estimate

    monkeypatch.setattr(linalg, "solve", checked)
    refusals = []
    for p in bench_polys:
        try:
            evaluate_sums(p, run_oracle=False)
        except DegenerateMatrixError as exc:
            refusals.append((p.degree, exc.condition_estimate))
        except (ArithmeticError, SeriesError, ValueError):
            pass  # refused before the solve, as at any commit
    assert refusals == refused and [m for m, _ in refused] == [24]
    assert len(solved) > 0.9 * len(bench_polys)


def test_closed_sums_pass_the_bench_gate_or_are_refused(bench_workloads, bench_polys):
    # every distinct polynomial of the benchmark's small, large and sums pools
    # either passes the gate of its closed_sums operation (the residue formula
    # at np.roots roots) or is refused by the condition estimate, which happens
    # once, at degree 24; a wrong answer here would mark a whole run incorrect
    refused = []
    for p in bench_polys:
        try:
            res = evaluate_sums(p, run_oracle=False)
        except DegenerateMatrixError:
            refused.append(p.degree)
            continue
        bench_workloads.check_closed_sums(bench_workloads.Task("closed_sums", p), res)
    assert refused == [24]


#: numpy's Python-level wrappers; a per-call path uses ``.ndim``,
#: ``np.maximum.reduce``, ``.argmax()``, ``.argmin()``, ``np.rint``,
#: ``np.multiply.accumulate`` and ``.nonzero()[0]`` instead
NUMPY_WRAPPERS = ("ndim", "max", "argmax", "argmin", "round", "cumprod", "flatnonzero")


@pytest.mark.parametrize("p", [parse_polynomial("x^2+1"),
                               _random_poly(np.random.default_rng(3), 3, real=False),
                               _random_poly(np.random.default_rng(12), 12, real=False)],
                         ids=["x^2+1", "degree 3", "degree 12"])
def test_per_call_paths_skip_numpy_wrappers(monkeypatch, p):
    # the system, its certificate and determinant, S, R and Taylor data at a
    # scalar and the closed sums with their oracle reach no wrapper
    reached = []

    def refusing(name):
        def stub(*args, **kwargs):
            reached.append(name)
            raise AssertionError(f"np.{name} reached")
        return stub

    for name in NUMPY_WRAPPERS:
        monkeypatch.setattr(np, name, refusing(name))
    x = 0.3 - 0.2j
    sys = gentrig.make_system(p)
    cert = gentrig.identity_certificate(sys)
    gentrig.eval_det_M(cert, sys, x)
    for l in range(sys.m):
        gentrig.eval_S(sys, l, x)
        eval_R(sys, l, x)
        gentrig.taylor_coeffs(sys, l, 20)
    evaluate_sums(p)
    assert reached == []


def _cross_check_gap(sys):
    """The cross-check's entrywise gap between its two routes to 2 pi i C(P),
    and max |2 pi i C(P)|, recomputed from T and the coefficients."""
    m, T = sys.m, sys.T
    C1 = T @ gentrig.deflation_matrix(sys.poly, sys.r)
    signs = np.append((-1.0) ** np.arange(m - 1, 0, -1), 0.0)
    C2 = np.outer(T.sum(axis=1), sys.poly.coeffs[1:]) - (T @ T[::-1].T) * signs
    return float(np.max(np.abs(C1 - C2))), float(np.max(np.abs(C1)))


def _smallest_pivot(A):
    """min |u_kk| / norm1(A) for the LU of A with partial pivoting by modulus."""
    U, pivots = np.array(A, dtype=complex), []
    for k in range(len(U)):
        p = k + int(np.argmax(np.abs(U[k:, k])))
        U[[k, p]] = U[[p, k]]
        pivots.append(abs(U[k, k]))
        U[k + 1:, k + 1:] -= np.outer(U[k + 1:, k] / U[k, k], U[k, k + 1:])
    return min(pivots) / np.linalg.norm(A, 1)


def test_clustered_sums_are_within_the_condition_bound():
    # degrees 2..12 with roots in pairs 1e-10..1e-1 apart.  Every sum that
    # comes back is within cond (gap / max|C| + m eps) ||x||_1 of the
    # oracle, past its error bar, where gap is the cross-check's gap and
    # ||x||_1 the 1-norm of the sums from the same solve (A or B).  Among
    # them are C(P) with a pivot below 1e-13 norm1(C), which return.
    rng = np.random.default_rng(18)
    ratios, small_pivots = [], 0
    for _ in range(600):
        m = int(rng.integers(2, 13))
        gap = 10 ** rng.uniform(-10, -1)
        centres = rng.uniform(-1, 1, (m + 1) // 2) + 1j * rng.uniform(-1, 1, (m + 1) // 2)
        roots = np.concatenate([centres, centres + gap * np.exp(2j * np.pi * rng.uniform())])[:m]
        p = Polynomial(tuple(complex(c) for c in np.poly(roots)[::-1]))
        try:
            res = evaluate_sums(p)
        except (CrossCheckError, DegenerateMatrixError):
            continue
        sys_ = gentrig.make_system(p)
        gap, size = _cross_check_gap(sys_)
        relative = res.condition_estimate * (gap / size + m * EPS)
        for closed, oracle in ((res.A, res.oracle_A), (res.B, res.oracle_B)):
            norm = sum(map(abs, closed))
            ratios += [(abs(v - estimate) - bar) / (relative * norm)
                       for v, (estimate, bar) in zip(closed, oracle)]
        small_pivots += _smallest_pivot(associated_matrix(sys_).C) < 1e-13
    assert max(ratios) <= 1
    assert max(ratios) > 1e-3  # the bound divided by 1e3 fails
    assert small_pivots

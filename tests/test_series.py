import cmath
import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from polytrig import gentrig, linalg, series
from polytrig.gentrig import ArgumentOverflowError
from polytrig.poly import MAX_DEGREE, Polynomial, RootSet, parse_polynomial
from polytrig.series import (MIN_ORACLE_N, DegenerateMatrixError, IntegerRootError,
                             SeriesError,
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

    def test_smallest_oracle_is_honest(self):
        oracle_a, oracle_b = brute_force_sums(parse_polynomial("x^2+1"), MIN_ORACLE_N)
        est, err = oracle_a[0]
        assert abs(est - math.pi / math.tanh(math.pi)) <= err
        est, err = oracle_b[0]
        assert abs(est - math.pi / math.sinh(math.pi)) <= err


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

    @pytest.mark.parametrize("a", [50, 300])
    def test_large_roots(self, mp, a):
        # sum 1/(n^2+a^2) = (pi/a) coth(pi a), alternating (pi/a)/sinh(pi a); every
        # term is positive, so both are measured against the first, the size of
        # the terms.  The closed form overflows at a = 300, so this goes through
        # brute_force_sums.
        oracle_a, oracle_b = brute_force_sums(parse_polynomial(f"x^2+{a * a}"), MIN_ORACLE_N)
        ref_a = mp.pi / a / mp.tanh(mp.pi * a)
        ref_b = mp.pi / a / mp.sinh(mp.pi * a)
        for (est, err), ref in ((oracle_a[0], ref_a), (oracle_b[0], ref_b)):
            assert abs(est - complex(ref)) <= 1e-14 * ref_a
            assert abs(est - complex(ref)) <= err


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

    def test_integer_root_rejected(self):
        with pytest.raises(IntegerRootError):
            evaluate_sums(parse_polynomial("x^2-4"))

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

    def test_one_pivot_check_and_inverse(self, monkeypatch):
        # one inverse per solve; the pivot check only where the condition
        # estimate allows a pivot below its threshold
        calls = []

        def counted(name):
            original = getattr(linalg, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)
            return wrapper

        for name in ("_check_pivots", "_condition"):
            monkeypatch.setattr(linalg, name, counted(name))
        p = parse_polynomial("x^3+x^2+1")
        res = evaluate_sums(p, run_oracle=False)
        assert calls == ["_condition"]
        calls.clear()
        am = associated_matrix(gentrig.make_system(p))
        assert calls == ["_condition"]
        assert res.condition_estimate == am.condition_estimate
        calls.clear()
        ill = np.diag([1.0, 1.0, 1e-13]) + 0j  # cond 1e13 > 1/(2 n rtol)
        linalg.solve(ill, np.ones(3))
        assert calls == ["_condition", "_check_pivots"]

    @pytest.mark.parametrize("factor, singular", [(0.5, False), (1.0, True), (4.0, True)])
    def test_singular_to_working_precision(self, monkeypatch, factor, singular):
        original = linalg.solve

        def conditioned(M, b):
            x, _ = original(M, b)
            return x, factor / np.finfo(float).eps

        monkeypatch.setattr(linalg, "solve", conditioned)
        p = parse_polynomial("x^3+x^2+1")
        if singular:
            with pytest.raises(DegenerateMatrixError, match="working precision"):
                evaluate_sums(p, run_oracle=False)
        else:
            assert evaluate_sums(p, run_oracle=False).condition_estimate == factor / np.finfo(float).eps

    def test_oracle_skippable(self):
        res = evaluate_sums(parse_polynomial("x^2+1"), run_oracle=False)
        assert math.isnan(res.oracle_A[0][0].real)
        assert res.A[0] == pytest.approx(math.pi / math.tanh(math.pi), abs=1e-12)


def _bench_workloads(monkeypatch):
    """The benchmark's pool builder, bench/workloads.py, loaded by its path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_screened_solve_is_the_pivot_first_solve_on_the_bench_pools(monkeypatch):
    # every C(P) the closed sums solve in the benchmark's small, large and
    # sums pools: the same x and condition estimate, or the same refusal,
    # as with the pivot check run before every solve
    workloads = _bench_workloads(monkeypatch)
    screened, seen = linalg.solve, []

    def both(M, b):
        A = np.array(M)
        try:
            linalg._check_pivots(linalg._as_matrix(A))
        except linalg.SingularMatrixError as exc:
            with pytest.raises(linalg.SingularMatrixError) as got:
                screened(A, b)
            assert got.value.pivot_index == exc.pivot_index
            seen.append(None)
            raise
        x, cond = screened(A, b)
        assert np.array_equal(x, np.linalg.solve(A, b))
        assert cond == linalg._condition(A)
        seen.append(cond)
        return x, cond

    monkeypatch.setattr(linalg, "solve", both)
    polys = {}
    for name in ("small", "large", "sums"):
        for task in workloads.pool(name, 0):
            polys[task.poly.coeffs] = task.poly
    for p in polys.values():
        try:
            evaluate_sums(p, run_oracle=False)
        except (ArithmeticError, SeriesError, ValueError):
            pass  # refused before or after the solve, as at any commit
    assert len(seen) > 0.9 * len(polys)

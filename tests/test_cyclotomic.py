import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from polytrig import cyclotomic, gentrig
from polytrig.cyclotomic import (CyclotomicError, addition_rule,
                                 apply_addition, det_M_constant,
                                 det_M_cyclo, eval_S_cyclo,
                                 factorial_identity_check, make_cyclotomic,
                                 matrix_A, rescale_consistency,
                                 taylor_eval_cyclo)
from polytrig.gentrig import ArgumentOverflowError, identity_certificate
from polytrig.poly import Polynomial

EPS = np.finfo(float).eps


def test_m2_is_cos_sin():
    sys = make_cyclotomic(2)
    for x in (0.0, 0.7, -2.1, 1.3):
        assert eval_S_cyclo(sys, 0, x) == pytest.approx(math.cos(x), abs=1e-14)
        assert eval_S_cyclo(sys, 1, x) == pytest.approx(math.sin(x), abs=1e-14)


def test_m1_is_exp():
    sys = make_cyclotomic(1)
    assert eval_S_cyclo(sys, 0, 0.6) == pytest.approx(cmath.exp(-0.6), abs=1e-14)


def test_value_at_zero_is_kronecker():
    for m in range(1, 8):
        sys = make_cyclotomic(m)
        for l in range(m):
            want = 1.0 if l == 0 else 0.0
            assert eval_S_cyclo(sys, l, 0.0) == pytest.approx(want, abs=1e-13)


def test_real_up_to_phase_on_real_arguments():
    # the power series of zeta^l * S_l has real coefficients
    for m in (3, 4, 5):
        sys = make_cyclotomic(m)
        for x in (-1.7, 0.3, 2.4):
            for l in range(m):
                assert abs((sys.zeta ** l * eval_S_cyclo(sys, l, x)).imag) < 1e-12


def test_array_argument_matches_scalar_calls():
    sys = make_cyclotomic(5)
    xs = np.array([[0.3, -1.2 + 0.4j], [2j, 0.0]])
    for l in range(5):
        rule = addition_rule(5, l)
        routes = ((lambda x: eval_S_cyclo(sys, l, x)),
                  (lambda x: taylor_eval_cyclo(sys, l, x, 30)),
                  (lambda x: apply_addition(sys, rule, x, 0.5 - x)))
        for route in routes:
            values = route(xs)
            assert values.shape == xs.shape
            for x, v in zip(xs.ravel(), values.ravel()):
                scalar = route(x)
                assert isinstance(scalar, complex)
                assert v == pytest.approx(scalar, abs=1e-14)


def test_systems_compare_and_hash_by_identity():
    # each system keeps its own memo slots, so two builds are two systems
    a, b = make_cyclotomic(3), make_cyclotomic(3)
    assert a == a and a != b and len({a, b, a}) == 2


def test_overflow_uses_the_shared_guard():
    with pytest.raises(ArgumentOverflowError, match=r"beyond \+-700\)$"):
        eval_S_cyclo(make_cyclotomic(2), 0, 701j)


def test_index_validation():
    sys = make_cyclotomic(3)
    with pytest.raises(CyclotomicError):
        eval_S_cyclo(sys, 3, 0.0)
    with pytest.raises(CyclotomicError):
        make_cyclotomic(0)


@pytest.mark.parametrize("l", [True, np.True_, 1.5, 1.0, None, -1, 3],
                         ids=["True", "np.True_", "1.5", "1.0", "None", "-1", "3"])
@pytest.mark.parametrize("evaluate", ["eval_S_cyclo", "taylor_eval_cyclo", "addition_rule"])
def test_index_must_be_an_integer_in_range(l, evaluate):
    sys = make_cyclotomic(3)
    call = {
        "eval_S_cyclo": lambda: eval_S_cyclo(sys, l, 0.5),
        "taylor_eval_cyclo": lambda: taylor_eval_cyclo(sys, l, 0.5, 5),
        "addition_rule": lambda: addition_rule(3, l),
    }[evaluate]
    with pytest.raises(CyclotomicError, match="function index"):
        call()


@pytest.mark.parametrize("m", [2.5, 3.0, True, None, 0, -1, 25],
                         ids=["2.5", "3.0", "True", "None", "0", "-1", "25"])
def test_order_must_be_an_integer_in_1_to_24(m):
    # the T grid is m by m, so an uncapped order could allocate without bound
    with pytest.raises(CyclotomicError, match="order m"):
        make_cyclotomic(m)


@pytest.mark.parametrize("m", [True, 2.5, 0, 25], ids=["True", "2.5", "0", "25"])
@pytest.mark.parametrize("call", ["addition_rule", "det_M_constant"])
def test_every_order_goes_through_one_check(m, call):
    evaluate = {"addition_rule": lambda: addition_rule(m, 0),
                "det_M_constant": lambda: det_M_constant(m)}[call]
    with pytest.raises(CyclotomicError, match="order m"):
        evaluate()


def test_order_types_are_accepted_like_int():
    assert addition_rule(np.int64(4), 2) == addition_rule(4, 2)
    assert type(addition_rule(np.int64(4), 2).m) is int
    assert det_M_constant(np.int64(24)) == det_M_constant(24) == 1
    assert det_M_constant(1) == 1


def test_order_cap_is_inclusive():
    assert make_cyclotomic(np.int64(24)).m == 24
    assert eval_S_cyclo(make_cyclotomic(24), 0, 0.0) == pytest.approx(1.0, abs=1e-13)


def test_integer_types_index_like_int():
    sys = make_cyclotomic(3)
    for l in range(3):
        assert eval_S_cyclo(sys, np.int64(l), 0.5) == eval_S_cyclo(sys, l, 0.5)
        assert taylor_eval_cyclo(sys, np.int32(l), 0.5, 5) == taylor_eval_cyclo(sys, l, 0.5, 5)
        assert addition_rule(3, np.int64(l)) == addition_rule(3, l)


def test_taylor_matches_direct():
    for m in range(1, 6):
        sys = make_cyclotomic(m)
        terms = 170 // m
        for l in range(m):
            for x in (0.5, -1.4, 1.1):
                assert taylor_eval_cyclo(sys, l, x, terms) == pytest.approx(
                    eval_S_cyclo(sys, l, x), abs=1e-12)


def test_taylor_term_cap():
    with pytest.raises(CyclotomicError):
        taylor_eval_cyclo(make_cyclotomic(4), 0, 0.1, 60)


@pytest.mark.parametrize("terms", [-1, 2.5, 3.0, True, None],
                         ids=["-1", "2.5", "3.0", "True", "None"])
def test_taylor_term_count_must_be_a_non_negative_integer(terms):
    with pytest.raises(CyclotomicError, match="term count"):
        taylor_eval_cyclo(make_cyclotomic(3), 1, 0.4, terms)


def test_taylor_term_count_types():
    sys = make_cyclotomic(3)
    assert taylor_eval_cyclo(sys, 1, 0.4, 0) == 0
    assert taylor_eval_cyclo(sys, 1, 0.4, np.int64(6)) == taylor_eval_cyclo(sys, 1, 0.4, 6)


def test_rescale_consistency():
    for m in range(1, 7):
        sys = make_cyclotomic(m)
        for l in range(m):
            for x in (0.4, -0.9 + 0.3j):
                lhs, rhs = rescale_consistency(sys, l, x)
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestAddition:
    def test_sign_rule(self):
        rule = addition_rule(4, 2)
        assert rule.signs == (1, 1, 1, -1)
        assert rule.partners == (2, 1, 0, 3)

    def test_m2_reduces_to_trig_laws(self):
        sys = make_cyclotomic(2)
        x1, x2 = 0.8, -0.35
        cos_rule = addition_rule(2, 0)
        sin_rule = addition_rule(2, 1)
        assert apply_addition(sys, cos_rule, x1, x2) == pytest.approx(
            math.cos(x1) * math.cos(x2) - math.sin(x1) * math.sin(x2), abs=1e-13)
        assert apply_addition(sys, sin_rule, x1, x2) == pytest.approx(
            math.sin(x1) * math.cos(x2) + math.cos(x1) * math.sin(x2), abs=1e-13)

    def test_random_points(self):
        rng = np.random.default_rng(31)
        for m in range(2, 7):
            sys = make_cyclotomic(m)
            for _ in range(5):
                x1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                x2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for l in range(m):
                    rule = addition_rule(m, l)
                    assert apply_addition(sys, rule, x1, x2) == pytest.approx(
                        eval_S_cyclo(sys, l, x1 + x2), abs=1e-11)

    def test_order_mismatch(self):
        with pytest.raises(CyclotomicError):
            apply_addition(make_cyclotomic(3), addition_rule(4, 0), 0.1, 0.2)


def test_values_against_a_40_digit_sum():
    # the defining sum S_l(x) = sum_j zeta^(l j) / (m eta^l) exp(eta zeta^j x);
    # m rounded terms of size |exp| / m each are off by about m eps of their sum
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(33)
    points = [0.7, -1.3 + 0.4j, 2j, 2.5 - 1j] + list(rng.uniform(-3, 3, 4) + 1j * rng.uniform(-3, 3, 4))
    worst = 0.0
    with mpmath.workdps(40):
        for m in range(1, 25):
            sys = make_cyclotomic(m)
            zeta, eta = mpmath.exp(2j * mpmath.pi / m), mpmath.exp(1j * mpmath.pi / m)
            unit = [zeta ** j for j in range(m)]
            for x in map(complex, points):
                e = [mpmath.exp(eta * u * mpmath.mpc(x.real, x.imag)) for u in unit]
                bound = 10 * m * EPS * float(mpmath.fsum(abs(v) for v in e)) / m
                for l in range(m):
                    ref = mpmath.fsum(unit[l * j % m] * v for j, v in enumerate(e)) / (m * eta ** l)
                    got = eval_S_cyclo(sys, l, x)
                    gap = float(abs(mpmath.mpc(got.real, got.imag) - ref))
                    assert gap <= bound, (m, l, x, gap, bound)
                    worst = max(worst, gap / bound)
    assert worst > 1e-2, "the bound over 100 holds everywhere: too loose to see a change"


class TestBinomialCertificate:
    @staticmethod
    def constant_holds(det_ref, constant, m):
        """det_ref / m^m against det_M_constant(m), within 1e3 m eps."""
        return abs(det_ref / m ** m - constant) <= 1e3 * m * EPS

    @pytest.mark.parametrize("m", range(2, 25))
    def test_det_ref_over_m_to_the_m_is_the_constant(self, m):
        # L = e_0 and lam = -1 make the certificate's f_l exactly m zeta^l S_l
        cert = identity_certificate(make_cyclotomic(m))
        assert cert.lam == -1 and cert.eigen_residual == 0
        assert np.array_equal(cert.L, np.eye(m)[0])
        constant = det_M_constant(m)
        assert self.constant_holds(cert.det_ref, constant, m)
        assert not self.constant_holds(cert.det_ref * (1 + 1e-9), constant, m)
        assert not self.constant_holds(cert.det_ref, constant * (1 + 1e-9), m)

    def test_built_in_closed_form(self, monkeypatch):
        # no deflation grid and no polynomial rebuilt from floating roots
        monkeypatch.setattr(gentrig, "tuple_coefficients", lambda *args: pytest.fail("deflation grid"))
        monkeypatch.setattr(Polynomial, "from_roots", classmethod(lambda *args: pytest.fail("from_roots")))
        for m in (1, 2, 7, 24):
            assert make_cyclotomic(m).T.shape == cyclotomic._unit_system.__wrapped__(m).T.shape == (m, m)

    @pytest.mark.parametrize("m", range(2, 25))
    def test_unit_system_takes_the_exact_branch(self, m):
        # x^m - 1 from its closed-form grid keeps a_1 .. a_(m-1) exactly zero
        sys = cyclotomic._unit_system(m)
        assert sys.poly.coeffs == (-1,) + (0,) * (m - 1) + (1,)
        cert = identity_certificate(sys)
        assert cert.lam == (1, -1j, -1, 1j)[m % 4]
        assert cert.eigen_residual == 0
        assert np.array_equal(cert.L, np.eye(m)[0])


class TestDeterminant:
    def test_constant_values(self):
        assert [det_M_constant(m) for m in range(1, 8)] == [1, -1, -1, 1, 1, -1, -1]

    def test_constant_in_x(self):
        rng = np.random.default_rng(32)
        for m in range(2, 7):
            sys = make_cyclotomic(m)
            c = det_M_constant(m)
            for _ in range(8):
                x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                assert det_M_cyclo(sys, x) == pytest.approx(c, abs=1e-9)

    def test_m1_is_refused(self):
        # M(x) = [[exp(-x)]]: no wrap, so no constant determinant
        with pytest.raises(CyclotomicError, match="at least 2"):
            det_M_cyclo(make_cyclotomic(1), 0.5)
        assert cyclotomic.matrix_A(make_cyclotomic(1))[0].shape == (1, 1)

    def test_m3_cubic_relation(self):
        # expanded form of the m = 3 determinant
        sys = make_cyclotomic(3)
        for x in (-2.0, 0.1, 1.7):
            s0, s1, s2 = (eval_S_cyclo(sys, l, x) for l in range(3))
            assert -s0 ** 3 + s1 ** 3 - s2 ** 3 - 3 * s0 * s1 * s2 == pytest.approx(
                -1, abs=1e-11)


class TestFactorialIdentity:
    def test_small_case_by_hand(self):
        # n = 3: same-residue triples are the permutations of (0,0,3) plus (1,1,1)
        sum_a, sum_b, holds = factorial_identity_check(3)
        assert sum_a == Fraction(3, 6) + Fraction(1, 1)
        assert holds
        assert sum_a == 3 * sum_b

    def test_range(self):
        for n in range(3, 31, 3):
            *_, holds = factorial_identity_check(n)
            assert holds

    @staticmethod
    def fraction_sums(n, bent=None):
        """The sums as one Fraction per term; ``bent`` adds 1 to that
        triple's denominator."""
        sum_a = sum_b = Fraction(0)
        for k1 in range(n + 1):
            for k2 in range(n - k1 + 1):
                k3 = n - k1 - k2
                residues = {k1 % 3, k2 % 3, k3 % 3}
                term = Fraction(1, math.factorial(k1) * math.factorial(k2) * math.factorial(k3)
                                + ((k1, k2, k3) == bent))
                if len(residues) == 1:
                    sum_a += term
                elif len(residues) == 3:
                    sum_b += term
        return sum_a, sum_b / 6

    def test_integer_multinomials_are_the_fraction_sums(self):
        for n in range(3, 61, 3):
            sum_a, sum_b, holds = factorial_identity_check(n)
            assert (sum_a, sum_b) == self.fraction_sums(n)
            assert type(sum_a) is Fraction and type(sum_b) is Fraction
            assert holds is True

    @pytest.mark.parametrize("bent", [(0, 0, 6), (2, 0, 1), (3, 1, 2)])
    def test_a_mutated_term_fails(self, bent):
        sum_a, sum_b = self.fraction_sums(sum(bent), bent)
        assert (sum_a, sum_b) != factorial_identity_check(sum(bent))[:2]
        assert sum_a != 3 * sum_b

    def test_rejects_bad_n(self):
        for n in (4, 123, -3, 3.0, True, None):
            with pytest.raises(CyclotomicError):
                factorial_identity_check(n)


def jump(sys, l):
    """S_l(pi) - S_l(-pi), the boundary jump that matrix_A is built from."""
    return eval_S_cyclo(sys, l, math.pi) - eval_S_cyclo(sys, l, -math.pi)


class TestBoundaryJump:
    def test_order_above_12_is_refused(self):
        with pytest.raises(CyclotomicError, match=r"order m = 13 is above the supported 12$"):
            matrix_A(make_cyclotomic(13))

    def test_delta_m2(self):
        sys = make_cyclotomic(2)
        assert jump(sys, 0) == pytest.approx(0.0, abs=1e-13)  # cos is periodic
        assert jump(sys, 1) == pytest.approx(2 * math.sin(math.pi), abs=1e-13)

    def test_matrix_matches_the_defining_loop(self):
        for m in range(1, 9):
            sys = make_cyclotomic(m)
            eta = sys.eta
            d = [jump(sys, l) for l in range(m)]
            A = np.empty((m, m), dtype=complex)
            for l in range(m):
                for k in range(m):
                    idx = (m - 1 - k + l) % m
                    J_lk = eta ** (m - 1 - k - l + idx) * d[idx]
                    A[l, k] = ((-1) ** (k + 1)) * J_lk * (1j) ** (k + m * (k % 2))
            got, _, _ = matrix_A(sys)
            assert np.max(np.abs(got - A)) <= 1e-12 * np.max(np.abs(A))

    def test_determinant_routes_agree(self):
        for m in (1, 3, 4, 5, 7, 8):
            sys = make_cyclotomic(m)
            _, det, fact = matrix_A(sys)
            assert abs(det) == pytest.approx(fact, rel=1e-8)
            assert abs(det) > 1e-6

    def test_singular_orders(self):
        # a sinh factor vanishes exactly when the order is 2 mod 4, so both
        # routes sit at the roundoff floor m eps (sqrt(m) tau_m)^m of the
        # terms e^(+-pi w_j), w_j = eta zeta^j, of mean size tau_m
        for m in (2, 6):
            sys = make_cyclotomic(m)
            _, det, fact = matrix_A(sys)
            tau = sum(2 * math.cosh(math.pi * (sys.eta * sys.zeta ** j).real)
                      for j in range(m)) / m
            bound = m * np.finfo(float).eps * (math.sqrt(m) * tau) ** m
            assert abs(det) <= bound
            assert fact <= bound

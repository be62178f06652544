import itertools

import numpy as np
import pytest

from polytrig.gentrig import from_roots, identity_certificate, make_system
from polytrig.linalg import solve
from polytrig.poly import Polynomial

EPS = np.finfo(float).eps


def norm1(A):
    return np.linalg.norm(A, 1)


def test_solve_roundtrip_and_condition():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
    x, cond = solve(A, b)
    assert np.max(np.abs(A @ x - b)) < 1e-12 * cond
    assert cond >= 1.0


def test_solve_identity_condition_is_one():
    x, cond = solve(np.eye(3) + 0j, np.ones((3, 1)))
    assert cond == 1.0 and np.array_equal(x, np.ones((3, 1)))


def test_singular_matrix_carries_the_estimate():
    # diag(1, eps/2) has the estimate 2/eps exactly, with or without a
    # right-hand side; series refuses it (estimate times eps is 2)
    M = np.diag([1, EPS / 2]) + 0j
    assert solve(M, np.ones((2, 1)))[1] == 2 / EPS == solve(M)[1]
    # subnormal entries: the inverse holds nan, and so does the estimate
    tiny = np.array([[1, 1], [1, 2]]) * 1e-310 + 0j
    assert np.isnan(solve(tiny, np.ones((2, 1)))[1]) and np.isnan(solve(tiny)[1])


def test_shape_validation():
    # no check of its own: numpy refuses a mismatched right-hand side, and a
    # non-finite matrix gives an estimate that no rule accepts
    with pytest.raises(ValueError):
        solve(np.eye(2) + 0j, np.zeros((3, 1)))
    for bad in (np.inf, np.nan):
        _, cond = solve(np.array([[bad, 0], [0, 1]], dtype=complex))
        assert not cond * EPS < 1


def test_solve_several_right_hand_sides():
    # the columns of one solve are the solves of each column, bit for bit,
    # and the estimate does not depend on the right-hand side
    rng = np.random.default_rng(7)
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    B = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    X, cond = solve(A, B)
    assert X.shape == (5, 2) and solve(A)[0].shape == (5, 0)
    for j in range(2):
        x, c = solve(A, B[:, j:j + 1])
        assert np.array_equal(X[:, j:j + 1], x)
        assert c == cond == solve(A)[1]


# ---- the estimate behind the one refusal rule ----
# solve returns numpy's x and cond = norm1(A) norm1(inv A), inf where LAPACK
# finds an exact zero pivot; series.evaluate_sums refuses exactly when cond
# eps is not below 1 (tests/test_series.py).  The inputs sit around a pivot
# of 1e-13 norm1(A), the smallest pivot a partial-pivot LU test would
# accept, and around cond eps = 1: the estimate alone decides on both.

#: the pivot size, relative to norm1(A), that the planted inputs straddle
PLANTED_RTOL = 1e-13


def one_rule(A, b):
    """The reference: ``(None, cond)`` for a refusal, else
    ``(np.linalg.solve(A, b), cond)``, in complex arithmetic."""
    A = np.asarray(A, dtype=complex)
    try:
        cond = np.linalg.norm(A, 1) * np.linalg.norm(np.linalg.inv(A), 1)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not cond * EPS < 1:
        return None, cond
    return np.linalg.solve(A, b), cond


def same(a, b):
    """Equal, nan included."""
    return a == b or (a != a and b != b)


def near_singular(rng, n):
    """Seeded matrices around the refusal: graded singular values, rank
    deficiency plus noise, one planted small pivot, and a scaled permutation
    at cond eps = 0.75 and 1.5, either side of the threshold."""
    def unitary():
        return np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]

    for top in (8, 11, 12, 13, 14, 15, 17):
        yield unitary() @ np.diag(np.logspace(0, -top, n)) @ unitary()
    for noise in (1e-16, 1e-14, 1e-12):
        B = rng.normal(size=(n, n - 1)) @ rng.normal(size=(n - 1, n))
        yield B + noise * rng.normal(size=(n, n))
    for scale in (0.5, 2.0):
        yield planted_pivot(rng, n, int(rng.integers(n)), scale)
    for c in (0.75, 1.5):
        diagonal = np.append(np.ones(n - 1), EPS / c) * np.exp(2j * np.pi * rng.uniform(size=n))
        yield np.diag(diagonal)[rng.permutation(n)]


def planted_pivot(rng, n, k, scale):
    """L U with no row swaps under partial pivoting and pivot k at exactly
    ``scale`` times ``PLANTED_RTOL * norm1``.

    Column k of U is zero above the pivot, so column k of L U is the pivot
    times column k of L, which no elimination step before k touches, and
    no other column of L U depends on the pivot.
    """
    L = np.tril(rng.uniform(-0.3, 0.3, (n, n)), -1) + np.eye(n)
    U = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
    U[np.diag_indices(n)] = 1 + rng.uniform(size=n)
    U[:k + 1, k] = 0
    A = L @ U
    A[:, k] = L[:, k] * (scale * PLANTED_RTOL * norm1(A))
    return A


def check_one_rule(A, b):
    """solve against :func:`one_rule`: the same estimate with or without
    ``b``, and numpy's x where the rule accepts; True for a refusal."""
    want, cond = one_rule(A, b)
    A = np.asarray(A, dtype=complex)
    x, estimate = solve(A, b[:, None])
    assert same(estimate, cond) and same(solve(A)[1], cond)
    if want is None:
        return True
    assert np.array_equal(x[:, 0], want)
    return False


@pytest.mark.parametrize("n", range(2, 25))
def test_pivot_screen_is_sound(n):
    # a refusal exactly when cond eps >= 1, else numpy's x and the estimate,
    # on matrices with pivots near 1e-13 norm1 and cond eps near 1
    rng = np.random.default_rng(400 + n)
    outcomes = [check_one_rule(A, rng.normal(size=n) + 0j) for A in near_singular(rng, n)]
    assert outcomes[-2:] == [False, True]  # cond eps = 0.75 returns, 1.5 refuses
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("n", [2, 5, 12, 24])
def test_pivot_just_under_the_threshold(n):
    # a pivot just under or over 1e-13 norm1 decides nothing: both have
    # cond eps < 1 and return numpy's x
    rng = np.random.default_rng(500 + n)
    for k in (0, n // 2, n - 1):
        for scale in (1 - 1e-6, 1 + 1e-6):
            A = planted_pivot(rng, n, k, scale)
            assert not check_one_rule(A, np.ones(n) + 0j)
            assert solve(A)[1] * n * PLANTED_RTOL > 1 - 1e-6  # the pivot shows


def test_solve_is_numpy_on_the_stacked_identity():
    # X and the estimate equal numpy.linalg.solve(A, [B | I]) and
    # np.linalg.norm(., 1) bit for bit, with and without B, B real or complex
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 24):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for B in (None, rng.normal(size=(n, 2)), rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))):
            eye = np.eye(n, dtype=complex)
            Y = np.linalg.solve(A, eye if B is None else np.hstack([B, eye]))
            k = Y.shape[1] - n
            X, cond = solve(A, B)
            assert X.tobytes() == Y[:, :k].tobytes() and X.shape == Y[:, :k].shape
            assert cond == float(norm1(A) * norm1(Y[:, k:]))


def test_failed_inverse_is_an_infinite_estimate(monkeypatch):
    # LAPACK's one LU fails on an exact zero pivot: no x, and the estimate
    # inf, which series refuses
    singular = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=complex)
    assert solve(singular, np.zeros((3, 1)) + 0j) == (None, np.inf)
    assert solve(singular) == (None, np.inf)

    def failing(*args):
        raise np.linalg.LinAlgError("LAPACK failure")

    monkeypatch.setattr(np.linalg, "solve", failing)
    assert solve(np.array([[1, 2], [3, 4]], dtype=complex), np.ones((2, 1))) == (None, np.inf)


# ---- certificate eigenpairs ----
# linalg solves no eigenproblem: a certificate's eigenpair of K^m comes from
# the roots (gentrig.identity_certificate).  np.linalg.eig is the reference.

def eigenpairs_loop(M):
    """Test-only reference: (eigenvalue, condition) per eigenvalue of M from
    np.linalg.eig, the condition being |x| |y| / |y^H x| for its right and
    left eigenvectors."""
    values, X = np.linalg.eig(M)
    Y = np.linalg.inv(X)  # row k: the left eigenvector with Y[k] @ X[:, k] == 1
    return [(complex(v), float(np.linalg.norm(X[:, k]) * np.linalg.norm(Y[k])))
            for k, v in enumerate(values)]


def rate_residual(L, K, mu, c=8):
    """Componentwise |L K - mu L| over c m eps (|L| |K| + |mu| |L|).

    Column 1 of L K - mu L is i r^(1-m) P(r) for the root r = i mu, so there
    the ratio is the root's backward error, at most 4 m eps from the root
    finder; every other column is roundoff alone.
    """
    m = len(L)
    scale = np.abs(L) @ np.abs(K) + abs(mu) * np.abs(L)
    return float(np.max(np.abs(L @ K - mu * L) / (c * m * EPS * scale)))


def random_systems(rng, n):
    """Systems of P from random roots in the unit square, found again by the
    root finder, plus an even P (roots r and -r) at even degrees from 4."""
    draws = [rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n) for _ in range(3)]
    if n % 2 == 0 and n >= 4:
        half = rng.uniform(-1, 1, n // 2) + 1j * rng.uniform(-1, 1, n // 2)
        draws.append(np.concatenate([half, -half]))
    return [make_system(Polynomial.from_roots(tuple(r))) for r in draws]


@pytest.mark.parametrize("n", range(2, 25))
def test_eigenpairs_match_the_loop(n):
    for sys in random_systems(np.random.default_rng(100 + n), n):
        cert = identity_certificate(sys)
        j = int(np.argmin(np.abs(sys.minus_ir ** n - cert.lam)))
        mu = sys.minus_ir[j]
        assert cert.lam == (sys.minus_ir ** n)[j]
        # L is a left eigenvector of K for the rate mu, so of K^m for lam
        assert rate_residual(cert.L, sys.K, mu) <= 1
        for q in range(n):
            bent = cert.L.copy()
            bent[q] *= 1 + 1e-9
            assert rate_residual(bent, sys.K, mu) > 1, q
        # lam is the largest eigenvalue LAPACK finds in K^m, to its accuracy
        Km = np.linalg.matrix_power(sys.K, n)
        reference = eigenpairs_loop(Km)
        accuracy = [10 * n * EPS * norm1(Km) * kappa for _, kappa in reference]
        gaps = [abs(v - cert.lam) for v, _ in reference]
        k = int(np.argmin(gaps))
        assert gaps[k] <= accuracy[k]
        assert all(abs(v) <= abs(cert.lam) + a + accuracy[k] for (v, _), a in zip(reference, accuracy))


def test_eigenpairs_residuals():
    # eigen_residual is L's own residual max|L K - mu L| against K for its
    # rate mu, within the componentwise bound of rate_residual
    rng = np.random.default_rng(11)
    for n in (2, 3, 6, 12, 18, 24):
        for sys in random_systems(rng, n):
            cert = identity_certificate(sys)
            j = int(np.argmin(np.abs(sys.minus_ir ** n - cert.lam)))
            mu = sys.minus_ir[j]
            assert cert.eigen_residual == np.max(np.abs(cert.L @ sys.K - mu * cert.L))
            assert rate_residual(cert.L, sys.K, mu) <= 1
            assert np.max(np.abs(cert.L)) == pytest.approx(1.0)


def test_eigenpairs_sum_matches_trace():
    # the root-built spectrum (-i r)^k is the spectrum of K^k: its sums are
    # the traces, for every power up to m
    rng = np.random.default_rng(13)
    for n in (2, 5, 9, 16, 24):
        roots = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        sys = from_roots(roots)
        power = np.eye(n, dtype=complex)
        for k in range(1, n + 1):
            power = power @ sys.K
            terms = sys.minus_ir ** k
            assert abs(terms.sum() - np.trace(power)) <= 100 * n * EPS * (
                np.sum(np.abs(terms)) + norm1(power))


def test_eigenpairs_scalar_matrix():
    # P = x^m - c: K^m is (-i)^m c I exactly, so the certificate takes
    # L = e_0 and lam = (-i)^m c with no residual
    for m, c in itertools.product((2, 3, 7, 24), (1, -2, 0.5j)):
        sys = make_system(Polynomial((-c,) + (0,) * (m - 1) + (1,)))
        cert = identity_certificate(sys)
        assert np.array_equal(cert.L, np.eye(m)[0])
        assert cert.lam == (-1j) ** m * c
        assert cert.eigen_residual == 0.0

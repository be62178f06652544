import itertools

import numpy as np
import pytest

from polytrig import linalg
from polytrig.gentrig import from_roots, identity_certificate, make_system
from polytrig.linalg import LinalgError, SingularMatrixError, determinant, solve
from polytrig.poly import Polynomial

EPS = np.finfo(float).eps


def test_determinant_2x2():
    assert determinant([[1, 2], [3, 4]]) == pytest.approx(-2)


def test_determinant_known_31():
    # the resolvent-style matrix whose determinant drives the cubic sums
    M = np.array([[3, 2, 0], [-1, 0, -3], [0, 3, 2]], dtype=complex)
    assert determinant(M) == pytest.approx(31)


def test_determinant_product_property():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lhs = determinant(A @ B)
        rhs = determinant(A) * determinant(B)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_determinant_singular_near_zero():
    M = np.array([[1, 2], [2, 4]], dtype=complex)
    assert abs(determinant(M)) < 1e-14


def test_solve_roundtrip_and_condition():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=4) + 1j * rng.normal(size=4)
    x, cond = solve(A, b)
    assert np.max(np.abs(A @ x - b)) < 1e-12 * cond
    assert cond >= 1.0


def test_solve_identity_condition_is_one():
    _, cond = solve(np.eye(3), np.ones(3))
    assert cond == pytest.approx(1.0)


def test_singular_matrix_pivot_index():
    M = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=complex)
    with pytest.raises(SingularMatrixError) as exc:
        solve(M, np.zeros(3))
    assert exc.value.pivot_index == 2


def test_shape_validation():
    with pytest.raises(LinalgError):
        determinant([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(LinalgError):
        solve(np.eye(2), np.zeros(3))
    with pytest.raises(LinalgError):
        determinant([[np.inf, 0], [0, 1]])


@pytest.mark.parametrize("name,call", [
    ("det", lambda: determinant([[1, 2], [3, 4]])),
    ("solve", lambda: solve([[1, 2], [3, 4]], [1, 1])),
    ("inv", lambda: linalg.condition_number([[1, 2], [3, 4]])),
])
def test_lapack_failure_is_linalg_error(monkeypatch, name, call):
    def failing(*args):
        raise np.linalg.LinAlgError("LAPACK failure")

    monkeypatch.setattr(np.linalg, name, failing)
    with pytest.raises(LinalgError, match="LAPACK failure"):
        call()


def test_solve_several_right_hand_sides():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    B = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    X, cond = solve(A, B)
    for j in range(2):
        x, c = solve(A, B[:, j])
        assert np.max(np.abs(X[:, j] - x)) <= 1e-12 * cond * np.max(np.abs(x))
        assert c == cond


# ---- the pivot screen ----

def solve_pivots_first(M, b):
    """The reference solve: the pivot check always, then LAPACK."""
    A = linalg._as_matrix(M)
    linalg._check_pivots(A)
    return np.linalg.solve(A, np.asarray(b, dtype=complex)), linalg._condition(A)


def near_singular(rng, n):
    """Seeded matrices around the pivot threshold: graded singular values,
    rank deficiency plus noise, and one planted small pivot."""
    def unitary():
        return np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]

    for top in (8, 11, 12, 13, 14, 15, 17):
        yield unitary() @ np.diag(np.logspace(0, -top, n)) @ unitary()
    for noise in (1e-16, 1e-14, 1e-12):
        B = rng.normal(size=(n, n - 1)) @ rng.normal(size=(n - 1, n))
        yield B + noise * rng.normal(size=(n, n))
    for scale in (0.5, 2.0):
        yield planted_pivot(rng, n, int(rng.integers(n)), scale)


def planted_pivot(rng, n, k, scale):
    """L U with no row swaps under partial pivoting and pivot k at exactly
    ``scale`` times the threshold ``PIVOT_RTOL * norm1``.

    Column k of U is zero above the pivot, so column k of L U is the pivot
    times column k of L, which no elimination step before k touches, and
    no other column of L U depends on the pivot.
    """
    L = np.tril(rng.uniform(-0.3, 0.3, (n, n)), -1) + np.eye(n)
    U = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
    U[np.diag_indices(n)] = 1 + rng.uniform(size=n)
    U[:k + 1, k] = 0
    A = L @ U
    A[:, k] = L[:, k] * (scale * linalg.PIVOT_RTOL * linalg.norm1(A))
    return A


@pytest.mark.parametrize("n", range(2, 25))
def test_pivot_screen_is_sound(n):
    # a pivot below rtol norm1(A) forces cond > 1/(n rtol), so every matrix
    # that the check refuses is one the screen sends to the check
    rng = np.random.default_rng(400 + n)
    rtol, refused, passed = linalg.PIVOT_RTOL, 0, 0
    for A in near_singular(rng, n):
        try:
            linalg._check_pivots(A)
        except SingularMatrixError:
            refused += 1
            try:
                cond = linalg._condition(A)
            except LinalgError:
                cond = np.inf  # no inverse: the screen sends it to the check as well
            assert cond * 2 * n * rtol > 1
        else:
            passed += 1
        b = rng.normal(size=n) + 0j
        try:
            want = solve_pivots_first(A, b)
        except SingularMatrixError as exc:
            with pytest.raises(SingularMatrixError) as got:
                solve(A, b)
            assert got.value.pivot_index == exc.pivot_index
            assert linalg.condition_number(A) == np.inf
        else:
            x, cond = solve(A, b)
            assert np.array_equal(x, want[0]) and cond == want[1]
            assert linalg.condition_number(A) == cond
    assert refused and passed


@pytest.mark.parametrize("n", [2, 5, 12, 24])
def test_pivot_just_under_the_threshold(n):
    rng = np.random.default_rng(500 + n)
    for k in (0, n // 2, n - 1):
        A = planted_pivot(rng, n, k, 1 - 1e-6)
        with pytest.raises(SingularMatrixError) as exc:
            linalg._check_pivots(A)
        assert exc.value.pivot_index == k
        with pytest.raises(SingularMatrixError) as exc:
            solve(A, np.ones(n))
        assert exc.value.pivot_index == k
        A = planted_pivot(rng, n, k, 1 + 1e-6)
        x, cond = solve(A, np.ones(n))
        assert cond * 2 * n * linalg.PIVOT_RTOL > 1  # the screen ran the check, which passed
        assert np.array_equal(x, solve_pivots_first(A, np.ones(n))[0])


def test_failed_inverse_falls_through_to_the_pivot_check(monkeypatch):
    def failing(*args):
        raise np.linalg.LinAlgError("LAPACK failure")

    monkeypatch.setattr(np.linalg, "inv", failing)
    with pytest.raises(LinalgError, match="LAPACK failure"):
        solve([[1, 2], [3, 4]], [1, 1])
    singular = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=complex)
    with pytest.raises(SingularMatrixError) as exc:
        solve(singular, np.zeros(3))
    assert exc.value.pivot_index == 2
    assert linalg.condition_number(singular) == np.inf


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
        accuracy = [10 * n * EPS * linalg.norm1(Km) * kappa for _, kappa in reference]
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
                np.sum(np.abs(terms)) + linalg.norm1(power))


def test_eigenpairs_scalar_matrix():
    # P = x^m - c: K^m is (-i)^m c I exactly, so the certificate takes
    # L = e_0 and lam = (-i)^m c with no residual
    for m, c in itertools.product((2, 3, 7, 24), (1, -2, 0.5j)):
        sys = make_system(Polynomial((-c,) + (0,) * (m - 1) + (1,)))
        cert = identity_certificate(sys)
        assert np.array_equal(cert.L, np.eye(m)[0])
        assert cert.lam == (-1j) ** m * c
        assert cert.eigen_residual == 0.0

import numpy as np
import pytest

from polytrig import linalg
from polytrig.linalg import (LinalgError, SingularMatrixError, determinant,
                             eigenpairs, solve)


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


def test_eigenpairs_companion():
    # companion matrix of x^3 + x^2 + 1
    C = np.array([[0, 0, -1], [1, 0, 0], [0, 1, -1]], dtype=complex)
    vals = [p.value for p in eigenpairs(C)]
    expect = sorted(np.roots([1, 1, 0, 1]), key=lambda z: (z.real, z.imag))
    assert vals == pytest.approx(expect, abs=1e-12)


def test_eigenpairs_diagonal():
    pairs = eigenpairs(np.diag([1.0, 2.0, 3.0]))
    assert [p.value for p in pairs] == pytest.approx([1, 2, 3], abs=1e-14)
    assert np.allclose([p.left_vector for p in pairs], np.eye(3))


def test_eigenpairs_residuals():
    rng = np.random.default_rng(11)
    for _ in range(8):
        n = int(rng.integers(2, 7))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        pairs = eigenpairs(A)
        assert len(pairs) == n
        scale = linalg.norm1(A)
        for p in pairs:
            assert p.residual < 1e-8 * (scale + 1)
            assert np.max(np.abs(p.left_vector)) == pytest.approx(1.0)


def test_eigenpairs_sum_matches_trace():
    rng = np.random.default_rng(13)
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    vals = sum(p.value for p in eigenpairs(A))
    assert vals == pytest.approx(np.trace(A), abs=1e-9)


def test_eigenpairs_scalar_matrix():
    pairs = eigenpairs(2.5j * np.eye(4))
    assert all(p.value == pytest.approx(2.5j) for p in pairs)
    vecs = np.array([p.left_vector for p in pairs])
    assert np.allclose(vecs, np.eye(4))


def eigenpairs_loop(M):
    """The per-pair loop that ``eigenpairs`` replaced, kept as its reference."""
    A = np.asarray(M, dtype=complex)
    n = A.shape[0]
    mean = complex(np.trace(A) / n)
    spread = linalg.norm1(A - mean * np.eye(n, dtype=complex))
    if spread <= 1e-12 * (linalg.norm1(A) + 1.0):
        return [linalg.Eigenpair(mean, v, spread) for v in np.eye(n, dtype=complex)]
    values, vectors = np.linalg.eig(A.T)
    out = []
    for lam, v in zip(values, vectors.T):
        v = v / v[int(np.argmax(np.abs(v)))]
        residual = float(np.max(np.abs(v @ A - lam * v)))
        out.append(linalg.Eigenpair(complex(lam), v, residual))
    out.sort(key=lambda p: (p.value.real, p.value.imag))
    return out


def _shared_real_parts(rng, n):
    # eigenvalues 1 +- 1j, 1 + 2j, 1, 1 (a tie in both parts) and -0.5 +- 1j ...
    values = np.resize([1 + 1j, 1 - 1j, 1 + 2j, 1, 1, -0.5 + 1j, -0.5 - 1j], n)
    S = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return S @ np.diag(values) @ np.linalg.inv(S)


@pytest.mark.parametrize("n", range(2, 25))
def test_eigenpairs_match_the_loop(n):
    rng = np.random.default_rng(100 + n)
    matrices = [
        rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
        rng.normal(size=(n, n)),  # real: conjugate pairs share real parts
        np.diag(rng.permutation(np.arange(n) % 3) + 0j),  # exact ties, kept in LAPACK order
        _shared_real_parts(rng, n),
        # vectors with entries of equal modulus: the first maximum is the pivot
        np.kron(np.eye(n // 2 + 1), [[2, 1], [1, 2]])[:n, :n],
        np.roll(np.eye(n), 1, axis=1),
        (1.5 - 2j) * np.eye(n),  # scalar matrix
    ]
    for A in matrices:
        got, want = eigenpairs(A), eigenpairs_loop(A)
        assert [p.value for p in got] == [p.value for p in want]
        for g, w in zip(got, want):
            assert np.array_equal(g.left_vector, w.left_vector)
            assert abs(g.residual - w.residual) <= 64 * n * np.finfo(float).eps * (
                linalg.norm1(A) + 1.0)


def test_dimension_cap():
    with pytest.raises(LinalgError):
        eigenpairs(np.eye(linalg.MAX_DIM + 1) + np.ones((linalg.MAX_DIM + 1,) * 2))


@pytest.mark.parametrize("name,call", [
    ("eig", lambda: eigenpairs([[1, 2], [3, 4]])),
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

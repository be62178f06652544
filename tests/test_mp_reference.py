"""Differential tests of the array kernels against 50-digit mpmath sums.

Each reference is the same finite sum as the library's, taken in 50-digit
arithmetic on the library's own double inputs (roots, T grid, certificate), so
the gap is the kernel's rounding alone.  A sum of m rounded products is off by
at most about m eps times the size of its terms, so every check allows
10 m eps of that size (the Horner size for C(P), the Hadamard bound for
det M); the worst measured gap over degrees 2..24 was 0.9 m eps.
"""
import math

import numpy as np
import pytest

from polytrig import gentrig, series
from polytrig.poly import find_roots

mpmath = pytest.importorskip("mpmath")

EPS = np.finfo(float).eps
DEGREES = (2, 3, 4, 6, 8, 12, 16, 20, 24)
#: the per-point rows and Taylor tables are checked at every degree
ROW_DEGREES = range(2, 25)


def mpc(z):
    z = complex(z)
    return mpmath.mpc(z.real, z.imag)


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(50):
        yield


def system(degree):
    """Roots in the unit square, of modulus above 0.1 and 0.05 off the integers."""
    rng = np.random.default_rng(degree)
    while True:
        r = rng.uniform(-1, 1, degree) + 1j * rng.uniform(-1, 1, degree)
        if np.min(np.abs(r)) > 0.1 and np.min(np.abs(r - np.round(r.real))) > 0.05:
            return gentrig.from_roots(r), rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)


def mp_grid(sys_):
    return [[mpc(v) for v in row] for row in sys_.T], [mpc(v) for v in sys_.roots.roots]


def within(got, terms, scale=1.0):
    """|got - sum(terms)| against 10 m eps of the size of the terms."""
    ref = mpmath.fsum(terms)
    size = float(mpmath.fsum(abs(t) for t in terms))
    gap = float(abs(mpc(got) - ref))
    return gap <= 10 * len(terms) * scale * EPS * size, gap, size


def check_row_entry(got, terms, what, scale=1.0):
    """``within``, and a value moved by 1e-12 of its term size fails it."""
    ok, gap, size = within(got, terms, scale)
    assert ok, f"{what}: gap {gap:.3e}, term size {size:.3e}"
    assert not within(got + 1e-12 * size, terms, scale)[0], f"{what}: bound too loose to see 1e-12"


@pytest.mark.parametrize("degree", ROW_DEGREES)
def test_S_and_R(degree):
    sys_, points = system(degree)
    T, r = mp_grid(sys_)
    sin_pi = [mpmath.exp(-1j * rj * mpmath.pi) - mpmath.exp(1j * rj * mpmath.pi) for rj in r]
    for x in points:
        e = [mpmath.exp(-1j * rj * mpc(x)) for rj in r]
        S = gentrig.eval_S_vector(sys_, x)
        # eval_S and eval_R build their rows at l = 0 and read them after
        for l in range(degree):
            for got in (S[l], gentrig.eval_S(sys_, l, x)):
                check_row_entry(got, [t * ej for t, ej in zip(T[l], e)], f"S_{l}({x})")
            check_row_entry(series.eval_R(sys_, l, x),
                            [t * ej / s for t, ej, s in zip(T[l], e, sin_pi)], f"R_{l}({x})")


@pytest.mark.parametrize("degree", ROW_DEGREES)
def test_taylor_coeffs(degree):
    sys_, _ = system(degree)
    T, r = mp_grid(sys_)
    order = 30
    b = [gentrig.taylor_coeffs(sys_, l, order) for l in range(degree)]
    weights = [mpmath.mpf(1)] * degree  # (-i r_j)^k / k!
    for k in range(order + 1):
        for l in range(degree):
            # the running product adds one rounding per order
            check_row_entry(b[l][k], [t * w for t, w in zip(T[l], weights)],
                            f"b_{k} of S_{l}", scale=1 + k / degree)
        weights = [w * (-1j * rj) / (k + 1) for w, rj in zip(weights, r)]


@pytest.mark.parametrize("degree", DEGREES)
def test_associated_matrix(degree):
    sys_, _ = system(degree)
    T, r = mp_grid(sys_)
    a = [mpc(c) for c in sys_.poly.coeffs]
    C = series.associated_matrix(sys_).C * series.TWO_PI_I
    # Horner's quotient coefficients of x^k, top down, and the size of their partial products
    quotient, horner = [a[degree]] * degree, [abs(a[degree])] * degree
    for k in range(degree - 1, -1, -1):
        if k < degree - 1:
            quotient = [q * rj + a[k + 1] for q, rj in zip(quotient, r)]
            horner = [h * abs(rj) + abs(a[k + 1]) for h, rj in zip(horner, r)]
        for l in range(degree):
            ref = mpmath.fsum(t * q for t, q in zip(T[l], quotient))
            size = float(mpmath.fsum(abs(t) * h for t, h in zip(T[l], horner)))
            gap = float(abs(mpc(C[l, k]) - ref))
            assert gap <= 10 * degree * EPS * size, f"C[{l}, {k}]: gap {gap:.3e}, size {size:.3e}"


@pytest.mark.parametrize("degree", DEGREES)
def test_det_M(degree):
    sys_, points = system(degree)
    T, r = mp_grid(sys_)
    cert = gentrig.identity_certificate(sys_)
    K = mpmath.matrix([[mpc(v) for v in row] for row in sys_.K])
    rows = [mpmath.matrix([[mpc(v) for v in cert.L]])]
    for _ in range(degree - 1):
        rows.append(rows[-1] * K)
    lam = mpc(cert.lam)
    for x, got in [(0.0, cert.det_ref)] + [(x, gentrig.eval_det_M(cert, sys_, x)) for x in points]:
        S = [mpmath.fsum(t * mpmath.exp(-1j * rj * mpc(x)) for t, rj in zip(T[l], r))
             for l in range(degree)]
        f = [mpmath.fsum(row[0, i] * S[i] for i in range(degree)) for row in rows]
        M = mpmath.matrix([[f[p + q] if p + q < degree else lam * f[p + q - degree]
                            for q in range(degree)] for p in range(degree)])
        hadamard = math.prod(float(mpmath.norm(M[p, :])) for p in range(degree))
        gap = float(abs(mpc(got) - mpmath.det(M)))
        assert gap <= 10 * degree * EPS * hadamard, \
            f"det M({x}): gap {gap:.3e}, Hadamard bound {hadamard:.3e}"


def refined_root(desc, r):
    """The root of P (descending mp coefficients) that Newton's method reaches
    from ``r`` at 50 digits, and P' there."""
    x = mpc(r)
    for _ in range(30):
        value, slope = mpmath.polyval(desc, x, derivative=True)
        step = value / slope
        x -= step
        if abs(step) <= mpmath.mpf(10) ** -45 * abs(x):
            return x, mpmath.polyval(desc, x, derivative=True)[1]
    raise AssertionError(f"Newton from {r} does not settle")


def test_roots_against_refined_references(bench_polys):
    """Each root within cond_j 4 m eps of its root refined at 50 digits, where
    cond_j = sum |a_k| |r|^k / |P'(r)| turns the polish's backward error bound
    into a forward one, over 120 seeded bench-pool polynomials and every pool
    polynomial of degree 16 or more; roots moved by a relative 1e-12 fail."""
    rng = np.random.default_rng(2016)
    chosen = [bench_polys[i] for i in sorted(rng.choice(len(bench_polys), 120, replace=False))]
    chosen += [p for p in bench_polys if p.degree >= 16 and p not in chosen]
    worst, seen = 0.0, []
    for p in chosen:
        desc = [mpc(c) for c in reversed(p.coeffs)]
        bound = 4 * p.degree * EPS
        refs, moved = [], []
        for r in find_roots(p):
            ref, slope = refined_root(desc, r)
            refs.append(ref)
            tol = bound * sum(abs(c) * abs(r) ** k for k, c in enumerate(p.coeffs))
            tol /= float(abs(slope))
            worst = max(worst, float(abs(mpc(r) - ref)) / tol)
            moved.append(float(abs(mpc(r * (1 + 1e-12)) - ref)) > tol)
        assert all(x != y for i, x in enumerate(refs) for y in refs[:i]), "two roots share a reference"
        seen.append(any(moved))
    assert worst <= 1, f"a root is {worst:.3g} times its forward error bound away"
    assert all(seen), f"{seen.count(False)} of {len(seen)} polynomials miss roots moved by 1e-12"

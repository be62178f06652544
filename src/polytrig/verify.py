"""Reproducibility checks: every headline claim the library rests on, as one runnable suite.

Each check returns a :class:`CheckResult` whose ``seconds`` are the clock
readings around its own statements; ``run_all`` executes the full set.
The suite is deterministic for a fixed seed.  Two checks are expected to fail
for mathematical reasons (see ``matrix_A_nondegenerate``): the boundary-jump
matrix is exactly singular for orders 2 and 6 because two of its sinh factors
vanish there.
"""
from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import cyclotomic, gentrig, series
from .poly import Polynomial, parse_polynomial


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    seconds: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return (f"{status}  {self.name}: measured {self.measured:.3e} "
                f"vs threshold {self.threshold:.3e} ({self.seconds:.2f}s){extra}")


#: points drawn per sampled identity check
SAMPLES = 20

#: |det M(x) - constant| allowed for the x^m - 1 shifted matrix
CYCLOTOMIC_DET_TOL = 1e-8

#: |S_l(x1 + x2) - sign-rule combination| allowed in the addition theorem
ADDITION_TOL = 1e-9


def sample_points(rng, n: int, half_width: float) -> np.ndarray:
    """n complex points uniform on the square |Re x|, |Im x| <= half_width.

    Drawn as (real, imaginary) pairs, the order in which
    ``complex(rng.uniform(), rng.uniform())`` draws them one at a time.
    """
    re, im = rng.uniform(-half_width, half_width, (n, 2)).T
    return re + 1j * im


def certificate_deviation(sys, cert, rng) -> float:
    """max |det M(x) - det_ref| over ``SAMPLES`` points of the unit square."""
    x = sample_points(rng, SAMPLES, 1.0)
    return float(np.max(np.abs(gentrig.eval_det_M(cert, sys, x) - cert.det_ref)))


def cyclotomic_det_deviation(m: int, rng) -> float:
    """max |det M(x) - det_M_constant(m)| over ``SAMPLES`` points of the square of half-width 2."""
    sys = cyclotomic.make_cyclotomic(m)
    constant = cyclotomic.det_M_constant(m)
    x = sample_points(rng, SAMPLES, 2.0)
    return float(np.max(np.abs(cyclotomic.det_M_cyclo(sys, x) - constant)))


def addition_deviation(m: int, rng) -> float:
    """max |S_l(x1 + x2) - sign-rule combination| over every l and ``SAMPLES``
    pairs (x1, x2) of the unit square."""
    sys = cyclotomic.make_cyclotomic(m)
    x1, x2 = sample_points(rng, 2 * SAMPLES, 1.0).reshape(SAMPLES, 2).T
    worst = 0.0
    for l in range(m):
        combined = cyclotomic.apply_addition(sys, cyclotomic.addition_rule(m, l), x1, x2)
        gap = np.abs(cyclotomic.eval_S_cyclo(sys, l, x1 + x2) - combined)
        worst = max(worst, float(np.max(gap)))
    return worst


def _random_system(rng, degree, away_from_integers=0.0):
    while True:
        roots = rng.uniform(-1, 1, degree) + 1j * rng.uniform(-1, 1, degree)
        if np.min(np.abs(roots)) < 0.1:
            continue
        if away_from_integers and any(abs(r - round(r.real)) < away_from_integers for r in roots):
            continue
        return gentrig.from_roots(roots)


def associated_matrix_reproduction() -> CheckResult:
    """2*pi*i*C for x^3+x^2+1 against the known integer matrix (descending columns)."""
    expected = np.array([[3, 2, 0], [-1, 0, -3], [0, 3, 2]], dtype=complex)
    start = time.perf_counter()
    sys = gentrig.make_system(parse_polynomial("x^3+x^2+1"))
    C = series.associated_matrix(sys).C * series.TWO_PI_I
    dev = float(np.max(np.abs(C[:, ::-1] - expected)))
    secs = time.perf_counter() - start
    return CheckResult("associated-matrix reproduction", dev <= 1e-10 and secs < 0.1,
                       dev, 1e-10, secs)


def cubic_closed_forms() -> CheckResult:
    """The six known closed forms for x^3+x^2+1, plus oracle agreement."""
    weights = {
        2: lambda r: 9 - 4 * r - 6 / r,
        1: lambda r: 2 + 6 * r + 9 / r,
        0: lambda r: -3 - 9 * r + 2 / r,
    }
    start = time.perf_counter()
    p = parse_polynomial("x^3+x^2+1")
    res = series.evaluate_sums(p)
    rs = gentrig.make_system(p).roots.roots
    den = [cmath.exp(-1j * r * math.pi) - cmath.exp(1j * r * math.pi) for r in rs]
    ker = [(cmath.exp(-1j * r * math.pi) + cmath.exp(1j * r * math.pi)) / d
           for r, d in zip(rs, den)]
    worst = 0.0
    for k in range(3):
        b_ref = (2j * math.pi / 31) * sum(weights[k](r) / d for r, d in zip(rs, den))
        a_ref = (1j * math.pi / 31) * sum(weights[k](r) * c for r, c in zip(rs, ker))
        worst = max(worst, abs(res.B[k] - b_ref), abs(res.A[k] - a_ref))
    oracle_gap = max(
        max(abs(res.A[k] - res.oracle_A[k][0]) for k in range(3)),
        max(abs(res.B[k] - res.oracle_B[k][0]) for k in range(3)),
    )
    secs = time.perf_counter() - start
    ok = worst <= 1e-10 and oracle_gap <= 1e-6 and secs < 5.0
    return CheckResult("cubic closed forms", ok, worst, 1e-10, secs,
                       detail=f"oracle gap {oracle_gap:.1e}")


def known_quadratic_sums() -> CheckResult:
    """x^2+1: A0 = pi*coth(pi), B0 = pi/sinh(pi), A1 = B1 = 0."""
    start = time.perf_counter()
    res = series.evaluate_sums(parse_polynomial("x^2+1"))
    dev = max(
        abs(res.A[0] - math.pi / math.tanh(math.pi)),
        abs(res.B[0] - math.pi / math.sinh(math.pi)),
        abs(res.A[0] - res.oracle_A[0][0]),
        abs(res.B[0] - res.oracle_B[0][0]),
    )
    odd = max(abs(res.A[1]), abs(res.B[1]))
    secs = time.perf_counter() - start
    return CheckResult("known quadratic sums", dev <= 1e-9 and odd <= 1e-10, dev, 1e-9, secs,
                       detail=f"odd-power residue {odd:.1e}")


def certificate_constancy(seed: int = 0) -> CheckResult:
    """det M(x) constant over 25 random monic polynomials, degree 2..6."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(25):
        degree = int(rng.integers(2, 7))
        sys = _random_system(rng, degree)
        cert = gentrig.identity_certificate(sys)
        tol = 1e-7 * (1 + abs(cert.det_ref))
        worst = max(worst, certificate_deviation(sys, cert, rng) / tol)
    secs = time.perf_counter() - start
    return CheckResult("certificate constancy", worst <= 1.0 and secs < 10.0, worst, 1.0, secs,
                       detail="normalized by 1e-7*(1+|det_ref|)")


def cyclotomic_determinant_identity(seed: int = 0) -> CheckResult:
    """det of the shifted S_l matrix equals its order-dependent sign constant, m = 2..7."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed + 1)
    worst = max(cyclotomic_det_deviation(m, rng) for m in range(2, 8))
    secs = time.perf_counter() - start
    return CheckResult("cyclotomic determinant identity", worst <= CYCLOTOMIC_DET_TOL, worst,
                       CYCLOTOMIC_DET_TOL, secs)


def order3_explicit_identity(seed: int = 0) -> CheckResult:
    """-S0^3 + S1^3 - S2^3 - 3 S0 S1 S2 == -1 at 100 random real points."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed + 2)
    sys = cyclotomic.make_cyclotomic(3)
    x = rng.uniform(-3, 3, 100)
    s0, s1, s2 = (cyclotomic.eval_S_cyclo(sys, l, x) for l in range(3))
    worst = float(np.max(np.abs(-s0 ** 3 + s1 ** 3 - s2 ** 3 - 3 * s0 * s1 * s2 + 1)))
    secs = time.perf_counter() - start
    return CheckResult("order-3 explicit identity", worst <= 1e-9, worst, 1e-9, secs)


def addition_theorem(seed: int = 0) -> CheckResult:
    """S_l(x1+x2) against the sign-rule bilinear combination, m = 2..6."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed + 3)
    worst = max(addition_deviation(m, rng) for m in range(2, 7))
    secs = time.perf_counter() - start
    return CheckResult("addition theorem", worst <= ADDITION_TOL, worst, ADDITION_TOL, secs)


def evaluation_route_agreement(seed: int = 0) -> CheckResult:
    """Direct sum, truncated power series and the rescale route, pairwise, m <= 6."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed + 4)
    worst = 0.0
    for m in range(1, 7):
        sys = cyclotomic.make_cyclotomic(m)
        terms = min(170 // m, 60)
        x = sample_points(rng, 10, 2.0)
        x = np.where(np.abs(x) > 2, x / np.abs(x) * 2, x)
        for l in range(m):
            direct = cyclotomic.eval_S_cyclo(sys, l, x)
            taylor = cyclotomic.taylor_eval_cyclo(sys, l, x, terms)
            lhs, rhs = cyclotomic.rescale_consistency(sys, l, x)
            worst = max(worst, float(np.max(np.abs(direct - taylor))),
                        float(np.max(np.abs(lhs - rhs))))
    secs = time.perf_counter() - start
    return CheckResult("evaluation route agreement", worst <= 1e-10, worst, 1e-10, secs)


def factorial_identity() -> CheckResult:
    """Exact-rational mod-3 factorial identity for n = 3, 6, ..., 60."""
    start = time.perf_counter()
    first_failure = 0.0
    for n in range(3, 61, 3):
        if not cyclotomic.factorial_identity_check(n)[2]:
            first_failure = float(n)
            break
    secs = time.perf_counter() - start
    return CheckResult("factorial identity", first_failure == 0.0 and secs < 2.0,
                       first_failure, 0.0, secs,
                       detail="measured = first failing n (0 = none)")


def matrix_A_nondegenerate(m: int) -> CheckResult:
    """|det A_m| > 1e-6 and modulus agreement with the Vandermonde factorization.

    Mathematically doomed for m = 2 and m = 6 (any order congruent to 2 mod 4):
    the factor exp(eta zeta^j pi) - exp(-eta zeta^j pi) vanishes exactly when
    eta zeta^j = +-i, so det A_m = 0 there (see ``cyclotomic.matrix_A``).
    The check is kept as stated and reports an honest failure for those
    orders.
    """
    start = time.perf_counter()
    _, det, fact = cyclotomic.matrix_A(cyclotomic.make_cyclotomic(m))
    moddet, agreement = abs(det), abs(abs(det) - fact)
    secs = time.perf_counter() - start
    ok = moddet > 1e-6 and agreement <= 1e-6 * (1 + moddet)
    return CheckResult(f"boundary-jump matrix m={m}", ok, moddet, 1e-6, secs,
                       detail=f"factorization gap {agreement:.1e}")


def _quadrature_fourier(ns):
    """Fourier coefficients by composite Gauss-Legendre, for every n in ``ns``.

    Builds the 32 panels * 8 nodes and the exp(i n x) table once, and returns
    a function of ``(sys, l)``: R_l evaluated at every node in one product,
    each coefficient then a weighted sum of those values against exp(i n x).
    """
    nodes, weights = leggauss(8)
    edges = np.linspace(-math.pi, math.pi, 33)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    xs = (mid[:, None] + half[:, None] * nodes).ravel()
    ws = (half[:, None] * weights).ravel()
    table = np.exp(1j * np.outer(ns, xs))

    def coefficients(sys, l):
        return table @ (ws * series.eval_R(sys, l, xs)) / (2 * math.pi)

    return coefficients


def fourier_quadrature(seed: int = 0) -> CheckResult:
    """Closed-form Fourier coefficients against 256-node composite quadrature."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed + 5)
    systems = [gentrig.make_system(parse_polynomial("x^3+x^2+1"))]
    for _ in range(10):
        systems.append(_random_system(rng, 3, away_from_integers=0.05))
    ns = range(-5, 6)
    quadrature = _quadrature_fourier(ns)
    worst = 0.0
    for sys in systems:
        for l in range(3):
            quad = quadrature(sys, l)
            for n, q in zip(ns, quad):
                worst = max(worst, abs(series.fourier_coefficient(sys, l, n) - q))
    secs = time.perf_counter() - start
    return CheckResult("fourier closed form vs quadrature", worst <= 1e-8, worst, 1e-8, secs)


def derivative_system(seed: int = 0) -> CheckResult:
    """Central finite differences of the S vector against K.S for random systems."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed + 6)
    h = 1e-5
    worst = 0.0
    for _ in range(10):
        degree = int(rng.integers(2, 7))
        sys = _random_system(rng, degree)
        for _ in range(10):
            x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            fd = (gentrig.eval_S_vector(sys, x + h) - gentrig.eval_S_vector(sys, x - h)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(fd - sys.K @ gentrig.eval_S_vector(sys, x)))))
    secs = time.perf_counter() - start
    return CheckResult("derivative system", worst <= 1e-6, worst, 1e-6, secs)


def even_power_family() -> CheckResult:
    """evaluate_sums against the oracle for P(n) = n^(2m) + 1, m = 1..4."""
    start = time.perf_counter()
    worst = 0.0
    for m in range(1, 5):
        p = parse_polynomial(f"x^{2 * m}+1")
        res = series.evaluate_sums(p)
        for k in range(2 * m):
            worst = max(worst,
                        abs(res.A[k] - res.oracle_A[k][0]),
                        abs(res.B[k] - res.oracle_B[k][0]))
    secs = time.perf_counter() - start
    return CheckResult("even-power family sums", worst <= 1e-6, worst, 1e-6, secs)


def run_all(seed: int = 0) -> list:
    """All acceptance checks in order."""
    checks: list[CheckResult] = [
        associated_matrix_reproduction(),
        cubic_closed_forms(),
        known_quadratic_sums(),
        certificate_constancy(seed=seed),
        cyclotomic_determinant_identity(seed=seed),
        order3_explicit_identity(seed=seed),
        addition_theorem(seed=seed),
        evaluation_route_agreement(seed=seed),
        factorial_identity(),
    ]
    checks.extend(matrix_A_nondegenerate(m) for m in range(1, 9))
    checks.extend([
        fourier_quadrature(seed=seed),
        derivative_system(seed=seed),
        even_power_family(),
    ])
    return checks

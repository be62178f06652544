"""Reproducibility checks: every headline claim the library rests on, as one runnable suite.

Each check returns a :class:`CheckResult`; ``run_all`` executes the full set.
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

from . import cyclotomic, gentrig, linalg, series
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


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def _random_system(rng, degree, min_root=0.1, away_from_integers=0.0):
    while True:
        roots = rng.uniform(-1, 1, degree) + 1j * rng.uniform(-1, 1, degree)
        if np.min(np.abs(roots)) < min_root:
            continue
        if away_from_integers and any(abs(r - round(r.real)) < away_from_integers for r in roots):
            continue
        return gentrig.from_roots(roots)


def associated_matrix_reproduction(time_limit: float = 0.1) -> CheckResult:
    """2*pi*i*C for x^3+x^2+1 against the known integer matrix (descending columns)."""
    expected = np.array([[3, 2, 0], [-1, 0, -3], [0, 3, 2]], dtype=complex)

    def body():
        sys = gentrig.make_system(parse_polynomial("x^3+x^2+1"))
        C = series.associated_matrix(sys).C * series.TWO_PI_I
        return float(np.max(np.abs(C[:, ::-1] - expected)))

    dev, secs = _timed(body)
    return CheckResult("associated-matrix reproduction", dev <= 1e-10 and secs < time_limit,
                       dev, 1e-10, secs)


def cubic_closed_forms(oracle_n: int = 100_000, tol: float = 1e-10,
                       oracle_tol: float = 1e-6) -> CheckResult:
    """The six known closed forms for x^3+x^2+1, plus oracle agreement."""
    weights = {
        2: lambda r: 9 - 4 * r - 6 / r,
        1: lambda r: 2 + 6 * r + 9 / r,
        0: lambda r: -3 - 9 * r + 2 / r,
    }

    def body():
        p = parse_polynomial("x^3+x^2+1")
        res = series.evaluate_sums(p, oracle_n=oracle_n)
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
        return worst, oracle_gap

    (worst, oracle_gap), secs = _timed(body)
    ok = worst <= tol and oracle_gap <= oracle_tol and secs < 5.0
    return CheckResult("cubic closed forms", ok, worst, tol, secs,
                       detail=f"oracle gap {oracle_gap:.1e}")


def known_quadratic_sums(oracle_n: int = 100_000, tol: float = 1e-9) -> CheckResult:
    """x^2+1: A0 = pi*coth(pi), B0 = pi/sinh(pi), A1 = B1 = 0."""

    def body():
        res = series.evaluate_sums(parse_polynomial("x^2+1"), oracle_n=oracle_n)
        dev = max(
            abs(res.A[0] - math.pi / math.tanh(math.pi)),
            abs(res.B[0] - math.pi / math.sinh(math.pi)),
            abs(res.A[0] - res.oracle_A[0][0]),
            abs(res.B[0] - res.oracle_B[0][0]),
        )
        odd = max(abs(res.A[1]), abs(res.B[1]))
        return dev, odd

    (dev, odd), secs = _timed(body)
    return CheckResult("known quadratic sums", dev <= tol and odd <= 1e-10, dev, tol, secs,
                       detail=f"odd-power residue {odd:.1e}")


def certificate_constancy(seed: int = 0, tol_scale: float = 1e-7) -> CheckResult:
    """det M(x) constant over 25 random monic polynomials, degree 2..6."""

    def body():
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(25):
            degree = int(rng.integers(2, 7))
            sys = _random_system(rng, degree)
            cert = gentrig.identity_certificate(sys)
            tol = tol_scale * (1 + abs(cert.det_ref))
            for _ in range(20):
                x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                worst = max(worst, abs(gentrig.eval_det_M(cert, sys, x) - cert.det_ref) / tol)
        return worst

    worst, secs = _timed(body)
    return CheckResult("certificate constancy", worst <= 1.0 and secs < 10.0, worst, 1.0, secs,
                       detail="normalized by 1e-7*(1+|det_ref|)")


def cyclotomic_determinant_identity(seed: int = 0, tol: float = 1e-8) -> CheckResult:
    """det of the shifted S_l matrix equals its order-dependent sign constant, m = 2..7."""

    def body():
        rng = np.random.default_rng(seed + 1)
        worst = 0.0
        for m in range(2, 8):
            sys = cyclotomic.make_cyclotomic(m)
            constant = cyclotomic.det_M_constant(m)
            for _ in range(20):
                x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                worst = max(worst, abs(cyclotomic.det_M_cyclo(sys, x) - constant))
        return worst

    worst, secs = _timed(body)
    return CheckResult("cyclotomic determinant identity", worst <= tol, worst, tol, secs)


def order3_explicit_identity(seed: int = 0, tol: float = 1e-9) -> CheckResult:
    """-S0^3 + S1^3 - S2^3 - 3 S0 S1 S2 == -1 at 100 random real points."""

    def body():
        rng = np.random.default_rng(seed + 2)
        sys = cyclotomic.make_cyclotomic(3)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-3, 3)
            s0, s1, s2 = (cyclotomic.eval_S_cyclo(sys, l, x) for l in range(3))
            worst = max(worst, abs(-s0 ** 3 + s1 ** 3 - s2 ** 3 - 3 * s0 * s1 * s2 + 1))
        return worst

    worst, secs = _timed(body)
    return CheckResult("order-3 explicit identity", worst <= tol, worst, tol, secs)


def addition_theorem(seed: int = 0, tol: float = 1e-9) -> CheckResult:
    """S_l(x1+x2) against the sign-rule bilinear combination, m = 2..6."""

    def body():
        rng = np.random.default_rng(seed + 3)
        worst = 0.0
        for m in range(2, 7):
            sys = cyclotomic.make_cyclotomic(m)
            rules = [cyclotomic.addition_rule(m, l) for l in range(m)]
            for _ in range(20):
                x1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                x2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for l in range(m):
                    direct = cyclotomic.eval_S_cyclo(sys, l, x1 + x2)
                    combined = cyclotomic.apply_addition(sys, rules[l], x1, x2)
                    worst = max(worst, abs(direct - combined))
        return worst

    worst, secs = _timed(body)
    return CheckResult("addition theorem", worst <= tol, worst, tol, secs)


def evaluation_route_agreement(seed: int = 0, tol: float = 1e-10) -> CheckResult:
    """Direct sum, truncated power series and the rescale route, pairwise, m <= 6."""

    def body():
        rng = np.random.default_rng(seed + 4)
        worst = 0.0
        for m in range(1, 7):
            sys = cyclotomic.make_cyclotomic(m)
            terms = min(170 // m, 60)
            for _ in range(10):
                x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if abs(x) > 2:
                    x = x / abs(x) * 2
                for l in range(m):
                    direct = cyclotomic.eval_S_cyclo(sys, l, x)
                    taylor = cyclotomic.taylor_eval_cyclo(sys, l, x, terms)
                    lhs, rhs = cyclotomic.rescale_consistency(sys, l, x)
                    worst = max(worst, abs(direct - taylor), abs(lhs - rhs))
        return worst

    worst, secs = _timed(body)
    return CheckResult("evaluation route agreement", worst <= tol, worst, tol, secs)


def factorial_identity(limit: int = 60) -> CheckResult:
    """Exact-rational mod-3 factorial identity for n = 3, 6, ..., limit."""

    def body():
        for n in range(3, limit + 1, 3):
            _, _, holds = cyclotomic.factorial_identity_check(n)
            if not holds:
                return float(n)
        return 0.0

    first_failure, secs = _timed(body)
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

    def body():
        sys = cyclotomic.make_cyclotomic(m)
        _, det, fact = cyclotomic.matrix_A(sys)
        return abs(det), abs(abs(det) - fact)

    (moddet, agreement), secs = _timed(body)
    ok = moddet > 1e-6 and agreement <= 1e-6 * (1 + moddet)
    return CheckResult(f"boundary-jump matrix m={m}", ok, moddet, 1e-6, secs,
                       detail=f"factorization gap {agreement:.1e}")


def _quadrature_fourier(sys, l, ns, panels=32, order=8):
    """Fourier coefficients of R_l for every n in ``ns`` by composite Gauss-Legendre.

    R_l is evaluated at all panels * order nodes in one product; each coefficient
    is then a weighted sum of those values against exp(i n x).
    """
    nodes, weights = leggauss(order)
    edges = np.linspace(-math.pi, math.pi, panels + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    xs = (mid[:, None] + half[:, None] * nodes).ravel()
    ws = (half[:, None] * weights).ravel()
    values = ws * series.eval_R(sys, l, xs)
    return np.exp(1j * np.outer(ns, xs)) @ values / (2 * math.pi)


def fourier_quadrature(seed: int = 0, tol: float = 1e-8) -> CheckResult:
    """Closed-form Fourier coefficients against 256-node composite quadrature."""

    def body():
        rng = np.random.default_rng(seed + 5)
        systems = [gentrig.make_system(parse_polynomial("x^3+x^2+1"))]
        for _ in range(10):
            systems.append(_random_system(rng, 3, away_from_integers=0.05))
        ns = range(-5, 6)
        worst = 0.0
        for sys in systems:
            for l in range(3):
                quad = _quadrature_fourier(sys, l, ns)
                for n, q in zip(ns, quad):
                    worst = max(worst, abs(series.fourier_coefficient(sys, l, n) - q))
        return worst

    worst, secs = _timed(body)
    return CheckResult("fourier closed form vs quadrature", worst <= tol, worst, tol, secs)


def derivative_system(seed: int = 0, tol: float = 1e-6) -> CheckResult:
    """Central finite differences of the S vector against K.S for random systems."""

    def body():
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
        return worst

    worst, secs = _timed(body)
    return CheckResult("derivative system", worst <= tol, worst, tol, secs)


def even_power_family(oracle_n: int = 50_000, tol: float = 1e-6) -> CheckResult:
    """evaluate_sums against the oracle for P(n) = n^(2m) + 1, m = 1..4."""

    def body():
        worst = 0.0
        for m in range(1, 5):
            p = parse_polynomial(f"x^{2 * m}+1")
            res = series.evaluate_sums(p, oracle_n=oracle_n)
            for k in range(2 * m):
                worst = max(worst,
                            abs(res.A[k] - res.oracle_A[k][0]),
                            abs(res.B[k] - res.oracle_B[k][0]))
        return worst

    worst, secs = _timed(body)
    return CheckResult("even-power family sums", worst <= tol, worst, tol, secs)


def run_all(seed: int = 0, oracle_n: int = 100_000, sum_tol: float | None = None) -> list:
    """All acceptance checks in order; ``sum_tol`` tightens/loosens the series checks."""
    checks: list[CheckResult] = [
        associated_matrix_reproduction(),
        cubic_closed_forms(oracle_n=oracle_n, tol=sum_tol or 1e-10,
                           oracle_tol=sum_tol or 1e-6),
        known_quadratic_sums(oracle_n=oracle_n, tol=sum_tol or 1e-9),
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
        even_power_family(oracle_n=min(oracle_n, 50_000), tol=sum_tol or 1e-6),
    ])
    return checks

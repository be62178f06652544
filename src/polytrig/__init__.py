"""Exponential-sum trigonometric systems of complex polynomials.

For a polynomial P with roots r_1..r_m, builds the m functions
S_l(x) = sum_j T[l][j] exp(-i r_j x), certifies constant-determinant
identities among them, specializes to x^m - 1, and evaluates the two-sided
series sum(n^k / P(n)) and sum((-1)^n n^k / P(n)) in closed form.
"""
from .poly import (MAX_DEGREE, ParseError, Polynomial, PolynomialError,
                   RootFindingError, RootSet, find_roots, format_polynomial,
                   parse_polynomial, synthetic_divide)
from .gentrig import (ArgumentOverflowError, CertificateUnavailableError,
                      GenTrigError, GenTrigSystem, IdentityCertificate,
                      derivative_matrix, eval_S, eval_S_vector, eval_det_M,
                      from_roots, identity_certificate, make_system,
                      taylor_coeffs, tuple_coefficients)
from .cyclotomic import (AdditionRule, CyclotomicError, CyclotomicSystem,
                         addition_rule, apply_addition, det_M_constant,
                         det_M_cyclo, eval_S_cyclo, factorial_identity_check,
                         make_cyclotomic, matrix_A, rescale_consistency,
                         taylor_eval_cyclo)
from .series import (AssociatedMatrix, CrossCheckError, DegenerateMatrixError,
                     IntegerRootError, SeriesError, SeriesResult, associated_matrix,
                     brute_force_sums, eval_R, evaluate_sums,
                     fourier_coefficient)
from . import verify

__version__ = "0.1.0"

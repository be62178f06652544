"""The public surface of the package, pinned.

A helper deleted from a module but left in ``__init__`` fails at import; a
new public callable fails here until the list below is updated on purpose.
"""
import polytrig

PUBLIC_CALLABLES = {
    # poly
    "ParseError", "Polynomial", "PolynomialError", "RootFindingError",
    "RootSet", "find_roots", "format_polynomial", "parse_polynomial", "synthetic_divide",
    # linalg
    "LinalgError", "SingularMatrixError", "condition_number", "determinant", "solve",
    # gentrig
    "ArgumentOverflowError", "CertificateUnavailableError", "GenTrigError", "GenTrigSystem",
    "IdentityCertificate", "derivative_matrix", "eval_S", "eval_S_vector", "eval_det_M",
    "from_roots", "identity_certificate", "make_system", "taylor_coeffs", "tuple_coefficients",
    # cyclotomic
    "AdditionRule", "CyclotomicError", "CyclotomicSystem", "addition_rule", "apply_addition",
    "det_M_constant", "det_M_cyclo", "eval_S_cyclo", "factorial_identity_check",
    "make_cyclotomic", "matrix_A", "rescale_consistency", "taylor_eval_cyclo",
    # series
    "AssociatedMatrix", "DegenerateMatrixError", "IntegerRootError", "SeriesError",
    "SeriesResult", "associated_matrix", "brute_force_sums", "eval_R", "evaluate_sums",
    "fourier_coefficient",
}


def test_public_callables_are_pinned():
    exported = {name for name, value in vars(polytrig).items()
                if not name.startswith("_") and callable(value)}
    assert exported == PUBLIC_CALLABLES


def test_public_constants():
    assert polytrig.MAX_DEGREE == 24
    assert polytrig.__version__ == "0.1.0"

"""The public surface of the package, pinned.

A helper deleted from a module but left in ``__init__`` fails at import; a
new public callable fails here until the list below is updated on purpose.
So does an option added to or removed from a ``polytrig`` subcommand, and
a module that the benchmark's tracer wraps going missing.
"""
import argparse
import importlib
import importlib.util
from pathlib import Path

import polytrig
from polytrig import cli

PUBLIC_CALLABLES = {
    # poly
    "ParseError", "Polynomial", "PolynomialError", "RootFindingError",
    "RootSet", "find_roots", "format_polynomial", "parse_polynomial", "synthetic_divide",
    # gentrig
    "ArgumentOverflowError", "CertificateUnavailableError", "GenTrigError", "GenTrigSystem",
    "IdentityCertificate", "derivative_matrix", "eval_S", "eval_S_vector", "eval_det_M",
    "from_roots", "identity_certificate", "make_system", "taylor_coeffs", "tuple_coefficients",
    # cyclotomic
    "AdditionRule", "CyclotomicError", "CyclotomicSystem", "addition_rule", "apply_addition",
    "det_M_constant", "det_M_cyclo", "eval_S_cyclo", "factorial_identity_check",
    "make_cyclotomic", "matrix_A", "rescale_consistency", "taylor_eval_cyclo",
    # series
    "AssociatedMatrix", "CrossCheckError", "DegenerateMatrixError", "IntegerRootError", "SeriesError",
    "SeriesResult", "associated_matrix", "brute_force_sums", "eval_R", "evaluate_sums",
    "fourier_coefficient",
}


def test_public_callables_are_pinned():
    exported = {name for name, value in vars(polytrig).items()
                if not name.startswith("_") and callable(value)}
    assert exported == PUBLIC_CALLABLES


def test_traced_modules_import():
    # bench/tracer.py wraps every module in its MODULES and the benchmark
    # fails if one is missing, so deleting a module (``linalg`` included)
    # must fail here first
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert "linalg" in tracer.MODULES
    for name in tracer.MODULES:
        importlib.import_module(f"polytrig.{name}")


def test_public_constants():
    assert polytrig.MAX_DEGREE == 24
    assert polytrig.__version__ == "0.1.0"


#: every option of every ``polytrig`` subcommand, ``--help`` aside
CLI_OPTIONS = {
    "roots": {"--poly", "--coeffs", "--json"},
    "eval": {"--poly", "--coeffs", "--json", "--l", "--x"},
    "taylor": {"--poly", "--coeffs", "--json", "--l", "--order"},
    "identity": {"--poly", "--coeffs", "--json", "--seed"},
    "cyclo": {"--json", "--seed", "--m", "--l", "--x", "--check"},
    "matrix-c": {"--poly", "--coeffs", "--json", "--descending-columns"},
    "sum": {"--poly", "--coeffs", "--json", "--descending-columns", "--oracle-n"},
    "verify": {"--json", "--seed"},
}


def test_cli_options_are_pinned():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
               for name, p in sub.choices.items()}
    assert options == CLI_OPTIONS

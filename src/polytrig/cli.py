"""Command-line front end.

Subcommands: roots, eval, taylor, identity, cyclo, matrix-c, sum, verify.
Every command emits either aligned text or a JSON document with the stable
top-level keys {command, inputs, results, diagnostics}.  Exit codes: 0 on
success, 2 on input errors, 3 on numerical failures, 1 when verify finds
failing checks.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import cyclotomic, gentrig, series, verify
from .poly import (ParseError, Polynomial, PolynomialError, RootFindingError,
                   find_roots, format_polynomial, parse_complex, parse_polynomial)

EXIT_OK = 0
EXIT_FAILED_CHECKS = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def cformat(z: complex) -> str:
    """Text rendering ``a+bi`` with 12 significant digits; a zero part has no sign."""
    z = complex(z)
    re, im = f"{z.real + 0.0:.12g}", f"{abs(z.imag):.12g}"  # -0.0 + 0.0 is 0.0
    sign = "+" if z.imag >= 0 else "-"
    return f"{re}{sign}{im}i"


def cjson(value) -> dict:
    """The JSON object ``{"re", "im"}`` of a complex: ``json.dumps`` calls it for
    each value it cannot write itself, and any value but a complex raises
    TypeError, since a document holds plain Python values only."""
    if not isinstance(value, complex):
        raise TypeError(f"{type(value).__name__} {value!r} is not a plain document value")
    return {"re": value.real, "im": value.imag}


def _textify(value, indent=""):
    """Text for ``value``: a dict as one ``key: value`` line per key, each
    starting with ``indent``; any other value's continuation lines start
    with ``indent``."""
    if isinstance(value, complex):
        return cformat(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (list, tuple)):
        if value and all(isinstance(v, dict) for v in value):
            # records, one block each under the key, opened by "- "
            pad = indent + "  "
            return "".join(f"\n{indent}- {_textify(v, pad)[len(pad):]}" for v in value)
        parts = [_textify(v, indent) for v in value]
        if any("\n" in p or len(p) > 40 for p in parts):
            inner = "\n".join(indent + "  " + p for p in parts)
            return "[\n" + inner + "\n" + indent + "]"
        return "[" + ", ".join(parts) + "]"
    if isinstance(value, dict):
        lines = []
        for k, v in value.items():
            text = _textify(v, indent + "  ")
            sep = " " if text and not text.startswith("\n") else ""
            lines.append(f"{indent}{k}:{sep}{text}")
        return "\n".join(lines)
    return str(value)


def emit(doc: dict, as_json: bool):
    """Print ``doc`` as JSON or as aligned text.  JSON has no nan or infinity,
    so a non-finite field raises ArithmeticError, a numerical failure."""
    if as_json:
        try:
            text = json.dumps(doc, indent=2, allow_nan=False, default=cjson)
        except ValueError as exc:
            raise ArithmeticError(
                f"{doc['command']} has a field that is not finite; JSON cannot carry it"
            ) from exc
        print(text)
    else:
        print(f"== {doc['command']} ==")
        for section in ("inputs", "results", "diagnostics"):
            print(f"{section}:")
            print(_textify(doc[section], "  ") or "  (none)")


def _get_poly(args) -> Polynomial:
    if getattr(args, "coeffs", None):
        coeffs = [parse_complex(c) for c in args.coeffs.split(",")]
        return Polynomial(tuple(coeffs))
    if not getattr(args, "poly", None):
        raise ParseError("one of --poly or --coeffs is required", 0)
    return parse_polynomial(args.poly)


def cmd_roots(args) -> dict:
    p = _get_poly(args)
    rs = find_roots(p)
    return {
        "command": "roots",
        "inputs": {"poly": format_polynomial(p)},
        "results": {"roots": list(rs.roots)},
        "diagnostics": {"residual": rs.residual, "backward_error": rs.backward_error,
                        "sweeps": rs.sweeps},
    }


def cmd_eval(args) -> dict:
    p = _get_poly(args)
    sys_ = gentrig.make_system(p)
    x = parse_complex(args.x)
    value = gentrig.eval_S(sys_, args.l, x)
    return {
        "command": "eval",
        "inputs": {"poly": format_polynomial(p), "l": args.l, "x": x},
        "results": {"value": value},
        "diagnostics": {"root_residual": sys_.roots.residual},
    }


def cmd_taylor(args) -> dict:
    p = _get_poly(args)
    sys_ = gentrig.make_system(p)
    coeffs = gentrig.taylor_coeffs(sys_, args.l, args.order)
    return {
        "command": "taylor",
        "inputs": {"poly": format_polynomial(p), "l": args.l, "order": args.order},
        "results": {"coefficients": coeffs},
        "diagnostics": {"root_residual": sys_.roots.residual},
    }


def cmd_identity(args) -> dict:
    p = _get_poly(args)
    sys_ = gentrig.make_system(p)
    cert = gentrig.identity_certificate(sys_)
    deviation = verify.certificate_deviation(sys_, cert, np.random.default_rng(args.seed))
    return {
        "command": "identity",
        "inputs": {"poly": format_polynomial(p), "seed": args.seed},
        "results": {
            "eigenvalue": cert.lam,
            "left_vector": cert.L.tolist(),
            "det_reference": cert.det_ref,
        },
        "diagnostics": {
            "eigen_residual": cert.eigen_residual,
            "max_constancy_deviation": deviation,
        },
    }


def cmd_cyclo(args) -> dict:
    sys_ = cyclotomic.make_cyclotomic(args.m)
    inputs = {"m": args.m, "seed": args.seed}
    results: dict = {}
    diagnostics: dict = {}
    if args.check == "identity":
        constant = cyclotomic.det_M_constant(args.m)
        worst = verify.cyclotomic_det_deviation(args.m, np.random.default_rng(args.seed))
        inputs["check"] = "identity"
        results = {"constant": constant, "max_deviation": worst}
        diagnostics = {"samples": verify.SAMPLES, "tolerance": verify.CYCLOTOMIC_DET_TOL,
                       "within_tolerance": bool(worst <= verify.CYCLOTOMIC_DET_TOL)}
    elif args.check == "addition":
        worst = verify.addition_deviation(args.m, np.random.default_rng(args.seed))
        inputs["check"] = "addition"
        results = {"max_deviation": worst}
        diagnostics = {"samples": verify.SAMPLES, "tolerance": verify.ADDITION_TOL,
                       "within_tolerance": bool(worst <= verify.ADDITION_TOL)}
    elif args.check == "matrix-a":
        _, det, fact = cyclotomic.matrix_A(sys_)
        inputs["check"] = "matrix-a"
        results = {"det": det, "det_modulus": abs(det), "factorization_modulus": fact}
        diagnostics = {"modulus_gap": abs(abs(det) - fact)}
    else:
        if args.l is None or args.x is None:
            raise ParseError("cyclo evaluation needs --l and --x (or use --check)", 0)
        x = parse_complex(args.x)
        inputs.update({"l": args.l, "x": x})
        results = {"value": cyclotomic.eval_S_cyclo(sys_, args.l, x)}
        diagnostics = {}
    return {"command": "cyclo", "inputs": inputs, "results": results,
            "diagnostics": diagnostics}


def cmd_matrix_c(args) -> dict:
    p = _get_poly(args)
    sys_ = gentrig.make_system(p)
    am = series.associated_matrix(sys_)
    C = am.C[:, ::-1] if args.descending_columns else am.C
    scaled = C * series.TWO_PI_I
    return {
        "command": "matrix-c",
        "inputs": {"poly": format_polynomial(p),
                   "column_order": "descending" if args.descending_columns else "ascending"},
        "results": {"C": C.tolist(), "two_pi_i_C": scaled.tolist()},
        "diagnostics": {"condition_estimate": am.condition_estimate},
    }


def cmd_sum(args) -> dict:
    p = _get_poly(args)
    res = series.evaluate_sums(p, oracle_n=args.oracle_n)
    order = slice(None, None, -1) if args.descending_columns else slice(None)
    ks = list(range(p.degree))[order]
    return {
        "command": "sum",
        "inputs": {"poly": format_polynomial(p), "oracle_n": args.oracle_n,
                   "power_order": "descending" if args.descending_columns else "ascending"},
        "results": {
            "powers": ks,
            "A": [res.A[k] for k in ks],
            "B": [res.B[k] for k in ks],
        },
        "diagnostics": {
            "condition_estimate": res.condition_estimate,
            "oracle_A": [{"estimate": res.oracle_A[k][0], "error_bar": res.oracle_A[k][1],
                          "gap": abs(res.A[k] - res.oracle_A[k][0])} for k in ks],
            "oracle_B": [{"estimate": res.oracle_B[k][0], "error_bar": res.oracle_B[k][1],
                          "gap": abs(res.B[k] - res.oracle_B[k][0])} for k in ks],
        },
    }


def cmd_verify(args) -> tuple[dict, int]:
    checks = verify.run_all(seed=args.seed)
    for c in checks:
        print(c.line(), file=sys.stderr)
    # the checks compute numpy scalars: their records hold them as plain values
    records = [{"name": c.name, "passed": bool(c.passed), "measured": float(c.measured),
                "threshold": c.threshold, "detail": c.detail} for c in checks]
    passed = sum(r["passed"] for r in records)
    doc = {
        "command": "verify",
        "inputs": {"seed": args.seed},
        "results": {"passed": passed, "failed": len(records) - passed, "checks": records},
        "diagnostics": {"total_seconds": sum(c.seconds for c in checks)},
    }
    return doc, EXIT_OK if passed == len(records) else EXIT_FAILED_CHECKS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polytrig",
        description="Exponential-sum trigonometric systems of a polynomial and "
                    "closed-form two-sided rational series.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, poly=True):
        if poly:
            p.add_argument("--poly", help="polynomial expression, e.g. 'x^3+x^2+1'")
            p.add_argument("--coeffs", help="comma-separated ascending coefficients")
        p.add_argument("--json", action="store_true", help="emit a JSON document")

    def sampled(p):
        p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")

    p = sub.add_parser("roots", help="all roots of the polynomial")
    common(p)
    p = sub.add_parser("eval", help="evaluate the l-th exponential-sum function at x")
    common(p)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--x", required=True, help="complex argument, e.g. '0.3+0.1i'")
    p = sub.add_parser("taylor", help="Taylor coefficients of the l-th function")
    common(p)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--order", type=int, default=20)
    p = sub.add_parser("identity", help="constant-determinant identity certificate")
    common(p)
    sampled(p)
    p = sub.add_parser("cyclo", help="x^m-1 special case: evaluate or run a check")
    common(p, poly=False)
    sampled(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int)
    p.add_argument("--x")
    p.add_argument("--check", choices=["identity", "addition", "matrix-a"])
    p = sub.add_parser("matrix-c", help="the associated matrix C(P)")
    common(p)
    p.add_argument("--descending-columns", action="store_true",
                   help="print columns in descending powers of n")
    p = sub.add_parser("sum", help="closed-form two-sided sums of n^k/P(n)")
    common(p)
    p.add_argument("--descending-columns", action="store_true",
                   help="report powers in descending order")
    p.add_argument("--oracle-n", type=int, default=series.MIN_ORACLE_N)
    p = sub.add_parser("verify", help="run every reproducibility check")
    common(p, poly=False)
    sampled(p)
    return parser


_COMMANDS = {
    "roots": cmd_roots,
    "eval": cmd_eval,
    "taylor": cmd_taylor,
    "identity": cmd_identity,
    "cyclo": cmd_cyclo,
    "matrix-c": cmd_matrix_c,
    "sum": cmd_sum,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "oracle_n", None) is not None and args.oracle_n < series.MIN_ORACLE_N:
        print(f"error: --oracle-n must be at least {series.MIN_ORACLE_N}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.subcommand == "verify":
            doc, code = cmd_verify(args)
            emit(doc, args.json)
            return code
        doc = _COMMANDS[args.subcommand](args)
        emit(doc, args.json)
        return EXIT_OK
    except (ParseError, cyclotomic.CyclotomicError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RootFindingError, gentrig.GenTrigError, series.SeriesError,
            ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PolynomialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

import json

import numpy as np
import pytest

from polytrig import cli, gentrig, series, verify
from polytrig.poly import parse_polynomial


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


SCHEMA_KEYS = ["command", "inputs", "results", "diagnostics"]


def test_roots_json_schema(capsys):
    code, doc = run_json(capsys, "roots", "--poly", "x^2+1")
    assert code == 0
    assert list(doc) == SCHEMA_KEYS
    assert doc["command"] == "roots"
    assert doc["results"]["roots"] == [{"re": 0.0, "im": -1.0}, {"re": 0.0, "im": 1.0}]


def test_roots_diagnostics(capsys):
    code, doc = run_json(capsys, "roots", "--poly", "x^4-4x^3+6x^2-4x+1")  # (x-1)^4
    assert code == 0
    diagnostics = doc["diagnostics"]
    assert list(diagnostics) == ["residual", "backward_error", "sweeps"]
    assert diagnostics["backward_error"] <= 4 * 4 * np.finfo(float).eps
    assert diagnostics["sweeps"] >= 1


def test_coeffs_input(capsys):
    code, doc = run_json(capsys, "roots", "--coeffs", "1,0,1")
    assert code == 0
    assert doc["inputs"]["poly"] == "x^2+1"


def test_constants_are_read_by_the_polynomial_grammar(capsys):
    # --x 0 is the zero constant; each --coeffs entry is a constant too
    code, doc = run_json(capsys, "eval", "--poly", "x^2-1", "--l", "0", "--x", "0")
    assert code == 0 and doc["results"]["value"] == {"re": 2.0, "im": 0.0}
    code, doc = run_json(capsys, "roots", "--coeffs", " 1, 0 ,(0.5+1i)+0.5-i")
    assert code == 0 and doc["results"]["roots"] == [{"re": 0.0, "im": -1.0}, {"re": 0.0, "im": 1.0}]
    code, out, err = run(capsys, "eval", "--poly", "x^2-1", "--l", "0", "--x", "2x")
    assert code == 2 and "expected a constant (at position 1)" in err


def test_eval_text_format(capsys):
    code, out, _ = run(capsys, "eval", "--poly", "x^2+1", "--l", "0", "--x", "1")
    assert code == 0
    assert "3.08616126963+0i" in out  # 2 cosh 1, 12 significant digits


@pytest.mark.parametrize("z, text", [(complex(-0.0, -1.74e-16), "0-1.74e-16i"),
                                     (complex(-0.0, -0.0), "0+0i"),
                                     (complex(-1e-300, 0.0), "-1e-300+0i")])
def test_cformat_has_no_signed_zero(z, text):
    assert cli.cformat(z) == text


def test_sum_text_lists_one_record_per_block(capsys):
    code, out, _ = run(capsys, "sum", "--poly", "x^2+1")
    assert code == 0
    lines = out.splitlines()
    assert "-0" not in lines[lines.index("results:") + 2]  # A, with A_1 = 0-1.7e-16i
    for key in ("oracle_A", "oracle_B"):
        at = lines.index(f"  {key}:")
        block = lines[at + 1:at + 7]
        assert [line.split(":")[0] for line in block] == [
            "    - estimate", "      error_bar", "      gap"] * 2


def test_verify_text_lists_one_record_per_check(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 1
    lines = out.splitlines()
    body = lines[lines.index("  checks:") + 1:lines.index("diagnostics:")]
    record = ["    - name", "      passed", "      measured", "      threshold", "      detail"]
    assert [line.split(":")[0] for line in body] == record * 20  # 18 passed, 2 failed
    assert body[0] == "    - name: associated-matrix reproduction"
    assert "    - name: boundary-jump matrix m=2" in body


def test_eval_complex_argument(capsys):
    code, doc = run_json(capsys, "eval", "--poly", "x^2+1", "--l", "1",
                         "--x", "(0.3+0.1i)")
    assert code == 0
    assert doc["inputs"]["x"] == {"re": 0.3, "im": 0.1}


def test_taylor(capsys):
    code, doc = run_json(capsys, "taylor", "--poly", "x^2+1", "--l", "0",
                         "--order", "4")
    assert code == 0
    coeffs = doc["results"]["coefficients"]
    assert len(coeffs) == 5
    assert coeffs[0] == {"re": pytest.approx(2.0), "im": pytest.approx(0.0)}


def test_identity(capsys):
    code, doc = run_json(capsys, "identity", "--poly", "x^2+1")
    assert code == 0
    assert doc["results"]["det_reference"]["re"] == pytest.approx(4.0)
    assert doc["diagnostics"]["max_constancy_deviation"] < 1e-10


def test_cyclo_eval_and_checks(capsys):
    code, doc = run_json(capsys, "cyclo", "--m", "2", "--l", "1", "--x", "1")
    assert code == 0
    assert doc["results"]["value"]["re"] == pytest.approx(0.8414709848078965)
    for check in ("identity", "addition", "matrix-a"):
        code, doc = run_json(capsys, "cyclo", "--m", "3", "--check", check)
        assert code == 0


def test_sample_points_are_the_sequential_draws():
    rng = np.random.default_rng(5)
    sequential = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(7)]
    assert list(verify.sample_points(np.random.default_rng(5), 7, 2.0)) == sequential


def test_identity_deviation_is_the_verify_helper(capsys):
    code, doc = run_json(capsys, "identity", "--poly", "x^3+x^2+1", "--seed", "5")
    assert code == 0 and doc["inputs"]["seed"] == 5
    sys_ = gentrig.make_system(parse_polynomial("x^3+x^2+1"))
    cert = gentrig.identity_certificate(sys_)
    want = verify.certificate_deviation(sys_, cert, np.random.default_rng(5))
    assert doc["diagnostics"]["max_constancy_deviation"] == want


@pytest.mark.parametrize("check, helper, tolerance", [
    ("identity", verify.cyclotomic_det_deviation, verify.CYCLOTOMIC_DET_TOL),
    ("addition", verify.addition_deviation, verify.ADDITION_TOL),
])
def test_cyclo_checks_are_the_verify_helpers(capsys, check, helper, tolerance):
    code, doc = run_json(capsys, "cyclo", "--m", "3", "--check", check, "--seed", "5")
    assert code == 0
    assert doc["results"]["max_deviation"] == helper(3, np.random.default_rng(5))
    assert doc["diagnostics"]["samples"] == verify.SAMPLES
    assert doc["diagnostics"]["tolerance"] == tolerance
    assert doc["diagnostics"]["within_tolerance"] is True


def test_matrix_c_descending(capsys):
    code, doc = run_json(capsys, "matrix-c", "--poly", "x^3+x^2+1",
                         "--descending-columns")
    assert code == 0
    top = doc["results"]["two_pi_i_C"][0]
    assert [round(c["re"]) for c in top] == [3, 2, 0]


def test_sum_command(capsys):
    code, doc = run_json(capsys, "sum", "--poly", "x^2+1", "--oracle-n", "5000")
    assert code == 0
    assert doc["results"]["powers"] == [0, 1]
    assert doc["results"]["A"][0]["re"] == pytest.approx(3.15334809494, abs=1e-9)
    assert doc["diagnostics"]["oracle_A"][0]["gap"] < 1e-6


def test_determinism(capsys):
    _, out1, _ = run(capsys, "identity", "--poly", "x^3+x^2+1", "--json")
    _, out2, _ = run(capsys, "identity", "--poly", "x^3+x^2+1", "--json")
    assert out1 == out2


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "roots", "--poly", "x^^2")
        assert code == 2
        assert "error:" in err

    def test_missing_poly(self, capsys):
        code, _, err = run(capsys, "roots")
        assert code == 2

    def test_numerical_failure(self, capsys):
        code, _, err = run(capsys, "sum", "--poly", "x^2-1")
        assert code == 3
        assert "numerical failure" in err

    def test_double_roots_in_a_sum_are_numerical(self, capsys):
        code, out, err = run(capsys, "sum", "--poly", "x^4+2x^2+1")  # (x^2+1)^2
        assert code == 3
        assert err.startswith("numerical failure") and out == ""

    def test_double_root_matrix_c_reports_its_estimate(self, capsys):
        # (x^2+1)^2: C(P) is singular to working precision, and matrix-c
        # reports the finite estimate that makes sum refuse it
        code, doc = run_json(capsys, "matrix-c", "--poly", "x^4+2x^2+1")
        assert code == 0
        cond = doc["diagnostics"]["condition_estimate"]
        assert 1e33 < cond < 1e35
        code, out, err = run(capsys, "sum", "--poly", "x^4+2x^2+1")
        assert code == 3 and out == ""
        assert f"working precision (condition estimate {cond:.3e})" in err

    def test_overflow_is_numerical(self, capsys):
        code, _, _ = run(capsys, "eval", "--poly", "x^2+1", "--l", "0",
                         "--x", "10000")
        assert code == 3

    def test_overflowing_sum_names_the_root(self, capsys):
        code, _, err = run(capsys, "sum", "--poly", "x^2+90000")
        assert code == 3
        assert "overflows the exponential for root" in err and "300j" in err

    def test_overflowing_identity_constant_is_numerical(self, capsys):
        # degree 24, roots in [-10, 10]^2: the 24 spectral factors of det M(0) overflow
        rng = np.random.default_rng(0)
        p = gentrig.from_roots(rng.uniform(-10, 10, 24) + 1j * rng.uniform(-10, 10, 24)).poly
        coeffs = ",".join(f"{c.real!r}{c.imag:+.17g}i" for c in p.coeffs)
        code, out, err = run(capsys, "identity", f"--coeffs={coeffs}", "--json")
        assert code == 3
        assert err.startswith("numerical failure") and "not finite" in err
        assert out == ""

    def test_non_finite_json_field_is_numerical(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "certificate_deviation", lambda *args: float("nan"))
        code, out, err = run(capsys, "identity", "--poly", "x^2+1", "--json")
        assert code == 3 and out == ""
        assert err.startswith("numerical failure: identity has a field that is not finite")
        monkeypatch.setattr(gentrig, "eval_S", lambda *args: complex(1.0, float("inf")))
        code, out, err = run(capsys, "eval", "--poly", "x^2+1", "--l", "0", "--x", "1", "--json")
        assert code == 3 and out == ""
        assert err.startswith("numerical failure: eval has a field that is not finite")

    def test_cross_check_failure_is_numerical(self, capsys):
        # roots +-i doubled, plus 2+0.5i
        code, out, err = run(capsys, "sum", "--coeffs=-2-0.5i,1,-4-1i,2,-2-0.5i,1")
        assert code == 3 and out == ""
        assert err.startswith("numerical failure: associated-matrix cross-check failed")

    def test_even_polynomial_identity(self, capsys):
        code, doc = run_json(capsys, "identity", "--poly", "x^6+2x^2+1")
        assert code == 0

    def test_cyclo_identity_refuses_m1(self, capsys):
        code, out, err = run(capsys, "cyclo", "--m", "1", "--check", "identity")
        assert code == 2
        assert err.startswith("error:") and "at least 2" in err
        assert out == ""

    def test_cyclo_order_above_the_cap_is_refused(self, capsys):
        code, out, err = run(capsys, "cyclo", "--m", "25", "--l", "0", "--x", "0.5")
        assert code == 2
        assert err.startswith("error:") and "outside 1..24" in err
        assert out == ""

    @pytest.mark.parametrize("order", ["-1", "-2", "171"])
    def test_taylor_order_out_of_range_is_numerical(self, capsys, order):
        code, out, err = run(capsys, "taylor", "--poly", "x^2+1", "--l", "0", "--order", order)
        assert code == 3
        assert err.startswith("numerical failure") and "order" in err
        assert out == ""

    def test_lapack_failure_is_numerical(self, capsys, monkeypatch):
        def failing(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", failing)
        code, out, err = run(capsys, "sum", "--poly", "x^3+x^2+1")
        assert code == 3
        assert err.startswith("numerical failure") and "Traceback" not in err
        assert "condition estimate inf" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["verify", "--sum-tol", "1"],
        ["verify", "--oracle-n", "1000"],
        ["roots", "--poly", "x^2+1", "--seed", "1"],
        ["sum", "--poly", "x^2+1", "--seed", "1"],
    ])
    def test_removed_flags_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_oracle_n(self, capsys):
        code, _, _ = run(capsys, "sum", "--poly", "x^2+1", "--oracle-n", "10")
        assert code == 2

    def test_oracle_n_limit_is_the_library_constant(self, capsys):
        limit = series.MIN_ORACLE_N
        code, _, err = run(capsys, "sum", "--poly", "x^2+1", "--oracle-n", str(limit - 1))
        assert code == 2 and str(limit) in err
        code, _, _ = run(capsys, "sum", "--poly", "x^2+1", "--oracle-n", str(limit))
        assert code == 0

    def test_oracle_n_defaults_to_the_library_constant(self, capsys):
        code, doc = run_json(capsys, "sum", "--poly", "x^2+1")
        assert code == 0 and doc["inputs"]["oracle_n"] == series.MIN_ORACLE_N

    @pytest.mark.parametrize("command, coeffs", [
        ("roots", ",".join(["1"] * 40)),
        ("sum", ",".join(["1"] + ["0"] * 29 + ["1"])),
        ("sum", ",".join(["1"] + ["0"] * 24 + ["1"])),
    ], ids=["roots-degree-39", "sum-degree-30", "sum-degree-25"])
    def test_coeffs_above_the_degree_cap_are_input_errors(self, capsys, command, coeffs):
        code, out, err = run(capsys, command, "--coeffs", coeffs)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "degree" in err and "maximum 24" in err

    def test_coeffs_at_the_degree_cap_are_accepted(self, capsys):
        code, doc = run_json(capsys, "roots", "--coeffs", ",".join(["1"] * 25))
        assert code == 0 and len(doc["results"]["roots"]) == 24

    def test_cyclo_evaluation_needs_l_and_x(self, capsys):
        code, out, err = run(capsys, "cyclo", "--m", "3")
        assert code == 2 and out == ""
        assert err == "error: cyclo evaluation needs --l and --x (or use --check) (at position 0)\n"


def plain(value):
    """True when ``value`` is a tree of plain Python values, no subclass included."""
    if type(value) is dict:
        return all(map(plain, value.values()))
    if type(value) is list:
        return all(map(plain, value))
    return type(value) in (str, int, float, bool, complex, type(None))


@pytest.mark.parametrize("argv", [
    ["roots", "--poly", "x^3+x^2+1"], ["identity", "--poly", "x^3+x^2+1"],
    ["matrix-c", "--poly", "x^3+x^2+1"], ["sum", "--poly", "x^2+1"],
    ["cyclo", "--m", "6", "--check", "matrix-a"], ["verify"],
], ids=lambda argv: argv[0])
def test_documents_hold_plain_values(capsys, argv):
    args = cli.build_parser().parse_args(argv)
    if args.subcommand == "verify":
        doc, code = cli.cmd_verify(args)  # numpy bools and floats in its check records
        assert code == 1 and doc["results"]["passed"] == 18
    else:
        doc = cli._COMMANDS[args.subcommand](args)
    assert plain(doc)


@pytest.mark.parametrize("value", [np.bool_(True), np.int64(1), np.zeros(2), np.complex64(1j),
                                   object()], ids=lambda v: type(v).__name__)
def test_cjson_refuses_a_value_that_is_not_plain(value):
    with pytest.raises(TypeError, match="is not a plain document value"):
        cli.cjson(value)
    with pytest.raises(TypeError, match="is not a plain document value"):
        json.dumps({"value": value}, default=cli.cjson)


def test_cjson_writes_a_complex():
    assert cli.cjson(1 - 2j) == {"re": 1.0, "im": -2.0}
    assert json.dumps([np.complex128(0.5j)], default=cli.cjson) == '[{"re": 0.0, "im": 0.5}]'


def test_text_breaks_a_long_list_one_item_a_line(capsys):
    # the rows of an 8 x 8 C(P) are longer than 40 characters
    code, out, _ = run(capsys, "matrix-c", "--poly", "x^8+x+2")
    assert code == 0
    lines = out.splitlines()
    for key in ("C", "two_pi_i_C"):
        at = lines.index(f"  {key}: [")
        rows = lines[at + 1:at + 9]
        assert all(row.startswith("      [") and row.endswith("]") for row in rows)
        assert rows[0].count(", ") == 7 and lines[at + 9] == "    ]"

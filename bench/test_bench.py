"""Tests of the benchmark itself: percentiles, gates, inputs, tracing and output.

Run with ``PYTHONPATH=src python -m pytest bench``; they take a few seconds.
"""
import dataclasses
import json
import math

import numpy as np
import pytest

import run
import stats
import tracer
import worker
import workloads
from polytrig import gentrig, series
from polytrig.poly import parse_polynomial

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# ---- percentiles ----

def test_order_statistic_ranks_failures_last():
    inf = math.inf
    values = [3.0, inf, 1.0, 2.0, inf]
    assert stats.order_statistic(values, 0.2) == 1.0
    assert stats.order_statistic(values, 0.6) == 3.0
    assert stats.order_statistic(values, 0.8) == inf
    assert stats.order_statistic([inf, inf], 0.5) == inf
    assert not math.isnan(stats.order_statistic(values, 0.99))


def test_order_statistic_never_rises_when_a_failure_becomes_a_success():
    rng = np.random.default_rng(0)
    for _ in range(200):
        values = list(rng.uniform(1, 10, 20))
        failed = rng.choice(20, 6, replace=False)
        with_failures = [math.inf if i in failed else v for i, v in enumerate(values)]
        fixed = list(with_failures)
        fixed[failed[0]] = 50.0  # a slow success in place of a failure
        for q in (0.5, 0.75, 0.9, 0.99):
            assert stats.order_statistic(fixed, q) <= stats.order_statistic(with_failures, q)


def test_rank_and_beyond():
    assert stats.rank(42, 0.75) == 32 and stats.beyond(42, 0.75) == 10
    assert stats.rank(6000, 0.99) == 5940
    assert stats.rank(1, 0.5) == 1
    with pytest.raises(ValueError):
        stats.rank(0, 0.5)


def test_reported_replaces_inf_with_a_finite_number():
    assert stats.reported(2.5) == 2.5
    assert math.isfinite(stats.reported(math.inf))
    json.dumps(stats.reported(math.inf), allow_nan=False)


# ---- inputs ----

def _key(task):
    return (task.kind, task.poly.coeffs, task.points)


def test_pools_are_seeded_and_share_their_polynomials():
    for name in ("sums", "small", "large"):
        a = workloads.pool(name, 7, rounds=2)
        b = workloads.pool(name, 7, rounds=2)
        c = workloads.pool(name, 8, rounds=2)
        assert a == b and a != c
        # the seed draws points and order; the polynomials are the same
        assert {t.poly.coeffs for t in a} == {t.poly.coeffs for t in c}
        if name != "sums":  # every sums round repeats the paper's three
            assert len({_key(t) for t in a}) == len(a)
        first = workloads.pool(name, 7, rounds=1)
        assert {t.poly.coeffs for t in first} <= {t.poly.coeffs for t in a}
    sums = workloads.pool("sums", 1)
    assert sorted(t.poly.degree for t in sums) == sorted(list(range(2, 9)) * 2)
    large = workloads.pool("large", 1, rounds=1)
    assert sorted(t.poly.degree for t in large) == sorted(workloads.LARGE_DEGREES * 3)
    assert workloads.pool("verify", 1) == [workloads.Task("verify")]


def test_drawn_roots_stay_in_the_documented_domain():
    rng = np.random.default_rng(3)
    for degree in (2, 7, 24):
        for real in (False, True):
            roots = workloads.draw_roots(rng, degree, real)
            assert len(roots) == degree
            assert np.min(np.abs(roots)) >= workloads.MIN_ROOT_MODULUS
            assert np.min(np.abs(roots - np.round(roots.real))) >= workloads.AWAY_FROM_INTEGERS
    poly = workloads.poly_from_roots(workloads.draw_roots(rng, 5, real=True), real=True)
    assert all(c.imag == 0 for c in poly.coeffs)


# ---- gates: each passes the library's answer and fails a perturbed one ----

def _task(kind, text, points=()):
    return workloads.Task(kind, parse_polynomial(text), text, points)


def _points():
    return workloads.draw_points(np.random.default_rng(5))


def test_sums_gate_fails_on_a_perturbed_answer():
    task = _task("sums", "x^2+1")
    res = workloads.op_sums(task)
    workloads.check_sums(task, res)
    off_oracle = dataclasses.replace(res, A=(res.A[0] + 1e-5,) + res.A[1:])
    with pytest.raises(workloads.WrongAnswer):
        workloads.check_sums(task, off_oracle)
    # agrees with its oracle but not with pi*coth(pi)
    shifted = dataclasses.replace(
        res, A=(res.A[0] + 1e-7,) + res.A[1:],
        oracle_A=((res.oracle_A[0][0] + 1e-7, res.oracle_A[0][1]),) + res.oracle_A[1:])
    with pytest.raises(workloads.WrongAnswer):
        workloads.check_sums(task, shifted)


def test_certify_gate_fails_on_a_perturbed_answer():
    task = _task("certify", "x^3+x^2+1", _points())
    sys_, cert, dets = workloads.op_certify(task)
    workloads.check_certify(task, (sys_, cert, dets))
    scale = workloads.hadamard(workloads.certificate_matrix(sys_, cert, task.points[0]))
    bad = [dets[0] + 1e-9 * scale] + dets[1:]
    with pytest.raises(workloads.WrongAnswer):
        workloads.check_certify(task, (sys_, cert, bad))


def test_evaluate_gate_fails_on_a_perturbed_answer():
    task = _task("evaluate", "x^4+x+3", _points())
    sys_, S, R, taylor = workloads.op_evaluate(task)
    workloads.check_evaluate(task, (sys_, S, R, taylor))
    bad_S = [S[0] * (1 + 1e-9)] + S[1:]
    with pytest.raises(workloads.WrongAnswer):
        workloads.check_evaluate(task, (sys_, bad_S, R, taylor))
    bad_taylor = [taylor[0][:3] + [taylor[0][3] + 1e-6] + taylor[0][4:]] + taylor[1:]
    with pytest.raises(workloads.WrongAnswer):
        workloads.check_evaluate(task, (sys_, S, R, bad_taylor))


def test_closed_sums_gate_fails_on_a_perturbed_answer():
    task = next(t for t in workloads.pool("small", 2, rounds=1) if t.kind == "closed_sums")
    res = workloads.op_closed_sums(task)
    workloads.check_closed_sums(task, res)
    bad = dataclasses.replace(res, B=res.B[:-1] + (res.B[-1] * (1 + 1e-5) + 1e-5,))
    with pytest.raises(workloads.WrongAnswer):
        workloads.check_closed_sums(task, bad)


def test_residue_reference_matches_the_known_quadratic_sums():
    a, _, b, _ = workloads.residue_sums(parse_polynomial("x^2+1"))
    assert abs(a[0] - math.pi / math.tanh(math.pi)) < 1e-12
    assert abs(b[0] - math.pi / math.sinh(math.pi)) < 1e-12


def test_verify_gate_needs_exactly_the_two_expected_failures():
    def doc(failing):
        checks = [{"name": n, "passed": n not in failing} for n in
                  ("cubic closed forms", "boundary-jump matrix m=2", "boundary-jump matrix m=6")]
        return json.dumps({"results": {"checks": checks}})

    expected = workloads.EXPECTED_VERIFY_FAILURES
    workloads.check_verify((1, doc(expected)))
    for out in ((0, doc(expected)), (1, doc({"boundary-jump matrix m=2"})),
                (1, doc(expected | {"cubic closed forms"}))):
        with pytest.raises(workloads.WrongAnswer):
            workloads.check_verify(out)


# ---- tracing ----

def test_self_time_excludes_child_spans():
    spans = tracer.Tracer()
    outer, inner = spans.name_index("outer"), spans.name_index("inner")

    def child():
        sum(range(20000))

    def parent():
        for _ in range(3):
            spans.call(inner, child, (), {})
        sum(range(20000))

    spans.call(outer, parent, (), {})
    assert spans.calls[outer] == 1 and spans.calls[inner] == 3
    assert spans.self_ns[outer] + spans.total_ns[inner] == spans.total_ns[outer]
    assert list(spans.parent_id) == [1, 1, 1, 0]
    with pytest.raises(ZeroDivisionError):
        spans.call(inner, lambda: 1 / 0, (), {})
    assert spans.fails[inner] == 1


def test_install_wraps_direct_imports_and_uninstalls():
    original = gentrig.find_roots
    spans = tracer.Tracer()
    uninstall = tracer.install(spans)
    try:
        assert gentrig.find_roots is not original
        assert series.make_system is gentrig.make_system
        gentrig.make_system(parse_polynomial("x^2+1"))
        summary = spans.summary()
        calls = dict(zip(summary["names"], summary["calls"]))
        assert calls["gentrig.make_system"] == 1 and calls["poly.find_roots"] == 1
    finally:
        uninstall()
    assert gentrig.find_roots is original


def test_failure_label_names_type_and_innermost_module():
    with pytest.raises(series.SeriesError) as info:
        series.evaluate_sums(parse_polynomial("x+1"))
    assert worker.failure_label(info.value) == "series.SeriesError"
    with pytest.raises(KeyError) as info:
        {}["missing"]
    assert worker.failure_label(info.value) == "bench.KeyError"


# ---- output ----

def test_describe_counts_an_operation_failed_on_any_pass():
    runner = worker.Runner("small", ["a", "b", "c"])
    ok, bad = worker.Record("certify", 0.001), worker.Record("certify", 0.001, "poly.X")
    out = runner.describe([ok, bad, bad, ok, bad, ok], 1.0)
    assert out["failed_ops"] == [1, 2] and out["unsteady_ops"] == [2]
    assert out["latencies_ms"].count(math.inf) == 3


def test_latencies_follow_the_speed_of_the_nearest_probes():
    runner = worker.Runner("small", ["a"])
    ref = worker.PROBE_REFERENCE_MS["small"] / 1e3
    # 100 operations; a probe after each; the host halves its speed after 50
    runner.probe_s = [ref] * 50 + [2 * ref] * 50
    runner.probe_at = list(range(1, 101))
    out = runner.describe([worker.Record("certify", 0.004)] * 100, 1.0)
    assert out["scaled_ms"][:30] == pytest.approx([4.0] * 30)
    assert out["scaled_ms"][70:] == pytest.approx([2.0] * 30)


def _fake_run(workload, seconds, trace):
    """A short real run of the worker loop over a one-round pool, in this process."""
    runner = worker.Runner(workload, workloads.pool(workload, 1, rounds=1))
    records, elapsed = runner.run(seconds)
    result = {"import_s": 0.1, "numpy": np.__version__, "peak_rss_mb": 50.0,
              "pool_size": len(runner.pool),
              "untraced": runner.describe(records, elapsed)}
    if trace:
        uninstall = runner.start_tracing()
        try:
            traced, elapsed = runner.run(seconds)
        finally:
            uninstall()
        result.update(traced=runner.describe(traced, elapsed),
                      summary=runner.tracer.summary(), cli_import_s=0.1)
    return result


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(monkeypatch, capsys, tmp_path, trace):
    result = _fake_run("small", 0.05, trace)
    monkeypatch.setattr(run, "measure_setup", lambda: ([0.2, 0.3], [0.25, 0.35]))
    monkeypatch.setattr(run, "run_worker", lambda args: (result, 0.25))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    argv = ["--workload", "small", "--seed", "1", "--seconds", "0.05", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] == 15
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert math.isfinite(out["metrics"][m["name"]]["value"])
        assert any(line.strip().startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines)


def test_spec_names_every_workload_once():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(run.TAIL_QUANTILE) == set(run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))

"""Benchmark entry point: one run of one workload, every metric printed with its unit.

Usage (from the root of a checkout):

    python3 bench/run.py --workload sums|small|large|verify --seed N --seconds S --trace 0|1

Set-up is timed first: fresh processes import ``polytrig`` from ``src/`` and
warm up, and ``setup_s`` is the median time from process start to ready, each
scaled to the reference speed of a probe timed in the same process.  The
operations then run in one more fresh process (``worker.py``), with
single-threaded BLAS.  With ``--trace 0`` the result carries the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer
metrics of a traced run.  Human-readable lines come first; the last stdout
line is the JSON result.  A full record of the run goes to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import stats

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
#: nearest-rank percentile reported as ``tail_ms``, fixed per workload so that
#: runs stay comparable: the highest of p50, p75, p90, p95, p99 and p99.9 with
#: at least ten samples beyond it in a 30 s run of the parent commit and a
#: finite value, except on ``small``: its p99 (about 70 beyond) spread by up to
#: 0.19 between runs with different seeds against 0.12 for p95, on a host
#: whose hiccups set the top percent.  Over a fifth of the operations of
#: ``large`` fail (+inf), so its tail is its median; ``verify`` runs too few
#: operations for any percentile to have ten beyond it, so its tail is its
#: median too.
TAIL_QUANTILE = {"sums": 0.75, "small": 0.95, "large": 0.5, "verify": 0.5}

WORKLOADS = ("sums", "small", "large", "verify")
#: time allowed beyond --seconds for set-up, checks and a pass that overruns
GRACE_S = 120


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    return env


def start_worker(args: list, timeout: float):
    """Start worker.py; returns the process and its seconds from start to ``ready``."""
    command = [sys.executable, str(ROOT / "bench" / "worker.py"), *args]
    start = perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], timeout)
        line = proc.stdout.readline() if readable else ""
        ready_s = perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"worker did not get ready (exit code {proc.poll()})")
    except BaseException:
        stop(proc)
        raise
    return proc, ready_s


def stop(proc):
    proc.kill()
    proc.communicate()


def measure_setup() -> tuple[list, list]:
    """Seconds from start to ready of fresh set-up processes: as measured, and scaled."""
    measured, scaled = [], []
    for _ in range(SETUP_PROBES):
        proc, ready_s = start_worker(["--setup-only"], GRACE_S)
        try:
            proc.wait(timeout=GRACE_S)
        except subprocess.TimeoutExpired:
            stop(proc)
            raise
        out = proc.stdout.read()
        proc.stdout.close()
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"set-up probe exited {proc.returncode}")
        measured.append(ready_s)
        scaled.append(ready_s * json.loads(out.strip().splitlines()[-1])["speed_scale"])
    return measured, scaled


def run_worker(args) -> tuple:
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc, ready_s = start_worker(worker_args, GRACE_S)
    try:
        out, _ = proc.communicate(timeout=args.seconds + GRACE_S)
    except BaseException:
        stop(proc)
        raise
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), ready_s


def environment(numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "commit": git_commit()}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def end_to_end(run: dict, workload: str, fail_ratio: float, setup_s: float,
               peak_rss_mb: float) -> dict:
    lat = run["scaled_ms"]  # ms at the probe's reference speed; failures are +inf
    return {
        "p50_ms": stats.order_statistic(lat, 0.5),
        "tail_ms": stats.order_statistic(lat, TAIL_QUANTILE[workload]),
        "success_ratio": 1 - fail_ratio,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(result: dict, names: list) -> dict:
    """Per-operation layer metrics of the traced half, by name.

    ``<span>.calls``, ``<span>.self_s`` and ``<span>.fail`` are per operation;
    ``poly.find_roots.calls_per_poly`` is per input polynomial; ``verify.*.s``
    is ``CheckResult.seconds`` per operation; ``cli.main.self_s`` is the time
    of ``cli.main`` net of ``verify.run_all``.
    """
    summary, traced, untraced = result["summary"], result["traced"], result["untraced"]
    ops = len(traced["latencies_ms"])
    index = {name: i for i, name in enumerate(summary["names"])}

    def field(span, key):
        return summary[key][index[span]] if span in index else 0

    library_ns = sum(ns for name, ns in zip(summary["names"], summary["self_ns"])
                     if not name.startswith("op."))
    mean_op_ms = statistics.fmean(traced["op_ms"])
    failures = traced["failures"]
    untraced_p50 = stats.order_statistic(untraced["scaled_ms"], 0.5)
    traced_p50 = stats.order_statistic(traced["scaled_ms"], 0.5)
    special = {
        "poly.find_roots.calls_per_poly": field("poly.find_roots", "calls") / max(traced["polys"], 1),
        "series.brute_force_sum.points": summary["counters"].get("series.brute_force_sum.points", 0) / ops,
        "cli.import_s": result["cli_import_s"],
        "cli.main.self_s": (field("cli.main", "total_ns") - field("verify.run_all", "total_ns")) / 1e9 / ops,
        "trace.untraced_p50_ms": untraced_p50,
        "trace.traced_p50_ms": traced_p50,
        "trace.overhead_ms": traced_p50 - untraced_p50,
        "trace.library_ms": library_ns / 1e6 / ops,
        "trace.outside_ms": mean_op_ms - library_ns / 1e6 / ops,
        "ops.fail_ratio": sum(failures.values()) / ops,
        "ops.wrong_answer_ratio": failures.get("wrong_answer", 0) / ops,
    }
    metrics = {}
    for name in names:
        span, _, key = name.rpartition(".")
        if name in special:
            value = special[name]
        elif name.startswith("ops.fail."):
            value = failures.get(name[len("ops.fail."):], 0) / ops
        elif name.startswith("verify.") and key == "s":
            value = summary["counters"].get(name, 0) / ops
        elif key == "calls":
            value = field(span, "calls") / ops
        elif key == "fail":
            value = field(span, "fails") / ops
        elif key == "self_s":
            value = field(span, "self_ns") / 1e9 / ops
        else:
            raise BenchError(f"no rule computes per-layer metric {name}")
        metrics[name] = value
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "polytrig" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no polytrig sources (src/polytrig) or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    try:
        setup_times, setup_scaled = measure_setup()
        result, ready_s = run_worker(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_s = statistics.median(setup_scaled)

    run = result["untraced"]
    lat = run["latencies_ms"]
    halves = [run, result["traced"]] if args.trace else [run]
    # attempted and failed count the distinct operations of the pool, each
    # run one or more times; an operation fails if it failed on any pass
    attempted = result["pool_size"]
    failed_ops = [set(h["failed_ops"]) for h in halves]
    failed = len(set.union(*failed_ops))
    unsteady = set.union(*(set(h["unsteady_ops"]) for h in halves))
    unsteady |= set.union(*failed_ops) - set.intersection(*failed_ops)
    failures: dict[str, int] = {}
    for h in halves:
        for label, count in h["failures"].items():
            failures[label] = failures.get(label, 0) + count
    wrong = failures.get("wrong_answer", 0)
    if args.trace:
        metric_specs = spec["per_layer"]
        values = per_layer(result, [m["name"] for m in metric_specs])
    else:
        metric_specs = spec["end_to_end"]
        values = end_to_end(run, args.workload, failed / attempted, setup_s,
                            result["peak_rss_mb"])

    env = environment(result["numpy"])
    q = TAIL_QUANTILE[args.workload]
    ran = sum(len(h["latencies_ms"]) for h in halves)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{run['elapsed_s']:.1f} s measured, {ran} operations in whole passes over "
          f"{attempted} distinct ones (closed loop, one caller)")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted} distinct operations); "
          f"wrong answers {wrong}")
    for label, count in sorted(failures.items()):
        print(f"  failures {label}: {count} of {ran} runs")
    if unsteady:
        print(f"  outcome changed between passes for {len(unsteady)} operations")
    for h in halves:
        if h["first_wrong_answer"]:
            print(f"  first wrong answer: {h['first_wrong_answer']}")
    print(f"tail_ms is p{100 * q:g}, {stats.beyond(len(lat), q)} of {len(lat)} "
          f"samples beyond it; failures rank as +inf")
    if run["probe_ms"] is not None:
        print(f"latencies scaled by a median {run['speed_scale']:.4f} to the probe's reference speed "
              f"(probe median {run['probe_ms']:.3f} ms); unscaled p50 "
              f"{stats.reported(stats.order_statistic(lat, 0.5)):.6g} ms")
    print(f"setup_s over {len(setup_times)} fresh processes, scaled to the probe's reference "
          f"speed: " + ", ".join(f"{t:.3f}" for t in setup_scaled) + "; as measured: "
          + ", ".join(f"{t:.3f}" for t in setup_times) + f"; worker ready after {ready_s:.3f}")

    metrics = {}
    for m in metric_specs:
        value = stats.reported(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']} = {value:.6g} {m['unit']}")

    out = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
           "metrics": metrics}
    record = dict(out, workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=env, tail_percentile=100 * q, setup_times_s=setup_times,
                  setup_scaled_s=setup_scaled, worker_ready_s=ready_s,
                  failures=failures, run=result)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

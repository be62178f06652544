"""One measured run of one workload, in a fresh process started by ``run.py``.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
       python3 bench/worker.py --setup-only

Times ``import polytrig.cli``, warms up, prints ``ready`` (``run.py`` times
process start to this line as set-up).  With ``--setup-only`` it then times
``probe_python`` and exits; otherwise it runs whole passes over the
workload's pool of operations, one operation at a time, until the next pass
would end past ``--seconds``.  Each operation is timed alone; its answer is
checked afterwards.  The last stdout line is a JSON record of the run.  With
``--trace 1`` the first half of the time runs untraced and the second half
runs the same pool traced.
"""
from __future__ import annotations

import argparse
import bisect
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

import tracer  # noqa: E402  (imports neither numpy nor polytrig)

_start = perf_counter()
import polytrig.cli  # noqa: E402
IMPORT_S = perf_counter() - _start

import cmath  # noqa: E402

import numpy  # noqa: E402
import polytrig  # noqa: E402
import workloads  # noqa: E402

#: share of a run's time spent on probes, spread evenly over the run
PROBE_SHARE = 0.05
_SMALL = numpy.random.default_rng(0).random((12, 12)) + 0j
_POINTS = numpy.linspace(-1.0, 1.0, 4000)
_N = numpy.arange(1.0, 400_001.0)
_DESC = numpy.array([1, 0.5, 0.2, -0.3, 0.1, 0.9], dtype=complex)


def probe_python():
    """Scalar cmath and small-array numpy, the profile of ``small`` and ``large``."""
    acc = 0j
    for k in range(2000):
        acc += cmath.exp(-1j * (0.3 + 0.001 * k))
    for _ in range(10):
        numpy.linalg.det(_SMALL)
        numpy.polyval(_DESC, _POINTS)


def probe_array():
    """One oracle-sized pass over 400k complex values, the profile of ``sums``."""
    (_N ** 3 / numpy.polyval(_DESC, _N)).sum()


#: the probe timed between operations of each workload; it calls no polytrig
#: code.  ``verify`` has none: its operations run in fresh processes, and a
#: probe in this process did not track their speed (correlation 0.2 per
#: operation), so it added more noise than it removed.
PROBES = {"sums": probe_array, "small": probe_python, "large": probe_python}
#: median probe time in ms on an Intel Xeon with 2 vCPUs; an operation's
#: latency is scaled by this over the median of the probes nearest to it,
#: which cancels drift in host speed between runs and within a run
PROBE_REFERENCE_MS = {"sums": 25.0, "small": 1.7, "large": 1.7}
#: probes on each side of an operation that set its speed: the host's speed
#: changes within a run, over a few seconds
LOCAL_PROBES = 20
#: runs of ``probe_python`` right after set-up in a ``--setup-only`` process.
#: Set-up is CPU-bound and the host's speed changes between and within runs
#: (set-up medians of 0.21-0.33 s over blocks of seven processes); scaled by
#: its own process's probe, the same blocks read 0.23-0.27 s.
SETUP_PROBE_RUNS = 30


@dataclass(frozen=True)
class Record:
    kind: str
    seconds: float
    failure: str | None = None  # "<module>.<ExceptionType>" or "wrong_answer"
    detail: str = ""  # what a wrong answer got wrong


def failure_label(exc: BaseException) -> str:
    """Exception type and the innermost polytrig module its traceback passes through."""
    module = "bench"
    tb = exc.__traceback__
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("polytrig."):
            module = name[len("polytrig."):]
        tb = tb.tb_next
    return f"{module}.{type(exc).__name__}"


def setup_speed_scale() -> float:
    """Reference over measured median time of ``probe_python``, in this process now."""
    times = []
    for _ in range(SETUP_PROBE_RUNS):
        begun = perf_counter()
        probe_python()
        times.append(perf_counter() - begun)
    return PROBE_REFERENCE_MS["small"] / (1e3 * statistics.median(times))


class Runner:
    """Runs tasks closed-loop, optionally inside op spans of a tracer."""

    def __init__(self, workload: str, pool: list):
        self.workload = workload
        self.pool = pool
        self.tracer: tracer.Tracer | None = None
        self.probe_s: list[float] = []
        self.probe_at: list[int] = []  # operations done before each probe
        self.probe_total = 0.0
        self.child_summary: dict = {}
        self.child_import_s: list[float] = []

    def start_tracing(self):
        """Trace from now on; returns a function that removes the wrappers again."""
        self.tracer = tracer.Tracer()
        if self.workload == "verify":  # the traced CLI child installs its own
            return lambda: None
        return tracer.install(self.tracer)

    def task(self, task) -> Record:
        if task.kind == "verify":
            return self._verify()
        fn = workloads.OPERATIONS[task.kind]
        start = perf_counter()
        try:
            if self.tracer is None:
                out = fn(task)
            else:
                out = self.tracer.call(self.tracer.name_index(f"op.{task.kind}"), fn, (task,), {})
        except Exception as exc:  # a failed operation is data, not a crash
            return Record(task.kind, perf_counter() - start, failure_label(exc))
        seconds = perf_counter() - start
        try:
            workloads.GATES[task.kind](task, out)
        except workloads.WrongAnswer as exc:
            return Record(task.kind, seconds, "wrong_answer", str(exc))
        return Record(task.kind, seconds)

    def _verify(self) -> Record:
        out_file = OUT / "trace-verify.json" if self.tracer is not None else None
        command = workloads.verify_command(ROOT, out_file)
        if out_file is not None:
            out_file.unlink(missing_ok=True)
        start = perf_counter()
        try:
            out = workloads.op_verify(command, ROOT)
        except Exception as exc:  # subprocess.run kills and reaps a timed-out child
            return Record("verify", perf_counter() - start, failure_label(exc))
        seconds = perf_counter() - start
        if out_file is not None and out_file.exists():
            doc = json.loads(out_file.read_text())
            self.child_summary = tracer.merge(self.child_summary, doc["summary"])
            self.child_import_s.append(doc["import_s"])
        try:
            workloads.check_verify(out)
        except (workloads.WrongAnswer, ValueError, KeyError) as exc:
            return Record("verify", seconds, "wrong_answer", str(exc))
        return Record("verify", seconds)

    def run(self, seconds: float) -> tuple[list[Record], float]:
        """Whole passes over the pool, at least one, until the next one would pass ``seconds``.

        Record ``i`` is of operation ``i % len(pool)``.
        """
        records: list[Record] = []
        pass_times: list[float] = []
        self.probe_s = []
        self.probe_at = []
        self.probe_total = 0.0
        start = perf_counter()
        while True:
            begun = perf_counter()
            for t in self.pool:
                records.append(self.task(t))
                self._probe_while_due(start, len(records))
            pass_times.append(perf_counter() - begun)
            elapsed = perf_counter() - start
            if elapsed + statistics.fmean(pass_times) > seconds:
                return records, elapsed

    def describe(self, records: list[Record], elapsed: float) -> dict:
        """The record of one ``run``: latencies, failures and the probe's speed scale.

        ``failed_ops`` are the pool indices of the operations that failed on
        any pass; ``unsteady_ops`` those whose outcome changed between passes.
        """
        failures: dict[str, int] = {}
        outcomes: dict[int, set] = {}
        for i, r in enumerate(records):
            if r.failure is not None:
                failures[r.failure] = failures.get(r.failure, 0) + 1
            outcomes.setdefault(i % len(self.pool), set()).add(r.failure)
        probe_ms = 1e3 * statistics.median(self.probe_s) if self.probe_s else None
        latencies = [r.seconds * 1e3 if r.failure is None else math.inf for r in records]
        scales = self.speed_scales(len(records))
        return {
            "latencies_ms": latencies,
            "scaled_ms": [x * k for x, k in zip(latencies, scales)],
            "op_ms": [r.seconds * 1e3 for r in records],
            "polys": sum(r.kind in ("sums", "certify", "verify") for r in records),
            "failures": failures,
            "failed_ops": sorted(i for i, seen in outcomes.items() if seen != {None}),
            "unsteady_ops": sorted(i for i, seen in outcomes.items() if len(seen) > 1),
            "first_wrong_answer": next(
                (r.detail for r in records if r.failure == "wrong_answer"), ""),
            "elapsed_s": elapsed,
            "probe_ms": probe_ms,
            "speed_scale": statistics.median(scales) if scales else 1.0,
        }

    def speed_scales(self, n: int) -> list[float]:
        """Per operation: the probe's reference time over the median of the nearest probes."""
        if not self.probe_s:
            return [1.0] * n
        ref = PROBE_REFERENCE_MS[self.workload] / 1e3
        local = [ref / statistics.median(self.probe_s[max(0, j - LOCAL_PROBES):j + LOCAL_PROBES + 1])
                 for j in range(len(self.probe_s))]
        # operation i is followed by the first probe taken after more than i operations
        return [local[min(bisect.bisect_right(self.probe_at, i), len(local) - 1)]
                for i in range(n)]

    def _probe_while_due(self, start: float, done: int):
        """Time the workload's probe until probes fill ``PROBE_SHARE`` of the run so far."""
        probe = PROBES.get(self.workload)
        while probe is not None and self.probe_total < PROBE_SHARE * (perf_counter() - start):
            begun = perf_counter()
            probe()
            self.probe_s.append(perf_counter() - begun)
            self.probe_at.append(done)
            self.probe_total += self.probe_s[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print ready, print the probe's speed scale, exit")
    args = parser.parse_args(argv)

    if not Path(polytrig.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: polytrig imported from {polytrig.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    workloads.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"speed_scale": setup_speed_scale()}))
        return 0

    OUT.mkdir(exist_ok=True)
    runner = Runner(args.workload, workloads.pool(args.workload, args.seed))
    seconds = args.seconds / 2 if args.trace else args.seconds
    records, elapsed = runner.run(seconds)
    result = {"import_s": IMPORT_S, "numpy": numpy.__version__, "pool_size": len(runner.pool),
              "untraced": runner.describe(records, elapsed)}
    if args.trace:
        runner.start_tracing()
        traced, elapsed = runner.run(seconds)
        result["traced"] = runner.describe(traced, elapsed)
        if args.workload == "verify":
            result["summary"] = runner.child_summary
            result["cli_import_s"] = statistics.fmean(runner.child_import_s or [0.0])
        else:
            result["summary"] = runner.tracer.summary()
            result["cli_import_s"] = IMPORT_S
            runner.tracer.write_spans(OUT / f"spans-{args.workload}.npz")
    who = resource.RUSAGE_CHILDREN if args.workload == "verify" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

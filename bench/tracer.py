"""Spans around every public polytrig function, recorded from outside the library.

``install`` replaces each public function of the seven modules, in every
namespace that binds it (``gentrig.find_roots``, ``series.make_system``, the
package itself), with one wrapper that records a span: its id, the id of the
span that caused it, the function, start and end in ns and whether it raised.
Spans stay in memory until ``write_spans``.  A span's self time is its
duration minus the time its child spans cover.

This module imports nothing from numpy or polytrig at load time, so a process
can time ``import polytrig.cli`` after importing it.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from time import perf_counter_ns

MODULES = ("poly", "linalg", "gentrig", "cyclotomic", "series", "verify", "cli")


def _brute_force_points(args, kwargs) -> int:
    """P(n) evaluations of one ``brute_force_sum`` call: 2 * limit."""
    alternating = kwargs.get("alternating", args[2] if len(args) > 2 else False)
    n_terms = kwargs.get("n_terms", args[3] if len(args) > 3 else 100_000)
    return 2 * (n_terms if alternating else 4 * n_terms)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.fails: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        #: extra per-name counts: brute-force points, acceptance-check seconds
        self.counters: dict[str, float] = {}
        self.span_id = array("q")
        self.parent_id = array("q")
        self.name_of = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.failed = array("b")
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 1

    def name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            for column in (self.calls, self.fails, self.self_ns, self.total_ns):
                column.append(0)
        return self._index[name]

    def call(self, idx: int, fn, args, kwargs):
        """Run ``fn`` inside a span named ``self.names[idx]``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [sid, 0]
        self._stack.append(frame)
        failed = 0
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            failed = 1
            raise
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.calls[idx] += 1
            self.fails[idx] += failed
            self.self_ns[idx] += duration - frame[1]
            self.total_ns[idx] += duration
            self.span_id.append(sid)
            self.parent_id.append(parent)
            self.name_of.append(idx)
            self.start_ns.append(start)
            self.end_ns.append(end)
            self.failed.append(failed)

    def count(self, key: str, amount: float):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str):
        idx = self.name_index(name)
        call = self.call
        if name == "series.brute_force_sum":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                self.count("series.brute_force_sum.points", _brute_force_points(args, kwargs))
                return call(idx, fn, args, kwargs)
        elif name.startswith("verify."):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                out = call(idx, fn, args, kwargs)
                if hasattr(out, "seconds") and hasattr(out, "passed"):
                    self.count(f"{name}.s", out.seconds)
                return out
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return call(idx, fn, args, kwargs)
        return traced

    def summary(self) -> dict:
        return {
            "names": self.names,
            "calls": self.calls,
            "fails": self.fails,
            "self_ns": self.self_ns,
            "total_ns": self.total_ns,
            "counters": self.counters,
        }

    def write_spans(self, path):
        """All spans as one numpy archive: one column per field, names by index."""
        import numpy as np

        np.savez_compressed(
            path, span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent_id=np.frombuffer(self.parent_id, dtype=np.int64),
            name=np.frombuffer(self.name_of, dtype=np.int64),
            start_ns=np.frombuffer(self.start_ns, dtype=np.int64),
            end_ns=np.frombuffer(self.end_ns, dtype=np.int64),
            failed=np.frombuffer(self.failed, dtype=np.int8),
            names=np.array(self.names))


def install(tracer: Tracer):
    """Wrap every public polytrig function in every module that binds it.

    Returns a function that puts the original functions back.
    """
    namespaces = [importlib.import_module("polytrig")]
    namespaces += [importlib.import_module(f"polytrig.{m}") for m in MODULES]
    wrappers = {}
    replaced = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            home = value.__module__
            if not home.startswith("polytrig."):
                continue
            if value not in wrappers:
                wrappers[value] = tracer.wrap(value, f"{home[len('polytrig.'):]}.{value.__name__}")
            setattr(ns, attr, wrappers[value])
            replaced.append((ns, attr, value))

    def uninstall():
        for ns, attr, value in replaced:
            setattr(ns, attr, value)

    return uninstall


def merge(total: dict, part: dict) -> dict:
    """Add one summary into another (both in the ``Tracer.summary`` format)."""
    if not total:
        return json.loads(json.dumps(part))
    index = {name: i for i, name in enumerate(total["names"])}
    for i, name in enumerate(part["names"]):
        if name not in index:
            index[name] = len(total["names"])
            total["names"].append(name)
            for key in ("calls", "fails", "self_ns", "total_ns"):
                total[key].append(0)
        j = index[name]
        for key in ("calls", "fails", "self_ns", "total_ns"):
            total[key][j] += part[key][i]
    for key, value in part["counters"].items():
        total["counters"][key] = total["counters"].get(key, 0) + value
    return total

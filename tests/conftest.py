"""Fixtures shared by the test files."""
import importlib.util
import sys
from pathlib import Path

import pytest


@pytest.fixture
def bench_workloads(monkeypatch):
    """The benchmark's pool builder and gates, bench/workloads.py, loaded by its path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_polys(bench_workloads):
    """The distinct polynomials of the benchmark's small, large and sums pools."""
    polys = {}
    for name in ("small", "large", "sums"):
        for task in bench_workloads.pool(name, 0):
            polys[task.poly.coeffs] = task.poly
    return list(polys.values())

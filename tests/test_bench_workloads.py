"""Run the benchmark's workloads once, at their traced size.

The benchmark builds its scenarios and filter configs, samples runs and
drives the command line its own way (``bench/workloads.py``). This smoke
test runs that code with the module tests, so a library change that
breaks the benchmark fails here rather than only in a benchmark run.
"""

import importlib
import importlib.util
import os
import sys
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def load_by_path(name, filename):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(BENCH, filename))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workloads(monkeypatch):
    # workloads.py imports the tracer as the top-level module ``tracing``
    monkeypatch.setitem(sys.modules, "tracing",
                        load_by_path("tracing", "tracing.py"))
    return load_by_path("bench_workloads", "workloads.py")


@pytest.mark.parametrize("name", ["batch_moderate", "seq_moderate",
                                  "stationary_cli"])
def test_traced_workload_runs_without_a_failure(workloads, tmp_path, name):
    # The package as the other tests imported it: ``load_library`` would
    # import it afresh, and their classes would no longer be the package's.
    lib = SimpleNamespace(**{m: importlib.import_module(f"elliptrack.{m}")
                             for m in workloads.SUBMODULES})
    work = workloads.make_workload(name, lib, 7, str(tmp_path), traced=True)
    work.setup()
    tally = workloads.Tally()
    work.fixed_work(tally, check=True)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.reasons

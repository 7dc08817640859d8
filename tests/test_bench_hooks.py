"""Guard the functions the benchmark's tracer hooks by name.

The benchmark wraps named package functions (``bench/tracing.py``
``HOOKS``); a refactor that deletes or renames one silently drops its
layer from the traced report. These checks load the hook table by path,
so they run with the module tests.
"""

import gc
import importlib
import importlib.util
import os
import sys
import weakref

import pytest

from elliptrack import batch, sequential, simulation

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "bench", "tracing.py")


def load_hooks():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


@pytest.mark.parametrize("name", [f"{mod}.{fn}"
                                  for mod, fns in load_hooks().items()
                                  for fn in fns])
def test_hooked_function_exists(name):
    mod, fn = name.split(".")
    module = importlib.import_module(f"elliptrack.{mod}")
    assert callable(getattr(module, fn, None))


def test_batch_binds_the_sequential_guarded_solve():
    assert batch._guarded_solve is sequential._guarded_solve


def test_truth_state_has_ellipse():
    assert callable(simulation.TruthState.ellipse)


def test_a_reimported_package_leaves_no_classes_behind():
    # The benchmark imports the package afresh for every set-up; the old
    # copy must be freed, or each set-up raises the run's peak memory.
    saved = {name: mod for name, mod in sys.modules.items()
             if name == "elliptrack" or name.startswith("elliptrack.")}
    try:
        for name in saved:
            del sys.modules[name]
        fresh = importlib.import_module("elliptrack")
        classes = [weakref.ref(cls) for cls in (
            fresh.MeasurementSet, fresh.TruthState, fresh.RunResult,
            fresh.CampaignSummary, fresh.StepDiagnostics)]
        del fresh
    finally:
        for name in [n for n in sys.modules
                     if n == "elliptrack" or n.startswith("elliptrack.")]:
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()
    assert [ref() for ref in classes] == [None] * len(classes)

"""Guard the functions the benchmark's tracer hooks by name.

The benchmark wraps named package functions (``bench/tracing.py``
``HOOKS``); a refactor that deletes or renames one silently drops its
layer from the traced report. These checks load the hook table by path,
so they run with the module tests.
"""

import importlib
import importlib.util
import os

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

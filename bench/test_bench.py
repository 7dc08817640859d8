"""Tests of the benchmark's own machinery: exact counts, hooks and checks.

    python3 -m pytest bench
"""

import json
import os
import statistics
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import PACKAGE, Tally, estimate_problem, load_library, \
    make_workload  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return load_library()


def _ready(lib, name, tmp_path, seed=7):
    wl = make_workload(name, lib, seed, str(tmp_path), traced=True)
    wl.setup()
    return wl


@pytest.fixture(scope="module")
def seq_counts(lib, tmp_path_factory):
    wl = _ready(lib, "seq_moderate", tmp_path_factory.mktemp("seq"))
    tally = Tally()
    counts = [tracing.count_pass(PACKAGE, lambda rec: wl.fixed_work(tally, rec))[0]
              for _ in range(2)]
    return wl, tally, counts


def test_count_passes_with_the_same_seed_are_identical(seq_counts):
    _, tally, (first, second) = seq_counts
    assert tally.failed == 0
    assert first == second
    assert first["missing"] == []
    assert first["scans"] > 0
    assert sum(first["c_calls"].values()) > first["c_calls_in_step"] > 0


def test_orientation_moments_called_once_per_measurement(seq_counts):
    wl, _, (count, _) = seq_counts
    per_scan = count["calls"]["sequential.orientation_moments"] / count["scans"]
    assert per_scan == statistics.fmean(wl.measurement_counts())


def test_hooks_wrap_every_namespace_and_are_undone(lib):
    original = lib.sequential._guarded_solve
    rec = tracing.Recorder()
    with tracing.Hooks(PACKAGE, rec):
        # batch binds its own copy through ``from .sequential import``.
        assert lib.batch._guarded_solve.__wrapped__ is original
        assert lib.sequential._guarded_solve.__wrapped__ is original
        lib.batch._guarded_solve(np.eye(2), np.ones(2), ValueError("singular"))
    assert lib.batch._guarded_solve is original
    assert lib.sequential._guarded_solve is original
    hook, _, dur, self_ns = tracing.span_arrays(rec)
    assert [tracing.HOOK_NAMES[h] for h in hook] == ["sequential._guarded_solve"]
    assert dur[0] == self_ns[0] > 0


def test_missing_hook_is_reported_and_the_run_goes_on(lib):
    hooks = dict(tracing.HOOKS, sequential=tracing.HOOKS["sequential"] + ("gone",))
    rec = tracing.Recorder()
    cfg = lib.simulation.builtin_scenarios(runs=1, seed=3)["moderate"]
    _, scans = lib.simulation.sample_run_data(cfg, 0)
    with tracing.Hooks(PACKAGE, rec, hooks=hooks) as installed:
        lib.sequential.step_sequential(cfg.prior, scans[0], cfg.motion,
                                       cfg.filter_config())
    assert installed.missing == ["sequential.gone"]
    assert rec.scan == 1


def test_missing_step_function_fails_the_run(lib, monkeypatch):
    original = lib.sequential._guarded_solve
    monkeypatch.delattr(lib.batch, "step_batch")
    with pytest.raises(tracing.MissingStepFunction, match="batch.step_batch"):
        with tracing.Hooks(PACKAGE, tracing.Recorder()):
            pass
    assert lib.sequential._guarded_solve is original


def test_nan_scan_is_flagged(lib, tmp_path):
    wl = _ready(lib, "batch_moderate", tmp_path)
    wl.chunks[0] = wl.chunks[0][:1]
    tally = Tally()
    diagnostics = lib.sequential.StepDiagnostics()
    wl.unit(0, tally)
    wl.replay(0, tally, diagnostics, check=True)
    assert tally.failed == 0

    label, scans, truths = wl.chunks[0][0]
    scans = list(scans)
    scans[5] = lib.measurements.MeasurementSet([[np.nan, 0.0], [1.0, 2.0]])
    wl.chunks[0] = [(label, scans, truths)]
    wl.replay(0, tally, diagnostics, check=True)
    # Every estimate from the NaN scan on is flagged, and so is the run.
    assert tally.failed == len(scans) - 5 + 1
    assert "non-finite" in tally.reasons[0]


def test_estimate_problem_flags_each_defect(lib):
    cfg = lib.simulation.builtin_scenarios(runs=1, seed=3)["moderate"]
    prior = cfg.prior
    assert estimate_problem(prior) is None
    state = lib.state
    bad_cov = state.AxisState(prior.axis.mean, [[1.0, 0.0], [0.0, -1.0]])
    asym = state.AxisState(prior.axis.mean, [[1.0, 0.5], [0.0, 1.0]])
    neg_var = state.OrientationState(0.0, -0.1)
    for est in (state.DecoupledEstimate(prior.kin, bad_cov, prior.orient),
                state.DecoupledEstimate(prior.kin, asym, prior.orient),
                state.DecoupledEstimate(prior.kin, prior.axis, neg_var)):
        assert estimate_problem(est) is not None


def test_cli_outputs_are_checked_against_the_replay(lib, tmp_path):
    wl = _ready(lib, "stationary_cli", tmp_path)
    tally = Tally()
    wl.fixed_work(tally, check=True)
    assert tally.failed == 0 and tally.attempted > 0
    assert wl.accuracy is not None

    path = wl.path("est", 0)
    with open(path, "r", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    rows[-1]["axis"]["mean"][0] += 1e-6
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(row) + "\n" for row in rows))
    wl.replay(0, tally, lib.sequential.StepDiagnostics(), check=True)
    assert tally.failed == 1
    assert "track output differs" in tally.reasons[0]


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, key):
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[key]}
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", "stationary_cli", "--seed", "5",
                           "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared

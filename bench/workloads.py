"""The benchmark's workloads and the correctness checks on their outputs.

Every workload is a closed loop in a single process (``jobs=1``): the
next campaign, file or scan starts only when the previous call returned.
A workload has ``units`` throughput units, each with its own inputs:

* ``setup()`` builds the scenarios and the inputs (pre-sampled scans, or
  simulate files) before anything is timed;
* ``unit(u, tally)`` runs unit u once: a whole ``run_scenario`` campaign,
  or ``track`` then ``eval`` over one scan file;
* ``replay(u, tally, diagnostics, check)`` feeds unit u's scans to the
  filter step one call at a time, timing each call from outside. With
  ``check`` it also verifies every estimate, and cross-checks the
  replayed runs against what unit u produced.

The workload seed reaches the library only through
``builtin_scenarios(seed=...)`` and ``simulate --seed``.
"""

import importlib
import json
import math
import os
import sys
import time
from types import SimpleNamespace

import numpy as np

from tracing import PHASE_REPLAY, PHASE_THROUGHPUT

PACKAGE = "elliptrack"
SUBMODULES = ("state", "measurements", "sequential", "batch", "metrics",
              "simulation", "cli")
WORKLOADS = ("seq_moderate", "batch_moderate", "stationary_cli")

# Replayed errors must reproduce the campaign's per-run errors this closely.
REPLAY_TOL = 1e-9
# Relative tolerances of the estimate health check.
SYM_TOL = 1e-10
PSD_TOL = 1e-10
# Failure reasons kept for the run record; the count is always complete.
MAX_REASONS = 20


def load_library():
    """Import the package afresh, dropping any earlier import of it.

    Returns its modules by layer name. A fresh import lets the set-up time
    include the package import on every repetition.
    """
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}")
                              for m in SUBMODULES})


def derived_seed(seed, *path):
    """A 31-bit library seed from the workload seed and a sub-stream path.

    The library seeds run r of a campaign with ``seed XOR r``, so workload
    seeds that differ only in their low bits would replay the same runs;
    hashing through SeedSequence keeps neighbouring workload seeds apart.
    """
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] >> 1)


class Tally:
    """Attempted and failed operations, with the first failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(reason)
        return ok


def estimate_problem(est):
    """Why an estimate is unhealthy, or None when it is healthy.

    Healthy means finite means, symmetric PSD covariances and a finite,
    non-negative orientation variance.
    """
    for name, values in (("kinematic mean", est.kin.mean),
                         ("axis mean", est.axis.mean),
                         ("orientation", (est.orient.mean, est.orient.var))):
        if not np.all(np.isfinite(values)):
            return f"non-finite {name}"
    for name, cov in (("kinematic", est.kin.cov), ("axis", est.axis.cov)):
        if not np.all(np.isfinite(cov)):
            return f"non-finite {name} covariance"
        scale = max(1.0, float(np.abs(cov).max()))
        if np.abs(cov - cov.T).max() > SYM_TOL * scale:
            return f"asymmetric {name} covariance"
        if np.linalg.eigvalsh(cov).min() < -PSD_TOL * scale:
            return f"{name} covariance not PSD"
    if est.orient.var < 0.0:
        return "negative orientation variance"
    return None


def _close(a, b):
    return abs(a - b) <= REPLAY_TOL * max(1.0, abs(a), abs(b))


class _Workload:
    """Shared parts: the timed replay and the traced piece of work.

    Subclasses set ``filter_kind``, ``units``, ``scenario_seeds`` and, in
    ``setup``, ``cfg``, ``fcfg`` and ``chunks``: per unit, the list of
    (label, scans, truth ellipses) it replays.
    """

    filter_kind = None

    def __init__(self, lib):
        self.lib = lib
        # Captured before any tracing hook is installed, so checks do not
        # show up in the per-layer counts.
        self._gwd = lib.metrics.gwd_squared
        self._orient = lib.metrics.orientation_error
        self._ellipse = lib.metrics.ellipse_from_estimate
        self.accuracy = None

    def step_function(self):
        """The filter step, looked up at call time so hooks apply."""
        if self.filter_kind == "sequential":
            return self.lib.sequential.step_sequential
        return self.lib.batch.step_batch

    def replay(self, u, tally, diagnostics, check=False):
        """Replay unit u's runs from the prior; returns per-call ns.

        A run whose step raises counts as failed and adds no latencies.
        """
        step = self.step_function()
        motion, fcfg, prior = self.cfg.motion, self.fcfg, self.cfg.prior
        clock = time.perf_counter_ns
        latencies = []
        for index, (label, scans, truths) in enumerate(self.chunks[u]):
            est = prior
            estimates = []
            run_latencies = []
            try:
                for meas in scans:
                    t0 = clock()
                    est = step(est, meas, motion, fcfg, diagnostics=diagnostics)
                    run_latencies.append(clock() - t0)
                    estimates.append(est)
            except Exception as exc:  # a raising step is a failed operation
                tally.check(False, f"{label}: step raised {exc!r}")
                continue
            latencies.extend(run_latencies)
            if check:
                errors = []
                for t, (est_t, truth) in enumerate(zip(estimates, truths), start=1):
                    problem = estimate_problem(est_t)
                    tally.check(problem is None, f"{label} step {t}: {problem}")
                    errors.append((self._gwd(self._ellipse(est_t), truth),
                                   self._orient(est_t.orient.mean, truth.theta)))
                self._cross_check(u, index, label, estimates, errors, tally)
        return latencies

    def fixed_work(self, tally, rec=None, check=False):
        """Every unit once, each followed by the replay of its scans.

        This is the piece of work a traced run repeats; ``rec``, when
        given, is the span recorder whose phase tag follows the work.
        Returns the filter diagnostics of the replays.
        """
        diagnostics = self.lib.sequential.StepDiagnostics()
        for u in range(self.units):
            if rec is not None:
                rec.phase = PHASE_THROUGHPUT
            try:
                self.unit(u, tally)
            except Exception as exc:  # a raising campaign or command is a failure
                tally.check(False, f"unit {u} raised {exc!r}")
            if rec is not None:
                rec.phase = PHASE_REPLAY
            self.replay(u, tally, diagnostics, check)
        return diagnostics

    def measurement_counts(self):
        """Measurement count of every replayed scan."""
        return [len(m) for chunk in self.chunks for _, scans, _ in chunk for m in scans]


class CampaignWorkload(_Workload):
    """Builtin ``moderate`` with one filter, as campaigns plus a replay.

    Unit u is a ``run_scenario`` campaign of ``runs`` runs under its own
    derived scenario seed; its replay feeds the same runs' pre-sampled
    scans to the step function and checks each run's per-step errors
    against the campaign's.
    """

    scenario = "moderate"

    def __init__(self, lib, seed, filter_kind, units, runs):
        super().__init__(lib)
        self.filter_kind = filter_kind
        self.units = units
        self.runs = runs
        self.scenario_seeds = [derived_seed(seed, u) for u in range(units)]
        self.reference = [None] * units

    def setup(self):
        sim = self.lib.simulation
        self.cfgs = [sim.builtin_scenarios(runs=self.runs, seed=s)[self.scenario]
                     for s in self.scenario_seeds]
        self.cfg = self.cfgs[0]
        self.fcfg = self.cfg.filter_config()
        self.chunks = []
        for u, cfg in enumerate(self.cfgs):
            chunk = []
            for r in range(self.runs):
                truths, scans = sim.sample_run_data(cfg, r)
                chunk.append((f"unit {u} run {r}", scans, [t.ellipse() for t in truths]))
            self.chunks.append(chunk)

    def unit(self, u, tally):
        summary, results = self.lib.simulation.run_scenario(self.cfgs[u], self.filter_kind)
        for res in results:
            tally.check(bool(np.all(np.isfinite(res.gwd_sq)) and
                             np.all(np.isfinite(res.orient_err))),
                        f"unit {u} run {res.run_index}: non-finite error")
        if self.reference[u] is None:
            self.reference[u] = (results, summary.overall_mean_gwd_sq,
                                 summary.overall_mean_orient_err)
            if all(ref is not None for ref in self.reference):
                self.accuracy = tuple(float(np.mean([ref[k] for ref in self.reference]))
                                      for k in (1, 2))
        return summary.runs * summary.steps

    def _cross_check(self, u, r, label, estimates, errors, tally):
        ref = self.reference[u][0][r] if self.reference[u] else None
        ok = (ref is not None and len(errors) == len(ref.gwd_sq) and
              all(_close(g, rg) and _close(o, ro) for (g, o), rg, ro
                  in zip(errors, ref.gwd_sq, ref.orient_err)))
        tally.check(ok, f"{label}: replay differs from the campaign")


class CliWorkload(_Workload):
    """Builtin ``stationary`` through ``simulate``/``track``/``eval`` files.

    Set-up writes one simulate file per unit, from a derived seed. Unit f
    runs ``track --filter batch`` and then ``eval`` on file f; its replay
    runs the library step over the same scans and checks that ``track``
    wrote exactly the replayed estimates and ``eval`` their mean errors.
    """

    scenario = "stationary"
    filter_kind = "batch"

    def __init__(self, lib, seed, files, workdir):
        super().__init__(lib)
        self.units = files
        self.workdir = workdir
        self._to_dict = lib.cli.estimate_to_dict
        self.scenario_seeds = [derived_seed(seed, f) for f in range(files)]
        self.summaries = [None] * files

    def path(self, kind, f):
        return os.path.join(self.workdir, f"{kind}{f}.{'csv' if kind == 'err' else 'jsonl'}")

    def setup(self):
        lib = self.lib
        self.cfg = lib.simulation.builtin_scenarios(seed=self.scenario_seeds[0])[self.scenario]
        self.fcfg = self.cfg.filter_config()
        os.makedirs(self.workdir, exist_ok=True)
        self.steps = []
        self.chunks = []
        for f, file_seed in enumerate(self.scenario_seeds):
            path = self.path("sim", f)
            code = lib.cli.main(["simulate", "--scenario", self.scenario,
                                 "--seed", str(file_seed), "--out", path])
            if code != 0:
                raise RuntimeError(f"simulate exited {code}")
            with open(path, "r", encoding="utf-8") as fh:
                rows = [json.loads(line) for line in fh if line.strip()]
            self.steps.append([row["t"] for row in rows])
            scans = [lib.measurements.MeasurementSet(row["measurements"]) for row in rows]
            truths = [lib.metrics.EllipseParams(row["truth"]["center"],
                                                row["truth"]["theta"],
                                                row["truth"]["axes"]) for row in rows]
            self.chunks.append([(f"file {f}", scans, truths)])

    def unit(self, f, tally):
        cli = self.lib.cli
        track = cli.main(["track", self.path("sim", f), "--scenario", self.scenario,
                          "--filter", self.filter_kind, "--out", self.path("est", f)])
        tally.check(track == 0, f"file {f}: track exited {track}")
        evaluate = cli.main(["eval", self.path("est", f), self.path("sim", f),
                             "--out", self.path("err", f),
                             "--summary-out", self.path("sum", f)])
        tally.check(evaluate == 0, f"file {f}: eval exited {evaluate}")
        return len(self.steps[f])

    def _cross_check(self, f, _, label, estimates, errors, tally):
        try:
            with open(self.path("est", f), "r", encoding="utf-8") as fh:
                rows = [json.loads(line) for line in fh if line.strip()]
            with open(self.path("sum", f), "r", encoding="utf-8") as fh:
                summary = json.load(fh)
        except (OSError, ValueError) as exc:
            tally.check(False, f"{label}: cannot read the pipeline output: {exc}")
            return
        same = len(rows) == len(estimates) and all(
            self._to_dict(t, est) == row for t, est, row in zip(self.steps[f], estimates, rows))
        tally.check(same, f"{label}: track output differs from the library replay")
        gwd = float(np.mean([g for g, _ in errors]))
        orient = float(np.mean([o for _, o in errors]))
        tally.check(_close(summary.get("mean_gwd_sq", math.nan), gwd) and
                    _close(summary.get("mean_orient_err", math.nan), orient),
                    f"{label}: eval summary differs from the replay")
        self.summaries[f] = (gwd, orient)
        if all(s is not None for s in self.summaries):
            self.accuracy = tuple(float(np.mean(col)) for col in zip(*self.summaries))


def make_workload(name, lib, seed, workdir, traced=False):
    """The named workload, at its traced size when ``traced`` is set.

    Untraced, a unit is a one-run campaign (about 0.25 s sequential, 0.04 s
    batch) or one stationary_cli file (about 0.1 s), so that every scan
    repeats many times in a run: in 55 s, about 70-85 times on
    batch_moderate and stationary_cli, and 9 times on seq_moderate. There
    are 1040, 1040 and 1000 replayed scans, at least 10 beyond p99. A
    traced run repeats one fixed piece of work: one campaign of 4 or 16
    runs, or two files.
    """
    if name == "seq_moderate":
        return CampaignWorkload(lib, seed, "sequential", units=1 if traced else 13,
                                runs=4 if traced else 1)
    if name == "batch_moderate":
        return CampaignWorkload(lib, seed, "batch", units=1 if traced else 13,
                                runs=16 if traced else 1)
    if name == "stationary_cli":
        return CliWorkload(lib, seed, files=2 if traced else 5, workdir=workdir)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")

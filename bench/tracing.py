"""Span recorder and call counter for the traced benchmark run.

The recorder wraps public functions of each package module from outside
the package: every namespace that binds a hooked function gets the
wrapper, because modules import each other's functions by name. Spans
(hook, parent, scan id, phase, start, end) are kept in memory as parallel
lists and written out once the run ends. Scans are numbered at the
outermost filter-step call, so a batch step that delegates to the
sequential step still counts as one scan.

The count pass installs the same wrappers plus a ``sys.setprofile``
hook. A C-level call is one ``c_call`` profile event, i.e. a call of a
builtin function or method (numpy's included), and is attributed to the
innermost hooked span that made it. The wrappers' own bookkeeping calls
are excluded, so the counts depend only on the library code.
"""

import json
import sys
import time

import numpy as np

HOOKS = {
    "state": ("symmetrize_psd", "shape_matrix", "clamp_axis_variance"),
    "measurements": ("sample_measurements", "center_measurements",
                     "build_pseudo", "aligned_squares"),
    "sequential": ("step_sequential", "predict", "kalman_center_update",
                   "axis_moments", "update_axis", "orientation_moments",
                   "update_orientation", "_guarded_solve"),
    "batch": ("step_batch", "batch_update_kinematics", "batch_update_axis",
              "batch_update_orientation"),
    "metrics": ("gwd_squared", "matrix_sqrt_2x2", "orientation_error"),
    "simulation": ("run_scenario", "run_single", "sample_run_data",
                   "generate_truth", "summarize"),
    "cli": ("cmd_simulate", "cmd_track", "cmd_eval", "_read_jsonl",
            "estimate_to_dict", "estimate_from_dict"),
}
HOOK_NAMES = tuple(f"{mod}.{fn}" for mod, fns in HOOKS.items() for fn in fns)
# A missing step function makes the workload meaningless; any other
# missing hook (say, a helper deleted by a refactor) is only reported.
STEP_HOOKS = ("sequential.step_sequential", "batch.step_batch")

PHASE_THROUGHPUT = 0
PHASE_REPLAY = 1


class MissingStepFunction(RuntimeError):
    """A filter step function named in STEP_HOOKS no longer exists."""


class Recorder:
    """In-memory spans, as parallel lists, plus the live span stack."""

    def __init__(self):
        self.hook = []
        self.parent = []
        self.scan_of = []
        self.phase_of = []
        self.t0 = []
        self.t1 = []
        self.stack = [-1]
        self.scan = 0
        self.step_depth = 0
        self.phase = PHASE_THROUGHPUT

    def write(self, path):
        """Write the spans as JSON Lines: a header, then one list per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"hooks": HOOK_NAMES,
                                 "fields": ["hook", "parent", "scan", "phase",
                                            "start_ns", "end_ns"]}) + "\n")
            for row in zip(self.hook, self.parent, self.scan_of, self.phase_of,
                           self.t0, self.t1):
                fh.write(json.dumps(row) + "\n")


def _make_wrapper(fn, hid, rec, is_step):
    hook, parent, scan_of, phase_of = rec.hook, rec.parent, rec.scan_of, rec.phase_of
    t0, t1, stack = rec.t0, rec.t1, rec.stack
    clock = time.perf_counter_ns

    if is_step:
        def wrapper(*args, **kwargs):
            if rec.step_depth == 0:
                rec.scan += 1
            rec.step_depth += 1
            idx = len(hook)
            hook.append(hid)
            parent.append(stack[-1])
            scan_of.append(rec.scan)
            phase_of.append(rec.phase)
            t1.append(0)
            stack.append(idx)
            t0.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1[idx] = clock()
                stack.pop()
                rec.step_depth -= 1
    else:
        def wrapper(*args, **kwargs):
            idx = len(hook)
            hook.append(hid)
            parent.append(stack[-1])
            scan_of.append(rec.scan)
            phase_of.append(rec.phase)
            t1.append(0)
            stack.append(idx)
            t0.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1[idx] = clock()
                stack.pop()
    wrapper.__wrapped__ = fn
    return wrapper


class Hooks:
    """Installs span wrappers into every package namespace, and undoes it.

    Use as a context manager. ``missing`` lists the hook names that did
    not resolve; the run goes on without them unless a step function is
    among them.
    """

    def __init__(self, package_name, rec, hooks=HOOKS):
        self.package_name = package_name
        self.rec = rec
        self.hooks = hooks
        self.missing = []
        self.wrapper_codes = set()
        self._patched = []

    def __enter__(self):
        prefix = self.package_name + "."
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and
                      (name == self.package_name or name.startswith(prefix))]
        for mod_name, fns in self.hooks.items():
            module = sys.modules.get(prefix + mod_name)
            for fn_name in fns:
                full = f"{mod_name}.{fn_name}"
                orig = getattr(module, fn_name, None) if module is not None else None
                if not callable(orig):
                    self.missing.append(full)
                    continue
                wrapper = _make_wrapper(orig, HOOK_NAMES.index(full), self.rec,
                                        full in STEP_HOOKS)
                self.wrapper_codes.add(wrapper.__code__)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, orig))
        missing_steps = [h for h in STEP_HOOKS if h in self.missing]
        if missing_steps:
            self.__exit__(None, None, None)
            raise MissingStepFunction(", ".join(missing_steps))
        return self

    def __exit__(self, *exc):
        for ns, attr, orig in reversed(self._patched):
            setattr(ns, attr, orig)
        self._patched.clear()
        return False


class CCallCounter:
    """``sys.setprofile`` hook counting C-level calls per innermost hook."""

    def __init__(self, rec, wrapper_codes):
        self.rec = rec
        self.skip = frozenset(wrapper_codes)
        self.per_hook = [0] * len(HOOK_NAMES)
        self.in_step = 0

    def __call__(self, frame, event, arg):
        if event != "c_call" or frame.f_code in self.skip:
            return
        rec = self.rec
        idx = rec.stack[-1]
        if idx >= 0:
            self.per_hook[rec.hook[idx]] += 1
            if rec.step_depth:
                self.in_step += 1

    def __enter__(self):
        sys.setprofile(self)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False


def span_arrays(rec):
    """Hook ids, phases, durations and self times (ns) of all spans."""
    hook = np.asarray(rec.hook, dtype=np.int64)
    parent = np.asarray(rec.parent, dtype=np.int64)
    dur = np.asarray(rec.t1, dtype=np.int64) - np.asarray(rec.t0, dtype=np.int64)
    child = np.zeros(len(dur), dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    phase = np.asarray(rec.phase_of, dtype=np.int64)
    return hook, phase, dur, dur - child


def in_step_mask(rec):
    """True for spans that run inside an outermost filter-step span."""
    step_ids = {HOOK_NAMES.index(h) for h in STEP_HOOKS}
    inside = [False] * len(rec.hook)
    for i, (hid, par) in enumerate(zip(rec.hook, rec.parent)):
        inside[i] = hid in step_ids or (par >= 0 and inside[par])
    return np.asarray(inside, dtype=bool)


def count_pass(package_name, work):
    """Run ``work(recorder)`` once with wrappers and the C-call counter.

    Returns the exact counts (scans, calls per hook, calls per hook made
    inside a filter step, C-level calls per hook and inside steps, and the
    hooks that did not resolve) and what ``work`` returned.
    """
    rec = Recorder()
    with Hooks(package_name, rec) as hooks:
        with CCallCounter(rec, hooks.wrapper_codes) as counter:
            result = work(rec)
    calls = np.bincount(np.asarray(rec.hook, dtype=np.int64),
                        minlength=len(HOOK_NAMES))
    calls_in_step = np.bincount(np.asarray(rec.hook, dtype=np.int64)[in_step_mask(rec)],
                                minlength=len(HOOK_NAMES))
    return {
        "scans": rec.scan,
        "calls": dict(zip(HOOK_NAMES, calls.tolist())),
        "calls_in_step": dict(zip(HOOK_NAMES, calls_in_step.tolist())),
        "c_calls": dict(zip(HOOK_NAMES, counter.per_hook)),
        "c_calls_in_step": counter.in_step,
        "missing": list(hooks.missing),
    }, result

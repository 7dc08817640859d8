"""elliptrack benchmark: one workload, one process, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): batch_moderate, stationary_cli and, run by
hand only, seq_moderate.
Every workload runs in this single process with ``jobs=1`` and BLAS
pinned to one thread; each campaign, file or scan starts only when the
previous one returned.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh set-ups spread over the run), run-steps per second of the
throughput units and the latency of single filter-step calls in the
replays (each unit and scan at its fastest repetition), and peak
memory. ``--trace 1`` measures the per-layer metrics on a fixed piece of
work instead: spans around each hooked function give self time, an exact
count pass gives calls and C-level calls per scan, and untraced repeats of
the same work give the tracing overhead.

Every run checks the outputs (see workloads.py) and writes a run record
with the machine, versions and seeds under ``.bench_build/bench/``. The
last line of standard output is the JSON result.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_build", "bench")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 9
REPLAYS_PER_ROUND = 3
MIN_TRACED_PASSES = 2
MAX_SPANS = 400_000  # keeps the span file and the traced run's memory small


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quartiles(values):
    """Lower and upper quartile, interpolated within the data."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(len(sorted_values) * q / 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def machine_record():
    """Machine, versions and BLAS settings, read without changing anything."""
    import numpy as np
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git": git_record(),
        "loop": "closed loop, single process, one caller, jobs=1: each "
                "campaign, file or scan starts when the previous call returned",
    }


def git_record():
    """Commit and dirty flag when the root is itself a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30, env=env, check=True).stdout.strip()
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) != os.path.realpath(ROOT):
            raise ValueError("root is not the top of a work tree")
        return {"commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, ValueError, subprocess.SubprocessError):
        return {"commit": "unknown (not a git checkout)", "dirty": None}


def run_untraced(args, workdir):
    """End-to-end metrics: rounds of units and replays, with set-ups between."""
    from workloads import Tally, load_library, make_workload

    def fresh_setup(path):
        t0 = time.perf_counter()
        wl = make_workload(args.workload, load_library(), args.seed, path)
        wl.setup()
        return wl, time.perf_counter() - t0

    # Round r runs unit r % units, then replays that unit's scans three
    # times. Rounds go on until --seconds is used up (judged by the longest
    # round so far), so both phases sample the whole run. The first round
    # of each unit checks its outputs. Further set-ups, each importing the package afresh
    # into a work directory of its own, are spread evenly over the run.
    started = time.perf_counter()
    wl, first_setup = fresh_setup(workdir)
    setups = [first_setup]
    tally = Tally()
    diagnostics = wl.lib.sequential.StepDiagnostics()
    unit_times = [[] for _ in range(wl.units)]
    unit_steps = [0] * wl.units
    passes = [[] for _ in range(wl.units)]
    rounds = 0
    longest = 0.0
    while rounds < wl.units or time.perf_counter() - started + longest <= args.seconds:
        u = rounds % wl.units
        round_start = time.perf_counter()
        try:
            unit_steps[u] = wl.unit(u, tally)
        except Exception as exc:  # a raising campaign or command is a failure
            tally.check(False, f"unit {u} raised {exc!r}")
        else:
            unit_times[u].append(time.perf_counter() - round_start)
        for k in range(REPLAYS_PER_ROUND):
            passes[u].append(wl.replay(u, tally, diagnostics,
                                       check=rounds < wl.units and k == 0))
        rounds += 1
        if (len(setups) < SETUP_REPEATS and
                time.perf_counter() - started >= len(setups) * args.seconds / SETUP_REPEATS):
            setups.append(fresh_setup(os.path.join(workdir, "setup"))[1])
        longest = max(longest, time.perf_counter() - round_start)
    while len(setups) < SETUP_REPEATS:
        setups.append(fresh_setup(os.path.join(workdir, "setup"))[1])

    # Every scan is timed at its fastest repetition. This machine's speed
    # swings by up to 2x, in stretches from milliseconds to whole runs, as
    # neighbours on the host come and go; the fastest of many repetitions
    # spread over the run is its uncontended cost, and it repeats from run
    # to run where medians and quartiles follow the share of the run that
    # was slow. Each replay feeds the same scans from the same prior, so a
    # scan's repetitions are the same call. Percentiles are taken over
    # scans. A unit, at 30-100 ms, rarely runs whole inside a fast stretch,
    # so its rate is a note: its spread over runs exceeds any bound.
    latencies = []
    for u, unit_passes in enumerate(passes):
        scans = sum(len(scans) for _, scans, _ in wl.chunks[u])
        complete = [p for p in unit_passes if len(p) == scans]
        latencies.extend(min(calls) for calls in zip(*complete))
    latencies.sort()
    p50, _ = percentile(latencies, 50) if latencies else (0, 0)
    p99, beyond = percentile(latencies, 99) if latencies else (0, 0)
    timed = [u for u in range(wl.units) if unit_times[u]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "scan_us_p50": (p50 / 1e3, "us"),
        "scan_us_p99": (p99 / 1e3, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s_samples": setups,
        "rounds": rounds,
        "run_steps_per_s": (sum(unit_steps[u] for u in timed) /
                            sum(min(unit_times[u]) for u in timed) if timed else 0.0),
        "unit_repeats": min(len(t) for t in unit_times),
        "unit_rates": [unit_steps[u] / t for u in timed for t in unit_times[u]],
        "scans": len(latencies),
        "replays_per_scan": min(len(p) for p in passes),
        "scans_beyond_p99": beyond,
        "mean_measurements_per_scan": statistics.fmean(wl.measurement_counts()),
        "gwd_sq_mean": wl.accuracy[0] if wl.accuracy else None,
        "orient_err_mean": wl.accuracy[1] if wl.accuracy else None,
        "skipped": diagnostics.as_dict(),
    }
    return metrics, notes, tally, wl


def run_traced(args, workdir):
    """Per-layer metrics from spans, an exact count pass and overhead pairs."""
    import numpy as np

    import tracing
    from workloads import PACKAGE, Tally, load_library, make_workload

    lib = load_library()
    wl = make_workload(args.workload, lib, args.seed, workdir, traced=True)
    wl.setup()
    tally = Tally()
    rec = tracing.Recorder()

    wl.fixed_work(tally, check=True)  # warm-up and output checks
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while len(traced) < MIN_TRACED_PASSES or (time.perf_counter() < deadline and
                                               len(rec.hook) < MAX_SPANS):
        t0 = time.perf_counter()
        wl.fixed_work(tally)
        untraced.append(time.perf_counter() - t0)
        with tracing.Hooks(PACKAGE, rec):
            t0 = time.perf_counter()
            wl.fixed_work(tally, rec)
            traced.append(time.perf_counter() - t0)

    (count, diagnostics), (again, _) = [
        tracing.count_pass(PACKAGE, lambda r: wl.fixed_work(tally, r)) for _ in range(2)]
    identical = count == again
    tally.check(identical, "count passes with the same seed differ")

    hook, phase, dur, self_ns = tracing.span_arrays(rec)
    n_hooks = len(tracing.HOOK_NAMES)
    span_calls = np.bincount(hook, minlength=n_hooks)
    self_total = np.bincount(hook, weights=self_ns, minlength=n_hooks)
    incl_total = np.bincount(hook, weights=dur, minlength=n_hooks)
    traced_wall_ns = sum(traced) * 1e9
    scans = count["scans"]

    metrics = {}
    for h, name in enumerate(tracing.HOOK_NAMES):
        metrics[f"{name}.calls_per_scan"] = (count["calls"][name] / scans, "count")
        per_call = self_total[h] / span_calls[h] / 1e3 if span_calls[h] else 0.0
        metrics[f"{name}.self_us_per_call"] = (float(per_call), "us")
    for module, fns in tracing.HOOKS.items():
        ids = [tracing.HOOK_NAMES.index(f"{module}.{fn}") for fn in fns]
        metrics[f"{module}.self_share"] = (float(self_total[ids].sum() / traced_wall_ns), "ratio")
        c_calls = sum(count["c_calls"][tracing.HOOK_NAMES[h]] for h in ids)
        metrics[f"{module}.c_calls_per_scan"] = (c_calls / scans, "count")
    metrics["filter.skipped_updates"] = (
        sum(diagnostics.as_dict().values()), "count")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    metrics["accuracy.gwd_sq_mean"] = (wl.accuracy[0], "m2")
    metrics["accuracy.orient_err_mean"] = (wl.accuracy[1], "rad")

    phase_share = {}
    for ph, label in ((tracing.PHASE_THROUGHPUT, "throughput"), (tracing.PHASE_REPLAY, "replay")):
        mask = phase == ph
        wall = dur[mask & (np.asarray(rec.parent) < 0)].sum()
        phase_share[label] = {
            name: {"self_share": float(self_ns[mask & (hook == h)].sum() / wall) if wall else 0.0,
                   "incl_share": float(dur[mask & (hook == h)].sum() / wall) if wall else 0.0}
            for h, name in enumerate(tracing.HOOK_NAMES)}
    notes = {
        "missing_hooks": count["missing"],
        "count_passes_identical": identical,
        "scans_in_count_pass": scans,
        "c_calls_in_step_per_scan": count["c_calls_in_step"] / scans,
        "calls_in_step_per_scan": {k: v / scans for k, v in count["calls_in_step"].items()},
        "incl_us_per_call": {name: float(incl_total[h] / span_calls[h] / 1e3) if span_calls[h] else 0.0
                             for h, name in enumerate(tracing.HOOK_NAMES)},
        "phase_shares": phase_share,
        "mean_measurements_per_scan": statistics.fmean(wl.measurement_counts()),
        "traced_passes": len(traced),
        "spans": len(rec.hook),
        "skipped": diagnostics.as_dict(),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    span_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    rec.write(span_path)
    notes["span_file"] = os.path.relpath(span_path, ROOT)
    return metrics, notes, tally, wl


def main(argv=None):
    args = parse_args(argv)
    # Before numpy loads: one BLAS thread, and bytecode kept out of the tree.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.pycache_prefix = os.path.join(ROOT, ".bench_build", "pycache")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "elliptrack", "__init__.py")):
        print(f"bench: no elliptrack sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import elliptrack
    if not os.path.abspath(elliptrack.__file__).startswith(src + os.sep):
        print(f"bench: imported elliptrack from {elliptrack.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from tracing import MissingStepFunction
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; expected one of {WORKLOADS}",
              file=sys.stderr)
        return 2

    started = time.time()
    load_before = os.getloadavg()
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        runner = run_traced if args.trace else run_untraced
        metrics, notes, tally, wl = runner(args, workdir)
    except MissingStepFunction as exc:
        print(f"bench: filter step function missing: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "seeds": {"workload": args.seed, "library": wl.scenario_seeds},
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "wall_s": time.time() - started,
        "machine": dict(machine_record(), loadavg_before=list(load_before)),
        "attempted": tally.attempted, "failed": tally.failed,
        "failure_reasons": tally.reasons,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    record_path = os.path.join(
        OUT_DIR, f"run-{args.workload}-trace{args.trace}-seed{args.seed}-{int(started)}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    machine = record["machine"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{machine['loop']}")
    print(f"machine: {machine['nproc']} cpus, {machine['cpu_model']}, load "
          f"{machine['loadavg'][0]:.2f}, python {machine['python']}, numpy "
          f"{machine['numpy']}, blas threads {machine['blas_threads']['OPENBLAS_NUM_THREADS']}, "
          f"git {machine['git']['commit']}")
    for key, value in notes.items():
        if key not in ("calls_in_step_per_scan", "incl_us_per_call", "phase_shares"):
            print(f"  {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for reason in tally.reasons:
        print(f"  failed: {reason}")
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

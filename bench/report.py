"""Summarize benchmark run records: spreads, layer predictions, baseline.

    python3 bench/report.py [--last N]

Reads the records that ``bench/run.py`` writes under
``.bench_build/bench/``. For every workload it prints the median and the
spread (interquartile range over median) of each end-to-end metric over
its last N untraced runs, then judges every layer-share prediction from
the latest traced run of each workload as confirmed or refuted, and
prints the traced per-call numbers beside the ROADMAP Baseline table.
"""

import argparse
import glob
import json
import os
import statistics

from run import OUT_DIR
from tracing import HOOKS
from workloads import WORKLOADS

SEQ, BATCH, CLI = WORKLOADS
# ROADMAP "Baseline" values in microseconds: per call, and per step.
BASELINE_US = {
    "sequential._guarded_solve": 20.0,
    "state.symmetrize_psd": 10.0,
    "metrics.gwd_squared": 47.0,
    "measurements.sample_measurements": 84.0,
}
BASELINE_STEP_US = {SEQ: (2940.0, 2940.0), BATCH: (430.0, 520.0), CLI: (420.0, 470.0)}
UPDATES = ("sequential.kalman_center_update", "sequential.axis_moments",
           "sequential.update_axis", "sequential.orientation_moments",
           "sequential.update_orientation")


def load_records(last):
    by_key = {}
    for path in sorted(glob.glob(os.path.join(OUT_DIR, "run-*.json")), key=os.path.getmtime):
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        by_key.setdefault((record["workload"], record["trace"]), []).append(record)
    return {key: records[-last:] for key, records in by_key.items()}


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


class Trace:
    """Accessors over one workload's latest traced record."""

    def __init__(self, record, step_us_p50):
        self.metrics = {k: v["value"] for k, v in record["metrics"].items()}
        self.notes = record["notes"]
        self.step_us_p50 = step_us_p50

    def calls(self, hook):
        return self.metrics[f"{hook}.calls_per_scan"]

    def share(self, phase, hook, kind="incl_share"):
        return self.notes["phase_shares"][phase][hook][kind]

    def module_self(self, phase, module):
        return sum(self.share(phase, f"{module}.{fn}", "self_share") for fn in HOOKS[module])

    def in_step(self, hook):
        return self.notes["calls_in_step_per_scan"][hook]

    def us_per_c_call(self):
        return self.step_us_p50 / self.notes["c_calls_in_step_per_scan"]


def predictions(t):
    """(claim, verdict, evidence) for each layer prediction made before measuring.

    ``t`` maps workload name to its Trace. Shares are of the traced wall
    time of a phase: "throughput" (campaigns, or track+eval) or "replay"
    (single step calls).
    """
    s, b, c = t[SEQ], t[BATCH], t[CLI]
    out = []

    def claim(text, ok, evidence):
        out.append((text, ok, evidence))

    seq_core = (s.module_self("throughput", "sequential") +
                s.share("throughput", "state.symmetrize_psd", "self_share"))
    claim("seq_moderate: sequential + state.symmetrize_psd hold > 90% of campaign wall time",
          seq_core > 0.9, f"self share {seq_core:.3f}")
    step = b.share("throughput", "batch.step_batch")
    claim("batch_moderate: the filter step is about 2/3 of campaign wall time",
          0.5 <= step <= 0.8, f"step_batch incl share {step:.3f}")
    sampling = b.share("throughput", "simulation.sample_run_data")
    claim("batch_moderate: simulation.sample_run_data is about 1/5 of campaign wall time",
          0.12 <= sampling <= 0.3, f"incl share {sampling:.3f}")
    gwd = b.share("throughput", "metrics.gwd_squared")
    claim("batch_moderate: metrics.gwd_squared is about 1/10 of campaign wall time",
          0.05 <= gwd <= 0.15, f"incl share {gwd:.3f}")
    per_meas = b.calls("sequential.update_orientation")
    claim("batch_moderate: per-measurement sequential code barely runs",
          per_meas < 0.05, f"update_orientation {per_meas:.4f} calls/scan")

    fixed = (c.module_self("throughput", "cli") +
             sum(c.share("throughput", h) for h in
                 ("sequential.predict", "measurements.center_measurements",
                  "measurements.build_pseudo")) +
             c.share("throughput", "sequential.step_sequential", "self_share") +
             c.share("throughput", "batch.step_batch", "self_share"))
    per_meas = sum(c.share("throughput", h) for h in UPDATES)
    claim("stationary_cli: fixed per-scan work and cli JSON outweigh per-measurement updates",
          fixed > per_meas, f"fixed+cli {fixed:.3f} vs updates {per_meas:.3f} of wall")

    mean_m = s.notes["mean_measurements_per_scan"]
    calls = s.calls("sequential.update_orientation")
    claim("seq_moderate: sequential updates run once per measurement (M per scan)",
          calls >= 0.99 * mean_m, f"{calls:.3f} calls/scan, mean M {mean_m:.3f}")
    for w in (BATCH, CLI):
        sym = t[w].calls("state.symmetrize_psd")
        upd = t[w].calls("sequential.update_orientation")
        claim(f"{w}: sequential/state hooks run a fixed few times per scan, not M times",
              sym <= 5 and upd <= 1, f"symmetrize_psd {sym:.3f}, update_orientation "
              f"{upd:.3f} calls/scan")
    batch_calls = sum(s.calls(f"batch.{fn}") for fn in HOOKS["batch"])
    claim("seq_moderate: batch.* never runs", batch_calls == 0, f"{batch_calls} calls/scan")
    delegated = sum(c.calls(f"batch.{fn}") for fn in HOOKS["batch"][1:])
    batch_self = c.module_self("replay", "batch")
    claim("stationary_cli: batch updates never run (M=1 is delegated), batch self time near 0",
          delegated == 0 and batch_self < 0.02,
          f"batch_update_* {delegated} calls/scan, batch self share {batch_self:.4f}")
    batch_upd = sum(b.share("replay", f"batch.{fn}") for fn in HOOKS["batch"][1:])
    claim("batch_moderate: batch updates carry a material share (> 25%) of the step",
          batch_upd > 0.25, f"batch_update_* incl share of replay {batch_upd:.3f}")

    outside = [h for w in WORKLOADS for h in
               ["measurements.sample_measurements", "metrics.gwd_squared",
                "metrics.matrix_sqrt_2x2", "metrics.orientation_error"] +
               [f"simulation.{fn}" for fn in HOOKS["simulation"]]
               if t[w].in_step(h) > 0]
    claim("sampling, simulation and metrics never run inside a filter step",
          not outside, f"inside a step: {outside or 'none'}")
    inside = all(t[w].in_step("measurements.center_measurements") ==
                 t[w].calls("measurements.center_measurements") for w in WORKLOADS)
    claim("center_measurements always runs inside the step", inside,
          "calls inside step == all calls" if inside else "some calls outside")
    centering = {w: t[w].share("replay", "measurements.center_measurements") for w in WORKLOADS}
    claim("center_measurements weighs most on stationary_cli",
          max(centering, key=centering.get) == CLI,
          ", ".join(f"{w} {v:.3f}" for w, v in centering.items()))
    harness = {w: t[w].module_self("throughput", "simulation") +
               t[w].share("throughput", "measurements.sample_measurements", "self_share")
               for w in (SEQ, BATCH)}
    claim("measurements sampling + simulation weigh more on batch_moderate than seq_moderate",
          harness[BATCH] > harness[SEQ],
          ", ".join(f"{w} {v:.3f}" for w, v in harness.items()))
    gwd = {w: t[w].share("throughput", "metrics.gwd_squared") for w in WORKLOADS}
    claim("metrics.gwd_squared is material (>= 5%) on batch_moderate and stationary_cli only",
          gwd[BATCH] >= 0.05 and gwd[CLI] >= 0.05 and gwd[SEQ] < 0.05,
          ", ".join(f"{w} {v:.3f}" for w, v in gwd.items()))
    cli = {w: sum(t[w].calls(f"cli.{fn}") for fn in HOOKS["cli"]) for w in WORKLOADS}
    cli_self = c.module_self("throughput", "cli")
    claim("cli hooks run on stationary_cli only, where their self time is material (> 10%)",
          cli[SEQ] == 0 and cli[BATCH] == 0 and cli_self > 0.1,
          f"calls/scan {cli}, cli self share {cli_self:.3f}")
    repeat = all(t[w].notes["count_passes_identical"] for w in WORKLOADS)
    claim("c_calls_per_scan repeats exactly", repeat, "two count passes per traced run")
    per_call = {w: t[w].us_per_c_call() for w in WORKLOADS}
    ratio = max(per_call.values()) / min(per_call.values())
    claim("C-level calls inside the step predict scan_us_p50 (us per call within 1.5x)",
          ratio <= 1.5, ", ".join(f"{w} {v:.3f} us" for w, v in per_call.items()))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--last", type=int, default=10,
                        help="untraced runs per workload to summarize")
    args = parser.parse_args(argv)
    records = load_records(args.last)

    print("end-to-end (untraced runs): median, iqr/median")
    for w in WORKLOADS:
        runs = records.get((w, 0), [])
        print(f"{w}: {len(runs)} runs, seeds {[r['seeds']['workload'] for r in runs]}")
        # Names every record has, so records of an older benchmark mix in.
        names = [n for n in (runs[-1]["metrics"] if runs else [])
                 if all(n in r["metrics"] for r in runs)]
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            print(f"  {name:18s} {statistics.median(values):12.5g} "
                  f"{runs[0]['metrics'][name]['unit']:4s} spread {spread(values):.4f}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"  failed_ratio {failed / max(attempted, 1):.6g} ({failed} of {attempted})")

    p50 = {w: statistics.median(r["metrics"]["scan_us_p50"]["value"]
                                for r in records[(w, 0)]) if (w, 0) in records else float("nan")
           for w in WORKLOADS}
    traces = {w: Trace(records[(w, 1)][-1], p50[w]) for w in WORKLOADS if (w, 1) in records}
    if len(traces) == len(WORKLOADS):
        print("\nlayer predictions (latest traced run of each workload):")
        for text, ok, evidence in predictions(traces):
            print(f"  {'CONFIRMED' if ok else 'REFUTED  '} {text}: {evidence}")
    else:
        print(f"\nlayer predictions need a traced run of every workload; have {sorted(traces)}")

    print("\nbaseline cross-check (us; traced numbers include tracing overhead):")
    for hook, base in BASELINE_US.items():
        measured = ", ".join(f"{w} {tr.notes['incl_us_per_call'][hook]:.1f}"
                             for w, tr in traces.items()
                             if tr.notes["incl_us_per_call"][hook] > 0)
        print(f"  {hook:34s} baseline {base:7.1f}  traced {measured}")
    for w, (lo, hi) in BASELINE_STEP_US.items():
        print(f"  {w + ' step p50':34s} baseline {lo:.0f}-{hi:.0f}  untraced median {p50[w]:.1f}")

if __name__ == "__main__":
    main()

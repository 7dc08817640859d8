"""Command-line entry point: simulate, track, eval, and mc subcommands.

Per-step records travel as JSON Lines (one step per line), metric curves
as CSV. Every output is a pure function of (config, seed, tool version);
only the timing fields in the campaign summary and the manifest vary
between invocations.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .errors import ConfigError, EllipTrackError, MalformedRecord, \
    NonFiniteState, StepMisalignment
from .measurements import MeasurementSet, SourceDistribution, _scan
from .metrics import EllipseParams, ellipse_from_estimate, gwd_squared, \
    orientation_error
from .sequential import StepDiagnostics
from .simulation import FILTER_KINDS, ScenarioConfig, TrajectorySpec, \
    _is_real, builtin_scenarios, run_scenario, sample_run_data, step_function
from .state import (AxisState, DecoupledEstimate, KinematicState, MotionModel,
                    OrientationState)

# Each error the commands raise, its exit code and its stderr prefix, most
# specific first: an error takes the first row it is an instance of.
EXITS = (
    (ConfigError, 2, "config error"),
    (OSError, 3, "i/o error"),
    (MalformedRecord, 4, "malformed record"),
    (StepMisalignment, 5, "step misalignment"),
    (NonFiniteState, 6, "non-finite result"),
    (EllipTrackError, 1, "error"),
)

SIM_SCHEMA = "elliptrack.sim-steps/1"
ESTIMATE_SCHEMA = "elliptrack.estimates/1"
ERRORS_SCHEMA = "elliptrack.step-errors/1"
SUMMARY_SCHEMA = "elliptrack.mc-summary/1"
MANIFEST_SCHEMA = "elliptrack.manifest/1"


# ---------------------------------------------------------------------------
# config (de)serialization

# A scenario config holds the fields of ScenarioConfig and of the configs
# nested in it, in declaration order; these fields take another JSON key.
_KEYS = {"lam": "lambda", "kin": "kinematics", "orient": "orientation"}
_NESTED = {"prior": DecoupledEstimate, "kin": KinematicState,
           "axis": AxisState, "orient": OrientationState,
           "motion": MotionModel, "trajectory": TrajectorySpec,
           "source_dist": SourceDistribution}


def _encode(value):
    if dataclasses.is_dataclass(value):
        return {_KEYS.get(f.name, f.name): _encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if isinstance(value, SourceDistribution):
        return value.value
    return value


def _decode(kind, value, key: str):
    """``value``, read from under ``key``, as a ``kind``: a config
    dataclass from the keys of its fields, a missing key taking the
    field's default if it has one; the source distribution by its name."""
    if not dataclasses.is_dataclass(kind):
        return kind(value)
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {json.dumps(value)}")
    fields = {}
    for f in dataclasses.fields(kind):
        name = _KEYS.get(f.name, f.name)
        if name in value or f.default is dataclasses.MISSING:
            fields[f.name] = value[name] if f.name not in _NESTED \
                else _decode(_NESTED[f.name], value[name], name)
    return kind(**fields)


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """The JSON object of ``cfg``: arrays and tuples become lists."""
    return _encode(cfg)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """The config of a JSON object; any defect raises :class:`ConfigError`."""
    try:
        return _decode(ScenarioConfig, data, "scenario config")
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"invalid scenario config: {exc}") from exc


def resolve_scenario(name_or_path: str, seed: Optional[int] = None,
                     runs: Optional[int] = None) -> ScenarioConfig:
    """Load a builtin scenario by name or a JSON config by path."""
    builtins = builtin_scenarios()
    if name_or_path in builtins:
        cfg = builtins[name_or_path]
    else:
        if not os.path.exists(name_or_path):
            raise ConfigError(f"{name_or_path!r} is neither a builtin scenario "
                              f"({', '.join(sorted(builtins))}) nor a config file")
        with open(name_or_path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        cfg = scenario_from_dict(data)
    overrides = {key: value for key, value in (("seed", seed), ("runs", runs))
                 if value is not None}
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


# ---------------------------------------------------------------------------
# per-step record (de)serialization

def truth_to_dict(t: int, truth) -> dict:
    return {"t": t,
            "truth": {"center": truth.center.tolist(),
                      "theta": truth.theta,
                      "axes": truth.axes.tolist(),
                      "velocity": truth.velocity.tolist()}}


def estimate_to_dict(t: int, est: DecoupledEstimate) -> dict:
    # Covariances are flattened row-major (state.DecoupledEstimate).
    floats = est._floats
    return {"t": t,
            "kinematics": {"dim": 4,
                           "mean": list(floats[0:4]),
                           "cov": list(floats[4:20])},
            "axis": {"dim": 2,
                     "mean": list(floats[20:22]),
                     "cov": list(floats[22:26])},
            "orientation": {"mean": floats[26], "var": floats[27]}}


def _real(value, key: str):
    """``value`` if it is a real JSON number or a flat JSON array of them;
    otherwise, a boolean or a string say, raise ``TypeError`` naming
    ``key``. Numbers follow the rule of :func:`simulation._is_real`."""
    if not (_is_real(value)
            or isinstance(value, list) and all(map(_is_real, value))):
        raise TypeError(f"{key} must be a real number or an array of them, "
                        f"got {json.dumps(value)}")
    return value


def estimate_from_dict(data: dict) -> DecoupledEstimate:
    """The estimate of a record that :func:`estimate_to_dict` writes; a
    value that is not a real JSON number raises ``TypeError``."""
    kin, axis, orient = data["kinematics"], data["axis"], data["orientation"]
    kin_dim, axis_dim = kin["dim"], axis["dim"]
    return DecoupledEstimate(
        kin=KinematicState(_real(kin["mean"], "kinematics mean"),
                           np.array(_real(kin["cov"], "kinematics cov"))
                           .reshape(kin_dim, kin_dim)),
        axis=AxisState(_real(axis["mean"], "axis mean"),
                       np.array(_real(axis["cov"], "axis cov"))
                       .reshape(axis_dim, axis_dim)),
        orient=OrientationState(_real(orient["mean"], "orientation mean"),
                                _real(orient["var"], "orientation var")),
    )


def _is_point(pair) -> bool:
    return (isinstance(pair, list) and len(pair) == 2
            and _is_real(pair[0]) and _is_real(pair[1]))


def _scan_of(row: dict, line_number: int) -> MeasurementSet:
    """The scan of a record: its ``measurements``, a JSON array of [x, y]
    pairs of finite real numbers (:func:`simulation._is_real`), read
    straight into the two float columns of a :class:`MeasurementSet`.
    Anything else is malformed."""
    pairs = row.get("measurements")
    if not (isinstance(pairs, list) and all(map(_is_point, pairs))):
        raise MalformedRecord(line_number, "'measurements' must be a JSON "
                              "array of [x, y] pairs of real numbers")
    try:
        col1, col2 = [float(x) for x, _ in pairs], [float(y) for _, y in pairs]
    except OverflowError as exc:  # an integer too large for a float
        raise MalformedRecord(line_number, str(exc)) from exc
    if not (all(map(math.isfinite, col1)) and all(map(math.isfinite, col2))):
        raise MalformedRecord(line_number, "non-finite measurement value")
    return _scan(col1, col2)


def _read_jsonl(path: str) -> list:
    """Parse a JSON Lines file of objects into (line number, object) pairs.

    Line numbers count every line of the file, so error messages point at
    the right line even after blank lines, which are skipped. Each line
    is decoded as UTF-8 on its own, so a line that is not UTF-8 is named
    too. A file without a single record is malformed.
    """
    rows = []
    line_number = 0
    with open(path, "rb") as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line.decode("utf-8"))
            # ValueError covers bad UTF-8 and bad JSON; RecursionError
            # a nesting too deep for the decoder.
            except (ValueError, RecursionError) as exc:
                raise MalformedRecord(line_number, str(exc)) from exc
            if not isinstance(row, dict):
                raise MalformedRecord(line_number, "not a JSON object")
            rows.append((line_number, row))
    if not rows:
        raise MalformedRecord(line_number, f"{path} holds no records")
    return rows


def _step_index(row: dict, line_number: int) -> int:
    """The step index ``t`` of a record: a JSON integer, not a bool, float
    or string. Anything else, or no ``t`` at all, is malformed."""
    if "t" not in row:
        raise MalformedRecord(line_number, "no step index 't'")
    t = row["t"]
    if type(t) is not int:
        raise MalformedRecord(line_number, f"step index 't' must be an "
                              f"integer, got {json.dumps(t)}")
    return t


def _write_atomic(path: str, content: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(content)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args) -> int:
    cfg = resolve_scenario(args.scenario or args.config, seed=args.seed)
    truths, measurement_sets = sample_run_data(cfg, 0)
    lines = []
    for idx, (truth, meas) in enumerate(zip(truths, measurement_sets)):
        row = truth_to_dict(idx + 1, truth)
        row["measurements"] = list(zip(*meas._cols))
        lines.append(json.dumps(row))
    _write_atomic(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_track(args) -> int:
    cfg = resolve_scenario(args.scenario or args.config)
    step = step_function(args.filter)
    fcfg = cfg.filter_config()
    est = cfg.prior
    diagnostics = StepDiagnostics()
    lines = []
    for line_number, row in _read_jsonl(args.measurements):
        t = _step_index(row, line_number)
        meas = _scan_of(row, line_number)
        try:
            est = step(est, meas, cfg.motion, fcfg, diagnostics=diagnostics)
            lines.append(json.dumps(estimate_to_dict(t, est), allow_nan=False))
        # ValueError: json's allow_nan, for a state that went non-finite
        # where the step does not look.
        except (NonFiniteState, ValueError) as exc:
            raise MalformedRecord(line_number, "the estimate after this step "
                                  "is not finite") from exc
    _write_atomic(args.out, "\n".join(lines) + "\n")
    return 0


def _ellipse_from_row(row: dict, line_number: int, kind: str) -> EllipseParams:
    try:
        if kind == "truth":
            body = row["truth"]
            ellipse = EllipseParams(_real(body["center"], "truth center"),
                                    _real(body["theta"], "truth theta"),
                                    _real(body["axes"], "truth axes"))
        else:
            ellipse = ellipse_from_estimate(estimate_from_dict(row))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedRecord(line_number, str(exc)) from exc
    values = [*ellipse.center, ellipse.theta, *ellipse.semi_axes]
    if not np.isfinite(values).all():
        raise MalformedRecord(line_number, f"non-finite {kind} value")
    return ellipse


def cmd_eval(args) -> int:
    est_rows = _read_jsonl(args.estimates)
    truth_rows = _read_jsonl(args.truth)
    if len(est_rows) != len(truth_rows):
        raise StepMisalignment(f"{len(est_rows)} estimate steps vs "
                               f"{len(truth_rows)} truth steps")
    records = []
    for (est_line, est_row), (truth_line, truth_row) in zip(est_rows, truth_rows):
        t = _step_index(est_row, est_line)
        truth_t = _step_index(truth_row, truth_line)
        if t != truth_t:
            raise StepMisalignment(f"step index mismatch at estimate line "
                                   f"{est_line}, truth line {truth_line}: "
                                   f"{t} vs {truth_t}")
        est_ellipse = _ellipse_from_row(est_row, est_line, "estimate")
        truth_ellipse = _ellipse_from_row(truth_row, truth_line, "truth")
        gwd_sq = gwd_squared(est_ellipse, truth_ellipse)
        if not np.isfinite(gwd_sq):
            raise MalformedRecord(est_line, "squared distance to truth line "
                                  f"{truth_line} overflows")
        records.append((t, gwd_sq,
                        orientation_error(est_ellipse.theta, truth_ellipse.theta)))
    out = ["t,gwd_sq,orient_err"]
    out.extend(f"{t},{g!r},{o!r}" for t, g, o in records)
    _write_atomic(args.out, "\n".join(out) + "\n")
    summary = {
        "schema": SUMMARY_SCHEMA,
        "steps": len(records),
        "mean_gwd_sq": float(np.mean([g for _, g, _ in records])),
        "mean_orient_err": float(np.mean([o for _, _, o in records])),
    }
    summary_path = args.summary_out or _default_summary_path(args.out)
    _write_atomic(summary_path,
                  json.dumps(summary, indent=2, allow_nan=False) + "\n")
    return 0


def _default_summary_path(csv_path: str) -> str:
    base, _ = os.path.splitext(csv_path)
    return base + ".summary.json"


def cmd_mc(args) -> int:
    started = time.perf_counter()
    cfg = resolve_scenario(args.scenario, seed=args.seed, runs=args.runs)
    summary, _ = run_scenario(cfg, args.filter, jobs=args.jobs)
    summary_doc = {
        "schema": SUMMARY_SCHEMA,
        "scenario": summary.scenario,
        "filter": summary.filter_kind,
        "runs": summary.runs,
        "steps": summary.steps,
        "results": {
            "overall_mean_gwd_sq": summary.overall_mean_gwd_sq,
            "overall_mean_orient_err": summary.overall_mean_orient_err,
            "diagnostics": summary.diagnostics,
        },
        "timing": {
            "mean_step_runtime_seconds": summary.mean_step_runtime,
        },
    }
    # A non-finite per-step error makes its overall mean non-finite too, so
    # this check comes before anything is written.
    try:
        summary_text = json.dumps(summary_doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteState("a campaign score is not finite: a filter state "
                             "or its error overflowed") from exc
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "per_step_errors.csv")
    summary_path = os.path.join(args.out, "summary.json")
    manifest_path = os.path.join(args.out, "manifest.json")
    rows = ["t,mean_gwd_sq,mean_orient_err"]
    rows.extend(f"{t + 1},{float(summary.per_step_mean_gwd_sq[t])!r},"
                f"{float(summary.per_step_mean_orient_err[t])!r}"
                for t in range(summary.steps))
    _write_atomic(csv_path, "\n".join(rows) + "\n")
    _write_atomic(summary_path, summary_text + "\n")

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "tool_version": __version__,
        "command": "mc",
        "scenario": args.scenario,
        "config": scenario_to_dict(cfg),
        "filter": args.filter,
        "seed": cfg.seed,
        "runs": cfg.runs,
        "outputs": {
            "per_step_errors": {"path": csv_path, "schema": ERRORS_SCHEMA},
            "summary": {"path": summary_path, "schema": SUMMARY_SCHEMA},
        },
        "formats": {
            "sim_steps": SIM_SCHEMA,
            "estimates": ESTIMATE_SCHEMA,
            "step_errors": ERRORS_SCHEMA,
            "summary": SUMMARY_SCHEMA,
        },
        "wall_clock_seconds": time.perf_counter() - started,
    }
    _write_atomic(manifest_path,
                  json.dumps(manifest, indent=2, allow_nan=False) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elliptrack",
        description="Elliptical extended object tracking experiments.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_opts(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--scenario", help="builtin scenario name")
        group.add_argument("--config", help="path to a JSON scenario config")

    p_sim = sub.add_parser("simulate", help="write one run of truth and measurements")
    add_scenario_opts(p_sim)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_track = sub.add_parser("track", help="run a filter over a measurement file")
    p_track.add_argument("measurements", help="JSON Lines file from simulate")
    add_scenario_opts(p_track)
    p_track.add_argument("--filter", choices=FILTER_KINDS, default="sequential")
    p_track.add_argument("--out", required=True)
    p_track.set_defaults(func=cmd_track)

    p_eval = sub.add_parser("eval", help="score estimates against the truth")
    p_eval.add_argument("estimates")
    p_eval.add_argument("truth")
    p_eval.add_argument("--out", required=True, help="per-step error CSV")
    p_eval.add_argument("--summary-out", default=None,
                        help="summary JSON path (default: alongside the CSV)")
    p_eval.set_defaults(func=cmd_eval)

    p_mc = sub.add_parser("mc", help="run a Monte-Carlo campaign")
    p_mc.add_argument("scenario", help="builtin name or config path")
    p_mc.add_argument("--filter", choices=FILTER_KINDS, default="sequential")
    p_mc.add_argument("--runs", type=int, default=None)
    p_mc.add_argument("--seed", type=int, default=None)
    p_mc.add_argument("--jobs", type=int, default=1)
    p_mc.add_argument("--out", required=True, help="output directory")
    p_mc.set_defaults(func=cmd_mc)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(error for error, _, _ in EXITS) as exc:
        code, prefix = next((code, prefix) for error, code, prefix in EXITS
                            if isinstance(exc, error))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

"""The output stream, pinned bit for bit.

Short campaigns of every builtin scenario under both filters are compared
with the per-step GWD^2 and orientation errors recorded in
``output_stream.json``, as ``float.hex`` strings. The ``track`` output of
a short ``stationary`` and ``moderate`` measurement file under both
filters is compared with the lines recorded there, byte for byte, and so
is the JSON config of every builtin scenario. A change that moves any
last bit or byte fails here. Such a change must bump ``__version__`` and
re-record the file on purpose:

    PYTHONPATH=src python tests/test_output_stream.py

The script refuses to overwrite a record made at the current version
with one that differs from it in any key both hold, so a changed stream
cannot be re-recorded without the version bump; a key the old record
lacks is added.
"""

import dataclasses
import json
import os
import sys
import tempfile

import pytest

from elliptrack import __version__, builtin_scenarios, run_scenario
from elliptrack.cli import main, scenario_to_dict
from elliptrack.simulation import FILTER_KINDS

RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "output_stream.json")
RUNS, STEPS, SEED = 3, 20, 7


def short_campaign(cfg):
    """``cfg`` cut to RUNS runs of its first STEPS steps."""
    segments, left = [], STEPS
    for count, rate in cfg.trajectory.segments:
        if left:
            segments.append((min(count, left), rate))
            left -= segments[-1][0]
    trajectory = dataclasses.replace(cfg.trajectory, segments=tuple(segments))
    return dataclasses.replace(cfg, runs=RUNS, trajectory=trajectory)


def campaign_errors(scenario, filter_kind):
    cfg = short_campaign(builtin_scenarios(seed=SEED)[scenario])
    _, results = run_scenario(cfg, filter_kind)
    return {"gwd_sq": [list(map(float.hex, r.gwd_sq.tolist())) for r in results],
            "orient_err": [list(map(float.hex, r.orient_err.tolist()))
                           for r in results]}


def track_lines(scenario, filter_kind, workdir):
    """The ``track`` output, as text lines, of the first STEPS lines of a
    ``simulate`` file of builtin ``scenario`` at SEED."""
    sim, short, out = (os.path.join(workdir, name)
                       for name in ("sim.jsonl", "short.jsonl", "est.jsonl"))
    assert main(["simulate", "--scenario", scenario, "--seed", str(SEED),
                 "--out", sim]) == 0
    with open(sim, "rb") as src, open(short, "wb") as dst:
        dst.writelines(src.readlines()[:STEPS])
    assert main(["track", short, "--scenario", scenario, "--filter",
                 filter_kind, "--out", out]) == 0
    with open(out, "rb") as fh:
        return fh.read().decode("utf-8").splitlines()


def config_text(scenario):
    """The JSON config of builtin ``scenario``, indented."""
    return json.dumps(scenario_to_dict(builtin_scenarios()[scenario]), indent=2)


CASES = [f"{scenario}/{kind}" for scenario in builtin_scenarios()
         for kind in FILTER_KINDS]
TRACK_CASES = [f"{scenario}/{kind}" for scenario in ("stationary", "moderate")
               for kind in FILTER_KINDS]


def record():
    with tempfile.TemporaryDirectory() as workdir:
        track = {case: track_lines(*case.split("/"), workdir)
                 for case in TRACK_CASES}
    new = {"version": __version__, "runs": RUNS, "steps": STEPS, "seed": SEED,
           "errors": {case: campaign_errors(*case.split("/"))
                      for case in CASES},
           "track": track,
           "config": {scenario: config_text(scenario)
                      for scenario in builtin_scenarios()}}
    if os.path.exists(RECORD):
        with open(RECORD, encoding="utf-8") as fh:
            old = json.load(fh)
        if old.get("version") == __version__ and any(
                old[key] != new[key] for key in old.keys() & new.keys()):
            sys.exit(f"refusing to re-record {RECORD}: it was recorded at "
                     f"version {__version__} and the output stream differs "
                     f"from it; bump __version__ first")
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(new, fh, indent=1)
        fh.write("\n")


@pytest.fixture(scope="module")
def recorded():
    with open(RECORD, encoding="utf-8") as fh:
        return json.load(fh)


def test_record_matches_the_campaign_shape(recorded):
    assert (recorded["runs"], recorded["steps"], recorded["seed"]) == (
        RUNS, STEPS, SEED)
    assert sorted(recorded["errors"]) == sorted(CASES)
    assert sorted(recorded["track"]) == sorted(TRACK_CASES)
    assert sorted(recorded["config"]) == sorted(builtin_scenarios())


@pytest.mark.parametrize("case", CASES)
def test_per_step_errors_are_bit_identical_to_the_record(recorded, case):
    # A deliberate change re-records this file and bumps __version__.
    expected = recorded["errors"][case]
    assert recorded["version"] == __version__
    assert campaign_errors(*case.split("/")) == expected


@pytest.mark.parametrize("case", TRACK_CASES)
def test_track_output_is_byte_identical_to_the_record(recorded, case,
                                                      tmp_path):
    expected = recorded["track"][case]
    assert recorded["version"] == __version__
    assert track_lines(*case.split("/"), str(tmp_path)) == expected


@pytest.mark.parametrize("scenario", sorted(builtin_scenarios()))
def test_config_format_is_identical_to_the_record(recorded, scenario):
    assert recorded["version"] == __version__
    assert config_text(scenario) == recorded["config"][scenario]


if __name__ == "__main__":
    record()

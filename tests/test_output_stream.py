"""The output stream, pinned bit for bit.

Short campaigns of every builtin scenario under both filters are compared
with the per-step GWD^2 and orientation errors recorded in
``output_stream.json``, as ``float.hex`` strings. A change that moves any
last bit fails here. Such a change must bump ``__version__`` and
re-record the file on purpose:

    PYTHONPATH=src python tests/test_output_stream.py
"""

import dataclasses
import json
import os

import pytest

from elliptrack import __version__, builtin_scenarios, run_scenario
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


CASES = [f"{scenario}/{kind}" for scenario in builtin_scenarios()
         for kind in FILTER_KINDS]


def record():
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump({"version": __version__, "runs": RUNS, "steps": STEPS,
                   "seed": SEED,
                   "errors": {case: campaign_errors(*case.split("/"))
                              for case in CASES}}, fh, indent=1)
        fh.write("\n")


@pytest.fixture(scope="module")
def recorded():
    with open(RECORD, encoding="utf-8") as fh:
        return json.load(fh)


def test_record_matches_the_campaign_shape(recorded):
    assert (recorded["runs"], recorded["steps"], recorded["seed"]) == (
        RUNS, STEPS, SEED)
    assert sorted(recorded["errors"]) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_per_step_errors_are_bit_identical_to_the_record(recorded, case):
    # A deliberate change re-records this file and bumps __version__.
    expected = recorded["errors"][case]
    assert recorded["version"] == __version__
    assert campaign_errors(*case.split("/")) == expected


if __name__ == "__main__":
    record()

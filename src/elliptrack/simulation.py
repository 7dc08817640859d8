"""Scenario definitions, ground-truth generation, and Monte-Carlo runs.

A scenario fixes everything about an experiment: the nominal trajectory,
the measurement regime, the priors handed to the filter, and the seed.
The true initial state of every run is drawn from the prior, the filter
only sees the prior itself. Runs are independent and seeded individually,
so serial and parallel campaigns produce identical aggregates.
"""

# String annotations: typing's caches would keep re-imported classes alive.
from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .batch import step_batch
from .errors import ConfigError
from .measurements import MeasurementSet, SourceDistribution, sample_scans
from .metrics import EllipseParams, _gwd_squared, orientation_error
from .sequential import StepDiagnostics, step_sequential
from .state import (AxisState, DecoupledEstimate, FilterConfig, KinematicState,
                    MotionModel, OrientationState, _check_numbers,
                    _compared_by, _frozen_copy, _reduce_through_constructor,
                    constant_velocity_transition, rot, wrap_angle)

# Sampled true semi-axes are floored here; the shape priors put a little
# Gaussian mass on negative lengths.
TRUTH_AXIS_FLOOR = 0.1

# A run expects at most this many points, (fixed_count or lam) x steps:
# about 1.2 GB at the sampler's 120 B a point, far inside numpy's limits.
MAX_POINTS_PER_RUN = 10**7

FILTER_KINDS = ("sequential", "batch")


def _is_count(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # An exact float or int is answered first: the ABC check costs about
    # a microsecond, and a JSON record holds dozens of numbers.
    return type(value) in (float, int) or (isinstance(value, numbers.Real)
                                           and not isinstance(value, bool))


@dataclass(frozen=True, eq=False)
class TrajectorySpec:
    """Nominal path of the true object plus per-step truth jitter.

    ``segments`` is a sequence of (step_count, turn_rate) pairs; the
    heading advances by the turn rate on every step of the segment. The
    jitters are variances of fresh zero-mean noise added to the nominal
    position and velocity each step. The four other fields change no
    output: each run draws its start state and axes from the prior. The
    speed, turn rates, start pose and axes must be finite, the jitters
    finite variances >= 0, the scalars real numbers, not booleans, or the
    constructor raises :class:`ConfigError`. ``start_position`` and
    ``true_axes`` are read-only copies, also after a pickle, copy or
    ``dataclasses.replace``; ``==`` compares their floats.
    """
    segments: Tuple[Tuple[int, float], ...]
    nominal_speed: float
    start_position: np.ndarray
    start_heading: float
    true_axes: np.ndarray
    position_jitter: float = 0.0
    velocity_jitter: float = 0.0

    __reduce__ = _reduce_through_constructor
    __eq__ = _compared_by(lambda spec: (
        spec.segments, spec.nominal_speed, spec.start_position.tolist(),
        spec.start_heading, spec.true_axes.tolist(), spec.position_jitter,
        spec.velocity_jitter))

    def __post_init__(self):
        counts = [n for n, _ in self.segments]
        if not counts or not all(_is_count(n) and n >= 1 for n in counts):
            raise ConfigError(f"segment step counts must be integers >= 1, got {counts}")
        for name, value in (("nominal_speed", self.nominal_speed),
                            ("start_heading", self.start_heading),
                            ("position_jitter", self.position_jitter),
                            ("velocity_jitter", self.velocity_jitter),
                            *(("segment turn rate", rate)
                              for _, rate in self.segments)):
            if not _is_real(value):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        object.__setattr__(self, "segments", tuple((int(n), float(rate))
                                                   for n, rate in self.segments))
        object.__setattr__(self, "start_position",
                           _frozen_copy(self.start_position, 2))
        object.__setattr__(self, "true_axes", _frozen_copy(self.true_axes, 2))
        if np.any(self.true_axes <= 0.0):
            raise ConfigError("true semi-axes must be positive")
        _check_numbers({"position_jitter": self.position_jitter,
                        "velocity_jitter": self.velocity_jitter}, {},
                       {"nominal_speed": self.nominal_speed,
                        "segment turn rates": [rate for _, rate in self.segments],
                        "start_position": self.start_position,
                        "start_heading": self.start_heading,
                        "true_axes": self.true_axes})

    @property
    def steps(self) -> int:
        return sum(n for n, _ in self.segments)


@dataclass(frozen=True)
class TruthState:
    """Ground truth at one time step."""
    center: np.ndarray
    velocity: np.ndarray
    theta: float
    axes: np.ndarray

    def ellipse(self) -> EllipseParams:
        return EllipseParams(self.center, self.theta, self.axes)


def generate_truth(traj: TrajectorySpec, rng: np.random.Generator,
                   start_position: np.ndarray, start_velocity: np.ndarray,
                   axes: np.ndarray, theta0: float) -> List[TruthState]:
    """Generate the per-step ground truth for one run.

    The heading integrates the segment turn rates from the heading of
    ``start_velocity``, whose norm is the speed; at speed 0 it starts at
    ``traj.start_heading`` and moves nothing, the nominal velocity being
    zero. The nominal position integrates the nominal velocity from
    ``start_position``, plus fresh jitter on position and velocity each
    step. The true orientation is the heading of the (jittered) velocity;
    a stationary object keeps ``theta0``. All T steps are computed at
    once; the jitter is one (T, 4) block of standard normals, row t
    holding step t's velocity jitter and then its position jitter.
    """
    position = np.array(start_position, dtype=float)
    start_velocity = np.asarray(start_velocity, dtype=float)
    speed = float(np.linalg.norm(start_velocity))
    heading = float(np.arctan2(start_velocity[1], start_velocity[0])) \
        if speed > 0.0 else traj.start_heading
    axes = np.array(axes, dtype=float)

    counts, rates = zip(*traj.segments)
    # Running sums that start from the initial value add in the same order
    # as a step-by-step loop would.
    headings = np.cumsum([heading, *np.repeat(rates, counts)])[1:]
    v_nominal = speed * np.column_stack((np.cos(headings), np.sin(headings)))
    positions = np.cumsum(np.vstack((position, v_nominal)), axis=0)[1:]
    jitter = rng.standard_normal((len(headings), 4))
    velocities = v_nominal + np.sqrt(traj.velocity_jitter) * jitter[:, :2]
    centers = positions + np.sqrt(traj.position_jitter) * jitter[:, 2:]
    if speed > 0.0:
        thetas = map(wrap_angle, np.arctan2(velocities[:, 1], velocities[:, 0]))
    else:
        thetas = [wrap_angle(theta0)] * len(headings)
    return [TruthState(center, velocity, theta, axes)
            for center, velocity, theta in zip(centers, velocities, thetas)]


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Everything that determines a Monte-Carlo campaign.

    The constructor checks the name (a string), the counts, the Poisson
    rate and ``psi`` (real numbers, not booleans), a run's expected
    points (at most ``MAX_POINTS_PER_RUN``) and the prior, and builds the
    campaign's one :class:`FilterConfig` (which checks ``R`` and ``psi``);
    the motion and trajectory checked themselves when they were built.
    ``R`` is that filter config's read-only copy, so no write can bypass
    the checks; a pickle or copy goes through the constructor again.
    ``==`` compares the filter config in place of ``R``.
    """
    name: str
    lam: float
    R: np.ndarray
    prior: DecoupledEstimate
    motion: MotionModel
    trajectory: TrajectorySpec
    runs: int
    seed: int
    source_dist: SourceDistribution
    psi: Optional[float] = None
    fixed_count: Optional[int] = None  # exact per-step count instead of Poisson

    __reduce__ = _reduce_through_constructor
    __eq__ = _compared_by(lambda cfg: (
        cfg.name, cfg.lam, cfg._filter_config, cfg.prior, cfg.motion,
        cfg.trajectory, cfg.runs, cfg.seed, cfg.source_dist, cfg.fixed_count))

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"name must be a string, got {self.name!r}")
        if not (_is_count(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not (_is_count(self.runs) and self.runs >= 1):
            raise ConfigError(f"need an integer number of runs >= 1, "
                              f"got {self.runs!r}")
        if not (_is_real(self.lam) and self.lam > 0.0):
            raise ConfigError(f"Poisson rate must be a positive real number, "
                              f"got {self.lam!r}")
        if not (self.psi is None or _is_real(self.psi)):
            raise ConfigError(f"psi must be a real number, got {self.psi!r}")
        count = self.fixed_count
        if count is not None and not (_is_count(count) and count >= 0):
            raise ConfigError(f"fixed_count must be an integer >= 0, got {count!r}")
        points = (self.lam if count is None else count) * self.trajectory.steps
        if not points <= MAX_POINTS_PER_RUN:
            raise ConfigError(f"a run expects {points} points, (fixed_count or "
                              f"lambda) x steps; at most {MAX_POINTS_PER_RUN}")
        prior = self.prior
        _check_numbers({"prior orientation var": prior.orient.var},
                       {"prior kinematics cov": prior.kin.cov,
                        "prior axis cov": prior.axis.cov},
                       {"prior kinematics mean": prior.kin.mean,
                        "prior axis mean": prior.axis.mean,
                        "prior orientation mean": prior.orient.mean})
        fcfg = FilterConfig(R=self.R, c=self.source_dist.scaling_factor,
                            psi=self.psi)
        object.__setattr__(self, "R", fcfg.R)
        object.__setattr__(self, "_filter_config", fcfg)

    def filter_config(self) -> FilterConfig:
        """The one filter config built with the scenario."""
        return self._filter_config


@dataclass
class RunResult:
    """Per-run error curves and bookkeeping."""
    run_index: int
    gwd_sq: np.ndarray
    orient_err: np.ndarray
    step_time_total: float
    diagnostics: StepDiagnostics


@dataclass(frozen=True)
class CampaignSummary:
    """Aggregates over all runs of a campaign.

    ``mean_step_runtime`` is the wall time of the filter-step calls alone
    (``step_sequential`` or ``step_batch``, timed around each call), summed
    over all runs and divided by runs x steps, in seconds per run-step.
    Drawing the truth and measurements and scoring each estimate are
    outside the timed calls.
    """
    scenario: str
    filter_kind: str
    runs: int
    steps: int
    per_step_mean_gwd_sq: np.ndarray
    per_step_mean_orient_err: np.ndarray
    overall_mean_gwd_sq: float
    overall_mean_orient_err: float
    mean_step_runtime: float
    diagnostics: dict


def sample_run_data(cfg: ScenarioConfig, run_index: int
                    ) -> Tuple[List[TruthState], List[MeasurementSet]]:
    """Draw the ground truth and measurements of one run.

    Run r draws from its own stream, ``default_rng([seed, r])``: the
    SeedSequence of the pair (seed, r), so no two (seed, run) pairs share
    a stream. It draws, in this order, the initial state from the prior,
    all T steps of truth jitter (:func:`generate_truth`), then all T scans
    in one block (:func:`sample_scans`). The same helper backs both the
    campaign runner and the simulate command, so their outputs agree.
    """
    rng = np.random.default_rng([cfg.seed, run_index])
    prior = cfg.prior
    kin0 = rng.multivariate_normal(prior.kin.mean, prior.kin.cov)
    theta0 = rng.normal(prior.orient.mean, np.sqrt(prior.orient.var))
    axes0 = np.maximum(rng.multivariate_normal(prior.axis.mean, prior.axis.cov),
                       TRUTH_AXIS_FLOOR)
    truths = generate_truth(cfg.trajectory, rng,
                            start_position=kin0[:2], start_velocity=kin0[2:],
                            axes=axes0, theta0=theta0)
    scans = sample_scans([ts.center for ts in truths],
                         [ts.theta for ts in truths], axes0, cfg.lam, cfg.R,
                         cfg.source_dist, rng, count=cfg.fixed_count)
    return truths, scans


def step_function(filter_kind: str):
    if filter_kind == "sequential":
        return step_sequential
    if filter_kind == "batch":
        return step_batch
    raise ConfigError(f"unknown filter kind {filter_kind!r}; "
                      f"expected one of {FILTER_KINDS}")


def run_single(cfg: ScenarioConfig, filter_kind: str,
               run_index: int) -> RunResult:
    """Run one filter over one sampled realization of the scenario.

    Scores the estimate after every step against the truth and returns
    the two error curves, the filter-step time and the skip counts.
    """
    step = step_function(filter_kind)
    truths, measurement_sets = sample_run_data(cfg, run_index)
    fcfg = cfg.filter_config()
    diagnostics = StepDiagnostics()
    est = cfg.prior

    n = len(truths)
    gwd = np.empty(n)
    orient = np.empty(n)
    total_time = 0.0
    for idx, (truth, meas) in enumerate(zip(truths, measurement_sets)):
        tic = time.perf_counter()
        est = step(est, meas, cfg.motion, fcfg, diagnostics=diagnostics)
        total_time += time.perf_counter() - tic
        floats = est._floats  # layout: state.DecoupledEstimate
        gwd[idx] = _gwd_squared(floats[0], floats[1], floats[26], floats[20],
                                floats[21], *truth.center.tolist(),
                                truth.theta, *truth.axes.tolist())
        orient[idx] = orientation_error(floats[26], truth.theta)
    return RunResult(run_index, gwd, orient, total_time, diagnostics)


def summarize(cfg: ScenarioConfig, filter_kind: str,
              results: Sequence[RunResult]) -> CampaignSummary:
    """Aggregate per-run results into a campaign summary.

    The overall means are the averages of the per-run means, which for
    equal-length runs equal the grand means over all steps.
    """
    gwd = np.stack([r.gwd_sq for r in results])
    orient = np.stack([r.orient_err for r in results])
    diagnostics = StepDiagnostics()
    for r in results:
        diagnostics.merge(r.diagnostics)
    steps = gwd.shape[1]
    return CampaignSummary(
        scenario=cfg.name,
        filter_kind=filter_kind,
        runs=len(results),
        steps=steps,
        per_step_mean_gwd_sq=gwd.mean(axis=0),
        per_step_mean_orient_err=orient.mean(axis=0),
        overall_mean_gwd_sq=float(gwd.mean(axis=1).mean()),
        overall_mean_orient_err=float(orient.mean(axis=1).mean()),
        mean_step_runtime=sum(r.step_time_total for r in results) / (len(results) * steps),
        diagnostics=diagnostics.as_dict(),
    )


def run_scenario(cfg: ScenarioConfig, filter_kind: str, jobs: int = 1
                 ) -> Tuple[CampaignSummary, List[RunResult]]:
    """Run a full Monte-Carlo campaign, optionally across processes.

    Every run owns an independent seed-derived stream, so the aggregates
    do not depend on scheduling; parallel and serial execution agree
    exactly (runtimes aside). The results come back in run order. The
    pool starts all its workers at once, so it gets at most one per run.
    """
    if not (_is_count(jobs) and jobs >= 1):
        raise ConfigError(f"need an integer number of jobs >= 1, got {jobs!r}")
    step_function(filter_kind)  # validate up front
    run = partial(run_single, cfg, filter_kind)
    workers = min(jobs, cfg.runs)
    if workers > 1:
        # Imported here: the pool's multiprocessing machinery costs 1-2 MB
        # of memory that a serial campaign never uses.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, range(cfg.runs), chunksize=8))
    else:
        results = list(map(run, range(cfg.runs)))
    return summarize(cfg, filter_kind, results), results


def builtin_scenarios(runs: int = 500, seed: int = 1234) -> dict:
    """The built-in measurement regimes.

    Three moving-target regimes share one prior, motion model and
    trajectory, the same immutable objects, and vary the measurement rate
    and noise; the stationary regime studies shape convergence from
    exactly one measurement per step.
    """
    r_moderate = rot(np.pi / 4.0) @ np.diag([1.5, 2.0 / 3.0]) @ rot(np.pi / 4.0).T
    r_noisy = rot(np.pi / 4.0) @ np.diag([3.0, 1.0]) @ rot(np.pi / 4.0).T
    prior = DecoupledEstimate(
        kin=KinematicState([0.0, 0.0, 3.0, 0.0], np.diag([2.0, 2.0, 0.5, 0.5])),
        axis=AxisState([5.0, 2.0], np.eye(2)),
        orient=OrientationState(0.0, 0.1),
    )
    motion = MotionModel(F_kin=constant_velocity_transition(1.0),
                         Q_kin=np.diag([1.0, 1.0, 2.0, 2.0]),
                         Q_axis=np.zeros((2, 2)),
                         Q_theta=0.1)
    turn = (np.pi / 2.0) / 6.0
    trajectory = TrajectorySpec(
        segments=((18, 0.0), (6, turn), (14, 0.0), (6, turn),
                  (14, 0.0), (6, turn), (16, 0.0)),
        nominal_speed=3.0,
        start_position=np.zeros(2),
        start_heading=0.0,
        true_axes=np.array([5.0, 2.0]),
        position_jitter=1.0,
        velocity_jitter=0.0,
    )
    moving = partial(ScenarioConfig,
                     prior=prior, motion=motion, trajectory=trajectory,
                     runs=runs, seed=seed,
                     source_dist=SourceDistribution.UNIFORM_ELLIPSE,
                     psi=0.4)

    stationary = ScenarioConfig(
        name="stationary", lam=1.0, R=np.eye(2),
        prior=DecoupledEstimate(
            kin=KinematicState(np.zeros(4), np.diag([0.1, 0.1, 0.0, 0.0])),
            axis=AxisState([4.0, 2.0], np.diag([4.0, 2.0])),
            orient=OrientationState(0.0, np.pi),
        ),
        motion=MotionModel(F_kin=constant_velocity_transition(1.0),
                           Q_kin=np.zeros((4, 4)),
                           Q_axis=np.zeros((2, 2)),
                           Q_theta=0.0),
        trajectory=TrajectorySpec(segments=((200, 0.0),), nominal_speed=0.0,
                                  start_position=np.zeros(2), start_heading=0.0,
                                  true_axes=np.array([4.0, 2.0])),
        runs=runs, seed=seed,
        source_dist=SourceDistribution.UNIFORM_ELLIPSE,
        fixed_count=1,
    )

    return {
        "moderate": moving(name="moderate", lam=12.0, R=r_moderate),
        "noisy": moving(name="noisy", lam=12.0, R=r_noisy),
        "sparse": moving(name="sparse", lam=6.0, R=r_moderate),
        "stationary": stationary,
    }

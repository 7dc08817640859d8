"""Scenario definitions, ground-truth generation, and Monte-Carlo runs.

A scenario fixes everything about an experiment: the nominal trajectory,
the measurement regime, the priors handed to the filter, and the seed.
The true initial state of every run is drawn from the prior, the filter
only sees the prior itself. Runs are independent and seeded individually,
so serial and parallel campaigns produce identical aggregates.
"""

import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .batch import step_batch
from .errors import ConfigError
from .measurements import MeasurementSet, SourceDistribution, sample_measurements
from .metrics import EllipseParams, ellipse_from_estimate, gwd_squared, \
    orientation_error
from .sequential import StepDiagnostics, step_sequential
from .state import (AxisState, DecoupledEstimate, FilterConfig, KinematicState,
                    MotionModel, OrientationState, _has_psd_pivots,
                    constant_velocity_transition, rot, wrap_angle)

# Sampled true semi-axes are floored here; the shape priors put a little
# Gaussian mass on negative lengths.
TRUTH_AXIS_FLOOR = 0.1

FILTER_KINDS = ("sequential", "batch")


@dataclass(frozen=True)
class TrajectorySpec:
    """Nominal path of the true object plus per-step truth jitter.

    ``segments`` is a sequence of (step_count, turn_rate) pairs; the
    heading advances by the turn rate on every step of the segment. The
    jitter values are variances of fresh zero-mean noise added to the
    nominal position and velocity each step, so the truth stays close to
    the pre-defined path instead of drifting off it.
    """
    segments: Tuple[Tuple[int, float], ...]
    nominal_speed: float
    start_position: np.ndarray
    start_heading: float
    true_axes: np.ndarray
    position_jitter: float = 0.0
    velocity_jitter: float = 0.0

    def __post_init__(self):
        segments = tuple((int(n), float(rate)) for n, rate in self.segments)
        if not segments or any(n < 1 for n, _ in segments):
            raise ConfigError("every trajectory segment needs at least one step")
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "start_position",
                           np.asarray(self.start_position, dtype=float).reshape(2))
        object.__setattr__(self, "true_axes",
                           np.asarray(self.true_axes, dtype=float).reshape(2))
        if np.any(self.true_axes <= 0.0):
            raise ConfigError("true semi-axes must be positive")

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
                   start_position: Optional[np.ndarray] = None,
                   start_velocity: Optional[np.ndarray] = None,
                   axes: Optional[np.ndarray] = None,
                   theta0: Optional[float] = None) -> List[TruthState]:
    """Generate the per-step ground truth for one run.

    The heading integrates the segment turn rates; the nominal position
    integrates the nominal velocity. Fresh jitter is added to position
    and velocity each step. The true orientation is the heading of the
    (jittered) velocity; a stationary object keeps its initial angle.
    The start pose defaults to the nominal one but is usually a draw from
    the scenario prior.
    """
    position = np.array(traj.start_position if start_position is None
                        else start_position, dtype=float)
    if start_velocity is None:
        heading = traj.start_heading
        speed = traj.nominal_speed
    else:
        start_velocity = np.asarray(start_velocity, dtype=float)
        speed = float(np.linalg.norm(start_velocity))
        heading = float(np.arctan2(start_velocity[1], start_velocity[0])) \
            if speed > 0.0 else traj.start_heading
    axes = np.array(traj.true_axes if axes is None else axes, dtype=float)
    static_theta = wrap_angle(traj.start_heading if theta0 is None else theta0)

    pos_std = np.sqrt(traj.position_jitter)
    vel_std = np.sqrt(traj.velocity_jitter)
    states = []
    for count, turn_rate in traj.segments:
        for _ in range(count):
            heading += turn_rate
            v_nominal = speed * np.array([np.cos(heading), np.sin(heading)])
            velocity = v_nominal + vel_std * rng.standard_normal(2)
            position = position + v_nominal
            center = position + pos_std * rng.standard_normal(2)
            if speed > 0.0:
                theta = wrap_angle(np.arctan2(velocity[1], velocity[0]))
            else:
                theta = static_theta
            states.append(TruthState(center, velocity, theta, axes))
    return states


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that determines a Monte-Carlo campaign."""
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

    def __post_init__(self):
        object.__setattr__(self, "R", np.asarray(self.R, dtype=float).reshape(2, 2))
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not isinstance(self.runs, numbers.Integral) or self.runs < 1:
            raise ConfigError(f"need an integer number of runs >= 1, "
                              f"got {self.runs!r}")
        if not 0.0 < self.lam < np.inf:
            raise ConfigError(f"Poisson rate must be positive and finite, "
                              f"got {self.lam}")
        if self.fixed_count is not None and self.fixed_count < 0:
            raise ConfigError("fixed measurement count cannot be negative")
        try:
            self.filter_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self._check_numbers()

    def _check_numbers(self):
        """Reject non-finite numbers and negative variances.

        A covariance must be positive semi-definite up to rounding: its
        symmetric part, shifted up by 1e-12 of its largest entry, must
        pass the pivot test of :func:`symmetrize_psd`.
        """
        prior, motion, traj = self.prior, self.motion, self.trajectory
        variances = {"prior orientation var": prior.orient.var,
                     "Q_theta": motion.Q_theta,
                     "position_jitter": traj.position_jitter,
                     "velocity_jitter": traj.velocity_jitter}
        covariances = {"R": self.R,
                       "prior kinematics cov": prior.kin.cov,
                       "prior axis cov": prior.axis.cov,
                       "Q_kin": motion.Q_kin,
                       "Q_axis": motion.Q_axis}
        others = {"prior kinematics mean": prior.kin.mean,
                  "prior axis mean": prior.axis.mean,
                  "prior orientation mean": prior.orient.mean,
                  "F_kin": motion.F_kin,
                  "nominal_speed": traj.nominal_speed,
                  "segment turn rates": [rate for _, rate in traj.segments]}
        for name, value in {**variances, **covariances, **others}.items():
            if not np.isfinite(value).all():
                raise ConfigError(f"{name} must be finite, got {value}")
        for name, value in variances.items():
            if value < 0.0:
                raise ConfigError(f"{name} is a variance and cannot be "
                                  f"negative, got {value}")
        for name, cov in covariances.items():
            sym = cov + cov.T
            sym.flat[::len(sym) + 1] += 1e-12 * np.abs(sym).max()
            if not _has_psd_pivots(sym.tolist()):
                raise ConfigError(f"{name} must be a positive semi-definite "
                                  f"covariance, got {cov.tolist()}")

    def filter_config(self) -> FilterConfig:
        return FilterConfig(R=self.R, c=self.source_dist.scaling_factor,
                            psi=self.psi)


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

    Run r uses the stream seeded with ``seed XOR r``: first the initial
    state is drawn from the prior, then the per-step truth jitter, then
    the measurements step by step. The same helper backs both the
    campaign runner and the simulate command, so their outputs agree.
    """
    rng = np.random.default_rng(cfg.seed ^ run_index)
    prior = cfg.prior
    kin0 = rng.multivariate_normal(prior.kin.mean, prior.kin.cov)
    theta0 = rng.normal(prior.orient.mean, np.sqrt(prior.orient.var))
    axes0 = np.maximum(rng.multivariate_normal(prior.axis.mean, prior.axis.cov),
                       TRUTH_AXIS_FLOOR)
    truths = generate_truth(cfg.trajectory, rng,
                            start_position=kin0[:2], start_velocity=kin0[2:],
                            axes=axes0, theta0=theta0)
    measurements = [sample_measurements(ts.center, ts.theta, ts.axes, cfg.lam,
                                        cfg.R, cfg.source_dist, rng,
                                        count=cfg.fixed_count)
                    for ts in truths]
    return truths, measurements


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
        gwd[idx] = gwd_squared(ellipse_from_estimate(est), truth.ellipse())
        orient[idx] = orientation_error(est.orient.mean, truth.theta)
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
    exactly (runtimes aside). The results come back in run order.
    """
    step_function(filter_kind)  # validate up front
    run = partial(run_single, cfg, filter_kind)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, range(cfg.runs), chunksize=8))
    else:
        results = list(map(run, range(cfg.runs)))
    return summarize(cfg, filter_kind, results), results


def _standard_motion() -> MotionModel:
    return MotionModel(F_kin=constant_velocity_transition(1.0),
                       Q_kin=np.diag([1.0, 1.0, 2.0, 2.0]),
                       Q_axis=np.zeros((2, 2)),
                       Q_theta=0.1)


def _standard_prior() -> DecoupledEstimate:
    return DecoupledEstimate(
        kin=KinematicState([0.0, 0.0, 3.0, 0.0], np.diag([2.0, 2.0, 0.5, 0.5])),
        axis=AxisState([5.0, 2.0], np.eye(2)),
        orient=OrientationState(0.0, 0.1),
    )


def _standard_trajectory() -> TrajectorySpec:
    turn = (np.pi / 2.0) / 6.0
    return TrajectorySpec(
        segments=((18, 0.0), (6, turn), (14, 0.0), (6, turn),
                  (14, 0.0), (6, turn), (16, 0.0)),
        nominal_speed=3.0,
        start_position=np.zeros(2),
        start_heading=0.0,
        true_axes=np.array([5.0, 2.0]),
        position_jitter=1.0,
        velocity_jitter=0.0,
    )


def builtin_scenarios(runs: int = 500, seed: int = 1234) -> dict:
    """The built-in measurement regimes.

    Three moving-target regimes share the trajectory and priors and vary
    the measurement rate and noise; the stationary regime studies shape
    convergence from exactly one measurement per step.
    """
    r_moderate = rot(np.pi / 4.0) @ np.diag([1.5, 2.0 / 3.0]) @ rot(np.pi / 4.0).T
    r_noisy = rot(np.pi / 4.0) @ np.diag([3.0, 1.0]) @ rot(np.pi / 4.0).T

    def moving(name, lam, noise):
        return ScenarioConfig(
            name=name, lam=lam, R=noise,
            prior=_standard_prior(), motion=_standard_motion(),
            trajectory=_standard_trajectory(),
            runs=runs, seed=seed,
            source_dist=SourceDistribution.UNIFORM_ELLIPSE,
            psi=0.4,
        )

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
        "moderate": moving("moderate", 12.0, r_moderate),
        "noisy": moving("noisy", 12.0, r_noisy),
        "sparse": moving("sparse", 6.0, r_moderate),
        "stationary": stationary,
    }

"""Generative measurement model and quadratic pseudo-measurements.

The simulator draws a Poisson number of noise-free sources uniformly on
the true object extent and adds Gaussian sensor noise. The filters never
see that uniform model directly: they work with zero-centered
measurements and their squares (the quadratic pseudo-measurements), under
a Gaussian moment match of the source distribution.
"""

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import EmptyMeasurementSet
from .state import H_CENTER, KinematicState, rot


class SourceDistribution(enum.Enum):
    """Shape of the uniform source distribution, with its scaling factor."""
    UNIFORM_ELLIPSE = "ellipse"
    UNIFORM_RECTANGLE = "rectangle"

    @property
    def scaling_factor(self) -> float:
        # Variance of the multiplicative factor that moment-matches the
        # uniform distribution on the respective shape.
        return 0.25 if self is SourceDistribution.UNIFORM_ELLIPSE else 1.0 / 3.0


@dataclass(frozen=True)
class MeasurementSet:
    """The 2-d point cloud observed at one time step (possibly empty)."""
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class CenteredMeasurements:
    """Zero-centered measurements with the covariance of a single one."""
    s: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", np.asarray(self.s, dtype=float).reshape(-1, 2))
        object.__setattr__(self, "W", np.asarray(self.W, dtype=float).reshape(2, 2))

    def __len__(self) -> int:
        return self.s.shape[0]

    @cached_property
    def scatter(self) -> tuple:
        """(S11, S22, S12) of the scatter S = sum_i s_i s_i^T, as floats.

        These are the column sums of the pseudo-measurements
        (:func:`build_pseudo`); the batch updates need nothing else of
        the points. Formed from the centered points rather than from raw
        second moments, so no cancellation enters.
        """
        (s11, s12), (_, s22) = (self.s.T @ self.s).tolist()
        return s11, s22, s12


def sample_measurements(center, theta, axes, lam, noise_cov, source,
                        rng: np.random.Generator,
                        count: Optional[int] = None) -> MeasurementSet:
    """Draw one time step of measurements from the true object.

    The number of measurements is Poisson(``lam``) unless ``count`` pins
    it. Each source is uniform on the ellipse/rectangle given by
    (``center``, ``theta``, ``axes``); sensor noise N(0, ``noise_cov``) is
    added independently. Fully deterministic given the generator state.
    """
    m = int(rng.poisson(lam)) if count is None else int(count)
    if m == 0:
        return MeasurementSet(np.empty((0, 2)))
    axes = np.asarray(axes, dtype=float)
    if source is SourceDistribution.UNIFORM_ELLIPSE:
        # Area-correct disc sampling: radius sqrt(u) makes the density
        # uniform, then the unit disc is stretched onto the ellipse.
        radius = np.sqrt(rng.uniform(size=m))
        phi = rng.uniform(0.0, 2.0 * np.pi, size=m)
        unit = np.column_stack((radius * np.cos(phi), radius * np.sin(phi)))
    else:
        unit = rng.uniform(-1.0, 1.0, size=(m, 2))
    sources = (rot(theta) @ (unit * axes).T).T + np.asarray(center, dtype=float)
    noise_cov = np.asarray(noise_cov, dtype=float)
    noise = rng.multivariate_normal(np.zeros(2), noise_cov, size=m)
    return MeasurementSet(sources + noise)


def center_measurements(measurements: MeasurementSet,
                        predicted_kin: KinematicState,
                        noise_cov: np.ndarray) -> CenteredMeasurements:
    """Zero-center a measurement set for the shape updates.

    With more than one measurement the sample mean is subtracted and W is
    just the sensor noise; this branch never reads the predicted state.
    A single measurement is centered on the predicted object center
    instead, which folds the predicted center covariance into W.
    """
    noise_cov = np.asarray(noise_cov, dtype=float)
    m = len(measurements)
    if m == 0:
        raise EmptyMeasurementSet("cannot center an empty measurement set")
    if m > 1:
        s = measurements.points - measurements.points.mean(axis=0)
        return CenteredMeasurements(s, noise_cov)
    s = measurements.points - H_CENTER @ predicted_kin.mean
    w = noise_cov + H_CENTER @ predicted_kin.cov @ H_CENTER.T
    return CenteredMeasurements(s, w)


def build_pseudo(centered: CenteredMeasurements) -> np.ndarray:
    """Quadratic pseudo-measurements of the centered points, shape (M, 3).

    Row i is b = (s1^2, s2^2, s1*s2) of centered point i: the squares and
    the cross-term, whose expectations are (C11, C22, C12) of the
    centered-measurement covariance C_s (see :func:`orientation_moments`).
    The sequential orientation update consumes these rows as they are,
    the batch one only their column sums
    (:attr:`CenteredMeasurements.scatter`); the axis update squares the
    points in the object-aligned frame instead (see
    :func:`aligned_squares`).
    """
    squares = centered.s ** 2
    cross = centered.s[:, 0] * centered.s[:, 1]
    return np.column_stack((squares, cross))


def aligned_squares(s: np.ndarray, theta: float) -> np.ndarray:
    """Axis pseudo-measurements: squares of s rotated into the object frame.

    The expected axis pseudo-measurement and its covariances are stated
    in the frame aligned with the estimated orientation, where the two
    semi-axes decouple; the data fed to that update must live in the same
    frame.
    """
    aligned = np.asarray(s, dtype=float).reshape(-1, 2) @ rot(-theta).T
    return aligned ** 2

"""Generative measurement model and quadratic pseudo-measurements.

The simulator draws a Poisson number of noise-free sources uniformly on
the true object extent and adds Gaussian sensor noise. The filters never
see that uniform model directly: they work with zero-centered
measurements and their squares (the quadratic pseudo-measurements), under
a Gaussian moment match of the source distribution.
"""

import enum
from dataclasses import dataclass
from operator import mul
from typing import Optional

import numpy as np

from .errors import EmptyMeasurementSet
from .state import KinematicState, rot


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


def _scatter(points: list, c1: float, c2: float) -> tuple:
    """(S11, S22, S12) of S = sum_i (z_i - c)(z_i - c)^T over [z1, z2] rows:
    the column sums of the pseudo-measurements (:func:`build_pseudo`),
    formed from the centered points, so no cancellation enters."""
    d1 = [z1 - c1 for z1, _ in points]
    d2 = [z2 - c2 for _, z2 in points]
    return sum(map(mul, d1, d1)), sum(map(mul, d2, d2)), sum(map(mul, d1, d2))


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


def _centering(points: list, kin, noise: list) -> tuple:
    """The center (c1, c2) of a scan of [z1, z2] rows, and the entries of
    W, the covariance of one centered point. Several points are centered
    on their mean, with W the ``noise``; ``kin``, the predicted (mean,
    cov) lists, is not read. A single point is centered on the predicted
    center, which adds the predicted center covariance to W.
    """
    m = len(points)
    if m == 0:
        raise EmptyMeasurementSet("cannot center an empty measurement set")
    if m > 1:
        col1, col2 = zip(*points)
        return (sum(col1) / m, sum(col2) / m), noise
    mean, cov = kin
    r11, r12, r21, r22 = noise
    return (mean[0], mean[1]), (r11 + cov[0][0], r12 + cov[0][1],
                                r21 + cov[1][0], r22 + cov[1][1])


def center_measurements(measurements: MeasurementSet,
                        predicted_kin: KinematicState,
                        noise_cov: np.ndarray) -> CenteredMeasurements:
    """Zero-center a measurement set for the shape updates (:func:`_centering`)."""
    kin = predicted_kin and (predicted_kin.mean.tolist(),
                             predicted_kin.cov.tolist())
    center, w = _centering(measurements.points.tolist(), kin,
                           np.asarray(noise_cov, dtype=float).ravel().tolist())
    return CenteredMeasurements(measurements.points - center, w)


def build_pseudo(centered: CenteredMeasurements) -> np.ndarray:
    """Quadratic pseudo-measurements b = (s1^2, s2^2, s1*s2), shape (M, 3).

    E(b) is (C11, C22, C12) of C_s (see :func:`orientation_moments`).
    """
    squares = centered.s ** 2
    cross = centered.s[:, 0] * centered.s[:, 1]
    return np.column_stack((squares, cross))


def aligned_squares(s: np.ndarray, theta: float) -> np.ndarray:
    """Axis pseudo-measurements: squares of s rotated into the object frame.

    That frame is aligned with the estimated orientation, where the two
    semi-axes decouple (see :func:`update_axis`).
    """
    aligned = np.asarray(s, dtype=float).reshape(-1, 2) @ rot(-theta).T
    return aligned ** 2

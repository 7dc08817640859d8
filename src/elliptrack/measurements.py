"""Generative measurement model and quadratic pseudo-measurements.

The simulator draws a Poisson number of noise-free sources uniformly on
the true object extent and adds Gaussian sensor noise. The filters never
see that uniform model directly: they work with zero-centered
measurements and their squares (the quadratic pseudo-measurements), under
a Gaussian moment match of the source distribution.
"""

# String annotations: typing's caches would keep re-imported classes alive.
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import List, Optional

import numpy as np

from .errors import EmptyMeasurementSet
from .state import KinematicState, _compared_by, \
    _reduce_through_constructor, rot


class SourceDistribution(enum.Enum):
    """Shape of the uniform source distribution, with its scaling factor."""
    UNIFORM_ELLIPSE = "ellipse"
    UNIFORM_RECTANGLE = "rectangle"

    @property
    def scaling_factor(self) -> float:
        # Variance of the multiplicative factor that moment-matches the
        # uniform distribution on the respective shape.
        return 0.25 if self is SourceDistribution.UNIFORM_ELLIPSE else 1.0 / 3.0


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """The 2-d point cloud observed at one time step (possibly empty).

    Its one stored form is the two coordinate columns ``_cols`` = (z1, z2),
    lists of floats, which the steps read and ``==`` compares. The
    constructor derives them once from anything that converts to an
    (M, 2) float array. ``points``, that array, is built from the columns
    on its first read, read-only, and cached; it never shares memory with
    the caller's input.
    """
    points: np.ndarray

    __reduce__ = _reduce_through_constructor
    __eq__ = _compared_by(attrgetter("_cols"))

    def __post_init__(self):
        cols = np.asarray(self.points, dtype=float).reshape(-1, 2).T.tolist()
        del self.__dict__["points"]
        self.__dict__["_cols"] = tuple(cols)

    def __getattr__(self, name):
        # Runs only for a name the instance does not hold yet.
        if name != "points":
            raise AttributeError(name)
        points = np.column_stack(self._cols)
        points.setflags(write=False)
        self.__dict__["points"] = points
        return points

    def __len__(self) -> int:
        return len(self._cols[0])


def _scan(col1: list, col2: list) -> MeasurementSet:
    """The scan of the float columns ``col1`` and ``col2``, stored as they
    are: what the constructor stores for the points (z1, z2)."""
    scan = object.__new__(MeasurementSet)
    scan.__dict__["_cols"] = (col1, col2)
    return scan


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


def _column_scatter(col1: list, col2: list, c1: float, c2: float) -> tuple:
    """(S11, S22, S12) of S = sum_i (z_i - c)(z_i - c)^T over the columns
    z1 = ``col1``, z2 = ``col2``: the column sums of the pseudo-measurements
    (:func:`build_pseudo`), formed from the centered points, so no
    cancellation enters. One pass over the paired columns forms all three;
    each sum starts from 0 and adds its products from left to right."""
    s11 = s22 = s12 = 0.0
    for z1, z2 in zip(col1, col2):
        d1, d2 = z1 - c1, z2 - c2
        s11 += d1 * d1
        s22 += d2 * d2
        s12 += d1 * d2
    return s11, s22, s12


def _noise_factor(noise_cov) -> np.ndarray:
    """A 2x2 lower-triangular L with L L^T the symmetric part of ``noise_cov``.

    Any positive semi-definite R is accepted, singular ones included: a
    pivot that rounding leaves negative is floored at 0, and |L21| is kept
    within sqrt(R22), so a near-zero first pivot cannot inflate the noise.
    An exactly rank-one R gives an exactly rank-one L.
    """
    (r11, r12), (r21, r22) = np.asarray(noise_cov, dtype=float).tolist()
    r12 = 0.5 * (r12 + r21)
    l11 = math.sqrt(max(r11, 0.0))
    l21 = 0.0
    if l11 > 0.0:
        l21 = math.copysign(min(abs(r12) / l11, math.sqrt(max(r22, 0.0))), r12)
    return np.array([[l11, 0.0], [l21, math.sqrt(max(r22 - l21 * l21, 0.0))]])


def sample_scans(centers, thetas, axes, lam, noise_cov, source,
                 rng: np.random.Generator,
                 count: Optional[int] = None) -> List[MeasurementSet]:
    """Draw the measurements of T time steps, one per pose, in one pass.

    Step t observes the object with center ``centers[t]``, orientation
    ``thetas[t]`` and semi-axes ``axes`` (shared by all steps). The draws
    are made in blocks, in this order: the T counts (Poisson(``lam``)
    unless ``count`` pins every one of them), the sources of all points
    (uniform on the unit disc or square, as ``source`` says), then
    standard normals z for their sensor noise L z, with L a factor of
    ``noise_cov`` (:func:`_noise_factor`). Each source is stretched by
    the axes, rotated and shifted by its own step's pose, and the points
    are split back into steps by the counts, each scan a slice of the
    two coordinate columns. Fully deterministic given the generator state.
    """
    if not isinstance(source, SourceDistribution):
        raise ValueError(f"source must be a SourceDistribution member, "
                         f"got {source!r}")
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    steps = len(centers)
    thetas = np.asarray(thetas, dtype=float).reshape(steps)
    counts = (rng.poisson(lam, size=steps) if count is None
              else np.full(steps, int(count)))
    total = int(counts.sum())
    if source is SourceDistribution.UNIFORM_ELLIPSE:
        # Area-correct disc sampling: radius sqrt(u) makes the density
        # uniform, then the unit disc is stretched onto the ellipse.
        radius = np.sqrt(rng.uniform(size=total))
        phi = rng.uniform(0.0, 2.0 * np.pi, size=total)
        unit = np.column_stack((radius * np.cos(phi), radius * np.sin(phi)))
    else:
        unit = rng.uniform(-1.0, 1.0, size=(total, 2))
    local = unit * np.asarray(axes, dtype=float)
    noise = rng.standard_normal((total, 2)) @ _noise_factor(noise_cov).T
    step_of = np.repeat(np.arange(steps), counts)
    cos, sin = np.cos(thetas)[step_of], np.sin(thetas)[step_of]
    points = centers[step_of] + noise
    points[:, 0] += cos * local[:, 0] - sin * local[:, 1]
    points[:, 1] += sin * local[:, 0] + cos * local[:, 1]
    col1, col2 = points.T.tolist()
    stops = np.cumsum(counts).tolist()
    return [_scan(col1[start:stop], col2[start:stop])
            for start, stop in zip([0, *stops], stops)]


def sample_measurements(center, theta, axes, lam, noise_cov, source,
                        rng: np.random.Generator,
                        count: Optional[int] = None) -> MeasurementSet:
    """Draw one time step of measurements from the true object.

    The number of measurements is Poisson(``lam``) unless ``count`` pins
    it. Each source is uniform on the ellipse/rectangle given by
    (``center``, ``theta``, ``axes``); sensor noise N(0, ``noise_cov``) is
    added independently. This is :func:`sample_scans` for a single step.
    """
    return sample_scans([center], [theta], axes, lam, noise_cov, source,
                        rng, count)[0]


def _centering(col1: list, col2: list, kin, noise: list) -> tuple:
    """The center (c1, c2) of a scan given as its columns z1 = ``col1``,
    z2 = ``col2``, and the entries of W, the covariance of one centered
    point. Several points are centered on their mean, with W the
    ``noise``; ``kin``, the predicted (mean, upper triangle of P), is not
    read. The correctly rounded ``math.fsum`` keeps that mean the same on
    every Python version. A single point is centered on the predicted
    center, which adds the predicted center covariance to W.
    """
    m = len(col1)
    if m == 0:
        raise EmptyMeasurementSet("cannot center an empty measurement set")
    if m > 1:
        return (math.fsum(col1) / m, math.fsum(col2) / m), noise
    mean, upper = kin
    r11, r12, r21, r22 = noise
    return (mean[0], mean[1]), (r11 + upper[0], r12 + upper[1],
                                r21 + upper[1], r22 + upper[4])


def center_measurements(measurements: MeasurementSet,
                        predicted_kin: KinematicState,
                        noise_cov: np.ndarray) -> CenteredMeasurements:
    """Zero-center a measurement set for the shape updates (:func:`_centering`)."""
    kin = predicted_kin and (predicted_kin.mean.tolist(),
                             predicted_kin.cov[np.triu_indices(4)].tolist())
    center, w = _centering(*measurements._cols, kin,
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

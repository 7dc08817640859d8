"""Decoupled state representation and small-matrix geometry helpers.

The tracked object is described by three independent Gaussian components:
kinematics (center position and velocity), semi-axis lengths, and
orientation. No cross-covariance between the components is ever stored;
the decoupling is structural.
"""

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Selects the object center from the 4-d kinematic state.
H_CENTER = np.array([[1.0, 0.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0, 0.0]])

# Semi-axis means are floored here after every update; a quadratic
# pseudo-measurement outlier can otherwise drive a length negative.
AXIS_FLOOR = 1e-3


def rot(theta: float) -> np.ndarray:
    """Two-dimensional rotation matrix for angle ``theta`` (radians)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def wrap_angle(theta: float) -> float:
    """Wrap an angle to the interval (-pi, pi]."""
    wrapped = float(theta) % (2.0 * math.pi)
    if wrapped > math.pi:
        wrapped -= 2.0 * math.pi
    return wrapped


def _has_psd_pivots(rows: list) -> bool:
    """True if LDL^T elimination of the symmetric ``rows`` meets no bad pivot.

    Works on the upper triangle of a nested list in place. A zero pivot
    passes only when the rest of its row is exactly zero, so an exactly
    singular block (a noise-free velocity, say) passes while a matrix that
    is merely close to singular must have positive pivots. NaN fails.
    """
    n = len(rows)
    for k in range(n):
        pivot_row = rows[k]
        pivot = pivot_row[k]
        if pivot > 0.0:
            for i in range(k + 1, n):
                factor = pivot_row[i] / pivot
                row = rows[i]
                for j in range(i, n):
                    row[j] -= factor * pivot_row[j]
        elif pivot != 0.0 or any(pivot_row[k + 1:]):
            return False
    return True


def _psd_2x2(p11: float, p12: float, p22: float) -> tuple:
    """(P11, P12, P22) of the PSD projection of [[p11, p12], [p12, p22]].

    Input that passes :func:`_has_psd_pivots` comes back unchanged.
    Otherwise the negative eigenvalue is floored in closed form: the
    result is lam u u^T, with lam the larger eigenvalue and u its unit
    eigenvector. u is built from the larger diagonal entry's side, where
    nothing cancels, and P22 is formed as the pivot test forms it,
    (P12 / P11) P12, so the output passes the test exactly and repairing
    it again changes nothing. NaN propagates.
    """
    # The pivot test of :func:`_has_psd_pivots`, written out for 2x2.
    if p11 > 0.0:
        if p22 - (p12 / p11) * p12 >= 0.0:
            return p11, p12, p22
    elif p11 == 0.0 and p12 == 0.0 and p22 >= 0.0:
        return p11, p12, p22
    half_gap = 0.5 * (p11 - p22)
    radius = math.hypot(half_gap, p12)
    top = 0.5 * (p11 + p22) + radius
    if top <= 0.0:
        return 0.0, 0.0, 0.0
    # u is proportional to (1, slope) or (slope, 1), with |slope| <= 1.
    slope = p12 / (radius + abs(half_gap))
    large = top / (1.0 + slope * slope)
    off = large * slope
    small = off * slope
    first = large if p11 >= p22 else small
    if first < sys.float_info.min:
        # A subnormal pivot cannot carry P22; u is the second axis.
        return 0.0, 0.0, large
    return first, off, (off / first) * off


def symmetrize_psd(mat: np.ndarray) -> np.ndarray:
    """Return the symmetric PSD matrix nearest to ``mat`` in the eigen sense.

    Symmetrizes, then floors negative eigenvalues at zero. Kalman-style
    subtractive covariance updates can lose symmetry or pick up tiny
    negative eigenvalues in floating point; this repairs both. Idempotent
    on symmetric PSD input. A 2x2 input is handled in scalars by
    :func:`_psd_2x2`. Larger ones run the eigendecomposition only when a
    scalar LDL^T pass (:func:`_has_psd_pivots`) finds a repair is needed.
    """
    if len(mat) == 2:
        (p11, p12), (p21, p22) = mat.tolist()
        p11, p12, p22 = _psd_2x2(p11, 0.5 * (p12 + p21), p22)
        return np.array([[p11, p12], [p12, p22]])
    sym = 0.5 * (mat + mat.T)
    if _has_psd_pivots(sym.tolist()):
        return sym
    eigval, eigvec = np.linalg.eigh(sym)
    eigval = np.maximum(eigval, 0.0)
    return (eigvec * eigval) @ eigvec.T


def _shape_entries(theta: float, l1: float, l2: float) -> tuple:
    """(X11, X22, X12) of the shape matrix X, as Python floats."""
    sq1, sq2 = l1 * l1, l2 * l2
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    return (sq1 * cos_t * cos_t + sq2 * sin_t * sin_t,
            sq1 * sin_t * sin_t + sq2 * cos_t * cos_t,
            (sq1 - sq2) * sin_t * cos_t)


def _aligned_entries(theta: float, m11: float, m12: float, m21: float,
                     m22: float) -> tuple:
    """(A11, A22, A12) of A = R(-theta) M R(-theta)^T, as Python floats.

    Rotates a 2x2 matrix M, given by its entries, into the frame aligned
    with the angle ``theta``, where the two semi-axes decouple.
    """
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    mixed = cos_t * sin_t * (m12 + m21)
    return (cos_t * cos_t * m11 + mixed + sin_t * sin_t * m22,
            sin_t * sin_t * m11 - mixed + cos_t * cos_t * m22,
            cos_t * sin_t * (m22 - m11) + cos_t * cos_t * m12
            - sin_t * sin_t * m21)


def shape_matrix(theta: float, axes: np.ndarray) -> np.ndarray:
    """Ellipse shape matrix X = R(theta) diag(l1^2, l2^2) R(theta)^T.

    Symmetric positive definite with eigenvalues {l1^2, l2^2}; invariant
    under theta -> theta + pi.
    """
    l1, l2 = axes
    x11, x22, x12 = _shape_entries(theta, float(l1), float(l2))
    return np.array([[x11, x12], [x12, x22]])


@dataclass(frozen=True)
class KinematicState:
    """Center position and velocity (m, m/s) with 4x4 covariance."""
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float).reshape(4))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float).reshape(4, 4))

    @property
    def center(self) -> np.ndarray:
        return self.mean[:2]


@dataclass(frozen=True)
class AxisState:
    """Semi-axis lengths (m) with 2x2 covariance."""
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float).reshape(2))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float).reshape(2, 2))


@dataclass(frozen=True)
class OrientationState:
    """Orientation angle (rad, wrapped to (-pi, pi]) with scalar variance."""
    mean: float
    var: float

    def __post_init__(self):
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "var", float(self.var))


@dataclass(frozen=True)
class DecoupledEstimate:
    """The three independent Gaussian components of the object state."""
    kin: KinematicState
    axis: AxisState
    orient: OrientationState


@dataclass(frozen=True)
class MotionModel:
    """Linear transition and process noise for the three components.

    The semi-axis transition is fixed to the identity, so only its
    process noise is configurable.
    """
    F_kin: np.ndarray
    Q_kin: np.ndarray
    Q_axis: np.ndarray
    Q_theta: float

    def __post_init__(self):
        object.__setattr__(self, "F_kin", np.asarray(self.F_kin, dtype=float).reshape(4, 4))
        object.__setattr__(self, "Q_kin", np.asarray(self.Q_kin, dtype=float).reshape(4, 4))
        object.__setattr__(self, "Q_axis", np.asarray(self.Q_axis, dtype=float).reshape(2, 2))
        object.__setattr__(self, "Q_theta", float(self.Q_theta))


def constant_velocity_transition(dt: float = 1.0) -> np.ndarray:
    """4x4 constant-velocity transition matrix for time step ``dt``."""
    f = np.eye(4)
    f[0, 2] = dt
    f[1, 3] = dt
    return f


@dataclass(frozen=True)
class FilterConfig:
    """Measurement noise, source scaling factor, and optional axis clamp.

    ``c`` is the variance of the multiplicative source factor: 0.25
    moment-matches a uniform distribution on an ellipse, 1/3 on a
    rectangle. ``psi``, when set, bounds each semi-axis standard
    deviation at ``psi`` times the estimated length (batch variant only).
    """
    R: np.ndarray
    c: float = 0.25
    psi: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "R", np.asarray(self.R, dtype=float).reshape(2, 2))
        object.__setattr__(self, "c", float(self.c))
        if self.c <= 0.0:
            raise ValueError(f"scaling factor must be positive, got {self.c}")
        if self.psi is not None:
            object.__setattr__(self, "psi", float(self.psi))
            if not 0.0 < self.psi <= 1.0:
                raise ValueError(f"psi must lie in (0, 1], got {self.psi}")


def clamp_axis_variance(axis: AxisState, psi: float) -> AxisState:
    """Cap each semi-axis variance at (psi * length)^2.

    Off-diagonal entries are rescaled so the correlation coefficient is
    preserved; the mean is untouched. Keeps the Gaussian from putting
    significant mass on negative lengths. A state within both caps is
    returned as it is.
    """
    cov = axis.cov.tolist()
    factor = 1.0
    clamped = False
    for j, length in enumerate(axis.mean.tolist()):
        cap = (psi * length) ** 2
        if cov[j][j] > cap:
            factor *= math.sqrt(cap / cov[j][j])
            cov[j][j] = cap
            clamped = True
    if not clamped:
        return axis
    cov[0][1] *= factor
    cov[1][0] *= factor
    return AxisState(axis.mean, np.array(cov))

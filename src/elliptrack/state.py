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


def _has_psd_pivots_4x4(rows: list) -> bool:
    """:func:`_has_psd_pivots` written out for a 4x4 ``rows``.

    Reads the upper triangle and leaves ``rows`` as it is. The float
    operations, their order and the zero-pivot rule are those of the loop,
    so the verdict is the same on every input.
    """
    (a00, a01, a02, a03), (_, a11, a12, a13), (_, _, a22, a23), (*_, a33) = rows
    if a00 > 0.0:
        f = a01 / a00
        a11 -= f * a01
        a12 -= f * a02
        a13 -= f * a03
        f = a02 / a00
        a22 -= f * a02
        a23 -= f * a03
        a33 -= (a03 / a00) * a03
    elif a00 != 0.0 or a01 != 0.0 or a02 != 0.0 or a03 != 0.0:
        return False
    if a11 > 0.0:
        f = a12 / a11
        a22 -= f * a12
        a23 -= f * a13
        a33 -= (a13 / a11) * a13
    elif a11 != 0.0 or a12 != 0.0 or a13 != 0.0:
        return False
    if a22 > 0.0:
        a33 -= (a23 / a22) * a23
    elif a22 != 0.0 or a23 != 0.0:
        return False
    return a33 >= 0.0


def _psd_rows(rows: list) -> list:
    """Symmetrize the square nested list ``rows`` in place, then floor
    negative eigenvalues at zero. The eigendecomposition runs only when
    the scalar LDL^T pass (:func:`_has_psd_pivots`, written out at 4x4)
    finds it is needed.
    """
    if len(rows) == 4:
        r0, r1, r2, r3 = rows
        r0[1] = r1[0] = 0.5 * (r0[1] + r1[0])
        r0[2] = r2[0] = 0.5 * (r0[2] + r2[0])
        r0[3] = r3[0] = 0.5 * (r0[3] + r3[0])
        r1[2] = r2[1] = 0.5 * (r1[2] + r2[1])
        r1[3] = r3[1] = 0.5 * (r1[3] + r3[1])
        r2[3] = r3[2] = 0.5 * (r2[3] + r3[2])
        if _has_psd_pivots_4x4(rows):
            return rows
    else:
        for i, row in enumerate(rows):
            for j in range(i + 1, len(rows)):
                row[j] = rows[j][i] = 0.5 * (row[j] + rows[j][i])
        if _has_psd_pivots([row[:] for row in rows]):
            return rows
    eigval, eigvec = np.linalg.eigh(np.array(rows))
    return ((eigvec * np.maximum(eigval, 0.0)) @ eigvec.T).tolist()


def symmetrize_psd(mat: np.ndarray) -> np.ndarray:
    """The symmetric PSD matrix nearest to ``mat`` in the eigen sense.

    Idempotent on symmetric PSD input. A 2x2 input is handled by
    :func:`_psd_2x2`, larger ones by :func:`_psd_rows`.
    """
    if len(mat) == 2:
        (p11, p12), (p21, p22) = mat.tolist()
        p11, p12, p22 = _psd_2x2(p11, 0.5 * (p12 + p21), p22)
        return np.array([[p11, p12], [p12, p22]])
    return np.array(_psd_rows(mat.tolist()))


def _shape_entries(theta: float, l1: float, l2: float) -> tuple:
    """(X11, X22, X12) of the shape matrix X, as Python floats."""
    sq1, sq2 = l1 * l1, l2 * l2
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    return (sq1 * cos_t * cos_t + sq2 * sin_t * sin_t,
            sq1 * sin_t * sin_t + sq2 * cos_t * cos_t,
            (sq1 - sq2) * sin_t * cos_t)


def _aligned_entries(theta: float, m11: float, m12: float, m21: float,
                     m22: float) -> tuple:
    """(A11, A22, A12) of A = R(-theta) M R(-theta)^T: M, given by its
    entries, in the frame at ``theta``, where the semi-axes decouple."""
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    mixed = cos_t * sin_t * (m12 + m21)
    return (cos_t * cos_t * m11 + mixed + sin_t * sin_t * m22,
            sin_t * sin_t * m11 - mixed + cos_t * cos_t * m22,
            cos_t * sin_t * (m22 - m11) + cos_t * cos_t * m12
            - sin_t * sin_t * m21)


def shape_matrix(theta: float, axes: np.ndarray) -> np.ndarray:
    """Ellipse shape matrix X = R(theta) diag(l1^2, l2^2) R(theta)^T."""
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


def _symmetry_tol(mat: np.ndarray) -> float:
    """The rounding a covariance ``mat`` may carry: 1e-12 of the largest
    entry of A + A^T. A - A^T must stay within it."""
    return 1e-12 * np.abs(mat + mat.T).max()


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
    ``R`` must be finite and symmetric up to :func:`_symmetry_tol`.
    """
    R: np.ndarray
    c: float = 0.25
    psi: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "R", np.asarray(self.R, dtype=float).reshape(2, 2))
        r = self.R
        if not (np.isfinite(r).all()
                and np.abs(r - r.T).max() <= _symmetry_tol(r)):
            raise ValueError(f"R must be finite and symmetric, "
                             f"got {r.tolist()}")
        object.__setattr__(self, "c", float(self.c))
        if self.c <= 0.0:
            raise ValueError(f"scaling factor must be positive, got {self.c}")
        if self.psi is not None:
            object.__setattr__(self, "psi", float(self.psi))
            if not 0.0 < self.psi <= 1.0:
                raise ValueError(f"psi must lie in (0, 1], got {self.psi}")


def _axis_floats(axis: AxisState) -> tuple:
    """(p1, p2, P11, P12, P22) of an axis state; P12 averages both sides."""
    (c11, c12), (c21, c22) = axis.cov.tolist()
    return (*axis.mean.tolist(), c11, 0.5 * (c12 + c21), c22)


def _kinematic_state(mean: list, cov: list) -> KinematicState:
    """The :class:`KinematicState` of a step's own float lists.

    The arrays are new, so the state shares no memory with its inputs.
    ``__post_init__`` is skipped: it would only re-validate floats the
    filter produced itself. Outside input goes through the public
    constructor.
    """
    kin = object.__new__(KinematicState)
    fields = kin.__dict__
    fields["mean"], fields["cov"] = np.array(mean), np.array(cov)
    return kin


def _axis_state(axis: tuple) -> AxisState:
    """The :class:`AxisState` of (p1, p2, P11, P12, P22), built as
    :func:`_kinematic_state` builds its state."""
    p1, p2, c11, c12, c22 = axis
    state = object.__new__(AxisState)
    fields = state.__dict__
    fields["mean"] = np.array((p1, p2))
    fields["cov"] = np.array(((c11, c12), (c12, c22)))
    return state


def _estimate(kin: tuple, axis: tuple, orient: tuple) -> DecoupledEstimate:
    """The public estimate of the (kin, axis, orient) floats of a step,
    built as :func:`_kinematic_state` builds its state."""
    orientation = object.__new__(OrientationState)
    fields = orientation.__dict__
    fields["mean"], fields["var"] = orient
    est = object.__new__(DecoupledEstimate)
    fields = est.__dict__
    fields["kin"] = _kinematic_state(*kin)
    fields["axis"] = _axis_state(axis)
    fields["orient"] = orientation
    return est


def clamp_axis_variance(axis: tuple, psi: float) -> tuple:
    """Cap each variance of (p1, p2, P11, P12, P22) at (psi * length)^2.

    P12 is rescaled so the correlation coefficient is preserved; the mean
    is untouched. Keeps the Gaussian from putting significant mass on
    negative lengths. A state within both caps is returned as it is.
    """
    p1, p2, c11, c12, c22 = axis
    cap1, cap2 = (psi * p1) ** 2, (psi * p2) ** 2
    if not (c11 > cap1 or c22 > cap2):
        return axis
    factor = 1.0
    if c11 > cap1:
        factor *= math.sqrt(cap1 / c11)
        c11 = cap1
    if c22 > cap2:
        factor *= math.sqrt(cap2 / c22)
        c22 = cap2
    return p1, p2, c11, c12 * factor, c22

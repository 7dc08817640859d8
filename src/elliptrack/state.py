"""Decoupled state representation and small-matrix geometry helpers.

The tracked object is described by three independent Gaussian components:
kinematics (center position and velocity), semi-axis lengths, and
orientation. No cross-covariance between the components is ever stored;
the decoupling is structural.
"""

import math
import sys
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Optional

import numpy as np

from .errors import ConfigError, NonFiniteState

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


def _psd_2x2(p11: float, p12: float, p22: float) -> tuple:
    """(P11, P12, P22) of the PSD projection of [[p11, p12], [p12, p22]].

    Input that passes the pivot test of :func:`_has_psd_pivots_4x4` comes
    back unchanged. Otherwise the negative eigenvalue is floored in closed
    form: the result is lam u u^T, with lam the larger eigenvalue and u its
    unit eigenvector. u is built from the larger diagonal entry's side,
    where nothing cancels, and P22 is formed as the pivot test forms it,
    (P12 / P11) P12, so the output passes the test exactly and repairing it
    again changes nothing. NaN propagates.
    """
    # The pivot test of :func:`_has_psd_pivots_4x4`, written out for 2x2.
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


def _has_psd_pivots_4x4(a00, a01, a02, a03, a11, a12, a13, a22, a23, a33):
    """True if LDL^T elimination of the symmetric 4x4 matrix with upper
    triangle a00 .. a33 (row by row) meets no bad pivot. A zero pivot
    passes only when the rest of its row is exactly zero, so an exactly
    singular block (a noise-free velocity, say) passes while a matrix that
    is merely close to singular must have positive pivots. NaN fails.
    """
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


def _mirrored(upper) -> np.ndarray:
    """The symmetric 4x4 array with upper triangle ``upper``, row by row."""
    return np.take(upper, (0, 1, 2, 3, 1, 4, 5, 6, 2, 5, 7, 8, 3, 6, 8, 9)
                   ).reshape(4, 4)


def _psd_rows(a00, a01, a02, a03, a11, a12, a13, a22, a23, a33) -> tuple:
    """The symmetric 4x4 matrix with upper triangle a00 .. a33 (row by
    row), negative eigenvalues floored at zero, as its upper triangle. A
    matrix that passes the scalar LDL^T pass (:func:`_has_psd_pivots_4x4`)
    comes back as given. The eigendecomposition runs only where it fails,
    as NaN does, and a non-finite entry there raises :class:`NonFiniteState`.
    """
    if _has_psd_pivots_4x4(a00, a01, a02, a03, a11, a12, a13, a22, a23, a33):
        return a00, a01, a02, a03, a11, a12, a13, a22, a23, a33
    array = _mirrored((a00, a01, a02, a03, a11, a12, a13, a22, a23, a33))
    if not np.isfinite(array).all():
        raise NonFiniteState("a covariance overflowed to a non-finite value")
    eigval, eigvec = np.linalg.eigh(array)
    return tuple(((eigvec * np.maximum(eigval, 0.0)) @ eigvec.T)
                 [np.triu_indices(4)].tolist())


def symmetrize_psd(mat: np.ndarray) -> np.ndarray:
    """The symmetric PSD matrix nearest to ``mat`` in the eigen sense.

    Averages ``mat`` with its transpose, then floors negative eigenvalues:
    a 2x2 through :func:`_psd_2x2`, a 4x4 through :func:`_psd_rows`; any
    other shape raises ``ValueError``. Idempotent on symmetric PSD input.
    """
    if mat.shape == (2, 2):
        (p11, p12), (p21, p22) = mat.tolist()
        p11, p12, p22 = _psd_2x2(p11, 0.5 * (p12 + p21), p22)
        return np.array([[p11, p12], [p12, p22]])
    if mat.shape != (4, 4):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {mat.shape}")
    sym = 0.5 * (mat + mat.T)
    return _mirrored(_psd_rows(*sym[np.triu_indices(4)].tolist()))


def _shape_entries(theta: float, l1: float, l2: float) -> tuple:
    """(X11, X22, X12) of the shape matrix X, as Python floats."""
    sq1, sq2 = l1 * l1, l2 * l2
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    return (sq1 * cos_t * cos_t + sq2 * sin_t * sin_t,
            sq1 * sin_t * sin_t + sq2 * cos_t * cos_t,
            (sq1 - sq2) * sin_t * cos_t)


def _aligned_entries(cos_t: float, sin_t: float, m11: float, m12: float,
                     m21: float, m22: float) -> tuple:
    """(A11, A22, A12) of A = R(-theta) M R(-theta)^T: M, given by its
    entries, in the frame at theta, where the semi-axes decouple. The
    angle enters as ``cos_t`` = cos(theta) and ``sin_t`` = sin(theta)."""
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


def _frozen_copy(values, shape) -> np.ndarray:
    """A read-only float copy of ``values`` in ``shape``. It never shares
    memory with the caller's array, which stays writeable."""
    array = np.asarray(values, dtype=float).reshape(shape).copy()
    array.setflags(write=False)
    return array


def _reduce_through_constructor(self):
    """Pickle and copy a frozen dataclass through its public constructor,
    so the copy's arrays are read-only again and its floats derived from
    them: unpickled and deep-copied arrays come back writeable."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _compared_by(form):
    """An ``__eq__`` that compares two objects of one type by ``form(obj)``,
    their floats, never by their arrays, whose ``==`` has no truth value.
    Another type is left to ``==``'s fallback, so the answer is a bool.
    A class that takes it is declared ``eq=False`` and stays unhashable.
    """
    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return form(self) == form(other)
    return __eq__


class _FloatBacked:
    """A Gaussian component: read-only ``mean`` and ``cov`` arrays, copied
    from the constructor's input, and the floats derived from them once,
    ``_floats``: the mean, then the covariance row-major; ``==`` compares them.
    """
    __reduce__ = _reduce_through_constructor
    __eq__ = _compared_by(attrgetter("_floats"))

    def __post_init__(self):
        n = self._DIM
        mean, cov = _frozen_copy(self.mean, n), _frozen_copy(self.cov, (n, n))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_floats",
                           (*mean.tolist(), *cov.ravel().tolist()))


@dataclass(frozen=True, eq=False)
class KinematicState(_FloatBacked):
    """Center position and velocity (m, m/s) with 4x4 covariance."""
    mean: np.ndarray
    cov: np.ndarray
    _DIM = 4


@dataclass(frozen=True, eq=False)
class AxisState(_FloatBacked):
    """Semi-axis lengths (m) with 2x2 covariance."""
    mean: np.ndarray
    cov: np.ndarray
    _DIM = 2


@dataclass(frozen=True)
class OrientationState:
    """Orientation angle (rad, wrapped to (-pi, pi]) with scalar variance."""
    mean: float
    var: float

    def __post_init__(self):
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "var", float(self.var))


@dataclass(frozen=True, eq=False)
class DecoupledEstimate:
    """The three independent Gaussian components of the object state.

    Its one stored form is ``_floats``, one tuple of 28 floats: [0:4] the
    kinematic mean (x, y, vx, vy), [4:20] its covariance row-major, [20:22]
    the axis mean (l1, l2), [22:26] its covariance row-major, [26:28] theta
    and var(theta). Every covariance entry is kept as given, so a prior
    asymmetric within rounding predicts as its arrays do. The public
    constructor joins the component states' floats. An estimate built by
    a step (:func:`_estimate`) holds the floats alone, and builds each
    component state from its slice on its first read, through the public
    constructor. ``==`` compares the floats.
    """
    kin: KinematicState
    axis: AxisState
    orient: OrientationState

    __eq__ = _compared_by(attrgetter("_floats"))

    def __post_init__(self):
        object.__setattr__(self, "_floats", (
            *self.kin._floats, *self.axis._floats,
            self.orient.mean, self.orient.var))

    def __getattr__(self, name):
        # Runs only for a name the instance does not hold yet.
        if name == "kin":
            state = KinematicState(self._floats[0:4], self._floats[4:20])
        elif name == "axis":
            state = AxisState(self._floats[20:22], self._floats[22:26])
        elif name == "orient":
            state = OrientationState(*self._floats[26:28])
        else:
            raise AttributeError(name)
        self.__dict__[name] = state
        return state


@dataclass(frozen=True, eq=False)
class MotionModel:
    """Linear transition and process noise for the three components.

    The semi-axis transition is fixed to the identity, so only its
    process noise is configurable. F_kin must be finite, Q_kin and Q_axis
    must pass :func:`_is_covariance` and Q_theta must be a finite variance
    >= 0; anything else raises :class:`ConfigError`. The arrays are
    read-only copies, and the steps read ``_floats``, the 31 floats of
    F_kin row-major, the upper triangle of Q_kin row by row, Q_axis
    row-major and Q_theta, derived once; ``==`` compares them.
    """
    F_kin: np.ndarray
    Q_kin: np.ndarray
    Q_axis: np.ndarray
    Q_theta: float

    __reduce__ = _reduce_through_constructor
    __eq__ = _compared_by(attrgetter("_floats"))

    def __post_init__(self):
        arrays = (_frozen_copy(self.F_kin, (4, 4)),
                  _frozen_copy(self.Q_kin, (4, 4)),
                  _frozen_copy(self.Q_axis, (2, 2)))
        for name, array in zip(("F_kin", "Q_kin", "Q_axis"), arrays):
            object.__setattr__(self, name, array)
        object.__setattr__(self, "Q_theta", float(self.Q_theta))
        _check_numbers({"Q_theta": self.Q_theta},
                       {"Q_kin": self.Q_kin, "Q_axis": self.Q_axis},
                       {"F_kin": self.F_kin})
        f_kin, q_kin, q_axis = arrays
        object.__setattr__(self, "_floats", (
            *f_kin.ravel().tolist(), *q_kin[np.triu_indices(4)].tolist(),
            *q_axis.ravel().tolist(), self.Q_theta))


def _symmetry_tol(mat: np.ndarray) -> float:
    """The rounding a covariance ``mat`` may carry: 1e-12 of the largest
    entry of A + A^T. A - A^T must stay within it."""
    return 1e-12 * np.abs(mat + mat.T).max()


def _is_covariance(cov: np.ndarray) -> bool:
    """True if the 2x2 or 4x4 ``cov`` is symmetric and PSD up to rounding,
    1e-12 of the largest entry of A + A^T: A - A^T within it, and A + A^T
    shifted up by it passing :func:`_has_psd_pivots_4x4`, a 2x2 padded
    with zeros (which leaves the verdict as it is)."""
    n, tol = len(cov), _symmetry_tol(cov)
    sym = np.zeros((4, 4))
    sym[:n, :n] = cov + cov.T
    sym[range(n), range(n)] += tol
    r0, r1, r2, r3 = sym.tolist()
    return (bool(np.abs(cov - cov.T).max() <= tol)
            and _has_psd_pivots_4x4(*r0, *r1[1:], *r2[2:], r3[3]))


def _check_numbers(variances: dict, covariances: dict, others: dict):
    """Raise :class:`ConfigError` naming the first bad entry of the dicts
    of named values: any number that is not finite, then a negative
    variance, then a covariance that fails :func:`_is_covariance`."""
    for name, value in {**variances, **covariances, **others}.items():
        if not np.isfinite(value).all():
            raise ConfigError(f"{name} must be finite, got {value}")
    for name, value in variances.items():
        if value < 0.0:
            raise ConfigError(f"{name} is a variance and cannot be "
                              f"negative, got {value}")
    for name, cov in covariances.items():
        if not _is_covariance(cov):
            raise ConfigError(f"{name} must be a symmetric positive semi-"
                              f"definite covariance, got {cov.tolist()}")


def constant_velocity_transition(dt: float = 1.0) -> np.ndarray:
    """4x4 constant-velocity transition matrix for time step ``dt``."""
    f = np.eye(4)
    f[0, 2] = dt
    f[1, 3] = dt
    return f


@dataclass(frozen=True, eq=False)
class FilterConfig:
    """Measurement noise, source scaling factor, and optional axis clamp.

    ``c`` is the variance of the multiplicative source factor: 0.25
    moment-matches a uniform distribution on an ellipse, 1/3 on a
    rectangle. ``psi``, when set, bounds each semi-axis standard
    deviation at ``psi`` times the estimated length (batch variant only).
    ``R`` must be finite and pass :func:`_is_covariance`; a bad ``R``, ``c``
    or ``psi`` raises :class:`ConfigError`. ``R`` is a read-only copy, and
    the steps read its entries, (R11, R12, R21, R22), from ``_noise``.
    ``==`` compares ``_noise``, ``c`` and ``psi``.
    """
    R: np.ndarray
    c: float = 0.25
    psi: Optional[float] = None

    __reduce__ = _reduce_through_constructor
    __eq__ = _compared_by(attrgetter("_noise", "c", "psi"))

    def __post_init__(self):
        object.__setattr__(self, "R", _frozen_copy(self.R, (2, 2)))
        r = self.R
        # Finite first: the covariance test's arithmetic warns on inf.
        if not (np.isfinite(r).all() and _is_covariance(r)):
            raise ConfigError(f"R must be a symmetric positive semi-definite "
                              f"covariance, got {r.tolist()}")
        object.__setattr__(self, "_noise", tuple(r.ravel().tolist()))
        object.__setattr__(self, "c", float(self.c))
        if self.c <= 0.0:
            raise ConfigError(f"scaling factor must be positive, got {self.c}")
        if self.psi is not None:
            object.__setattr__(self, "psi", float(self.psi))
            if not 0.0 < self.psi <= 1.0:
                raise ConfigError(f"psi must lie in (0, 1], got {self.psi}")


def _axis_floats(axis: AxisState) -> tuple:
    """(p1, p2, P11, P12, P22) of an axis state; P12 averages both sides."""
    p1, p2, c11, c12, c21, c22 = axis._floats
    return p1, p2, c11, 0.5 * (c12 + c21), c22


def _axis_state(axis: tuple) -> AxisState:
    """The :class:`AxisState` of (p1, p2, P11, P12, P22)."""
    p1, p2, c11, c12, c22 = axis
    return AxisState((p1, p2), ((c11, c12), (c12, c22)))


def _estimate(kin: tuple, axis: tuple, orient: tuple) -> DecoupledEstimate:
    """The public estimate of a step's (kin, axis, orient) floats, its
    covariances mirrored into the layout of :class:`DecoupledEstimate`.
    It holds the floats alone: nothing else is built until it is read.
    """
    (m0, m1, m2, m3), (p00, p01, p02, p03, p11, p12, p13, p22, p23, p33) = kin
    (p1, p2, c11, c12, c22), (theta, var) = axis, orient
    est = object.__new__(DecoupledEstimate)
    est.__dict__["_floats"] = (
        m0, m1, m2, m3, p00, p01, p02, p03, p01, p11, p12, p13, p02, p12, p22,
        p23, p03, p13, p23, p33, p1, p2, c11, c12, c12, c22, theta, var)
    return est


def clamp_axis_variance(axis: tuple, psi: float) -> tuple:
    """Cap each variance of (p1, p2, P11, P12, P22) at (psi * length)^2.

    P12 is rescaled so the correlation coefficient is preserved; the mean
    is untouched. Keeps the Gaussian from putting significant mass on
    negative lengths. A state within both caps is returned as it is.
    """
    p1, p2, c11, c12, c22 = axis
    try:
        cap1, cap2 = (psi * p1) ** 2, (psi * p2) ** 2
    except OverflowError:
        # Past the float range ``**`` raises where x * x rounds to inf.
        # ``**`` stays on the normal path: libm's pow and x * x may differ
        # in the last bit.
        cap1, cap2 = (psi * p1) * (psi * p1), (psi * p2) * (psi * p2)
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

"""Error metrics: squared Gaussian Wasserstein distance and angle error.

An ellipse is viewed as a Gaussian with the center as mean and the shape
matrix as covariance; the squared Wasserstein distance between the two
Gaussians then scores position and shape jointly. The orientation error
is the absolute angle difference modulo pi, since an ellipse is invariant
under a half turn. Both are closed forms on Python floats.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPSD
from .state import DecoupledEstimate

_EIG_TOL = -1e-9


@dataclass(frozen=True)
class EllipseParams:
    """Center, orientation, and semi-axes of an ellipse."""
    center: np.ndarray
    theta: float
    semi_axes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).reshape(2))
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "semi_axes",
                           np.asarray(self.semi_axes, dtype=float).reshape(2))


def ellipse_from_estimate(est: DecoupledEstimate) -> EllipseParams:
    """Extract the ellipse described by a decoupled estimate's means."""
    floats = est._floats  # layout: state.DecoupledEstimate
    return EllipseParams(floats[0:2], floats[26], floats[20:22])


def matrix_sqrt_2x2(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of a symmetric PSD 2x2 matrix.

    Uses the closed form via trace and determinant; falls back to an
    eigendecomposition when the closed-form denominator degenerates
    (matrix near zero).
    """
    mat = np.asarray(mat, dtype=float)
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    trace = mat[0, 0] + mat[1, 1]
    if det < _EIG_TOL or trace < _EIG_TOL:
        raise NotPSD(f"matrix with trace {trace} and determinant {det}")
    s = np.sqrt(max(det, 0.0))
    denom_sq = trace + 2.0 * s
    if denom_sq > 1e-12:
        return (mat + s * np.eye(2)) / np.sqrt(denom_sq)
    eigval, eigvec = np.linalg.eigh(0.5 * (mat + mat.T))
    if eigval[0] < _EIG_TOL:
        raise NotPSD(f"eigenvalue {eigval[0]} below tolerance")
    eigval = np.sqrt(np.maximum(eigval, 0.0))
    return (eigvec * eigval) @ eigvec.T


def gwd_squared(a: EllipseParams, b: EllipseParams) -> float:
    """Squared Gaussian Wasserstein distance between two ellipses.

    |c_a - c_b|^2 + tr X_a + tr X_b - 2 tr sqrt(sqrt(X_a) X_b sqrt(X_a)) for
    the shape matrices X, whose last trace, for semi-axes (l1, l2), (m1, m2)
    and d = theta_a - theta_b, is the 2-norm of (cos d (|l1 m1| + |l2 m2|),
    sin d (|l1 m2| + |l2 m1|)). Zero iff the ellipses coincide (up to the
    theta + pi and axis-swap symmetries); symmetric, invariant under a
    joint rigid transform; NaN in, NaN out.
    """
    return _gwd_squared(*a.center.tolist(), a.theta, *a.semi_axes.tolist(),
                        *b.center.tolist(), b.theta, *b.semi_axes.tolist())


def _gwd_squared(ax: float, ay: float, theta_a: float, l1: float, l2: float,
                 bx: float, by: float, theta_b: float, m1: float,
                 m2: float) -> float:
    """:func:`gwd_squared` of ellipse a, centre (ax, ay), angle ``theta_a``
    and semi-axes (l1, l2), and ellipse b, given the same way, as floats."""
    # cos d and sin d from each angle's own, so no difference can overflow.
    cos_a, sin_a, cos_b, sin_b = (math.cos(theta_a), math.sin(theta_a),
                                  math.cos(theta_b), math.sin(theta_b))
    cos_d, sin_d = cos_a * cos_b + sin_a * sin_b, sin_a * cos_b - cos_a * sin_b
    root = math.hypot(cos_d * (abs(l1 * m1) + abs(l2 * m2)),
                      sin_d * (abs(l1 * m2) + abs(l2 * m1)))
    # Squares as products: on a float, ** raises OverflowError, * gives inf.
    dx, dy = ax - bx, ay - by
    total = dx * dx + dy * dy + l1 * l1 + l2 * l2 + m1 * m1 + m2 * m2 - 2.0 * root
    # Rounding can leave identical shapes a little below 0. Clamp only
    # finite values, so a NaN or infinite distance is not scored 0.
    return 0.0 if -math.inf < total < 0.0 else total


def orientation_error(theta_est: float, theta_true: float) -> float:
    """Absolute orientation difference modulo pi, in [0, pi/2].

    Adding pi to either angle describes the same ellipse, so the raw
    difference is folded into (-pi/2, pi/2] first.
    """
    diff = float(theta_est - theta_true) % math.pi
    if diff > math.pi / 2.0:
        diff -= math.pi
    return abs(diff)

"""Batch filter: one update per time step using all measurements.

The kinematics are updated with the measurement mean, the semi-axes with
a stacked quadratic pseudo-measurement whose block-diagonal covariance
reduces to a single 2x2 inverse, and the orientation with an
information-form update. All three updates read only the prediction, so
nothing is interleaved. Of the points themselves the updates need only
three statistics: the count M, the sample mean, and the scatter S of the
centered points. The step reads the scan's two coordinate columns, the
form a scan is stored in, and takes the mean (:func:`_centering`) and S
(:func:`_column_scatter`, one pass over the paired columns) from them.
The step shares the float prediction, kinematic update and axis update
of the sequential filter, and the orientation update shares its
closed-form solve: the noise covariance is Cov(b) less a rank-one term,
whose inverse Sherman-Morrison gives from Cov(b)^-1
(:func:`batch_update_orientation`). A single measurement is delegated
wholesale to the sequential step, which needs none of the batch
approximations.
"""

# String annotations: typing's caches would keep re-imported classes alive.
from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import SingularInnovation, SingularPseudoCov
from .measurements import CenteredMeasurements, MeasurementSet, _centering, \
    _column_scatter
from .sequential import StepDiagnostics, _count_skip, _guarded_solve, \
    _predict, _sequential, kalman_center_update, orientation_moments, \
    update_axis
from .state import (AxisState, DecoupledEstimate, FilterConfig, KinematicState,
                    MotionModel, OrientationState, _axis_floats, _axis_state,
                    _estimate, _mirrored, _shape_entries, wrap_angle)


def batch_update_kinematics(kin: KinematicState, measurements: MeasurementSet,
                            shape_est: np.ndarray,
                            cfg: FilterConfig) -> KinematicState:
    """Kalman update with the measurement mean as pseudo-measurement.

    Averaging M measurements divides the effective noise by M; for M = 1
    this is exactly the sequential update, :func:`kalman_center_update`.
    """
    (x11, x12), (_, x22) = np.asarray(shape_est, dtype=float).tolist()
    mean, upper = kalman_center_update(
        (kin.mean.tolist(), kin.cov[np.triu_indices(4)].tolist()),
        *measurements.points.mean(axis=0).tolist(), cfg._noise, cfg.c,
        (x11, x22, x12), len(measurements))
    return KinematicState(mean, _mirrored(upper))


def batch_update_axis(axis: AxisState, centered: CenteredMeasurements,
                      orient: OrientationState, cfg: FilterConfig) -> AxisState:
    """Stacked-pseudo-measurement update of the semi-axes.

    All per-measurement moments are evaluated at the prediction, so the
    stacked update is :func:`update_axis` on the scatter of all the
    points. Applies the psi variance clamp afterwards when configured.
    """
    scatter = _column_scatter(*centered.s.T.tolist(), 0.0, 0.0)
    return _axis_state(update_axis(_axis_floats(axis), orient.mean, scatter,
                                   len(centered), centered.W.ravel().tolist(),
                                   cfg.c, cfg.psi))


def batch_update_orientation(orient: tuple, shape: tuple, scatter: tuple,
                             count: int, w, c: float) -> tuple:
    """Information-form update of (theta, var) over ``count`` points.

    Linearizing b at the predicted angle gives a scalar model with
    sensitivity M and noise G = Cov(b) - var M M^T (:func:`orientation_moments`
    at ``shape`` and ``w``). With y = Cov(b)^-1 M and q = M^T y,
    Sherman-Morrison gives G^-1 = Cov(b)^-1 + var y y^T / (1 - var q):
    weights k = G^-1 M = y / (1 - var q) and information M^T k = q / (1 -
    var q) per point (:func:`_guarded_solve`). Information adds per point,
    so the variance can only shrink; the points enter through the
    ``scatter`` alone. A zero prior variance is returned as it is.
    """
    theta, var = orient
    if var == 0.0:
        return orient
    expected, _, m = orientation_moments(shape, var, w, c)
    k1, k2, k3, info_gain = _guarded_solve(
        expected, m, SingularPseudoCov, "batch orientation noise covariance",
        var)
    # The predicted-angle term enters every summand of the innovation.
    (e1, e2, e3), (m1, m2, m3), (s11, s22, s12) = expected, m, scatter
    var_post = 1.0 / (1.0 / var + count * info_gain)
    return (wrap_angle(var_post * (theta / var + (
        k1 * (s11 - count * (e1 - m1 * theta))
        + k2 * (s22 - count * (e2 - m2 * theta))
        + k3 * (s12 - count * (e3 - m3 * theta))))), var_post)


def step_batch(est: DecoupledEstimate, measurements: MeasurementSet,
               motion: MotionModel, cfg: FilterConfig,
               diagnostics: Optional[StepDiagnostics] = None
               ) -> DecoupledEstimate:
    """One predict/update cycle of the batch filter.

    Zero or one measurement go to the body of the sequential step, which
    handles them bit-for-bit; two or more run the three batch updates
    against the prediction, with the scan mean taken once. Ill-conditioned
    updates are skipped and counted as in the sequential filter.
    """
    col1, col2 = measurements._cols
    if len(col1) <= 1:
        return _sequential(est, col1, col2, motion, cfg, diagnostics)
    kin, axis, orient = _predict(est, motion)
    noise = cfg._noise
    (z1, z2), w = _centering(col1, col2, kin, noise)
    scatter = _column_scatter(col1, col2, z1, z2)
    count, theta, c = len(col1), orient[0], cfg.c
    shape = _shape_entries(theta, axis[0], axis[1])
    # A skipped update leaves its component at the prediction.
    try:
        kin = kalman_center_update(kin, z1, z2, noise, c, shape, count)
    except SingularInnovation:
        _count_skip(diagnostics, "kinematics")
    try:
        axis = update_axis(axis, theta, scatter, count, w, c, cfg.psi)
    except SingularPseudoCov:
        _count_skip(diagnostics, "axis")
    try:
        orient = batch_update_orientation(orient, shape, scatter, count, w, c)
    except SingularPseudoCov:
        _count_skip(diagnostics, "orientation")
    return _estimate(kin, axis, orient)

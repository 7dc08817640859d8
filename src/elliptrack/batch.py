"""Batch filter: one update per time step using all measurements.

The kinematics are updated with the measurement mean, the semi-axes with
a stacked quadratic pseudo-measurement whose block-diagonal covariance
reduces to a single 2x2 inverse, and the orientation with an
information-form update. All three updates read only the prediction, so
nothing is interleaved. Of the points themselves the updates need only
three statistics: the count M, the sample mean, and the scatter S of the
centered points (:func:`_scatter`). The step shares the float prediction
and kinematic update of the sequential filter. A single measurement is
delegated wholesale to the sequential step, which needs none of the
batch approximations.
"""

# String annotations: typing's caches would keep re-imported classes alive.
from __future__ import annotations

from operator import mul
from typing import Optional

import numpy as np

from .errors import SingularPseudoCov
from .measurements import CenteredMeasurements, MeasurementSet, _centering, \
    _scatter
from .sequential import StepDiagnostics, _guarded_solve, _predict, \
    _update_or_skip, kalman_center_update, orientation_moments, \
    step_sequential, update_axis
from .state import (AxisState, DecoupledEstimate, FilterConfig, KinematicState,
                    MotionModel, OrientationState, _axis_floats, _axis_state,
                    _estimate, _of_floats, _shape_entries, wrap_angle)


def batch_update_kinematics(kin: KinematicState, measurements: MeasurementSet,
                            shape_est: np.ndarray,
                            cfg: FilterConfig) -> KinematicState:
    """Kalman update with the measurement mean as pseudo-measurement.

    Averaging M measurements divides the effective noise by M; for M = 1
    this is exactly the sequential update, :func:`kalman_center_update`.
    """
    (x11, x12), (_, x22) = np.asarray(shape_est, dtype=float).tolist()
    return _of_floats(KinematicState, kalman_center_update(
        kin._floats, *measurements.points.mean(axis=0).tolist(), cfg._noise,
        cfg.c, (x11, x22, x12), len(measurements)))


def batch_update_axis(axis: AxisState, centered: CenteredMeasurements,
                      orient: OrientationState, cfg: FilterConfig) -> AxisState:
    """Stacked-pseudo-measurement update of the semi-axes.

    All per-measurement moments are evaluated at the prediction, so the
    stacked update is :func:`update_axis` on the scatter of all the
    points. Applies the psi variance clamp afterwards when configured.
    """
    return _axis_state(update_axis(_axis_floats(axis), orient.mean,
                                   _scatter(centered.s.tolist(), 0.0, 0.0),
                                   len(centered), centered.W.ravel().tolist(),
                                   cfg.c, cfg.psi))


def batch_update_orientation(orient: tuple, shape: tuple, scatter: tuple,
                             count: int, w, c: float) -> tuple:
    """Information-form update of (theta, var) over ``count`` points.

    Linearizing b at the predicted angle gives a scalar model with
    sensitivity M and noise Gamma = C_bb - M var M^T
    (:func:`orientation_moments` at ``shape`` and ``w``). Information adds
    per point, so the variance can only shrink; the points enter through
    the ``scatter`` alone. A zero prior variance is returned as it is.
    """
    theta, var = orient
    if var == 0.0:
        return orient
    expected, cov_bb, m_vec = orientation_moments(shape, var, w, c)
    gamma = [[cb - var * (mi * mj) for cb, mj in zip(row, m_vec)]
             for row, mi in zip(cov_bb, m_vec)]
    weighted = _guarded_solve(gamma, m_vec,
                              SingularPseudoCov("batch orientation noise "
                                                "covariance is ill-conditioned"))
    info_gain = sum(map(mul, m_vec, weighted))
    if info_gain < 0.0:
        raise SingularPseudoCov("batch orientation noise covariance "
                                "is not positive definite")
    # The predicted-angle term enters every summand of the innovation.
    xi_sum = [b - count * (e - m * theta)
              for b, e, m in zip(scatter, expected, m_vec)]
    var_post = 1.0 / (1.0 / var + count * info_gain)
    return (wrap_angle(var_post * (theta / var + sum(map(mul, weighted, xi_sum)))),
            var_post)


def step_batch(est: DecoupledEstimate, measurements: MeasurementSet,
               motion: MotionModel, cfg: FilterConfig,
               diagnostics: Optional[StepDiagnostics] = None
               ) -> DecoupledEstimate:
    """One predict/update cycle of the batch filter.

    Zero or one measurement go to the sequential step, which handles them
    bit-for-bit; two or more run the three batch updates against the
    prediction, with the scan mean taken once. Ill-conditioned updates
    are skipped and counted as in the sequential filter.
    """
    if len(measurements) <= 1:
        return step_sequential(est, measurements, motion, cfg,
                               diagnostics=diagnostics)
    kin, axis, orient = _predict(est, motion)
    points = measurements.points.tolist()
    noise = cfg._noise
    (z1, z2), w = _centering(points, kin, noise)
    scatter = _scatter(points, z1, z2)
    count, theta = len(points), orient[0]
    shape = _shape_entries(theta, axis[0], axis[1])
    return _estimate(
        _update_or_skip(diagnostics, "kinematics", kalman_center_update, kin,
                        z1, z2, noise, cfg.c, shape, count),
        _update_or_skip(diagnostics, "axis", update_axis, axis, theta,
                        scatter, count, w, cfg.c, cfg.psi),
        _update_or_skip(diagnostics, "orientation", batch_update_orientation,
                        orient, shape, scatter, count, w, cfg.c))

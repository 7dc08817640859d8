"""Batch filter: one update per time step using all measurements.

The kinematics are updated with the measurement mean, the semi-axes with
a stacked quadratic pseudo-measurement whose block-diagonal covariance
reduces to a single 2x2 inverse, and the orientation with an
information-form update. All three updates read only the prediction, so
nothing is interleaved. A single measurement is delegated wholesale to
the sequential step, which needs none of the batch approximations.
"""

from typing import Optional

import numpy as np

from .errors import SingularPseudoCov
from .measurements import CenteredMeasurements, MeasurementSet, aligned_squares, \
    build_pseudo, center_measurements
from .sequential import StepDiagnostics, _guarded_solve, _update_or_skip, \
    axis_moments, kalman_center_update, orientation_moments, predict, \
    step_sequential, update_axis
from .state import (AxisState, DecoupledEstimate, FilterConfig, KinematicState,
                    MotionModel, OrientationState, clamp_axis_variance,
                    shape_matrix, wrap_angle)


def batch_update_kinematics(kin: KinematicState, measurements: MeasurementSet,
                            shape_est: np.ndarray,
                            cfg: FilterConfig) -> KinematicState:
    """Kalman update with the measurement mean as pseudo-measurement.

    Averaging M measurements divides the effective noise by M; for M = 1
    this is exactly the sequential kinematic update.
    """
    m = len(measurements)
    z_bar = measurements.points.mean(axis=0)
    return kalman_center_update(kin, z_bar, (cfg.R + cfg.c * shape_est) / m)


def batch_update_axis(axis: AxisState, centered: CenteredMeasurements,
                      orient: OrientationState, cfg: FilterConfig) -> AxisState:
    """Stacked-pseudo-measurement update of the semi-axes.

    All per-measurement moments are evaluated at the prediction, so the
    stacked update is :func:`update_axis` applied to every aligned square
    at once. Applies the psi variance clamp afterwards when configured.
    """
    mom = axis_moments(axis, orient, centered.W, cfg)
    updated = update_axis(axis, aligned_squares(centered.s, orient.mean), mom)
    if cfg.psi is not None:
        updated = clamp_axis_variance(updated, cfg.psi)
    return updated


def batch_update_orientation(orient: OrientationState,
                             centered: CenteredMeasurements,
                             axis: AxisState,
                             cfg: FilterConfig) -> OrientationState:
    """Information-form orientation update over all measurements.

    Linearizing b around the predicted angle gives a scalar measurement
    model with sensitivity M and noise covariance Gamma = C_bb minus the
    angle-uncertainty part M var M^T. Information adds per measurement,
    so the posterior variance can only shrink. An orientation already
    known exactly (zero prior variance) has no information form and is
    returned as it is.
    """
    if orient.var == 0.0:
        return orient
    mom = orientation_moments(axis, orient, centered.W, cfg)
    m_vec = mom.m_vec
    gamma = mom.cov_bb - orient.var * np.outer(m_vec, m_vec)
    weighted = _guarded_solve(gamma, m_vec,
                              SingularPseudoCov("batch orientation noise "
                                                "covariance is ill-conditioned"))
    info_gain = float(m_vec @ weighted)
    if info_gain < 0.0:
        raise SingularPseudoCov("batch orientation noise covariance "
                                "is not positive definite")
    count = len(centered)
    # The predicted-angle term enters every summand of the innovation.
    xi_sum = (build_pseudo(centered) - mom.expected_b
              + m_vec * orient.mean).sum(axis=0)
    info_prior = orient.mean / orient.var
    var = 1.0 / (1.0 / orient.var + count * info_gain)
    mean = wrap_angle(var * (info_prior + float(weighted @ xi_sum)))
    return OrientationState(mean, var)


def step_batch(est: DecoupledEstimate, measurements: MeasurementSet,
               motion: MotionModel, cfg: FilterConfig,
               diagnostics: Optional[StepDiagnostics] = None
               ) -> DecoupledEstimate:
    """One predict/update cycle of the batch filter.

    Zero measurements yield the prediction, a single measurement is
    delegated to the sequential step bit-for-bit, and two or more run the
    three batch updates against the prediction. Ill-conditioned updates
    are skipped and counted as in the sequential filter.
    """
    if len(measurements) <= 1:
        return step_sequential(est, measurements, motion, cfg,
                               diagnostics=diagnostics)
    pred = predict(est, motion)
    shape_est = shape_matrix(pred.orient.mean, pred.axis.mean)
    centered = center_measurements(measurements, pred.kin, cfg.R)
    kin = _update_or_skip(diagnostics, "kinematics", batch_update_kinematics,
                          pred.kin, measurements, shape_est, cfg)
    axis = _update_or_skip(diagnostics, "axis", batch_update_axis,
                           pred.axis, centered, pred.orient, cfg)
    orient = _update_or_skip(diagnostics, "orientation",
                             batch_update_orientation,
                             pred.orient, centered, pred.axis, cfg)
    return DecoupledEstimate(kin, axis, orient)

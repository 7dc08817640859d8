"""Sequential filter: interleaved per-measurement updates.

Each time step predicts all three state components, then processes the
measurements one by one. Within measurement i the kinematic, axis, and
orientation updates all read the estimate frozen after measurement i-1
(the "snapshot"), so the order of the three component updates is
irrelevant. The axis and orientation updates are linear estimators on the
quadratic pseudo-measurements; their moments follow from the Gaussian
source moment match plus a first-order treatment of the orientation
uncertainty.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import SingularInnovation, SingularPseudoCov
from .measurements import MeasurementSet, aligned_squares, build_pseudo, \
    center_measurements
from .state import (AXIS_FLOOR, H_CENTER, AxisState, DecoupledEstimate,
                    FilterConfig, KinematicState, MotionModel,
                    OrientationState, rot, shape_matrix, symmetrize_psd,
                    wrap_angle)

# Condition-number guard for the linear solves replacing symbolic inverses.
COND_LIMIT = 1e12

UPDATE_ORDER = ("kinematics", "axis", "orientation")


@dataclass
class StepDiagnostics:
    """Counts of component updates skipped due to ill-conditioning."""
    skipped_kinematics: int = 0
    skipped_axis: int = 0
    skipped_orientation: int = 0

    def merge(self, other: "StepDiagnostics") -> None:
        self.skipped_kinematics += other.skipped_kinematics
        self.skipped_axis += other.skipped_axis
        self.skipped_orientation += other.skipped_orientation

    def as_dict(self) -> dict:
        return {"skipped_kinematics": self.skipped_kinematics,
                "skipped_axis": self.skipped_axis,
                "skipped_orientation": self.skipped_orientation}


@dataclass(frozen=True)
class AxisMoments:
    """Moments of the axis pseudo-measurement a at a given snapshot."""
    expected_a: np.ndarray  # E(a), 2-vector
    cov_aa: np.ndarray      # Cov(a), 2x2
    cross_ap: np.ndarray    # Cov(a, axes), diagonal 2x2


@dataclass(frozen=True)
class OrientationMoments:
    """Moments of the orientation pseudo-measurement b at a snapshot.

    ``m_vec`` is the sensitivity M of E(b) to the angle; the batch
    information-form update linearizes b with it.
    """
    expected_b: np.ndarray   # E(b), 3-vector
    cov_bb: np.ndarray       # Cov(b), 3x3
    cross_btheta: np.ndarray # Cov(b, theta) as a 1x3 row
    m_vec: np.ndarray        # dE(b)/dtheta of the source term, 3-vector


def _guarded_solve(mat: np.ndarray, rhs: np.ndarray, exc) -> np.ndarray:
    """Solve mat @ x = rhs with a condition-number guard.

    ``mat`` is symmetric by construction everywhere this is used, so the
    condition number comes from the eigenvalues.
    """
    if not np.all(np.isfinite(mat)):
        raise exc
    eig = np.abs(np.linalg.eigvalsh(mat))
    if eig.min() * COND_LIMIT <= eig.max() or eig.max() == 0.0:
        raise exc
    return np.linalg.solve(mat, rhs)


def predict(est: DecoupledEstimate, motion: MotionModel) -> DecoupledEstimate:
    """Standard Kalman prediction applied to each component.

    The axis transition is the identity, so only process noise is added
    there; the orientation mean is re-wrapped.
    """
    f = motion.F_kin
    kin = KinematicState(f @ est.kin.mean,
                         symmetrize_psd(f @ est.kin.cov @ f.T + motion.Q_kin))
    axis = AxisState(est.axis.mean, symmetrize_psd(est.axis.cov + motion.Q_axis))
    orient = OrientationState(wrap_angle(est.orient.mean),
                              est.orient.var + motion.Q_theta)
    return DecoupledEstimate(kin, axis, orient)


def kalman_center_update(kin: KinematicState, z: np.ndarray,
                         effective_noise: np.ndarray) -> KinematicState:
    """Kalman update of the kinematics against a 2-d center observation."""
    innovation_cov = H_CENTER @ kin.cov @ H_CENTER.T + effective_noise
    gain = _guarded_solve(innovation_cov, H_CENTER @ kin.cov,
                          SingularInnovation("kinematic innovation covariance "
                                             "is ill-conditioned")).T
    mean = kin.mean + gain @ (np.asarray(z, dtype=float) - H_CENTER @ kin.mean)
    cov = symmetrize_psd(kin.cov - gain @ H_CENTER @ kin.cov)
    return KinematicState(mean, cov)


def update_kinematics(kin: KinematicState, z: np.ndarray,
                      shape_est: np.ndarray, cfg: FilterConfig) -> KinematicState:
    """Kalman update of the kinematics with a single measurement.

    The effective measurement noise is the sensor noise plus the scaled
    shape matrix, accounting for the spread of sources over the extent.
    """
    return kalman_center_update(kin, z, cfg.R + cfg.c * shape_est)


def axis_moments(axis: AxisState, orient: OrientationState,
                 w: np.ndarray, cfg: FilterConfig) -> AxisMoments:
    """Moments of a = (s1^2, s2^2) under the current estimate.

    Rotating the centered-measurement covariance into the object frame
    makes the two axes decouple: each expected square is the aligned
    noise variance plus the scaled second moment of the axis length.
    """
    r_neg = rot(-orient.mean)
    w_theta = r_neg @ np.asarray(w, dtype=float) @ r_neg.T
    p, cov_p = axis.mean, axis.cov
    expected_a = np.array([
        w_theta[0, 0] + cfg.c * (cov_p[0, 0] + p[0] ** 2),
        w_theta[1, 1] + cfg.c * (cov_p[1, 1] + p[1] ** 2),
    ])
    off = 2.0 * w_theta[0, 1] ** 2
    cov_aa = np.array([[2.0 * expected_a[0] ** 2, off],
                       [off, 2.0 * expected_a[1] ** 2]])
    cross_ap = np.diag([2.0 * cfg.c * p[0] * cov_p[0, 0],
                        2.0 * cfg.c * p[1] * cov_p[1, 1]])
    return AxisMoments(expected_a, cov_aa, cross_ap)


def update_axis(axis: AxisState, a: np.ndarray, mom: AxisMoments) -> AxisState:
    """Linear update of the semi-axes from one or more pseudo-measurements.

    ``a`` is one row (s1^2, s2^2) or a stack of M rows that all share the
    moments ``mom``. The stacked covariance is then block diagonal with
    one repeated block, so the gain is that of a single row, the
    innovations add up, and the covariance correction scales by M.
    """
    rows = np.asarray(a, dtype=float).reshape(-1, 2)
    gain = _guarded_solve(mom.cov_aa, mom.cross_ap.T,
                          SingularPseudoCov("axis pseudo-measurement covariance "
                                            "is ill-conditioned")).T
    mean = axis.mean + gain @ (rows - mom.expected_a).sum(axis=0)
    cov = symmetrize_psd(axis.cov - len(rows) * gain @ mom.cross_ap.T)
    return AxisState(np.maximum(mean, AXIS_FLOOR), cov)


def orientation_moments(axis: AxisState, orient: OrientationState,
                        w: np.ndarray, cfg: FilterConfig) -> OrientationMoments:
    """Moments of b = (s1^2, s2^2, s1*s2) under the current estimate.

    The centered measurement is modeled as s = R(theta) diag(l) h + w
    with h ~ N(0, c I). Its covariance C_s combines the noise W, the
    source spread c S S^T with S = R(theta) diag(l), and a first-order
    term for the angle uncertainty built from the angle derivatives J1,
    J2 of the rows of S. E(b) reads (C11, C22, C12) off the symmetric
    C_s. Treating s as zero-mean Gaussian, Isserlis' theorem gives each
    entry of Cov(b) as products of two entries of C_s:
    Cov(s_i s_j, s_k s_l) = C_ik C_jl + C_il C_jk.
    """
    theta, var_theta = orient.mean, orient.var
    l1, l2 = axis.mean
    s_mat = rot(theta) @ np.diag([l1, l2])
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    j1 = np.array([-l1 * sin_t, -l2 * cos_t])
    j2 = np.array([l1 * cos_t, -l2 * sin_t])
    jj = np.array([[j1 @ j1, j1 @ j2],
                   [j2 @ j1, j2 @ j2]])
    cov_s = (np.asarray(w, dtype=float) + cfg.c * (s_mat @ s_mat.T)
             + var_theta * cfg.c * jj)

    (c11, c12), (_, c22) = cov_s.tolist()
    expected_b = np.array([c11, c22, c12])
    cov_bb = np.array([
        [2.0 * (c11 * c11), 2.0 * (c12 * c12), 2.0 * (c11 * c12)],
        [2.0 * (c12 * c12), 2.0 * (c22 * c22), 2.0 * (c22 * c12)],
        [2.0 * (c11 * c12), 2.0 * (c22 * c12), c11 * c22 + c12 * c12],
    ])
    s1, s2 = s_mat[0], s_mat[1]
    m_vec = cfg.c * np.array([2.0 * s1 @ j1,
                              2.0 * s2 @ j2,
                              s1 @ j2 + s2 @ j1])
    cross_btheta = (var_theta * m_vec).reshape(1, 3)
    return OrientationMoments(expected_b, cov_bb, cross_btheta, m_vec)


def update_orientation(orient: OrientationState, b: np.ndarray,
                       mom: OrientationMoments) -> OrientationState:
    """Linear update of the orientation from one pseudo-measurement b."""
    gain = _guarded_solve(mom.cov_bb, mom.cross_btheta.T,
                          SingularPseudoCov("orientation pseudo-measurement "
                                            "covariance is ill-conditioned")).ravel()
    innovation = np.asarray(b, dtype=float) - mom.expected_b
    mean = wrap_angle(orient.mean + float(gain @ innovation))
    var = orient.var - float(gain @ mom.cross_btheta.ravel())
    return OrientationState(mean, max(var, 0.0))


def _update_or_skip(diagnostics: Optional[StepDiagnostics], component: str,
                    update, prior, *args):
    """Return ``update(prior, *args)``, or ``prior`` if the update is skipped.

    An ill-conditioned solve skips the update and counts it in
    ``diagnostics`` under ``component``.
    """
    try:
        return update(prior, *args)
    except (SingularInnovation, SingularPseudoCov):
        if diagnostics is not None:
            counter = "skipped_" + component
            setattr(diagnostics, counter, getattr(diagnostics, counter) + 1)
        return prior


def step_sequential(est: DecoupledEstimate, measurements: MeasurementSet,
                    motion: MotionModel, cfg: FilterConfig,
                    order: Sequence[str] = UPDATE_ORDER,
                    diagnostics: Optional[StepDiagnostics] = None
                    ) -> DecoupledEstimate:
    """One predict/update cycle of the sequential filter.

    With no measurements the prediction is returned unchanged. Otherwise
    the centered measurements and their covariance W are fixed once from
    the prediction, and each measurement updates all three components
    against the previous snapshot. ``order`` only permutes the execution
    order of the three component updates; because each reads the snapshot
    alone, the result is identical for every permutation. Ill-conditioned
    single updates are skipped and counted rather than aborting the step.
    """
    for component in order:
        if component not in UPDATE_ORDER:
            raise ValueError(f"unknown component {component!r}")
    pred = predict(est, motion)
    if len(measurements) == 0:
        return pred
    centered = center_measurements(measurements, pred.kin, cfg.R)
    w = centered.W

    current = pred
    for z, s, b in zip(measurements.points, centered.s, build_pseudo(centered)):
        snap = current
        axis, orient = snap.axis, snap.orient
        calls = {
            "kinematics": (update_kinematics, snap.kin, z,
                           shape_matrix(orient.mean, axis.mean), cfg),
            "axis": (update_axis, axis, aligned_squares(s, orient.mean),
                     axis_moments(axis, orient, w, cfg)),
            "orientation": (update_orientation, orient, b,
                            orientation_moments(axis, orient, w, cfg)),
        }
        parts = {"kinematics": snap.kin, "axis": axis, "orientation": orient}
        for component in order:
            parts[component] = _update_or_skip(diagnostics, component,
                                               *calls[component])
        current = DecoupledEstimate(parts["kinematics"], parts["axis"],
                                    parts["orientation"])
    return current

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

import math
from dataclasses import dataclass
from operator import mul
from typing import Optional, Sequence

import numpy as np

from .errors import SingularInnovation, SingularPseudoCov
from .measurements import MeasurementSet, aligned_squares, build_pseudo, \
    center_measurements
from .state import (AXIS_FLOOR, AxisState, DecoupledEstimate, FilterConfig,
                    KinematicState, MotionModel, OrientationState,
                    _aligned_entries, _psd_2x2, _shape_entries, shape_matrix,
                    symmetrize_psd, wrap_angle)

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


def _cross(u: list, v: list) -> list:
    """Cross product of two 3-vectors given as lists."""
    return [u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]


def _det3(r0: list, r1: list, r2: list) -> float:
    """Determinant of the 3x3 matrix with rows r0, r1, r2.

    One elimination step with partial pivoting, then a 2x2 determinant.
    Expanding by cofactors instead loses up to eps * kappa^2 when one
    eigenvalue dominates; elimination is backward stable, so the result
    is the determinant of a matrix within rounding of the input.
    """
    m0, m1, m2 = abs(r0[0]), abs(r1[0]), abs(r2[0])
    if m0 >= m1 and m0 >= m2:
        top, u, v, sign = r0, r1, r2, 1.0
    elif m1 >= m2:
        top, u, v, sign = r1, r0, r2, -1.0
    else:
        top, u, v, sign = r2, r0, r1, 1.0
    pivot = top[0]
    if pivot == 0.0:
        return 0.0
    fu, fv = u[0] / pivot, v[0] / pivot
    return sign * pivot * ((u[1] - fu * top[1]) * (v[2] - fv * top[2])
                           - (u[2] - fu * top[2]) * (v[1] - fv * top[1]))


def _guarded_solve(mat, rhs, exc):
    """Solve mat @ x = rhs for a 2x2 or 3x3 ``mat``, or raise ``exc``.

    ``mat`` is a nested list of floats or an array. ``rhs`` is an array,
    and then so is x, or a list of floats, and then x is one too. The
    solve is x = adj(A) rhs / det(A). The guard is the
    Frobenius condition number kappa_F = ||A||_F ||adj A||_F / |det A|,
    which is ||A||_F ||A^-1||_F and so lies between the 2-norm condition
    number and n times it. ``exc`` is raised for a non-finite entry or
    when kappa_F reaches ``COND_LIMIT``. On a numerically singular matrix
    the determinant is a rounding residue, which puts kappa_F near 1/eps,
    far above the limit, rather than letting it collapse.
    """
    rows = mat.tolist() if isinstance(mat, np.ndarray) else mat
    if len(rows) == 2:
        (a, b), (c, d) = rows
        adj = ((d, -b), (-c, a))
        det = a * d - b * c
        norm = norm_adj = math.hypot(a, b, c, d)
    else:
        # The columns of adj(A) are cross products of the rows of A.
        r0, r1, r2 = rows
        col0, col1, col2 = _cross(r1, r2), _cross(r2, r0), _cross(r0, r1)
        adj = tuple(zip(col0, col1, col2))
        det = _det3(r0, r1, r2)
        norm = math.hypot(*r0, *r1, *r2)
        norm_adj = math.hypot(*col0, *col1, *col2)
    # A non-finite entry makes the norm inf or NaN. The comparison is
    # negated so that a NaN product (inf * 0) also raises.
    if not (math.isfinite(norm) and norm * norm_adj < COND_LIMIT * abs(det)):
        raise exc
    if isinstance(rhs, np.ndarray):
        return np.dot(adj, rhs) / det
    return [sum(map(mul, row, rhs)) / det for row in adj]


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
    """Kalman update of the kinematics against a 2-d center observation.

    The center is the first two state entries, so the observation model
    reduces to the slices ``cov[:2]`` (H P) and ``cov[:2, :2]`` (H P H^T).
    """
    center_rows = kin.cov[:2]
    innovation_cov = center_rows[:, :2] + effective_noise
    gain = _guarded_solve(innovation_cov, center_rows,
                          SingularInnovation("kinematic innovation covariance "
                                             "is ill-conditioned")).T
    mean = kin.mean + gain @ (np.asarray(z, dtype=float) - kin.mean[:2])
    cov = symmetrize_psd(kin.cov - gain @ center_rows)
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
    (w11, w12), (w21, w22) = np.asarray(w, dtype=float).tolist()
    aligned_1, aligned_2, aligned_12 = _aligned_entries(orient.mean, w11, w12,
                                                        w21, w22)
    p1, p2 = axis.mean.tolist()
    (var_1, _), (_, var_2) = axis.cov.tolist()
    c = cfg.c
    ea1 = aligned_1 + c * (var_1 + p1 * p1)
    ea2 = aligned_2 + c * (var_2 + p2 * p2)
    off = 2.0 * aligned_12 * aligned_12
    return AxisMoments(np.array([ea1, ea2]),
                       np.array([[2.0 * ea1 * ea1, off],
                                 [off, 2.0 * ea2 * ea2]]),
                       np.array([[2.0 * c * p1 * var_1, 0.0],
                                 [0.0, 2.0 * c * p2 * var_2]]))


def update_axis(axis: AxisState, a, mom: AxisMoments,
                count: int = 1) -> AxisState:
    """Linear update of the semi-axes from ``count`` pseudo-measurements.

    ``a`` is the sum of ``count`` aligned squares (s1^2, s2^2) that all
    share the moments ``mom``; with the default count it is one row. The
    stacked covariance is then block diagonal with one repeated block, so
    the gain is that of a single row, the innovations add up to
    a - count E(a), and the covariance correction scales by ``count``.
    The correction can leave the covariance indefinite; it is projected
    back onto the PSD matrices in closed form (:func:`_psd_2x2`).
    """
    a1, a2 = a
    e1, e2 = mom.expected_a.tolist()
    (d1, _), (_, d2) = mom.cross_ap.tolist()
    # cross_ap is a diagonal D, so the gain is D cov_aa^-1 = X^T with
    # X = cov_aa^-1 D.
    (x11, x12), (x21, x22) = _guarded_solve(
        mom.cov_aa, mom.cross_ap,
        SingularPseudoCov("axis pseudo-measurement covariance "
                          "is ill-conditioned")).tolist()
    nu1, nu2 = a1 - count * e1, a2 - count * e2
    (p1, p2) = axis.mean.tolist()
    (c11, c12), (c21, c22) = axis.cov.tolist()
    mean = [max(p1 + (x11 * nu1 + x21 * nu2), AXIS_FLOOR),
            max(p2 + (x12 * nu1 + x22 * nu2), AXIS_FLOOR)]
    c11, c12, c22 = _psd_2x2(c11 - count * (x11 * d1),
                             0.5 * ((c12 - count * (x21 * d2))
                                    + (c21 - count * (x12 * d1))),
                             c22 - count * (x22 * d2))
    return AxisState(mean, np.array([[c11, c12], [c12, c22]]))


def orientation_moments(axis: AxisState, orient: OrientationState,
                        w: np.ndarray, cfg: FilterConfig) -> OrientationMoments:
    """Moments of b = (s1^2, s2^2, s1*s2) under the current estimate.

    The centered measurement is modeled as s = R(theta) diag(l) h + w
    with h ~ N(0, c I). Its covariance C_s combines the noise W, the
    source spread c S S^T with S = R(theta) diag(l), and a first-order
    term for the angle uncertainty built from the angle derivatives J1,
    J2 of the rows of S. Written out, S S^T is the shape matrix X, and
    J J^T = [[X22, -X12], [-X12, X11]], so with v = var(theta)

        C11 = W11 + c (X11 + v X22),  C22 = W22 + c (X22 + v X11),
        C12 = W12 + c (1 - v) X12.

    E(b) reads (C11, C22, C12) off C_s. Treating s as zero-mean Gaussian,
    Isserlis' theorem gives each entry of Cov(b) as products of two
    entries of C_s: Cov(s_i s_j, s_k s_l) = C_ik C_jl + C_il C_jk. The
    sensitivity is M = c (2 s1.j1, 2 s2.j2, s1.j2 + s2.j1)
    = c (-2 X12, 2 X12, X11 - X22), with s_i and j_i the rows of S and J.
    """
    var_theta = orient.var
    x11, x22, x12 = _shape_entries(orient.mean, *axis.mean.tolist())
    (w11, w12), (_, w22) = np.asarray(w, dtype=float).tolist()
    c = cfg.c
    c11 = w11 + c * (x11 + var_theta * x22)
    c22 = w22 + c * (x22 + var_theta * x11)
    c12 = w12 + c * (1.0 - var_theta) * x12
    expected_b = np.array([c11, c22, c12])
    cov_bb = np.array([
        [2.0 * (c11 * c11), 2.0 * (c12 * c12), 2.0 * (c11 * c12)],
        [2.0 * (c12 * c12), 2.0 * (c22 * c22), 2.0 * (c22 * c12)],
        [2.0 * (c11 * c12), 2.0 * (c22 * c12), c11 * c22 + c12 * c12],
    ])
    m1, m2, m3 = -2.0 * c * x12, 2.0 * c * x12, c * (x11 - x22)
    m_vec = np.array([m1, m2, m3])
    cross_btheta = np.array([[var_theta * m1, var_theta * m2, var_theta * m3]])
    return OrientationMoments(expected_b, cov_bb, cross_btheta, m_vec)


def update_orientation(orient: OrientationState, b: np.ndarray,
                       mom: OrientationMoments) -> OrientationState:
    """Linear update of the orientation from one pseudo-measurement b."""
    cross = mom.cross_btheta[0].tolist()
    gain = _guarded_solve(mom.cov_bb, cross,
                          SingularPseudoCov("orientation pseudo-measurement "
                                            "covariance is ill-conditioned"))
    innovation = [bi - ei for bi, ei in zip(np.ravel(b).tolist(),
                                            mom.expected_b.tolist())]
    mean = wrap_angle(orient.mean + sum(map(mul, gain, innovation)))
    var = orient.var - sum(map(mul, gain, cross))
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
            "axis": (update_axis, axis, aligned_squares(s, orient.mean)[0],
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

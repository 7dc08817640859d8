"""Shared fixtures and the numpy reference of each filter update.

The filters run every update as closed-form scalar arithmetic on Python
floats. The references below are the general linear-algebra forms of the
same updates, one per update: the prediction; the kinematic update with
the selection matrix H; the axis update as a single pseudo-measurement
row and as the (2M)x(2M) block-diagonal stacked system; the sequential
and the information-form batch orientation updates; the axis and
orientation moments (Cov(b) as the Kronecker square of C_s); and both
steps on arrays of per-point terms. Solves are LAPACK's behind an
eigenvalue condition guard, and the PSD repair is Cholesky and the
eigenvalue floor. The module tests compare the float code with them.
"""

import numpy as np
import pytest
from hypothesis import settings

from elliptrack import (AxisState, DecoupledEstimate, FilterConfig,
                        KinematicState, MotionModel, OrientationState,
                        constant_velocity_transition, rot, wrap_angle)
from elliptrack.errors import SingularInnovation, SingularPseudoCov
from elliptrack.measurements import (CenteredMeasurements, aligned_squares,
                                     build_pseudo)
from elliptrack.sequential import AXIS_FLOOR, COND_LIMIT, AxisMoments
from elliptrack.state import _axis_floats, _axis_state, clamp_axis_variance

# Selection matrix mapping vec(2x2) (column-major) to (m11, m22, m21);
# applied to s (x) s it yields the pseudo-measurement b = (s1^2, s2^2, s1*s2).
QUAD_SELECT = np.array([[1.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 1.0],
                        [0.0, 1.0, 0.0, 0.0]])

# Like QUAD_SELECT but picks m12 for the cross term; QUAD_SELECT +
# QUAD_SELECT_ALT symmetrizes the cross-term rows of the Kronecker square.
QUAD_SELECT_ALT = np.array([[1.0, 0.0, 0.0, 0.0],
                            [0.0, 0.0, 0.0, 1.0],
                            [0.0, 0.0, 1.0, 0.0]])

# Selects the object center from the 4-d kinematic state.
H_CENTER = np.array([[1.0, 0.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0, 0.0]])


def cov_b_oracle(c_mat):
    """Cov(b) of b = (s1^2, s2^2, s1 s2), s ~ N(0, C), as the Kronecker
    square of C under the selection matrices."""
    c_mat = np.asarray(c_mat, dtype=float)
    return QUAD_SELECT @ np.kron(c_mat, c_mat) @ (QUAD_SELECT
                                                 + QUAD_SELECT_ALT).T


# Property tests run a fixed set of examples, so tier-1 stays reproducible
# and bounded in time.
settings.register_profile("tier1", derandomize=True, max_examples=40,
                          deadline=None)
settings.load_profile("tier1")


def pytest_collection_modifyitems(config, items):
    """Mark the acceptance module's tests, so ``-m "not acceptance"`` skips them."""
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.acceptance)


def _has_psd_pivots(rows):
    """True if LDL^T elimination of the symmetric ``rows`` meets no bad pivot.

    The loop form of the pivot test, for any size, that the written-out
    ``state._has_psd_pivots_4x4`` and the inline 2x2 test of
    ``state._psd_2x2`` are held to. Works on the upper triangle of a
    nested list in place. A zero pivot passes only when the rest of its
    row is exactly zero. NaN fails.
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


def symmetrize_psd_oracle(mat):
    """The LAPACK form: Cholesky as the PD test, then the eigenvalue floor."""
    sym = 0.5 * (mat + mat.T)
    try:
        np.linalg.cholesky(sym)
        return sym
    except np.linalg.LinAlgError:
        pass
    eigval, eigvec = np.linalg.eigh(sym)
    return (eigvec * np.maximum(eigval, 0.0)) @ eigvec.T


def shape_oracle(theta, axes):
    """X = R(theta) diag(l^2) R(theta)^T."""
    return rot(theta) @ np.diag(np.square(axes)) @ rot(theta).T


def _sqrt_psd(mat):
    """The symmetric PSD square root by ``eigh``, negative eigenvalues
    (rounding of a singular matrix) floored at zero."""
    eigval, eigvec = np.linalg.eigh(0.5 * (mat + mat.T))
    return (eigvec * np.sqrt(np.maximum(eigval, 0.0))) @ eigvec.T


def gwd_squared_oracle(a, b):
    """The matrix form of GWD^2: two shape matrices, two 2x2 square roots."""
    xa, xb = shape_oracle(a.theta, a.semi_axes), shape_oracle(b.theta,
                                                             b.semi_axes)
    root_a = _sqrt_psd(xa)
    inner = _sqrt_psd(root_a @ xb @ root_a)
    total = (float(np.sum((a.center - b.center) ** 2))
             + float(np.trace(xa + xb - 2.0 * inner)))
    return 0.0 if -np.inf < total < 0.0 else total


def assert_symmetric_psd(mat, sym_tol=1e-10, eig_tol=-1e-10):
    mat = np.asarray(mat)
    assert np.abs(mat - mat.T).max() <= sym_tol
    assert np.linalg.eigvalsh(0.5 * (mat + mat.T)).min() >= eig_tol


def make_estimate(center=(0.0, 0.0), velocity=(3.0, 0.0), axes=(5.0, 2.0),
                  theta=0.0, kin_cov=None, axis_cov=None, theta_var=0.1):
    kin_cov = np.diag([2.0, 2.0, 0.5, 0.5]) if kin_cov is None else kin_cov
    axis_cov = np.eye(2) if axis_cov is None else axis_cov
    return DecoupledEstimate(
        kin=KinematicState([*center, *velocity], kin_cov),
        axis=AxisState(axes, axis_cov),
        orient=OrientationState(theta, theta_var),
    )


def make_motion(q_pos=1.0, q_vel=2.0, q_axis=0.0, q_theta=0.1, dt=1.0):
    return MotionModel(F_kin=constant_velocity_transition(dt),
                       Q_kin=np.diag([q_pos, q_pos, q_vel, q_vel]),
                       Q_axis=np.eye(2) * q_axis,
                       Q_theta=q_theta)


@pytest.fixture
def default_config():
    return FilterConfig(R=np.eye(2), c=0.25)


# Guard and solve.

def ill_conditioned(mat):
    """The eigenvalue condition guard: |lambda| max / min reaches
    COND_LIMIT, or ``mat`` is zero."""
    eig = np.abs(np.linalg.eigvalsh(mat))
    return eig.min() * COND_LIMIT <= eig.max() or eig.max() == 0.0


def guarded_solve_oracle(mat, rhs):
    """Eigenvalue condition guard and LAPACK solve; None means skipped."""
    return None if ill_conditioned(mat) else np.linalg.solve(mat, rhs)


def _solve_or_raise(mat, rhs, error=None):
    """LAPACK's solve, raising ``error``, if given, where ``mat`` is
    ill-conditioned."""
    if error is not None and ill_conditioned(mat):
        raise error("ill-conditioned")
    return np.linalg.solve(mat, rhs)


def _update_or_skip(diagnostics, component, update, prior, *args):
    """Return ``update(prior, *args)``, or ``prior`` counted as skipped."""
    try:
        return update(prior, *args)
    except (SingularInnovation, SingularPseudoCov):
        if diagnostics is not None:
            counter = "skipped_" + component
            setattr(diagnostics, counter, getattr(diagnostics, counter) + 1)
        return prior


# Moments.

def axis_moments_oracle(axis, theta, w, c):
    """AxisMoments from W rotated into the object frame as a matrix."""
    w_theta = rot(-theta) @ np.asarray(w, dtype=float) @ rot(-theta).T
    variances = np.diag(axis.cov)
    expected = np.diag(w_theta) + c * (variances + axis.mean ** 2)
    cov_aa = 2.0 * np.where(np.eye(2) == 1.0, np.outer(expected, expected),
                            w_theta * w_theta.T)
    return AxisMoments(expected, cov_aa,
                       np.diag(2.0 * c * axis.mean * variances))


def orientation_moments_oracle(axis, orient, w, c):
    """(E(b), Cov(b), M) from C_s = W + C_I + C_II via Kronecker squares."""
    theta, var_theta = orient.mean, orient.var
    l1, l2 = axis.mean
    s_mat = rot(theta) @ np.diag([l1, l2])
    j1 = np.array([-l1 * np.sin(theta), -l2 * np.cos(theta)])
    j2 = np.array([l1 * np.cos(theta), -l2 * np.sin(theta)])
    cov_source = c * (s_mat @ s_mat.T)
    jj = np.array([[j1 @ j1, j1 @ j2], [j2 @ j1, j2 @ j2]])
    cov_angle = var_theta * c * jj
    cov_s = np.asarray(w, dtype=float) + cov_source + cov_angle
    expected_b = QUAD_SELECT @ cov_s.flatten(order="F")
    s1, s2 = s_mat
    m_vec = c * np.array([2.0 * s1 @ j1, 2.0 * s2 @ j2, s1 @ j2 + s2 @ j1])
    return expected_b, cov_b_oracle(cov_s), m_vec


# Updates.

def predict_oracle(est, motion):
    """The prediction on arrays, repaired by the eigenvalue floor."""
    f = motion.F_kin
    return DecoupledEstimate(
        KinematicState(f @ est.kin.mean, symmetrize_psd_oracle(
            f @ est.kin.cov @ f.T + motion.Q_kin)),
        AxisState(est.axis.mean,
                  symmetrize_psd_oracle(est.axis.cov + motion.Q_axis)),
        OrientationState(wrap_angle(est.orient.mean),
                         est.orient.var + motion.Q_theta))


def kinematics_oracle(kin, z, noise):
    """Kalman update on a center observation z with H and full products."""
    innovation_cov = H_CENTER @ kin.cov @ H_CENTER.T + noise
    gain = _solve_or_raise(innovation_cov, H_CENTER @ kin.cov,
                           SingularInnovation).T
    return KinematicState(kin.mean + gain @ (z - H_CENTER @ kin.mean),
                          symmetrize_psd_oracle(kin.cov
                                                - gain @ H_CENTER @ kin.cov))


def update_axis_oracle(axis, a, mom):
    """Mean and covariance of the single-row axis update."""
    gain = np.linalg.solve(mom.cov_aa, mom.cross_ap.T).T
    mean = axis.mean + gain @ (np.asarray(a, dtype=float) - mom.expected_a)
    return mean, axis.cov - gain @ mom.cross_ap.T


def stacked_axis_oracle(axis, stacked_a, mom):
    """Mean and covariance from the full (2M)x(2M) block-diagonal system."""
    count = len(stacked_a)
    cross = np.hstack([mom.cross_ap] * count)
    gain = cross @ np.linalg.inv(np.kron(np.eye(count), mom.cov_aa))
    mean = axis.mean + gain @ (np.ravel(stacked_a)
                               - np.tile(mom.expected_a, count))
    return mean, axis.cov - gain @ cross.T


def axis_oracle(axis, rows, mom):
    """The stacked axis update on per-point aligned squares, guarded,
    floored and repaired."""
    if ill_conditioned(mom.cov_aa):
        raise SingularPseudoCov("ill-conditioned")
    mean, cov = stacked_axis_oracle(axis, rows, mom)
    return AxisState(np.maximum(mean, AXIS_FLOOR), symmetrize_psd_oracle(cov))


# The orientation references guard their solve only when given ``error``:
# the float code bounds kappa_F(C)^2, which the condition number of the
# 3x3 system matches within a factor of about 2, so a test of the solves
# near the guard's edge calls them unguarded, and the steps pass ``error``.

def orientation_gain_oracle(var, moments, error=None):
    """The gain var Cov(b)^-1 M of the sequential orientation update."""
    _, cov_bb, m_vec = moments
    return _solve_or_raise(cov_bb, var * m_vec, error)


def orientation_oracle(orient, b, moments, error=None):
    """Linear update of the angle from one pseudo-measurement row b."""
    expected_b, _, m_vec = moments
    gain = orientation_gain_oracle(orient.var, moments, error)
    return OrientationState(wrap_angle(orient.mean + gain @ (b - expected_b)),
                            max(orient.var - gain @ (orient.var * m_vec), 0.0))


def batch_weights_oracle(var, moments, error=None):
    """The weights G^-1 M of the information-form update, for the noise
    G = Cov(b) - var M M^T of the linearized pseudo-measurement."""
    _, cov_bb, m_vec = moments
    return _solve_or_raise(cov_bb - var * np.outer(m_vec, m_vec), m_vec,
                           error)


def batch_orientation_oracle(orient, rows, moments, error=None):
    """Information-form update summing the pseudo-measurement ``rows``."""
    if orient.var == 0.0:
        return orient
    expected_b, _, m_vec = moments
    weights = batch_weights_oracle(orient.var, moments, error)
    info_gain = float(m_vec @ weights)
    if info_gain < 0.0:
        raise SingularPseudoCov("not positive definite")
    xi_sum = (np.asarray(rows) - expected_b + m_vec * orient.mean).sum(axis=0)
    var = 1.0 / (1.0 / orient.var + len(rows) * info_gain)
    mean = wrap_angle(var * (orient.mean / orient.var
                             + float(weights @ xi_sum)))
    return OrientationState(mean, var)


# Steps.

def step_sequential_oracle(est, measurements, motion, cfg, diagnostics):
    """The sequential step on arrays: H products, per-point rows, LAPACK."""
    pred = predict_oracle(est, motion)
    points = measurements.points
    if len(points) == 0:
        return pred
    if len(points) > 1:
        centered = CenteredMeasurements(points - points.mean(axis=0), cfg.R)
    else:
        centered = CenteredMeasurements(
            points - H_CENTER @ pred.kin.mean,
            cfg.R + H_CENTER @ pred.kin.cov @ H_CENTER.T)
    current = pred
    for z, s, b in zip(points, centered.s, build_pseudo(centered)):
        kin, axis, orient = current.kin, current.axis, current.orient
        current = DecoupledEstimate(
            _update_or_skip(diagnostics, "kinematics", kinematics_oracle, kin,
                            z, cfg.R + cfg.c * shape_oracle(orient.mean,
                                                            axis.mean)),
            _update_or_skip(diagnostics, "axis", axis_oracle, axis,
                            aligned_squares(s, orient.mean),
                            axis_moments_oracle(axis, orient.mean, centered.W,
                                                cfg.c)),
            _update_or_skip(diagnostics, "orientation", orientation_oracle,
                            orient, b, orientation_moments_oracle(
                                axis, orient, centered.W, cfg.c),
                            SingularPseudoCov))
    return current


def step_batch_oracle(est, measurements, motion, cfg, diagnostics):
    """The batch step on (M, 2) and (M, 3) arrays of per-point terms."""
    if len(measurements) <= 1:
        return step_sequential_oracle(est, measurements, motion, cfg,
                                      diagnostics)
    pred = predict_oracle(est, motion)
    points = measurements.points
    z_bar = points.mean(axis=0)
    centered = CenteredMeasurements(points - z_bar, cfg.R)
    noise = (cfg.R + cfg.c * shape_oracle(pred.orient.mean, pred.axis.mean)
             ) / len(points)

    def axis_update(axis, centered, orient, cfg):
        updated = axis_oracle(axis, aligned_squares(centered.s, orient.mean),
                              axis_moments_oracle(axis, orient.mean,
                                                  centered.W, cfg.c))
        if cfg.psi is not None:
            updated = _axis_state(clamp_axis_variance(_axis_floats(updated),
                                                      cfg.psi))
        return updated

    return DecoupledEstimate(
        _update_or_skip(diagnostics, "kinematics", kinematics_oracle,
                        pred.kin, z_bar, noise),
        _update_or_skip(diagnostics, "axis", axis_update,
                        pred.axis, centered, pred.orient, cfg),
        _update_or_skip(diagnostics, "orientation", batch_orientation_oracle,
                        pred.orient, build_pseudo(centered),
                        orientation_moments_oracle(pred.axis, pred.orient,
                                                   centered.W, cfg.c),
                        SingularPseudoCov))

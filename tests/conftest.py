import numpy as np
import pytest
from hypothesis import settings

from elliptrack import (AxisState, DecoupledEstimate, FilterConfig,
                        KinematicState, MotionModel, OrientationState,
                        constant_velocity_transition)
from elliptrack.metrics import matrix_sqrt_2x2
from elliptrack.state import shape_matrix

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


def gwd_squared_oracle(a, b):
    """The matrix form of GWD^2: two shape matrices, two 2x2 square roots."""
    xa = shape_matrix(a.theta, a.semi_axes)
    xb = shape_matrix(b.theta, b.semi_axes)
    root_a = matrix_sqrt_2x2(xa)
    inner = matrix_sqrt_2x2(root_a @ xb @ root_a)
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

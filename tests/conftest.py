import numpy as np
import pytest

from elliptrack import (AxisState, DecoupledEstimate, FilterConfig,
                        KinematicState, MotionModel, OrientationState,
                        constant_velocity_transition)

# Selection matrix mapping vec(2x2) (column-major) to (m11, m22, m21);
# applied to s (x) s it yields the pseudo-measurement b = (s1^2, s2^2, s1*s2).
QUAD_SELECT = np.array([[1.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 1.0],
                        [0.0, 1.0, 0.0, 0.0]])


def pytest_collection_modifyitems(config, items):
    """Mark the acceptance module's tests, so ``-m "not acceptance"`` skips them."""
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.acceptance)


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

"""Matrix-form oracles for the closed-form moments, solve and axis update.

The filters compute Cov(b) entry by entry from Isserlis' theorem, solve
their 2x2 and 3x3 systems by adjugate and determinant, and run one axis
update for a single pseudo-measurement and for a stack of them. The
oracles below are the general linear-algebra forms they replace: the
Kronecker square of C_s under selection matrices, an eigenvalue
condition guard with a LAPACK solve, and the separate single-row and
stacked axis updates.
"""

import numpy as np
import pytest

from elliptrack import AxisState, FilterConfig, OrientationState, rot
from elliptrack.errors import SingularPseudoCov
from elliptrack.measurements import aligned_squares
from elliptrack.sequential import (AXIS_FLOOR, COND_LIMIT, _guarded_solve,
                                   axis_moments, orientation_moments,
                                   update_axis)
from elliptrack.state import symmetrize_psd

from conftest import QUAD_SELECT

# Like QUAD_SELECT but picks m12 for the cross term; QUAD_SELECT +
# QUAD_SELECT_ALT symmetrizes the cross-term rows of the Kronecker square.
QUAD_SELECT_ALT = np.array([[1.0, 0.0, 0.0, 0.0],
                            [0.0, 0.0, 0.0, 1.0],
                            [0.0, 0.0, 1.0, 0.0]])

TOL = 1e-12


def orientation_moments_oracle(axis, orient, w, cfg):
    """(E(b), Cov(b), M) from C_s = W + C_I + C_II via Kronecker squares."""
    theta, var_theta = orient.mean, orient.var
    l1, l2 = axis.mean
    s_mat = rot(theta) @ np.diag([l1, l2])
    j1 = np.array([-l1 * np.sin(theta), -l2 * np.cos(theta)])
    j2 = np.array([l1 * np.cos(theta), -l2 * np.sin(theta)])
    cov_source = cfg.c * (s_mat @ s_mat.T)
    jj = np.array([[j1 @ j1, j1 @ j2], [j2 @ j1, j2 @ j2]])
    cov_angle = var_theta * cfg.c * jj
    cov_s = np.asarray(w, dtype=float) + cov_source + cov_angle
    expected_b = QUAD_SELECT @ cov_s.flatten(order="F")
    cov_bb = QUAD_SELECT @ np.kron(cov_s, cov_s) @ (QUAD_SELECT
                                                   + QUAD_SELECT_ALT).T
    s1, s2 = s_mat
    m_vec = cfg.c * np.array([2.0 * s1 @ j1, 2.0 * s2 @ j2,
                              s1 @ j2 + s2 @ j1])
    return expected_b, cov_bb, m_vec


def guarded_solve_oracle(mat, rhs):
    """Eigenvalue condition guard and LAPACK solve; None means skipped."""
    eig = np.abs(np.linalg.eigvalsh(mat))
    if eig.min() * COND_LIMIT <= eig.max() or eig.max() == 0.0:
        return None
    return np.linalg.solve(mat, rhs)


def update_axis_oracle(axis, a, mom):
    """The single-row axis update: one innovation, one correction."""
    gain = _guarded_solve(mom.cov_aa, mom.cross_ap.T,
                          SingularPseudoCov("ill-conditioned")).T
    mean = axis.mean + gain @ (np.asarray(a, dtype=float) - mom.expected_a)
    cov = symmetrize_psd(axis.cov - gain @ mom.cross_ap.T)
    return AxisState(np.maximum(mean, AXIS_FLOOR), cov)


def stacked_axis_oracle(axis, stacked_a, mom):
    """Mean and covariance from the full (2M)x(2M) block-diagonal system."""
    count = len(stacked_a)
    cross = np.hstack([mom.cross_ap] * count)
    gain = cross @ np.linalg.inv(np.kron(np.eye(count), mom.cov_aa))
    mean = axis.mean + gain @ (stacked_a.ravel()
                               - np.tile(mom.expected_a, count))
    return mean, axis.cov - gain @ cross.T


def _random_case(rng):
    axis = AxisState(rng.uniform(0.5, 6.0, size=2),
                     np.diag(rng.uniform(0.0, 0.5, size=2)))
    orient = OrientationState(rng.uniform(-np.pi, np.pi), rng.uniform(0.0, 0.8))
    root = rng.normal(size=(2, 2))
    w = root @ root.T
    w = 0.5 * (w + w.T)
    cfg = FilterConfig(R=w, c=rng.choice([0.25, 1.0 / 3.0]))
    return axis, orient, w, cfg


def test_orientation_moments_match_kronecker_oracle():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(2000):
        axis, orient, w, cfg = _random_case(rng)
        mom = orientation_moments(axis, orient, w, cfg)
        expected_b, cov_bb, m_vec = orientation_moments_oracle(axis, orient,
                                                               w, cfg)
        scale = max(1.0, np.abs(cov_bb).max())
        worst = max(worst,
                    np.abs(mom.expected_b - expected_b).max() / scale,
                    np.abs(mom.cov_bb - cov_bb).max() / scale,
                    np.abs(mom.m_vec - m_vec).max() / scale,
                    np.abs(mom.cross_btheta.ravel()
                           - orient.var * m_vec).max() / scale)
    print(f"worst relative deviation from the Kronecker oracle: {worst:.2e}")
    assert worst <= TOL


def test_isserlis_entries_against_monte_carlo():
    # the oracle itself: Cov(b) of zero-mean Gaussian draws with covariance
    # C_s matches the Kronecker form within sampling error
    rng = np.random.default_rng(21)
    axis = AxisState([3.0, 1.5], np.zeros((2, 2)))
    orient = OrientationState(0.6, 0.0)
    w = np.array([[1.0, 0.3], [0.3, 0.5]])
    cfg = FilterConfig(R=w, c=0.25)
    expected_b, cov_bb, _ = orientation_moments_oracle(axis, orient, w, cfg)
    cov_s = np.array([[expected_b[0], expected_b[2]],
                      [expected_b[2], expected_b[1]]])
    s = rng.multivariate_normal(np.zeros(2), cov_s, size=400_000)
    b = np.column_stack((s ** 2, s[:, 0] * s[:, 1]))
    np.testing.assert_allclose(np.cov(b.T), cov_bb, rtol=0.03, atol=0.03)


def test_update_axis_matches_single_row_and_stacked_forms():
    rng = np.random.default_rng(22)
    worst, compared = 0.0, 0
    for _ in range(1000):
        axis, orient, w, cfg = _random_case(rng)
        mom = axis_moments(axis, orient, w, cfg)
        stacked = aligned_squares(rng.normal(size=(rng.integers(1, 12), 2))
                                  * 3.0, orient.mean)
        # one row, flat or as a one-row stack, is the single-row update
        single = update_axis_oracle(axis, stacked[0], mom)
        for row in (stacked[0], stacked[:1]):
            out = update_axis(axis, row, mom)
            assert np.array_equal(out.mean, single.mean)
            assert np.array_equal(out.cov, single.cov)
        out = update_axis(axis, stacked, mom)
        mean, cov = stacked_axis_oracle(axis, stacked, mom)
        cov = 0.5 * (cov + cov.T)
        # compare where neither the axis floor nor the PSD repair acts
        if np.all(mean > AXIS_FLOOR) and np.linalg.eigvalsh(cov).min() > 0.0:
            worst = max(worst,
                        np.abs(out.mean - mean).max()
                        / max(1.0, np.abs(mean).max()),
                        np.abs(out.cov - cov).max()
                        / max(1.0, np.abs(cov).max()))
            compared += 1
    print(f"worst relative deviation from the stacked oracle: {worst:.2e} "
          f"over {compared} cases")
    assert compared > 500 and worst <= TOL


@pytest.mark.parametrize("n", [2, 3])
def test_guarded_solve_matches_eigenvalue_oracle(n):
    # symmetric matrices Q diag(+-lambda) Q^T, PD or indefinite, with the
    # condition number log-uniform in [1, 1e20]
    rng = np.random.default_rng(23 + n)
    worst, solved, disagree = 0.0, 0, []
    for trial in range(4000):
        cond = 10.0 ** rng.uniform(0.0, 20.0)
        magnitudes = np.exp(rng.uniform(0.0, np.log(cond), size=n))
        magnitudes[0], magnitudes[-1] = 1.0, cond
        signs = np.ones(n) if trial % 2 else rng.choice([-1.0, 1.0], size=n)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        mat = scale * (q * (signs * magnitudes)) @ q.T
        mat = 0.5 * (mat + mat.T)
        rhs = rng.normal(size=(n, 2) if trial % 3 else n)
        expected = guarded_solve_oracle(mat, rhs)
        try:
            out = _guarded_solve(mat, rhs, SingularPseudoCov("skip"))
        except SingularPseudoCov:
            out = None
        if not COND_LIMIT / 10.0 <= cond <= COND_LIMIT * 10.0:
            if (out is None) != (expected is None):
                disagree.append(cond)
        if cond <= 1e6:
            assert out is not None and expected is not None
            worst = max(worst, np.abs(out - expected).max()
                        / np.abs(expected).max())
            solved += 1
    print(f"worst relative deviation from the LAPACK solve: {worst:.2e} "
          f"over {solved} cases")
    assert not disagree
    assert solved > 1000 and worst <= 1e-9


def test_guarded_solve_rejects_non_finite_and_zero():
    exc = SingularPseudoCov("skip")
    for mat in ([[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]],
                np.zeros((2, 2)), np.zeros((3, 3)), np.ones((3, 3))):
        with pytest.raises(SingularPseudoCov):
            _guarded_solve(np.asarray(mat), np.ones(len(mat)), exc)

"""The closed-form orientation solves against general linear algebra.

Both orientation updates solve with B = Cov(b), b = (s1^2, s2^2, s1 s2),
through its closed-form inverse in the three entries of the 2x2 C =
E(s s^T) (``sequential._guarded_solve``); the batch update also inverts
G = B - var M M^T by Sherman-Morrison. Here both updates are held to
``numpy.linalg.solve`` on the 3x3 B and G, over seeded draws of C from
well-conditioned to past the guard's edge; their skip verdicts to the
guard's stated bounds, with numpy's kappa_F(C); and both updates at C
scaled by 1e-80 .. 1e80 to the unscaled result.

Tolerance. A backward-stable solve of A x = r has a relative forward
error of up to about kappa(A) eps, and kappa(B) is kappa(C)^2 within a
factor 2 (see ``_guarded_solve``), at most kappa_F(C)^2. The closed form
forms det C = C11 C22 - C12^2 with a relative error of up to kappa_F(C)
eps, divides by it twice and cancels in the rows of its inverse by up to
kappa(B). So each solve, LAPACK's and the closed form, is within a small
multiple of eps kappa_F(C)^2 of the truth; for G, kappa(G) <= kappa(B) /
(1 - var q) adds that factor. ``SOLVE_TOL`` = 8 eps kappa_F(C)^2 / (1 -
var q) bounds their difference; in a seeded sweep of 20 000 such draws
the largest was 0.75 eps kappa_F(C)^2 / (1 - var q). An update adds the
rounding of its own few sums, a few eps of their terms.
"""

import math

import numpy as np
import pytest

from elliptrack.batch import batch_update_orientation
from elliptrack.errors import SingularPseudoCov
from elliptrack.sequential import (COND_LIMIT, _guarded_solve,
                                   orientation_moments, update_orientation)
from elliptrack.state import _shape_entries, wrap_angle

from conftest import cov_b_oracle

EPS = np.finfo(float).eps
# Relative band around a guard's bound left out of the verdict check:
# numpy's kappa_F(C) and the closed form's differ by about kappa eps.
EDGE_BAND = 1e-3
C_FACTOR = 0.25


def solve_tol(c_mat, shrink=1.0):
    """SOLVE_TOL of the module docstring for C and 1 - var q."""
    return 8.0 * EPS * np.linalg.cond(c_mat, "fro") ** 2 / shrink


def draw_problem(rng, log_cond):
    """(theta, shape, C): an angle, the shape entries of random semi-axes
    at it, and a PD C of condition number 10**log_cond at a random scale
    and orientation."""
    theta = rng.uniform(-np.pi, np.pi)
    shape = _shape_entries(theta, *rng.uniform(0.5, 6.0, size=2).tolist())
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    c_mat = (10.0 ** rng.uniform(-1.0, 2.0)
             * (q * [1.0, 10.0 ** -log_cond]) @ q.T)
    return theta, shape, 0.5 * (c_mat + c_mat.T)


def moments_at(shape, var, c_mat):
    """The orientation moments at ``shape`` and ``var`` with the noise W =
    C - c (X + var adj X) that makes C (up to rounding) the given one; W
    may be indefinite. Returns the moments and C as they round."""
    x11, x22, x12 = shape
    spread = C_FACTOR * np.array([[x11 + var * x22, (1.0 - var) * x12],
                                  [(1.0 - var) * x12, x22 + var * x11]])
    w = c_mat - spread
    w = (0.5 * (w + w.T)).ravel().tolist()
    mom = orientation_moments(shape, var, w, C_FACTOR)
    c11, c22, c12 = mom[0]
    return w, mom, np.array([[c11, c12], [c12, c22]])


def log_conds(rng, count):
    """kappa(C) log-uniform: regular in [1, 1e3] and near-singular in
    [1e5, 10^6.3], across the guard's edge kappa_F(C)^2 = 1e12."""
    return [rng.uniform(*((0.0, 3.0) if k % 2 else (5.0, 6.3)))
            for k in range(count)]


def away_from_edge(value, bound):
    return not abs(value / bound - 1.0) < EDGE_BAND


def test_sequential_update_matches_the_lapack_gain_on_b():
    rng = np.random.default_rng(2301)
    compared = skipped = 0
    for log_cond in log_conds(rng, 3000):
        theta, shape, c_mat = draw_problem(rng, log_cond)
        var = 10.0 ** rng.uniform(-3.0, 0.0)
        _, mom, c_mat = moments_at(shape, var, c_mat)
        s = rng.multivariate_normal(np.zeros(2), c_mat)
        b = (s[0] * s[0], s[1] * s[1], s[0] * s[1])
        kappa_sq = np.linalg.cond(c_mat, "fro") ** 2
        try:
            theta_out, var_out = update_orientation((theta, var), b, mom)
        except SingularPseudoCov:
            theta_out = None
        if away_from_edge(kappa_sq, COND_LIMIT):
            assert (theta_out is None) == (kappa_sq >= COND_LIMIT), kappa_sq
        if theta_out is None:
            skipped += 1
            continue
        cross = var * np.array(mom[2])
        gain = np.linalg.solve(cov_b_oracle(c_mat), cross)
        nu = np.subtract(b, mom[0])
        tol = solve_tol(c_mat)
        gap = abs(wrap_angle(theta_out - (theta + gain @ nu)))
        assert gap <= tol * np.abs(gain) @ np.abs(nu) + 8.0 * EPS * math.pi
        expected_var = var - gain @ cross
        if expected_var > tol * np.abs(gain) @ np.abs(cross):
            assert (abs(var_out - expected_var)
                    <= tol * np.abs(gain) @ np.abs(cross) + 4.0 * EPS * var)
        compared += 1
    assert compared > 1500 and skipped > 200


@pytest.mark.parametrize("count", [2, 12])
def test_batch_update_matches_the_lapack_solve_on_g(count):
    # var scaled so that var q, q = M^T B^-1 M, spans (0, 2): below 1 G is
    # positive definite, and the update must match the information form
    # on LAPACK's solve with G; from 1 on it must reject G
    rng = np.random.default_rng(2302 + count)
    compared = rejected = skipped = 0
    for log_cond in log_conds(rng, 3000):
        theta, shape, c_mat = draw_problem(rng, log_cond)
        # M does not depend on var; var is set from q = M^T B^-1 M
        m_vec = np.array(orientation_moments(shape, 0.0, [0.0] * 4,
                                             C_FACTOR)[2])
        q = m_vec @ np.linalg.solve(cov_b_oracle(c_mat), m_vec)
        var = rng.choice([0.05, 0.5, 0.9, 0.99, 1.01, 1.5]) / q
        w, (expected_b, _, _), c_mat = moments_at(shape, var, c_mat)
        b_mat = cov_b_oracle(c_mat)
        q = m_vec @ np.linalg.solve(b_mat, m_vec)
        shrink = 1.0 - var * q
        kappa_sq = np.linalg.cond(c_mat, "fro") ** 2
        points = rng.multivariate_normal(np.zeros(2), c_mat, size=count)
        scatter = (points[:, 0] @ points[:, 0], points[:, 1] @ points[:, 1],
                   points[:, 0] @ points[:, 1])
        try:
            theta_out, var_out = batch_update_orientation(
                (theta, var), shape, scatter, count, w, C_FACTOR)
            verdict = None
        except SingularPseudoCov as exc:
            verdict = str(exc)
        if kappa_sq >= COND_LIMIT and away_from_edge(kappa_sq, COND_LIMIT):
            assert verdict is not None and "ill-conditioned" in verdict
            skipped += 1
            continue
        if kappa_sq >= COND_LIMIT or abs(shrink) < EDGE_BAND:
            continue
        if shrink < 0.0:
            # G has a negative eigenvalue exactly when var q > 1
            assert np.linalg.eigvalsh(b_mat - var * np.outer(m_vec, m_vec)
                                      ).min() < 0.0
            assert verdict is not None and "not positive definite" in verdict
            rejected += 1
            continue
        if away_from_edge(kappa_sq, shrink * COND_LIMIT):
            assert (verdict is not None) == (kappa_sq >= shrink * COND_LIMIT)
        if verdict is not None:
            continue
        weights = np.linalg.solve(b_mat - var * np.outer(m_vec, m_vec), m_vec)
        info = m_vec @ weights
        var_ref = 1.0 / (1.0 / var + count * info)
        xi = np.array(scatter) - count * (np.array(expected_b) - m_vec * theta)
        theta_ref = var_ref * (theta / var + weights @ xi)
        tol = solve_tol(c_mat, shrink)
        assert abs(var_out - var_ref) <= 4.0 * tol * var_ref
        scale = var_ref * (abs(theta) / var + np.abs(weights) @ np.abs(xi))
        assert (abs(wrap_angle(theta_out - theta_ref))
                <= 4.0 * tol * scale + 8.0 * EPS * math.pi)
        compared += 1
    assert compared > 1000 and rejected > 200 and skipped > 200


SCALES = [1e-80, 1e-60, 1e60, 1e80]


@pytest.mark.parametrize("scale", SCALES)
def test_both_updates_are_scale_free_at_extreme_scales(scale):
    # C, M, b and the scatter all scale with the shape and W, while the
    # updates are invariant: each must return the unscaled result to
    # rounding (the scaled inputs round differently), never NaN or inf
    rng = np.random.default_rng(2303)

    def scaled(values):
        return tuple(v * scale for v in values)

    for log_cond in log_conds(rng, 200):
        theta, shape, c_mat = draw_problem(rng, min(log_cond, 5.5))
        var = 10.0 ** rng.uniform(-3.0, 0.0)
        w, mom, c_mat = moments_at(shape, var, c_mat)
        s = rng.multivariate_normal(np.zeros(2), c_mat, size=5)
        b = (s[0, 0] ** 2, s[0, 1] ** 2, s[0, 0] * s[0, 1])
        scatter = (s[:, 0] @ s[:, 0], s[:, 1] @ s[:, 1], s[:, 0] @ s[:, 1])
        tol = 64.0 * solve_tol(c_mat)
        for update, args, scaled_args in (
                (update_orientation, (b, mom),
                 (scaled(b), orientation_moments(scaled(shape), var, scaled(w),
                                                 C_FACTOR))),
                (batch_update_orientation, (shape, scatter, 5, w, C_FACTOR),
                 (scaled(shape), scaled(scatter), 5, scaled(w), C_FACTOR))):
            try:
                reference = update((theta, var), *args)
                out = update((theta, var), *scaled_args)
            except SingularPseudoCov:
                continue
            assert all(math.isfinite(x) for x in out)
            assert abs(wrap_angle(out[0] - reference[0])) <= tol * math.pi
            assert abs(out[1] - reference[1]) <= tol * var


@pytest.mark.parametrize("scale", SCALES)
def test_a_regular_problem_solves_at_extreme_scales(scale):
    # a well-conditioned C is solved, not skipped, at every scale
    theta, var = 0.4, 0.3
    shape, w = _shape_entries(theta, 3.0, 1.5), (1.0, 0.2, 0.2, 0.5)
    scatter, b = (9.0, 4.0, 2.0), (2.0, 1.0, 0.5)

    def updates(k):
        return (update_orientation(
                    (theta, var), tuple(v * k for v in b), orientation_moments(
                        tuple(v * k for v in shape), var,
                        tuple(v * k for v in w), C_FACTOR)),
                batch_update_orientation(
                    (theta, var), tuple(v * k for v in shape),
                    tuple(v * k for v in scatter), 3, tuple(v * k for v in w),
                    C_FACTOR))

    for out, reference in zip(updates(scale), updates(1.0)):
        assert out != (theta, var)
        np.testing.assert_allclose(out, reference, rtol=1e-13)


def test_guard_bound_of_the_solve_is_kappa_f_squared():
    # at var = 0 the solve skips exactly where kappa_F(C)^2 reaches the
    # limit: C = diag(1, d) has kappa_F = 1/d + d
    for d, skips in ((1.0 / (1e6 * 1.01), True), (1.0 / (1e6 * 0.99), False)):
        kappa = 1.0 / d + d
        assert (kappa * kappa >= COND_LIMIT) is skips
        if skips:
            with pytest.raises(SingularPseudoCov, match="ill-conditioned"):
                _guarded_solve((1.0, d, 0.0), (1.0, 1.0, 1.0),
                               SingularPseudoCov, "B")
        else:
            _guarded_solve((1.0, d, 0.0), (1.0, 1.0, 1.0),
                           SingularPseudoCov, "B")

"""Matrix-form oracles for the closed-form moments, solves and steps.

The filters compute Cov(b) entry by entry from Isserlis' theorem, solve
their 2x2 systems by adjugate and determinant and the orientation's 3x3
system through the closed-form inverse of Cov(b) in the entries of the
2x2 C (plus Sherman-Morrison for the batch noise), run one axis
update for a single pseudo-measurement and for the scatter of a stack of
them, and run both steps on Python floats. The oracles below are the
general linear-algebra forms they replace: the Kronecker square of C_s
under selection matrices, the rotated noise and shape matrices, an
eigenvalue condition guard with a LAPACK solve, the single-row and
block-diagonal stacked axis updates, and both steps on arrays of
per-point terms with the Cholesky/eigenvalue repair. Property tests draw
random PSD priors and point clouds and hold the float steps to them.
The written-out prediction, kinematic update and solve are also held to
their numpy-product and row-loop forms, bit for bit where the summation
order cannot matter. The flat guards, the direct update calls of the
steps and their lazily built exceptions are held bit for bit to the
nested-adjugate guards and the skip wrapper they replaced, and the
orientation solve to row sums over the nested closed-form inverse.
"""

import dataclasses
import math
import sys
import warnings
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from elliptrack import (AxisState, DecoupledEstimate, FilterConfig,
                        KinematicState, MeasurementSet, MotionModel,
                        OrientationState, StepDiagnostics, builtin_scenarios,
                        constant_velocity_transition, predict, rot, step_batch,
                        step_sequential)
from elliptrack.batch import batch_update_orientation
from elliptrack.errors import SingularInnovation, SingularPseudoCov
from elliptrack.errors import ConfigError, EmptyMeasurementSet, NonFiniteState
from elliptrack.measurements import (CenteredMeasurements, aligned_squares,
                                     build_pseudo)
from elliptrack.measurements import _centering, _column_scatter
from elliptrack.sequential import (AXIS_FLOOR, COND_LIMIT, AxisMoments,
                                   _guarded_solve, _predict,
                                   kalman_center_update,
                                   orientation_moments, update_axis)
from elliptrack.sequential import (UPDATE_ORDER, _axis_moments,
                                   _guarded_det, update_orientation)
from elliptrack.simulation import sample_run_data
from elliptrack.state import (_axis_floats, _axis_state, _estimate,
                              _has_psd_pivots_4x4, _is_covariance, _psd_2x2,
                              _psd_rows, _shape_entries, _symmetry_tol,
                              clamp_axis_variance, wrap_angle)

from conftest import (QUAD_SELECT, _has_psd_pivots, assert_symmetric_psd,
                      cov_b_oracle, symmetrize_psd_oracle)

# Selects the object center from the 4-d kinematic state.
H_CENTER = np.array([[1.0, 0.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0, 0.0]])

TOL = 1e-12


def _upper(mat):
    """The upper triangle of a square ``mat``, row by row, as floats: the
    arguments of :func:`_psd_rows` and :func:`_has_psd_pivots_4x4`."""
    mat = np.asarray(mat, dtype=float)
    return mat[np.triu_indices(len(mat))].tolist()


# ---------------------------------------------------------------------------
# The guard and skip forms the filters replaced. The kappa_F guard returned
# the adjugate as nested tuples with the determinant, its caller built the
# exception up front, and each update ran through a skip wrapper. The
# oracles below call them; the flat guards and direct calls must equal them.

def _guarded_adjugate(rows, exc):
    """(adj(A), det(A)) of a 2x2 nested-list ``rows``, or raise ``exc``."""
    (a, b), (c, d) = rows
    adj = ((d, -b), (-c, a))
    det = a * d - b * c
    norm = norm_adj = math.hypot(a, b, c, d)
    if not (math.isfinite(norm) and norm * norm_adj < COND_LIMIT * abs(det)):
        raise exc
    return adj, det


def _guarded_solve_nested(mat, rhs, exc):
    """x = adj(A) rhs / det(A) as a list, by :func:`_guarded_adjugate`."""
    ((a, b), (c, d)), det = _guarded_adjugate(mat, exc)
    x, y = rhs
    return [(a * x + b * y) / det, (c * x + d * y) / det]


def isserlis_inverse(c11, c22, c12):
    """det(C)^2 Cov(b)^-1 as nested rows, from the entries of the 2x2 C:
    [[C22^2/2, C12^2/2, -C12 C22], [C12^2/2, C11^2/2, -C11 C12],
    [-C12 C22, -C11 C12, C11 C22 + C12^2]]."""
    return ((0.5 * (c22 * c22), 0.5 * (c12 * c12), -(c12 * c22)),
            (0.5 * (c12 * c12), 0.5 * (c11 * c11), -(c11 * c12)),
            (-(c12 * c22), -(c11 * c12), c11 * c22 + c12 * c12))


def orientation_solve_rows(moments, rhs, var, error, name):
    """[x1, x2, x3, rhs . x] for x = (Cov(b) - var rhs rhs^T)^-1 rhs, as
    row sums over :func:`isserlis_inverse` times rhs / det C, divided by
    det C, then scaled by Sherman-Morrison; raises ``error`` where det C
    is below the smallest normal float, where kappa_F(C)^2 is not below
    (1 - var q) COND_LIMIT, or where var q lies outside [0, 1)."""
    c11, c22, c12 = moments
    det = c11 * c22 - c12 * c12
    norm, kappa = math.hypot(c11, c12, c12, c22), math.inf
    if det >= sys.float_info.min:
        kappa = norm * norm / det
    if not kappa * kappa < COND_LIMIT:
        raise error(name + " is ill-conditioned")
    scaled = [x / det for x in rhs]
    y = [sum(map(mul, row, scaled)) / det
         for row in isserlis_inverse(c11, c22, c12)]
    q = sum(map(mul, rhs, y))
    if not 0.0 <= var * q < 1.0:
        raise error(name + " is not positive definite")
    shrink = 1.0 - var * q
    if not kappa * kappa < shrink * COND_LIMIT:
        raise error(name + " is ill-conditioned")
    return [x / shrink for x in (*y, q)]


def _update_or_skip(diagnostics, component, update, prior, *args):
    """Return ``update(prior, *args)``, or ``prior`` counted as skipped."""
    try:
        return update(prior, *args)
    except (SingularInnovation, SingularPseudoCov):
        if diagnostics is not None:
            counter = "skipped_" + component
            setattr(diagnostics, counter, getattr(diagnostics, counter) + 1)
        return prior


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
    cov_bb = cov_b_oracle(cov_s)
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
    """Mean and covariance of the single-row axis update."""
    gain = np.linalg.solve(mom.cov_aa, mom.cross_ap.T).T
    mean = axis.mean + gain @ (np.asarray(a, dtype=float) - mom.expected_a)
    return mean, axis.cov - gain @ mom.cross_ap.T


def stacked_axis_oracle(axis, stacked_a, mom):
    """Mean and covariance from the full (2M)x(2M) block-diagonal system."""
    count = len(stacked_a)
    cross = np.hstack([mom.cross_ap] * count)
    gain = cross @ np.linalg.inv(np.kron(np.eye(count), mom.cov_aa))
    mean = axis.mean + gain @ (stacked_a.ravel()
                               - np.tile(mom.expected_a, count))
    return mean, axis.cov - gain @ cross.T


def _solve_or_raise(mat, rhs, exc):
    solution = guarded_solve_oracle(mat, rhs)
    if solution is None:
        raise exc
    return solution


def axis_moments_oracle(axis, theta, w, c):
    """AxisMoments from W rotated into the object frame as a matrix."""
    w_theta = rot(-theta) @ np.asarray(w, dtype=float) @ rot(-theta).T
    variances = np.diag(axis.cov)
    expected = np.diag(w_theta) + c * (variances + axis.mean ** 2)
    cov_aa = 2.0 * np.where(np.eye(2) == 1.0, np.outer(expected, expected),
                            w_theta * w_theta.T)
    return AxisMoments(expected, cov_aa,
                       np.diag(2.0 * c * axis.mean * variances))


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


def shape_oracle(axis, orient):
    """X = R(theta) diag(l^2) R(theta)^T."""
    return rot(orient.mean) @ np.diag(axis.mean ** 2) @ rot(orient.mean).T


def kinematics_oracle(kin, z, noise):
    """Kalman update on a center observation z with H and full products."""
    innovation_cov = H_CENTER @ kin.cov @ H_CENTER.T + noise
    gain = _solve_or_raise(innovation_cov, H_CENTER @ kin.cov,
                           SingularInnovation("ill-conditioned")).T
    return KinematicState(kin.mean + gain @ (z - H_CENTER @ kin.mean),
                          symmetrize_psd_oracle(kin.cov
                                                - gain @ H_CENTER @ kin.cov))


def axis_oracle(axis, rows, mom):
    """Stacked axis update on per-point aligned squares, floored and repaired."""
    gain = _solve_or_raise(mom.cov_aa, mom.cross_ap.T,
                           SingularPseudoCov("ill-conditioned")).T
    mean = axis.mean + gain @ (rows - mom.expected_a).sum(axis=0)
    cov = symmetrize_psd_oracle(axis.cov - len(rows) * gain @ mom.cross_ap.T)
    return AxisState(np.maximum(mean, AXIS_FLOOR), cov)


def orientation_oracle(orient, b, moments):
    """Linear update of the angle from one pseudo-measurement row b."""
    expected_b, cov_bb, m_vec = moments
    cross = orient.var * m_vec
    gain = _solve_or_raise(cov_bb, cross, SingularPseudoCov("ill-conditioned"))
    return OrientationState(wrap_angle(orient.mean + gain @ (b - expected_b)),
                            max(orient.var - gain @ cross, 0.0))


def batch_orientation_oracle(orient, centered, axis, cfg):
    """Information-form update summing the per-point pseudo-measurements."""
    if orient.var == 0.0:
        return orient
    expected_b, cov_bb, m_vec = orientation_moments_oracle(axis, orient,
                                                           centered.W, cfg)
    gamma = cov_bb - orient.var * np.outer(m_vec, m_vec)
    weighted = _solve_or_raise(gamma, m_vec,
                               SingularPseudoCov("ill-conditioned"))
    info_gain = float(m_vec @ weighted)
    if info_gain < 0.0:
        raise SingularPseudoCov("not positive definite")
    xi_sum = (build_pseudo(centered) - expected_b
              + m_vec * orient.mean).sum(axis=0)
    var = 1.0 / (1.0 / orient.var + len(centered) * info_gain)
    mean = wrap_angle(var * (orient.mean / orient.var
                             + float(weighted @ xi_sum)))
    return OrientationState(mean, var)


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
                            z, cfg.R + cfg.c * shape_oracle(axis, orient)),
            _update_or_skip(diagnostics, "axis", axis_oracle, axis,
                            aligned_squares(s, orient.mean),
                            axis_moments_oracle(axis, orient.mean, centered.W,
                                                cfg.c)),
            _update_or_skip(diagnostics, "orientation", orientation_oracle,
                            orient, b, orientation_moments_oracle(
                                axis, orient, centered.W, cfg)))
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
    noise = (cfg.R + cfg.c * shape_oracle(pred.axis, pred.orient)) / len(points)

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
                        pred.orient, centered, pred.axis, cfg))


def _relative_gap(out, ref):
    """Largest deviation of ``out`` from ``ref``, relative per component."""
    def gap(a, b):
        scale = np.abs(b).max()
        return np.abs(a - b).max() / scale if scale > 0.0 else np.abs(a).max()

    gaps = [gap(out.kin.mean, ref.kin.mean), gap(out.kin.cov, ref.kin.cov),
            gap(out.axis.mean, ref.axis.mean), gap(out.axis.cov, ref.axis.cov),
            gap(out.orient.var, ref.orient.var),
            abs(wrap_angle(out.orient.mean - ref.orient.mean)) / np.pi]
    return max(gaps)


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
        mom = orientation_moments(_shape_entries(orient.mean, *axis.mean),
                                  orient.var, w.ravel().tolist(), cfg.c)
        expected_b, cov_bb, m_vec = orientation_moments_oracle(axis, orient,
                                                               w, cfg)
        scale = max(1.0, np.abs(cov_bb).max())
        worst = max(worst, *(np.abs(np.array(out) - ref).max() / scale
                             for out, ref in zip(mom, (expected_b, cov_bb,
                                                       m_vec))))
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
        mom = axis_moments_oracle(axis, orient.mean, w, cfg.c)
        points = rng.normal(size=(rng.integers(1, 12), 2)) * 3.0
        stacked = aligned_squares(points, orient.mean)
        # one point is the single-row update; a stack enters as its scatter
        pairs = []
        for pts, oracle in ((points[:1], update_axis_oracle(axis, stacked[0],
                                                            mom)),
                            (points, stacked_axis_oracle(axis, stacked, mom))):
            scatter = _column_scatter(*pts.T.tolist(), 0.0, 0.0)
            pairs.append((_axis_state(update_axis(
                _axis_floats(axis), orient.mean, scatter, len(pts),
                w.ravel().tolist(), cfg.c)), oracle))
        for out, (mean, cov) in pairs:
            cov = 0.5 * (cov + cov.T)
            # compare where neither the axis floor nor the PSD repair acts
            if (np.all(mean > AXIS_FLOOR)
                    and np.linalg.eigvalsh(cov).min() > 0.0):
                worst = max(worst,
                            np.abs(out.mean - mean).max()
                            / max(1.0, np.abs(mean).max()),
                            np.abs(out.cov - cov).max()
                            / max(1.0, np.abs(cov).max()))
                compared += 1
    print(f"worst relative deviation from the single-row and stacked "
          f"oracles: {worst:.2e} over {compared} cases")
    assert compared > 1000 and worst <= TOL


def _campaign_gap(scenario, runs, step, oracle):
    """Worst gap of ``step`` from ``oracle`` over every step of a campaign.

    Both take the same input estimate at every step. Returns the gap, the
    number of steps with a measurement update, and both skip counts.
    """
    cfg = builtin_scenarios(runs=runs, seed=7)[scenario]
    fcfg = cfg.filter_config()
    diagnostics, oracle_diagnostics = StepDiagnostics(), StepDiagnostics()
    worst, steps = 0.0, 0
    for run in range(cfg.runs):
        est = cfg.prior
        for scan in sample_run_data(cfg, run)[1]:
            out = step(est, scan, cfg.motion, fcfg, diagnostics=diagnostics)
            ref = oracle(est, scan, cfg.motion, fcfg, oracle_diagnostics)
            worst = max(worst, _relative_gap(out, ref))
            steps += len(scan) > (step is step_batch)
            est = out
    return worst, steps, diagnostics.as_dict(), oracle_diagnostics.as_dict()


@pytest.mark.parametrize("scenario", ["moderate", "noisy", "sparse"])
def test_step_batch_matches_array_form_oracle(scenario):
    # every step of 20-run campaigns (psi clamp on), from the same input
    # estimate: the float step on (M, mean, scatter) against the step on
    # per-point arrays, with the eigenvalue floor as the PSD repair
    assert builtin_scenarios(runs=1)[scenario].filter_config().psi is not None
    worst, steps, skips, oracle_skips = _campaign_gap(
        scenario, 20, step_batch, step_batch_oracle)
    print(f"worst relative deviation from the array-form step: {worst:.2e} "
          f"over {steps} batch steps")
    assert steps > 1000
    assert skips == oracle_skips
    assert worst <= TOL


@pytest.mark.parametrize("scenario, runs", [("moderate", 4), ("noisy", 4),
                                            ("stationary", 4)])
def test_step_sequential_matches_array_form_oracle(scenario, runs):
    # the float step that carries the estimate through the scan against
    # the array-form step: H products, aligned_squares and build_pseudo
    # rows, Kronecker moments, LAPACK solves and the eigenvalue repair
    worst, steps, skips, oracle_skips = _campaign_gap(
        scenario, runs, step_sequential, step_sequential_oracle)
    print(f"worst relative deviation from the array-form step: {worst:.2e} "
          f"over {steps} steps")
    assert steps > 300
    assert skips == oracle_skips
    assert worst <= TOL


@st.composite
def problems(draw):
    """A random PSD prior, motion, noise and scan of 0 to 20 points.

    Covariances are L L^T with random L. With some draws the velocity
    block or the axis covariance is exactly zero, which leaves a singular
    PSD prior, and the angle variance may be zero too.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    count = draw(st.integers(0, 20))
    root = rng.normal(size=(4, 4)) * rng.uniform(0.1, 2.0)
    if draw(st.booleans()):
        root[2:] = 0.0
    axis_root = rng.normal(size=(2, 2)) * rng.uniform(0.0, 0.8)
    kin = KinematicState(rng.normal(size=4) * 5.0, root @ root.T)
    axis = AxisState(rng.uniform(0.5, 6.0, size=2), axis_root @ axis_root.T)
    orient = OrientationState(rng.uniform(-np.pi, np.pi),
                              draw(st.sampled_from([0.0, 0.05, 0.5, 2.0])))
    q_root = rng.normal(size=(4, 4)) * rng.uniform(0.0, 1.0)
    motion = MotionModel(constant_velocity_transition(1.0), q_root @ q_root.T,
                         np.eye(2) * rng.uniform(0.0, 0.1),
                         rng.uniform(0.0, 0.2))
    r_root = rng.normal(size=(2, 2))
    cfg = FilterConfig(R=r_root @ r_root.T + 0.1 * np.eye(2),
                       c=draw(st.sampled_from([0.25, 1.0 / 3.0])),
                       psi=draw(st.sampled_from([None, 0.4])))
    center = kin.mean[:2] + kin.mean[2:]
    spread = rot(orient.mean) @ np.diag(axis.mean) * 0.5
    points = center + rng.normal(size=(count, 2)) @ spread.T
    return (DecoupledEstimate(kin, axis, orient), MeasurementSet(points),
            motion, cfg)


@pytest.mark.parametrize("step, oracle", [(step_sequential,
                                           step_sequential_oracle),
                                          (step_batch, step_batch_oracle)])
@given(problem=problems())
def test_float_step_matches_oracle_on_random_problems(step, oracle, problem):
    est, scan, motion, cfg = problem
    diagnostics, oracle_diagnostics = StepDiagnostics(), StepDiagnostics()
    out = step(est, scan, motion, cfg, diagnostics=diagnostics)
    ref = oracle(est, scan, motion, cfg, oracle_diagnostics)
    assert diagnostics.as_dict() == oracle_diagnostics.as_dict()
    assert _relative_gap(out, ref) <= TOL


@pytest.mark.parametrize("step", [step_sequential, step_batch])
@given(problem=problems())
def test_step_output_is_finite_psd_and_never_gains_angle_variance(step,
                                                                  problem):
    est, scan, motion, cfg = problem
    out = step(est, scan, motion, cfg)
    for values in (out.kin.mean, out.kin.cov, out.axis.mean, out.axis.cov,
                   [out.orient.mean, out.orient.var]):
        assert np.all(np.isfinite(values))
    scale = max(1.0, np.abs(out.kin.cov).max())
    assert_symmetric_psd(out.kin.cov / scale)
    assert_symmetric_psd(out.axis.cov)
    assert 0.0 <= out.orient.var <= predict(est, motion).orient.var


@given(problem=problems())
def test_batch_equals_sequential_bit_for_bit_at_one_point(problem):
    est, scan, motion, cfg = problem
    scan = MeasurementSet(np.vstack([scan.points, [[1.0, -2.0]]])[:1])
    seq = step_sequential(est, scan, motion, cfg)
    bat = step_batch(est, scan, motion, cfg)
    for a, b in ((seq.kin.mean, bat.kin.mean), (seq.kin.cov, bat.kin.cov),
                 (seq.axis.mean, bat.axis.mean), (seq.axis.cov, bat.axis.cov)):
        assert np.array_equal(a, b)
    assert seq.orient == bat.orient


@given(seed=st.integers(0, 2 ** 32 - 1),
       negative=st.floats(1e-12, 10.0))
def test_4x4_repair_falls_back_to_the_eigenvalue_floor(seed, negative):
    # a symmetric 4x4 with one negative eigenvalue fails the pivot test;
    # the float repair then agrees with the Cholesky/eigenvalue oracle
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    eig = np.append(rng.uniform(0.1, 10.0, size=3), -negative)
    mat = (q * eig) @ q.T
    mat = mat + 1e-3 * rng.normal(size=(4, 4)) * negative
    assert not _has_psd_pivots((0.5 * (mat + mat.T)).tolist())
    out = np.array(_psd_rows(*_upper(0.5 * (mat + mat.T))))
    ref = symmetrize_psd_oracle(mat)
    assert np.abs(out - ref).max() <= TOL * np.abs(ref).max()
    assert_symmetric_psd(out)


# Entries that stress the pivot test: signed zeros, subnormals, the
# smallest normal, and the non-finite values.
PIVOT_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                  float("nan"), float("inf"), -float("inf"))


@st.composite
def symmetric_4x4(draw):
    """A symmetric 4x4 nested list for the LDL^T pivot test.

    The base is PSD (L L^T of rank 0 to 4), indefinite, or a diagonal with
    signed entries. Then up to two pivots are set to zero or a subnormal,
    with the rest of their row and column cleared or kept, and up to two
    mirrored entries are overwritten with :data:`PIVOT_SPECIALS`.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["psd", "indefinite", "diagonal"]))
    root = rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == "psd":
        root[:, draw(st.integers(0, 4)):] = 0.0
        mat = root @ root.T
    elif kind == "indefinite":
        mat = root + root.T
    else:
        mat = np.diag(np.diag(root))
    rows = mat.tolist()
    for k in draw(st.lists(st.integers(0, 3), max_size=2, unique=True)):
        if draw(st.booleans()):
            for j in range(4):
                rows[k][j] = rows[j][k] = 0.0
        rows[k][k] = draw(st.sampled_from([0.0, -0.0, 5e-324, 1e-310]))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        rows[i][j] = rows[j][i] = draw(st.sampled_from(PIVOT_SPECIALS))
    return rows


def _psd_rows_loop(rows):
    """The loop form of :func:`_psd_rows`: the upper triangle mirrored
    into the lower one by a nested loop, a copy for
    :func:`_has_psd_pivots`, and the eigenvalue floor, which rejects a
    non-finite matrix."""
    for i, row in enumerate(rows):
        for j in range(i + 1, len(rows)):
            rows[j][i] = row[j]
    if _has_psd_pivots([row[:] for row in rows]):
        return rows
    if not all(math.isfinite(x) for row in rows for x in row):
        raise NonFiniteState("a covariance overflowed to a non-finite value")
    eigval, eigvec = np.linalg.eigh(np.array(rows))
    return ((eigvec * np.maximum(eigval, 0.0)) @ eigvec.T).tolist()


def _bits_or_error(repair, rows):
    try:
        return np.array(repair(rows)).tobytes()
    except (np.linalg.LinAlgError, NonFiniteState) as exc:
        return type(exc), str(exc)


@settings(max_examples=400)
@given(rows=symmetric_4x4())
@example(rows=[[0.0] * 4 for _ in range(4)])
@example(rows=[[0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.5, 0.0],
               [0.0, 0.5, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
@example(rows=[[0.0, 1.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0],
               [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
@example(rows=[[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0],
               [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, -0.0]])
@example(rows=[[5e-324, 1e-300, 0.0, 0.0], [1e-300, 1.0, 0.0, 0.0],
               [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
@example(rows=[[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
               [0.0, 0.0, 1.0, float("nan")], [0.0, 0.0, float("nan"), 1.0]])
@example(rows=[[float("inf"), 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0],
               [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
def test_written_out_4x4_pivot_test_gives_the_loop_verdict(rows):
    # the same float operations in the same order as the loop, on every
    # input: exact zero pivots with zero or non-zero rest of row, NaN,
    # +-inf, subnormal pivots, indefinite matrices
    assert _has_psd_pivots_4x4(*_upper(rows)) is _has_psd_pivots(
        [row[:] for row in rows])


def covariance_verdict_loop(cov):
    """The config check's verdict with the loop pivot test on the unpadded
    ``cov``: A - A^T within the tolerance, and A + A^T shifted up by it
    passing :func:`_has_psd_pivots`."""
    sym = cov + cov.T
    tol = _symmetry_tol(cov)
    sym.flat[::len(sym) + 1] += tol
    return (bool(np.abs(cov - cov.T).max() <= tol)
            and _has_psd_pivots(sym.tolist()))


@st.composite
def config_covariances(draw):
    """A 2x2 or 4x4 covariance for the config check: a
    :func:`symmetric_4x4` or its top-left 2x2, with one mirrored pair
    skewed by a multiple of the symmetry tolerance around 1, so A - A^T
    lands just inside, at or just outside it."""
    n = draw(st.sampled_from([2, 4]))
    cov = np.array(draw(symmetric_4x4()))[:n, :n]
    i, j = draw(st.sampled_from([(i, j) for i in range(n)
                                 for j in range(i + 1, n)]))
    with np.errstate(invalid="ignore", over="ignore"):
        cov[j, i] += draw(st.sampled_from([0.0, 0.5, 1.0 - 1e-9, 1.0,
                                           1.0 + 1e-9, 2.0])) * _symmetry_tol(cov)
    return cov


@settings(max_examples=400)
@given(cov=config_covariances())
@example(cov=np.array([[0.0, 1.0], [1.0, 0.0]]))
@example(cov=np.array([[0.0, 0.0], [0.0, 1.0]]))
@example(cov=np.array([[1.0, 1.0], [1.0, 1.0]]))
@example(cov=np.array([[1.0, float("nan")], [float("nan"), 1.0]]))
@example(cov=np.array([[4.0, 1.0], [1.0 + 8e-12, 1.0]]))
@example(cov=np.array([[4.0, 1.0], [1.0 + 1.2e-11, 1.0]]))
@example(cov=np.array([[1.0, 1.0 + 1.5e-12], [1.0, 1.0]]))
@example(cov=np.diag([0.1, 0.1, 0.0, 0.0]))
@example(cov=np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                       [1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))
def test_config_covariance_check_gives_the_loop_verdict(cov):
    # the written-out 4x4 test, a 2x2 padded with zeros into it, against
    # the loop on the matrix as given: zero pivots with zero or non-zero
    # column, exactly singular blocks, NaN, +-inf and skews at the edge
    # of the symmetry tolerance; a scenario with ``cov`` as its prior axis
    # covariance (2x2) or Q_kin (4x4) builds exactly when the verdict holds
    with np.errstate(invalid="ignore", over="ignore"):
        verdict = covariance_verdict_loop(cov)
        assert _is_covariance(cov) is verdict
    scen = builtin_scenarios(runs=1)["moderate"]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            # the motion checks its own Q_kin, so it is built in here too
            if len(cov) == 2:
                change = {"prior": dataclasses.replace(
                    scen.prior, axis=AxisState(scen.prior.axis.mean, cov))}
            else:
                change = {"motion": dataclasses.replace(scen.motion, Q_kin=cov)}
            dataclasses.replace(scen, **change)
    except ConfigError:
        assert not verdict
    else:
        assert verdict


@settings(max_examples=200)
@given(rows=symmetric_4x4(), seed=st.integers(0, 2 ** 32 - 1),
       skew=st.sampled_from([0.0, 1e-12, 1e-3]))
def test_psd_rows_is_bit_equal_to_the_loop_form(rows, seed, skew):
    # lower triangle perturbed, which neither form reads; both the
    # returned rows and the eigh fallback (or its error) agree bit for bit
    rng = np.random.default_rng(seed)
    for i in range(4):
        for j in range(i):
            rows[i][j] += skew * rng.normal()
    expected = _bits_or_error(_psd_rows_loop, [row[:] for row in rows])
    assert _bits_or_error(lambda rows: _psd_rows(*_upper(rows)),
                          rows) == expected


def guarded_solve_2x2(mat, rhs, error, message):
    """adj(A) rhs / det(A) for a 2x2 A through :func:`_guarded_det`, naming
    the adjugate entries (d, -b, -c, a) as the filters' 2x2 solves do."""
    (a, b), (c, d) = mat
    det = _guarded_det(a, b, c, d, error, message)
    x, y = rhs
    return [(d * x - b * y) / det, (a * y - c * x) / det]


def orientation_solve(c_mat, rhs, error, message, var=0.0):
    """:func:`_guarded_solve` on the upper triangle of the 2x2 ``c_mat``:
    [x1, x2, x3, rhs . x]."""
    (c11, c12), (_, c22) = np.asarray(c_mat, dtype=float).tolist()
    return list(_guarded_solve((c11, c22, c12), rhs, error, message, var))


def _symmetric_2x2(rng, cond, signs):
    """Q diag(signs * (1, cond)) Q^T at a random scale in 1e-3..1e3."""
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    mat = 10.0 ** rng.uniform(-3.0, 3.0) * (q * (signs * [1.0, cond])) @ q.T
    return 0.5 * (mat + mat.T)


@pytest.mark.parametrize("n", [2, 3])
def test_guarded_solve_matches_eigenvalue_oracle(n):
    # n = 2: symmetric matrices Q diag(+-lambda) Q^T, PD or indefinite,
    # with the condition number log-uniform in [1, 1e20]. n = 3: Cov(b)
    # of a PD C with kappa(C) log-uniform in [1, 1e10], so that kappa of
    # Cov(b), about kappa(C)^2 (within a factor 2), spans [1, 1e20] too
    rng = np.random.default_rng(23 + n)
    worst, solved, disagree = 0.0, 0, []
    for trial in range(4000):
        if n == 2:
            cond = 10.0 ** rng.uniform(0.0, 20.0)
            signs = np.ones(2) if trial % 2 else rng.choice([-1.0, 1.0], size=2)
            mat = _symmetric_2x2(rng, cond, signs)
            rhs = rng.normal(size=(2, 2) if trial % 3 else 2)
            expected = guarded_solve_oracle(mat, rhs)
            solve = guarded_solve_2x2
        else:
            c_mat = _symmetric_2x2(rng, 10.0 ** rng.uniform(0.0, 10.0),
                                   np.ones(2))
            mat = cov_b_oracle(c_mat)
            eig = np.linalg.eigvalsh(mat)
            cond = eig.max() / eig.min() if eig.min() > 0.0 else np.inf
            rhs = rng.normal(size=3)
            expected = guarded_solve_oracle(mat, rhs)
            mat = c_mat

            def solve(c_mat, rhs, error, message):
                return np.array(orientation_solve(c_mat, rhs, error,
                                                  message)[:3])
        try:
            out = solve(mat.tolist(), rhs, SingularPseudoCov, "skip")
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
    for mat in ([[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]],
                np.zeros((2, 2)), np.ones((2, 2))):
        with pytest.raises(SingularPseudoCov, match="skip"):
            guarded_solve_2x2(np.asarray(mat).tolist(), [1.0, 1.0],
                              SingularPseudoCov, "skip")
        with pytest.raises(SingularPseudoCov, match="skip"):
            orientation_solve(mat, [1.0] * 3, SingularPseudoCov, "skip")
    # the orientation solve also rejects an indefinite C, whose Cov(b) is
    # indefinite too
    with pytest.raises(SingularPseudoCov, match="skip is ill-conditioned"):
        orientation_solve(np.diag([1.0, -1.0]), [1.0] * 3,
                          SingularPseudoCov, "skip")


def kappa_f_oracle(mat):
    """||A||_F ||adj A||_F / |det A| from numpy: cofactors as LAPACK
    determinants of the minors, and an LU determinant. inf or NaN when A
    is singular or not finite."""
    n = len(mat)
    with np.errstate(all="ignore"):
        adj = [[(-1) ** (i + j) * np.linalg.det(np.delete(np.delete(mat, j, 0), i, 1))
                for j in range(n)] for i in range(n)]
        return np.linalg.norm(mat) * np.linalg.norm(adj) / abs(np.linalg.det(mat))


@st.composite
def guard_matrices(draw, symmetric=False, edge=12.0):
    """2x2 matrices: U diag(sigma) V^T with the condition number
    log-uniform in [1, 1e20] or, as often, in [10^(edge - 0.5),
    10^(edge + 0.5)] around a guard's limit, at scales 1e-20..1e20; small
    integer matrices (often exactly singular); and either with a
    non-finite entry. With ``symmetric``, V = U with a negative sigma in
    some draws, the integer matrices are mirrored, and so is the
    non-finite entry."""
    if draw(st.booleans()):
        entries = draw(st.lists(st.integers(-4, 4), min_size=4, max_size=4))
        mat = np.array(entries, dtype=float).reshape(2, 2)
        if symmetric:
            mat[1, 0] = mat[0, 1]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        log_cond = rng.uniform(*draw(st.sampled_from([(0.0, 20.0),
                                                      (edge - 0.5, edge + 0.5)])))
        sigma = 10.0 ** np.array([log_cond, 0.0])
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        v, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        if symmetric:
            v = u
            sigma[1] *= draw(st.sampled_from([1.0, 1.0, -1.0]))
        mat = 10.0 ** rng.uniform(-20.0, 20.0) * (u * sigma) @ v.T
        if symmetric:
            mat[1, 0] = mat[0, 1]
    if draw(st.integers(0, 4)) == 0:
        i, j = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        mat[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        if symmetric:
            mat[j, i] = mat[i, j]
    return mat


# Relative band around COND_LIMIT left out of the comparison: near the
# limit the closed-form and LU determinants differ by about kappa * eps.
KAPPA_BAND = 1e-3


@settings(max_examples=500)
@given(mat=guard_matrices())
@example(mat=np.array([[1.0, 2.0], [2.0, 4.0]]))
@example(mat=np.eye(2))
@example(mat=np.diag([1.0, 1e-12 * (1.0 + 2 * KAPPA_BAND)]))
def test_guards_raise_exactly_when_kappa_f_reaches_the_limit(mat):
    kappa = kappa_f_oracle(mat)
    assume(not abs(kappa / COND_LIMIT - 1.0) < KAPPA_BAND)
    try:
        guarded_solve_2x2(mat.tolist(), [1.0] * len(mat),
                          SingularPseudoCov, "skip")
        raised = False
    except SingularPseudoCov:
        raised = True
    assert raised == (not kappa < COND_LIMIT), kappa


@settings(max_examples=500)
@given(mat=guard_matrices(symmetric=True, edge=6.0),
       var=st.sampled_from([0.0, 1e-3, 0.5]))
@example(mat=np.array([[1.0, 2.0], [2.0, 4.0]]), var=0.0)
@example(mat=np.diag([1.0, -1.0]), var=0.0)
@example(mat=-np.eye(2), var=0.5)
@example(mat=np.diag([1.0, 1e-6 * (1.0 + 2 * KAPPA_BAND)]), var=0.0)
@example(mat=np.diag([1.0, 1e-6 * (1.0 - 2 * KAPPA_BAND)]), var=0.0)
def test_orientation_guard_raises_exactly_when_kappa_f_squared_reaches_the_limit(
        mat, var):
    # the bound of _guarded_solve with numpy's kappa_F(C), det C > 0 (Cov(b)
    # positive definite) from the eigenvalues of C, and var q from a
    # LAPACK solve on Cov(b): it raises exactly when det C <= 0, when
    # var q leaves [0, 1), or when kappa_F(C)^2 reaches (1 - var q)
    # COND_LIMIT, away from the edges of the last two
    kappa = kappa_f_oracle(mat)
    definite = (bool(np.isfinite(mat).all())
                and np.prod(np.linalg.eigvalsh(mat)) > 0.0)
    rhs = np.array([0.3, -0.7, 1.1])
    shrink = 1.0
    if definite and kappa * kappa < COND_LIMIT:
        shrink = 1.0 - var * rhs @ np.linalg.solve(cov_b_oracle(mat), rhs)
        assume(abs(shrink) > KAPPA_BAND)
    if shrink > 0.0:
        assume(not abs(kappa * kappa / (shrink * COND_LIMIT) - 1.0)
               < KAPPA_BAND)
    try:
        orientation_solve(mat, rhs.tolist(), SingularPseudoCov, "skip", var)
        raised = False
    except SingularPseudoCov:
        raised = True
    assert raised == (not (definite and 0.0 < shrink
                           and kappa * kappa < shrink * COND_LIMIT)), kappa


def predict_numpy(est, motion):
    """The prediction's floats with numpy products: F m, F P F^T + Q and
    the axis sum as arrays, then the repairs of the written-out form on
    the upper triangle of F P F^T + Q."""
    f = motion.F_kin
    kin = ((f @ est.kin.mean).tolist(),
           _psd_rows(*_upper(f @ est.kin.cov @ f.T + motion.Q_kin)))
    (c11, c12), (c21, c22) = (est.axis.cov + motion.Q_axis).tolist()
    axis = (*est.axis.mean.tolist(), *_psd_2x2(c11, 0.5 * (c12 + c21), c22))
    return kin, axis, (wrap_angle(est.orient.mean),
                       est.orient.var + motion.Q_theta)


def kalman_center_update_rows(kin, z1, z2, noise, c, shape, count=1):
    """The kinematic update as a loop over the rows of the gain and a
    comprehension over the covariance entries on and above the diagonal."""
    mean, cov = kin
    top, bottom = cov[0], cov[1]
    r11, r12, r21, r22 = noise
    x11, x22, x12 = shape
    ((a11, a12), (a21, a22)), det = _guarded_adjugate(
        ((top[0] + (r11 + c * x11) / count, top[1] + (r12 + c * x12) / count),
         (bottom[0] + (r21 + c * x12) / count,
          bottom[1] + (r22 + c * x22) / count)),
        SingularInnovation("kinematic innovation covariance "
                           "is ill-conditioned"))
    r1, r2 = z1 - mean[0], z2 - mean[1]
    new_mean, upper = [], []
    for j, (m, row, t, b) in enumerate(zip(mean, cov, top, bottom)):
        g1, g2 = (a11 * t + a12 * b) / det, (a21 * t + a22 * b) / det
        new_mean.append(m + (g1 * r1 + g2 * r2))
        upper += [p - (g1 * tk + g2 * bk)
                  for p, tk, bk in zip(row[j:], top[j:], bottom[j:])]
    return new_mean, _psd_rows(*upper)


def _bits(value):
    """The bytes of the floats in ``value``, with -0.0 read as 0.0: a sum
    of zero terms that are all -0.0 is -0.0 written out, but +0.0 from a
    BLAS product, whose accumulator starts at +0.0."""
    return (np.array(value, dtype=float) + 0.0).tobytes()


def _update_or_error(update, *args):
    try:
        return update(*args)
    except SingularInnovation as exc:
        return type(exc)


# Transitions with entries in {0, 1} and at most two ones per row: every
# entry of F m, F P and (F P) F^T is then one exact sum of at most two
# exact products, the same in any summation order. (With three or more
# terms the rounding depends on the order, which numpy leaves to the BLAS
# kernel: OpenBLAS sums a 4x4 matrix-matrix product from left to right but
# a matrix-vector product pairwise.)
zero_one_transitions = st.lists(
    st.lists(st.integers(0, 3), max_size=2, unique=True), min_size=4,
    max_size=4).map(lambda rows: [[float(j in row) for j in range(4)]
                                  for row in rows])


@st.composite
def random_transitions(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-1.0, 1.0)


@st.composite
def kinematic_problems(draw, transitions):
    """A prior, a motion with F from ``transitions``, and the point, noise
    and scaling factor of a kinematic update after the prediction.

    The prior covariances are L L^T, with the velocity block or the axis
    covariance exactly zero in some draws, plus an antisymmetric part of
    up to 5e-13 of their largest entry: asymmetric, but within the
    tolerance a config allows (:func:`_symmetry_tol`).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    skew = draw(st.sampled_from([0.0, 1e-13, 5e-13]))

    def covariance(n, zero_rows=0):
        root = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-2.0, 2.0)
        root[n - zero_rows:] = 0.0
        cov = root @ root.T
        twist = rng.uniform(-1.0, 1.0, size=(n, n))
        cov = cov + skew * np.abs(cov).max() * (twist - twist.T)
        assert np.abs(cov - cov.T).max() <= _symmetry_tol(cov)
        return cov

    kin = KinematicState(rng.normal(size=4) * 5.0,
                         covariance(4, draw(st.sampled_from([0, 2]))))
    axis = AxisState(rng.uniform(0.5, 6.0, size=2),
                     covariance(2, draw(st.sampled_from([0, 2]))))
    orient = OrientationState(rng.uniform(-np.pi, np.pi), rng.uniform(0.0, 1.0))
    motion = MotionModel(np.array(draw(transitions)), covariance(4),
                         covariance(2) * draw(st.sampled_from([0.0, 0.1])),
                         rng.uniform(0.0, 0.2))
    r_root = rng.normal(size=(2, 2))
    noise = (r_root @ r_root.T + 0.1 * np.eye(2)).ravel().tolist()
    noise[1] = noise[2]
    return (DecoupledEstimate(kin, axis, orient), motion,
            (rng.normal(size=2) * 5.0).tolist(), noise,
            draw(st.sampled_from([0.25, 1.0 / 3.0])), draw(st.integers(1, 12)))


def _kinematic_update_pair(problem):
    """(written-out, row form) of the prediction and the update after it."""
    est, motion, (z1, z2), noise, c, count = problem
    pred, pred_ref = _predict(est, motion), predict_numpy(est, motion)
    outputs = []
    for (kin, axis, orient), update in ((pred, kalman_center_update),
                                        (pred_ref, kalman_center_update_rows)):
        shape = _shape_entries(orient[0], axis[0], axis[1])
        outputs.append((kin, axis, orient, _update_or_error(
            update, kin, z1, z2, noise, c, shape, count)))
    return outputs


CONSTANT_VELOCITY = constant_velocity_transition(1.0).tolist()


@settings(max_examples=300)
@given(problem=kinematic_problems(zero_one_transitions))
@example(problem=(DecoupledEstimate(
    KinematicState([1.0, -2.0, 3.0, 0.5], np.diag([2.0, 2.0, 0.5, 0.5])),
    AxisState([5.0, 2.0], np.eye(2)), OrientationState(0.3, 0.1)),
    MotionModel(CONSTANT_VELOCITY, np.diag([1.0, 1.0, 2.0, 2.0]),
                np.zeros((2, 2)), 0.1),
    [2.0, -1.0], [1.0, 0.25, 0.25, 1.0], 0.25, 1))
def test_written_out_prediction_and_update_equal_the_numpy_forms_bit_for_bit(
        problem):
    # constant-velocity and other 0/1 transitions; exact zero blocks and
    # priors asymmetric within the config tolerance
    (kin, axis, orient, updated), (kin_ref, axis_ref, orient_ref,
                                   updated_ref) = _kinematic_update_pair(problem)
    assert _bits(kin[0]) == _bits(kin_ref[0])
    assert _bits(kin[1]) == _bits(kin_ref[1])
    assert _bits(axis) == _bits(axis_ref) and _bits(orient) == _bits(orient_ref)
    if isinstance(updated_ref, type):
        assert updated is updated_ref
    else:
        assert _bits(updated[0]) == _bits(updated_ref[0])
        assert _bits(updated[1]) == _bits(updated_ref[1])


@settings(max_examples=300)
@given(problem=kinematic_problems(random_transitions()))
def test_written_out_prediction_and_update_match_the_numpy_forms(problem):
    # any F: the products round in another order, so the two agree to the
    # oracle tolerance, relative to the size of the terms that were summed
    est, motion, *_ = problem
    (kin, axis, orient, updated), (kin_ref, axis_ref, orient_ref,
                                   updated_ref) = _kinematic_update_pair(problem)
    f, cov = np.abs(motion.F_kin), np.abs(est.kin.cov)
    mean_scale = (f @ np.abs(est.kin.mean)).max()
    cov_scale = (f @ cov @ f.T + np.abs(motion.Q_kin)).max()
    assert np.abs(np.subtract(kin[0], kin_ref[0])).max() <= TOL * mean_scale
    assert np.abs(np.subtract(kin[1], kin_ref[1])).max() <= TOL * cov_scale
    assert _bits(axis) == _bits(axis_ref) and _bits(orient) == _bits(orient_ref)
    if isinstance(updated, type) or isinstance(updated_ref, type):
        # only a kappa_F on the guard's edge may go either way
        return
    assert (np.abs(np.subtract(updated[0], updated_ref[0])).max()
            <= TOL * max(mean_scale, np.abs(updated_ref[0]).max()))
    assert np.abs(np.subtract(updated[1], updated_ref[1])).max() <= TOL * cov_scale


def _value_or_error(solve, *args):
    try:
        return list(solve(*args))
    except SingularPseudoCov as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(mat=guard_matrices(symmetric=True, edge=6.0),
       seed=st.integers(0, 2 ** 32 - 1),
       var=st.sampled_from([0.0, 1e-3, 0.5, 20.0]))
@example(mat=np.array([[1.0, -0.0], [-0.0, 1e-6]]), seed=0, var=0.0)
@example(mat=np.array([[2.0, 0.5], [0.5, 1.0]]), seed=0, var=20.0)
def test_written_out_solve_equals_the_row_sums(mat, seed, var):
    # the written-out orientation solve against one ``sum`` per row of
    # the nested Isserlis inverse: the same floats (signed zeros aside),
    # and the same exception and message where the guard trips
    (c11, c12), (_, c22) = mat.tolist()
    rhs = np.random.default_rng(seed).normal(size=3).tolist()
    assert (_value_or_error(_guarded_solve, (c11, c22, c12), rhs,
                            SingularPseudoCov, "skip", var)
            == _value_or_error(orientation_solve_rows, (c11, c22, c12), rhs,
                               var, SingularPseudoCov, "skip"))


# ---------------------------------------------------------------------------
# The batch step's per-scan algebra is written out on floats: the scan is
# split into columns once, update_axis evaluates cos/sin of its angle once,
# and the batch orientation update names its entries. The forms below are
# the ones they replaced: row comprehensions for the scan statistics,
# cos/sin evaluated per rotation, and Gamma built by nested comprehensions
# with the sums taken by sum(map(mul, ...)). The written-out code must
# equal them bit for bit, signed zeros included, and raise where they raise.

def centering_rows(points, kin, noise):
    """The center and W of a scan of [z1, z2] rows, by zip(*points)."""
    m = len(points)
    if m == 0:
        raise EmptyMeasurementSet("cannot center an empty measurement set")
    if m > 1:
        col1, col2 = zip(*points)
        return (math.fsum(col1) / m, math.fsum(col2) / m), noise
    mean, cov = kin
    r11, r12, r21, r22 = noise
    return (mean[0], mean[1]), (r11 + cov[0][0], r12 + cov[0][1],
                                r21 + cov[1][0], r22 + cov[1][1])


def scatter_rows(points, c1, c2):
    """(S11, S22, S12) by one comprehension per coordinate over the rows."""
    d1 = [z1 - c1 for z1, _ in points]
    d2 = [z2 - c2 for _, z2 in points]
    return sum(map(mul, d1, d1)), sum(map(mul, d2, d2)), sum(map(mul, d1, d2))


def aligned_entries_at(theta, m11, m12, m21, m22):
    """(A11, A22, A12) of R(-theta) M R(-theta)^T, with cos/sin per call."""
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    mixed = cos_t * sin_t * (m12 + m21)
    return (cos_t * cos_t * m11 + mixed + sin_t * sin_t * m22,
            sin_t * sin_t * m11 - mixed + cos_t * cos_t * m22,
            cos_t * sin_t * (m22 - m11) + cos_t * cos_t * m12
            - sin_t * sin_t * m21)


def update_axis_trig_per_call(axis, theta, scatter, count, w, c, psi=None):
    """update_axis with each rotation evaluating cos/sin of ``theta``."""
    s11, s22, s12 = scatter
    a1, a2, _ = aligned_entries_at(theta, s11, s12, s12, s22)
    (e1, e2), cov_aa, (d1, d2) = _axis_moments(
        axis, aligned_entries_at(theta, *w), c)
    ((k11, k12), (k21, k22)), det = _guarded_adjugate(
        cov_aa, SingularPseudoCov("axis pseudo-measurement covariance "
                                  "is ill-conditioned"))
    x11, x12, x21, x22 = (k11 * d1 / det, k12 * d2 / det,
                          k21 * d1 / det, k22 * d2 / det)
    nu1, nu2 = a1 - count * e1, a2 - count * e2
    p1, p2, c11, c12, c22 = axis
    updated = (max(p1 + (x11 * nu1 + x21 * nu2), AXIS_FLOOR),
               max(p2 + (x12 * nu1 + x22 * nu2), AXIS_FLOOR),
               *_psd_2x2(c11 - count * (x11 * d1),
                         0.5 * ((c12 - count * (x21 * d2))
                                + (c12 - count * (x12 * d1))),
                         c22 - count * (x22 * d2)))
    return updated if psi is None else clamp_axis_variance(updated, psi)


def batch_update_orientation_comprehension(orient, shape, scatter, count, w,
                                           c):
    """The batch orientation update with the weights and the information
    from :func:`orientation_solve_rows` and the innovation as a
    comprehension."""
    theta, var = orient
    if var == 0.0:
        return orient
    expected, _, m_vec = orientation_moments(shape, var, w, c)
    *weighted, info_gain = orientation_solve_rows(
        expected, m_vec, var, SingularPseudoCov,
        "batch orientation noise covariance")
    xi_sum = [b - count * (e - m * theta)
              for b, e, m in zip(scatter, expected, m_vec)]
    var_post = 1.0 / (1.0 / var + count * info_gain)
    return (wrap_angle(var_post * (theta / var + sum(map(mul, weighted, xi_sum)))),
            var_post)


def _exact(value):
    """The bytes of the floats in ``value``; -0.0 and 0.0 differ."""
    return np.array(value, dtype=float).tobytes()


def _exact_or_error(update, *args):
    try:
        return _exact(update(*args))
    except (SingularInnovation, SingularPseudoCov, NonFiniteState,
            EmptyMeasurementSet) as exc:
        return type(exc), str(exc)


# Coordinates with signed zeros and values that cancel when centered.
coordinates = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
                        st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def scans(draw, min_size=0):
    """[z1, z2] rows; in some draws one point repeated, so S is zero."""
    rows = draw(st.lists(st.tuples(coordinates, coordinates),
                         min_size=min_size, max_size=20))
    if rows and draw(st.booleans()):
        rows = [rows[0]] * len(rows)
    return [list(row) for row in rows]


@st.composite
def noise_entries(draw):
    """(W11, W12, W21, W22) of a symmetric W: PSD, indefinite or zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    root = rng.normal(size=(2, 2))
    w = draw(st.sampled_from([root @ root.T, root + root.T, np.zeros((2, 2)),
                              -np.zeros((2, 2))]))
    return w.ravel().tolist()


@settings(max_examples=300)
@given(points=scans(), center=st.tuples(coordinates, coordinates),
       noise=noise_entries(), seed=st.integers(0, 2 ** 32 - 1))
@example(points=[], center=(0.0, 0.0), noise=[1.0, 0.0, 0.0, 1.0], seed=0)
@example(points=[[-0.0, 0.0]] * 3, center=(-0.0, 0.0),
         noise=[1.0, -0.0, -0.0, 1.0], seed=0)
def test_column_statistics_equal_the_row_forms_bit_for_bit(points, center,
                                                          noise, seed):
    # the mean and W of the columns, and the scatter about the scan's own
    # mean and about any center, against the row comprehensions
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(4, 4))
    kin = (rng.normal(size=4).tolist(), (root @ root.T).tolist())
    col1, col2 = MeasurementSet(points).points.T.tolist()
    def flat(centering, *args):
        center, w = centering(*args)
        return (*center, *w)

    assert (_exact_or_error(flat, _centering, col1, col2, kin, noise)
            == _exact_or_error(flat, centering_rows, points, kin, noise))
    centers = [center]
    if len(points) > 1:
        centers.append(centering_rows(points, kin, noise)[0])
    for c1, c2 in centers:
        expected = _exact(scatter_rows(points, c1, c2))
        assert _exact(_column_scatter(col1, col2, c1, c2)) == expected


# Inputs that reach each exit of the orientation update: the kappa_F skip
# (zero noise and a degenerate extent make Gamma singular), the rejected
# negative information (an indefinite W), and a zero angle variance.
ORIENTATION_SKIP = ((0.3298148443794737, 20.0), (5.76994316198272, 0.0),
                    [0.0, 0.0, 0.0, 0.0])
ORIENTATION_NEGATIVE = ((2.410195721651175, 0.4929722163862067),
                        (0.971070419289934, 1.4971819889169884),
                        [-0.45264929211044586, -0.2155971630897659,
                         -0.2155971630897659, -0.23193237764418947])


@st.composite
def orientation_problems(draw):
    """(orient, axes, W) with signed-zero angles and variances, round and
    degenerate extents, and PSD, indefinite or zero W."""
    theta = draw(st.one_of(st.sampled_from([0.0, -0.0, math.pi / 2, math.pi]),
                           st.floats(-4.0, 4.0)))
    var = draw(st.sampled_from([0.0, -0.0, 1e-6, 0.05, 0.5, 2.0, 20.0]))
    axes = draw(st.one_of(st.sampled_from([(5.0, 2.0), (3.0, 3.0), (4.0, 0.0),
                                           (0.0, 0.0), (-0.0, 2.0)]),
                          st.tuples(st.floats(0.0, 8.0), st.floats(0.0, 8.0))))
    return (theta, var), axes, draw(noise_entries())


@settings(max_examples=400)
@given(problem=orientation_problems(), points=scans(min_size=2),
       c=st.sampled_from([0.25, 1.0 / 3.0]))
@example(problem=ORIENTATION_SKIP, points=[[1.0, 2.0], [0.0, 0.5], [2.0, 1.0]],
         c=0.25)
@example(problem=ORIENTATION_NEGATIVE,
         points=[[1.0, 2.0], [0.0, 0.5], [2.0, 1.0]], c=0.25)
@example(problem=((-0.0, 0.5), (3.0, 3.0), [1.0, -0.0, -0.0, 1.0]),
         points=[[-0.0, 0.0]] * 2, c=0.25)
@example(problem=((0.7, 0.0), (5.0, 2.0), [1.0, 0.0, 0.0, 1.0]),
         points=[[1.0, 2.0], [3.0, -1.0]], c=0.25)
def test_batch_orientation_update_equals_the_comprehension_form_bit_for_bit(
        problem, points, c):
    (theta, var), (l1, l2), w = problem
    orient = (theta, var)
    shape = _shape_entries(theta, l1, l2)
    col1, col2 = MeasurementSet(points).points.T.tolist()
    (c1, c2), _ = centering_rows(points, None, w)
    scatter = scatter_rows(points, c1, c2)
    args = (shape, scatter, len(points), w, c)
    out = _exact_or_error(batch_update_orientation, orient, *args)
    assert out == _exact_or_error(batch_update_orientation_comprehension,
                                  orient, *args)
    if var == 0.0:
        assert batch_update_orientation(orient, *args) is orient


def test_orientation_examples_reach_both_rejections():
    # the examples above keep exercising both raises of the update
    for problem, reason in ((ORIENTATION_SKIP, "ill-conditioned"),
                            (ORIENTATION_NEGATIVE, "not positive definite")):
        (theta, var), (l1, l2), w = problem
        for update in (batch_update_orientation,
                       batch_update_orientation_comprehension):
            with pytest.raises(SingularPseudoCov, match=reason):
                update((theta, var), _shape_entries(theta, l1, l2),
                       (1.0, 2.0, 0.5), 3, w, 0.25)


@settings(max_examples=400)
@given(problem=orientation_problems(), points=scans(min_size=1),
       seed=st.integers(0, 2 ** 32 - 1), c=st.sampled_from([0.25, 1.0 / 3.0]),
       psi=st.sampled_from([None, 0.4]))
@example(problem=((-0.0, 0.5), (3.0, 3.0), [1.0, -0.0, -0.0, 1.0]),
         points=[[-0.0, 0.0]], seed=0, c=0.25, psi=None)
@example(problem=((0.3, 0.5), (0.0, 0.0), [0.0, 0.0, 0.0, 0.0]),
         points=[[0.0, 0.0]] * 2, seed=0, c=0.25, psi=0.4)
def test_update_axis_equals_the_trig_per_call_form_bit_for_bit(
        problem, points, seed, c, psi):
    # both filters' axis update: one point (the sequential b) or the
    # scatter of a scan about its mean (the batch step), from PSD,
    # singular or indefinite priors
    (theta, _), (l1, l2), w = problem
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(2, 2)) * rng.choice([0.0, 0.1, 1.0])
    cov = root @ root.T + rng.choice([0.0, 1.0]) * (root - root.T)
    axis = (l1, l2, cov[0, 0], cov[0, 1], cov[1, 1])
    (c1, c2), _ = centering_rows(points, ([0.0] * 4, [[0.0] * 4] * 4), w)
    args = (theta, scatter_rows(points, c1, c2), len(points), w, c, psi)
    assert (_exact_or_error(update_axis, axis, *args)
            == _exact_or_error(update_axis_trig_per_call, axis, *args))


def test_batch_updates_equal_the_replaced_forms_on_a_seeded_sweep():
    # a reordered product (var * m1 * m2 for var * (m1 * m2), say) changes
    # the result on about one input in a thousand, too rarely for the
    # property tests above to meet; a cheap sweep of 20 000 draws does
    rng = np.random.default_rng(2024)
    for _ in range(20_000):
        theta = rng.uniform(-4.0, 4.0)
        l1, l2 = rng.uniform(0.3, 6.0, size=2).tolist()
        root = rng.normal(size=(2, 2)) * rng.choice([0.1, 1.0])
        w = (root @ root.T).ravel().tolist()
        points = (rng.normal(size=(rng.integers(2, 15), 2)) * 3.0).tolist()
        (c1, c2), _ = centering_rows(points, None, w)
        scatter = scatter_rows(points, c1, c2)
        orient = (theta, rng.choice([0.01, 0.05, 0.5, 2.0]))
        args = (_shape_entries(theta, l1, l2), scatter, len(points), w, 0.25)
        assert (_exact_or_error(batch_update_orientation, orient, *args)
                == _exact_or_error(batch_update_orientation_comprehension,
                                   orient, *args))
        axis = (l1, l2, *rng.uniform(0.0, 0.3, size=3).tolist())
        args = (theta, scatter, len(points), w, 0.25, 0.4)
        assert (_exact_or_error(update_axis, axis, *args)
                == _exact_or_error(update_axis_trig_per_call, axis, *args))


# ---------------------------------------------------------------------------
# The steps call each update directly inside its own try, the 2x2 guard
# returns det alone and its callers name the adjugate entries, the 3x3
# guard keeps its cofactors in locals, and every guard builds its
# exception only when it trips. Each is held bit for bit, signed zeros
# included, to the nested-adjugate guards and the skip wrapper above: the
# same floats, the same skip counts, and a tripped guard raising the same
# exception type with the same message.

def update_orientation_nested(orient, b, mom):
    """The sequential orientation update through
    :func:`orientation_solve_rows`: the gain var y, and the variance less
    var^2 q."""
    theta, var = orient
    expected, _, m_vec = mom
    *y, q = orientation_solve_rows(expected, m_vec, 0.0, SingularPseudoCov,
                                   "orientation pseudo-measurement covariance")
    innovation = [bi - ei for bi, ei in zip(b, expected)]
    return (wrap_angle(theta + var * sum(map(mul, y, innovation))),
            max(var - var * var * q, 0.0))


def step_sequential_wrapped(est, measurements, motion, cfg, order,
                            diagnostics):
    """The sequential step with each update run through :func:`_update_or_skip`."""
    sequence = [UPDATE_ORDER.index(component) for component in order]
    parts = list(_predict(est, motion))
    points = measurements.points.tolist()
    if not points:
        return _estimate(*parts)
    noise = cfg._noise
    (c1, c2), w = _centering(*zip(*points), parts[0], noise)
    c = cfg.c
    for z1, z2 in points:
        kin, axis, orient = parts
        theta, var = orient
        s1, s2 = z1 - c1, z2 - c2
        b = (s1 * s1, s2 * s2, s1 * s2)
        shape = _shape_entries(theta, axis[0], axis[1])
        for k in sequence:
            if k == 0:
                parts[0] = _update_or_skip(diagnostics, "kinematics",
                                           kalman_center_update, kin, z1, z2,
                                           noise, c, shape)
            elif k == 1:
                parts[1] = _update_or_skip(diagnostics, "axis", update_axis,
                                           axis, theta, b, 1, w, c)
            else:
                parts[2] = _update_or_skip(
                    diagnostics, "orientation", update_orientation, orient, b,
                    orientation_moments(shape, var, w, c))
    return _estimate(*parts)


def step_batch_wrapped(est, measurements, motion, cfg, diagnostics):
    """The batch step with each update run through :func:`_update_or_skip`."""
    if len(measurements) <= 1:
        return step_sequential_wrapped(est, measurements, motion, cfg,
                                       UPDATE_ORDER, diagnostics)
    kin, axis, orient = _predict(est, motion)
    col1, col2 = measurements.points.T.tolist()
    noise = cfg._noise
    (z1, z2), w = _centering(col1, col2, kin, noise)
    scatter = _column_scatter(col1, col2, z1, z2)
    count, theta = len(col1), orient[0]
    shape = _shape_entries(theta, axis[0], axis[1])
    return _estimate(
        _update_or_skip(diagnostics, "kinematics", kalman_center_update, kin,
                        z1, z2, noise, cfg.c, shape, count),
        _update_or_skip(diagnostics, "axis", update_axis, axis, theta,
                        scatter, count, w, cfg.c, cfg.psi),
        _update_or_skip(diagnostics, "orientation", batch_update_orientation,
                        orient, shape, scatter, count, w, cfg.c))


def _estimate_floats(est):
    """The floats of an estimate, flattened."""
    (kin_mean, kin_cov), (axis_mean, axis_cov), orient = est._floats
    return [*kin_mean, *(x for row in kin_cov for x in row), *axis_mean,
            *(x for row in axis_cov for x in row), *orient]


# Entries with signed zeros, extreme magnitudes and non-finite values.
SPECIAL_ENTRIES = (0.0, -0.0, 1.0, -1.0, 1e-300, 1e300, math.inf, -math.inf,
                   math.nan)


@st.composite
def guard_inputs(draw):
    """:func:`guard_matrices` rows with up to two entries set to a signed
    zero, and a right-hand side with signed zeros."""
    mat = draw(guard_matrices())
    n = len(mat)
    for _ in range(draw(st.integers(0, 2))):
        mat[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = \
            draw(st.sampled_from([0.0, -0.0]))
    rhs = draw(st.lists(coordinates, min_size=n, max_size=n))
    return mat.tolist(), rhs


@settings(max_examples=500)
@given(problem=guard_inputs(),
       error=st.sampled_from([SingularInnovation, SingularPseudoCov]))
@example(problem=([[0.0, -0.0], [-0.0, 0.0]], [1.0, -0.0]),
         error=SingularInnovation)
@example(problem=([[-0.0, 1.0], [1.0, -0.0]], [-0.0, 0.0]),
         error=SingularPseudoCov)
@example(problem=([[1.0, 0.0], [0.0, float("nan")]], [1.0, 2.0]),
         error=SingularPseudoCov)
@example(problem=([[1.0, -0.0], [-0.0, 1e-13]], [-0.0, 1.0]),
         error=SingularPseudoCov)
def test_flat_guards_equal_the_nested_adjugate_forms_bit_for_bit(problem,
                                                                error):
    # a 2x2 solve through _guarded_det and the adjugate entries named as
    # the filters name them, against the nested-tuple guard: kappa_F
    # trips, non-finite entries, signed zeros, and the type and message
    # of a tripped guard's exception
    rows, rhs = problem
    message = "2x2 guard tripped"
    assert (_exact_or_error(guarded_solve_2x2, rows, rhs, error, message)
            == _exact_or_error(_guarded_solve_nested, rows, rhs,
                               error(message)))
    (a, b), (c, d) = rows
    assert (_exact_or_error(_guarded_det, a, b, c, d, error, message)
            == _exact_or_error(lambda: _guarded_adjugate(
                rows, error(message))[1]))


@st.composite
def kinematic_update_args(draw):
    """(kin, z1, z2, noise, c, shape, count) of a kinematic update: a PSD
    or zero prior, noise and shape, each zero in some draws (a singular
    innovation covariance), with up to three entries replaced by
    :data:`SPECIAL_ENTRIES`."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    root = rng.normal(size=(4, 4)) * draw(st.sampled_from([0.0, 1e-8, 1.0,
                                                           1e8]))
    mean, cov = (rng.normal(size=4) * 5.0).tolist(), (root @ root.T).tolist()
    noise_root = rng.normal(size=(2, 2)) * draw(st.sampled_from([0.0, 1.0]))
    noise = (noise_root @ noise_root.T).ravel().tolist()
    lengths = rng.uniform(0.0, 6.0, size=2) * draw(st.sampled_from([0.0, 1.0]))
    shape = list(_shape_entries(float(rng.uniform(-np.pi, np.pi)),
                                *lengths.tolist()))
    rows = [mean, *cov, noise, shape]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = \
            draw(st.sampled_from(SPECIAL_ENTRIES))
    return ((mean, cov), draw(coordinates), draw(coordinates), noise,
            draw(st.sampled_from([0.25, 1.0 / 3.0])), tuple(shape),
            draw(st.integers(1, 12)))


@settings(max_examples=400)
@given(args=kinematic_update_args())
@example(args=(([1.0, -0.0, 0.0, 2.0], [[0.0] * 4 for _ in range(4)]), -0.0,
               0.0, [0.0, -0.0, -0.0, 0.0], 0.25, (0.0, 0.0, -0.0), 1))
@example(args=(([1.0, -0.0, 0.0, 2.0], np.eye(4).tolist()), -0.0, 0.0,
               [1.0, -0.0, -0.0, 1.0], 0.25, (0.0, 0.0, -0.0), 3))
def test_kinematic_update_equals_the_nested_adjugate_form_bit_for_bit(args):
    assert (_exact_or_error(lambda: _estimate_floats(_estimate(
        kalman_center_update(*args), (1.0, 1.0, 0.0, 0.0, 0.0), (0.0, 0.0))))
        == _exact_or_error(lambda: _estimate_floats(_estimate(
            kalman_center_update_rows(*args), (1.0, 1.0, 0.0, 0.0, 0.0),
            (0.0, 0.0)))))


@settings(max_examples=400)
@given(problem=orientation_problems(), point=st.tuples(coordinates, coordinates),
       c=st.sampled_from([0.25, 1.0 / 3.0]),
       special=st.sampled_from([None, -0.0, math.inf, math.nan]),
       where=st.integers(0, 3))
@example(problem=((0.3, 0.0), (4.0, 0.0), [0.0, 0.0, 0.0, 0.0]),
         point=(1.0, -0.0), c=0.25, special=None, where=0)
@example(problem=((0.3, 0.5), (4.0, 2.0), [1.0, 0.0, 0.0, 1.0]),
         point=(1.0, -0.0), c=0.25, special=math.inf, where=0)
def test_orientation_update_equals_the_nested_form_bit_for_bit(
        problem, point, c, special, where):
    (theta, var), (l1, l2), w = problem
    if special is not None:
        w = list(w)
        w[where] = special
    mom = orientation_moments(_shape_entries(theta, l1, l2), var, w, c)
    s1, s2 = point
    b = (s1 * s1, s2 * s2, s1 * s2)
    assert (_exact_or_error(update_orientation, (theta, var), b, mom)
            == _exact_or_error(update_orientation_nested, (theta, var), b,
                               mom))


@st.composite
def problems_with_skips(draw):
    """:func:`problems`, in half the draws with an axis estimate so
    elongated that every guard trips, and a permuted update order."""
    est, scan, motion, cfg = draw(problems())
    if draw(st.booleans()):
        est = DecoupledEstimate(est.kin, AxisState([1e9, 1e-3], np.eye(2)),
                                est.orient)
    order = draw(st.permutations(UPDATE_ORDER))
    return est, scan, motion, cfg, tuple(order)


def _step_or_error(step, *args):
    try:
        return _exact(_estimate_floats(step(*args)))
    except NonFiniteState as exc:
        return type(exc), str(exc)


@given(problem=problems_with_skips())
def test_direct_update_calls_equal_the_skip_wrapper_bit_for_bit(problem):
    # both steps against their forms with every update run through
    # _update_or_skip: the same floats, and every skip counted once
    est, scan, motion, cfg, order = problem
    for run, wrapped in (
            (lambda d: step_sequential(est, scan, motion, cfg, order=order,
                                       diagnostics=d),
             lambda d: step_sequential_wrapped(est, scan, motion, cfg, order,
                                               d)),
            (lambda d: step_batch(est, scan, motion, cfg, diagnostics=d),
             lambda d: step_batch_wrapped(est, scan, motion, cfg, d))):
        diagnostics, wrapped_diagnostics = StepDiagnostics(), StepDiagnostics()
        assert (_step_or_error(run, diagnostics)
                == _step_or_error(wrapped, wrapped_diagnostics))
        assert diagnostics.as_dict() == wrapped_diagnostics.as_dict()

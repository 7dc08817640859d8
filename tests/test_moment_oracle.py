"""The float code against the numpy references of ``conftest.py``.

The filters run on Python floats: Cov(b) entry by entry from Isserlis'
theorem, 2x2 solves by adjugate and determinant, the orientation's 3x3
solve through the closed-form inverse of Cov(b) (plus Sherman-Morrison
for the batch noise), one axis update for a point and for the scatter of
a scan. The references are the general linear-algebra forms of the same
updates and steps. Seeded sweeps, whole campaigns and property tests
hold the float code to them at ``TOL``, and the guards' verdicts to
numpy's condition numbers. The written-out pivot test of the PSD repair
and the config check are held to the loop form of the pivot test. Bit
for bit, only what the code claims: batch equals sequential at M = 1.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from elliptrack import (AxisState, DecoupledEstimate, FilterConfig,
                        KinematicState, MeasurementSet, MotionModel,
                        OrientationState, StepDiagnostics, builtin_scenarios,
                        constant_velocity_transition, predict, rot, step_batch,
                        step_sequential)
from elliptrack.errors import (ConfigError, SingularInnovation,
                               SingularPseudoCov)
from elliptrack.measurements import _column_scatter, aligned_squares
from elliptrack.sequential import (AXIS_FLOOR, COND_LIMIT, UPDATE_ORDER,
                                   _guarded_det, _guarded_solve, _predict,
                                   kalman_center_update, orientation_moments,
                                   update_axis)
from elliptrack.simulation import sample_run_data
from elliptrack.state import (_axis_floats, _axis_state, _has_psd_pivots_4x4,
                              _is_covariance, _mirrored, _psd_rows,
                              _shape_entries, _symmetry_tol, wrap_angle)

from conftest import (_has_psd_pivots, assert_symmetric_psd,
                      axis_moments_oracle, cov_b_oracle, guarded_solve_oracle,
                      kinematics_oracle, orientation_moments_oracle,
                      predict_oracle, shape_oracle, stacked_axis_oracle,
                      step_batch_oracle, step_sequential_oracle,
                      symmetrize_psd_oracle, update_axis_oracle)

# Relative tolerance against the references, unchanged since they were
# written. The float code and a reference differ in the order of their
# sums and in how a 2x2 or 3x3 system is solved (adjugate against LU), so
# they agree to about eps times the condition number of the solved
# system; 1e-12 is about 4500 eps. Up to the guards' edge, where that
# number reaches 1e12, the solves are held to a tolerance derived from it
# instead (test_guarded_solve_matches_eigenvalue_oracle,
# test_orientation_solve.py).
TOL = 1e-12


def _upper(mat):
    """The upper triangle of a square ``mat``, row by row, as floats: the
    arguments of :func:`_psd_rows` and :func:`_has_psd_pivots_4x4`."""
    mat = np.asarray(mat, dtype=float)
    return mat[np.triu_indices(len(mat))].tolist()


def _relative_gap(out, ref, predicted_var):
    """Largest deviation of ``out`` from ``ref``, relative per component.

    The angle variance is relative to ``predicted_var``, the variance
    before the updates: an update forms var - var^2 q, which rounds to
    eps times var, and a variance updated near zero keeps that error.
    """
    def gap(a, b, scale=None):
        scale = np.abs(b).max() if scale is None else scale
        return np.abs(a - b).max() / scale if scale > 0.0 else np.abs(a).max()

    gaps = [gap(out.kin.mean, ref.kin.mean), gap(out.kin.cov, ref.kin.cov),
            gap(out.axis.mean, ref.axis.mean), gap(out.axis.cov, ref.axis.cov),
            gap(out.orient.var, ref.orient.var,
                max(predicted_var, ref.orient.var)),
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
                                                               w, cfg.c)
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
    expected_b, cov_bb, _ = orientation_moments_oracle(axis, orient, w, 0.25)
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
            worst = max(worst, _relative_gap(
                out, ref, est.orient.var + cfg.motion.Q_theta))
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


@pytest.mark.parametrize("step, oracle", [(step_sequential,
                                           step_sequential_oracle),
                                          (step_batch, step_batch_oracle)])
@pytest.mark.parametrize("strategy", [problems, problems_with_skips])
@given(data=st.data())
def test_float_step_matches_oracle_on_random_problems(step, oracle, strategy,
                                                      data):
    # the same floats to TOL and every skipped update counted as the
    # reference counts it; the sequential step in the drawn update order
    est, scan, motion, cfg, *order = data.draw(strategy())
    kwargs = {"order": order[0]} if order and step is step_sequential else {}
    diagnostics, oracle_diagnostics = StepDiagnostics(), StepDiagnostics()
    out = step(est, scan, motion, cfg, diagnostics=diagnostics, **kwargs)
    ref = oracle(est, scan, motion, cfg, oracle_diagnostics)
    assert diagnostics.as_dict() == oracle_diagnostics.as_dict()
    assert _relative_gap(out, ref, est.orient.var + motion.Q_theta) <= TOL


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
    out = _mirrored(_psd_rows(*_upper(0.5 * (mat + mat.T))))
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
    # a tripped guard raises the caller's exception type with its message
    kappa = kappa_f_oracle(mat)
    assume(not abs(kappa / COND_LIMIT - 1.0) < KAPPA_BAND)
    args = (mat.tolist(), [1.0] * len(mat), SingularPseudoCov,
            "A is ill-conditioned")
    if kappa < COND_LIMIT:
        guarded_solve_2x2(*args)
    else:
        with pytest.raises(SingularPseudoCov, match="^A is ill-conditioned$"):
            guarded_solve_2x2(*args)


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
    # COND_LIMIT, away from the edges of the last two; the message names
    # the reason, in the order the guard checks them
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
    reason = None
    if not (definite and kappa * kappa < COND_LIMIT):
        reason = "ill-conditioned"
    elif not shrink > 0.0:
        reason = "not positive definite"
    elif not kappa * kappa < shrink * COND_LIMIT:
        reason = "ill-conditioned"
    args = (mat, rhs.tolist(), SingularPseudoCov, "B", var)
    if reason is None:
        orientation_solve(*args)
    else:
        with pytest.raises(SingularPseudoCov, match=f"^B is {reason}$"):
            orientation_solve(*args)


# Transitions with entries in {0, 1} and at most two ones per row, like
# the constant-velocity F: zero rows and columns, and sums of few terms.
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


CONSTANT_VELOCITY = constant_velocity_transition(1.0).tolist()


@settings(max_examples=300)
@given(problem=kinematic_problems(st.one_of(zero_one_transitions,
                                            random_transitions())))
@example(problem=(DecoupledEstimate(
    KinematicState([1.0, -2.0, 3.0, 0.5], np.diag([2.0, 2.0, 0.5, 0.5])),
    AxisState([5.0, 2.0], np.eye(2)), OrientationState(0.3, 0.1)),
    MotionModel(CONSTANT_VELOCITY, np.diag([1.0, 1.0, 2.0, 2.0]),
                np.zeros((2, 2)), 0.1),
    [2.0, -1.0], [1.0, 0.25, 0.25, 1.0], 0.25, 1))
def test_written_out_prediction_and_update_match_the_numpy_forms(problem):
    # constant-velocity, other 0/1 and random F; exact zero blocks and
    # priors asymmetric within the config tolerance. The prediction, and
    # the kinematic update from the same predicted floats, against the
    # references to TOL relative to the size of the terms that were
    # summed. The reference averages F P F^T + Q with its transpose where
    # the code reads the upper triangle, so the predicted covariances may
    # also differ by half of the asymmetry the prior and Q bring. The
    # update solves with the 2x2 innovation covariance S, so it is held
    # to eps kappa(S) where that exceeds TOL: rounding in S's entries
    # reaches the gain amplified by kappa(S).
    est, motion, (z1, z2), noise, c, count = problem
    (mean, upper), axis, orient = _predict(est, motion)
    cov = _mirrored(upper)
    ref = predict_oracle(est, motion)
    f = np.abs(motion.F_kin)
    fpf = motion.F_kin @ est.kin.cov @ motion.F_kin.T + motion.Q_kin
    mean_scale = (f @ np.abs(est.kin.mean)).max()
    cov_scale = (f @ np.abs(est.kin.cov) @ f.T + np.abs(motion.Q_kin)).max()
    assert np.abs(np.subtract(mean, ref.kin.mean)).max() <= TOL * mean_scale
    assert (np.abs(np.subtract(cov, ref.kin.cov)).max()
            <= TOL * cov_scale + 0.5 * np.abs(fpf - fpf.T).max())
    axis_out = _axis_state(axis)
    assert np.array_equal(axis_out.mean, ref.axis.mean)
    assert (np.abs(axis_out.cov - ref.axis.cov).max()
            <= TOL * np.abs(ref.axis.cov).max())
    assert orient == (ref.orient.mean, ref.orient.var)
    noise_ref = (np.reshape(noise, (2, 2))
                 + c * shape_oracle(orient[0], axis[:2])) / count
    try:
        updated = kalman_center_update((mean, upper), z1, z2, noise, c,
                                       _shape_entries(orient[0], *axis[:2]),
                                       count)
        updated_ref = kinematics_oracle(KinematicState(mean, cov), [z1, z2],
                                        noise_ref)
    except SingularInnovation:
        # only a condition number on the guard's edge may go either way
        return
    tol = max(TOL, np.finfo(float).eps
              * np.linalg.cond(cov[:2, :2] + noise_ref))
    assert (np.abs(np.subtract(updated[0], updated_ref.mean)).max()
            <= tol * max(mean_scale, np.abs(updated_ref.mean).max()))
    assert (np.abs(_mirrored(updated[1]) - updated_ref.cov).max()
            <= tol * cov_scale)

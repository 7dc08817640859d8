import itertools
import math

import numpy as np
import pytest

from elliptrack import (AxisState, FilterConfig, KinematicState,
                        MeasurementSet, OrientationState, StepDiagnostics,
                        predict, rot, step_batch, step_sequential)
from elliptrack import batch
from elliptrack.batch import (batch_update_axis, batch_update_kinematics,
                              batch_update_orientation)
from elliptrack.errors import SingularInnovation, SingularPseudoCov
from elliptrack.measurements import (CenteredMeasurements, aligned_squares,
                                     build_pseudo, center_measurements)
from elliptrack.sequential import (axis_moments, kalman_center_update,
                                   orientation_moments, update_orientation)
from elliptrack.measurements import _column_scatter
from elliptrack.state import _shape_entries, shape_matrix
from elliptrack.simulation import builtin_scenarios, sample_run_data

from conftest import (assert_symmetric_psd, axis_moments_oracle,
                      batch_orientation_oracle, make_estimate, make_motion,
                      orientation_moments_oracle, stacked_axis_oracle)


def orientation_update(orient, centered, axis, cfg):
    """batch_update_orientation on the scan ``centered``, as a dataclass."""
    return OrientationState(*batch_update_orientation(
        (orient.mean, orient.var), _shape_entries(orient.mean, *axis.mean),
        _column_scatter(*centered.s.T.tolist(), 0.0, 0.0), len(centered),
        centered.W.ravel().tolist(), cfg.c))


def moments_b(axis, orient, cfg):
    """orientation_moments at the estimate, with W = R, as tuples."""
    return orientation_moments(_shape_entries(orient.mean, *axis.mean),
                               orient.var, cfg.R.ravel().tolist(), cfg.c)


class TestBatchKinematics:
    def test_single_measurement_reduces_to_sequential(self, default_config):
        kin = KinematicState([1, 2, 0.5, 0.1], np.diag([2.0, 2.0, 0.5, 0.5]))
        shape = shape_matrix(0.4, [5, 2])
        z = np.array([3.0, 1.0])
        batch = batch_update_kinematics(kin, MeasurementSet([z]), shape,
                                        default_config)
        seq_mean, seq_cov = kalman_center_update(
            (kin.mean.tolist(), kin.cov.tolist()), 3.0, 1.0,
            default_config.R.ravel().tolist(), default_config.c,
            _shape_entries(0.4, 5.0, 2.0))
        np.testing.assert_array_equal(batch.mean, seq_mean)
        np.testing.assert_array_equal(batch.cov, seq_cov)

    def test_uses_measurement_mean(self, default_config):
        kin = KinematicState(np.zeros(4), np.diag([2.0, 2.0, 0.5, 0.5]))
        z = MeasurementSet([[0, 0], [2, 2], [4, 4]])
        out = batch_update_kinematics(kin, z, np.eye(2), default_config)
        expected = batch_update_kinematics(
            KinematicState(np.zeros(4), np.diag([2.0, 2.0, 0.5, 0.5])),
            MeasurementSet([[2.0, 2.0]]), np.eye(2) / 3,
            FilterConfig(R=default_config.R / 3, c=default_config.c))
        np.testing.assert_allclose(out.mean, expected.mean, atol=1e-12)

    def test_large_count_approaches_noise_free_gain(self, default_config):
        kin = KinematicState(np.zeros(4), np.diag([2.0, 2.0, 0.5, 0.5]))
        z_bar = np.array([1.5, -0.7])
        points = np.tile(z_bar, (100_000, 1))
        out = batch_update_kinematics(kin, MeasurementSet(points), np.eye(2),
                                      default_config)
        np.testing.assert_allclose(out.mean[:2], z_bar, atol=1e-4)


class TestBatchAxis:
    def _setup(self, psi=None):
        axis = AxisState([2.0, 1.0], np.diag([0.25, 0.25]))
        orient = OrientationState(0.0, 0.05)
        cfg = FilterConfig(R=np.eye(2), c=0.25, psi=psi)
        return axis, orient, cfg

    def test_zero_innovation_keeps_mean(self):
        axis, orient, cfg = self._setup()
        rho = axis_moments(axis, orient, cfg.R, cfg).expected_a
        root = np.sqrt(rho)
        s = np.array([[root[0], root[1]], [-root[0], -root[1]],
                      [root[0], -root[1]]])
        centered = CenteredMeasurements(s, cfg.R)
        out = batch_update_axis(axis, centered, orient, cfg)
        np.testing.assert_allclose(out.mean, axis.mean, atol=1e-12)
        assert np.trace(out.cov) < np.trace(axis.cov)

    def test_cross_covariance_from_prior(self):
        # the per-axis cross terms evaluated at the prediction
        axis, orient, cfg = self._setup()
        mom = axis_moments(axis, orient, cfg.R, cfg)
        np.testing.assert_allclose(np.diag(mom.cross_ap), [0.25, 0.125])

    @pytest.mark.parametrize("count", [2, 3, 5])
    def test_reduced_equals_naive_stacked(self, count):
        # oracle: build the full (2M)x(2M) block-diagonal system and solve
        rng = np.random.default_rng(count)
        axis = AxisState([4.2, 1.7], np.array([[0.3, 0.05], [0.05, 0.2]]))
        orient = OrientationState(0.4, 0.05)
        cfg = FilterConfig(R=np.eye(2) * 0.8, c=0.25)
        s = rng.normal(size=(count, 2)) * 1.5
        centered = CenteredMeasurements(s, cfg.R)
        reduced = batch_update_axis(axis, centered, orient, cfg)

        naive_mean, naive_cov = stacked_axis_oracle(
            axis, aligned_squares(s, orient.mean),
            axis_moments_oracle(axis, orient.mean, cfg.R, cfg.c))
        np.testing.assert_allclose(reduced.mean, naive_mean, atol=1e-10)
        np.testing.assert_allclose(reduced.cov,
                                   0.5 * (naive_cov + naive_cov.T), atol=1e-10)

    def test_psi_clamp_applied(self):
        axis = AxisState([2.0, 1.0], np.diag([4.0, 4.0]))
        orient = OrientationState(0.0, 0.05)
        cfg = FilterConfig(R=np.eye(2), c=0.25, psi=0.1)
        rng = np.random.default_rng(9)
        centered = CenteredMeasurements(rng.normal(size=(4, 2)), cfg.R)
        out = batch_update_axis(axis, centered, orient, cfg)
        caps = (0.1 * out.mean) ** 2
        assert out.cov[0, 0] <= caps[0] + 1e-12
        assert out.cov[1, 1] <= caps[1] + 1e-12

    def test_without_psi_no_clamp(self):
        axis, orient, cfg = self._setup(psi=None)
        rng = np.random.default_rng(10)
        centered = CenteredMeasurements(rng.normal(size=(4, 2)) * 3, cfg.R)
        out = batch_update_axis(axis, centered, orient, cfg)
        assert np.all(out.mean > 0)
        assert_symmetric_psd(out.cov)


class TestBatchOrientation:
    def test_zero_innovation_shrinks_variance_only(self):
        # at a zero predicted angle with diagonal noise, two points built
        # from the centered-measurement covariance cancel the innovation
        axis = AxisState([4.0, 1.5], np.zeros((2, 2)))
        orient = OrientationState(0.0, 0.3)
        cfg = FilterConfig(R=np.diag([1.2, 0.8]), c=0.25)
        (c11, c22, _), _, _ = moments_b(axis, orient, cfg)
        s = np.array([[np.sqrt(2 * c11), 0.0], [0.0, np.sqrt(2 * c22)]])
        centered = CenteredMeasurements(s, cfg.R)
        out = orientation_update(orient, centered, axis, cfg)
        assert out.mean == pytest.approx(0.0, abs=1e-12)
        ref = batch_orientation_oracle(
            orient, build_pseudo(centered),
            orientation_moments_oracle(axis, orient, cfg.R, cfg.c))
        assert ref.mean == pytest.approx(0.0, abs=1e-12)
        assert out.var == pytest.approx(ref.var, rel=1e-10)
        assert 0.0 < out.var <= orient.var

    def test_circular_object_gives_no_information(self):
        # equal axes at zero angle zero the sensitivity vector
        axis = AxisState([2.0, 2.0], np.zeros((2, 2)))
        orient = OrientationState(0.2, 0.4)
        cfg = FilterConfig(R=np.eye(2), c=0.25)
        rng = np.random.default_rng(11)
        centered = CenteredMeasurements(rng.normal(size=(5, 2)), cfg.R)
        _, _, m_vec = moments_b(axis, OrientationState(0.0, 0.4), cfg)
        np.testing.assert_allclose(m_vec, np.zeros(3), atol=1e-14)
        out = orientation_update(OrientationState(0.0, 0.4), centered, axis,
                                 cfg)
        assert out.mean == pytest.approx(0.0, abs=1e-12)
        assert out.var == pytest.approx(0.4, rel=1e-12)

    def test_zero_prior_variance_returns_prior(self):
        axis = AxisState([4.0, 1.5], np.zeros((2, 2)))
        cfg = FilterConfig(R=np.eye(2), c=0.25)
        centered = CenteredMeasurements(np.ones((3, 2)), cfg.R)
        prior = (0.3, 0.0)
        assert batch_update_orientation(
            prior, _shape_entries(0.3, *axis.mean),
            _column_scatter([1.0] * 3, [1.0] * 3, 0.0, 0.0),
            3, cfg.R.ravel().tolist(), cfg.c) is prior

    def test_examples_reach_both_rejections(self):
        # a kappa_F skip (zero noise and a degenerate extent make the
        # noise covariance singular) and rejected negative information
        # (an indefinite W)
        for orient, axes, w, reason in (
                ((0.3298148443794737, 20.0), (5.76994316198272, 0.0),
                 [0.0, 0.0, 0.0, 0.0], "ill-conditioned"),
                ((2.410195721651175, 0.4929722163862067),
                 (0.971070419289934, 1.4971819889169884),
                 [-0.45264929211044586, -0.2155971630897659,
                  -0.2155971630897659, -0.23193237764418947],
                 "not positive definite")):
            with pytest.raises(SingularPseudoCov,
                               match="^batch orientation noise covariance is "
                                     + reason):
                batch_update_orientation(
                    orient, _shape_entries(orient[0], *axes), (1.0, 2.0, 0.5),
                    3, w, 0.25)

    def test_a_sum_of_signed_zeros_is_positive_zero(self, monkeypatch):
        # a round object at theta = -0.0 has M = (0, -0, 0), so the weights
        # are zeros and, with every innovation negative, each summand is
        # -0.0. Without the final wrap, which maps -0.0 to 0.0, the update
        # returns var_post (theta / var + sum) = var_post (-0.0 + sum):
        # +0.0 only if the sum is +0.0
        monkeypatch.setattr(batch, "wrap_angle", lambda theta: theta)
        points = [[1.0, -1.0], [-1.0, 1.0], [0.0, 0.0]]
        scatter = _column_scatter(*np.transpose(points).tolist(), 0.0, 0.0)
        theta, var = batch_update_orientation(
            (-0.0, 0.5), _shape_entries(-0.0, 2.0, 2.0), scatter, 3,
            [1.0, 0.0, 0.0, 1.0], 0.25)
        assert math.copysign(1.0, theta) == 1.0 and theta == 0.0
        assert var == 0.5  # and the round object gives no information

    def test_variance_always_shrinks(self):
        rng = np.random.default_rng(12)
        cfg = FilterConfig(R=np.eye(2), c=0.25)
        for _ in range(300):
            axis = AxisState(rng.uniform(1.0, 6.0, size=2), np.eye(2) * 0.1)
            orient = OrientationState(rng.uniform(-np.pi, np.pi),
                                      rng.uniform(0.01, 0.5))
            m = rng.integers(2, 10)
            centered = CenteredMeasurements(rng.normal(size=(m, 2)) * 2, cfg.R)
            out = orientation_update(orient, centered, axis, cfg)
            assert 0.0 < out.var <= orient.var

    def test_two_measurement_consistency_with_sequential(self):
        # the batch information form and two chained sequential updates are
        # different approximations of the same posterior; on typical draws
        # they must agree closely (means 10%, variances 15%)
        rng = np.random.default_rng(42)
        cfg = FilterConfig(R=np.eye(2), c=0.25)
        for _ in range(100):
            theta = rng.uniform(0.5, 1.2)
            axes = np.array([rng.uniform(3.0, 6.0), rng.uniform(1.0, 2.5)])
            axis = AxisState(axes, np.diag([0.3, 0.2]))
            orient = OrientationState(theta, rng.uniform(0.01, 0.1))
            h = np.clip(rng.normal(size=(2, 2)) * 0.5, -1.0, 1.0)
            w = np.clip(rng.multivariate_normal(np.zeros(2), cfg.R, size=2),
                        -2.0, 2.0)
            s = (rot(theta) @ np.diag(axes) @ h.T).T + w
            centered = CenteredMeasurements(s, cfg.R)
            from_batch = orientation_update(orient, centered, axis, cfg)

            b = np.column_stack((s ** 2, s[:, 0] * s[:, 1]))
            first = OrientationState(*update_orientation(
                (orient.mean, orient.var), b[0],
                moments_b(axis, orient, cfg)))
            chained = OrientationState(*update_orientation(
                (first.mean, first.var), b[1], moments_b(axis, first, cfg)))
            assert abs(from_batch.mean - chained.mean) <= 0.10 * abs(chained.mean)
            assert abs(from_batch.var - chained.var) <= 0.15 * chained.var


class TestStepBatch:
    def test_single_measurement_delegates_bit_identically(self, default_config):
        est, motion = make_estimate(), make_motion()
        z = MeasurementSet([[4.0, 1.0]])
        batch = step_batch(est, z, motion, default_config)
        seq = step_sequential(est, z, motion, default_config)
        assert np.array_equal(batch.kin.mean, seq.kin.mean)
        assert np.array_equal(batch.kin.cov, seq.kin.cov)
        assert np.array_equal(batch.axis.mean, seq.axis.mean)
        assert np.array_equal(batch.axis.cov, seq.axis.cov)
        assert batch.orient == seq.orient

    def test_empty_set_returns_prediction(self, default_config):
        est, motion = make_estimate(), make_motion()
        out = step_batch(est, MeasurementSet(np.empty((0, 2))), motion,
                         default_config)
        pred = predict(est, motion)
        np.testing.assert_array_equal(out.kin.mean, pred.kin.mean)
        assert out.orient == pred.orient

    def test_updates_read_only_the_prediction(self, default_config):
        # computing the three batch updates standalone, in every order,
        # reproduces the step output exactly
        est, motion = make_estimate(theta=0.2), make_motion()
        rng = np.random.default_rng(13)
        z = MeasurementSet(rng.normal(size=(7, 2)) * 2 + [3, 0])
        step_out = step_batch(est, z, motion, default_config)

        pred = predict(est, motion)
        shape = shape_matrix(pred.orient.mean, pred.axis.mean)
        centered = center_measurements(z, pred.kin, default_config.R)
        updates = {
            "kin": lambda: batch_update_kinematics(pred.kin, z, shape,
                                                   default_config),
            "axis": lambda: batch_update_axis(pred.axis, centered, pred.orient,
                                              default_config),
            "orient": lambda: orientation_update(pred.orient, centered,
                                                 pred.axis, default_config),
        }
        for order in itertools.permutations(updates):
            parts = {name: updates[name]() for name in order}
            assert np.array_equal(parts["kin"].mean, step_out.kin.mean)
            assert np.array_equal(parts["kin"].cov, step_out.kin.cov)
            assert np.array_equal(parts["axis"].mean, step_out.axis.mean)
            assert np.array_equal(parts["axis"].cov, step_out.axis.cov)
            assert parts["orient"] == step_out.orient

    def test_covariances_stay_symmetric_psd(self, default_config):
        rng = np.random.default_rng(14)
        est, motion = make_estimate(), make_motion()
        for _ in range(30):
            count = int(rng.integers(0, 15))
            z = MeasurementSet(rng.normal(size=(count, 2)) * 2 + [2, 1])
            est = step_batch(est, z, motion, default_config)
            assert_symmetric_psd(est.kin.cov)
            assert_symmetric_psd(est.axis.cov)
            assert est.orient.var >= 0.0

    @pytest.mark.parametrize("theta_var, skipped_orientation",
                             [(0.1, 1), (0.0, 0)])
    def test_ill_conditioned_updates_are_skipped_and_counted(
            self, default_config, theta_var, skipped_orientation):
        # an absurdly elongated axis estimate drives every batch solve past
        # the condition guard: each update is counted once and falls back
        # to the prediction. A zero orientation variance leaves nothing to
        # update there, which is not counted as a skip.
        est = make_estimate(velocity=(0.0, 0.0), axes=(1e9, 1e-3),
                            kin_cov=np.diag([1.0, 1.0, 0.0, 0.0]),
                            theta_var=theta_var)
        motion = make_motion(q_pos=0.0, q_vel=0.0, q_theta=0.0)
        z = MeasurementSet([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        diag = StepDiagnostics()
        out = step_batch(est, z, motion, default_config, diagnostics=diag)
        assert diag.as_dict() == {"skipped_kinematics": 1, "skipped_axis": 1,
                                  "skipped_orientation": skipped_orientation}
        pred = predict(est, motion)
        assert np.array_equal(out.kin.mean, pred.kin.mean)
        assert np.array_equal(out.kin.cov, pred.kin.cov)
        assert np.array_equal(out.axis.mean, pred.axis.mean)
        assert np.array_equal(out.axis.cov, pred.axis.cov)
        assert out.orient == pred.orient

    def test_one_point_skips_are_counted_once(self, default_config):
        # step_batch takes no update order; a one-point scan goes to the
        # sequential step, which counts each skip, and the batch step adds
        # none of its own
        est = make_estimate(velocity=(0.0, 0.0), axes=(1e9, 1e-3),
                            kin_cov=np.diag([1.0, 1.0, 0.0, 0.0]),
                            theta_var=0.1)
        motion = make_motion(q_pos=0.0, q_vel=0.0, q_theta=0.0)
        z = MeasurementSet([[1.0, 0.0]])
        diag, seq_diag = StepDiagnostics(), StepDiagnostics()
        out = step_batch(est, z, motion, default_config, diagnostics=diag)
        ref = step_sequential(est, z, motion, default_config,
                              diagnostics=seq_diag)
        assert diag.as_dict() == seq_diag.as_dict()
        assert diag.skipped_kinematics == 1 and diag.skipped_axis == 1
        assert out._floats == ref._floats
        assert out._floats[:2] == predict(est, motion)._floats[:2]


class TestClosedFormStep:
    @pytest.mark.parametrize("scenario, step",
                             [("moderate", step_batch),
                              ("stationary", step_sequential)])
    def test_healthy_step_calls_no_lapack(self, monkeypatch, scenario, step):
        cfg = builtin_scenarios(runs=1, seed=5)[scenario]
        _, scans = sample_run_data(cfg, 0)
        scan = next(s for s in scans if len(s) >= (2 if step is step_batch
                                                    else 1))

        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called on a healthy filter step")

        for name in ("solve", "eigvalsh", "eigh", "cholesky", "inv"):
            monkeypatch.setattr(np.linalg, name, no_lapack)
        diagnostics = StepDiagnostics()
        out = step(cfg.prior, scan, cfg.motion, cfg.filter_config(),
                   diagnostics=diagnostics)
        assert diagnostics.as_dict() == StepDiagnostics().as_dict()
        assert np.all(np.isfinite(out.kin.cov)) and out.orient.var > 0.0

    @pytest.mark.parametrize("scenario, step", [
        ("moderate", step_sequential), ("moderate", step_batch),
        ("stationary", step_sequential), ("stationary", step_batch)])
    def test_healthy_steps_build_no_exception(self, monkeypatch, scenario,
                                              step):
        # a guard builds its exception only when it trips, so seeded runs
        # that skip nothing construct none
        built = []

        def counting_init(self, *args):
            built.append(type(self))
            Exception.__init__(self, *args)

        for cls in (SingularInnovation, SingularPseudoCov):
            monkeypatch.setattr(cls, "__init__", counting_init)
        cfg = builtin_scenarios(runs=2, seed=7)[scenario]
        fcfg = cfg.filter_config()
        diagnostics = StepDiagnostics()
        steps = 0
        for run in range(cfg.runs):
            est = cfg.prior
            for scan in sample_run_data(cfg, run)[1]:
                est = step(est, scan, cfg.motion, fcfg,
                           diagnostics=diagnostics)
                steps += len(scan) > 0
        assert steps > 100
        assert diagnostics.as_dict() == StepDiagnostics().as_dict()
        assert built == []

    @pytest.mark.parametrize("scenario", ["moderate", "noisy"])
    def test_batch_campaign_repairs_without_eigh(self, monkeypatch, scenario):
        # the axis update leaves an indefinite 2x2 covariance on many of
        # these steps; its repair is closed-form, and the repaired matrix
        # needs no second repair in the next prediction
        cfg = builtin_scenarios(runs=20, seed=7)[scenario]
        fcfg = cfg.filter_config()
        runs = [sample_run_data(cfg, run)[1] for run in range(cfg.runs)]

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called in a batch campaign")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        diagnostics = StepDiagnostics()
        for scans in runs:
            est = cfg.prior
            for scan in scans:
                est = step_batch(est, scan, cfg.motion, fcfg,
                                 diagnostics=diagnostics)
            assert_symmetric_psd(est.axis.cov)
        assert diagnostics.as_dict() == StepDiagnostics().as_dict()

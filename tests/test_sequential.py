import itertools
import math

import numpy as np
import pytest

from elliptrack import (AxisState, KinematicState, MeasurementSet,
                        OrientationState, SourceDistribution, predict, rot,
                        sample_measurements, step_sequential)
from elliptrack.batch import batch_update_kinematics
from elliptrack.errors import NonFiniteState, SingularInnovation
from elliptrack.sequential import (StepDiagnostics, axis_moments,
                                   kalman_center_update, orientation_moments,
                                   update_axis, update_orientation)
from elliptrack.state import (_axis_floats, _axis_state, _mirrored,
                              _shape_entries)

from conftest import assert_symmetric_psd, make_estimate, make_motion


def moments_b(axes, theta, var_theta, w, cfg):
    """orientation_moments at the given axes, angle and noise W, as arrays."""
    mom = orientation_moments(_shape_entries(theta, *axes), var_theta,
                              np.ravel(w).tolist(), cfg.c)
    return tuple(np.array(part) for part in mom)


def point_scatter(s):
    """(S11, S22, S12) of one centered point s: its pseudo-measurement b."""
    s1, s2 = s
    return s1 * s1, s2 * s2, s1 * s2


class TestPredict:
    def test_identity_dynamics(self):
        est = make_estimate(theta=3 * np.pi)
        motion = make_motion(q_pos=0.0, q_vel=0.0, q_theta=0.0, dt=0.0)
        out = predict(est, motion)
        np.testing.assert_array_equal(out.kin.mean[:2], est.kin.mean[:2])
        np.testing.assert_array_equal(out.axis.mean, est.axis.mean)
        # only the angle wrap may change the orientation
        assert out.orient.mean == pytest.approx(np.pi)

    def test_constant_velocity_propagation(self):
        est = make_estimate(center=(0, 0), velocity=(1, 2))
        out = predict(est, make_motion())
        np.testing.assert_allclose(out.kin.mean, [1, 2, 1, 2])

    def test_additive_orientation_noise(self):
        est = make_estimate(theta_var=0.04)
        out = predict(est, make_motion(q_theta=0.01))
        assert out.orient.var == pytest.approx(0.05)

    def test_axis_transition_is_identity(self):
        est = make_estimate(axes=(4.4, 1.7))
        out = predict(est, make_motion(q_axis=0.3))
        np.testing.assert_array_equal(out.axis.mean, [4.4, 1.7])
        np.testing.assert_allclose(out.axis.cov, np.eye(2) * 1.3)


class TestUpdateKinematics:
    def test_perfect_prior_has_zero_gain(self, default_config):
        kin = KinematicState([1, 2, 3, 4], np.zeros((4, 4)))
        out = batch_update_kinematics(kin, MeasurementSet([[10, 10]]),
                                      np.eye(2), default_config)
        np.testing.assert_array_equal(out.mean, kin.mean)
        np.testing.assert_array_equal(out.cov, kin.cov)

    def test_half_gain_case(self, default_config):
        # prior position cov = I and effective noise = I: gain is 1/2
        kin = KinematicState([0, 0, 0, 0], np.diag([1.0, 1.0, 0.0, 0.0]))
        out = batch_update_kinematics(kin, MeasurementSet([[2, 0]]),
                                      np.zeros((2, 2)), default_config)
        np.testing.assert_allclose(out.mean, [1, 0, 0, 0])
        np.testing.assert_allclose(out.cov[:2, :2], 0.5 * np.eye(2), atol=1e-12)

    def test_effective_noise_composition(self, default_config):
        # R + c X = I + 0.25 diag(4, 1) = diag(2, 1.25); innovation
        # covariance diag(3, 2.25), so z - H r = (3, 2.25) moves by (1, 1).
        kin = KinematicState(np.zeros(4), np.diag([1.0, 1.0, 0.0, 0.0]))
        out = batch_update_kinematics(kin, MeasurementSet([[3.0, 2.25]]),
                                      np.diag([4.0, 1.0]), default_config)
        np.testing.assert_allclose(out.mean, [1, 1, 0, 0], atol=1e-12)

    def test_posterior_below_prior_in_loewner_order(self, default_config):
        rng = np.random.default_rng(0)
        for _ in range(200):
            root = rng.normal(size=(4, 4))
            kin = KinematicState(rng.normal(size=4), root @ root.T)
            shape = np.diag(rng.uniform(0.5, 10.0, size=2))
            out = batch_update_kinematics(
                kin, MeasurementSet([rng.normal(size=2) * 5]), shape,
                default_config)
            gap = np.linalg.eigvalsh(kin.cov - out.cov).min()
            assert gap >= -1e-9
            assert_symmetric_psd(out.cov)


    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_prior(self, value):
        # a non-finite entry of the innovation block of P trips the guard;
        # one elsewhere reaches the covariance update and its PSD repair,
        # which raises NonFiniteState, except a +inf velocity variance,
        # which passes the pivot test and stays in the result
        mean = [1.0, 2.0, 0.5, 0.1]
        args = (3.0, 1.0, [1.0, 0.0, 0.0, 1.0], 0.25, (4.0, 1.0, 0.0))
        for i, j in itertools.combinations_with_replacement(range(4), 2):
            cov = np.eye(4) * 2.0 + 0.5
            cov[i, j] = cov[j, i] = value
            kin = (mean, cov[np.triu_indices(4)].tolist())
            if j < 2:
                with pytest.raises(SingularInnovation,
                                   match="ill-conditioned"):
                    kalman_center_update(kin, *args)
            elif value == math.inf and i == j:
                _, out = kalman_center_update(kin, *args)
                assert _mirrored(out)[i, i] == math.inf
            else:
                with pytest.raises(NonFiniteState, match="non-finite"):
                    kalman_center_update(kin, *args)


class TestAxisMoments:
    def test_expected_pseudo_measurement(self, default_config):
        axis = AxisState([2, 1], np.diag([0.25, 0.25]))
        orient = OrientationState(0.0, 0.1)
        mom = axis_moments(axis, orient, np.eye(2), default_config)
        np.testing.assert_allclose(mom.expected_a, [2.0625, 1.3125])

    def test_cross_covariance(self, default_config):
        axis = AxisState([2, 1], np.diag([0.25, 0.25]))
        mom = axis_moments(axis, OrientationState(0.0, 0.1), np.eye(2),
                           default_config)
        np.testing.assert_allclose(mom.cross_ap, np.diag([0.25, 0.125]))
        assert mom.cross_ap[0, 1] == 0.0 and mom.cross_ap[1, 0] == 0.0

    def test_diagonal_noise_kills_cov_offdiagonal(self, default_config):
        mom = axis_moments(AxisState([3, 1], np.eye(2) * 0.1),
                           OrientationState(0.0, 0.05),
                           np.diag([1.2, 0.4]), default_config)
        assert mom.cov_aa[0, 1] == 0.0
        assert mom.cov_aa[0, 0] > 0 and mom.cov_aa[1, 1] > 0

    def test_noise_alignment(self, default_config):
        # at theta = pi/2 the aligned noise swaps its diagonal, so
        # E(a) = (0.5, 2.0) + c (l1^2, l2^2)
        w = np.diag([2.0, 0.5])
        mom = axis_moments(AxisState([3, 1], np.zeros((2, 2))),
                           OrientationState(np.pi / 2, 0.0), w, default_config)
        np.testing.assert_allclose(mom.expected_a, [0.5 + 0.25 * 9, 2.0 + 0.25],
                                   atol=1e-12)


class TestUpdateAxis:
    # update_axis runs on (p1, p2, P11, P12, P22) floats and the scatter of
    # the centered points; at theta = 0 the aligned squares of a point s
    # are (s1^2, s2^2).
    AXIS = (2.0, 1.0, 0.25, 0.0, 0.25)
    W = (1.0, 0.0, 0.0, 1.0)

    def _expected_a(self, cfg):
        return axis_moments(_axis_state(self.AXIS), OrientationState(0.0, 0.1),
                            np.eye(2), cfg).expected_a

    def test_zero_innovation_keeps_mean(self, default_config):
        s = np.sqrt(self._expected_a(default_config))
        out = update_axis(self.AXIS, 0.0, point_scatter(s), 1, self.W,
                          default_config.c)
        np.testing.assert_allclose(out[:2], self.AXIS[:2], atol=1e-12)
        assert out[2] + out[4] < self.AXIS[2] + self.AXIS[4]

    def test_zero_prior_cov_is_fixed_point(self, default_config):
        axis = (2.0, 1.0, 0.0, 0.0, 0.0)
        out = update_axis(axis, 0.0, point_scatter([3.0, np.sqrt(5.0)]), 1,
                          self.W, default_config.c)
        assert out == axis

    def test_against_scalar_computation(self, default_config):
        # cov_aa is diagonal here, so the gain splits into two scalars
        out = update_axis(self.AXIS, 0.0, point_scatter([np.sqrt(3.0), 1.0]),
                          1, self.W, default_config.c)
        expect_1 = 2.0 + 0.25 * (3.0 - 2.0625) / (2 * 2.0625 ** 2)
        expect_2 = 1.0 + 0.125 * (1.0 - 1.3125) / (2 * 1.3125 ** 2)
        np.testing.assert_allclose(out[:2], [expect_1, expect_2], rtol=1e-12)

    def test_the_length_floors_keep_nan_as_max_does(self, default_config):
        # each length is floored as max(length, AXIS_FLOOR): a NaN length
        # stays NaN, where x if x > AXIS_FLOOR else AXIS_FLOOR would
        # return the floor; the covariance does not read the scatter
        out = update_axis(self.AXIS, 0.0, (math.nan,) * 3, 1, self.W,
                          default_config.c)
        assert math.isnan(out[0]) and math.isnan(out[1])
        assert out[2:] == update_axis(self.AXIS, 0.0, (1.0, 1.0, 0.0), 1,
                                      self.W, default_config.c)[2:]

    def test_trace_never_increases(self, default_config):
        rng = np.random.default_rng(1)
        for _ in range(500):
            root = rng.normal(size=(2, 2)) * 0.5
            axis = _axis_floats(AxisState(rng.uniform(0.5, 6, size=2),
                                          root @ root.T))
            out = update_axis(axis, rng.uniform(-np.pi, np.pi),
                              point_scatter(rng.normal(size=2) * 3), 1,
                              self.W, default_config.c)
            assert out[2] + out[4] <= axis[2] + axis[4] + 1e-9
            assert out[0] > 0 and out[1] > 0
            assert_symmetric_psd(_axis_state(out).cov)


class TestOrientationMoments:
    def test_zero_angle_variance_zeroes_terms(self, default_config):
        # without angle uncertainty C_s is the noise plus c S S^T alone
        expected_b, _, _ = moments_b([3, 1], 0.4, 0.0, np.eye(2),
                                     default_config)
        s_mat = rot(0.4) @ np.diag([3.0, 1.0])
        cov_s = np.eye(2) + 0.25 * s_mat @ s_mat.T
        np.testing.assert_allclose(expected_b,
                                   [cov_s[0, 0], cov_s[1, 1], cov_s[0, 1]],
                                   atol=1e-14)

    def test_axis_aligned_noise_free_case(self, default_config):
        # S = diag(2, 1), so C_s = c diag(l1^2, l2^2) = diag(1, 0.25)
        expected_b, cov_bb, _ = moments_b([2, 1], 0.0, 0.0, np.zeros((2, 2)),
                                          default_config)
        np.testing.assert_allclose(expected_b, [1.0, 0.25, 0.0])
        np.testing.assert_allclose(cov_bb, np.diag([2.0, 0.125, 0.25]),
                                   atol=1e-14)

    def test_monte_carlo_expected_b(self, default_config):
        # With zero angle uncertainty the moment formula is exact; the
        # empirical mean of b over draws from the source model must match.
        theta, axes = 0.7, np.array([4.0, 1.5])
        w_cov = np.array([[1.2, 0.3], [0.3, 0.8]])
        expected_b, _, _ = moments_b(axes, theta, 0.0, w_cov, default_config)
        rng = np.random.default_rng(5)
        n = 1_000_000
        h = rng.normal(size=(n, 2)) * np.sqrt(default_config.c)
        w = rng.multivariate_normal(np.zeros(2), w_cov, size=n)
        s = (rot(theta) @ np.diag(axes) @ h.T).T + w
        b = np.column_stack((s ** 2, s[:, 0] * s[:, 1]))
        se = b.std(axis=0) / np.sqrt(n)
        np.testing.assert_array_less(np.abs(b.mean(axis=0) - expected_b),
                                     4.0 * se)

    def test_sensitivity_vector_at_zero_angle(self, default_config):
        _, _, m_vec = moments_b([3, 1], 0.0, 0.2, np.eye(2), default_config)
        np.testing.assert_allclose(m_vec, [0.0, 0.0, 0.25 * (9 - 1)],
                                   atol=1e-14)

    def test_cov_bb_symmetric(self, default_config):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            root = rng.normal(size=(2, 2))
            _, cov_bb, _ = moments_b(rng.uniform(0.5, 6, size=2),
                                     rng.uniform(-np.pi, np.pi),
                                     rng.uniform(0, 0.8), root @ root.T,
                                     default_config)
            assert np.abs(cov_bb - cov_bb.T).max() < 1e-10


class TestUpdateOrientation:
    def _moments(self, orient, cfg):
        return orientation_moments(_shape_entries(orient[0], 4.0, 2.0),
                                   orient[1], (1.0, 0.0, 0.0, 1.0), cfg.c)

    def test_zero_innovation_keeps_mean(self, default_config):
        orient = (0.3, 0.2)
        mom = self._moments(orient, default_config)
        mean, var = update_orientation(orient, mom[0], mom)
        assert mean == pytest.approx(0.3, abs=1e-12)
        assert var < orient[1]

    def test_zero_variance_is_fixed_point(self, default_config):
        orient = (0.3, 0.0)
        out = update_orientation(orient, (20.0, 3.0, 5.0),
                                 self._moments(orient, default_config))
        assert out == orient

    @pytest.mark.parametrize("var", [math.nan, -0.0])
    def test_the_variance_floor_returns_what_max_returns(self, default_config,
                                                         var):
        # the floor is max(var_post, 0.0): NaN stays NaN and -0.0 (from a
        # prior variance of -0.0) stays -0.0, where x if x > 0.0 else 0.0
        # would return +0.0
        mom = self._moments((0.3, 0.2), default_config)
        _, out = update_orientation((0.3, var), (20.0, 3.0, 5.0), mom)
        assert repr(out) == repr(var)

    def test_variance_shrinks_and_stays_nonnegative(self, default_config):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            theta, var = rng.uniform(-np.pi, np.pi), rng.uniform(0, 0.8)
            root = rng.normal(size=(2, 2))
            mom = orientation_moments(
                _shape_entries(theta, *rng.uniform(0.5, 6, size=2)), var,
                (root @ root.T).ravel().tolist(), default_config.c)
            out_mean, out_var = update_orientation(
                (theta, var), rng.normal(size=3) * 4, mom)
            assert 0.0 <= out_var <= var + 1e-15
            assert -np.pi < out_mean <= np.pi


def _random_measurements(rng, truth_theta=0.3, count=None):
    return sample_measurements([1.0, -0.5], truth_theta, [5, 2], 8.0, np.eye(2),
                               SourceDistribution.UNIFORM_ELLIPSE, rng,
                               count=count)


class TestStepSequential:
    def test_empty_set_returns_prediction(self, default_config):
        est, motion = make_estimate(), make_motion()
        out = step_sequential(est, MeasurementSet(np.empty((0, 2))), motion,
                              default_config)
        pred = predict(est, motion)
        np.testing.assert_array_equal(out.kin.mean, pred.kin.mean)
        np.testing.assert_array_equal(out.kin.cov, pred.kin.cov)
        np.testing.assert_array_equal(out.axis.mean, pred.axis.mean)
        assert out.orient == pred.orient

    def test_update_order_is_irrelevant(self, default_config):
        # every permutation of the three interleaved component updates
        # must produce the identical posterior
        est, motion = make_estimate(), make_motion()
        z = _random_measurements(np.random.default_rng(4), count=9)
        reference = step_sequential(est, z, motion, default_config)
        for order in itertools.permutations(("kinematics", "axis", "orientation")):
            out = step_sequential(est, z, motion, default_config, order=order)
            assert np.array_equal(out.kin.mean, reference.kin.mean)
            assert np.array_equal(out.kin.cov, reference.kin.cov)
            assert np.array_equal(out.axis.mean, reference.axis.mean)
            assert np.array_equal(out.axis.cov, reference.axis.cov)
            assert out.orient == reference.orient

    def test_rejects_unknown_component(self, default_config):
        est, motion = make_estimate(), make_motion()
        z = _random_measurements(np.random.default_rng(5), count=2)
        with pytest.raises(ValueError):
            step_sequential(est, z, motion, default_config, order=("kin",))

    @pytest.mark.parametrize("order", [
        ("axis", "orientation"),
        ("axis", "kinematics", "axis", "orientation"),
    ], ids=["omitted", "repeated"])
    def test_rejects_an_order_that_omits_or_repeats(self, default_config,
                                                    order):
        # an omitted update would silently never run
        est, motion = make_estimate(), make_motion()
        z = _random_measurements(np.random.default_rng(5), count=2)
        with pytest.raises(ValueError, match="permutation"):
            step_sequential(est, z, motion, default_config, order=order)

    @pytest.mark.parametrize("order", [
        None, ("kinematics", 1, "axis"), 3, ("kinematics", None, "axis"),
        "kinematics", (("kinematics",), "axis", "orientation"),
    ], ids=["none", "mixed", "number", "none-item", "string", "nested"])
    def test_rejects_an_order_that_is_not_a_permutation_of_names(
            self, default_config, order):
        # sorting these raises TypeError; the step raises ValueError
        est, motion = make_estimate(), make_motion()
        z = _random_measurements(np.random.default_rng(5), count=2)
        with pytest.raises(ValueError, match="permutation"):
            step_sequential(est, z, motion, default_config, order=order)

    def test_covariances_stay_symmetric_psd(self, default_config):
        rng = np.random.default_rng(6)
        est, motion = make_estimate(), make_motion()
        for _ in range(30):
            est = step_sequential(est, _random_measurements(rng), motion,
                                  default_config)
            assert_symmetric_psd(est.kin.cov)
            assert_symmetric_psd(est.axis.cov)
            assert est.orient.var >= 0.0
            assert np.all(est.axis.mean > 0.0)

    def test_orientation_variance_monotone_with_zero_process_noise(self,
                                                                   default_config):
        rng = np.random.default_rng(7)
        est = make_estimate(theta=0.5, theta_var=np.pi)
        motion = make_motion(q_pos=0.0, q_vel=0.0, q_theta=0.0, dt=1.0)
        variances = []
        for _ in range(200):
            z = sample_measurements([0.0, 0.0], 0.5, [5, 2], 12.0, np.eye(2),
                                    SourceDistribution.UNIFORM_ELLIPSE, rng)
            est = step_sequential(est, z, motion, default_config)
            variances.append(est.orient.var)
        assert all(b <= a + 1e-15 for a, b in zip(variances, variances[1:]))

    def test_psi_clamp_never_applied_in_sequential_variant(self):
        # the variance clamp belongs to the batch variant only; the same
        # config must leave this path unclamped
        from elliptrack import FilterConfig, step_batch
        cfg = FilterConfig(R=np.eye(2), c=0.25, psi=0.05)
        est = make_estimate(axis_cov=np.eye(2) * 4.0)
        motion = make_motion(q_pos=0.0, q_vel=0.0, q_theta=0.0)
        z = _random_measurements(np.random.default_rng(8), count=3)
        seq = step_sequential(est, z, motion, cfg)
        bat = step_batch(est, z, motion, cfg)
        seq_caps = (cfg.psi * seq.axis.mean) ** 2
        bat_caps = (cfg.psi * bat.axis.mean) ** 2
        assert np.diag(seq.axis.cov)[0] > seq_caps[0]
        assert np.all(np.diag(bat.axis.cov) <= bat_caps + 1e-12)

    @pytest.mark.parametrize("order", [
        ("kinematics", "axis", "orientation"),
        ("orientation", "kinematics", "axis")], ids=["default", "permuted"])
    def test_ill_conditioned_updates_are_skipped_and_counted(
            self, default_config, order):
        # a grotesquely elongated axis estimate drives every pseudo-
        # covariance past the condition guard; in any order the step
        # counts each tripped update once per point, and every component
        # comes back as the prediction
        est = make_estimate(velocity=(0.0, 0.0), axes=(1e9, 1e-3),
                            kin_cov=np.diag([1.0, 1.0, 0.0, 0.0]),
                            theta_var=0.0)
        motion = make_motion(q_pos=0.0, q_vel=0.0, q_theta=0.0)
        z = MeasurementSet([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        diag = StepDiagnostics()
        out = step_sequential(est, z, motion, default_config, order=order,
                              diagnostics=diag)
        assert diag.as_dict() == {"skipped_kinematics": 3, "skipped_axis": 3,
                                  "skipped_orientation": 3}
        assert out._floats == predict(est, motion)._floats

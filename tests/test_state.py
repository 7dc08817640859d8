import copy
import dataclasses
import math
import pickle
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from elliptrack import (AxisState, ConfigError, DecoupledEstimate,
                        FilterConfig, KinematicState, MeasurementSet, MotionModel,
                        OrientationState, batch_update_axis,
                        clamp_axis_variance, constant_velocity_transition,
                        predict, rot, step_batch, step_sequential,
                        wrap_angle)
from elliptrack.batch import batch_update_kinematics
from elliptrack.cli import main
from elliptrack.measurements import center_measurements
from elliptrack.simulation import builtin_scenarios, run_scenario
from elliptrack.errors import NonFiniteState
from elliptrack.state import (_axis_floats, _axis_state, _estimate, _psd_rows,
                              shape_matrix, symmetrize_psd)

from conftest import (_has_psd_pivots, assert_symmetric_psd, make_estimate,
                      make_motion, symmetrize_psd_oracle)


class TestRot:
    def test_zero_is_identity(self):
        assert np.array_equal(rot(0.0), np.eye(2))

    def test_quarter_turn(self):
        np.testing.assert_allclose(rot(np.pi / 2), [[0, -1], [1, 0]], atol=1e-15)

    def test_determinant_one(self):
        m = rot(0.3)
        assert abs(np.linalg.det(m) - 1.0) < 1e-14

    def test_inverse_is_negative_angle(self):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(-50, 50, size=1000):
            np.testing.assert_allclose(rot(theta) @ rot(-theta), np.eye(2),
                                       atol=1e-13)


class TestWrapAngle:
    def test_zero(self):
        assert wrap_angle(0.0) == 0.0

    def test_three_pi(self):
        assert wrap_angle(3 * np.pi) == pytest.approx(np.pi, abs=1e-12)

    def test_boundary_maps_to_positive_pi(self):
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)

    def test_differs_by_multiple_of_two_pi(self):
        rng = np.random.default_rng(1)
        for theta in rng.uniform(-40, 40, size=500):
            w = wrap_angle(theta)
            assert -np.pi < w <= np.pi
            k = (theta - w) / (2 * np.pi)
            assert abs(k - round(k)) < 1e-9


class TestShapeMatrix:
    def test_axis_aligned(self):
        np.testing.assert_allclose(shape_matrix(0.0, [2, 1]), np.diag([4, 1]))

    def test_quarter_turn_swaps_axes(self):
        np.testing.assert_allclose(shape_matrix(np.pi / 2, [2, 1]),
                                   np.diag([1, 4]), atol=1e-14)

    def test_diagonal_rotation(self):
        # R(pi/4) diag(4,1) R(pi/4)^T multiplied out by hand
        np.testing.assert_allclose(shape_matrix(np.pi / 4, [2, 1]),
                                   [[2.5, 1.5], [1.5, 2.5]], atol=1e-14)

    def test_pi_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            theta = rng.uniform(-np.pi, np.pi)
            axes = rng.uniform(0.5, 6.0, size=2)
            np.testing.assert_allclose(shape_matrix(theta + np.pi, axes),
                                       shape_matrix(theta, axes), atol=1e-12)

    def test_eigenvalues_are_squared_axes(self):
        eig = np.linalg.eigvalsh(shape_matrix(0.7, [3, 1.5]))
        np.testing.assert_allclose(sorted(eig), [1.5 ** 2, 3 ** 2], atol=1e-12)


def clamp(mean, cov, psi):
    """clamp_axis_variance on an axis state given by its arrays."""
    return _axis_state(clamp_axis_variance(_axis_floats(AxisState(mean, cov)),
                                           psi))


class TestClampAxisVariance:
    def test_clamps_only_exceeding_entry(self):
        out = clamp([5, 2], np.diag([1.0, 1.0]), 0.4)
        np.testing.assert_allclose(out.cov, np.diag([1.0, 0.64]))
        np.testing.assert_array_equal(out.mean, [5, 2])

    def test_zero_cov_unchanged(self):
        out = clamp([5, 2], np.zeros((2, 2)), 0.4)
        np.testing.assert_array_equal(out.cov, np.zeros((2, 2)))

    def test_clamps_both(self):
        out = clamp([4, 2], np.diag([4.0, 2.0]), 0.15)
        np.testing.assert_allclose(out.cov, np.diag([0.36, 0.09]))

    def test_preserves_correlation(self):
        cov = np.array([[4.0, 1.2], [1.2, 2.0]])
        rho = 1.2 / np.sqrt(4.0 * 2.0)
        out = clamp([4, 2], cov, 0.15)
        new_rho = out.cov[0, 1] / np.sqrt(out.cov[0, 0] * out.cov[1, 1])
        assert new_rho == pytest.approx(rho, abs=1e-12)
        assert_symmetric_psd(out.cov)

    def test_never_increases_diagonal(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            root = rng.normal(size=(2, 2))
            cov = root @ root.T
            mean = rng.uniform(0.5, 6.0, size=2)
            psi = rng.uniform(0.05, 1.0)
            out = clamp(mean, cov, psi)
            assert out.cov[0, 0] <= cov[0, 0] + 1e-15
            assert out.cov[1, 1] <= cov[1, 1] + 1e-15
            np.testing.assert_array_equal(out.mean, mean)


class TestSymmetrizePsd:
    def test_rejects_sizes_other_than_2x2_and_4x4(self):
        with pytest.raises(ValueError, match="2x2 or 4x4"):
            symmetrize_psd(np.eye(3))

    def test_asymmetric_input(self):
        # (M + M^T)/2 = [[1,1],[1,1]] with eigenvalues {2, 0}: no flooring
        np.testing.assert_allclose(symmetrize_psd(np.array([[1.0, 2.0], [0.0, 1.0]])),
                                   [[1, 1], [1, 1]], atol=1e-14)

    def test_floors_tiny_negative(self):
        out = symmetrize_psd(np.diag([1.0, -1e-9]))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-15)
        assert np.linalg.eigvalsh(out).min() >= 0.0

    def test_idempotent_and_psd(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            root = rng.normal(size=(4, 4))
            psd = root @ root.T
            once = symmetrize_psd(psd)
            np.testing.assert_allclose(once, psd, atol=1e-12)


class TestSymmetrizePsdFastPath:
    def test_block_singular_stationary_covariance_needs_no_repair(
            self, monkeypatch):
        cfg = builtin_scenarios()["stationary"]
        predicted = predict(cfg.prior, cfg.motion).kin.cov

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called on a PSD matrix")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        for cov in (cfg.prior.kin.cov, predicted):
            assert np.array_equal(symmetrize_psd(cov), 0.5 * (cov + cov.T))

    def test_zero_pivot_with_nonzero_column_is_repaired(self):
        # [[0, 1], [1, 0]] has a zero pivot but eigenvalues {-1, 1}
        out = symmetrize_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_lapack_oracle(self, n):
        rng = np.random.default_rng(40 + n)
        repaired = 0
        for trial in range(600):
            root = rng.normal(size=(n, n))
            kind = trial % 3
            if kind == 0:       # indefinite, asymmetric
                mat = root
            elif kind == 1:     # positive definite
                mat = root @ root.T
            else:               # singular PSD, rank n - 1, with rounding
                mat = root[:, 1:] @ root[:, 1:].T
            expected = symmetrize_psd_oracle(mat)
            out = symmetrize_psd(mat)
            scale = max(1.0, np.abs(mat).max())
            assert np.abs(out - expected).max() <= 1e-12 * scale
            if kind == 1:
                assert np.array_equal(out, expected)
            repaired += not np.array_equal(out, 0.5 * (mat + mat.T))
        assert repaired >= 200

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_raises_where_the_pivot_test_fails(self, value):
        # a non-finite entry reaching the eigenvalue floor raises
        # NonFiniteState: every NaN, every -inf and an off-diagonal +inf
        # fail the pivot test; a +inf variance passes it and the rows come
        # back as given
        upper = [2.5, 0.5, 0.5, 0.5, 2.5, 0.5, 0.5, 2.5, 0.5, 2.5]
        diagonal = (0, 4, 7, 9)
        for k in range(10):
            entries = list(upper)
            entries[k] = value
            if value == math.inf and k in diagonal:
                rows = np.array(_psd_rows(*entries))
                assert rows[np.triu_indices(4)].tolist() == entries
                assert np.array_equal(rows, rows.T)
            else:
                with pytest.raises(NonFiniteState, match="non-finite"):
                    _psd_rows(*entries)

    @pytest.mark.parametrize("larger_first", [True, False])
    def test_2x2_repair_is_final_without_eigh(self, monkeypatch,
                                              larger_first):
        # indefinite 2x2 inputs, from a barely negative eigenvalue (as a
        # subtractive covariance update leaves) to a dominant one, with
        # the larger diagonal entry first or second and off-diagonal
        # entries down to 1e-9 of the scale: the closed-form repair
        # matches the eigenvalue floor, passes the pivot test exactly,
        # and so a second repair (the next predict's) changes nothing
        rng = np.random.default_rng(50 + larger_first)
        cases = []
        for trial in range(3000):
            top = 10.0 ** rng.uniform(-4.0, 3.0)
            low = -top * 10.0 ** rng.uniform(-12.0, 1.0)
            angle = (rng.uniform(-np.pi, np.pi) if trial % 2
                     else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9, -1))
            mat = rot(angle) @ np.diag([top, low]) @ rot(angle).T
            if (mat[0, 0] >= mat[1, 1]) != larger_first:
                mat = mat[::-1, ::-1]
            cases.append((mat, symmetrize_psd_oracle(mat)))

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called on a 2x2 matrix")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        worst = 0.0
        for mat, expected in cases:
            once = symmetrize_psd(mat)
            assert _has_psd_pivots(once.tolist())
            assert np.array_equal(symmetrize_psd(once), once)
            worst = max(worst, np.abs(once - expected).max()
                        / max(1.0, np.abs(mat).max()))
        print(f"worst deviation from the eigenvalue floor: {worst:.2e}")
        assert worst <= 1e-12


class TestFilterConfig:
    def test_rejects_nonpositive_scaling(self):
        with pytest.raises(ConfigError, match="scaling factor"):
            FilterConfig(R=np.eye(2), c=0.0)
        assert issubclass(ConfigError, ValueError)

    def test_rejects_psi_out_of_range(self):
        with pytest.raises(ConfigError, match="psi must lie"):
            FilterConfig(R=np.eye(2), c=0.25, psi=1.5)

    def test_accepts_valid_psi(self):
        cfg = FilterConfig(R=np.eye(2), c=0.25, psi=0.4)
        assert cfg.psi == 0.4

    @pytest.mark.parametrize("noise", [
        [[1.0, 0.5], [0.0, 1.0]], [[1.0, 0.0], [0.5, 1.0]],
        [[1.0, 1e-11], [0.0, 1.0]],
        [[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.inf], [np.inf, 1.0]]])
    def test_rejects_asymmetric_or_non_finite_noise(self, noise):
        # FilterConfig(R=[[1, .5], [0, 1]]) used to be accepted, and the
        # batch step then gave one mean for R and another for R^T; a
        # non-finite R is rejected before any arithmetic can warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="R must be a symmetric"):
                FilterConfig(R=noise)

    def test_rejects_indefinite_noise(self):
        # diag(1, -5) used to be accepted: on moderate run 0 the batch
        # filter then ran all 80 steps and ended at l2 = 17.9 m (truth 0.52)
        with pytest.raises(ConfigError, match="R must be a symmetric"):
            FilterConfig(R=np.diag([1.0, -5.0]))

    def test_accepts_noise_symmetric_up_to_rounding(self):
        # |R12 - R21| = 2e-12 against 1e-12 of the largest entry of R + R^T (4)
        noise = [[2.0, 0.5], [0.5 + 2e-12, 1.0]]
        assert FilterConfig(R=noise).R.tolist() == noise


class TestMotionModel:
    @pytest.mark.parametrize("change, message", [
        ({"Q_kin": np.diag([1.0, 1.0, 2.0, -1.0])}, "Q_kin must be a symmetric"),
        ({"Q_axis": np.array([[1.0, 2.0], [2.0, 1.0]])},
         "Q_axis must be a symmetric"),
        ({"F_kin": np.diag([1.0, 1.0, np.inf, 1.0])}, "F_kin must be finite"),
        ({"Q_theta": -0.5}, "Q_theta is a variance"),
        ({"Q_theta": np.nan}, "Q_theta must be finite"),
    ])
    def test_rejects_bad_numbers(self, change, message):
        # each used to be accepted; only a scenario checked its motion
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(make_motion(), **change)


def _arrays(est):
    return est.kin.mean, est.kin.cov, est.axis.mean, est.axis.cov


def assert_built_as_validated(est):
    """``est`` equals its rebuild through the validating constructors."""
    ref = DecoupledEstimate(
        KinematicState(est.kin.mean.tolist(), est.kin.cov.tolist()),
        AxisState(est.axis.mean.tolist(), est.axis.cov.tolist()),
        OrientationState(est.orient.mean, est.orient.var))
    for out, expected, shape in zip(_arrays(est), _arrays(ref),
                                    ((4,), (4, 4), (2,), (2, 2))):
        assert out.dtype == expected.dtype == np.float64
        assert out.shape == expected.shape == shape
        assert np.array_equal(out, expected)
    assert type(est.orient.mean) is float and type(est.orient.var) is float
    assert est.orient == ref.orient


class TestResultBuild:
    KIN = ([1.0, -2.0, 0.5, 3.0], (np.diag([2.0, 2.0, 0.5, 0.5]) + 0.1).tolist())
    AXIS = (4.0, 1.5, 0.3, -0.05, 0.2)
    ORIENT = (0.7, 0.02)

    def test_builder_matches_the_public_constructors(self):
        mean, cov = [*self.KIN[0]], [row[:] for row in self.KIN[1]]
        est = _estimate((mean, cov), self.AXIS, self.ORIENT)
        ref = DecoupledEstimate(KinematicState(*self.KIN),
                                AxisState((4.0, 1.5), ((0.3, -0.05), (-0.05, 0.2))),
                                OrientationState(*self.ORIENT))
        assert_built_as_validated(est)
        for out, expected in zip(_arrays(est), _arrays(ref)):
            assert np.array_equal(out, expected)
        assert est.orient == ref.orient
        # the arrays are new: changing the step's lists leaves them as built
        mean[0], cov[0][0] = 99.0, 99.0
        assert np.array_equal(est.kin.mean, ref.kin.mean)
        assert np.array_equal(est.kin.cov, ref.kin.cov)
        with pytest.raises(FrozenInstanceError):
            est.kin.mean = np.zeros(4)
        with pytest.raises(FrozenInstanceError):
            est.orient.var = 0.0

    @pytest.mark.parametrize("step", [step_sequential, step_batch])
    @pytest.mark.parametrize("count", [0, 1, 6])
    def test_step_result_is_validated_form_sharing_no_memory(self, step,
                                                             count):
        rng = np.random.default_rng(count)
        est = make_estimate(theta=0.3)
        scan = MeasurementSet(rng.normal(size=(count, 2)) * 3.0 + [3.0, 0.0])
        out = step(est, scan, make_motion(),
                   FilterConfig(R=np.eye(2), c=0.25, psi=0.4))
        assert_built_as_validated(out)
        for array in _arrays(out):
            for other in (*_arrays(est), scan.points):
                assert not np.shares_memory(array, other)

    def test_component_updates_build_validated_forms(self):
        est, cfg = make_estimate(theta=0.3), FilterConfig(R=np.eye(2), c=0.25)
        points = np.array([[1.0, 0.5], [-2.0, 1.0], [0.5, -0.5]])
        assert_built_as_validated(predict(est, make_motion()))
        shape = shape_matrix(0.3, est.axis.mean)
        for kin in (batch_update_kinematics(est.kin, MeasurementSet(points[:1]),
                                            shape, cfg),
                    batch_update_kinematics(est.kin, MeasurementSet(points),
                                            shape, cfg)):
            assert_built_as_validated(DecoupledEstimate(kin, est.axis,
                                                        est.orient))
            assert not np.shares_memory(kin.cov, est.kin.cov)
        centered = center_measurements(MeasurementSet(points), est.kin, cfg.R)
        axis = batch_update_axis(est.axis, centered, est.orient, cfg)
        assert_built_as_validated(DecoupledEstimate(est.kin, axis, est.orient))

    @pytest.mark.parametrize("build", [
        lambda: KinematicState([1.0, 2.0, 3.0], np.eye(4)),
        lambda: KinematicState(np.zeros(4), np.eye(3)),
        lambda: AxisState([1.0], np.eye(2)),
        lambda: AxisState([1.0, 2.0], np.eye(3)),
        lambda: OrientationState([0.1, 0.2], 0.1),
    ])
    def test_public_constructors_still_validate(self, build):
        with pytest.raises((ValueError, TypeError)):
            build()

    def test_public_constructors_still_convert(self):
        kin = KinematicState([1, 2, 3, 4], np.eye(4, dtype=int))
        assert kin.mean.dtype == kin.cov.dtype == np.float64
        orient = OrientationState(np.float32(0.5), 1)
        assert type(orient.mean) is float and type(orient.var) is float


def _frozen_pairs(obj):
    """(array, the floats the steps read in its place) of every array of an
    estimate, motion, filter or scenario config."""
    if isinstance(obj, DecoupledEstimate):
        kin, axis, _ = obj._floats
        assert obj.orient == OrientationState(*obj._floats[2])
        return [(obj.kin.mean, kin[0]), (obj.kin.cov, kin[1]),
                (obj.kin.mean, obj.kin._floats[0]),
                (obj.kin.cov, obj.kin._floats[1]),
                (obj.axis.mean, axis[0]), (obj.axis.cov, axis[1]),
                (obj.axis.mean, obj.axis._floats[0]),
                (obj.axis.cov, obj.axis._floats[1])]
    if isinstance(obj, MotionModel):
        assert obj._floats[3] == obj.Q_theta
        return list(zip((obj.F_kin, obj.Q_kin, obj.Q_axis), obj._floats))
    if isinstance(obj, FilterConfig):
        return [(obj.R, np.reshape(obj._noise, (2, 2)))]
    return [*_frozen_pairs(obj.prior), *_frozen_pairs(obj.motion),
            *_frozen_pairs(obj.filter_config())]


def assert_frozen(obj):
    for array, floats in _frozen_pairs(obj):
        assert not array.flags.writeable
        assert np.array_equal(array, floats)


class TestReadOnlyCopies:
    """Arrays are read-only copies, so the floats the steps read in their
    place can never go stale, through any copy of the object."""

    @staticmethod
    def objects():
        # an axis covariance asymmetric within the config tolerance
        skew = np.array([[0.0, 1e-13], [-1e-13, 0.0]])
        public = make_estimate(axis_cov=np.eye(2) + skew)
        stepped = step_batch(public, MeasurementSet([[1.0, 0.5], [-2.0, 1.0],
                                                     [0.5, -0.5]]),
                             make_motion(), FilterConfig(R=np.eye(2)))
        # a scenario carries a prior and a motion to mc --jobs workers
        return [public, stepped, make_motion(q_axis=0.1),
                FilterConfig(R=[[2.0, 0.5], [0.5, 1.0]], psi=0.4),
                builtin_scenarios(runs=2)["moderate"]]

    def test_public_arrays_are_read_only_copies_of_the_input(self):
        mean, cov = np.zeros(4), np.eye(4)
        transition, noise = constant_velocity_transition(1.0), np.eye(2)
        kin = KinematicState(mean, cov)
        motion = MotionModel(transition, cov, noise, 0.1)
        cfg = FilterConfig(R=noise)
        for array in (mean, cov, transition, noise):
            assert array.flags.writeable
        for mine, theirs in ((kin.mean, mean), (kin.cov, cov),
                             (motion.F_kin, transition), (motion.Q_kin, cov),
                             (motion.Q_axis, noise), (cfg.R, noise)):
            assert not np.shares_memory(mine, theirs)
            with pytest.raises(ValueError):
                mine[0] = 7.0
        transition[0, 2] = 5.0  # the caller's array is theirs to change
        assert motion.F_kin[0, 2] == motion._floats[0][0][2] == 1.0
        assert_frozen(motion)

    @pytest.mark.parametrize("step", [step_sequential, step_batch])
    def test_step_result_holds_floats_and_builds_read_only_arrays(self, step):
        est = step(make_estimate(), MeasurementSet([[1.0, 0.5], [-2.0, 1.0]]),
                   make_motion(), FilterConfig(R=np.eye(2)))
        assert set(vars(est)) == {"_floats"}
        with pytest.raises(ValueError):
            est.kin.cov[0, 0] = 1.0
        assert set(vars(est)) == {"_floats", "kin"}
        assert set(vars(est.kin)) == {"_floats", "mean", "cov"}
        for array in (est.kin.mean, est.axis.mean, est.axis.cov):
            with pytest.raises(ValueError):
                array[0] = 1.0
        assert_frozen(est)

    @pytest.mark.parametrize("filter_kind", ["sequential", "batch"])
    def test_campaign_and_track_build_no_component_of_a_step_result(
            self, monkeypatch, tmp_path, filter_kind):
        # Building a component costs each read; both paths time the steps
        # and read a step result's floats alone.
        sim, out = tmp_path / "sim.jsonl", tmp_path / "est.jsonl"
        assert main(["simulate", "--scenario", "stationary", "--seed", "5",
                     "--out", str(sim)]) == 0
        built, lazy = [], DecoupledEstimate.__getattr__
        monkeypatch.setattr(DecoupledEstimate, "__getattr__",
                            lambda est, name: built.append(name)
                            or lazy(est, name))
        run_scenario(builtin_scenarios(runs=2, seed=5)["moderate"],
                     filter_kind)
        assert main(["track", str(sim), "--scenario", "stationary",
                     "--filter", filter_kind, "--out", str(out)]) == 0
        assert built == []

    @pytest.mark.parametrize("round_trip", [
        lambda obj: pickle.loads(pickle.dumps(obj)),
        copy.deepcopy,
        copy.copy,
        dataclasses.replace,
    ], ids=["pickle", "deepcopy", "copy", "replace"])
    def test_round_trips_keep_arrays_read_only_and_floats_matching(
            self, round_trip):
        for obj in self.objects():
            twin = round_trip(obj)
            assert type(twin) is type(obj)
            assert_frozen(twin)
            for (mine, _), (theirs, _) in zip(_frozen_pairs(twin),
                                              _frozen_pairs(obj)):
                assert mine.tobytes() == theirs.tobytes()


def _equal_pairs():
    """(name, a, an equal twin built apart, an unequal one) per type that
    holds arrays."""
    est, other = make_estimate(), make_estimate(theta=0.2)
    stepped = step_batch(est, MeasurementSet([[1.0, 0.5], [-2.0, 1.0]]),
                         make_motion(), FilterConfig(R=np.eye(2)))
    scenarios, twins = builtin_scenarios(runs=2), builtin_scenarios(runs=2)
    moderate = scenarios["moderate"]
    return [
        ("scan", MeasurementSet([[1.0, 2.0], [3.0, 4.0]]),
         MeasurementSet(np.array([1, 2, 3, 4])), MeasurementSet([[1.0, 2.0]])),
        ("empty scan", MeasurementSet([]), MeasurementSet(np.empty((0, 2))),
         MeasurementSet([[0.0, 0.0]])),
        ("kin", est.kin, KinematicState([0, 0, 3, 0], np.diag([2, 2, .5, .5])),
         KinematicState(np.zeros(4), np.eye(4))),
        ("axis", est.axis, AxisState([5.0, 2.0], np.eye(2)),
         AxisState([5.0, 2.0], 2 * np.eye(2))),
        ("estimate", est, make_estimate(), other),
        ("step result", stepped,
         DecoupledEstimate(stepped.kin, stepped.axis, stepped.orient), est),
        ("motion", make_motion(), make_motion(), make_motion(q_axis=0.1)),
        ("filter", FilterConfig(R=np.eye(2), psi=0.4),
         FilterConfig(R=[[1, 0], [0, 1]], c=0.25, psi=0.4),
         FilterConfig(R=np.eye(2))),
        ("trajectory", moderate.trajectory, twins["moderate"].trajectory,
         scenarios["stationary"].trajectory),
        ("scenario", moderate, twins["moderate"],
         dataclasses.replace(moderate, R=2 * moderate.R)),
    ]


class TestEquality:
    """``==`` compares floats, never arrays: a bool, not a ValueError."""

    @pytest.mark.parametrize("name, obj, twin, other", _equal_pairs(),
                             ids=[case[0] for case in _equal_pairs()])
    def test_equal_unequal_and_unhashable(self, name, obj, twin, other):
        assert type(twin) is type(obj) is type(other)
        assert (obj == twin) is True and (twin == obj) is True
        assert (obj != twin) is False
        assert (obj == other) is False and (other == obj) is False
        assert (obj != other) is True
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)

    def test_other_types_compare_unequal(self):
        cases = _equal_pairs()
        objects = [obj for _, obj, _, _ in cases]
        for i, obj in enumerate(objects):
            for other in (*objects[:i], *objects[i + 1:], None, 1.0,
                          obj.__dict__):
                if type(other) is type(obj):
                    continue
                assert (obj == other) is False and (other == obj) is False
                assert (obj != other) is True
        # the same floats in another component type are not equal
        axis = AxisState([1.0, 2.0], np.eye(2))
        assert (MeasurementSet([[1.0, 2.0]]) == axis) is False

    def test_scan_columns_compare_as_floats(self):
        # NaN is unequal to itself; -0.0 equals 0.0
        assert MeasurementSet([[0.0, 1.0]]) == MeasurementSet([[-0.0, 1.0]])
        assert MeasurementSet([[np.nan, 1.0]]) != MeasurementSet([[np.nan, 1.0]])

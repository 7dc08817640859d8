import copy
import dataclasses
import enum
import pickle
import struct

import numpy as np
import pytest

from elliptrack import (EmptyMeasurementSet, FilterConfig, KinematicState,
                        MeasurementSet, SourceDistribution, build_pseudo, rot,
                        sample_measurements, step_batch, step_sequential)
from elliptrack.cli import main
from elliptrack.measurements import (CenteredMeasurements, _centering,
                                     _noise_factor, aligned_squares,
                                     center_measurements, sample_scans)
from elliptrack.simulation import builtin_scenarios, run_scenario

from conftest import QUAD_SELECT, make_estimate, make_motion


def bits(cols):
    """The IEEE bit patterns of a scan's columns, and their types: bit
    equality tells -0.0 from 0.0 and keeps NaN equal to itself."""
    return [[(type(x), struct.pack("<d", x)) for x in col] for col in cols]


RAW = np.array([[1.5, -0.0], [np.nan, 2.0], [1e-310, -3.25]])
POINT_INPUTS = {
    "list": RAW.tolist(),
    "array": RAW,
    "flat": RAW.ravel(),
    "fortran": np.asfortranarray(RAW),
    "ints": np.array([[1, 2], [3, 4]]),
    "empty": np.empty((0, 2)),
    "empty-list": [],
}


class TestMeasurementSetColumns:
    """A scan is stored as its two float columns; its array is lazy."""

    @pytest.mark.parametrize("points", POINT_INPUTS.values(),
                             ids=POINT_INPUTS.keys())
    def test_columns_are_the_transposed_float_rows(self, points):
        scan = MeasurementSet(points)
        expected = np.asarray(points, float).reshape(-1, 2).T.tolist()
        assert bits(scan._cols) == bits(expected)
        assert len(scan) == len(expected[0])
        assert "points" not in vars(scan)

    @pytest.mark.parametrize("points", POINT_INPUTS.values(),
                             ids=POINT_INPUTS.keys())
    def test_points_is_a_read_only_copy_built_on_first_read(self, points):
        writeable = np.array(points, dtype=float)
        scan = MeasurementSet(writeable)
        array = scan.points
        assert scan.points is array and vars(scan)["points"] is array
        assert array.dtype == np.float64 and array.shape == (len(scan), 2)
        assert array.tobytes() == writeable.reshape(-1, 2).tobytes()
        assert not array.flags.writeable
        assert not np.shares_memory(array, writeable)
        assert writeable.flags.writeable
        if len(scan):
            with pytest.raises(ValueError):
                array[0, 0] = 7.0
            writeable.reshape(-1)[0] = 99.0  # the caller's array is theirs
            assert scan.points.ravel()[0] != 99.0 != scan._cols[0][0]

    @pytest.mark.parametrize("round_trip", [
        lambda obj: pickle.loads(pickle.dumps(obj)), copy.copy, copy.deepcopy,
        dataclasses.replace,
    ], ids=["pickle", "copy", "deepcopy", "replace"])
    @pytest.mark.parametrize("lazy", [False, True], ids=["unread", "read"])
    def test_round_trips_go_through_the_constructor(self, round_trip, lazy):
        scan = MeasurementSet(RAW)
        if lazy:
            scan.points
        twin = round_trip(scan)
        assert type(twin) is MeasurementSet
        assert bits(twin._cols) == bits(scan._cols)
        assert not twin.points.flags.writeable
        assert twin.points.tobytes() == RAW.tobytes()

    @pytest.mark.parametrize("count", [None, 0, 1, 3])
    def test_sampled_scans_equal_constructor_scans_of_their_block(self, count):
        rng = np.random.default_rng(16)
        steps = 40
        scans = sample_scans(rng.normal(size=(steps, 2)), rng.normal(size=steps),
                             [4, 2], 2.0, np.eye(2),
                             SourceDistribution.UNIFORM_RECTANGLE, rng,
                             count=count)
        assert len(scans) == steps
        counts = [len(scan) for scan in scans]
        points = np.concatenate([scan.points for scan in scans])
        blocks = np.split(points, np.cumsum(counts)[:-1])
        for scan, block in zip(scans, blocks):
            assert type(scan) is MeasurementSet
            assert bits(scan._cols) == bits(MeasurementSet(block)._cols)
            assert scan == MeasurementSet(block)

    @pytest.mark.parametrize("count", [0, 1, 2, 7])
    @pytest.mark.parametrize("step", [step_sequential, step_batch])
    def test_steps_read_the_columns_alone(self, step, count):
        rng = np.random.default_rng(count)
        scan = sample_scans([[3.0, 0.0]], [0.2], [5, 2], 1.0, np.eye(2),
                            SourceDistribution.UNIFORM_ELLIPSE, rng,
                            count=count)[0]
        built = MeasurementSet(np.array(scan._cols).T.reshape(-1, 2))
        for z in (scan, built):
            step(make_estimate(), z, make_motion(), FilterConfig(R=np.eye(2)))
            assert "points" not in vars(z)

    def test_commands_and_campaigns_never_build_a_scan_array(self, monkeypatch,
                                                              tmp_path):
        reads, lazy = [], MeasurementSet.__getattr__
        monkeypatch.setattr(MeasurementSet, "__getattr__",
                            lambda scan, name: reads.append(name)
                            or lazy(scan, name))
        sim, out = tmp_path / "sim.jsonl", tmp_path / "est.jsonl"
        for name in ("moderate", "stationary"):
            assert main(["simulate", "--scenario", name, "--seed", "5",
                         "--out", str(sim)]) == 0
            for kind in ("sequential", "batch"):
                assert main(["track", str(sim), "--scenario", name,
                             "--filter", kind, "--out", str(out)]) == 0
                run_scenario(builtin_scenarios(runs=2, seed=5)[name], kind)
        assert reads == []


class TestSampleMeasurements:
    def test_noise_free_rectangle_containment(self):
        rng = np.random.default_rng(0)
        z = sample_measurements([0, 0], 0.0, [3, 1], 200, np.zeros((2, 2)),
                                SourceDistribution.UNIFORM_RECTANGLE, rng,
                                count=500)
        assert np.all(np.abs(z.points[:, 0]) <= 3.0)
        assert np.all(np.abs(z.points[:, 1]) <= 1.0)

    def test_noise_free_ellipse_containment(self):
        rng = np.random.default_rng(1)
        z = sample_measurements([1, -2], 0.6, [4, 2], 200, np.zeros((2, 2)),
                                SourceDistribution.UNIFORM_ELLIPSE, rng,
                                count=500)
        local = (z.points - [1, -2]) @ rot(0.6)
        assert np.all((local[:, 0] / 4) ** 2 + (local[:, 1] / 2) ** 2 <= 1 + 1e-12)

    def test_ellipse_moment_match(self):
        # The per-coordinate variance of uniform sources on an axis-aligned
        # ellipse is 0.25 * l_j^2, the moment match behind the scaling factor.
        rng = np.random.default_rng(2)
        z = sample_measurements([0, 0], 0.0, [2, 1], 1.0, np.zeros((2, 2)),
                                SourceDistribution.UNIFORM_ELLIPSE, rng,
                                count=1_000_000)
        var = z.points.var(axis=0)
        np.testing.assert_allclose(var, [0.25 * 4, 0.25 * 1], rtol=0.01)

    def test_rectangle_moment_match(self):
        rng = np.random.default_rng(3)
        z = sample_measurements([0, 0], 0.0, [2, 1], 1.0, np.zeros((2, 2)),
                                SourceDistribution.UNIFORM_RECTANGLE, rng,
                                count=1_000_000)
        np.testing.assert_allclose(z.points.var(axis=0), [4 / 3, 1 / 3], rtol=0.02)

    def test_poisson_rate(self):
        rng = np.random.default_rng(4)
        counts = [len(sample_measurements([0, 0], 0.0, [5, 2], 12.0, np.eye(2),
                                          SourceDistribution.UNIFORM_ELLIPSE, rng))
                  for _ in range(10_000)]
        assert np.mean(counts) == pytest.approx(12.0, abs=0.4)

    def test_zero_count_is_valid(self):
        rng = np.random.default_rng(5)
        z = sample_measurements([0, 0], 0.0, [5, 2], 12.0, np.eye(2),
                                SourceDistribution.UNIFORM_ELLIPSE, rng, count=0)
        assert len(z) == 0

    def test_deterministic_given_seed(self):
        draw = lambda: sample_measurements([0, 0], 0.3, [5, 2], 8.0, np.eye(2),
                                           SourceDistribution.UNIFORM_ELLIPSE,
                                           np.random.default_rng(99))
        np.testing.assert_array_equal(draw().points, draw().points)

    def test_scaling_factors(self):
        assert SourceDistribution.UNIFORM_ELLIPSE.scaling_factor == 0.25
        assert SourceDistribution.UNIFORM_RECTANGLE.scaling_factor == pytest.approx(1 / 3)

    @pytest.mark.parametrize("source", [
        "ellipse", "rectangle", None,
        enum.Enum("SourceDistribution", {"UNIFORM_ELLIPSE": "ellipse",
                                         "UNIFORM_RECTANGLE": "rectangle"}
                  ).UNIFORM_ELLIPSE], ids=["str", "str-rect", "none", "foreign"])
    def test_source_must_be_a_member(self, source):
        # Anything but the two members is rejected, not sampled as a
        # rectangle; nothing is drawn before the check.
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="SourceDistribution"):
            sample_measurements([0, 0], 0.0, [5, 2], 12.0, np.eye(2), source,
                                rng)
        assert rng.random() == np.random.default_rng(11).random()

    def test_single_step_is_the_block_sampler(self):
        rng = np.random.default_rng(12)
        twin = copy.deepcopy(rng)
        for source in SourceDistribution:
            one = sample_measurements([1, -2], 0.7, [4, 2], 12.0, np.eye(2),
                                      source, rng)
            block = sample_scans([[1, -2]], [0.7], [4, 2], 12.0, np.eye(2),
                                 source, twin)
            assert len(block) == 1
            np.testing.assert_array_equal(one.points, block[0].points)
        assert rng.random() == twin.random()


class TestSampleScans:
    def test_counts_split_by_step(self):
        rng = np.random.default_rng(13)
        scans = sample_scans(np.zeros((5000, 2)), np.zeros(5000), [5, 2], 12.0,
                             np.eye(2), SourceDistribution.UNIFORM_ELLIPSE, rng)
        assert len(scans) == 5000
        assert np.mean([len(z) for z in scans]) == pytest.approx(12.0, abs=0.2)
        fixed = sample_scans(np.zeros((7, 2)), np.zeros(7), [5, 2], 12.0,
                             np.eye(2), SourceDistribution.UNIFORM_ELLIPSE, rng,
                             count=3)
        assert [len(z) for z in fixed] == [3] * 7

    def test_noise_covariance_is_r_whatever_the_pose(self):
        # Zero axes leave only the noise around each step's center; it is
        # N(0, R) in the world frame, not turned by the step's orientation.
        rng = np.random.default_rng(14)
        r = builtin_scenarios()["moderate"].R
        steps = 2000
        centers = rng.normal(size=(steps, 2)) * 50.0
        thetas = rng.uniform(-np.pi, np.pi, size=steps)
        scans = sample_scans(centers, thetas, [0.0, 0.0], 1.0, r,
                             SourceDistribution.UNIFORM_ELLIPSE, rng, count=100)
        noise = np.concatenate([z.points - c for z, c in zip(scans, centers)])
        assert noise.shape == (steps * 100, 2)
        # 5 standard errors of a covariance entry at n = 200000
        np.testing.assert_allclose(np.cov(noise.T), r, atol=0.02)
        np.testing.assert_allclose(noise.mean(axis=0), 0.0, atol=0.02)

    @pytest.mark.parametrize("r, null", [([[1.0, 2.0], [2.0, 4.0]], [2.0, -1.0]),
                                         ([[4.0, -2.0], [-2.0, 1.0]], [1.0, 2.0]),
                                         ([[0.0, 0.0], [0.0, 3.0]], [1.0, 0.0])])
    def test_rank_one_noise_has_none_along_the_null_direction(self, r, null):
        scans = sample_scans(np.zeros((50, 2)), np.linspace(-3, 3, 50), [0, 0],
                             1.0, r, SourceDistribution.UNIFORM_RECTANGLE,
                             np.random.default_rng(15), count=40)
        noise = np.concatenate([z.points for z in scans])
        assert np.all(noise @ null == 0.0)
        assert np.all(np.isfinite(noise)) and np.abs(noise).max() > 1.0

    @pytest.mark.parametrize("r", [np.eye(2), [[1.5, -0.4], [-0.4, 0.7]],
                                   [[2.0, 0.3], [0.5, 1.0]], np.zeros((2, 2)),
                                   [[1e-30, 1e-7], [1e-7, 1.0]]])
    def test_noise_factor_reproduces_psd_r(self, r):
        r = np.asarray(r, dtype=float)
        factor = _noise_factor(r)
        assert factor[0, 1] == 0.0
        # an asymmetric R stands for its symmetric part; a near-zero
        # pivot cannot blow up the second row
        np.testing.assert_allclose(factor @ factor.T, 0.5 * (r + r.T),
                                   atol=2e-7)


class TestCenterMeasurements:
    def test_two_point_mean(self):
        z = MeasurementSet([[0, 0], [2, 2]])
        kin = KinematicState(np.zeros(4), np.eye(4))
        out = center_measurements(z, kin, np.eye(2))
        np.testing.assert_allclose(out.s, [[-1, -1], [1, 1]])
        np.testing.assert_array_equal(out.W, np.eye(2))

    def test_stream_branch_uses_predicted_center(self):
        kin = KinematicState([1, 0, 0, 0],
                             np.diag([1.0, 1.0, 0.0, 0.0]))
        out = center_measurements(MeasurementSet([[3, 0]]), kin, np.eye(2))
        np.testing.assert_allclose(out.s, [[2, 0]])
        np.testing.assert_allclose(out.W, 2 * np.eye(2))

    def test_centering_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            pts = rng.normal(size=(rng.integers(2, 20), 2)) * 5
            out = center_measurements(MeasurementSet(pts), None, np.eye(2))
            np.testing.assert_allclose(out.s.sum(axis=0), [0, 0], atol=1e-10)

    def test_scan_mean_is_correctly_rounded(self):
        # builtin sum() rounds [0.1] * 10 to 0.9999999999999999 before
        # Python 3.12 and to 1.0 from 3.12 on; the correctly rounded sum
        # makes the center exactly 0.1 on every version
        col = [0.1] * 10
        (c1, c2), w = _centering(col, [-x for x in col], None,
                                 [1.0, 0.0, 0.0, 1.0])
        assert (c1, c2) == (0.1, -0.1)
        assert w == [1.0, 0.0, 0.0, 1.0]

    def test_batch_branch_never_reads_prediction(self):
        # A poisoned prediction must not leak into the multi-measurement path.
        poisoned = KinematicState(np.full(4, np.nan), np.full((4, 4), np.nan))
        out = center_measurements(MeasurementSet([[0, 1], [4, 5], [2, 3]]),
                                  poisoned, np.eye(2))
        assert np.all(np.isfinite(out.s))
        assert np.all(np.isfinite(out.W))

    def test_empty_raises(self):
        with pytest.raises(EmptyMeasurementSet):
            center_measurements(MeasurementSet(np.empty((0, 2))),
                                KinematicState(np.zeros(4), np.eye(4)),
                                np.eye(2))


class TestBuildPseudo:
    def _centered(self, s):
        return CenteredMeasurements(np.atleast_2d(s), np.eye(2))

    def test_direct_squaring(self):
        out = build_pseudo(self._centered([3, -2]))
        np.testing.assert_array_equal(out, [[9, 4, -6]])

    def test_zero(self):
        out = build_pseudo(self._centered([0, 0]))
        np.testing.assert_array_equal(out, [[0, 0, 0]])

    def test_first_components_shared_exactly(self):
        # the first two components of b are the plain squares, bit for bit
        s = np.random.default_rng(7).normal(size=(100, 2))
        out = build_pseudo(self._centered(s))
        assert np.array_equal(out[:, :2], s ** 2)

    def test_matches_kronecker_form(self):
        # b must equal the selection matrix applied to s (x) s exactly.
        rng = np.random.default_rng(8)
        for s in rng.normal(size=(1000, 2)) * 3:
            b = build_pseudo(self._centered(s))[0]
            assert np.array_equal(b, QUAD_SELECT @ np.kron(s, s))


class TestAlignedSquares:
    def test_zero_angle_is_plain_square(self):
        s = np.array([[1.5, -2.0], [0.5, 3.0]])
        np.testing.assert_array_equal(aligned_squares(s, 0.0), s ** 2)

    def test_matches_manual_rotation(self):
        rng = np.random.default_rng(9)
        s = rng.normal(size=(20, 2))
        theta = 0.8
        manual = np.array([(rot(-theta) @ row) ** 2 for row in s])
        np.testing.assert_allclose(aligned_squares(s, theta), manual, atol=1e-14)

    def test_rotation_preserves_total_power(self):
        rng = np.random.default_rng(10)
        s = rng.normal(size=(50, 2))
        out = aligned_squares(s, 1.1)
        np.testing.assert_allclose(out.sum(axis=1), (s ** 2).sum(axis=1),
                                   atol=1e-12)

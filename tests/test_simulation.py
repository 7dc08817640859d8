import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from elliptrack import ConfigError, SourceDistribution, builtin_scenarios, \
    generate_truth, rot, run_scenario
from elliptrack.simulation import MAX_POINTS_PER_RUN, TrajectorySpec, \
    sample_run_data
from elliptrack.state import wrap_angle

from conftest import generate_truth_oracle


def straight_spec(steps=5, speed=1.0, **kwargs):
    return TrajectorySpec(segments=((steps, 0.0),), nominal_speed=speed,
                          start_position=np.zeros(2), start_heading=0.0,
                          true_axes=np.array([5.0, 2.0]), **kwargs)


def nominal_start(traj, **overrides):
    """The start state of :func:`generate_truth` at the trajectory's
    nominal pose, speed and semi-axes, with ``overrides`` replacing any."""
    heading = traj.start_heading
    velocity = traj.nominal_speed * np.array([np.cos(heading), np.sin(heading)])
    return {"start_position": traj.start_position, "start_velocity": velocity,
            "axes": traj.true_axes, "theta0": heading, **overrides}


class TestGenerateTruth:
    def test_straight_noise_free_integration(self):
        spec = straight_spec()
        states = generate_truth(spec, np.random.default_rng(0),
                                **nominal_start(spec))
        positions = np.array([s.center for s in states])
        np.testing.assert_allclose(positions,
                                   [[1, 0], [2, 0], [3, 0], [4, 0], [5, 0]],
                                   atol=1e-12)
        assert all(s.theta == 0.0 for s in states)

    def test_turn_rate_accumulates(self):
        spec = TrajectorySpec(segments=((5, np.pi / 10),), nominal_speed=1.0,
                              start_position=np.zeros(2), start_heading=0.0,
                              true_axes=np.array([5.0, 2.0]))
        states = generate_truth(spec, np.random.default_rng(0),
                                **nominal_start(spec))
        assert states[-1].theta == pytest.approx(np.pi / 2)

    def test_default_trajectory_has_three_turns(self):
        traj = builtin_scenarios()["moderate"].trajectory
        rates = []
        for count, rate in traj.segments:
            rates.extend([rate] * count)
        runs = 0
        previous = 0.0
        for rate in rates:
            if rate != 0.0 and previous == 0.0:
                runs += 1
            previous = rate
        assert runs == 3
        assert len(rates) == 80

    def test_axes_constant_over_run(self):
        spec = straight_spec(steps=30, position_jitter=1.0)
        states = generate_truth(spec, np.random.default_rng(1),
                                **nominal_start(spec, axes=[4.4, 1.1]))
        for s in states:
            np.testing.assert_array_equal(s.axes, [4.4, 1.1])

    def test_stationary_keeps_sampled_orientation(self):
        spec = straight_spec(steps=10, speed=0.0)
        states = generate_truth(spec, np.random.default_rng(2),
                                **nominal_start(spec, theta0=1.2345))
        assert all(s.theta == pytest.approx(1.2345) for s in states)
        np.testing.assert_allclose([s.center for s in states],
                                   np.zeros((10, 2)), atol=1e-12)

    @pytest.mark.parametrize("name", ["moderate", "stationary"])
    def test_four_trajectory_fields_change_no_run(self, name):
        # a run's start pose, velocity, orientation and semi-axes come from
        # the prior, and at zero speed the heading moves nothing, so
        # nominal_speed, start_position, start_heading and true_axes leave
        # every truth and scan as they are
        cfg = builtin_scenarios(runs=3, seed=7)[name]
        changed = dataclasses.replace(cfg, trajectory=dataclasses.replace(
            cfg.trajectory, nominal_speed=11.0, start_position=[40.0, -7.0],
            start_heading=1.1, true_axes=[9.0, 0.5]))
        for run in range(3):
            (truths, scans), (twins, twin_scans) = (
                sample_run_data(cfg, run), sample_run_data(changed, run))
            assert scans == twin_scans
            for truth, twin in zip(truths, twins, strict=True):
                for field in ("center", "velocity", "theta", "axes"):
                    assert np.array_equal(getattr(truth, field),
                                          getattr(twin, field))

    def test_jitter_is_fresh_not_integrated(self):
        # the truth stays near the nominal path instead of random-walking
        spec = straight_spec(steps=400, position_jitter=1.0)
        states = generate_truth(spec, np.random.default_rng(3),
                                **nominal_start(spec))
        offsets = np.array([s.center - [t + 1.0, 0.0]
                            for t, s in enumerate(states)])
        assert np.abs(offsets).max() < 6.0
        assert offsets.std() == pytest.approx(1.0, abs=0.15)

    @pytest.mark.parametrize("name", ["moderate", "stationary", "jittered"])
    def test_matches_the_step_by_step_reference(self, name):
        traj = builtin_scenarios()["moderate" if name == "jittered" else name
                                   ].trajectory
        if name == "jittered":
            traj = dataclasses.replace(traj, velocity_jitter=0.5,
                                       segments=((3, 0.2), (5, -1.0), (4, 3.0)))
        # Both forms draw the same normals and add the same terms. Where a
        # vectorized and a scalar cos, sin or arctan2 round apart (an ulp
        # each), the running sums carry it on: the heading, a sum of T
        # terms bounded by ``turn``, within 2 T eps turn; each nominal
        # velocity within speed (that + 2 eps); a position, T of those,
        # within T times that plus T eps of its largest partial sum.
        eps, steps = np.finfo(float).eps, traj.steps
        turn = math.pi + sum(count * abs(rate)
                             for count, rate in traj.segments)
        for seed in range(5):
            start = np.random.default_rng(100 + seed).normal(size=4) * 2.0
            if name == "stationary":
                start[2:] = 0.0
            kwargs = dict(start_position=start[:2], start_velocity=start[2:],
                          axes=[4.5, 1.5], theta0=2.0 * seed)
            got = generate_truth(traj, np.random.default_rng(seed), **kwargs)
            want = generate_truth_oracle(traj, np.random.default_rng(seed),
                                         **kwargs)
            speed = float(np.hypot(*start[2:]))
            d_velocity = speed * (2.0 * steps * eps * turn + 2.0 * eps)
            d_position = steps * (d_velocity + eps * (
                np.abs(start[:2]).max() + steps * speed))
            assert len(got) == len(want) == steps
            for state, (center, velocity, theta, axes) in zip(got, want):
                speed_t = float(np.hypot(*velocity))
                assert (np.abs(state.center - center).max()
                        <= d_position + eps * np.abs(center).max())
                assert (np.abs(state.velocity - velocity).max()
                        <= d_velocity + eps * speed_t)
                assert type(state.theta) is float
                if speed == 0.0:
                    assert state.theta == theta
                else:
                    # the angle moves by at most |dv| / |v|, |dv| within
                    # sqrt 2 of the per-entry bound, plus arctan2's ulp
                    assert (abs(wrap_angle(state.theta - theta))
                            <= 2.0 * (d_velocity + eps * speed_t) / speed_t
                            + eps * math.pi)
                np.testing.assert_array_equal(state.axes, axes)

    def test_rejects_empty_segments(self):
        with pytest.raises(ConfigError):
            TrajectorySpec(segments=(), nominal_speed=1.0,
                           start_position=np.zeros(2), start_heading=0.0,
                           true_axes=np.array([5.0, 2.0]))

    @pytest.mark.parametrize("change, message", [
        ({"nominal_speed": np.nan}, "nominal_speed must be finite"),
        ({"segments": ((3, 0.0), (2, np.inf))}, "segment turn rates"),
        ({"position_jitter": -1.0}, "position_jitter is a variance"),
        ({"velocity_jitter": np.inf}, "velocity_jitter must be finite"),
    ])
    def test_rejects_bad_numbers(self, change, message):
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(straight_spec(), **change)


class TestBuiltinScenarios:
    def test_moderate_noise_trace(self):
        r = builtin_scenarios()["moderate"].R
        assert np.trace(r) == pytest.approx(1.5 + 2.0 / 3.0)
        assert np.linalg.eigvalsh(r).min() > 0

    def test_noisy_noise_trace(self):
        assert np.trace(builtin_scenarios()["noisy"].R) == pytest.approx(4.0)

    def test_sparse_rate(self):
        scen = builtin_scenarios()["sparse"]
        assert scen.lam == 6.0
        np.testing.assert_allclose(scen.R, builtin_scenarios()["moderate"].R)

    def test_shared_priors(self):
        scens = builtin_scenarios()
        for name in ("moderate", "noisy", "sparse"):
            scen = scens[name]
            # the same objects, built and checked once
            assert scen.prior is scens["moderate"].prior
            assert scen.motion is scens["moderate"].motion
            assert scen.trajectory is scens["moderate"].trajectory
            np.testing.assert_array_equal(scen.prior.axis.mean, [5, 2])
            np.testing.assert_array_equal(scen.prior.axis.cov, np.eye(2))
            np.testing.assert_array_equal(np.diag(scen.prior.kin.cov),
                                          [2, 2, 0.5, 0.5])
            np.testing.assert_array_equal(np.diag(scen.motion.Q_kin),
                                          [1, 1, 2, 2])
            assert scen.motion.Q_theta == 0.1
            assert scen.lam in (6.0, 12.0)
            assert scen.psi == 0.4

    def test_stationary_setup(self):
        scen = builtin_scenarios()["stationary"]
        assert scen.fixed_count == 1
        np.testing.assert_array_equal(scen.R, np.eye(2))
        np.testing.assert_array_equal(scen.prior.axis.cov, np.diag([4, 2]))
        np.testing.assert_array_equal(scen.prior.axis.mean, [4, 2])
        assert scen.prior.orient.var == pytest.approx(np.pi)
        assert scen.prior.kin.cov[0, 0] == pytest.approx(0.1)
        assert scen.trajectory.steps == 200
        assert scen.trajectory.nominal_speed == 0.0

    def test_invalid_configs_rejected(self):
        import dataclasses
        scen = builtin_scenarios()["moderate"]
        with pytest.raises(ConfigError):
            dataclasses.replace(scen, runs=0)
        with pytest.raises(ConfigError):
            dataclasses.replace(scen, lam=0.0)
        for field, value in [("seed", -1), ("seed", 1.5), ("seed", "7"),
                             ("runs", 2.5), ("psi", 2.0), ("psi", 0.0),
                             # far above MAX_POINTS_PER_RUN over 80 steps,
                             # and above numpy's largest Poisson rate
                             ("lam", 1e19)]:
            with pytest.raises(ConfigError):
                dataclasses.replace(scen, **{field: value})

    @pytest.mark.parametrize("field, value, accepted", [
        ("lam", MAX_POINTS_PER_RUN / 80, True),
        ("fixed_count", MAX_POINTS_PER_RUN // 80, True),
        ("lam", MAX_POINTS_PER_RUN / 80 + 0.1, False),
        ("fixed_count", MAX_POINTS_PER_RUN // 80 + 1, False),
        # the sampler could not hold these: a traceback used to follow
        ("lam", 1e17, False),
        ("fixed_count", 10**18, False),
    ])
    def test_expected_points_per_run_are_capped(self, field, value, accepted):
        # built only, never sampled: at the cap a run holds about 1.2 GB
        scen = builtin_scenarios()["moderate"]
        assert scen.trajectory.steps == 80
        if accepted:
            assert getattr(dataclasses.replace(scen, **{field: value}),
                           field) == value
        else:
            with pytest.raises(ConfigError, match="points"):
                dataclasses.replace(scen, **{field: value})


class TestScenarioFilterConfig:
    def test_is_built_once(self):
        scen = builtin_scenarios(runs=1)["moderate"]
        assert scen.filter_config() is scen.filter_config()
        assert scen.filter_config().R is scen.R

    @pytest.mark.parametrize("round_trip", [
        lambda obj: pickle.loads(pickle.dumps(obj)),
        copy.deepcopy,
        dataclasses.replace,
    ], ids=["pickle", "deepcopy", "replace"])
    def test_copies_carry_an_equal_config(self, round_trip):
        scen = builtin_scenarios(runs=1)["moderate"]
        mine, theirs = scen.filter_config(), round_trip(scen).filter_config()
        assert theirs is not mine
        assert theirs.R.tobytes() == mine.R.tobytes()
        assert theirs._noise == mine._noise
        assert (theirs.c, theirs.psi) == (mine.c, mine.psi) == (0.25, 0.4)


class TestScenarioArraysAreReadOnly:
    """A scenario's R and trajectory arrays are read-only copies, so no
    write can bypass the checks made when the scenario was built."""

    @staticmethod
    def scenario_and_inputs():
        inputs = (np.array([[1.0, 0.2], [0.2, 1.0]]), np.array([1.0, -2.0]),
                  np.array([5.0, 2.0]))
        scen = builtin_scenarios(runs=2)["moderate"]
        traj = dataclasses.replace(scen.trajectory, start_position=inputs[1],
                                   true_axes=inputs[2])
        return dataclasses.replace(scen, R=inputs[0], trajectory=traj), inputs

    @staticmethod
    def arrays(scen):
        return scen.R, scen.trajectory.start_position, scen.trajectory.true_axes

    def test_in_place_write_raises_and_the_callers_array_stays_writeable(self):
        scen, inputs = self.scenario_and_inputs()
        for mine, theirs in zip(self.arrays(scen), inputs):
            assert theirs.flags.writeable
            assert not np.shares_memory(mine, theirs)
            with pytest.raises(ValueError):
                mine[0] = 7.0
        inputs[0][0, 1] = 7.0  # the caller's array is theirs to change
        assert scen.R[0, 1] == 0.2
        assert scen.filter_config().R[0, 1] == 0.2

    @pytest.mark.parametrize("round_trip", [
        lambda obj: pickle.loads(pickle.dumps(obj)),
        copy.deepcopy,
        copy.copy,
        dataclasses.replace,
    ], ids=["pickle", "deepcopy", "copy", "replace"])
    def test_round_trips_keep_the_arrays_read_only(self, round_trip):
        scen, _ = self.scenario_and_inputs()
        twin, traj = round_trip(scen), round_trip(scen.trajectory)
        assert type(twin) is type(scen) and type(traj) is type(scen.trajectory)
        for mine, theirs in zip(
                (*self.arrays(twin), traj.start_position, traj.true_axes),
                (*self.arrays(scen), *self.arrays(scen)[1:])):
            assert not mine.flags.writeable
            assert mine.tobytes() == theirs.tobytes()


class TestRunScenario:
    def _small(self, runs=2, name="moderate"):
        import dataclasses
        scen = builtin_scenarios(runs=runs, seed=99)[name]
        short = TrajectorySpec(segments=((12, 0.0), (4, np.pi / 8), (8, 0.0)),
                               nominal_speed=3.0, start_position=np.zeros(2),
                               start_heading=0.0, true_axes=np.array([5.0, 2.0]),
                               position_jitter=1.0)
        return dataclasses.replace(scen, trajectory=short)

    def test_deterministic_summaries(self):
        cfg = self._small()
        first, _ = run_scenario(cfg, "sequential")
        second, _ = run_scenario(cfg, "sequential")
        assert np.array_equal(first.per_step_mean_gwd_sq,
                              second.per_step_mean_gwd_sq)
        assert np.array_equal(first.per_step_mean_orient_err,
                              second.per_step_mean_orient_err)
        assert first.overall_mean_gwd_sq == second.overall_mean_gwd_sq
        assert first.overall_mean_orient_err == second.overall_mean_orient_err

    def test_parallel_equals_serial(self):
        cfg = self._small(runs=4)
        serial, _ = run_scenario(cfg, "sequential", jobs=1)
        parallel, _ = run_scenario(cfg, "sequential", jobs=2)
        assert np.array_equal(serial.per_step_mean_gwd_sq,
                              parallel.per_step_mean_gwd_sq)
        assert serial.overall_mean_gwd_sq == parallel.overall_mean_gwd_sq
        assert serial.diagnostics == parallel.diagnostics

    def test_overall_mean_is_average_of_run_means(self):
        cfg = self._small(runs=3)
        summary, results = run_scenario(cfg, "batch")
        per_run = [r.gwd_sq.mean() for r in results]
        assert summary.overall_mean_gwd_sq == pytest.approx(np.mean(per_run),
                                                            abs=1e-9)
        per_run_orient = [r.orient_err.mean() for r in results]
        assert summary.overall_mean_orient_err == pytest.approx(
            np.mean(per_run_orient), abs=1e-9)

    def test_unknown_filter_kind(self):
        with pytest.raises(ConfigError):
            run_scenario(self._small(), "up")

    @pytest.mark.parametrize("jobs", [True, 0, 1.0])
    def test_jobs_must_be_a_count(self, jobs):
        # jobs=True used to run as one worker
        with pytest.raises(ConfigError, match="number of jobs"):
            run_scenario(self._small(), "batch", jobs=jobs)

    def test_run_data_shared_between_runs_is_independent(self):
        cfg = self._small(runs=2)
        truths_0, meas_0 = sample_run_data(cfg, 0)
        truths_1, _ = sample_run_data(cfg, 1)
        assert not np.array_equal(truths_0[0].center, truths_1[0].center)
        truths_0b, meas_0b = sample_run_data(cfg, 0)
        np.testing.assert_array_equal(truths_0[0].center, truths_0b[0].center)
        np.testing.assert_array_equal(meas_0[0].points, meas_0b[0].points)

    def test_neighbouring_seeds_and_runs_draw_apart(self):
        # Run 1 of seed 1234 and run 0 of seed 1235 were once one stream.
        def draws(seed, run):
            truths, scans = sample_run_data(
                builtin_scenarios(runs=2, seed=seed)["moderate"], run)
            return (np.array([t.center for t in truths]),
                    np.concatenate([z.points for z in scans]))
        first, second = draws(1234, 1), draws(1235, 0)
        assert not np.array_equal(first[0], second[0])
        assert first[1].shape != second[1].shape or \
            not np.array_equal(first[1], second[1])

    @pytest.mark.parametrize("source", list(SourceDistribution))
    def test_noise_free_scans_lie_on_their_own_steps_truth(self, source):
        # With R = 0 every point of scan t lies on truth t's extent. On the
        # turning trajectory, a scan paired with a neighbouring step's
        # truth (off by one in the repeat or the split) would not.
        cfg = dataclasses.replace(builtin_scenarios(runs=3, seed=8)["moderate"],
                                  R=np.zeros((2, 2)), source_dist=source)
        for run in range(3):
            truths, scans = sample_run_data(cfg, run)
            assert len(scans) == len(truths) == cfg.trajectory.steps
            assert sum(len(z) for z in scans) > 500
            for t, (truth, scan) in enumerate(zip(truths, scans)):
                local = (scan.points - truth.center) @ rot(truth.theta) / truth.axes
                if source is SourceDistribution.UNIFORM_ELLIPSE:
                    inside = (local ** 2).sum(axis=1) <= 1.0 + 1e-12
                else:
                    inside = np.abs(local).max(axis=1, initial=0.0) <= 1.0 + 1e-12
                assert inside.all(), (run, t)

    def test_turn_steps_have_higher_error(self):
        # error spikes co-locate with motion-model violations
        cfg = builtin_scenarios(runs=25, seed=5)["moderate"]
        summary, _ = run_scenario(cfg, "sequential")
        rates = []
        for count, rate in cfg.trajectory.segments:
            rates.extend([rate] * count)
        rates = np.array(rates)
        turn_mean = summary.per_step_mean_gwd_sq[rates != 0.0].mean()
        straight_mean = summary.per_step_mean_gwd_sq[rates == 0.0].mean()
        assert turn_mean > straight_mean

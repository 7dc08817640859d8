"""Acceptance suite: end-to-end accuracy bands and structural guarantees.

The campaign-level tests run the full built-in scenarios at 500 Monte-
Carlo runs and check the resulting error statistics against fixed bands.
Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``).
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from elliptrack import (AxisState, FilterConfig,
                        MeasurementSet, OrientationState, SourceDistribution,
                        builtin_scenarios, gwd_squared, predict, rot,
                        run_scenario, sample_measurements, step_batch,
                        step_sequential)
from elliptrack.cli import main
from elliptrack.measurements import CenteredMeasurements, aligned_squares
from elliptrack.metrics import EllipseParams
from elliptrack.sequential import axis_moments
from elliptrack.simulation import TrajectorySpec

from conftest import (QUAD_SELECT, assert_symmetric_psd, make_estimate,
                      make_motion)

SEED = 20240811
RUNS = 500


def report(label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def campaigns():
    """All six moving campaigns plus the stationary one, one shared seed."""
    scens = builtin_scenarios(runs=RUNS, seed=SEED)
    out = {}
    for name in ("moderate", "noisy", "sparse"):
        for kind in ("sequential", "batch"):
            out[name, kind] = run_scenario(scens[name], kind)[0]
    out["stationary", "sequential"] = run_scenario(scens["stationary"],
                                                   "sequential")[0]
    return out


class TestCampaignCriteria:
    def test_criterion_1_moderate_error_band(self, campaigns):
        value = campaigns["moderate", "sequential"].overall_mean_gwd_sq
        report("criterion 1 (moderate mean squared distance in [1.2, 2.2])",
               1.2 <= value <= 2.2, f"value={value:.3f}")

    def test_criterion_2_regime_ordering(self, campaigns):
        seq = {name: campaigns[name, "sequential"].overall_mean_gwd_sq
               for name in ("moderate", "noisy", "sparse")}
        bat = {name: campaigns[name, "batch"].overall_mean_gwd_sq
               for name in ("moderate", "noisy", "sparse")}
        ordering = seq["moderate"] < seq["noisy"] < seq["sparse"]
        batch_above = all(bat[name] > seq[name]
                          for name in ("moderate", "noisy", "sparse"))
        report("criterion 2 (moderate < noisy < sparse and batch > sequential)",
               ordering and batch_above,
               "sequential=%s batch=%s" % (
                   {k: round(v, 3) for k, v in seq.items()},
                   {k: round(v, 3) for k, v in bat.items()}))

    def test_criterion_3_orientation_error_band(self, campaigns):
        value = campaigns["moderate", "sequential"].overall_mean_orient_err
        report("criterion 3 (moderate orientation error in [0.14, 0.28] rad)",
               0.14 <= value <= 0.28, f"value={value:.3f}")

    def test_criterion_4_runtime_ratio(self, campaigns):
        seq_time = campaigns["moderate", "sequential"].mean_step_runtime
        batch_time = campaigns["moderate", "batch"].mean_step_runtime
        ratio = seq_time / batch_time
        report("criterion 4a (sequential step time >= 2x batch at rate 12)",
               ratio >= 2.0,
               f"sequential={seq_time * 1e3:.3f} ms, "
               f"batch={batch_time * 1e3:.3f} ms, ratio={ratio:.2f}")

    def test_criterion_4_batch_runtime_scaling(self):
        base = builtin_scenarios(runs=30, seed=SEED)["moderate"]
        straight = TrajectorySpec(segments=((30, 0.0),), nominal_speed=3.0,
                                  start_position=np.zeros(2),
                                  start_heading=0.0,
                                  true_axes=np.array([5.0, 2.0]),
                                  position_jitter=1.0)
        counts = np.array([5, 10, 20, 40, 80])
        times = []
        for count in counts:
            cfg = dataclasses.replace(base, trajectory=straight,
                                      fixed_count=int(count))
            summary, _ = run_scenario(cfg, "batch")
            times.append(summary.mean_step_runtime)
        exponent = np.polyfit(np.log(counts), np.log(times), 1)[0]
        report("criterion 4b (batch step time growth exponent <= 1.2)",
               exponent <= 1.2,
               "times(ms)=%s exponent=%.3f" % (
                   [round(t * 1e3, 3) for t in times], exponent))

    def test_criterion_5_stationary_convergence(self, campaigns):
        curve = campaigns["stationary", "sequential"].per_step_mean_gwd_sq
        final_ratio = curve[199] / curve[4]
        drops = all(curve[t + 1] <= curve[t] * 1.05 for t in range(19, 199))
        report("criterion 5 (stationary shape error converges)",
               final_ratio < 0.25 and drops,
               f"step5={curve[4]:.3f} step200={curve[199]:.3f} "
               f"ratio={final_ratio:.3f} monotone(5%)={drops}")


class TestPropertySuite:
    def test_criterion_6_update_order_permutation(self, default_config):
        est, motion = make_estimate(), make_motion()
        z = sample_measurements([2, 1], 0.4, [5, 2], 10.0, np.eye(2),
                                SourceDistribution.UNIFORM_ELLIPSE,
                                np.random.default_rng(0), count=8)
        reference = step_sequential(est, z, motion, default_config)
        identical = True
        for order in itertools.permutations(("kinematics", "axis",
                                             "orientation")):
            out = step_sequential(est, z, motion, default_config, order=order)
            identical &= np.array_equal(out.kin.mean, reference.kin.mean)
            identical &= np.array_equal(out.kin.cov, reference.kin.cov)
            identical &= np.array_equal(out.axis.mean, reference.axis.mean)
            identical &= np.array_equal(out.axis.cov, reference.axis.cov)
            identical &= out.orient == reference.orient
        report("criterion 6a (interleaved update order is irrelevant)",
               identical, "all 6 permutations bit-identical")

    def test_criterion_6_single_measurement_delegation(self, default_config):
        est, motion = make_estimate(), make_motion()
        z = MeasurementSet([[4.2, -0.7]])
        seq = step_sequential(est, z, motion, default_config)
        bat = step_batch(est, z, motion, default_config)
        same = (np.array_equal(seq.kin.mean, bat.kin.mean)
                and np.array_equal(seq.kin.cov, bat.kin.cov)
                and np.array_equal(seq.axis.mean, bat.axis.mean)
                and np.array_equal(seq.axis.cov, bat.axis.cov)
                and seq.orient == bat.orient)
        report("criterion 6b (single-measurement batch delegation)",
               same, "outputs bit-identical")

    def test_criterion_6_stacked_vs_reduced_axis_update(self):
        from elliptrack.batch import batch_update_axis
        worst = 0.0
        for count in (2, 3, 5):
            rng = np.random.default_rng(count)
            axis = AxisState([4.2, 1.7], np.array([[0.3, 0.05], [0.05, 0.2]]))
            orient = OrientationState(0.4, 0.05)
            cfg = FilterConfig(R=np.eye(2) * 0.8, c=0.25)
            s = rng.normal(size=(count, 2)) * 1.5
            centered = CenteredMeasurements(s, cfg.R)
            reduced = batch_update_axis(axis, centered, orient, cfg)
            mom = axis_moments(axis, orient, cfg.R, cfg)
            a_stacked = aligned_squares(s, orient.mean).flatten()
            gain = np.hstack([mom.cross_ap] * count) @ np.linalg.inv(
                np.kron(np.eye(count), mom.cov_aa))
            naive_mean = axis.mean + gain @ (a_stacked
                                             - np.tile(mom.expected_a, count))
            worst = max(worst, np.abs(reduced.mean - naive_mean).max())
        report("criterion 6c (stacked and reduced axis updates agree)",
               worst <= 1e-10, f"worst deviation={worst:.2e}")

    def test_criterion_6_axis_moment_monte_carlo_oracle(self, default_config):
        # draw from the multiplicative source model and compare the
        # object-frame squares against the closed-form expectation
        rng = np.random.default_rng(1)
        theta = 0.7
        p_hat, cov_p = np.array([2.0, 1.0]), np.diag([0.25, 0.25])
        w_cov = np.array([[1.0, 0.2], [0.2, 0.7]])
        n = 1_000_000
        lengths = rng.multivariate_normal(p_hat, cov_p, size=n)
        h = rng.normal(size=(n, 2)) * np.sqrt(default_config.c)
        w = rng.multivariate_normal(np.zeros(2), w_cov, size=n)
        s = (rot(theta) @ (lengths * h).T).T + w
        a = aligned_squares(s, theta)
        mom = axis_moments(AxisState(p_hat, cov_p), OrientationState(theta, 0.1),
                           w_cov, default_config)
        gap = np.abs(a.mean(axis=0) - mom.expected_a)
        bound = 3.0 * a.std(axis=0) / np.sqrt(n)
        report("criterion 6d (axis moment matches Monte-Carlo oracle)",
               bool(np.all(gap < bound)),
               f"gap={gap.round(6).tolist()} bound={bound.round(6).tolist()}")

    def test_criterion_6_pseudo_measurement_kronecker_identity(self):
        from elliptrack import build_pseudo
        rng = np.random.default_rng(2)
        points = rng.normal(size=(1000, 2)) * 4
        built = build_pseudo(CenteredMeasurements(points, np.eye(2)))
        exact = all(np.array_equal(built[i], QUAD_SELECT @ np.kron(s, s))
                    for i, s in enumerate(points))
        report("criterion 6e (cross-term pseudo-measurement equals "
               "Kronecker form)", exact, "1000 random inputs, exact")

    def test_criterion_6_posterior_covariance_health(self, default_config):
        rng = np.random.default_rng(3)
        motion = make_motion()
        ok = True
        for kind, step in (("sequential", step_sequential),
                           ("batch", step_batch)):
            est = make_estimate()
            for _ in range(40):
                z = sample_measurements([2, 1], 0.4, [5, 2], 9.0, np.eye(2),
                                        SourceDistribution.UNIFORM_ELLIPSE, rng)
                pred = predict(est, motion)
                est = step(est, z, motion, default_config)
                assert_symmetric_psd(est.kin.cov)
                assert_symmetric_psd(est.axis.cov)
                ok &= est.orient.var <= pred.orient.var + 1e-15
                ok &= est.orient.var >= 0.0
        report("criterion 6f (covariances symmetric PSD, orientation "
               "variance never grows in an update)", ok, "both filters, 40 steps")

    def test_criterion_6_distance_invariances(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(200):
            a = EllipseParams(rng.normal(size=2) * 5,
                              rng.uniform(-np.pi, np.pi),
                              rng.uniform(0.5, 6.0, size=2))
            b = EllipseParams(rng.normal(size=2) * 5,
                              rng.uniform(-np.pi, np.pi),
                              rng.uniform(0.5, 6.0, size=2))
            base = gwd_squared(a, b)
            worst = max(worst, abs(gwd_squared(b, a) - base))
            phi = rng.uniform(-np.pi, np.pi)
            shift = rng.normal(size=2) * 10
            ta = EllipseParams(rot(phi) @ a.center + shift, a.theta + phi,
                               a.semi_axes)
            tb = EllipseParams(rot(phi) @ b.center + shift, b.theta + phi,
                               b.semi_axes)
            worst = max(worst, abs(gwd_squared(ta, tb) - base))
            flipped = EllipseParams(a.center, a.theta + np.pi, a.semi_axes)
            worst = max(worst, abs(gwd_squared(flipped, b) - base))
        report("criterion 6g (distance symmetry and invariances)",
               worst <= 1e-9, f"worst deviation={worst:.2e}")

    def test_criterion_6_serial_parallel_reproducibility(self, tmp_path):
        dirs = {"serial": tmp_path / "serial", "parallel": tmp_path / "parallel"}
        for label, out_dir in dirs.items():
            jobs = "1" if label == "serial" else "2"
            code = main(["mc", "moderate", "--filter", "sequential",
                         "--runs", "10", "--seed", str(SEED),
                         "--jobs", jobs, "--out", str(out_dir)])
            assert code == 0
        csv_equal = (dirs["serial"] / "per_step_errors.csv").read_bytes() == \
            (dirs["parallel"] / "per_step_errors.csv").read_bytes()
        results = [json.loads((d / "summary.json").read_text())["results"]
                   for d in dirs.values()]
        report("criterion 6h (10-run campaign reproducible, serial vs "
               "parallel)", csv_equal and results[0] == results[1],
               "error files byte-identical, result sections equal")

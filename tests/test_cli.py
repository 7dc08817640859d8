import concurrent.futures
import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from elliptrack import cli, predict
from elliptrack.cli import estimate_from_dict, estimate_to_dict, main, \
    resolve_scenario, scenario_from_dict, scenario_to_dict
from elliptrack.errors import ConfigError, EllipTrackError, MalformedRecord, \
    NonFiniteState, SingularPseudoCov, StepMisalignment
from elliptrack.simulation import MAX_POINTS_PER_RUN, ScenarioConfig, \
    TrajectorySpec, builtin_scenarios

from conftest import make_estimate


# Step indices that are not JSON integers; MISSING drops "t" from the row.
MISSING = object()
STEP_INDEX_VALUES = [pytest.param(MISSING, id="missing"),
                     pytest.param(None, id="null"), pytest.param("x", id="x"),
                     pytest.param(1.5, id="1.5"), pytest.param(True, id="true")]


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def write_config(tmp_path, **overrides):
    data = scenario_to_dict(builtin_scenarios()["moderate"])
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestScenarioConfigRoundTrip:
    def test_round_trip_preserves_fields(self):
        cfg = builtin_scenarios()["sparse"]
        restored = scenario_from_dict(scenario_to_dict(cfg))
        assert restored.lam == cfg.lam
        np.testing.assert_array_equal(restored.R, cfg.R)
        np.testing.assert_array_equal(restored.prior.kin.cov, cfg.prior.kin.cov)
        assert restored.trajectory.segments == cfg.trajectory.segments
        assert restored.psi == cfg.psi
        assert restored.source_dist == cfg.source_dist

    @pytest.mark.parametrize("name", sorted(builtin_scenarios()))
    def test_round_trip_keeps_every_key_in_order(self, name):
        data = scenario_to_dict(builtin_scenarios()[name])
        restored = scenario_to_dict(scenario_from_dict(data))
        assert json.dumps(restored) == json.dumps(data)

    @pytest.mark.parametrize("section, key", [
        (ScenarioConfig, "psi"), (ScenarioConfig, "fixed_count"),
        (TrajectorySpec, "position_jitter"),
        (TrajectorySpec, "velocity_jitter")])
    def test_missing_optional_key_takes_the_dataclass_default(self, section,
                                                              key):
        # stationary, with every optional key away from its default
        data = scenario_to_dict(builtin_scenarios()["stationary"])
        data["psi"] = 0.4
        data["trajectory"].update(position_jitter=1.0, velocity_jitter=0.5)
        default = next(f.default for f in dataclasses.fields(section)
                       if f.name == key)
        node = data["trajectory"] if section is TrajectorySpec else data
        assert node[key] != default
        del node[key]
        restored = scenario_to_dict(scenario_from_dict(data))
        node = restored["trajectory"] if section is TrajectorySpec else restored
        assert node[key] == default

    def test_resolve_overrides(self):
        cfg = resolve_scenario("moderate", seed=77, runs=3)
        assert cfg.seed == 77 and cfg.runs == 3


class TestSimulate:
    def test_moderate_writes_80_lines(self, tmp_path):
        out = tmp_path / "sim.jsonl"
        assert main(["simulate", "--scenario", "moderate", "--seed", "5",
                     "--out", str(out)]) == 0
        rows = read_jsonl(out)
        assert len(rows) == 80
        assert rows[0]["t"] == 1 and rows[-1]["t"] == 80
        assert {"center", "theta", "axes", "velocity"} <= rows[0]["truth"].keys()

    def test_repeated_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["simulate", "--scenario", "moderate", "--seed", "5",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_poisson_rate_over_many_lines(self, tmp_path):
        config = write_config(
            tmp_path, name="long-straight",
            trajectory={"segments": [[1000, 0.0]], "nominal_speed": 3.0,
                        "start_position": [0.0, 0.0], "start_heading": 0.0,
                        "true_axes": [5.0, 2.0], "position_jitter": 1.0,
                        "velocity_jitter": 0.0})
        out = tmp_path / "sim.jsonl"
        assert main(["simulate", "--config", config, "--seed", "3",
                     "--out", str(out)]) == 0
        counts = [len(r["measurements"]) for r in read_jsonl(out)]
        assert np.mean(counts) == pytest.approx(12.0, abs=0.4)


class TestTrack:
    def test_empty_measurement_line_is_predict_only(self, tmp_path):
        meas = tmp_path / "m.jsonl"
        meas.write_text(json.dumps({"t": 1, "measurements": []}) + "\n")
        out = tmp_path / "est.jsonl"
        assert main(["track", str(meas), "--scenario", "moderate",
                     "--out", str(out)]) == 0
        est = read_jsonl(out)[0]
        cfg = resolve_scenario("moderate")
        pred = predict(cfg.prior, cfg.motion)
        np.testing.assert_allclose(est["kinematics"]["mean"], pred.kin.mean)
        np.testing.assert_allclose(
            np.array(est["kinematics"]["cov"]).reshape(4, 4), pred.kin.cov)
        assert est["orientation"]["var"] == pytest.approx(pred.orient.var)

    def test_estimate_record_round_trips_the_arrays_row_major(self):
        # covariances asymmetric within rounding keep both off-diagonals
        rng = np.random.default_rng(3)
        est = make_estimate(kin_cov=np.eye(4) + 1e-13 * rng.normal(size=(4, 4)),
                            axis_cov=[[1.0, 0.2], [0.2 + 1e-13, 0.5]])
        row = json.loads(json.dumps(estimate_to_dict(5, est)))
        assert row["kinematics"]["cov"] == est.kin.cov.ravel().tolist()
        assert row["axis"]["cov"] == est.axis.cov.ravel().tolist()
        back = estimate_from_dict(row)
        for mine, theirs in ((back.kin.mean, est.kin.mean),
                             (back.kin.cov, est.kin.cov),
                             (back.axis.mean, est.axis.mean),
                             (back.axis.cov, est.axis.cov)):
            assert mine.tobytes() == theirs.tobytes()
        assert back.orient == est.orient

    def test_filters_agree_on_single_measurement_streams(self, tmp_path):
        lines = [json.dumps({"t": t, "measurements": [[3.0 * t, 0.1 * t]]})
                 for t in range(1, 21)]
        meas = tmp_path / "m.jsonl"
        meas.write_text("\n".join(lines) + "\n")
        seq_out, batch_out = tmp_path / "seq.jsonl", tmp_path / "batch.jsonl"
        assert main(["track", str(meas), "--scenario", "moderate",
                     "--filter", "sequential", "--out", str(seq_out)]) == 0
        assert main(["track", str(meas), "--scenario", "moderate",
                     "--filter", "batch", "--out", str(batch_out)]) == 0
        assert seq_out.read_bytes() == batch_out.read_bytes()

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        meas = tmp_path / "m.jsonl"
        meas.write_text(json.dumps({"t": 1, "measurements": []}) +
                        "\n{not json\n")
        out = tmp_path / "est.jsonl"
        assert main(["track", str(meas), "--scenario", "moderate",
                     "--out", str(out)]) == 4
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("value", STEP_INDEX_VALUES)
    def test_step_index_that_is_not_an_integer_exits_4(self, tmp_path, capsys,
                                                       value):
        rows = [{"t": 1, "measurements": [[1.0, 2.0]]},
                {"t": 2, "measurements": [[3.0, 1.0]]}]
        if value is MISSING:
            del rows[1]["t"]
        else:
            rows[1]["t"] = value
        meas = tmp_path / "m.jsonl"
        meas.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "est.jsonl"
        assert main(["track", str(meas), "--scenario", "moderate",
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "line 2:" in err and "'t'" in err
        assert not out.exists()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_measurement_exits_4(self, tmp_path, capsys, token):
        meas = tmp_path / "m.jsonl"
        meas.write_text('{"t": 1, "measurements": [[1.0, 2.0], [3.0, 1.0]]}\n'
                        '{"t": 2, "measurements": [[%s, 2.0], [3.0, 1.0]]}\n'
                        % token)
        assert main(["track", str(meas), "--scenario", "moderate",
                     "--out", str(tmp_path / "est.jsonl")]) == 4
        err = capsys.readouterr().err
        assert "line 2" in err and "non-finite" in err
        assert not (tmp_path / "est.jsonl").exists()

    @pytest.mark.parametrize("points", [
        '[["nan", 2.0]]', '["1e999", 2.0]', '[[[1.0, -Infinity]]]',
        '["1.5", "2.0", 3, 1]', '[[true, 2.0]]', '[["1.5", "2"]]',
        '[[true, false]]', '[[1.0, 2.0, 3.0]]', '[[1.0]]', '{"x": 1.0}',
        'null', '"1.0, 2.0"'])
    def test_points_must_be_pairs_of_real_numbers(self, tmp_path, capsys,
                                                  points):
        # strings, booleans, and flat or nested lists are malformed, not
        # numbers for numpy to convert
        meas = tmp_path / "m.jsonl"
        meas.write_text('{"t": 1, "measurements": [[0.5, 1.0]]}\n'
                        '{"t": 2, "measurements": %s}\n' % points)
        out = tmp_path / "est.jsonl"
        assert main(["track", str(meas), "--scenario", "moderate",
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "line 2:" in err and "[x, y] pairs of real numbers" in err
        assert not out.exists()

    def test_missing_points_exit_4(self, tmp_path, capsys):
        meas = tmp_path / "m.jsonl"
        meas.write_text('{"t": 1}\n')
        assert main(["track", str(meas), "--scenario", "moderate",
                     "--out", str(tmp_path / "est.jsonl")]) == 4
        assert "line 1:" in capsys.readouterr().err

    def test_integer_too_large_for_a_float_exits_4(self, tmp_path, capsys):
        meas = tmp_path / "m.jsonl"
        meas.write_text('{"t": 1, "measurements": [[1%s, 2]]}\n' % ("0" * 400))
        assert main(["track", str(meas), "--scenario", "moderate",
                     "--out", str(tmp_path / "est.jsonl")]) == 4
        assert "line 1:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["sequential", "batch"])
    def test_integer_points_read_as_floats(self, tmp_path, kind):
        # a JSON integer is a real number: [3, 1] tracks as [3.0, 1.0]
        files = []
        for text in ("[[1, 2], [3, 1]]", "[[1.0, 2.0], [3.0, 1.0]]"):
            meas, out = tmp_path / "m.jsonl", tmp_path / f"{len(files)}.jsonl"
            meas.write_text('{"t": 1, "measurements": %s}\n' % text)
            assert main(["track", str(meas), "--scenario", "moderate",
                         "--filter", kind, "--out", str(out)]) == 0
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_blank_lines_count_in_reported_line(self, tmp_path, capsys):
        # file line 4 holds the NaN; the blank line 1 is skipped, not dropped
        meas = tmp_path / "m.jsonl"
        meas.write_text('\n{"t": 1, "measurements": [[1.0, 2.0]]}\n'
                        '{"t": 2, "measurements": [[3.0, 1.0]]}\n'
                        '{"t": 3, "measurements": [[NaN, 2.0]]}\n')
        assert main(["track", str(meas), "--scenario", "moderate",
                     "--out", str(tmp_path / "est.jsonl")]) == 4
        err = capsys.readouterr().err
        assert "line 4" in err and "non-finite" in err

    @pytest.mark.parametrize("kind", ["sequential", "batch"])
    def test_overflowing_estimate_exits_4(self, tmp_path, capsys, kind):
        # 1e308 is finite, but its square is not: the step that reads it
        # would write a non-finite estimate
        meas = tmp_path / "m.jsonl"
        meas.write_text('{"t": 1, "measurements": [[1.0, 2.0], [3.0, 1.0]]}\n'
                        '{"t": 2, "measurements": [[1e308, 2.0], [3, 1]]}\n')
        out = tmp_path / "est.jsonl"
        with np.errstate(all="ignore"):
            code = main(["track", str(meas), "--scenario", "moderate",
                         "--filter", kind, "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert "line 2" in err and "not finite" in err
        assert not out.exists()


class TestEval:
    def _simulate(self, tmp_path, seed=9):
        sim = tmp_path / "sim.jsonl"
        assert main(["simulate", "--scenario", "moderate", "--seed", str(seed),
                     "--out", str(sim)]) == 0
        return sim

    def _estimates_from_truth(self, sim_path, est_path, offset=(0.0, 0.0)):
        lines = []
        for row in read_jsonl(sim_path):
            truth = row["truth"]
            center = [truth["center"][0] + offset[0],
                      truth["center"][1] + offset[1]]
            lines.append(json.dumps({
                "t": row["t"],
                "kinematics": {"dim": 4, "mean": center + truth["velocity"],
                               "cov": [0.0] * 16},
                "axis": {"dim": 2, "mean": truth["axes"], "cov": [0.0] * 4},
                "orientation": {"mean": truth["theta"], "var": 0.0},
            }))
        est_path.write_text("\n".join(lines) + "\n")

    def test_perfect_estimates_score_zero(self, tmp_path):
        sim = self._simulate(tmp_path)
        est = tmp_path / "est.jsonl"
        self._estimates_from_truth(sim, est)
        out = tmp_path / "errors.csv"
        assert main(["eval", str(est), str(sim), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "gwd_sq", "orient_err"]
        assert len(rows) == 80
        assert max(abs(float(r[1])) for r in rows) < 1e-9
        assert max(abs(float(r[2])) for r in rows) < 1e-9

    def test_known_offset_gives_constant_25(self, tmp_path):
        sim = self._simulate(tmp_path)
        est = tmp_path / "est.jsonl"
        self._estimates_from_truth(sim, est, offset=(3.0, 4.0))
        out = tmp_path / "errors.csv"
        assert main(["eval", str(est), str(sim), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        for row in rows:
            assert float(row[1]) == pytest.approx(25.0, abs=1e-9)

    def test_summary_matches_column_average(self, tmp_path):
        sim = self._simulate(tmp_path)
        est = tmp_path / "est.jsonl"
        self._estimates_from_truth(sim, est, offset=(1.0, 0.0))
        out = tmp_path / "errors.csv"
        assert main(["eval", str(est), str(sim), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        summary = json.loads((tmp_path / "errors.summary.json").read_text())
        assert summary["mean_gwd_sq"] == pytest.approx(
            np.mean([float(r[1]) for r in rows]), abs=1e-9)
        assert summary["steps"] == 80

    def test_misaligned_files_exit_5(self, tmp_path):
        sim = self._simulate(tmp_path)
        est = tmp_path / "est.jsonl"
        self._estimates_from_truth(sim, est)
        truncated = tmp_path / "short.jsonl"
        truncated.write_text(
            "\n".join(sim.read_text().splitlines()[:40]) + "\n")
        out = tmp_path / "errors.csv"
        assert main(["eval", str(est), str(truncated), "--out", str(out)]) == 5

    def test_non_object_line_exits_4(self, tmp_path, capsys):
        sim = self._simulate(tmp_path)
        est = tmp_path / "est.jsonl"
        self._estimates_from_truth(sim, est)
        lines = est.read_text().splitlines()
        lines[2] = "[1, 2]"
        est.write_text("\n".join(lines) + "\n")
        assert main(["eval", str(est), str(sim),
                     "--out", str(tmp_path / "errors.csv")]) == 4
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("empty", ["estimates", "truth", "both"])
    def test_file_without_records_exits_4(self, tmp_path, empty):
        sim = self._simulate(tmp_path)
        est = tmp_path / "est.jsonl"
        self._estimates_from_truth(sim, est)
        if empty in ("estimates", "both"):
            est.write_text("")
        if empty in ("truth", "both"):
            sim.write_text("\n")
        out = tmp_path / "errors.csv"
        assert main(["eval", str(est), str(sim), "--out", str(out)]) == 4
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("center", float("nan")),
                                              ("theta", float("inf")),
                                              ("axes", float("nan")),
                                              ("center", 1e300)])
    def test_non_finite_truth_or_error_exits_4(self, tmp_path, capsys,
                                              field, value):
        sim = self._simulate(tmp_path)
        est = tmp_path / "est.jsonl"
        self._estimates_from_truth(sim, est)
        rows = read_jsonl(sim)
        body = rows[4]["truth"]
        body[field] = [value, 1.0] if field != "theta" else value
        sim.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "errors.csv"
        with np.errstate(over="ignore"):
            code = main(["eval", str(est), str(sim), "--out", str(out)])
        assert code == 4
        assert "line 5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("center", ["1", "2"]), ("center", [True, 2.0]), ("theta", True),
        ("theta", "0.5"), ("axes", ["4", 2]), ("axes", [[4.0], [2.0]])])
    def test_truth_value_that_is_not_a_number_exits_4(self, tmp_path, capsys,
                                                      field, value):
        sim = self._simulate(tmp_path)
        est = tmp_path / "est.jsonl"
        self._estimates_from_truth(sim, est)
        rows = read_jsonl(sim)
        rows[4]["truth"][field] = value
        sim.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "errors.csv"
        assert main(["eval", str(est), str(sim), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "line 5:" in err and f"truth {field} must be a real number" in err
        assert not out.exists()

    @pytest.mark.parametrize("part, key, value", [
        ("kinematics", "mean", ["0", 0.0, 0.0, 0.0]),
        ("kinematics", "cov", [True] + [0.0] * 15),
        ("axis", "mean", [4.0, "2"]), ("axis", "cov", ["4", 0.0, 0.0, 2.0]),
        ("orientation", "mean", "0.3"), ("orientation", "var", False)])
    def test_estimate_value_that_is_not_a_number_exits_4(self, tmp_path,
                                                         capsys, part, key,
                                                         value):
        sim = self._simulate(tmp_path)
        est = tmp_path / "est.jsonl"
        self._estimates_from_truth(sim, est)
        rows = read_jsonl(est)
        rows[2][part][key] = value
        est.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "errors.csv"
        assert main(["eval", str(est), str(sim), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "line 3:" in err and f"{part} {key} must be a real number" in err
        assert not out.exists()

    def test_integer_values_read_as_floats(self, tmp_path):
        # JSON integers are real numbers: a record of integers scores as
        # the same record of floats
        scores = []
        for number in (int, float):
            est, truth = tmp_path / "est.jsonl", tmp_path / "truth.jsonl"
            truth.write_text(json.dumps({"t": 1, "truth": {
                "center": [number(1), number(2)], "theta": number(0),
                "axes": [number(4), number(2)], "velocity": [0, 0]}}) + "\n")
            est.write_text(json.dumps({
                "t": 1, "kinematics": {"dim": 4, "mean": [number(2), number(2),
                                                          number(0), number(0)],
                                       "cov": [number(0)] * 16},
                "axis": {"dim": 2, "mean": [number(4), number(2)],
                         "cov": [number(0)] * 4},
                "orientation": {"mean": number(0), "var": number(0)}}) + "\n")
            out = tmp_path / "errors.csv"
            assert main(["eval", str(est), str(truth), "--out", str(out)]) == 0
            scores.append(out.read_text())
        assert scores[0] == scores[1] == "t,gwd_sq,orient_err\n1,1.0,0.0\n"

    @pytest.mark.parametrize("value", STEP_INDEX_VALUES)
    @pytest.mark.parametrize("row", [0, 3])
    def test_step_index_that_is_not_an_integer_exits_4(self, tmp_path,
                                                       capsys, row, value):
        # Both rows carry the same bad "t", so they agree; the estimate
        # line is named.
        sim = self._simulate(tmp_path)
        est = tmp_path / "est.jsonl"
        self._estimates_from_truth(sim, est)
        for path in (est, sim):
            rows = read_jsonl(path)[:row + 1]
            if value is MISSING:
                del rows[row]["t"]
            else:
                rows[row]["t"] = value
            path.write_text("\n" + "".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "errors.csv"
        assert main(["eval", str(est), str(sim), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"line {row + 2}:" in err and "'t'" in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["estimates", "truth"])
    def test_blank_lines_count_in_reported_line(self, tmp_path, capsys, bad):
        # Two blank lines lead the file with the bad record; its fifth
        # record is then on file line 7 there and on line 5 in the other.
        sim = self._simulate(tmp_path)
        est = tmp_path / "est.jsonl"
        self._estimates_from_truth(sim, est)
        path = est if bad == "estimates" else sim
        rows = read_jsonl(path)
        if bad == "estimates":
            rows[4]["axis"]["mean"] = [float("nan"), 1.0]
        else:
            rows[4]["truth"]["theta"] = float("nan")
        path.write_text("\n\n" + "".join(json.dumps(r) + "\n" for r in rows))
        assert main(["eval", str(est), str(sim),
                     "--out", str(tmp_path / "errors.csv")]) == 4
        err = capsys.readouterr().err
        assert "line 7" in err and "line 5" not in err


class TestPipeline:
    def test_round_trip(self, tmp_path):
        sim = tmp_path / "sim.jsonl"
        est = tmp_path / "est.jsonl"
        errors = tmp_path / "errors.csv"
        assert main(["simulate", "--scenario", "moderate", "--seed", "21",
                     "--out", str(sim)]) == 0
        assert main(["track", str(sim), "--scenario", "moderate",
                     "--filter", "sequential", "--out", str(est)]) == 0
        assert main(["eval", str(est), str(sim), "--out", str(errors)]) == 0
        _, rows = read_csv(errors)
        assert len(rows) == 80
        assert all(float(r[1]) >= 0.0 for r in rows)


class TestMc:
    def test_single_run_matches_pipeline_eval(self, tmp_path):
        out_dir = tmp_path / "mc"
        assert main(["mc", "moderate", "--filter", "sequential", "--runs", "1",
                     "--seed", "21", "--out", str(out_dir)]) == 0
        _, mc_rows = read_csv(out_dir / "per_step_errors.csv")

        sim = tmp_path / "sim.jsonl"
        est = tmp_path / "est.jsonl"
        errors = tmp_path / "errors.csv"
        main(["simulate", "--scenario", "moderate", "--seed", "21",
              "--out", str(sim)])
        main(["track", str(sim), "--scenario", "moderate",
              "--filter", "sequential", "--out", str(est)])
        main(["eval", str(est), str(sim), "--out", str(errors)])
        _, eval_rows = read_csv(errors)

        for mc_row, ev_row in zip(mc_rows, eval_rows):
            assert float(mc_row[1]) == float(ev_row[1])
            assert float(mc_row[2]) == float(ev_row[2])

    def test_outputs_are_reproducible(self, tmp_path):
        dirs = [tmp_path / "one", tmp_path / "two"]
        for d in dirs:
            assert main(["mc", "moderate", "--filter", "batch", "--runs", "3",
                         "--seed", "8", "--out", str(d)]) == 0
        assert (dirs[0] / "per_step_errors.csv").read_bytes() == \
            (dirs[1] / "per_step_errors.csv").read_bytes()
        summaries = [json.loads((d / "summary.json").read_text()) for d in dirs]
        assert summaries[0]["results"] == summaries[1]["results"]

    def test_manifest_contents(self, tmp_path):
        out_dir = tmp_path / "mc"
        assert main(["mc", "sparse", "--filter", "sequential", "--runs", "2",
                     "--seed", "8", "--out", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 8
        assert manifest["runs"] == 2
        assert manifest["filter"] == "sequential"
        assert manifest["config"]["lambda"] == 6.0
        assert manifest["schema"].startswith("elliptrack.manifest/")
        assert manifest["wall_clock_seconds"] > 0.0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert "mean_step_runtime_seconds" in summary["timing"]


class TestExitCodes:
    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        assert main(["mc", "nonexistent", "--runs", "1",
                     "--out", str(tmp_path / "x")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"name\": \"x\"}")
        assert main(["simulate", "--config", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "o.jsonl")]) == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "--scenario", "moderate", "--seed", "-5"],
        ["mc", "moderate", "--seed", "-3", "--runs", "1"],
        ["mc", "moderate", "--runs", "0"],
    ])
    def test_bad_seed_or_runs_option_exits_2(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jobs, code, sizes", [("0", 2, []), ("-3", 2, []),
                                                   ("1", 0, []),
                                                   ("5000", 0, [2])])
    def test_jobs_option_is_checked_and_bounded_by_runs(
            self, tmp_path, monkeypatch, jobs, code, sizes):
        # a fake pool records its size and runs the map in this process,
        # so no worker process is ever started
        made = []

        class RecordingPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        assert main(["mc", "stationary", "--runs", "2", "--seed", "3",
                     "--jobs", jobs, "--out", str(tmp_path / "o")]) == code
        assert made == sizes

    @pytest.mark.parametrize("overrides", [{"seed": 1.5}, {"runs": 2.5},
                                           {"seed": -1}, {"psi": 2.0},
                                           {"runs": True}, {"seed": True},
                                           {"seed": False}])
    def test_bad_seed_runs_or_psi_in_config_exits_2(self, tmp_path, capsys,
                                                    overrides):
        config = write_config(tmp_path, **overrides)
        assert main(["simulate", "--config", config,
                     "--out", str(tmp_path / "o.jsonl")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value", [
        (("prior", "axis", "cov"), [[float("nan"), 0.0], [0.0, 1.0]]),
        (("lambda",), float("inf")),
        (("motion", "Q_theta"), -1.0),
        (("trajectory", "position_jitter"), -1.0),
        (("R",), [[1.0, 2.0], [2.0, 1.0]]),
        (("trajectory", "start_heading"), float("nan")),
        (("trajectory", "start_heading"), float("inf")),
        (("trajectory", "start_position"), [float("nan"), 0.0]),
        (("trajectory", "true_axes"), [float("nan"), 2.0]),
        # expected points per run above MAX_POINTS_PER_RUN: 1e19 used to
        # end in "lam value too large" from rng.poisson, the others in
        # "negative dimensions are not allowed" or "array is too big" from
        # the sampler, each a traceback and exit 1
        (("lambda",), 1e19),
        (("lambda",), 9.223372006484771e18),
        (("lambda",), 1e17),
        (("fixed_count",), 10**18),
        (("lambda",), MAX_POINTS_PER_RUN / 80 + 0.1),
    ])
    def test_non_finite_or_negative_variance_config_exits_2(self, tmp_path,
                                                           capsys, path,
                                                           value):
        self._assert_mc_config_exits_2(tmp_path, capsys, path, value)

    @pytest.mark.parametrize("path, value, message", [
        (("R",), [[1.0, 0.5], [0.0, 1.0]], "R must be a symmetric"),
        (("motion", "Q_kin"), [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                               [0.0, 0.0, 2.0, 0.0], [0.0, 0.3, 0.0, 2.0]],
         "Q_kin must be a symmetric"),
        (("fixed_count",), 1.5, "fixed_count must be an integer"),
        (("fixed_count",), True, "fixed_count must be an integer"),
        (("trajectory", "segments"), [[2.7, 0.0]], "segment step counts"),
        (("trajectory", "segments"), [[40, 0.0], [2.0, 0.1]],
         "segment step counts"),
        (("trajectory", "segments"), [[True, 0.0]], "segment step counts"),
        (("trajectory", "segments"), [[80, 0.0, 1.0]],
         "invalid scenario config: too many values"),
    ])
    def test_asymmetric_covariance_or_fractional_count_config_exits_2(
            self, tmp_path, capsys, path, value, message):
        # Each used to run: the sampler took the symmetric part of R while
        # the update used R as given, and counts were truncated by int().
        self._assert_mc_config_exits_2(tmp_path, capsys, path, value, message)

    @pytest.mark.parametrize("path, value, message", [
        (("trajectory", "nominal_speed"), [], "nominal_speed must be a real"),
        (("trajectory", "nominal_speed"), [1.0], "nominal_speed must be a real"),
        (("trajectory", "start_heading"), [[1.0, 2.0]],
         "start_heading must be a real"),
        (("trajectory", "position_jitter"), True,
         "position_jitter must be a real"),
        (("name",), 5, "name must be a string, got 5"),
        (("name",), None, "name must be a string, got None"),
        (("psi",), True, "psi must be a real number, got True"),
        (("lambda",), True, "Poisson rate must be a positive real number"),
    ])
    def test_scalar_that_is_not_a_number_or_name_not_a_string_exits_2(
            self, tmp_path, capsys, path, value, message):
        # Each used to run: np.isfinite passes an empty or finite list,
        # a boolean compares and converts as a number, and the name was
        # never checked; the manifest echoed the value.
        self._assert_mc_config_exits_2(tmp_path, capsys, path, value, message)

    def test_accepted_scalars_echo_as_given(self, tmp_path):
        # the checks convert nothing: an integer stays an integer
        data = scenario_to_dict(builtin_scenarios()["moderate"])
        data.update({"name": "mine", "lambda": 12, "psi": 1, "runs": 1})
        data["trajectory"].update({"nominal_speed": 3, "start_heading": 0,
                                   "position_jitter": 1})
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        out_dir = tmp_path / "mc"
        assert main(["mc", str(config), "--filter", "batch", "--runs", "1",
                     "--out", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert json.dumps(manifest["config"]) == json.dumps(data)

    @pytest.mark.parametrize("key", ["prior", "motion", "trajectory"])
    def test_section_that_is_not_an_object_exits_2_naming_it(
            self, tmp_path, capsys, key):
        self._assert_mc_config_exits_2(tmp_path, capsys, (key,), 5,
                                       f"{key} must be a JSON object, got 5")

    @staticmethod
    def _assert_mc_config_exits_2(tmp_path, capsys, path, value, message=""):
        data = scenario_to_dict(builtin_scenarios()["moderate"])
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        assert main(["mc", str(config), "--runs", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @staticmethod
    def _extreme_prior_config(tmp_path, scale):
        """The moderate config with a finite prior kinematic covariance of
        ``scale`` I, which a step overflows."""
        data = scenario_to_dict(builtin_scenarios()["moderate"])
        data["prior"]["kinematics"]["cov"] = (scale * np.eye(4)).tolist()
        config = tmp_path / "extreme.json"
        config.write_text(json.dumps(data))
        return str(config)

    @pytest.mark.parametrize("scale, kind", [(1e300, "batch"),
                                             (1e307, "sequential"),
                                             (1e300, "sequential")])
    def test_campaign_that_overflows_exits_6(self, tmp_path, capsys, scale,
                                             kind):
        # these used to end in an OverflowError from the batch axis clamp,
        # a LinAlgError from eigh on an overflowed covariance, and exit 0
        # with "Infinity" written to summary.json
        out = tmp_path / "o"
        assert main(["mc", self._extreme_prior_config(tmp_path, scale),
                     "--filter", kind, "--runs", "2", "--out", str(out)]) == 6
        assert "non-finite result" in capsys.readouterr().err
        assert not out.exists()

    def test_track_step_that_overflows_exits_4(self, tmp_path, capsys):
        # a LinAlgError from eigh used to end the run with a traceback
        sim = tmp_path / "sim.jsonl"
        assert main(["simulate", "--scenario", "moderate", "--seed", "7",
                     "--out", str(sim)]) == 0
        out = tmp_path / "est.jsonl"
        assert main(["track", str(sim), "--config",
                     self._extreme_prior_config(tmp_path, 1e307),
                     "--filter", "sequential", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "line 5" in err and "not finite" in err
        assert not out.exists()

    def test_unwritable_output_exits_3(self, tmp_path):
        assert main(["simulate", "--scenario", "moderate", "--seed", "1",
                     "--out", str(tmp_path / "missing" / "o.jsonl")]) == 3

    @pytest.mark.parametrize("error, code, prefix", [
        (ConfigError("bad"), 2, "config error"),
        (OSError("bad"), 3, "i/o error"),
        (MalformedRecord(3, "bad"), 4, "malformed record"),
        (StepMisalignment("bad"), 5, "step misalignment"),
        (NonFiniteState("bad"), 6, "non-finite result"),
        (SingularPseudoCov("bad"), 1, "error"),
        (EllipTrackError("bad"), 1, "error"),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
    def test_each_error_exits_with_its_code_and_prefix(
            self, monkeypatch, tmp_path, capsys, error, code, prefix):
        def fail(args):
            raise error
        monkeypatch.setattr(cli, "cmd_simulate", fail)
        assert main(["simulate", "--scenario", "moderate",
                     "--out", str(tmp_path / "o.jsonl")]) == code
        assert capsys.readouterr().err == f"{prefix}: {error}\n"


# Exit codes of the README table that malformed `track` or `eval` input may
# end with (0 when a generated file happens to be valid).
DOCUMENTED_EXITS = {0, 2, 3, 4, 5}
VALID_MEASUREMENT = {"t": 1, "measurements": [[0.5, -0.2], [1.0, 0.3]]}
VALID_TRUTH = {"t": 1, "truth": {"center": [0.1, 0.2], "theta": 0.3,
                                 "axes": [4.0, 2.0], "velocity": [0.0, 0.0]}}
VALID_ESTIMATE = {"t": 1,
                  "kinematics": {"dim": 4, "mean": [0.0, 0.0, 0.0, 0.0],
                                 "cov": [0.1, 0.0, 0.0, 0.0, 0.0, 0.1, 0.0, 0.0,
                                         0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]},
                  "axis": {"dim": 2, "mean": [4.0, 2.0],
                           "cov": [4.0, 0.0, 0.0, 2.0]},
                  "orientation": {"mean": 0.0, "var": 0.5}}
EVAL_RECORDS = {"est": VALID_ESTIMATE, "truth": VALID_TRUTH}

# JSON values of every type: huge integers, non-finite floats (written as
# NaN/Infinity, which json.loads reads back), strings, nesting.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 63]) | st.floats()
    | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=3)),
    max_leaves=8)


def _paths(node, prefix=()):
    """Every (path, value) inside a JSON record, the root excluded."""
    items = (node.items() if isinstance(node, dict) else enumerate(node)
             if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,), value
        yield from _paths(value, prefix + (key,))


@st.composite
def fuzzed_lines(draw, valid):
    """One line of a JSON Lines file, built from the record ``valid``:
    undecodable bytes, text junk, a truncated record, any JSON value, or
    the record with one entry removed or replaced by any JSON value."""
    kind = draw(st.sampled_from(["bytes", "junk", "truncated", "value",
                                 "missing", "replaced"]))
    text = json.dumps(valid)
    if kind == "bytes":
        return draw(st.binary(min_size=1, max_size=12)).replace(b"\n", b" ")
    if kind == "junk":
        return draw(st.text(st.characters(blacklist_categories=("Cs",)),
                            max_size=20))
    if kind == "truncated":
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "value":
        return json.dumps(draw(json_values))
    record = json.loads(text)
    path, _ = draw(st.sampled_from(list(_paths(record))))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    if kind == "missing":
        if isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent.pop(path[-1])
    else:
        parent[path[-1]] = draw(json_values)
    return json.dumps(record)


@st.composite
def fuzzed_files(draw, valid):
    """The lines of a file: valid records with one to three fuzzed ones
    in between, in any order."""
    lines = [json.dumps(valid).encode()] * draw(st.integers(0, 2))
    for _ in range(draw(st.integers(1, 3))):
        line = draw(fuzzed_lines(valid))
        lines.insert(draw(st.integers(0, len(lines))),
                     line if isinstance(line, bytes) else line.encode())
    return b"\n".join(lines) + b"\n"


class TestReaderFuzz:
    """`track` and `eval` end every generated input with a documented exit
    code, never with an exception."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @staticmethod
    def _run(argv):
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = main(argv)
        err = stderr.getvalue()
        assert code in DOCUMENTED_EXITS
        assert "Traceback" not in err
        assert code == 0 or err

    @settings(max_examples=150)
    @given(content=fuzzed_files(VALID_MEASUREMENT),
           filter_kind=st.sampled_from(["sequential", "batch"]))
    @example(content=b"[" * 100000 + b"\n", filter_kind="sequential")
    @example(content=b"\xff\xfe{}\n", filter_kind="batch")
    def test_track(self, workdir, content, filter_kind):
        meas = workdir / "m.jsonl"
        meas.write_bytes(content)
        self._run(["track", str(meas), "--scenario", "moderate", "--filter",
                   filter_kind, "--out", str(workdir / "est.jsonl")])

    @settings(max_examples=150)
    @given(case=st.sampled_from(["est", "truth"]).flatmap(
        lambda fuzzed: st.tuples(st.just(fuzzed),
                                 fuzzed_files(EVAL_RECORDS[fuzzed]))))
    @example(case=("truth", json.dumps(
        {**VALID_TRUTH, "truth": {**VALID_TRUTH["truth"], "theta": 10 ** 400}}
    ).encode()))
    @example(case=("est", json.dumps(
        {**VALID_ESTIMATE, "orientation": {"mean": 10 ** 400, "var": 0.5}}
    ).encode()))
    def test_eval(self, workdir, case):
        fuzzed, content = case
        paths = {"est": workdir / "est.jsonl", "truth": workdir / "truth.jsonl"}
        for kind, path in paths.items():
            path.write_bytes(content if kind == fuzzed else
                             (json.dumps(EVAL_RECORDS[kind]) + "\n").encode())
        self._run(["eval", str(paths["est"]), str(paths["truth"]),
                   "--out", str(workdir / "errors.csv")])

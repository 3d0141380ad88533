"""End-to-end tests of the command line interface."""

import csv
import errno
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficstate import cli, kalman, metrics, sensing, simulate
from trafficstate.ltv_model import build_state_index
from trafficstate.network import NetworkConfig, Segment, load_network
from trafficstate.sensing import Measurements, _step_table


def write_network(path, *, n=2, length_km=0.5, time_step_h=5 / 3600, sensors=(2,)):
    payload = {
        "time_step_h": time_step_h,
        "segments": [{"length_km": length_km, "ramp": "none", "ramp_measured": False} for _ in range(n)],
        "flow_sensors": list(sensors),
        "entry_flow_measured": True,
    }
    path.write_text(json.dumps(payload))
    return path


def write_trajectories(path):
    # Three vehicles at a constant 50 m/s spanning a 1000 m stretch,
    # sampled once per second for 12 s.
    lines = ["vehicle_id,t_s,x_m,lane,speed_mps"]
    for vid, x0 in ((1, -50.0), (2, 450.0), (3, 950.0)):
        for t in range(13):
            lines.append(f"{vid},{t},{x0 + 50.0 * t},1,50.0")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_detectors(path, *, speed=90.0, positions=(0.0, 500.0, 1000.0)):
    lines = ["detector_pos_m,t_s,flow_vph,speed_kmh"]
    for t in range(0, 55, 5):
        for pos in positions:
            lines.append(f"{pos},{t},2700.0,{speed}")
    path.write_text("\n".join(lines) + "\n")
    return path


def estimate_args(tmp_path, source):
    """``estimate`` arguments reading the test network's inputs from ``source``."""
    net = ["--network", str(write_network(tmp_path / "net.json"))]
    return {
        "preset": ["estimate", "--preset", "ngsim_like"],
        "trajectories": ["estimate", "--trajectories", str(write_trajectories(tmp_path / "t.csv")), *net],
        "detectors": ["estimate", "--detectors", str(write_detectors(tmp_path / "d.csv")), *net],
    }[source]


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


# The filter's own tuning defaults, as echoed in summary.json.
TUNING_DEFAULTS = {"q_density": 1.0, "q_ramp": 0.01, "measurement_var": 10.0, "initial_mean": 40.0, "initial_var": 1.0}
# Each source's calibration row: ngsim_like's, the detectors', none for trajectory files.
SOURCE_TUNING_ROWS = {
    "preset": {"measurement_var": 10.0, "initial_mean": 300.0, "initial_ramp": 0.0},
    "trajectories": {},
    "detectors": {"measurement_var": 100.0, "initial_mean": 4.0},
}
# Each tuning flag and the echo entry it sets.
TUNING_FLAG_ECHO = {
    "--q-density": "q_density",
    "--q-ramp": "q_ramp",
    "--meas-var": "measurement_var",
    "--init-mean": "initial_mean",
    "--init-ramp": "initial_ramp",
    "--init-var": "initial_var",
}


class TestValidate:
    def test_preset_network_is_ok(self, capsys):
        assert cli.main(["validate", "--preset", "ngsim_like"]) == 0
        assert "network ok" in capsys.readouterr().out

    def test_violations_exit_one(self, tmp_path, capsys):
        net = write_network(tmp_path / "net.json", sensors=(1,))
        assert cli.main(["validate", "--network", str(net)]) == 1
        assert "[exit-flow]" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = cli.main(["validate", "--network", str(tmp_path / "missing.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "net.json"
        bad.write_text("{oops")
        assert cli.main(["validate", "--network", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ramp_measured", "false"),
            ("entry_flow_measured", "false"),
            ("flow_sensors", [1.9]),
            ("length_km", math.nan),
            ("length_km", "0.5"),
            ("time_step_h", True),
        ],
    )
    def test_values_that_mean_something_else_exit_two(self, tmp_path, capsys, field, value):
        net = write_network(tmp_path / "net.json")
        payload = json.loads(net.read_text())
        (payload["segments"][1] if field in ("ramp_measured", "length_km") else payload)[field] = value
        net.write_text(json.dumps(payload))
        assert cli.main(["validate", "--network", str(net)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {net}: ") and field in err and err.count("\n") == 1


class TestSimulate:
    def test_writes_scenario_and_truth(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(["simulate", "--preset", "ngsim_like", "--seed", "0", "--out", str(out)])
        assert code == 0
        assert "wrote 360 steps" in capsys.readouterr().out

        scenario = json.loads((out / "scenario.json").read_text())
        assert scenario["name"] == "ngsim_like"
        assert NetworkConfig.from_dict(scenario["network"]) == simulate.make_congestion_scenario("ngsim_like", 0).cfg

        header, rows = read_csv(out / "truth.csv")
        assert header == ["k", "segment", "rho_true", "v_true", "q_true"]
        assert len(rows) == 360 * 8
        first = rows[0]
        assert first[0] == "0" and first[1] == "1"
        assert float(first[2]) == pytest.approx(scenario["initial_density_veh_km"][0])


class TestEstimate:
    def test_preset_run_outputs(self, tmp_path, capsys, read_summary):
        out = tmp_path / "est"
        code = cli.main(
            ["estimate", "--preset", "ngsim_like", "--seed", "0", "--window", "1", "--out", str(out)]
        )
        assert code == 0
        assert "cv_rho=" in capsys.readouterr().out

        header, rows = read_csv(out / "estimates.csv")
        assert header == [
            "k",
            "segment",
            "rho_true",
            "rho_est",
            "v_used",
            "q_sensor",
            "v_true",
            "ramp_flow_true",
            "ramp_flow_est",
        ]
        assert len(rows) == 360 * 8

        summary = read_summary(out)
        assert summary["validation_ok"] is True
        assert summary["sensors_used"] == [8]
        assert summary["cfl"]["violations"] == 0
        m = summary["metrics"]
        assert 0.0 < m["cv_rho"] < 0.15
        assert m["horizon_steps"] == 360
        assert m["speed_error_covariance_w"] is not None
        assert m["ramp_flow_rmse"] is not None

    def test_tuning_flags_are_echoed(self, tmp_path, read_summary):
        out = tmp_path / "est"
        code = cli.main(
            [
                "estimate",
                "--preset",
                "ngsim_like",
                "--window",
                "1",
                "--meas-var",
                "25.0",
                "--init-mean",
                "123.0",
                "--init-ramp",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        tuning = read_summary(out)["config"]["tuning"]
        assert tuning["measurement_var"] == 25.0
        assert tuning["initial_mean"] == 123.0
        assert tuning["initial_ramp"] == 7.0

    @pytest.mark.parametrize("flag", [None, *TUNING_FLAG_ECHO])
    @pytest.mark.parametrize("source", ["preset", "trajectories", "detectors"])
    def test_each_tuning_value_comes_from_its_flag_else_the_source_else_the_filter(
        self, tmp_path, read_summary, source, flag
    ):
        # An unmeasured on-ramp on segment 1 gives the file sources ramp states.
        args = estimate_args(tmp_path, source)
        if source != "preset":
            payload = json.loads((tmp_path / "net.json").read_text())
            payload["segments"][0]["ramp"] = "on_ramp"
            (tmp_path / "net.json").write_text(json.dumps(payload))
        out = tmp_path / "est"
        flags = [] if flag is None else [flag, "7.5"]
        assert cli.main([*args, *flags, "--warmup", "0", "--out", str(out)]) == 0
        want = {**TUNING_DEFAULTS, **SOURCE_TUNING_ROWS[source]}
        if flag is not None:
            want[TUNING_FLAG_ECHO[flag]] = 7.5
        # Without an initial ramp value of its own, the ramp state starts at the initial mean.
        want.setdefault("initial_ramp", want["initial_mean"])
        assert read_summary(out)["config"]["tuning"] == want

    def test_detector_metrics_block_names_every_key(self, tmp_path, read_summary):
        # Detectors see no ramp truth, so the ramp scores are null, not absent.
        out = tmp_path / "est"
        assert cli.main([*estimate_args(tmp_path, "detectors"), "--warmup", "0", "--out", str(out)]) == 0
        m = read_summary(out)["metrics"]
        assert set(m) == {
            "cv_rho",
            "cv_rho_full",
            "horizon_steps",
            "warmup_steps",
            "speed_error_covariance_w",
            "ramp_flow_rmse",
            "ramp_flow_best_lag",
            "ramp_flow_rmse_at_best_lag",
        }
        assert m["ramp_flow_rmse"] is m["ramp_flow_best_lag"] is m["ramp_flow_rmse_at_best_lag"] is None
        assert (m["horizon_steps"], m["warmup_steps"]) == (11, 0)

    def test_metrics_command_recomputes_the_summary(self, tmp_path, capsys, read_summary):
        # One metrics function serves both commands, and CSV cells round-trip
        # through repr, so the recomputed block equals the stored one exactly.
        net = str(write_network(tmp_path / "net.json"))
        runs = {
            "preset": ["--preset", "ngsim_like", "--window", "1"],
            # Several scored ramp columns and noise on every reading.
            "noisy_preset": ["--preset", "a20_like", "--penetration", "0.05", "--seed", "42"]
            + ["--flow-noise-std", "30", "--speed-noise-std", "2"],
            "trajectories": ["--trajectories", str(write_trajectories(tmp_path / "traj.csv")), "--network", net]
            + ["--warmup", "0"],
            "detectors": ["--detectors", str(write_detectors(tmp_path / "det.csv")), "--network", net],
        }
        for name, args in runs.items():
            out = tmp_path / name
            assert cli.main(["estimate", *args, "--out", str(out)]) == 0
            stored = read_summary(out)["metrics"]
            capsys.readouterr()
            assert cli.main(["metrics", "--out", str(out)]) == 0
            assert json.loads(capsys.readouterr().out) == stored, name

    def test_same_seed_reproduces_outputs(self, tmp_path):
        args = ["estimate", "--preset", "ngsim_like", "--penetration", "0.3", "--seed", "11"]
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        cli.main(args + ["--out", str(a)])
        cli.main(args + ["--out", str(b)])
        cli.main(["estimate", "--preset", "ngsim_like", "--penetration", "0.3", "--seed", "12", "--out", str(c)])
        assert (a / "estimates.csv").read_bytes() == (b / "estimates.csv").read_bytes()
        assert (a / "estimates.csv").read_bytes() != (c / "estimates.csv").read_bytes()

    def test_trajectory_source(self, tmp_path, read_summary):
        net = write_network(tmp_path / "net.json")
        traj = write_trajectories(tmp_path / "traj.csv")
        out = tmp_path / "est"
        code = cli.main(
            [
                "estimate",
                "--trajectories",
                str(traj),
                "--network",
                str(net),
                "--window",
                "1",
                "--warmup",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out / "estimates.csv")
        assert len(rows) == 2 * 2
        summary = read_summary(out)
        assert summary["metrics"]["horizon_steps"] == 2

    def test_detector_source(self, tmp_path, read_summary):
        net = write_network(tmp_path / "net.json")
        det = write_detectors(tmp_path / "det.csv")
        out = tmp_path / "est"
        code = cli.main(
            [
                "estimate",
                "--detectors",
                str(det),
                "--network",
                str(net),
                "--window",
                "1",
                "--warmup",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = read_summary(out)
        assert summary["metrics"]["horizon_steps"] == 11
        assert np.isfinite(summary["metrics"]["cv_rho"])

    def test_detector_source_echoes_no_window(self, tmp_path, read_summary):
        # Detector speeds are never smoothed, so no window is echoed.
        net = write_network(tmp_path / "net.json")
        det = write_detectors(tmp_path / "det.csv")
        out = tmp_path / "est"
        args = ["estimate", "--detectors", str(det), "--network", str(net), "--window", "5"]
        assert cli.main(args + ["--out", str(out)]) == 0
        assert read_summary(out)["config"]["window"] is None

    @pytest.mark.parametrize("source", ["preset", "trajectories", "detectors"])
    def test_echo_names_only_the_flags_a_source_reads(self, tmp_path, read_summary, source):
        out = tmp_path / "est"
        args = estimate_args(tmp_path, source) + ["--penetration", "0.5", "--window", "2", "--warmup", "0"]
        assert cli.main(args + ["--out", str(out)]) == 0
        config = read_summary(out)["config"]
        echoed = {key: config[key] for key in ("penetration", "speed_spread", "window")}
        assert echoed == {
            "preset": {"penetration": 0.5, "speed_spread": 3.0, "window": 2},
            "trajectories": {"penetration": 0.5, "speed_spread": None, "window": 2},
            "detectors": {"penetration": None, "speed_spread": None, "window": None},
        }[source]

    def test_trajectory_source_echoes_its_lane_flags(self, tmp_path, read_summary):
        net = tmp_path / "net.json"
        payload = json.loads(write_network(net).read_text())
        payload["segments"][0]["ramp"] = "on_ramp"
        net.write_text(json.dumps(payload))
        traj = write_trajectories(tmp_path / "traj.csv")
        out = tmp_path / "est"
        args = ["estimate", "--trajectories", str(traj), "--network", str(net), "--warmup", "0"]
        args += ["--exclude-lanes", "4,3", "--ramp-lane", "1:9", "--out", str(out)]
        assert cli.main(args) == 0
        assert read_summary(out)["config"]["source"] == {
            "trajectories": str(traj),
            "network": str(net),
            "exclude_lanes": [3, 4],
            "ramp_lane": ["1:9"],
        }

    @pytest.mark.parametrize("noise", [[], ["--flow-noise-std", "20"]], ids=["no-noise", "flow-noise"])
    def test_negative_detector_speed_is_held_with_clamp_noise(self, tmp_path, noise):
        # A detector reports a negative speed, a fault code: it is a missing
        # reading that holds the previous speed, and --clamp-noise never sees
        # it, with or without noise on the flows.
        net = write_network(tmp_path / "net.json")
        det = write_detectors(tmp_path / "det.csv")
        lines = det.read_text().splitlines()
        bad = lines.index("500.0,20,2700.0,90.0")
        lines[bad] = "500.0,20,2700.0,-12.0"
        det.write_text("\n".join(lines) + "\n")
        out = tmp_path / "est"
        args = ["estimate", "--detectors", str(det), "--network", str(net), "--warmup", "0"]
        args += [*noise, "--clamp-noise", "--out", str(out)]
        assert cli.main(args) == 0
        header, rows = read_csv(out / "estimates.csv")
        v_used = {(int(r[0]), int(r[1])): float(r[header.index("v_used")]) for r in rows}
        assert v_used[(4, 1)] == 90.0
        assert min(v_used.values()) == 90.0

    def test_detector_truth_uses_the_filter_speed_floor(self, tmp_path, read_summary):
        # The exit detector reads exactly the floor speed at even steps: its
        # density truth is missing exactly where the filter holds its reading.
        net = write_network(tmp_path / "net.json")
        det = tmp_path / "det.csv"
        lines = ["detector_pos_m,t_s,flow_vph,speed_kmh"]
        for k in range(11):
            exit_speed = kalman.V_FLOOR_KMH + (k % 2)
            lines += [f"0.0,{5 * k},2700.0,90.0", f"500.0,{5 * k},2700.0,90.0"]
            lines.append(f"1000.0,{5 * k},2700.0,{exit_speed}")
        det.write_text("\n".join(lines) + "\n")
        out = tmp_path / "est"
        args = ["estimate", "--detectors", str(det), "--network", str(net), "--warmup", "0"]
        assert cli.main(args + ["--out", str(out)]) == 0
        _, rows = read_csv(out / "estimates.csv")
        blank = [int(r[0]) for r in rows if r[1] == "2" and r[2] == ""]
        assert blank == [0, 2, 4, 6, 8, 10]
        summary = read_summary(out)
        assert summary["held_measurement_steps"] == len(blank)

    def test_summary_counts_held_entry_flows(self, tmp_path, read_summary):
        net = write_network(tmp_path / "net.json")
        det = write_detectors(tmp_path / "det.csv")
        # The entry detector drops two samples.
        dropped = {"0.0,10,2700.0,90.0", "0.0,30,2700.0,90.0"}
        kept = [r for r in det.read_text().splitlines() if r not in dropped]
        det.write_text("\n".join(kept) + "\n")
        out = tmp_path / "est"
        args = ["estimate", "--detectors", str(det), "--network", str(net), "--warmup", "0"]
        assert cli.main(args + ["--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["held_entry_steps"] == 2

    def test_summary_counts_held_ramp_flows(self, tmp_path, monkeypatch, read_summary):
        # Lane counts are never missing, so the count drops two of them.
        real = sensing.lane_transition_flow

        def gapped(*args):
            flow = real(*args)
            flow[[0, 1]] = np.nan
            return flow

        monkeypatch.setattr(sensing, "lane_transition_flow", gapped)
        net = tmp_path / "net.json"
        payload = json.loads(write_network(net).read_text())
        payload["segments"][1].update(ramp="on_ramp", ramp_measured=True)
        net.write_text(json.dumps(payload))
        out = tmp_path / "est"
        args = ["estimate", "--trajectories", str(write_trajectories(tmp_path / "t.csv")), "--network", str(net)]
        assert cli.main([*args, "--ramp-lane", "2:4", "--warmup", "0", "--out", str(out)]) == 0
        summary = read_summary(out)
        assert (summary["held_entry_steps"], summary["held_ramp_steps"]) == (0, 2)

    def test_q_ramp_is_null_without_ramp_states(self, tmp_path, read_summary):
        net = write_network(tmp_path / "net.json")
        traj = write_trajectories(tmp_path / "traj.csv")
        out = tmp_path / "est"
        args = ["estimate", "--trajectories", str(traj), "--network", str(net), "--warmup", "0"]
        assert cli.main(args + ["--q-density", "7.0", "--out", str(out)]) == 0
        tuning = read_summary(out)["config"]["tuning"]
        assert tuning["q_density"] == 7.0
        assert tuning["q_ramp"] is None
        assert tuning["initial_ramp"] is None

    def test_network_flag_required_for_file_sources(self, tmp_path):
        traj = write_trajectories(tmp_path / "traj.csv")
        with pytest.raises(SystemExit):
            cli.main(["estimate", "--trajectories", str(traj), "--out", str(tmp_path / "o")])

    def test_missing_trajectory_file_exits_two(self, tmp_path, capsys):
        net = write_network(tmp_path / "net.json")
        code = cli.main(
            [
                "estimate",
                "--trajectories",
                str(tmp_path / "nope.csv"),
                "--network",
                str(net),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["trajectories", "network", "out"])
    def test_unusable_paths_exit_two_with_one_line(self, tmp_path, capsys, target):
        # A directory where a file is read, or a file where the output
        # directory goes: one error line, no traceback.
        paths = {
            "trajectories": write_trajectories(tmp_path / "t.csv"),
            "network": write_network(tmp_path / "net.json"),
            "out": tmp_path / "o",
        }
        if target == "out":
            paths["out"].write_text("")
        else:
            paths[target] = tmp_path / "a_directory"
            paths[target].mkdir()
        args = ["estimate", "--trajectories", str(paths["trajectories"]), "--network", str(paths["network"])]
        assert cli.main([*args, "--warmup", "0", "--out", str(paths["out"])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and str(paths[target]) in err and err.count("\n") == 1

    def test_strict_cfl_exits_one(self, tmp_path, capsys, read_summary):
        # 90 km/h over 50 m segments at a 5 s step breaks the bound.
        net = write_network(tmp_path / "net.json", length_km=0.05)
        det = write_detectors(tmp_path / "det.csv", speed=90.0, positions=(0.0, 50.0, 100.0))
        base = [
            "estimate",
            "--detectors",
            str(det),
            "--network",
            str(net),
            "--warmup",
            "0",
        ]
        strict = cli.main(base + ["--strict-cfl", "--out", str(tmp_path / "strict")])
        assert strict == 1
        assert "error:" in capsys.readouterr().err
        relaxed = cli.main(base + ["--out", str(tmp_path / "relaxed")])
        assert relaxed == 0
        summary = read_summary(tmp_path / "relaxed")
        assert summary["cfl"]["violations"] > 0


class TestSweep:
    def test_small_sweep_csv(self, tmp_path, capsys, read_summary):
        out = tmp_path / "sweep"
        code = cli.main(
            [
                "sweep",
                "--preset",
                "ngsim_like",
                "--p",
                "0.2,1.0",
                "--reps",
                "2",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "wrote 4 rows" in capsys.readouterr().out

        header, rows = read_csv(out / "sweep.csv")
        assert header == ["p", "variant", "mean_cv_rho", "std_cv_rho", "mean_w"]
        assert len(rows) == 4
        variants = {(float(r[0]), r[1]) for r in rows}
        assert variants == {
            (0.2, "instantaneous"),
            (0.2, "moving_average"),
            (1.0, "instantaneous"),
            (1.0, "moving_average"),
        }
        by_key = {(float(r[0]), r[1]): r for r in rows}
        # Full penetration takes the exact path, so repetitions agree.
        assert float(by_key[(1.0, "instantaneous")][3]) == 0.0
        for r in rows:
            assert np.isfinite(float(r[2])) and float(r[2]) > 0.0

        assert read_summary(out)["config"]["p_values"] == [0.2, 1.0]

    def test_numeric_fields_are_the_repr_of_their_value(self, tmp_path):
        out = tmp_path / "sweep"
        args = ["sweep", "--preset", "ngsim_like", "--p", "0.05,1", "--reps", "2", "--seed", "3"]
        assert cli.main([*args, "--out", str(out)]) == 0
        text = (out / "sweep.csv").read_bytes().decode()
        assert "\r" not in text
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert len(rows) == 4
        for row in rows:
            for field in (row[0], *row[2:]):
                assert repr(float(field)) == field

    def test_bad_p_specs_abort(self, tmp_path, capsys):
        base = ["sweep", "--preset", "ngsim_like", "--reps", "1", "--out", str(tmp_path / "o")]
        for spec in ("0.5,oops", "1.5", "nan", "-0.1", ","):
            with pytest.raises(SystemExit) as exc:
                cli.main(base + ["--p", spec])
            assert exc.value.code == 2
            assert "argument --p" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rows_match_single_estimate_runs(self, tmp_path, read_summary):
        # One path from the clean measurements to the filter: each row of a
        # one-repetition sweep is the estimate run with the same seed, flags
        # and window (instantaneous: 1). A batch member matches a single run
        # to about 1e-12.
        flags = ["--seed", "5", "--flow-noise-std", "20", "--speed-noise-std", "2", "--clamp-noise", "--warmup", "20"]
        sweep = ["sweep", "--preset", "ngsim_like", "--p", "0.2", "--reps", "1", "--window", "3", *flags]
        assert cli.main([*sweep, "--out", str(tmp_path / "sweep")]) == 0
        header, rows = read_csv(tmp_path / "sweep" / "sweep.csv")
        by_variant = {r[1]: float(r[header.index("mean_cv_rho")]) for r in rows}
        for variant, window in (("instantaneous", "1"), ("moving_average", "3")):
            out = tmp_path / variant
            args = ["estimate", "--preset", "ngsim_like", "--penetration", "0.2", "--window", window, *flags]
            assert cli.main([*args, "--out", str(out)]) == 0
            assert by_variant[variant] == pytest.approx(read_summary(out)["metrics"]["cv_rho"], rel=1e-9, abs=0)

    def test_whole_rates_share_a_batch_under_the_state_cap(self, tmp_path, monkeypatch):
        # Two repetitions make 4 runs per rate, but p = 1.0 draws nothing
        # and filters 2. How rates are batched changes no output byte.
        sc = simulate.make_congestion_scenario("ngsim_like", 3)
        rate_bytes = 4 * (sc.n_steps + 1) * build_state_index(sc.cfg).dim * 8
        sizes = []
        real = kalman.run_filter_batch

        def spy(cfg, idx, tuning, runs, **kwargs):
            results = real(cfg, idx, tuning, runs, **kwargs)
            sizes.append(len(results))
            return results

        monkeypatch.setattr(kalman, "run_filter_batch", spy)
        outputs = []
        for cap, want in ((1, [4, 4, 2]), (2 * rate_bytes - 1, [4, 4, 2]), (2 * rate_bytes, [8, 2]), (10**9, [10])):
            monkeypatch.setattr(cli, "_BATCH_STATE_BYTES", cap)
            sizes.clear()
            out = tmp_path / str(cap)
            args = ["sweep", "--preset", "ngsim_like", "--p", "0.05,0.2,1.0", "--reps", "2", "--seed", "3"]
            assert cli.main([*args, "--out", str(out)]) == 0
            assert sizes == want, cap
            outputs.append([(out / name).read_bytes() for name in ("sweep.csv", "summary.json")])
        assert all(o == outputs[0] for o in outputs)

    def test_a_rate_that_draws_nothing_is_filtered_once(self, tmp_path, monkeypatch, read_summary):
        # Noiseless full penetration draws no random number, so its
        # repetitions are one run: one raw and one smoothed run are filtered,
        # and each row scores that run once per repetition. Speed noise
        # draws, so then every repetition is filtered. The mean of seven
        # equal scores need not be that score to the last bit.
        sizes = []
        real = kalman.run_filter_batch

        def spy(cfg, idx, tuning, runs, **kwargs):
            results = real(cfg, idx, tuning, runs, **kwargs)
            sizes.append(len(results))
            return results

        monkeypatch.setattr(kalman, "run_filter_batch", spy)
        reps, flags = 7, ["--preset", "ngsim_like", "--seed", "4", "--warmup", "20"]
        sweep = ["sweep", "--p", "1.0", "--reps", str(reps), "--window", "3", *flags]
        assert cli.main([*sweep, "--out", str(tmp_path / "sweep")]) == 0
        assert sizes == [2]
        assert cli.main([*sweep, "--speed-noise-std", "1", "--out", str(tmp_path / "noisy")]) == 0
        assert sizes == [2, 2 * reps]

        _, rows = read_csv(tmp_path / "sweep" / "sweep.csv")
        for row, window in zip(rows, ("1", "3")):
            out = tmp_path / f"estimate{window}"
            assert cli.main(["estimate", "--penetration", "1.0", "--window", window, *flags, "--out", str(out)]) == 0
            cvs = [read_summary(out)["metrics"]["cv_rho"]] * reps
            assert [float(row[2]), float(row[3])] == [float(np.mean(cvs)), float(np.std(cvs, ddof=1))]


@pytest.mark.parametrize("where", ["file", "under-a-file"])
@pytest.mark.parametrize("source", ["simulate", "preset", "trajectories", "detectors", "sweep"])
def test_out_that_cannot_be_a_directory_exits_two_before_any_work(tmp_path, capsys, monkeypatch, source, where):
    def unreachable(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for module, name in (
        (simulate, "make_congestion_scenario"),
        (simulate, "simulate_truth"),
        (sensing, "load_trajectories"),
        (sensing, "load_detectors"),
        (cli, "load_network"),
        (kalman, "run_filter_batch"),
    ):
        monkeypatch.setattr(module, name, unreachable)
    if source in ("simulate", "sweep"):
        args = [source, "--preset", "ngsim_like"]
    else:
        args = estimate_args(tmp_path, source)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker if where == "file" else blocker / "runs" / "o"
    assert cli.main([*args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{blocker}'\n"
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command", ["estimate", "sweep"])
@pytest.mark.parametrize("window", ["0", "-3"])
def test_window_below_one_exits_two(tmp_path, capsys, command, window):
    args = [command, "--preset", "ngsim_like", "--window", window, "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    assert "--window" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["estimate", "sweep"])
@pytest.mark.parametrize("spread", ["nan", "inf", "-3"])
def test_invalid_speed_spread_exits_two(tmp_path, capsys, command, spread):
    args = [command, "--preset", "ngsim_like", "--speed-spread", spread, "--out", str(tmp_path / "o")]
    if command == "estimate":
        args += ["--penetration", "0.05"]
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    assert "--speed-spread" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (command, flag, value)
        for command in ("estimate", "sweep")
        for flag in ("--flow-noise-std", "--speed-noise-std")
        for value in ("nan", "inf", "-3")
    ]
    + [("estimate", "--penetration", value) for value in ("nan", "inf", "-3", "1.5")]
    + [("estimate", "--warmup", value) for value in ("-5", "2.5")]
    + [("sweep", "--warmup", "-5")]
    + [("sweep", "--reps", value) for value in ("0", "-1")]
    + [("estimate", "--exclude-lanes", value) for value in ("a", "1,x")]
    + [("estimate", "--ramp-lane", value) for value in ("x", "4", "4:9:1", "4:b")],
)
def test_invalid_noise_or_penetration_exits_two(tmp_path, capsys, command, flag, value):
    args = [command, "--preset", "ngsim_like", flag, value, "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "source, good, bad",
    [
        ("--trajectories", "1,0.0,0.0,1,15.0", "1,nan,15.0,1,15.0"),
        ("--detectors", "0.0,0.0,2700.0,90.0", "0.0,inf,2700.0,90.0"),
    ],
)
def test_non_finite_input_row_exits_two(tmp_path, capsys, source, good, bad):
    header = {"--trajectories": "vehicle_id,t_s,x_m,lane,speed_mps", "--detectors": "detector_pos_m,t_s,flow_vph,speed_kmh"}
    data = tmp_path / "data.csv"
    data.write_text("\n".join([header[source], good, bad]) + "\n")
    net = write_network(tmp_path / "net.json")
    out = tmp_path / "o"
    assert cli.main(["estimate", source, str(data), "--network", str(net), "--out", str(out)]) == 2
    assert f"error: {data}:3: bad row" in capsys.readouterr().err
    assert not out.exists()


def test_vehicle_id_outside_int64_exits_two_naming_its_line(tmp_path, capsys):
    # The id sits in the second parse block, past 2 048 lines, and Python's
    # int would read it: the error must still name the file's own line.
    lines = ["vehicle_id,t_s,x_m,lane,speed_mps"]
    lines += [f"{i % 50},{i / 10},{i % 100 * 10.0},1,20.0" for i in range(3000)]
    lines[2501] = "99999999999999999999999" + lines[2501][lines[2501].index(",") :]
    data = tmp_path / "big.csv"
    data.write_text("\n".join(lines) + "\n")
    net = write_network(tmp_path / "net.json")
    out = tmp_path / "o"
    assert cli.main(["estimate", "--trajectories", str(data), "--network", str(net), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}:2502: bad row {{'vehicle_id': '99999999999999999999999'")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "source, column, cell",
    [
        ("--trajectories", "vehicle_id", "1_000"),
        ("--trajectories", "vehicle_id", "\u0663"),
        ("--trajectories", "lane", "\u0663"),
        ("--trajectories", "x_m", "1_0.5"),
        ("--trajectories", "x_m", "\u0663"),
        ("--detectors", "flow_vph", "1_0.5"),
    ],
    ids=["id-underscore", "id-non-ascii", "lane-non-ascii", "x-underscore", "x-non-ascii", "flow-underscore"],
)
def test_cell_only_python_reads_exits_two_naming_its_line(tmp_path, capsys, source, column, cell):
    # Python's int() and float() read these cells, np.loadtxt does not: the
    # error must name line 2 503, in the second parse block, not a row of it.
    if source == "--trajectories":
        lines = ["vehicle_id,t_s,x_m,lane,speed_mps"]
        lines += [f"{i % 50},{i / 10},{i % 100 * 10.0},1,20.0" for i in range(3000)]
    else:
        lines = ["detector_pos_m,t_s,flow_vph,speed_kmh"]
        lines += [f"{i % 2 * 1000.0},{i // 2 * 5.0},2700.0,90.0" for i in range(3000)]
    cells = lines[2502].split(",")
    cells[lines[0].split(",").index(column)] = cell
    lines[2502] = ",".join(cells)
    data = tmp_path / "big.csv"
    data.write_text("\n".join(lines) + "\n")
    net = write_network(tmp_path / "net.json")
    out = tmp_path / "o"
    assert cli.main(["estimate", source, str(data), "--network", str(net), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}:2503: bad row {{")
    assert f"'{column}': '{cell}'" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "source, column, cell",
    [("--trajectories", "x_m", '"2512.0"'), ("--detectors", "flow_vph", '"1000.0"')],
    ids=["trajectories", "detectors"],
)
def test_quoted_cell_exits_two_naming_its_line(tmp_path, capsys, source, column, cell):
    # np.loadtxt reads no quotes, Python's csv module strips them: the error
    # must name line 2 504, in the second parse block, and show the quotes.
    if source == "--trajectories":
        lines = ["vehicle_id,t_s,x_m,lane,speed_mps"]
        lines += [f"{i % 50},{i / 10},{i % 100 * 10.0},1,20.0" for i in range(3000)]
    else:
        lines = ["detector_pos_m,t_s,flow_vph,speed_kmh"]
        lines += [f"{i % 2 * 1000.0},{i // 2 * 5.0},2700.0,90.0" for i in range(3000)]
    cells = lines[2503].split(",")
    cells[lines[0].split(",").index(column)] = cell
    lines[2503] = ",".join(cells)
    data = tmp_path / "big.csv"
    data.write_text("\n".join(lines) + "\n")
    net = write_network(tmp_path / "net.json")
    out = tmp_path / "o"
    assert cli.main(["estimate", source, str(data), "--network", str(net), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}:2504: bad row {{")
    assert f"'{column}': '{cell}'" in err
    assert err.count("\n") == 1
    assert not out.exists()


# Each case writes one input file that cannot be used, and the error line
# that names it. A recording shorter than one step is judged after loading,
# without its path, like a detector file with no detector near a boundary.
UNUSABLE_INPUTS = {
    "summary-not-json": (
        "summary.json",
        "{'config': {}}",
        "{path}: not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    "summary-bad-network": (
        "summary.json",
        json.dumps({"config": {"network": {"time_step_h": 0.001, "segments": [{}]}}}),
        "{path}: config.network: segment 1: bad or missing length_km",
    ),
    "recording-too-short": (
        "t.csv",
        "vehicle_id,t_s,x_m,lane,speed_mps\n1,0,0.0,1,20.0\n1,3,60.0,1,20.0\n",
        "recording too short: 0 steps",
    ),
}


@pytest.mark.parametrize("case", list(UNUSABLE_INPUTS))
def test_unusable_input_exits_two_with_one_error_line(tmp_path, capsys, case):
    name, text, want = UNUSABLE_INPUTS[case]
    path = tmp_path / name
    path.write_text(text)
    if name == "summary.json":
        args = ["metrics", "--out", str(tmp_path)]
    else:
        net = write_network(tmp_path / "net.json")
        args = ["estimate", "--trajectories", str(path), "--network", str(net), "--out", str(tmp_path / "o")]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == f"error: {want.format(path=path)}\n"


@pytest.mark.parametrize("reader", ["network", "trajectories", "detectors", "summary", "estimates"])
def test_input_that_is_not_utf8_exits_two_naming_the_file(tmp_path, capsys, reader):
    # Every reader of a user file, on that file with a byte that is never
    # UTF-8: in a leading UTF-16 byte order mark for JSON, in the last row
    # for CSV.
    net = write_network(tmp_path / "net.json")
    (tmp_path / "summary.json").write_text(json.dumps({"config": {"network": json.loads(net.read_text())}}))
    row = ",".join(["0"] * len(cli._CSV_COLUMNS))
    (tmp_path / "estimates.csv").write_text(",".join(cli._CSV_COLUMNS) + "\n" + row + "\n")
    args, path = {
        "network": (["validate", "--network", str(net)], net),
        "trajectories": ([*estimate_args(tmp_path, "trajectories"), "--out", str(tmp_path / "o")], tmp_path / "t.csv"),
        "detectors": ([*estimate_args(tmp_path, "detectors"), "--out", str(tmp_path / "o")], tmp_path / "d.csv"),
        "summary": (["metrics", "--out", str(tmp_path)], tmp_path / "summary.json"),
        "estimates": (["metrics", "--out", str(tmp_path)], tmp_path / "estimates.csv"),
    }[reader]
    data = path.read_bytes()
    path.write_bytes(b"\xff\xfe" + data if path.suffix == ".json" else data[:-2] + b"\xff" + data[-2:])
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "can't decode byte 0xff" in err and err.count("\n") == 1


@pytest.mark.parametrize("source", ["preset", "detectors"])
@pytest.mark.parametrize("flag, value", [("--exclude-lanes", "4"), ("--ramp-lane", "4:9")])
def test_trajectory_only_flags_exit_two_on_other_sources(tmp_path, capsys, source, flag, value):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli.main([*estimate_args(tmp_path, source), flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert "apply to --trajectories only" in capsys.readouterr().err
    assert not out.exists()


def test_ramp_lane_segment_given_twice_exits_two(tmp_path, capsys):
    out = tmp_path / "o"
    rules = ["--ramp-lane", "1:9", "--ramp-lane", "1:8"]
    with pytest.raises(SystemExit) as exc:
        cli.main([*estimate_args(tmp_path, "trajectories"), *rules, "--out", str(out)])
    assert exc.value.code == 2
    assert "--ramp-lane names a segment more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "rule, message",
    [("9:4", "--ramp-lane segment 9 outside 1..2"), ("1:4", "--ramp-lane segment 1 carries no ramp in the network")],
    ids=["outside-the-network", "segment-without-a-ramp"],
)
def test_ramp_lane_the_network_rejects_exits_two(tmp_path, capsys, rule, message):
    out = tmp_path / "o"
    assert cli.main([*estimate_args(tmp_path, "trajectories"), "--ramp-lane", rule, "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_measured_ramp_without_a_lane_rule_exits_two_before_loading(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the trajectory file was read before the lane rules were checked")

    monkeypatch.setattr(sensing, "load_trajectories", unreachable)
    net = tmp_path / "net.json"
    payload = json.loads(write_network(net).read_text())
    payload["segments"][1].update(ramp="on_ramp", ramp_measured=True)
    net.write_text(json.dumps(payload))
    out = tmp_path / "o"
    args = ["estimate", "--trajectories", str(write_trajectories(tmp_path / "t.csv")), "--network", str(net)]
    assert cli.main([*args, "--out", str(out)]) == 2
    assert "error: measured ramps without a --ramp-lane rule: [2]" in capsys.readouterr().err
    assert not out.exists()


def test_detectors_on_a_network_with_a_measured_ramp_exit_two(tmp_path, capsys):
    # Detectors count no ramp flow; the run must not feed the ramp a silent zero.
    net = tmp_path / "net.json"
    payload = json.loads(write_network(net, n=3, sensors=(3,)).read_text())
    for seg in (1, 2):
        payload["segments"][seg].update(ramp="on_ramp", ramp_measured=True)
    net.write_text(json.dumps(payload))
    out = tmp_path / "o"
    det = write_detectors(tmp_path / "d.csv", positions=(0.0, 500.0, 1000.0, 1500.0))
    assert cli.main(["estimate", "--detectors", str(det), "--network", str(net), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: detectors count no ramp flow, but the network measures ramps at segments [2, 3]\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"time_step_h": 0}, "time_step_h must be positive and finite, got 0.0"),
        ({"time_step_h": -0.001}, "time_step_h must be positive and finite, got -0.001"),
        ({"length_km": 0}, "segment 1: length_km must be positive and finite, got 0.0"),
        ({"length_km": -0.5}, "segment 1: length_km must be positive and finite, got -0.5"),
        ({"sensors": (0, 2)}, "flow_sensors outside 1..2: [0]"),
        ({"sensors": (2, 9)}, "flow_sensors outside 1..2: [9]"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "trajectories", "detectors"])
def test_structural_network_error_exits_two_before_ingestion(tmp_path, capsys, command, change, message):
    out = tmp_path / "o"
    if command == "validate":
        args = ["validate", "--network", str(tmp_path / "net.json")]
    else:
        args = [*estimate_args(tmp_path, command), "--out", str(out)]
    # Written last, over the valid network that estimate_args writes.
    net = write_network(tmp_path / "net.json", **change)
    assert cli.main(args) == 2
    assert capsys.readouterr().err == f"error: {net}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("exists", [True, False], ids=["file", "missing-file"])
def test_network_with_a_preset_exits_two(tmp_path, capsys, exists):
    net = write_network(tmp_path / "net.json") if exists else tmp_path / "nope.json"
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli.main(["estimate", "--preset", "ngsim_like", "--network", str(net), "--out", str(out)])
    assert exc.value.code == 2
    assert "--network applies to --trajectories/--detectors only" in capsys.readouterr().err
    assert not out.exists()


# The config keys ``estimate`` and ``sweep`` both echo.
SHARED_ECHO = set(
    "seed window speed_spread flow_noise_std speed_noise_std clamp_noise warmup strict_cfl clamp_output network tuning".split()
)


@pytest.mark.parametrize("source", ["preset", "trajectories", "detectors", "sweep"])
def test_clamp_noise_is_the_only_echo_difference(tmp_path, read_summary, source):
    # None of these inputs has a negative reading, so --clamp-noise changes
    # no output; the summary still records that it was set.
    if source == "sweep":
        args = ["sweep", "--preset", "ngsim_like", "--p", "1.0", "--reps", "1"]
    else:
        args = estimate_args(tmp_path, source)
    plain, clamped = tmp_path / "plain", tmp_path / "clamped"
    assert cli.main([*args, "--warmup", "0", "--out", str(plain)]) == 0
    assert cli.main([*args, "--warmup", "0", "--clamp-noise", "--out", str(clamped)]) == 0
    plain, clamped = read_summary(plain), read_summary(clamped)
    assert SHARED_ECHO <= set(clamped["config"])
    assert (plain["config"].pop("clamp_noise"), clamped["config"].pop("clamp_noise")) == (False, True)
    assert plain == clamped


@pytest.mark.parametrize("source, steps", [("preset", 360), ("trajectories", 2), ("detectors", 11), ("sweep", 360)])
def test_warmup_beyond_the_horizon_exits_one_before_filtering(tmp_path, capsys, monkeypatch, source, steps):
    def unreachable(*args, **kwargs):
        raise AssertionError("the filter ran before the warm-up was checked")

    monkeypatch.setattr(kalman, "run_filter_batch", unreachable)
    out = tmp_path / "o"
    if source == "sweep":
        args = ["sweep", "--preset", "ngsim_like", "--p", "1.0", "--reps", "1"]
    else:
        args = estimate_args(tmp_path, source)
    assert cli.main([*args, "--warmup", str(steps), "--out", str(out)]) == 1
    assert f"error: warmup {steps} outside horizon of {steps} steps" in capsys.readouterr().err
    assert not out.exists()


def test_trajectory_speed_noise_is_added_before_smoothing(tmp_path, monkeypatch):
    # Eight vehicles at 20 m/s, one entering every 4 s, sampled at 1 Hz.
    lines = ["vehicle_id,t_s,x_m,lane,speed_mps"]
    for vid in range(1, 9):
        lines += [f"{vid},{4 * vid + s},{-40.0 + 20.0 * s},1,20.0" for s in range(61)]
    path = tmp_path / "traj.csv"
    path.write_text("\n".join(lines) + "\n")
    net = write_network(tmp_path / "net.json")
    seen = []
    real = kalman.run_filter

    def spy(cfg, idx, tuning, meas, **kwargs):
        seen.append(meas)
        return real(cfg, idx, tuning, meas, **kwargs)

    monkeypatch.setattr(kalman, "run_filter", spy)
    args = ["estimate", "--trajectories", str(path), "--network", str(net), "--penetration", "0.5", "--seed", "3"]
    args += ["--speed-noise-std", "6", "--window", "3", "--warmup", "0", "--out", str(tmp_path / "o")]
    assert cli.main(args) == 0

    cfg, traj = load_network(net), sensing.load_trajectories(path)

    def clean():
        rng = np.random.default_rng(cli._rep_seeds(3, 1)[0])
        return sensing.frames_from_trajectories(traj, cfg, 0.5, rng), rng

    meas, rng = clean()
    want = sensing.moving_average_speed(sensing.add_measurement_noise(meas, rng, speed_std_kmh=6.0).speeds_kmh, 3)
    assert seen[0].speeds_kmh.tobytes() == want.tobytes()
    # Noise added after smoothing gives other speeds.
    meas, rng = clean()
    smoothed = cli._smoothed(meas, 3)
    late = sensing.add_measurement_noise(smoothed, rng, speed_std_kmh=6.0).speeds_kmh
    assert not np.array_equal(late, want, equal_nan=True)


def test_trajectory_run_evaluates_the_step_grid_once(tmp_path, monkeypatch):
    # The probe speeds, the density truth and the all-vehicle speed truth
    # share one evaluation of the step grid.
    calls = []
    real = sensing._step_grid

    def counted(*args, **kwargs):
        calls.append(args[1].size)
        return real(*args, **kwargs)

    monkeypatch.setattr(sensing, "_step_grid", counted)
    net = write_network(tmp_path / "net.json")
    traj = write_trajectories(tmp_path / "traj.csv")
    args = ["estimate", "--trajectories", str(traj), "--network", str(net), "--penetration", "0.5"]
    assert cli.main(args + ["--warmup", "0", "--out", str(tmp_path / "o")]) == 0
    assert calls == [2]


def test_row_order_changes_no_output_byte(tmp_path):
    # Eight vehicles at different speeds share the first segment for 30 s,
    # so each mean speed adds up more than two values.
    lines = [
        f"{vid},{t},{5.0 * vid + (vid + 3.1) * t / 1.7!r},1,{(vid + 3.1) / 1.7 + t / 13.0!r}"
        for vid in range(1, 9)
        for t in range(31)
    ]
    net = write_network(tmp_path / "net.json")
    header = "vehicle_id,t_s,x_m,lane,speed_mps\n"
    shuffled = [lines[i] for i in np.random.default_rng(5).permutation(len(lines))]
    digests = []
    for name, rows in (("ordered", lines), ("shuffled", shuffled), ("descending", lines[::-1])):
        (tmp_path / f"{name}.csv").write_text(header + "\n".join(rows) + "\n")
        out = tmp_path / name
        args = ["estimate", "--trajectories", str(tmp_path / f"{name}.csv"), "--network", str(net)]
        assert cli.main([*args, "--warmup", "0", "--out", str(out)]) == 0
        digests.append((out / "estimates.csv").read_bytes())
    assert digests[1] == digests[0] and digests[2] == digests[0]


def _blank_q_sensor(out_dir, n_segments):
    """(K, N) mask of the empty ``q_sensor`` fields of a run's estimates.csv."""
    header, rows = read_csv(out_dir / "estimates.csv")
    column = header.index("q_sensor")
    return np.array([row[column] == "" for row in rows]).reshape(-1, n_segments)


class TestFlowTableLayout:
    """Only boundary 0 and the sensor boundaries carry flows, and estimates.csv shows just those.

    ``test_simulate`` holds the same property for ``synthetic_measurements``.
    """

    @settings(max_examples=25)
    @given(
        source=st.sampled_from(["trajectories", "detectors"]),
        n=st.integers(1, 4),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_flows_off_the_sensors_are_missing_and_written_blank(self, tmp_path_factory, source, n, data, seed):
        sensors = data.draw(st.sets(st.integers(1, n), min_size=1), label="sensors")
        rng = np.random.default_rng(seed)
        tmp = tmp_path_factory.mktemp("layout")
        net = write_network(tmp / "net.json", n=n, sensors=sorted(sensors))
        cfg = load_network(net)
        data_file = tmp / "in.csv"
        if source == "trajectories":
            # A few vehicles at constant speeds, some starting inside the stretch.
            lines = ["vehicle_id,t_s,x_m,lane,speed_mps"]
            for vid in range(1, int(rng.integers(2, 6))):
                x0, v, t0 = rng.uniform(-100.0, 500.0 * n), rng.uniform(5.0, 40.0), rng.integers(0, 10)
                lines += [f"{vid},{t0 + t},{x0 + v * t!r},1,{v!r}" for t in range(25)]
        else:
            # A detector at every boundary; about a fifth of the readings missing.
            lines = ["detector_pos_m,t_s,flow_vph,speed_kmh"]
            for t in range(0, 60, 5):
                for b in range(n + 1):
                    flow = "nan" if rng.random() < 0.2 else repr(rng.uniform(0.0, 3000.0))
                    lines.append(f"{500.0 * b},{t},{flow},{rng.uniform(20.0, 110.0)!r}")
        data_file.write_text("\n".join(lines) + "\n")
        if source == "trajectories":
            meas = sensing.frames_from_trajectories(sensing.load_trajectories(data_file), cfg, 1.0, rng)
        else:
            meas = sensing.frames_from_detectors(sensing.load_detectors(data_file), cfg)
        off = [b for b in range(1, n + 1) if b not in sensors]
        assert np.isnan(meas.flows_vph[:, off]).all()
        out = tmp / "out"
        args = ["estimate", f"--{source}", str(data_file), "--network", str(net), "--warmup", "0"]
        assert cli.main([*args, "--out", str(out)]) == 0
        assert np.array_equal(_blank_q_sensor(out, n), np.isnan(meas.flows_vph[:, 1:]))

    @pytest.mark.parametrize("preset", simulate.PRESET_NAMES)
    def test_preset_q_sensor_is_blank_off_the_sensors(self, tmp_path, preset):
        assert cli.main(["estimate", "--preset", preset, "--seed", "1", "--out", str(tmp_path)]) == 0
        cfg = simulate.make_congestion_scenario(preset, 1).cfg
        blank = _blank_q_sensor(tmp_path, cfg.n_segments)
        sensor = np.isin(np.arange(1, cfg.n_segments + 1), sorted(cfg.flow_sensor_segments))
        assert np.array_equal(blank, np.broadcast_to(~sensor, blank.shape))


class TestMetricsCommand:
    def run_dir(self, tmp_path):
        out = tmp_path / "est"
        assert cli.main(["estimate", "--preset", "ngsim_like", "--window", "1", "--out", str(out)]) == 0
        return out

    def test_header_mismatch_aborts(self, tmp_path, capsys):
        out = self.run_dir(tmp_path)
        (out / "estimates.csv").write_text("k,segment,weird\n0,1,2\n")
        capsys.readouterr()
        assert cli.main(["metrics", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {out / 'estimates.csv'}: unexpected header")

    @pytest.mark.parametrize("change", ["missing", "extra", "reordered"])
    def test_rows_off_the_step_grid_exit_two(self, tmp_path, capsys, change):
        # ngsim_like writes 360 steps x 8 segments = 2880 rows.
        out = self.run_dir(tmp_path)
        header, *rows = (out / "estimates.csv").read_text().splitlines()
        if change == "missing":
            rows = rows[:-1]
        elif change == "extra":
            rows = rows + rows[-1:]
        else:
            rows[0], rows[1] = rows[1], rows[0]
        (out / "estimates.csv").write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        assert cli.main(["metrics", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {out / 'estimates.csv'}: the k and segment columns of its {len(rows)} rows"
            " do not form a grid of steps x 8 segments\n"
        )

    @pytest.mark.parametrize(
        "line, want",
        [("7,2,1.0,2.0,3.0,4.0,5.0,6.0", "expected 9 fields, got 8"), ("7,2,1.0,x,3.0,4.0,5.0,6.0,7.0", "'x'")],
        ids=["missing-field", "not-a-number"],
    )
    def test_malformed_row_exits_two_naming_its_line(self, tmp_path, capsys, line, want):
        out = self.run_dir(tmp_path)
        header, *rows = (out / "estimates.csv").read_text().splitlines()
        rows[57] = line
        (out / "estimates.csv").write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        assert cli.main(["metrics", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'estimates.csv'}:59: ") and want in err and err.count("\n") == 1

    @pytest.mark.parametrize("drop", ["config", "network"])
    def test_summary_without_a_network_exits_two(self, tmp_path, capsys, drop):
        out = self.run_dir(tmp_path)
        summary = json.loads((out / "summary.json").read_text())
        del (summary if drop == "config" else summary["config"])[drop]
        (out / "summary.json").write_text(json.dumps(summary))
        capsys.readouterr()
        assert cli.main(["metrics", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {out / 'summary.json'}: no config.network block\n"

    @pytest.mark.parametrize("warmup", [None, 2.7, "x", -5, True])
    def test_summary_with_a_bad_warmup_exits_two(self, tmp_path, capsys, warmup):
        out = self.run_dir(tmp_path)
        summary = json.loads((out / "summary.json").read_text())
        summary["config"]["warmup"] = warmup
        (out / "summary.json").write_text(json.dumps(summary))
        capsys.readouterr()
        assert cli.main(["metrics", "--out", str(out)]) == 2
        want = f"error: {out / 'summary.json'}: config.warmup must be an integer >= 0, got {json.dumps(warmup)}\n"
        assert capsys.readouterr().err == want

    def test_network_round_trips_through_the_summary(self, tmp_path, monkeypatch, read_summary):
        # The network echoed in summary.json is the one metrics rebuilds,
        # entry_flow_measured included.
        net = tmp_path / "net.json"
        payload = json.loads(write_network(net).read_text())
        payload["entry_flow_measured"] = False
        net.write_text(json.dumps(payload))
        out = tmp_path / "est"
        args = ["estimate", "--trajectories", str(write_trajectories(tmp_path / "traj.csv"))]
        assert cli.main(args + ["--network", str(net), "--warmup", "0", "--out", str(out)]) == 0
        echoed = read_summary(out)["config"]["network"]
        assert echoed == payload

        seen = []
        real = metrics.speed_error_covariance

        def spy(rho, v_used, v_true, cfg, **kwargs):
            seen.append(cfg)
            return real(rho, v_used, v_true, cfg, **kwargs)

        monkeypatch.setattr(metrics, "speed_error_covariance", spy)
        assert cli.main(["metrics", "--out", str(out)]) == 0
        assert seen == [NetworkConfig.from_dict(payload)]
        assert seen[0].entry_flow_measured is False


def test_run_metrics_holds_one_table_and_one_block():
    # A detector run's columns: density truth at every tenth segment only,
    # no ramp truth or estimate. Scoring them allocates one (K, N) float
    # table and one block of the speed-error metric, with one block more of
    # slack for bool masks and numpy's ufunc buffer; the full-size copies of
    # the truth it once made would need 1.87 MiB here.
    K, N = 300, 200
    sensors = list(range(9, N, 10))
    cfg = NetworkConfig(
        segments=tuple(Segment(0.5) for _ in range(N)),
        flow_sensor_segments=frozenset(s + 1 for s in sensors),
        time_step_h=5 / 3600,
    )
    rng = np.random.default_rng(3)
    rho_true = np.full((K, N), np.nan)
    rho_true[:, sensors] = rng.uniform(10.0, 60.0, (K, len(sensors)))
    no_value = np.broadcast_to(np.nan, (K, N))
    columns = {
        "rho_true": rho_true,
        "rho_est": rng.uniform(10.0, 60.0, (K, N)),
        "v_used": rng.uniform(20.0, 100.0, (K, N)),
        "q_sensor": no_value,
        "v_true": rng.uniform(20.0, 100.0, (K, N)),
        "ramp_flow_true": no_value,
        "ramp_flow_est": no_value,
    }
    tracemalloc.start()
    try:
        block = cli._run_metrics(cfg, columns, metrics.DEFAULT_WARMUP_STEPS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block["speed_error_covariance_w"] > 0.0
    assert peak <= (K * N + 2 * metrics._BLOCK_CELLS) * np.dtype(float).itemsize


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--q-density", "inf", "process_cov"),
        ("--meas-var", "inf", "measurement_cov"),
        ("--init-mean", "nan", "initial_mean"),
        ("--init-var", "inf", "initial_cov"),
    ],
)
def test_non_finite_tuning_exits_one(tmp_path, capsys, flag, value, field):
    out = tmp_path / "o"
    assert cli.main(["estimate", "--preset", "ngsim_like", flag, value, "--out", str(out)]) == 1
    assert f"error: {field} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "source, ingest",
    [
        ("preset", (simulate, "simulate_truth")),
        ("trajectories", (sensing, "load_trajectories")),
        ("detectors", (sensing, "load_detectors")),
        ("sweep", (simulate, "simulate_truth")),
    ],
)
def test_tuning_is_checked_before_ingestion(tmp_path, capsys, monkeypatch, source, ingest):
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{ingest[1]} ran before the tuning flags were checked")

    monkeypatch.setattr(*ingest, unreachable)
    out = tmp_path / "o"
    args = ["sweep", "--preset", "ngsim_like"] if source == "sweep" else estimate_args(tmp_path, source)
    assert cli.main([*args, "--meas-var", "inf", "--out", str(out)]) == 1
    assert "error: measurement_cov must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_import_loads_no_scipy():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, trafficstate.cli; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()


def test_runs_load_only_the_numpy_modules_they_use(tmp_path):
    # pytest has loaded both modules already, so each run gets a fresh interpreter.
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = {
        "numpy.random": estimate_args(tmp_path, "detectors") + ["--clamp-noise"],
        "numpy.ma": estimate_args(tmp_path, "trajectories") + ["--penetration", "0.5"],
    }
    for module, args in runs.items():
        args = [*args, "--warmup", "0", "--out", str(tmp_path / module)]
        code = f"import sys; from trafficstate import cli; assert cli.main({args!r}) == 0; sys.exit({module!r} in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True)
        assert proc.returncode == 0, (module, proc.stderr.decode())


# The per-cell writers the columnar grid writer replaced, kept verbatim as
# oracles for its output bytes.


def _oracle_fmt(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if not math.isfinite(x):
        return ""
    return repr(x)


def _oracle_estimates_csv(path, cfg, meas, filter_result, *, rho_true, v_true, ramp_true, ramp_est):
    _fmt = _oracle_fmt
    n = cfg.n_segments
    K = meas.n_steps
    q_sensor = meas.flows_vph[:, 1:]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cli._CSV_COLUMNS)
        for k in range(K):
            for i in range(1, n + 1):
                writer.writerow(
                    [
                        k,
                        i,
                        _fmt(rho_true[k, i - 1]) if rho_true is not None else "",
                        _fmt(filter_result.densities[k, i - 1]),
                        _fmt(filter_result.speeds_used[k, i - 1]),
                        _fmt(q_sensor[k, i - 1]),
                        _fmt(v_true[k, i - 1]) if v_true is not None else "",
                        _fmt(ramp_true[i][k]) if i in ramp_true else "",
                        _fmt(ramp_est[i][k]) if i in ramp_est else "",
                    ]
                )


def _oracle_truth_csv(path, n_steps, n_segments, densities, speeds, flows):
    _fmt = _oracle_fmt
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "segment", "rho_true", "v_true", "q_true"])
        for k in range(n_steps):
            for i in range(1, n_segments + 1):
                writer.writerow(
                    [
                        k,
                        i,
                        _fmt(densities[k, i - 1]),
                        _fmt(speeds[k, i - 1]),
                        _fmt(flows[k, i - 1]),
                    ]
                )


_CELL_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [
            math.nan,
            math.inf,
            -math.inf,
            -0.0,
            0.0,
            5e-324,
            -2.225073858507201e-308,
            0.30000000000000004,
            1.2345678901234567,
            -9.876543210987654e-05,
            123456789.01234567,
        ]
    ),
)


def _tables(K: int, N: int, count: int):
    return st.lists(hnp.arrays(np.float64, (K, N), elements=_CELL_VALUES), min_size=count, max_size=count)


def _assert_unquoted_grid(path, n_columns: int, n_rows: int) -> None:
    text = path.read_text()
    assert '"' not in text
    lines = text.split("\n")
    assert lines[-1] == "" and len(lines) == n_rows + 2
    assert all(line.count(",") == n_columns - 1 for line in lines[:-1])


@settings(max_examples=60)
@given(data=st.data())
def test_grid_writer_matches_the_per_cell_writer(tmp_path_factory, data):
    K = data.draw(st.integers(1, 9), label="K")
    N = data.draw(st.integers(1, 6), label="N")
    block_rows = data.draw(st.integers(1, 2 * K * N + 1), label="block_rows")
    rho_true, states, speeds_used, speeds, v_true, ramp_values = data.draw(_tables(K, N, 6))
    extra_row = data.draw(hnp.arrays(np.float64, (1, N), elements=_CELL_VALUES))
    sensors = data.draw(st.sets(st.integers(1, N)), label="sensors")
    sensor_rows = data.draw(_tables(K, N, 1))[0]
    truth_ramps = data.draw(st.sets(st.integers(1, N)), label="truth_ramps")
    est_ramps = data.draw(st.sets(st.integers(1, N)), label="est_ramps")
    absent = data.draw(st.sets(st.sampled_from(["rho_true", "v_true"])), label="absent")

    cfg = NetworkConfig(segments=tuple(Segment(0.5) for _ in range(N)), flow_sensor_segments=frozenset({N}), time_step_h=5 / 3600)
    flows = np.full((K, N + 1), np.nan)
    flows[:, 0] = 1000.0
    for seg in sensors:
        flows[:, seg] = sensor_rows[:, seg - 1]
    meas = Measurements(speeds, flows)
    # Filter densities carry one more row than there are steps.
    result = SimpleNamespace(densities=np.vstack([states, extra_row]), speeds_used=speeds_used)
    kwargs = dict(
        rho_true=None if "rho_true" in absent else rho_true,
        v_true=None if "v_true" in absent else v_true,
        ramp_true={seg: ramp_values[:, seg - 1] for seg in truth_ramps},
        ramp_est={seg: -ramp_values[:, seg - 1] for seg in est_ramps},
    )
    columns = {
        "rho_true": kwargs["rho_true"],
        "rho_est": result.densities,
        "v_used": speeds_used,
        "q_sensor": meas.flows_vph[:, 1:],
        "v_true": kwargs["v_true"],
        "ramp_flow_true": _step_table(K, N, {seg - 1: q for seg, q in kwargs["ramp_true"].items()}),
        "ramp_flow_est": _step_table(K, N, {seg - 1: q for seg, q in kwargs["ramp_est"].items()}),
    }
    assert ["k", "segment", *columns] == cli._CSV_COLUMNS
    tmp = tmp_path_factory.mktemp("grid")
    _oracle_estimates_csv(tmp / "oracle.csv", cfg, meas, result, **kwargs)
    with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
        cli._write_grid_csv(tmp / "columnar.csv", K, N, columns)
    assert (tmp / "columnar.csv").read_bytes() == (tmp / "oracle.csv").read_bytes()
    _assert_unquoted_grid(tmp / "columnar.csv", len(cli._CSV_COLUMNS), K * N)

    flows = np.vstack([ramp_values, extra_row])
    _oracle_truth_csv(tmp / "oracle_truth.csv", K, N, states, speeds, flows)
    with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
        cli._write_grid_csv(
            tmp / "truth.csv", K, N, {"rho_true": states, "v_true": speeds, "q_true": flows}
        )
    assert (tmp / "truth.csv").read_bytes() == (tmp / "oracle_truth.csv").read_bytes()
    _assert_unquoted_grid(tmp / "truth.csv", 5, K * N)

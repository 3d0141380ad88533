"""End-to-end tests of the command line interface."""

import csv
import json

import numpy as np
import pytest

from trafficstate import cli, kalman, metrics
from trafficstate.network import NetworkConfig
from trafficstate.simulate import load_scenario


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


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


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


class TestSimulate:
    def test_writes_scenario_and_truth(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(["simulate", "--preset", "ngsim_like", "--seed", "0", "--out", str(out)])
        assert code == 0
        assert "wrote 360 steps" in capsys.readouterr().out

        sc = load_scenario(out / "scenario.json")
        assert sc.name == "ngsim_like"

        header, rows = read_csv(out / "truth.csv")
        assert header == ["k", "segment", "rho_true", "v_true", "q_true"]
        assert len(rows) == 360 * 8
        first = rows[0]
        assert first[0] == "0" and first[1] == "1"
        assert float(first[2]) == pytest.approx(sc.initial_density_veh_km[0])


class TestEstimate:
    def test_preset_run_outputs(self, tmp_path, capsys):
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

        summary = json.loads((out / "summary.json").read_text())
        assert summary["validation_ok"] is True
        assert summary["sensors_used"] == [8]
        assert summary["cfl"]["violations"] == 0
        m = summary["metrics"]
        assert 0.0 < m["cv_rho"] < 0.15
        assert m["horizon_steps"] == 360
        assert m["speed_error_covariance_w"] is not None
        assert m["ramp_flow_rmse"] is not None

    def test_tuning_flags_are_echoed(self, tmp_path):
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
                "--out",
                str(out),
            ]
        )
        assert code == 0
        tuning = json.loads((out / "summary.json").read_text())["config"]["tuning"]
        assert tuning["measurement_var"] == 25.0
        assert tuning["initial_mean"] == 123.0

    def test_metrics_command_recomputes_the_summary(self, tmp_path, capsys):
        out = tmp_path / "est"
        cli.main(["estimate", "--preset", "ngsim_like", "--window", "1", "--out", str(out)])
        stored = json.loads((out / "summary.json").read_text())["metrics"]
        capsys.readouterr()

        assert cli.main(["metrics", "--out", str(out)]) == 0
        recomputed = json.loads(capsys.readouterr().out)
        # CSV cells round-trip through repr, so the recomputation is exact.
        assert recomputed["cv_rho"] == pytest.approx(stored["cv_rho"], abs=1e-9)
        assert recomputed["cv_rho_full"] == pytest.approx(stored["cv_rho_full"], abs=1e-9)
        assert recomputed["speed_error_covariance_w"] == pytest.approx(
            stored["speed_error_covariance_w"], abs=1e-9
        )
        assert recomputed["ramp_flow_rmse"] == pytest.approx(stored["ramp_flow_rmse"], abs=1e-6)

    def test_same_seed_reproduces_outputs(self, tmp_path):
        args = ["estimate", "--preset", "ngsim_like", "--penetration", "0.3", "--seed", "11"]
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        cli.main(args + ["--out", str(a)])
        cli.main(args + ["--out", str(b)])
        cli.main(["estimate", "--preset", "ngsim_like", "--penetration", "0.3", "--seed", "12", "--out", str(c)])
        assert (a / "estimates.csv").read_bytes() == (b / "estimates.csv").read_bytes()
        assert (a / "estimates.csv").read_bytes() != (c / "estimates.csv").read_bytes()

    def test_trajectory_source(self, tmp_path):
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
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metrics"]["horizon_steps"] == 2

    def test_detector_source(self, tmp_path):
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
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metrics"]["horizon_steps"] == 11
        assert np.isfinite(summary["metrics"]["cv_rho"])

    def test_detector_truth_uses_the_filter_speed_floor(self, tmp_path):
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
        summary = json.loads((out / "summary.json").read_text())
        assert summary["held_measurement_steps"] == len(blank)

    def test_summary_counts_held_entry_flows(self, tmp_path):
        net = write_network(tmp_path / "net.json")
        det = write_detectors(tmp_path / "det.csv")
        # The entry detector drops two samples.
        dropped = {"0.0,10,2700.0,90.0", "0.0,30,2700.0,90.0"}
        kept = [r for r in det.read_text().splitlines() if r not in dropped]
        det.write_text("\n".join(kept) + "\n")
        out = tmp_path / "est"
        args = ["estimate", "--detectors", str(det), "--network", str(net), "--warmup", "0"]
        assert cli.main(args + ["--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["held_entry_steps"] == 2

    def test_q_ramp_is_null_without_ramp_states(self, tmp_path):
        net = write_network(tmp_path / "net.json")
        traj = write_trajectories(tmp_path / "traj.csv")
        out = tmp_path / "est"
        args = ["estimate", "--trajectories", str(traj), "--network", str(net), "--warmup", "0"]
        assert cli.main(args + ["--q-density", "7.0", "--out", str(out)]) == 0
        tuning = json.loads((out / "summary.json").read_text())["config"]["tuning"]
        assert tuning["q_density"] == 7.0
        assert tuning["q_ramp"] is None

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

    def test_strict_cfl_exits_one(self, tmp_path, capsys):
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
        summary = json.loads((tmp_path / "relaxed" / "summary.json").read_text())
        assert summary["cfl"]["violations"] > 0


class TestSweep:
    def test_small_sweep_csv(self, tmp_path, capsys):
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

        assert (out / "summary.json").exists()

    def test_bad_p_specs_abort(self, tmp_path):
        base = ["sweep", "--preset", "ngsim_like", "--reps", "1", "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit):
            cli.main(base + ["--p", "0.5,oops"])
        with pytest.raises(SystemExit):
            cli.main(base + ["--p", "1.5"])
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--preset", "ngsim_like", "--reps", "0", "--p", "1.0", "--out", str(tmp_path / "o")])


class TestMetricsCommand:
    def test_header_mismatch_aborts(self, tmp_path):
        out = tmp_path / "est"
        cli.main(["estimate", "--preset", "ngsim_like", "--window", "1", "--out", str(out)])
        (out / "estimates.csv").write_text("k,segment,weird\n0,1,2\n")
        with pytest.raises(SystemExit, match="unexpected header"):
            cli.main(["metrics", "--out", str(out)])

    def test_network_round_trips_through_the_summary(self, tmp_path, monkeypatch):
        # The network echoed in summary.json is the one metrics rebuilds,
        # entry_flow_measured included.
        net = tmp_path / "net.json"
        payload = json.loads(write_network(net).read_text())
        payload["entry_flow_measured"] = False
        net.write_text(json.dumps(payload))
        out = tmp_path / "est"
        args = ["estimate", "--trajectories", str(write_trajectories(tmp_path / "traj.csv"))]
        assert cli.main(args + ["--network", str(net), "--warmup", "0", "--out", str(out)]) == 0
        echoed = json.loads((out / "summary.json").read_text())["config"]["network"]
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

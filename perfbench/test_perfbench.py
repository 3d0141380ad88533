"""Smoke tests of the benchmark at a tiny size.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import bench_inputs  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402

TINY_RECORDING = {"n_vehicles": 60, "arrival_window_s": 60.0}
TINY_CORRIDOR = {"n_segments": 31, "n_steps": 30}


def _read_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize(
    "write, sizes",
    [(bench_inputs.write_recording, TINY_RECORDING), (bench_inputs.write_corridor, TINY_CORRIDOR)],
)
def test_generators_are_deterministic(tmp_path, write, sizes):
    write(tmp_path / "a", 7, **sizes)
    write(tmp_path / "b", 7, **sizes)
    write(tmp_path / "c", 8, **sizes)
    a, b, c = (_read_bytes(tmp_path / d) for d in "abc")
    assert a == b
    assert a != c


def test_recording_first_samples_lie_just_past_the_origin(tmp_path):
    gen = bench_inputs.write_recording(tmp_path, 3, **TINY_RECORDING)
    data = np.genfromtxt(tmp_path / "trajectories.csv", delimiter=",", names=True)
    assert gen["rows"] == data.size
    ramp_start = bench_inputs.REC_SEGMENT_M * (bench_inputs.REC_RAMP_SEGMENT - 1)
    merged = 0
    for vid in np.unique(data["vehicle_id"]):
        track = data[data["vehicle_id"] == vid]
        origin = ramp_start if track["lane"][0] == bench_inputs.REC_RAMP_LANE else 0.0
        # At most one sample's travel past the origin; no vehicle is faster than 25 m/s.
        assert origin <= track["x_m"][0] < origin + 25.0
        assert track["x_m"][-1] >= bench_inputs.REC_SEGMENT_M * bench_inputs.REC_SEGMENTS
        merged += track["lane"][0] == bench_inputs.REC_RAMP_LANE and track["lane"][-1] in bench_inputs.REC_MAIN_LANES
    assert merged > 0


def test_corridor_network_is_valid_and_truth_is_positive(tmp_path):
    from trafficstate.network import load_network, validate_network

    gen = bench_inputs.write_corridor(tmp_path, 1, **TINY_CORRIDOR)
    cfg = load_network(tmp_path / "network.json")
    assert validate_network(cfg).ok
    assert cfg.ramp_segments(measured=False)
    assert gen["truth"].shape == (TINY_CORRIDOR["n_steps"], TINY_CORRIDOR["n_segments"])
    assert (gen["truth"] > 0).all()


def test_self_time_subtracts_child_spans():
    tracer = bench_trace.Tracer()
    tracer.names = ["cli.main", "kalman.run_filter", "kalman.kf_step"]
    tracer.spans = [(0, 0.0, 10.0, -1), (1, 1.0, 7.0, 0), (2, 2.0, 3.0, 1), (2, 4.0, 6.0, 1)]
    summary = tracer.summary()
    assert summary["layer_self_s"]["cli"] == pytest.approx(4.0)
    assert summary["layer_self_s"]["kalman"] == pytest.approx(6.0)
    assert summary["layer_calls"]["kalman"] == 3
    assert summary["fn_from_cli_s"] == {"kalman.run_filter": pytest.approx(6.0)}


def test_install_rebinds_imported_copies():
    code = (
        "import bench_trace, trafficstate.kalman as k, trafficstate.ltv_model as m;"
        "t = bench_trace.Tracer(); bench_trace.install(t);"
        "assert k.build_A is m.build_A and k.build_A.__wrapped__ is not None;"
        "assert not hasattr(m.NetworkConfig.segment_of_position, '__wrapped__')"
    )
    env = run.child_env(ROOT, {"PYTHONPATH": f"{BENCH}:{ROOT / 'src'}"})
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TinyTrajectoryIngest(run.TrajectoryIngest):
    def prepare(self, work, seed):
        gen = bench_inputs.write_recording(work / "inputs", seed, **TINY_RECORDING)
        self.args, self.n_segments, self.n_steps = gen["args"], gen["n_segments"], gen["n_steps"]


def test_passes_are_checked_and_traced(tmp_path):
    workload = TinyTrajectoryIngest()
    workload.prepare(tmp_path, 5)
    env = run.child_env(ROOT)
    plain, traced = run.run_passes(workload, ROOT, tmp_path, env, 0.0, modes=(False, True))
    assert plain["ok"] and traced["ok"]
    assert plain["digest"] == traced["digest"]
    layers = run.layer_metrics([traced])
    for layer in run.LAYERS:
        assert f"{layer}.self_s" in layers
    assert layers["sensing.self_s"] > 0
    assert layers["sensing.snapshots_per_step"] > 0
    assert layers["kalman.steps"] == workload.n_steps


def test_a_failing_pass_is_counted(tmp_path):
    workload = TinyTrajectoryIngest()
    workload.prepare(tmp_path, 5)
    workload.n_steps += 1
    passes = run.run_passes(workload, ROOT, tmp_path, run.child_env(ROOT), 0.0)
    assert not passes[0]["ok"]
    assert "rows" in passes[0]["error"]


def test_final_line_reports_every_metric(monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "trajectory_ingest", TinyTrajectoryIngest())
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "trajectory_ingest", "--seed", "2", "--seconds", "0", "--trace", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] == 1 and last["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units


def test_traced_run_reports_every_layer_metric(monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "trajectory_ingest", TinyTrajectoryIngest())
    monkeypatch.setattr(run, "SCALING", tuple((name, 31, 12, one) for name, _n, _k, one in run.SCALING))
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "trajectory_ingest", "--seed", "2", "--seconds", "0", "--trace", "1"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ngsim_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert time.perf_counter() - start < 60

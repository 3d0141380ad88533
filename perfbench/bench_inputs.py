"""Seeded input generators for the benchmark workloads.

Every file is a pure function of the seed and the size arguments: the same
seed writes byte-identical files. The program under test only ever sees the
files these functions write and the command-line flags beside them.

* ``write_recording``: a 1 Hz vehicle-trajectory recording on an 8-segment
  stretch with three mainline lanes and one merging on-ramp lane. Each
  vehicle's first sample lies where a camera first sees it, between the
  origin and one sample's travel past it, as in real recordings. Vehicles
  are never started upstream of the origin.
* ``write_corridor``: a long detector corridor whose truth comes from the
  program's own conservation simulator (``simulate_truth``), with a
  detector at every segment boundary. The seed draws the detectors' noise
  and the dropped samples.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Trajectory recording: 8 segments of 0.2 km at T = 5 s, on-ramp on segment 4.
REC_SEGMENT_M = 200.0
REC_SEGMENTS = 8
REC_STEP_S = 5.0
REC_RAMP_SEGMENT = 4
REC_RAMP_LANE = 4
REC_MAIN_LANES = (1, 2, 3)

# Detector corridor: segments of 0.4-0.6 km at T = 10 s.
COR_STEP_S = 10.0
COR_RAMP_SPACING = 20
COR_DROP_SHARE = 0.03
COR_FLOW_NOISE_VPH = 60.0
COR_SPEED_NOISE_KMH = 1.5


def _network_json(lengths_km, ramps: dict[int, str], sensors, time_step_h: float) -> str:
    """Network file in the format ``trafficstate.network.load_network`` reads."""
    payload = {
        "time_step_h": time_step_h,
        "segments": [
            {"length_km": float(length), "ramp": ramps.get(i, "none"), "ramp_measured": False}
            for i, length in enumerate(lengths_km, start=1)
        ],
        "flow_sensors": sorted(int(j) for j in sensors),
        "entry_flow_measured": True,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _recording_speed(x_m: np.ndarray, t_s: np.ndarray, phase: float) -> np.ndarray:
    """Mean traffic speed in m/s: stop-and-go waves running upstream."""
    wave = np.sin(2.0 * np.pi * (x_m / 800.0 + t_s / 240.0) + phase)
    return 13.5 + 6.0 * wave


def write_recording(
    out_dir: Path,
    seed: int,
    *,
    n_vehicles: int = 2000,
    arrival_window_s: float = 1200.0,
) -> dict:
    """Write ``trajectories.csv`` and ``network.json``; return the CLI inputs.

    About a tenth of the vehicles enter on the ramp lane inside segment 4
    and merge onto a mainline lane before its downstream end. Each vehicle
    is recorded once per second from its first sighting until its first
    sample at or past the stretch end.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    end_m = REC_SEGMENT_M * REC_SEGMENTS
    ramp_start_m = REC_SEGMENT_M * (REC_RAMP_SEGMENT - 1)

    n_ramp = n_vehicles // 10
    arrivals = np.sort(rng.uniform(0.0, arrival_window_s, n_vehicles))
    on_ramp = np.zeros(n_vehicles, dtype=bool)
    on_ramp[rng.choice(n_vehicles, size=n_ramp, replace=False)] = True
    factor = np.clip(rng.normal(1.0, 0.05, n_vehicles), 0.85, 1.15)
    main_lane = rng.choice(REC_MAIN_LANES, size=n_vehicles)
    merge_m = ramp_start_m + rng.uniform(40.0, 180.0, n_vehicles)

    origin = np.where(on_ramp, ramp_start_m, 0.0)
    first_speed = _recording_speed(origin, arrivals, phase) * factor
    x = origin + rng.uniform(0.0, 1.0, n_vehicles) * first_speed

    # Integrate every vehicle in lockstep on its own 1 Hz sample clock.
    xs, vs = [], []
    j = 0
    active = np.ones(n_vehicles, dtype=bool)
    while active.any():
        v = _recording_speed(x, arrivals + j, phase) * factor
        xs.append(np.where(active, x, np.nan))
        vs.append(v)
        active &= x < end_m
        x = x + v
        j += 1
    pos = np.array(xs).T
    speed = np.array(vs).T

    lines = ["vehicle_id,t_s,x_m,lane,speed_mps"]
    t_first, t_last = math.inf, -math.inf
    for vid in range(n_vehicles):
        n_samples = int(np.count_nonzero(np.isfinite(pos[vid])))
        t0 = arrivals[vid]
        t_first = min(t_first, float(f"{t0:.2f}"))
        t_last = max(t_last, float(f"{t0 + n_samples - 1:.2f}"))
        for s in range(n_samples):
            xm = pos[vid, s]
            if on_ramp[vid] and xm < merge_m[vid]:
                lane = REC_RAMP_LANE
            else:
                lane = int(main_lane[vid])
            lines.append(f"{vid + 1},{t0 + s:.2f},{xm:.2f},{lane},{speed[vid, s]:.3f}")
    (out_dir / "trajectories.csv").write_text("\n".join(lines) + "\n")

    lengths_km = [REC_SEGMENT_M / 1000.0] * REC_SEGMENTS
    (out_dir / "network.json").write_text(
        _network_json(lengths_km, {REC_RAMP_SEGMENT: "on_ramp"}, [REC_SEGMENTS], REC_STEP_S / 3600.0)
    )
    return {
        "args": [
            "estimate",
            "--trajectories",
            str(out_dir / "trajectories.csv"),
            "--network",
            str(out_dir / "network.json"),
            "--penetration",
            "0.1",
            "--seed",
            str(seed),
            "--ramp-lane",
            f"{REC_RAMP_SEGMENT}:{REC_RAMP_LANE}",
        ],
        "n_segments": REC_SEGMENTS,
        "n_steps": math.floor((t_last - t_first) / REC_STEP_S),
        "rows": len(lines) - 1,
    }


def corridor_layout(n_segments: int, rng: np.random.Generator):
    """Segment lengths, unmeasured on-ramps and a rule-valid sensor set.

    On-ramps sit about every ``COR_RAMP_SPACING`` segments. As in the
    acceptance tests' ``random_observable_network``, one sensor lies
    between each pair of consecutive ramps, plus the exit sensor.
    """
    lengths = np.round(rng.uniform(0.4, 0.6, n_segments), 3)
    centres = np.arange(COR_RAMP_SPACING // 2, n_segments, COR_RAMP_SPACING)
    jitter = rng.integers(-3, 4, centres.size)
    ramps = sorted({int(np.clip(c + d, 2, n_segments - 1)) for c, d in zip(centres, jitter)})
    sensors = {int(rng.integers(a, b)) for a, b in zip(ramps, ramps[1:])} | {n_segments}
    return lengths, ramps, sorted(sensors)


def simulate_corridor(n_segments: int, n_steps: int):
    """Scenario and truth of the corridor of one size, from the program's simulator.

    Like a preset, the corridor of a given size is one fixed scenario.
    """
    from trafficstate.network import NetworkConfig, RampType, Segment
    from trafficstate.simulate import Scenario, simulate_truth

    rng = np.random.default_rng([2, n_segments])
    lengths, ramps, sensors = corridor_layout(n_segments, rng)
    T_h = COR_STEP_S / 3600.0
    cfg = NetworkConfig(
        segments=tuple(
            Segment(length_km=float(lengths[i - 1]), ramp=RampType.ON if i in ramps else RampType.NONE)
            for i in range(1, n_segments + 1)
        ),
        flow_sensor_segments=frozenset(sensors),
        time_step_h=T_h,
    )
    k = np.arange(n_steps)
    t_h = k * T_h
    centres_km = np.cumsum(lengths) - lengths / 2.0
    span_km = float(np.sum(lengths))
    # A slow band that forms mid-corridor and drifts upstream at 15 km/h;
    # free flow 100 km/h keeps T*v/delta at most 0.7.
    front_km = 0.6 * span_km - 15.0 * t_h
    band = np.exp(-(((centres_km[np.newaxis, :] - front_km[:, np.newaxis]) / 3.0) ** 2))
    depth = 45.0 * np.clip(k / max(n_steps / 4.0, 1.0), 0.0, 1.0)
    speeds = 100.0 - depth[:, np.newaxis] * band
    phases = rng.uniform(0.0, 2.0 * np.pi, len(ramps) + 1)
    entry = 3000.0 + 500.0 * np.sin(2.0 * np.pi * t_h / 0.25 + phases[0])
    ramp_flows = {
        seg: 250.0 + 80.0 * np.sin(2.0 * np.pi * t_h / 0.2 + ph)
        for seg, ph in zip(ramps, phases[1:])
    }
    balance = np.full(n_segments, entry[0])
    for seg, series in ramp_flows.items():
        balance[seg - 1 :] += series[0]
    sc = Scenario(
        cfg=cfg,
        n_steps=n_steps,
        initial_density_veh_km=balance / speeds[0],
        speeds_kmh=speeds,
        entry_flow_vph=entry,
        ramp_flows_vph=ramp_flows,
        name="perfbench_corridor",
    )
    return sc, simulate_truth(sc, strict_cfl=True)


def write_corridor(out_dir: Path, seed: int, *, n_segments: int = 200, n_steps: int = 300) -> dict:
    """Write ``detectors.csv`` and ``network.json``; return the CLI inputs.

    A detector sits at each of the N+1 boundaries: boundary 0 reports the
    entry flow, boundary i the flow leaving segment i and segment i's
    speed. The seed draws the detectors' Gaussian counting and speed noise
    and the dropped samples: about 3%, never at the first or last step, so
    that the program's gap handling runs. Drawing the noise rather than the
    traffic from the seed keeps the scored accuracy steady across seeds.
    The returned ``truth`` is the simulated density table the estimates are
    scored against.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sc, result = simulate_corridor(n_segments, n_steps)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2, n_segments]))
    cfg = sc.cfg
    bounds_m = np.round(cfg.boundaries_km() * 1000.0, 1)
    K, n = n_steps, n_segments
    flows = np.column_stack([sc.entry_flow_vph, result.segment_flows])
    speeds = np.column_stack([sc.speeds_kmh[:, 0], sc.speeds_kmh])
    flows = flows + rng.normal(0.0, COR_FLOW_NOISE_VPH, flows.shape)
    speeds = speeds + rng.normal(0.0, COR_SPEED_NOISE_KMH, speeds.shape)
    keep = rng.random((K, n + 1)) >= COR_DROP_SHARE
    keep[0] = keep[-1] = True

    lines = ["detector_pos_m,t_s,flow_vph,speed_kmh"]
    for b in range(n + 1):
        for k in np.nonzero(keep[:, b])[0]:
            lines.append(f"{bounds_m[b]:.1f},{k * COR_STEP_S:.1f},{flows[k, b]:.4f},{speeds[k, b]:.4f}")
    (out_dir / "detectors.csv").write_text("\n".join(lines) + "\n")

    ramps = {seg: "on_ramp" for seg in cfg.ramp_segments()}
    (out_dir / "network.json").write_text(
        _network_json(cfg.lengths_km, ramps, cfg.flow_sensor_segments, cfg.time_step_h)
    )
    truth = result.densities[:K]
    lengths = cfg.lengths_km
    ramp_state = np.mean(
        [np.mean(series) * cfg.time_step_h / lengths[seg - 1] for seg, series in sc.ramp_flows_vph.items()]
    )
    return {
        "args": [
            "estimate",
            "--detectors",
            str(out_dir / "detectors.csv"),
            "--network",
            str(out_dir / "network.json"),
            "--init-mean",
            f"{math.floor(float(np.mean(truth[0])))}",
            "--init-ramp",
            f"{float(ramp_state):.2f}",
        ],
        "n_segments": n,
        "rows": len(lines) - 1,
        "truth": truth,
    }

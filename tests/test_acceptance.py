"""Acceptance gate: one test per shipped performance criterion.

Each test states its threshold inline and prints the measured value, so a
verbose run gives one pass/fail line per criterion. The final criterion
needs an external trajectory recording and skips when none is configured
(set TRAFFICSTATE_TRAJECTORY_CSV and TRAFFICSTATE_NETWORK_JSON to run it).
"""

import csv
import json
import os
import time

import numpy as np
import pytest

from trafficstate import cli
from trafficstate.kalman import (
    FilterState,
    FilterTuning,
    default_tuning,
    kf_step,
    observability_gramian,
    run_filter,
)
from trafficstate.ltv_model import (
    LtvSnapshot,
    build_A,
    build_B,
    build_C,
    build_state_index,
    build_u,
)
from trafficstate.metrics import cv_rho, speed_error_covariance
from trafficstate.network import (
    NetworkConfig,
    RampType,
    Segment,
    load_network,
    validate_network,
)
from trafficstate.sensing import (
    add_measurement_noise,
    frames_from_trajectories,
    ground_truth_densities,
    load_trajectories,
)
from trafficstate.simulate import (
    Scenario,
    make_congestion_scenario,
    preset_filter_defaults,
    simulate_truth,
    synthetic_measurements,
)

T_DEFAULT = 10 / 3600


def random_observable_network(rng, *, n_min=4, n_max=10):
    """Random stretch with 1..3 unmeasured ramps and a rule-valid placement."""
    n = int(rng.integers(n_min, n_max + 1))
    n_ramps = int(rng.integers(1, min(3, n - 1) + 1))
    ramp_segs = sorted(int(s) for s in rng.choice(np.arange(1, n), size=n_ramps, replace=False))
    kinds = {s: (RampType.ON if rng.random() < 0.7 else RampType.OFF) for s in ramp_segs}
    segments = tuple(
        Segment(
            length_km=float(rng.uniform(0.3, 0.7)),
            ramp=kinds.get(i, RampType.NONE),
        )
        for i in range(1, n + 1)
    )
    gap_sensors = {int(rng.integers(a, b)) for a, b in zip(ramp_segs, ramp_segs[1:])}
    cfg = NetworkConfig(
        segments=segments,
        flow_sensor_segments=frozenset(gap_sensors | {n}),
        time_step_h=T_DEFAULT,
    )
    assert validate_network(cfg).ok
    return cfg, tuple(sorted(gap_sensors))


def preset_estimate_cv(name, *, window=1, rng=None, flow_noise=0.0, speed_noise=0.0, seed=0):
    """Preset run with the shipped per-preset calibration; returns cv_rho."""
    sc = make_congestion_scenario(name, seed=seed)
    sim = simulate_truth(sc)
    frames = synthetic_measurements(sim, rng)
    if flow_noise or speed_noise:
        frames = add_measurement_noise(frames, rng, flow_std_vph=flow_noise, speed_std_kmh=speed_noise)
    frames = cli._smoothed(frames, window)
    idx = build_state_index(sc.cfg)
    defaults = preset_filter_defaults(name)
    tuning = default_tuning(
        idx,
        len(sc.cfg.flow_sensor_segments),
        measurement_var=defaults["measurement_var"],
        initial_density=defaults["initial_density"],
        initial_ramp_state=defaults["initial_ramp_state"],
    )
    result = run_filter(
        sc.cfg, idx, tuning, frames, default_speed_kmh=float(np.mean(sc.speeds_kmh))
    )
    return cv_rho(result.densities, sim.densities, warmup=10)


def noise_rng():
    return np.random.default_rng(np.random.SeedSequence(0).spawn(1)[0])


def test_criterion_01_filter_matches_explicit_reference():
    """50 random observable systems, 200 steps: predictor equals the
    textbook update computed with explicit inverses, to 1e-9."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        cfg, _ = random_observable_network(rng)
        idx = build_state_index(cfg)
        n = idx.n_segments
        lengths = cfg.lengths_km
        T = cfg.time_step_h
        sensors = sorted(cfg.flow_sensor_segments)
        C = build_C(idx, sensors)
        B = build_B(idx, lengths, T)
        m = C.shape[0]
        tuning = FilterTuning(
            process_cov=np.diag(np.concatenate([np.ones(n), np.full(idx.n_theta, 0.01)])),
            measurement_cov=10.0 * np.eye(m),
            initial_mean=np.full(idx.dim, 30.0),
            initial_cov=np.eye(idx.dim),
        )
        state = FilterState(x_hat=tuning.initial_mean.copy(), cov=tuning.initial_cov.copy(), k=0)
        x_ref = tuning.initial_mean.copy()
        P_ref = tuning.initial_cov.copy()
        eye = np.eye(idx.dim)
        for _k in range(200):
            v = rng.uniform(0.3, 0.9, size=n) * lengths / T
            A = build_A(idx, lengths, T, v)
            u = build_u(idx, float(rng.uniform(500.0, 4000.0)))
            z = rng.uniform(5.0, 60.0, size=m)
            state = kf_step(state, LtvSnapshot(A=A, B=B, u=u, C=C), z, tuning)

            gain = P_ref @ C.T @ np.linalg.inv(C @ P_ref @ C.T + tuning.measurement_cov)
            x_ref = A @ x_ref + B @ u + A @ gain @ (z - C @ x_ref)
            P_ref = A @ (eye - gain @ C) @ P_ref @ A.T + tuning.process_cov
            worst = max(
                worst,
                float(np.max(np.abs(state.x_hat - x_ref))),
                float(np.max(np.abs(state.cov - P_ref))),
            )
    elapsed = time.perf_counter() - start
    print(f"[criterion 1] max abs deviation {worst:.3e} over 50 systems in {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_exact_measurements_track_both_presets():
    """Exact speeds and flows at full penetration: cv_rho at most 0.15 on
    both presets, each run under 10 s."""
    for name in ("ngsim_like", "a20_like"):
        start = time.perf_counter()
        cv = preset_estimate_cv(name, window=1)
        elapsed = time.perf_counter() - start
        print(f"[criterion 2] {name}: cv_rho={cv:.4f} in {elapsed:.2f}s")
        assert cv <= 0.15, f"{name}: cv_rho {cv:.4f} above 0.15"
        assert elapsed < 10.0


def test_criterion_03_noise_degradation_is_bounded():
    """Paired-noise runs on the long stretch: flow noise with a 300 veh/h
    standard deviation costs at most 2 points of cv_rho, flow plus 5 km/h
    speed noise at most 4 points, all within 20 s."""
    start = time.perf_counter()
    base = preset_estimate_cv("a20_like", window=1)
    flow_only = preset_estimate_cv("a20_like", window=1, rng=noise_rng(), flow_noise=300.0)
    both = preset_estimate_cv(
        "a20_like", window=1, rng=noise_rng(), flow_noise=300.0, speed_noise=5.0
    )
    elapsed = time.perf_counter() - start
    print(
        f"[criterion 3] base={base:.4f} flow={flow_only:.4f}"
        f" (+{100 * (flow_only - base):.2f}pt) both={both:.4f}"
        f" (+{100 * (both - base):.2f}pt) in {elapsed:.2f}s"
    )
    assert flow_only - base <= 0.02
    assert both - base <= 0.04
    assert elapsed < 20.0


def test_criterion_04_penetration_sweep_stays_accurate(tmp_path):
    """Sampled-speed sweep at p in {0.02, 0.05, 0.2, 1.0}, 10 repetitions,
    window-3 smoothing: every mean cv_rho below 0.35 and non-increasing in
    p with at most one adjacent inversion, within 60 s."""
    start = time.perf_counter()
    out = tmp_path / "sweep"
    code = cli.main(
        [
            "sweep",
            "--preset",
            "ngsim_like",
            "--p",
            "0.02,0.05,0.2,1.0",
            "--reps",
            "10",
            "--seed",
            "0",
            "--window",
            "3",
            "--out",
            str(out),
        ]
    )
    elapsed = time.perf_counter() - start
    assert code == 0

    means = {}
    with open(out / "sweep.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["variant"] == "moving_average":
                means[float(row["p"])] = float(row["mean_cv_rho"])
    ordered = [means[p] for p in (0.02, 0.05, 0.2, 1.0)]
    print(
        "[criterion 4] mean cv_rho by p: "
        + ", ".join(f"{p}:{v:.4f}" for p, v in zip((0.02, 0.05, 0.2, 1.0), ordered))
        + f" in {elapsed:.2f}s"
    )
    assert all(v < 0.35 for v in ordered)
    inversions = sum(1 for a, b in zip(ordered, ordered[1:]) if b > a + 1e-12)
    assert inversions <= 1
    assert elapsed < 60.0


def test_criterion_05_constant_ramp_flow_is_recovered():
    """An unmeasured 600 veh/h on-ramp under an observable placement: the
    recovered flow sits within 5% of the truth over the final fifth of a
    500-step run, within 5 s."""
    start = time.perf_counter()
    K = 500
    segments = tuple(
        Segment(0.5, ramp=RampType.ON if i == 3 else RampType.NONE) for i in range(1, 7)
    )
    cfg = NetworkConfig(
        segments=segments, flow_sensor_segments=frozenset({6}), time_step_h=T_DEFAULT
    )
    assert validate_network(cfg).ok
    sc = Scenario(
        cfg=cfg,
        n_steps=K,
        initial_density_veh_km=np.full(6, 30.0),
        speeds_kmh=np.full((K, 6), 80.0),
        entry_flow_vph=np.full(K, 3000.0),
        ramp_flows_vph={3: np.full(K, 600.0)},
    )
    sim = simulate_truth(sc)
    frames = synthetic_measurements(sim)
    idx = build_state_index(cfg)
    tuning = default_tuning(
        idx, 1, measurement_var=10.0, initial_density=40.0, initial_ramp_state=0.0
    )
    result = run_filter(cfg, idx, tuning, frames)
    flows = result.ramp_flows(cfg.lengths_km, cfg.time_step_h)[:, 0]
    tail = flows[int(0.8 * flows.shape[0]) :]
    rel_err = float(np.max(np.abs(tail - 600.0) / 600.0))
    elapsed = time.perf_counter() - start
    print(f"[criterion 5] max relative flow error {rel_err:.4f} in {elapsed:.2f}s")
    assert rel_err <= 0.05
    assert elapsed < 5.0


def test_criterion_06_placement_rule_matches_the_gramian():
    """20 random rule-valid placements reach full-rank observability and
    lose rank when any between-ramp sensor is removed, within 5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    deletions_checked = 0
    for _ in range(20):
        cfg, gap_sensors = random_observable_network(rng)
        idx = build_state_index(cfg)
        speeds = rng.uniform(0.6, 0.9, size=idx.n_segments) * cfg.lengths_km / cfg.time_step_h
        A = build_A(idx, cfg.lengths_km, cfg.time_step_h, speeds)
        window = 2 * idx.dim + 5
        A_seq = [A] * (window - 1)

        sensors = sorted(cfg.flow_sensor_segments)
        _, rank = observability_gramian(A_seq, build_C(idx, sensors))
        assert rank == idx.dim, f"full placement rank {rank} below {idx.dim}"

        for removed in gap_sensors:
            reduced = [j for j in sensors if j != removed]
            _, r = observability_gramian(A_seq, build_C(idx, reduced))
            assert r < idx.dim, f"deleting sensor {removed} kept rank {r}"
            deletions_checked += 1
    elapsed = time.perf_counter() - start
    print(f"[criterion 6] 20 placements, {deletions_checked} deletions checked in {elapsed:.2f}s")
    assert deletions_checked >= 5
    assert elapsed < 5.0


def test_criterion_07_simulated_truth_conserves_vehicles():
    """Cumulative vehicle balance closes to 1e-9 relative on both presets
    and 100 random scenarios, within 5 s."""
    start = time.perf_counter()

    def residual(sc):
        sim = simulate_truth(sc)
        lengths = sc.cfg.lengths_km
        stored = float(np.sum(lengths * (sim.densities[-1] - sim.densities[0])))
        net_ramp = np.zeros(sc.n_steps)
        for seg, series in sc.ramp_flows_vph.items():
            sign = 1.0 if sc.cfg.segments[seg - 1].ramp is RampType.ON else -1.0
            net_ramp += sign * series
        through = float(
            sc.cfg.time_step_h * np.sum(sc.entry_flow_vph - sim.segment_flows[:, -1] + net_ramp)
        )
        return abs(stored - through) / max(abs(stored), abs(through), 1.0)

    worst = 0.0
    for name in ("ngsim_like", "a20_like"):
        for seed in (0, 1):
            worst = max(worst, residual(make_congestion_scenario(name, seed=seed)))

    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        K = int(rng.integers(10, 80))
        ramp_kind = {}
        for seg in rng.permutation(np.arange(1, n + 1))[: int(rng.integers(0, 3))]:
            ramp_kind[int(seg)] = RampType.ON if rng.random() < 0.6 else RampType.OFF
        segments = tuple(
            Segment(float(rng.uniform(0.3, 0.8)), ramp=ramp_kind.get(i, RampType.NONE))
            for i in range(1, n + 1)
        )
        cfg = NetworkConfig(
            segments=segments, flow_sensor_segments=frozenset({n}), time_step_h=T_DEFAULT
        )
        speeds = rng.uniform(10.0, 0.95 * cfg.lengths_km.min() / T_DEFAULT, size=(K, n))
        sc = Scenario(
            cfg=cfg,
            n_steps=K,
            initial_density_veh_km=rng.uniform(5.0, 50.0, size=n),
            speeds_kmh=speeds,
            entry_flow_vph=rng.uniform(500.0, 3500.0, size=K),
            ramp_flows_vph={seg: rng.uniform(0.0, 600.0, size=K) for seg in ramp_kind},
        )
        worst = max(worst, residual(sc))
    elapsed = time.perf_counter() - start
    print(f"[criterion 7] worst relative balance residual {worst:.3e} in {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_08_metric_values_are_exact():
    """Density error fraction and speed-error covariance reproduce worked
    values to 1e-12, and the covariance scales quadratically."""
    truth = np.array([[20.0, 30.0]])
    est = truth + np.array([[5.0, -5.0]])
    cv = cv_rho(est, truth, warmup=0)
    assert abs(cv - 0.2) <= 1e-12

    cfg = NetworkConfig(
        segments=(Segment(0.5),), flow_sensor_segments=frozenset({1}), time_step_h=0.05
    )
    w = speed_error_covariance(np.array([[50.0]]), np.array([[62.0]]), np.array([[60.0]]), cfg)
    assert abs(w - 100.0) <= 1e-12

    w_half = speed_error_covariance(
        np.array([[50.0]]), np.array([[61.0]]), np.array([[60.0]]), cfg
    )
    w_double_rho = speed_error_covariance(
        np.array([[100.0]]), np.array([[62.0]]), np.array([[60.0]]), cfg
    )
    assert abs(w - 4.0 * w_half) <= 1e-9
    assert abs(w_double_rho - 4.0 * w) <= 1e-9
    print(f"[criterion 8] cv_rho={cv!r} w={w!r}")


def test_criterion_09_identical_runs_are_byte_identical(tmp_path):
    """The same configuration and seed produce byte-identical output files
    for both the estimate and sweep commands."""
    est_args = ["estimate", "--preset", "ngsim_like", "--penetration", "0.05", "--seed", "42"]
    a, b = tmp_path / "est_a", tmp_path / "est_b"
    assert cli.main(est_args + ["--out", str(a)]) == 0
    assert cli.main(est_args + ["--out", str(b)]) == 0
    for name in ("estimates.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name

    sweep_args = [
        "sweep",
        "--preset",
        "a20_like",
        "--p",
        "0.2,1.0",
        "--reps",
        "2",
        "--seed",
        "7",
    ]
    c, d = tmp_path / "sw_a", tmp_path / "sw_b"
    assert cli.main(sweep_args + ["--out", str(c)]) == 0
    assert cli.main(sweep_args + ["--out", str(d)]) == 0
    for name in ("sweep.csv", "summary.json"):
        assert (c / name).read_bytes() == (d / name).read_bytes(), name
    print("[criterion 9] estimate and sweep outputs reproduced byte for byte")


@pytest.mark.skipif(
    not (os.environ.get("TRAFFICSTATE_TRAJECTORY_CSV") and os.environ.get("TRAFFICSTATE_NETWORK_JSON")),
    reason="needs an external trajectory recording"
    " (set TRAFFICSTATE_TRAJECTORY_CSV and TRAFFICSTATE_NETWORK_JSON)",
)
def test_criterion_10_recorded_trajectories():
    """Against a user-supplied trajectory recording: full penetration
    reaches cv_rho at most 0.20 and 5% penetration stays below 0.35."""
    traj = load_trajectories(os.environ["TRAFFICSTATE_TRAJECTORY_CSV"])
    cfg = load_network(os.environ["TRAFFICSTATE_NETWORK_JSON"])
    idx = build_state_index(cfg)

    def run(penetration, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        frames = cli._smoothed(frames_from_trajectories(traj, cfg, penetration, rng), 3)
        truth = ground_truth_densities(traj, cfg, frames.n_steps)
        tuning = default_tuning(idx, len(cfg.flow_sensor_segments))
        result = run_filter(cfg, idx, tuning, frames)
        est = result.densities[: frames.n_steps]
        mask = np.isfinite(est) & np.isfinite(truth)
        return cv_rho(est[10:][mask[10:]], truth[10:][mask[10:]], warmup=0)

    cv_full = run(1.0, 0)
    cv_sparse = run(0.05, 0)
    print(f"[criterion 10] cv_rho p=1: {cv_full:.4f}, p=0.05: {cv_sparse:.4f}")
    assert cv_full <= 0.20
    assert cv_sparse < 0.35

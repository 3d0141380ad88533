"""Command line front end.

Subcommands: validate (network checks), simulate (write synthetic truth),
estimate (run the filter on a preset, trajectory file, or detector file),
sweep (penetration-rate study), metrics (recompute metrics from stored
outputs). All randomness derives from one --seed; runs with identical
flags and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from trafficstate import kalman, metrics, sensing, simulate
from trafficstate.ltv_model import build_state_index
from trafficstate.network import (
    CflViolationError,
    NetworkConfig,
    NetworkFormatError,
    RampType,
    check_cfl,
    load_network,
    validate_network,
)

logger = logging.getLogger(__name__)

ESTIMATES_CSV = "estimates.csv"
SUMMARY_JSON = "summary.json"
SWEEP_CSV = "sweep.csv"
TRUTH_CSV = "truth.csv"
SCENARIO_JSON = "scenario.json"

_CSV_COLUMNS = [
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


def _fmt(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if not math.isfinite(x):
        return ""
    return repr(x)


def _parse_cell(s: str) -> float:
    return float(s) if s else math.nan


def _rep_rng(seed: int, rep: int, reps: int) -> np.random.Generator:
    """Generator for repetition ``rep`` of a run seeded with ``seed``."""
    children = np.random.SeedSequence(seed).spawn(reps)
    return np.random.default_rng(children[rep])


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _resolve_tuning(args, idx, n_sensors, source_defaults: dict[str, float]):
    meas_var = args.meas_var if args.meas_var is not None else source_defaults["measurement_var"]
    init_mean = args.init_mean if args.init_mean is not None else source_defaults["initial_density"]
    init_ramp = args.init_ramp if args.init_ramp is not None else source_defaults.get("initial_ramp_state")
    return kalman.default_tuning(
        idx,
        n_sensors,
        density_process_var=args.q_density,
        ramp_process_var=args.q_ramp,
        measurement_var=meas_var,
        initial_density=init_mean,
        initial_ramp_state=init_ramp,
        initial_var=args.init_var,
    )


def _tuning_echo(tuning, idx) -> dict:
    return {
        "q_density": float(tuning.process_cov[0, 0]),
        "q_ramp": float(tuning.process_cov[-1, -1]) if idx.n_theta else None,
        "measurement_var": float(tuning.measurement_cov[0, 0]),
        "initial_mean": float(tuning.initial_mean[0]),
        "initial_var": float(tuning.initial_cov[0, 0]),
    }


def _masked_cv(est: np.ndarray, truth: np.ndarray, warmup: int) -> tuple[float, float]:
    """cv over warm-up-trimmed finite cells, plus the full-horizon value."""

    def cv(w: int) -> float:
        e, t = est[w:], truth[w:]
        mask = np.isfinite(e) & np.isfinite(t)
        if not mask.any():
            raise ValueError("no overlapping finite cells between estimates and truth")
        return metrics.cv_rho(e[mask], t[mask], warmup=0)

    return cv(warmup), cv(0)


def _ramp_metrics(est_table: np.ndarray | None, truth_table: np.ndarray | None, warmup: int):
    """Stacked ramp RMSE plus a lag diagnostic when one series is present."""
    if est_table is None or truth_table is None or est_table.size == 0:
        return None, None, None
    r = metrics.ramp_flow_rmse(est_table[warmup:], truth_table[warmup:])
    lag = lag_rmse = None
    if est_table.shape[1] == 1:
        max_lag = min(20, est_table.shape[0] - warmup - 1)
        if max_lag >= 1:
            lag, lag_rmse = metrics.ramp_flow_best_lag(
                est_table[warmup:, 0], truth_table[warmup:, 0], max_lag=max_lag
            )
    return r, lag, lag_rmse


# Rows per block of the grid writer: enough to amortise the numpy calls,
# few enough that the strings in flight do not grow with steps x segments.
_BLOCK_ROWS = 4096


def _column_fields(block: np.ndarray) -> list[str]:
    """Row-major CSV fields of a block: repr of finite values, else ""."""
    flat = block.ravel()
    finite = np.isfinite(flat)
    fields = [""] * flat.size
    for i, text in zip(np.flatnonzero(finite).tolist(), map(repr, flat[finite].tolist())):
        fields[i] = text
    return fields


def _write_grid_csv(path: Path, n_steps: int, n_segments: int, columns: dict[str, np.ndarray | None]) -> None:
    """Write one row per (step, segment): ``k``, ``segment`` and ``columns``.

    Each table is (steps, segments) with extra trailing steps ignored; None
    or a non-finite cell writes an empty field. No field can hold a comma,
    quote or newline, so rows are joined without CSV quoting.
    """
    tables = [None if t is None else np.asarray(t, dtype=float)[:n_steps] for t in columns.values()]
    segments = [str(i) for i in range(1, n_segments + 1)]
    block_steps = max(1, _BLOCK_ROWS // n_segments)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["k", "segment", *columns]) + "\n")
        for k0 in range(0, n_steps, block_steps):
            steps = range(k0, min(k0 + block_steps, n_steps))
            rows = len(steps) * n_segments
            fields = [[str(k) for k in steps for _ in segments], segments * len(steps)]
            fields += [[""] * rows if t is None else _column_fields(t[steps.start : steps.stop]) for t in tables]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


def _write_estimates_csv(
    path: Path,
    cfg: NetworkConfig,
    meas: sensing.Measurements,
    filter_result,
    *,
    rho_true: np.ndarray | None,
    v_true: np.ndarray | None,
    ramp_true: dict[int, np.ndarray],
    ramp_est: dict[int, np.ndarray],
) -> None:
    n = cfg.n_segments
    K = meas.n_steps

    def ramp_table(series: dict[int, np.ndarray]) -> np.ndarray:
        table = np.full((K, n), np.nan)
        for seg, values in series.items():
            table[:, seg - 1] = np.asarray(values, dtype=float)[:K]
        return table

    _write_grid_csv(
        path,
        K,
        n,
        {
            "rho_true": rho_true,
            "rho_est": filter_result.densities,
            "v_used": filter_result.speeds_used,
            "q_sensor": meas.sensor_table(range(1, n + 1)),
            "v_true": v_true,
            "ramp_flow_true": ramp_table(ramp_true),
            "ramp_flow_est": ramp_table(ramp_est),
        },
    )


def cmd_validate(args) -> int:
    if args.preset:
        cfg = simulate.make_congestion_scenario(args.preset, args.seed).cfg
    else:
        cfg = load_network(args.network)
    report = validate_network(cfg)
    print(report)
    return 0 if report.ok else 1


def cmd_simulate(args) -> int:
    sc = simulate.make_congestion_scenario(args.preset, args.seed)
    result = simulate.simulate_truth(sc, strict_cfl=args.strict_cfl)
    cfl = check_cfl(sc.cfg, sc.speeds_kmh)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    simulate.save_scenario(sc, out / SCENARIO_JSON)
    _write_grid_csv(
        out / TRUTH_CSV,
        sc.n_steps,
        sc.cfg.n_segments,
        {"rho_true": result.densities, "v_true": sc.speeds_kmh, "q_true": result.segment_flows},
    )
    print(
        f"wrote {sc.n_steps} steps x {sc.cfg.n_segments} segments to {out / TRUTH_CSV}"
        f" (max accuracy ratio {cfl.max_ratio:.3f})"
    )
    return 0


def _parse_ramp_lane(values, cfg: NetworkConfig) -> list[sensing.RampLaneRule]:
    rules = []
    for item in values or []:
        try:
            seg_s, lane_s = item.split(":")
            seg, lane = int(seg_s), int(lane_s)
        except ValueError:
            raise SystemExit(f"--ramp-lane expects SEGMENT:LANE, got {item!r}")
        if not 1 <= seg <= cfg.n_segments:
            raise SystemExit(f"--ramp-lane segment {seg} outside 1..{cfg.n_segments}")
        kind = cfg.segments[seg - 1].ramp
        if kind is RampType.NONE:
            raise SystemExit(f"--ramp-lane segment {seg} carries no ramp in the network")
        rules.append(sensing.RampLaneRule(segment=seg, lane=lane, kind=kind))
    return rules


def _window(text: str) -> int:
    """argparse type for ``--window``: a whole number of steps, at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _spread(text: str) -> float:
    """argparse type for ``--speed-spread``: a finite, non-negative km/h value."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text}")
    return value


def _parse_lanes(spec: str | None) -> frozenset[int]:
    if not spec:
        return frozenset()
    try:
        return frozenset(int(x) for x in spec.split(",") if x.strip() != "")
    except ValueError:
        raise SystemExit(f"--exclude-lanes expects comma-separated integers, got {spec!r}")


def cmd_estimate(args) -> int:
    rng = _rep_rng(args.seed, 0, 1)
    config_echo: dict = {
        "penetration": args.penetration,
        "seed": args.seed,
        "window": args.window,
        "flow_noise_std": args.flow_noise_std,
        "speed_noise_std": args.speed_noise_std,
        "speed_spread": args.speed_spread,
        "warmup": args.warmup,
        "strict_cfl": args.strict_cfl,
        "clamp_output": args.clamp_output,
    }

    # The network and the source's tuning defaults are known before any
    # ingestion, so bad tuning flags fail before the costly part of the run.
    if args.preset:
        sc = simulate.make_congestion_scenario(args.preset, args.seed)
        cfg = sc.cfg
        source_defaults = simulate.preset_filter_defaults(args.preset)
    else:
        cfg = load_network(args.network)
        if args.trajectories:
            source_defaults = {"measurement_var": 10.0, "initial_density": 40.0}
        else:
            source_defaults = {"measurement_var": 100.0, "initial_density": 4.0}
    idx = build_state_index(cfg)
    sensors = tuple(sorted(cfg.flow_sensor_segments))
    tuning = _resolve_tuning(args, idx, len(sensors), source_defaults)

    ramp_true: dict[int, np.ndarray] = {}
    v_true = None
    rho_true = None

    if args.preset:
        result = simulate.simulate_truth(sc, strict_cfl=args.strict_cfl)
        meas = simulate.frames_from_simulation(
            result,
            rng,
            penetration=args.penetration,
            speed_spread_kmh=args.speed_spread,
            window=args.window,
            flow_noise_std_vph=args.flow_noise_std,
            speed_noise_std_kmh=args.speed_noise_std,
            clamp_nonnegative=args.clamp_noise,
        )
        K = meas.n_steps
        rho_true = result.densities[:K]
        v_true = sc.speeds_kmh
        ramp_true = {seg: series for seg, series in sc.ramp_flows_vph.items()}
        default_speed = float(np.mean(sc.speeds_kmh))
        config_echo["source"] = {"preset": args.preset}
    elif args.trajectories:
        traj = sensing.load_trajectories(args.trajectories)
        exclude = _parse_lanes(args.exclude_lanes)
        rules = _parse_ramp_lane(args.ramp_lane, cfg)
        t0 = traj.t_min_s
        meas = sensing.frames_from_trajectories(
            traj,
            cfg,
            args.penetration,
            rng,
            t0_s=t0,
            window=args.window,
            exclude_lanes=exclude,
            ramp_rules=[r for r in rules if cfg.segments[r.segment - 1].ramp_measured],
        )
        if args.flow_noise_std > 0 or args.speed_noise_std > 0:
            meas = sensing.add_measurement_noise(
                meas,
                rng,
                flow_std_vph=args.flow_noise_std,
                speed_std_kmh=args.speed_noise_std,
                clamp_nonnegative=args.clamp_noise,
            )
        K = meas.n_steps
        rho_true = sensing.ground_truth_densities(traj, cfg, K, t0_s=t0, exclude_lanes=exclude)
        v_true = sensing.segment_speed_series(
            traj, cfg, K, frozenset(traj.vehicle_ids), t0_s=t0, exclude_lanes=exclude
        )
        for rule in rules:
            ramp_true[rule.segment] = sensing.lane_transition_flow(
                traj, rule, K, cfg.time_step_h, t0_s=t0
            )
        default_speed = 100.0
        config_echo["source"] = {"trajectories": str(args.trajectories), "network": str(args.network)}
    else:
        detectors = sensing.load_detectors(args.detectors)
        clean = sensing.frames_from_detectors(detectors, cfg)
        meas = clean
        if args.flow_noise_std > 0 or args.speed_noise_std > 0:
            meas = sensing.add_measurement_noise(
                clean,
                rng,
                flow_std_vph=args.flow_noise_std,
                speed_std_kmh=args.speed_noise_std,
                clamp_nonnegative=args.clamp_noise,
            )
        K = meas.n_steps
        # Density truth: the clean sensor flow over the clean speed, where
        # the filter would read it.
        v_true = clean.speeds_kmh.copy()
        q = clean.sensor_table(range(1, cfg.n_segments + 1))
        reading = np.isfinite(q) & (v_true > kalman.V_FLOOR_KMH)
        rho_true = np.divide(q, v_true, out=np.full_like(q, np.nan), where=reading)
        default_speed = 100.0
        # Detector speeds are used as reported: no smoothing window applies.
        config_echo["window"] = None
        config_echo["source"] = {"detectors": str(args.detectors), "network": str(args.network)}

    report = validate_network(cfg)
    if not report.ok:
        logger.warning("network validation failed:\n%s", report)

    fr = kalman.run_filter(
        cfg,
        idx,
        tuning,
        meas,
        sensor_segments=sensors,
        default_speed_kmh=default_speed,
        strict_cfl=args.strict_cfl,
        clamp_nonnegative=args.clamp_output,
    )

    est = fr.densities[:K]
    cv, cv_full = _masked_cv(est, rho_true, args.warmup)

    w = None
    if v_true is not None:
        vt = v_true.copy()
        rho_w = np.where(np.isfinite(rho_true), rho_true, 0.0)
        vt = np.where(np.isfinite(vt), vt, fr.speeds_used)
        w = metrics.speed_error_covariance(rho_w, fr.speeds_used, vt, cfg, warmup=args.warmup)

    ramp_est: dict[int, np.ndarray] = {}
    if idx.n_theta:
        flows = fr.ramp_flows(cfg.lengths_km, cfg.time_step_h)[:K]
        ramp_est = {seg: flows[:, j] for j, seg in enumerate(idx.theta_segments)}
    recovered = sorted(set(ramp_est) & set(ramp_true))
    est_table = truth_table = None
    if recovered:
        est_table = np.column_stack([ramp_est[s] for s in recovered])
        truth_table = np.column_stack([ramp_true[s][:K] for s in recovered])
    ramp_rmse, lag, lag_rmse = _ramp_metrics(est_table, truth_table, args.warmup)

    run_metrics = metrics.RunMetrics(
        cv_rho=cv,
        cv_rho_full=cv_full,
        horizon_steps=K,
        warmup_steps=args.warmup,
        speed_error_covariance_w=w,
        ramp_flow_rmse=ramp_rmse,
        ramp_flow_best_lag=lag,
        ramp_flow_rmse_at_best_lag=lag_rmse,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_estimates_csv(
        out / ESTIMATES_CSV,
        cfg,
        meas,
        fr,
        rho_true=rho_true,
        v_true=v_true,
        ramp_true={s: np.asarray(v)[:K] for s, v in ramp_true.items()},
        ramp_est=ramp_est,
    )
    config_echo["network"] = cfg.to_dict()
    config_echo["tuning"] = _tuning_echo(tuning, idx)
    summary = {
        "config": config_echo,
        "sensors_used": list(fr.sensor_segments),
        "cfl": {"max_ratio": fr.cfl.max_ratio, "violations": len(fr.cfl.violations)},
        "held_measurement_steps": fr.held_measurement_steps,
        "held_entry_steps": fr.held_entry_steps,
        "validation_ok": report.ok,
        "metrics": {k: v for k, v in run_metrics.to_dict().items()},
    }
    _write_json(out / SUMMARY_JSON, summary)
    print(f"cv_rho={cv:.4f} (full horizon {cv_full:.4f}), wrote {out / ESTIMATES_CSV}")
    return 0


def cmd_sweep(args) -> int:
    try:
        p_values = [float(x) for x in args.p.split(",") if x.strip() != ""]
    except ValueError:
        raise SystemExit(f"--p expects comma-separated numbers, got {args.p!r}")
    if not p_values or any(not 0.0 <= p <= 1.0 for p in p_values):
        raise SystemExit("--p values must lie in [0, 1]")
    if args.reps < 1:
        raise SystemExit("--reps must be at least 1")

    sc = simulate.make_congestion_scenario(args.preset, args.seed)
    cfg = sc.cfg
    idx = build_state_index(cfg)
    sensors = tuple(sorted(cfg.flow_sensor_segments))
    tuning = _resolve_tuning(args, idx, len(sensors), simulate.preset_filter_defaults(args.preset))
    result = simulate.simulate_truth(sc, strict_cfl=args.strict_cfl)
    K = sc.n_steps
    rho_true = result.densities[:K]

    default_speed = float(np.mean(sc.speeds_kmh))

    def rate_rows(p: float) -> list[tuple]:
        # Every repetition and variant of the rate is filtered as one batch,
        # ordered rep by rep: (rep 0 raw, rep 0 smoothed, rep 1 raw, ...).
        batch = []
        for rep in range(args.reps):
            rng = _rep_rng(args.seed, rep, args.reps)
            raw = simulate.synthetic_measurements(
                result,
                rng,
                penetration=p,
                speed_spread_kmh=args.speed_spread,
                flow_noise_std_vph=args.flow_noise_std,
                speed_noise_std_kmh=args.speed_noise_std,
                clamp_nonnegative=args.clamp_noise,
            )
            smoothed = raw
            if args.window > 1:
                speeds = sensing.moving_average_speed(raw.speeds_kmh, args.window)
                smoothed = dataclasses.replace(raw, speeds_kmh=speeds)
            batch += [raw, smoothed]
        results = kalman.run_filter_batch(
            cfg,
            idx,
            tuning,
            batch,
            sensor_segments=sensors,
            default_speed_kmh=default_speed,
            strict_cfl=args.strict_cfl,
            clamp_nonnegative=args.clamp_output,
        )
        rows = []
        for j, variant in enumerate(("instantaneous", "moving_average")):
            cvs = [metrics.cv_rho(fr.densities[:K], rho_true, warmup=args.warmup) for fr in results[j::2]]
            ws = [
                metrics.speed_error_covariance(rho_true, fr.speeds_used, sc.speeds_kmh, cfg, warmup=args.warmup)
                for fr in results[j::2]
            ]
            std = float(np.std(cvs, ddof=1)) if len(cvs) > 1 else 0.0
            rows.append((p, variant, float(np.mean(cvs)), std, float(np.mean(ws))))
        return rows

    # One batch per rate, not one for the whole sweep, bounds peak memory;
    # each rate's batch is freed before the next is built.
    rows = [row for p in p_values for row in rate_rows(p)]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / SWEEP_CSV, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["p", "variant", "mean_cv_rho", "std_cv_rho", "mean_w"])
        for p, variant, mean_cv, std_cv, mean_w in rows:
            writer.writerow([_fmt(p), variant, _fmt(mean_cv), _fmt(std_cv), _fmt(mean_w)])
    summary = {
        "config": {
            "preset": args.preset,
            "p_values": p_values,
            "reps": args.reps,
            "seed": args.seed,
            "window": args.window,
            "speed_spread": args.speed_spread,
            "flow_noise_std": args.flow_noise_std,
            "speed_noise_std": args.speed_noise_std,
            "warmup": args.warmup,
            "network": cfg.to_dict(),
            "tuning": _tuning_echo(tuning, idx),
        }
    }
    _write_json(out / SUMMARY_JSON, summary)
    print(f"wrote {len(rows)} rows to {out / SWEEP_CSV}")
    return 0


def cmd_metrics(args) -> int:
    out = Path(args.out)
    summary = json.loads((out / SUMMARY_JSON).read_text())
    config = summary["config"]
    cfg = NetworkConfig.from_dict(config["network"])
    warmup = int(config.get("warmup", metrics.DEFAULT_WARMUP_STEPS))

    table: dict[str, list[float]] = {c: [] for c in _CSV_COLUMNS}
    with open(out / ESTIMATES_CSV, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != _CSV_COLUMNS:
            raise SystemExit(f"{out / ESTIMATES_CSV}: unexpected header {reader.fieldnames}")
        for row in reader:
            for c in _CSV_COLUMNS:
                table[c].append(_parse_cell(row[c]))

    n = cfg.n_segments
    K = len(table["k"]) // n
    shape = (K, n)

    def grid(column: str) -> np.ndarray:
        return np.array(table[column], dtype=float).reshape(shape)

    rho_true = grid("rho_true")
    rho_est = grid("rho_est")
    v_used = grid("v_used")
    v_true = grid("v_true")
    ramp_true = grid("ramp_flow_true")
    ramp_est = grid("ramp_flow_est")

    cv, cv_full = _masked_cv(rho_est, rho_true, warmup)
    w = None
    if np.isfinite(v_true).any():
        rho_w = np.where(np.isfinite(rho_true), rho_true, 0.0)
        vt = np.where(np.isfinite(v_true), v_true, v_used)
        w = metrics.speed_error_covariance(rho_w, v_used, vt, cfg, warmup=warmup)
    both = np.isfinite(ramp_true) & np.isfinite(ramp_est)
    cols = [i for i in range(n) if both[:, i].all()]
    est_table = truth_table = None
    if cols:
        est_table = ramp_est[:, cols]
        truth_table = ramp_true[:, cols]
    ramp_rmse, lag, lag_rmse = _ramp_metrics(est_table, truth_table, warmup)

    recomputed = metrics.RunMetrics(
        cv_rho=cv,
        cv_rho_full=cv_full,
        horizon_steps=K,
        warmup_steps=warmup,
        speed_error_covariance_w=w,
        ramp_flow_rmse=ramp_rmse,
        ramp_flow_best_lag=lag,
        ramp_flow_rmse_at_best_lag=lag_rmse,
    )
    print(json.dumps(recomputed.to_dict(), indent=2, sort_keys=True))
    return 0


def _add_tuning_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q-density", type=float, default=1.0, help="process variance on density states")
    p.add_argument("--q-ramp", type=float, default=0.01, help="process variance on ramp states")
    p.add_argument("--meas-var", type=float, default=None, help="measurement variance (default per source)")
    p.add_argument("--init-mean", type=float, default=None, help="initial state mean (default per source)")
    p.add_argument(
        "--init-ramp", type=float, default=None, help="initial ramp-state mean (default per source, else --init-mean)"
    )
    p.add_argument("--init-var", type=float, default=1.0, help="initial covariance diagonal")
    p.add_argument("--warmup", type=int, default=metrics.DEFAULT_WARMUP_STEPS, help="steps excluded from metrics")


def _add_noise_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--flow-noise-std", type=float, default=0.0, help="flow measurement noise std, veh/h")
    p.add_argument("--speed-noise-std", type=float, default=0.0, help="speed measurement noise std, km/h")
    p.add_argument(
        "--speed-spread", type=_spread, default=3.0, help="per-vehicle speed dispersion for sampling emulation, km/h"
    )
    p.add_argument("--clamp-noise", action="store_true", help="floor noisy measurements at zero")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trafficstate",
        description="Segment density and ramp flow estimation from probe speeds and sparse flow sensors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="check a network configuration")
    src = pv.add_mutually_exclusive_group(required=True)
    src.add_argument("--network", help="network JSON file")
    src.add_argument("--preset", choices=simulate.PRESET_NAMES)
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(func=cmd_validate)

    ps = sub.add_parser("simulate", help="write synthetic ground truth for a preset")
    ps.add_argument("--preset", required=True, choices=simulate.PRESET_NAMES)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", required=True, help="output directory")
    ps.add_argument("--strict-cfl", action="store_true")
    ps.set_defaults(func=cmd_simulate)

    pe = sub.add_parser("estimate", help="run the estimator and write estimates + summary")
    src = pe.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=simulate.PRESET_NAMES)
    src.add_argument("--trajectories", help="trajectory CSV (vehicle_id,t_s,x_m,lane,speed_mps)")
    src.add_argument("--detectors", help="detector CSV (detector_pos_m,t_s,flow_vph,speed_kmh)")
    pe.add_argument("--network", help="network JSON (required with --trajectories/--detectors)")
    pe.add_argument("--penetration", type=float, default=1.0)
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument(
        "--window", type=_window, default=3, help="speed moving-average window, steps (presets and trajectories)"
    )
    pe.add_argument("--out", required=True, help="output directory")
    pe.add_argument("--strict-cfl", action="store_true", help="fail instead of warn on accuracy-bound violations")
    pe.add_argument("--clamp-output", action="store_true", help="floor published density estimates at zero")
    pe.add_argument("--exclude-lanes", help="comma-separated lane ids excluded from totals (trajectories)")
    pe.add_argument(
        "--ramp-lane",
        action="append",
        metavar="SEGMENT:LANE",
        help="lane rule for counting a ramp's flow from trajectories; repeatable",
    )
    _add_noise_flags(pe)
    _add_tuning_flags(pe)
    pe.set_defaults(func=cmd_estimate)

    pw = sub.add_parser("sweep", help="penetration sweep on a preset")
    pw.add_argument("--preset", required=True, choices=simulate.PRESET_NAMES)
    pw.add_argument("--p", default="0.02,0.05,0.2,1.0", help="comma-separated penetration rates")
    pw.add_argument("--reps", type=int, default=10, help="seeded repetitions per rate")
    pw.add_argument("--seed", type=int, default=0)
    pw.add_argument("--window", type=_window, default=3, help="speed moving-average window, steps")
    pw.add_argument("--out", required=True, help="output directory")
    pw.add_argument("--strict-cfl", action="store_true")
    pw.add_argument("--clamp-output", action="store_true")
    _add_noise_flags(pw)
    _add_tuning_flags(pw)
    pw.set_defaults(func=cmd_sweep)

    pm = sub.add_parser("metrics", help="recompute metrics from stored outputs")
    pm.add_argument("--out", required=True, help="directory holding estimates.csv and summary.json")
    pm.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trajectories", None) or getattr(args, "detectors", None):
        if not args.network:
            parser.error("--network is required with --trajectories/--detectors")
    try:
        return args.func(args)
    except (
        NetworkFormatError,
        sensing.TrajectoryFormatError,
        sensing.DetectorFormatError,
        FileNotFoundError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        kalman.SingularInnovationError,
        CflViolationError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

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
import errno
import functools
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import Mapping

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


def _rep_seeds(seed: int, reps: int) -> list[np.random.SeedSequence]:
    """Seeds of the ``reps`` repetitions of a run seeded with ``seed``; ``estimate`` is repetition 0 of 1."""
    return np.random.SeedSequence(seed).spawn(reps)


def _out_dir(text: str) -> Path:
    """The output directory ``--out``, checked before any work and not yet created.

    The path, or else its nearest existing ancestor, must be a directory.
    """
    out = Path(text)
    existing = next((p for p in (out, *out.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(existing))
    return out


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


# A sweep's filter batch takes whole rates while its state table, runs x
# (K+1) x dim float64s, stays within this many bytes; every batch takes at
# least one rate.
_BATCH_STATE_BYTES = 1_500_000

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


def cmd_validate(args) -> int:
    if args.preset:
        cfg = simulate.make_congestion_scenario(args.preset, args.seed).cfg
    else:
        cfg = load_network(args.network)
    report = validate_network(cfg)
    print(report)
    return 0 if report.ok else 1


def cmd_simulate(args) -> int:
    out = _out_dir(args.out)
    sc = simulate.make_congestion_scenario(args.preset, args.seed)
    result = simulate.simulate_truth(sc, strict_cfl=args.strict_cfl)
    cfl = check_cfl(sc.cfg, sc.speeds_kmh)
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


class FlagError(Exception):
    """A flag value that the network it is checked against rejects (exit 2)."""


class RunFormatError(Exception):
    """A stored run file that ``metrics`` cannot read back (exit 2)."""


def _ramp_rules(pairs, cfg: NetworkConfig) -> list[sensing.RampLaneRule]:
    """The ``--ramp-lane`` (segment, lane) pairs as rules, checked against the network, one per measured ramp."""
    rules = []
    for seg, lane in pairs or ():
        if not 1 <= seg <= cfg.n_segments:
            raise FlagError(f"--ramp-lane segment {seg} outside 1..{cfg.n_segments}")
        kind = cfg.segments[seg - 1].ramp
        if kind is RampType.NONE:
            raise FlagError(f"--ramp-lane segment {seg} carries no ramp in the network")
        rules.append(sensing.RampLaneRule(segment=seg, lane=lane, kind=kind))
    missing = sorted(set(cfg.ramp_segments(measured=True)) - {r.segment for r in rules})
    if missing:
        raise FlagError(f"measured ramps without a --ramp-lane rule: {missing}")
    return rules


def _whole(minimum: int):
    """argparse type for a whole number of steps, at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _non_negative(text: str) -> float:
    """argparse type for spreads and noise levels: a finite, non-negative number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text}")
    return value


def _fraction(text: str) -> float:
    """argparse type for ``--penetration``: a finite number in [0, 1]."""
    value = _non_negative(text)
    if value > 1.0:
        raise argparse.ArgumentTypeError(f"must be at most 1, got {text}")
    return value


def _fractions(text: str) -> list[float]:
    """argparse type for ``--p``: comma-separated ``_fraction`` values, at least one."""
    values = [_fraction(x) for x in text.split(",") if x.strip() != ""]
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return values


def _lanes(text: str) -> frozenset[int]:
    """argparse type for ``--exclude-lanes``: comma-separated lane ids."""
    try:
        return frozenset(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _segment_lane(text: str) -> tuple[int, int]:
    """argparse type for ``--ramp-lane``: SEGMENT:LANE."""
    try:
        seg, lane = (int(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected SEGMENT:LANE, got {text!r}")
    return seg, lane


@dataclasses.dataclass(frozen=True)
class _Source:
    """What one input source hands to the shared tail of ``estimate``.

    ``meas`` is clean: no noise added and speeds not smoothed. The truth
    tables are (K, N), NaN where the source has no value. ``smoothed`` says
    whether ``--window`` applies to its speeds; ``echo`` holds the
    ``source`` block of the config echo and the run flags the source reads.
    """

    meas: sensing.Measurements
    rho_true: np.ndarray
    v_true: np.ndarray
    ramp_flow_true: np.ndarray
    default_speed: float
    smoothed: bool
    echo: dict


def _segment_table(n_steps: int, n_segments: int, series: Mapping[int, np.ndarray]) -> np.ndarray:
    """(K, N) table of per-segment series keyed by 1-based segment, NaN elsewhere."""
    table = np.full((n_steps, n_segments), np.nan)
    for seg, values in series.items():
        table[:, seg - 1] = np.asarray(values, dtype=float)[:n_steps]
    return table


def _preset_source(args, sc: simulate.Scenario, rng: np.random.Generator) -> _Source:
    result = simulate.simulate_truth(sc, strict_cfl=args.strict_cfl)
    meas = simulate.synthetic_measurements(
        result, rng, penetration=args.penetration, speed_spread_kmh=args.speed_spread
    )
    K = meas.n_steps
    return _Source(
        meas,
        rho_true=result.densities[:K],
        v_true=sc.speeds_kmh,
        ramp_flow_true=_segment_table(K, sc.cfg.n_segments, sc.ramp_flows_vph),
        default_speed=float(np.mean(sc.speeds_kmh)),
        smoothed=True,
        echo={
            "source": {"preset": args.preset},
            "penetration": args.penetration,
            "speed_spread": args.speed_spread,
        },
    )


def _trajectory_source(args, cfg: NetworkConfig, rng: np.random.Generator) -> _Source:
    exclude = args.exclude_lanes
    rules = _ramp_rules(args.ramp_lane, cfg)
    traj = sensing.load_trajectories(args.trajectories)
    meas = sensing.frames_from_trajectories(
        traj, cfg, args.penetration, rng, exclude_lanes=exclude, ramp_rules=rules
    )
    K = meas.n_steps
    ramp_true = {r.segment: sensing.lane_transition_flow(traj, r, K, cfg.time_step_h) for r in rules}
    return _Source(
        meas,
        rho_true=sensing.ground_truth_densities(traj, cfg, K, exclude_lanes=exclude),
        v_true=sensing.segment_speed_series(traj, cfg, K, frozenset(traj.ids.tolist()), exclude_lanes=exclude),
        ramp_flow_true=_segment_table(K, cfg.n_segments, ramp_true),
        default_speed=100.0,
        smoothed=True,
        echo={
            "source": {
                "trajectories": str(args.trajectories),
                "network": str(args.network),
                "exclude_lanes": sorted(exclude),
                "ramp_lane": [f"{r.segment}:{r.lane}" for r in rules],
            },
            "penetration": args.penetration,
        },
    )


def _detector_source(args, cfg: NetworkConfig, rng: np.random.Generator | None) -> _Source:
    """Detector readings as reported: no sampling draws from ``rng``, no smoothing."""
    meas = sensing.frames_from_detectors(sensing.load_detectors(args.detectors), cfg)
    # Density truth: the sensor flow over the speed, where the filter would read it.
    q = meas.sensor_table(range(1, cfg.n_segments + 1))
    reading = np.isfinite(q) & (meas.speeds_kmh > kalman.V_FLOOR_KMH)
    return _Source(
        meas,
        rho_true=np.divide(q, meas.speeds_kmh, out=np.full_like(q, np.nan), where=reading),
        v_true=meas.speeds_kmh,
        ramp_flow_true=np.full_like(q, np.nan),
        default_speed=100.0,
        smoothed=False,
        echo={"source": {"detectors": str(args.detectors), "network": str(args.network)}},
    )


def _noisy(args, meas: sensing.Measurements, rng: np.random.Generator | None) -> sensing.Measurements:
    """``meas`` with the noise of ``--flow-noise-std`` and ``--speed-noise-std``.

    Speeds, entry flows and sensor flows are floored at zero under
    ``--clamp-noise``, whatever the noise. A zero std draws nothing, and
    ``rng`` may then be None.
    """
    return sensing.add_measurement_noise(
        meas,
        rng,
        flow_std_vph=args.flow_noise_std,
        speed_std_kmh=args.speed_noise_std,
        clamp_nonnegative=args.clamp_noise,
    )


def _smoothed(meas: sensing.Measurements, window: int) -> sensing.Measurements:
    """``meas`` with its speeds averaged over a trailing window of steps."""
    if window <= 1:
        return meas
    return dataclasses.replace(meas, speeds_kmh=sensing.moving_average_speed(meas.speeds_kmh, window))


def _check_warmup(warmup: int, n_steps: int) -> None:
    """Fail before filtering when the warm-up leaves no step to score."""
    if warmup >= n_steps:
        raise ValueError(f"warmup {warmup} outside horizon of {n_steps} steps")


def _run_metrics(cfg: NetworkConfig, columns: Mapping[str, np.ndarray], warmup: int) -> dict:
    """The ``metrics`` block of a run, from its (K, N) ``estimates.csv`` columns.

    Only finite cells are scored, so the columns read back from the CSV
    (empty fields as NaN) give exactly the block the run wrote. A ramp
    column is scored when both its estimate and its truth are finite at
    every step.
    """
    rho_true, rho_est = columns["rho_true"], columns["rho_est"]
    K = rho_est.shape[0]

    def cv(w: int) -> float:
        e, t = rho_est[w:], rho_true[w:]
        mask = np.isfinite(e) & np.isfinite(t)
        if not mask.any():
            raise ValueError("no overlapping finite cells between estimates and truth")
        return metrics.cv_rho(e[mask], t[mask], warmup=0)

    w = None
    v_used, v_true = columns["v_used"], columns["v_true"]
    if np.isfinite(v_true).any():
        rho_w = np.where(np.isfinite(rho_true), rho_true, 0.0)
        vt = np.where(np.isfinite(v_true), v_true, v_used)
        w = metrics.speed_error_covariance(rho_w, v_used, vt, cfg, warmup=warmup)

    est, truth = columns["ramp_flow_est"], columns["ramp_flow_true"]
    scored = (np.isfinite(est) & np.isfinite(truth)).all(axis=0)
    ramp_rmse = lag = lag_rmse = None
    if scored.any():
        # C order: the mean then sums the cells in the same order for any
        # layout of the input tables.
        est = np.ascontiguousarray(est[warmup:, scored])
        truth = np.ascontiguousarray(truth[warmup:, scored])
        ramp_rmse = metrics.ramp_flow_rmse(est, truth)
        max_lag = min(20, K - warmup - 1)
        if est.shape[1] == 1 and max_lag >= 1:
            lag, lag_rmse = metrics.ramp_flow_best_lag(est[:, 0], truth[:, 0], max_lag=max_lag)

    return metrics.RunMetrics(
        cv_rho=cv(warmup),
        cv_rho_full=cv(0),
        horizon_steps=K,
        warmup_steps=warmup,
        speed_error_covariance_w=w,
        ramp_flow_rmse=ramp_rmse,
        ramp_flow_best_lag=lag,
        ramp_flow_rmse_at_best_lag=lag_rmse,
    ).to_dict()


def _config_echo(args, cfg: NetworkConfig, tuning, idx) -> dict:
    """The config echo of the flags ``estimate`` and ``sweep`` share."""
    return {
        "seed": args.seed,
        "window": args.window,
        "speed_spread": args.speed_spread,
        "flow_noise_std": args.flow_noise_std,
        "speed_noise_std": args.speed_noise_std,
        "clamp_noise": args.clamp_noise,
        "warmup": args.warmup,
        "strict_cfl": args.strict_cfl,
        "clamp_output": args.clamp_output,
        "network": cfg.to_dict(),
        "tuning": _tuning_echo(tuning, idx),
    }


def cmd_estimate(args) -> int:
    out = _out_dir(args.out)
    # The network and the source's tuning defaults are known before any
    # ingestion, so bad tuning flags fail before the costly part of the run.
    if args.preset:
        sc = simulate.make_congestion_scenario(args.preset, args.seed)
        cfg, defaults = sc.cfg, simulate.preset_filter_defaults(args.preset)
        ingest = functools.partial(_preset_source, args, sc)
    elif args.trajectories:
        cfg, defaults = load_network(args.network), {"measurement_var": 10.0, "initial_density": 40.0}
        ingest = functools.partial(_trajectory_source, args, cfg)
    else:
        cfg, defaults = load_network(args.network), {"measurement_var": 100.0, "initial_density": 4.0}
        ingest = functools.partial(_detector_source, args, cfg)
    idx = build_state_index(cfg)
    tuning = _resolve_tuning(args, idx, len(cfg.flow_sensor_segments), defaults)

    # Every source runs the same tail: noise, then smoothing, then the filter.
    # A run that draws nothing (detector readings without noise) gets no
    # generator, so it never loads numpy.random.
    draws = not args.detectors or args.flow_noise_std > 0 or args.speed_noise_std > 0
    rng = np.random.default_rng(_rep_seeds(args.seed, 1)[0]) if draws else None
    src = ingest(rng)
    K, n = src.meas.n_steps, cfg.n_segments
    _check_warmup(args.warmup, K)
    meas = _noisy(args, src.meas, rng)
    if src.smoothed:
        meas = _smoothed(meas, args.window)

    report = validate_network(cfg)
    if not report.ok:
        logger.warning("network validation failed:\n%s", report)

    fr = kalman.run_filter(
        cfg,
        idx,
        tuning,
        meas,
        default_speed_kmh=src.default_speed,
        strict_cfl=args.strict_cfl,
        clamp_nonnegative=args.clamp_output,
    )
    ramp_est = dict(zip(idx.theta_segments, fr.ramp_flows(cfg.lengths_km, cfg.time_step_h).T))
    columns = {
        "rho_true": src.rho_true,
        "rho_est": fr.densities[:K],
        "v_used": fr.speeds_used,
        "q_sensor": meas.sensor_table(range(1, n + 1)),
        "v_true": src.v_true,
        "ramp_flow_true": src.ramp_flow_true,
        "ramp_flow_est": _segment_table(K, n, ramp_est),
    }
    run_metrics = _run_metrics(cfg, columns, args.warmup)

    out.mkdir(parents=True, exist_ok=True)
    _write_grid_csv(out / ESTIMATES_CSV, K, n, columns)
    config_echo = {
        **_config_echo(args, cfg, tuning, idx),
        # Flags a source does not read are echoed as null.
        "penetration": None,
        "speed_spread": None,
        "window": args.window if src.smoothed else None,
        **src.echo,
    }
    summary = {
        "config": config_echo,
        "sensors_used": list(fr.sensor_segments),
        "cfl": {"max_ratio": fr.cfl.max_ratio, "violations": len(fr.cfl.violations)},
        "held_measurement_steps": fr.held_measurement_steps,
        "held_entry_steps": fr.held_entry_steps,
        "held_ramp_steps": fr.held_ramp_steps,
        "validation_ok": report.ok,
        "metrics": run_metrics,
    }
    _write_json(out / SUMMARY_JSON, summary)
    print(
        f"cv_rho={run_metrics['cv_rho']:.4f} (full horizon {run_metrics['cv_rho_full']:.4f}),"
        f" wrote {out / ESTIMATES_CSV}"
    )
    return 0


def cmd_sweep(args) -> int:
    out = _out_dir(args.out)
    sc = simulate.make_congestion_scenario(args.preset, args.seed)
    cfg = sc.cfg
    idx = build_state_index(cfg)
    tuning = _resolve_tuning(args, idx, len(cfg.flow_sensor_segments), simulate.preset_filter_defaults(args.preset))
    result = simulate.simulate_truth(sc, strict_cfl=args.strict_cfl)
    K = sc.n_steps
    _check_warmup(args.warmup, K)
    rho_true = result.densities[:K]

    default_speed = float(np.mean(sc.speeds_kmh))
    seeds = _rep_seeds(args.seed, args.reps)
    # Whole rates share a batch while its state table stays within the cap,
    # so a small preset takes few batches and a large one keeps its peak
    # memory; each batch is freed before the next is built.
    runs_per_rate = 2 * args.reps
    rate_bytes = runs_per_rate * (K + 1) * idx.dim * np.dtype(float).itemsize
    per_batch = max(1, _BATCH_STATE_BYTES // rate_bytes)

    def runs(rates: list[float]):
        # Rate by rate, then rep by rep: (rep 0 raw, rep 0 smoothed, rep 1 raw, ...).
        for p in rates:
            for seed in seeds:
                rng = np.random.default_rng(seed)
                clean = simulate.synthetic_measurements(result, rng, penetration=p, speed_spread_kmh=args.speed_spread)
                raw = _noisy(args, clean, rng)
                yield raw
                yield _smoothed(raw, args.window)

    def batch_rows(rates: list[float]) -> list[tuple]:
        results = kalman.run_filter_batch(
            cfg,
            idx,
            tuning,
            runs(rates),
            default_speed_kmh=default_speed,
            strict_cfl=args.strict_cfl,
            clamp_nonnegative=args.clamp_output,
        )
        rows = []
        for i, p in enumerate(rates):
            for j, variant in enumerate(("instantaneous", "moving_average")):
                variant_results = results[i * runs_per_rate + j : (i + 1) * runs_per_rate : 2]
                cvs = [metrics.cv_rho(fr.densities[:K], rho_true, warmup=args.warmup) for fr in variant_results]
                ws = [
                    metrics.speed_error_covariance(rho_true, fr.speeds_used, sc.speeds_kmh, cfg, warmup=args.warmup)
                    for fr in variant_results
                ]
                std = float(np.std(cvs, ddof=1)) if len(cvs) > 1 else 0.0
                rows.append((p, variant, float(np.mean(cvs)), std, float(np.mean(ws))))
        return rows

    batches = [args.p[first : first + per_batch] for first in range(0, len(args.p), per_batch)]
    rows = [row for rates in batches for row in batch_rows(rates)]

    out.mkdir(parents=True, exist_ok=True)
    with open(out / SWEEP_CSV, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["p", "variant", "mean_cv_rho", "std_cv_rho", "mean_w"])
        for p, variant, mean_cv, std_cv, mean_w in rows:
            writer.writerow([_fmt(p), variant, _fmt(mean_cv), _fmt(std_cv), _fmt(mean_w)])
    sweep_echo = {"preset": args.preset, "p_values": args.p, "reps": args.reps}
    _write_json(out / SUMMARY_JSON, {"config": {**_config_echo(args, cfg, tuning, idx), **sweep_echo}})
    print(f"wrote {len(rows)} rows to {out / SWEEP_CSV}")
    return 0


def cmd_metrics(args) -> int:
    out = Path(args.out)
    try:
        config = json.loads((out / SUMMARY_JSON).read_text())["config"]
        network = config["network"]
    except (KeyError, TypeError) as exc:
        raise RunFormatError(f"{out / SUMMARY_JSON}: no config.network block") from exc
    cfg = NetworkConfig.from_dict(network)
    warmup = config.get("warmup", metrics.DEFAULT_WARMUP_STEPS)
    if type(warmup) is not int or warmup < 0:
        raise RunFormatError(
            f"{out / SUMMARY_JSON}: config.warmup must be an integer >= 0, got {json.dumps(warmup)}"
        )
    with open(out / ESTIMATES_CSV, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_COLUMNS:
            raise RunFormatError(f"{out / ESTIMATES_CSV}: unexpected header {header}")
        rows = []
        for row in reader:
            try:
                if len(row) != len(_CSV_COLUMNS):
                    raise ValueError(f"expected {len(_CSV_COLUMNS)} fields, got {len(row)}")
                rows.append([_parse_cell(c) for c in row])
            except ValueError as exc:
                raise RunFormatError(f"{out / ESTIMATES_CSV}:{reader.line_num}: {exc}") from exc
    cells = np.array(rows, dtype=float).reshape(-1, len(_CSV_COLUMNS))  # also when there are no rows
    n = cfg.n_segments
    K = len(cells) // n
    grid = np.column_stack([np.repeat(np.arange(K), n), np.tile(np.arange(1, n + 1), K)])
    if len(cells) != K * n or not np.array_equal(cells[:, :2], grid):
        raise RunFormatError(
            f"{out / ESTIMATES_CSV}: the k and segment columns of its {len(cells)} rows"
            f" do not form a grid of steps x {n} segments"
        )
    columns = {
        name: np.ascontiguousarray(cells[:, j].reshape(K, n))
        for j, name in enumerate(_CSV_COLUMNS)
        if name not in ("k", "segment")
    }
    print(json.dumps(_run_metrics(cfg, columns, warmup), indent=2, sort_keys=True))
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
    p.add_argument(
        "--warmup", type=_whole(0), default=metrics.DEFAULT_WARMUP_STEPS, help="steps excluded from metrics"
    )


def _add_noise_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--flow-noise-std", type=_non_negative, default=0.0, help="flow measurement noise std, veh/h")
    p.add_argument("--speed-noise-std", type=_non_negative, default=0.0, help="speed measurement noise std, km/h")
    p.add_argument(
        "--speed-spread", type=_non_negative, default=3.0, help="per-vehicle speed dispersion for sampling emulation, km/h"
    )
    p.add_argument(
        "--clamp-noise",
        action="store_true",
        help="floor speeds, entry flows and sensor flows at zero on every source, with or without noise",
    )


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
    pe.add_argument("--penetration", type=_fraction, default=1.0, help="share of vehicles reporting speeds")
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument(
        "--window", type=_whole(1), default=3, help="speed moving-average window, steps (presets and trajectories)"
    )
    pe.add_argument("--out", required=True, help="output directory")
    pe.add_argument("--strict-cfl", action="store_true", help="fail instead of warn on accuracy-bound violations")
    pe.add_argument("--clamp-output", action="store_true", help="floor published density estimates at zero")
    pe.add_argument(
        "--exclude-lanes",
        type=_lanes,
        default=frozenset(),
        help="comma-separated lane ids excluded from totals (trajectories)",
    )
    pe.add_argument(
        "--ramp-lane",
        type=_segment_lane,
        action="append",
        metavar="SEGMENT:LANE",
        help="lane rule for counting a ramp's flow from trajectories; repeatable",
    )
    _add_noise_flags(pe)
    _add_tuning_flags(pe)
    pe.set_defaults(func=cmd_estimate)

    pw = sub.add_parser("sweep", help="penetration sweep on a preset")
    pw.add_argument("--preset", required=True, choices=simulate.PRESET_NAMES)
    pw.add_argument(
        "--p", type=_fractions, default="0.02,0.05,0.2,1.0", help="comma-separated penetration rates in [0, 1]"
    )
    pw.add_argument("--reps", type=_whole(1), default=10, help="seeded repetitions per rate")
    pw.add_argument("--seed", type=int, default=0)
    pw.add_argument("--window", type=_whole(1), default=3, help="speed moving-average window, steps")
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
    if args.command == "estimate":
        if (args.trajectories or args.detectors) and not args.network:
            parser.error("--network is required with --trajectories/--detectors")
        if args.preset and args.network:
            parser.error("--network applies to --trajectories/--detectors only")
        if (args.exclude_lanes or args.ramp_lane) and not args.trajectories:
            parser.error("--exclude-lanes and --ramp-lane apply to --trajectories only")
        ramp_segments = [seg for seg, _lane in args.ramp_lane or ()]
        if len(set(ramp_segments)) != len(ramp_segments):
            parser.error("--ramp-lane names a segment more than once")
    try:
        return args.func(args)
    except (
        FlagError,
        RunFormatError,
        NetworkFormatError,
        sensing.TrajectoryFormatError,
        sensing.DetectorFormatError,
        OSError,
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

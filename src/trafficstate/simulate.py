"""Synthetic ground truth from the conservation dynamics.

A Scenario prescribes exogenous segment speeds and demands; simulate_truth
iterates the density conservation recursion exactly, which makes the result
a brute-force oracle for the estimator (truth and filter share the model
class). Probe reports are emulated afterwards by sampling per-segment
vehicle subsets, so penetration-rate experiments run without any
microscopic data.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from trafficstate.network import CflViolationError, NetworkConfig, RampType, Segment, check_cfl
from trafficstate.sensing import Measurements

logger = logging.getLogger(__name__)

__all__ = [
    "Scenario",
    "SimulationResult",
    "CflViolationError",
    "simulate_truth",
    "emulate_probe_speeds",
    "synthetic_measurements",
    "make_congestion_scenario",
    "preset_filter_defaults",
    "save_scenario",
    "PRESET_NAMES",
]

PRESET_NAMES = ("ngsim_like", "a20_like")


@dataclass(frozen=True)
class Scenario:
    """Exogenous inputs for one synthetic run.

    ``speeds_kmh`` is the true mean speed table (K, N); ``entry_flow_vph``
    the demand entering segment 1; ``ramp_flows_vph`` maps 1-based ramp
    segments to non-negative magnitude series (off-ramp direction is taken
    from the network). Ramp segments absent from the map flow zero.
    """

    cfg: NetworkConfig
    n_steps: int
    initial_density_veh_km: np.ndarray
    speeds_kmh: np.ndarray
    entry_flow_vph: np.ndarray
    ramp_flows_vph: Mapping[int, np.ndarray] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        n = self.cfg.n_segments
        K = self.n_steps
        rho0 = np.asarray(self.initial_density_veh_km, dtype=float)
        v = np.asarray(self.speeds_kmh, dtype=float)
        q0 = np.asarray(self.entry_flow_vph, dtype=float)
        if rho0.shape != (n,):
            raise ValueError(f"initial density must have shape ({n},), got {rho0.shape}")
        if v.shape != (K, n):
            raise ValueError(f"speed table must have shape ({K}, {n}), got {v.shape}")
        if q0.shape != (K,):
            raise ValueError(f"entry flow must have shape ({K},), got {q0.shape}")
        if (rho0 < 0).any() or (q0 < 0).any() or (v < 0).any():
            raise ValueError("initial densities, speeds and demands must be non-negative")
        ramps = {}
        ramp_segments = set(self.cfg.ramp_segments())
        for seg, series in dict(self.ramp_flows_vph).items():
            if seg not in ramp_segments:
                raise ValueError(f"segment {seg} carries no ramp in the network")
            arr = np.asarray(series, dtype=float)
            if arr.shape != (K,):
                raise ValueError(f"ramp flow at segment {seg} must have shape ({K},), got {arr.shape}")
            if (arr < 0).any():
                raise ValueError(f"ramp flow at segment {seg} must be non-negative")
            ramps[int(seg)] = arr
        object.__setattr__(self, "initial_density_veh_km", rho0)
        object.__setattr__(self, "speeds_kmh", v)
        object.__setattr__(self, "entry_flow_vph", q0)
        object.__setattr__(self, "ramp_flows_vph", ramps)


@dataclass(frozen=True)
class SimulationResult:
    """Truth produced by the conservation recursion.

    ``densities`` has K+1 rows (row 0 is the initial condition);
    ``segment_flows`` has K rows of q_i(k) = rho_i(k) * v_i(k).
    """

    scenario: Scenario
    densities: np.ndarray
    segment_flows: np.ndarray

    @property
    def speeds_kmh(self) -> np.ndarray:
        return self.scenario.speeds_kmh


def _signed_ramp_table(sc: Scenario) -> np.ndarray:
    """(K, N) net ramp flow, on-ramps positive, off-ramps negative."""
    net = np.zeros((sc.n_steps, sc.cfg.n_segments))
    for seg, series in sc.ramp_flows_vph.items():
        sign = 1.0 if sc.cfg.segments[seg - 1].ramp is RampType.ON else -1.0
        net[:, seg - 1] = sign * series
    return net


def simulate_truth(sc: Scenario, *, strict_cfl: bool = False) -> SimulationResult:
    """Iterate the density conservation recursion exactly.

    Each step applies rho_i += (T/delta_i) * (q_{i-1} - q_i + r_i - s_i)
    with q_i = rho_i * v_i and q_0 the entry demand. The accuracy bound on
    T*v/delta is checked first: violations warn, or raise in strict mode.
    """
    cfl = check_cfl(sc.cfg, sc.speeds_kmh)
    if not cfl.ok:
        msg = (
            f"scenario {sc.name or '<unnamed>'}: accuracy bound exceeded at"
            f" {len(cfl.violations)} (step, segment) pairs, max ratio {cfl.max_ratio:.3f}"
        )
        if strict_cfl:
            raise CflViolationError(msg)
        logger.warning(msg)

    n = sc.cfg.n_segments
    K = sc.n_steps
    ratio = sc.cfg.time_step_h / sc.cfg.lengths_km
    net_ramp = _signed_ramp_table(sc)

    densities = np.zeros((K + 1, n))
    flows = np.zeros((K, n))
    densities[0] = sc.initial_density_veh_km
    for k in range(K):
        rho = densities[k]
        q = rho * sc.speeds_kmh[k]
        flows[k] = q
        upstream = np.concatenate([[sc.entry_flow_vph[k]], q[:-1]])
        densities[k + 1] = rho + ratio * (upstream - q + net_ramp[k])
    return SimulationResult(scenario=sc, densities=densities, segment_flows=flows)


def emulate_probe_speeds(
    result: SimulationResult,
    penetration: float,
    rng: np.random.Generator,
    *,
    speed_spread_kmh: float = 3.0,
) -> np.ndarray:
    """Per-step reported segment speeds under partial penetration.

    Each cell holds n = rho*delta vehicles (rounded); a binomial draw decides
    how many, m, are connected. No connected vehicle means no report (NaN).
    Otherwise the reported mean speed deviates from the true mean with the
    finite-population standard error spread*sqrt(1/m - 1/n), which
    vanishes when every vehicle reports.

    Draw order: one binomial draw over the whole (K, N) table, then, when
    the spread is positive, one normal draw for the cells with 0 < m < n
    in row-major (step, then segment) order.
    """
    if not 0.0 <= penetration <= 1.0:
        raise ValueError(f"penetration must be in [0, 1], got {penetration}")
    if not (math.isfinite(speed_spread_kmh) and speed_spread_kmh >= 0.0):
        raise ValueError(f"speed spread must be finite and non-negative, got {speed_spread_kmh}")
    K = result.scenario.n_steps
    counts = np.rint(np.maximum(result.densities[:K] * result.scenario.cfg.lengths_km, 0.0)).astype(np.int64)
    connected = rng.binomial(counts, penetration)
    out = np.where(connected > 0, result.speeds_kmh, np.nan)
    if speed_spread_kmh > 0:
        partial = (connected > 0) & (connected < counts)
        m, total = connected[partial], counts[partial]
        out[partial] += rng.normal(0.0, speed_spread_kmh * np.sqrt(1.0 / m - 1.0 / total))
    return out


def synthetic_measurements(
    result: SimulationResult,
    rng: np.random.Generator | None = None,
    *,
    penetration: float = 1.0,
    speed_spread_kmh: float = 3.0,
) -> Measurements:
    """Clean measurements of a simulated truth: no noise, speeds not smoothed.

    Full penetration is the exact path: speeds and flows are the truth
    tables and no ``rng`` is needed. Below it, probe speeds are emulated by
    ``emulate_probe_speeds``, and the result depends only on the generator
    state. Flows are the truth: the entry demand, the sensor segments'
    flows and the measured ramps' magnitudes.
    """
    sc = result.scenario
    if penetration >= 1.0:
        speeds = result.speeds_kmh
    elif rng is None:
        raise ValueError("an rng is required when sampling is requested")
    else:
        speeds = emulate_probe_speeds(result, penetration, rng, speed_spread_kmh=speed_spread_kmh)
    return Measurements(
        speeds,
        sc.entry_flow_vph,
        {j: result.segment_flows[:, j - 1] for j in sc.cfg.flow_sensor_segments},
        {seg: sc.ramp_flows_vph.get(seg, np.zeros(sc.n_steps)) for seg in sc.cfg.ramp_segments(measured=True)},
    )


def _raised_cosine(k: np.ndarray, start: int, end: int) -> np.ndarray:
    """Smooth 0 -> 1 -> 0 hump supported on [start, end]."""
    inside = (k >= start) & (k <= end)
    phase = 2.0 * np.pi * (k - start) / max(end - start, 1)
    return np.where(inside, 0.5 * (1.0 - np.cos(phase)), 0.0)


def _ngsim_like(seed: int) -> Scenario:
    rng = np.random.default_rng(seed)
    n, K = 8, 360
    delta = 0.05
    T = 5.0 / 3600.0
    cfg = NetworkConfig(
        segments=tuple(
            Segment(length_km=delta, ramp=RampType.ON if i == 4 else RampType.NONE)
            for i in range(1, n + 1)
        ),
        flow_sensor_segments=frozenset({n}),
        time_step_h=T,
    )
    phase_wave, phase_demand, phase_ramp = rng.uniform(0.0, 2.0 * np.pi, 3)

    k = np.arange(K)
    t_h = k * T
    centers = (np.arange(1, n + 1) - 0.5) * delta
    # Stop-and-go bands sweeping upstream at 18 km/h; 34 km/h peak keeps
    # T*v/delta at 0.944, inside the accuracy bound.
    phases = 2.0 * np.pi * (centers[np.newaxis, :] + 18.0 * t_h[:, np.newaxis]) / 1.6
    speeds = 24.0 + 10.0 * np.sin(phases + phase_wave)

    entry = 6500.0 + 600.0 * np.sin(2.0 * np.pi * t_h / 0.10 + phase_demand)
    ramp = 600.0 + 100.0 * np.sin(2.0 * np.pi * t_h / 0.30 + phase_ramp)
    upstream_flow = np.full(n, entry[0])
    upstream_flow[3:] += ramp[0]
    rho0 = upstream_flow / speeds[0]
    return Scenario(
        cfg=cfg,
        n_steps=K,
        initial_density_veh_km=rho0,
        speeds_kmh=speeds,
        entry_flow_vph=entry,
        ramp_flows_vph={4: ramp},
        name="ngsim_like",
    )


def _a20_like(seed: int) -> Scenario:
    rng = np.random.default_rng(seed)
    n, K = 31, 1200
    T = 8.0 / 3600.0
    idx = np.arange(1, n + 1)
    deltas = 0.56 + 0.24 * ((3 * idx) % 7) / 6.0
    on_ramps = (3, 17, 25)
    off_ramps = (14, 21)
    segments = []
    for i in range(1, n + 1):
        ramp = RampType.ON if i in on_ramps else RampType.OFF if i in off_ramps else RampType.NONE
        segments.append(Segment(length_km=float(deltas[i - 1]), ramp=ramp))
    cfg = NetworkConfig(
        segments=tuple(segments),
        flow_sensor_segments=frozenset({13, 16, 20, 24, 31}),
        time_step_h=T,
    )

    k = np.arange(K)
    t_h = k * T
    # Internal bottleneck around segments 11..15: speeds dip to 40 km/h,
    # then fully recover; free flow 100 km/h against delta/T >= 252.
    dip_profile = np.exp(-((idx - 12.5) ** 2) / (2.0 * 3.0**2))
    dip_amplitude = 60.0 * _raised_cosine(k, 250, 800)
    speeds = 100.0 - dip_amplitude[:, np.newaxis] * dip_profile[np.newaxis, :]

    entry = 3200.0 + 800.0 * _raised_cosine(k, 200, 900)
    # Ramp period divides the horizon so end-of-run densities land back on
    # the initial profile for every seed.
    ramp_period_h = K * T / 6.0
    ramp_flows: dict[int, np.ndarray] = {}
    for seg in on_ramps:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        ramp_flows[seg] = 500.0 + 100.0 * np.sin(2.0 * np.pi * t_h / ramp_period_h + phase)
    for seg in off_ramps:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        ramp_flows[seg] = 350.0 + 60.0 * np.sin(2.0 * np.pi * t_h / ramp_period_h + phase)

    balance = np.full(n, entry[0])
    for seg, series in ramp_flows.items():
        sign = 1.0 if seg in on_ramps else -1.0
        balance[seg - 1 :] += sign * series[0]
    rho0 = balance / speeds[0]
    return Scenario(
        cfg=cfg,
        n_steps=K,
        initial_density_veh_km=rho0,
        speeds_kmh=speeds,
        entry_flow_vph=entry,
        ramp_flows_vph=ramp_flows,
        name="a20_like",
    )


def make_congestion_scenario(name: str, seed: int = 0) -> Scenario:
    """Build one of the bundled synthetic presets.

    ``ngsim_like``: 8 short segments, heavy stop-and-go waves entering
    from downstream, one unmeasured on-ramp, a single exit flow sensor.
    ``a20_like``: 31 heterogeneous segments, 5 unmeasured ramps, an
    internal bottleneck forming and fully dissipating, 5 flow sensors.
    The seed only moves demand/wave phases; each seed gives one fixed table.
    """
    if name == "ngsim_like":
        return _ngsim_like(seed)
    if name == "a20_like":
        return _a20_like(seed)
    raise ValueError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")


def preset_filter_defaults(name: str) -> dict[str, float]:
    """Per-preset filter calibration used by the command line.

    ``initial_density`` sits at each preset's typical stretch density;
    ``initial_ramp_state`` starts the unmeasured-ramp states near zero so
    the early flow estimate does not dwarf the actual ramp demand.
    """
    if name == "ngsim_like":
        return {"measurement_var": 10.0, "initial_density": 300.0, "initial_ramp_state": 0.0}
    if name == "a20_like":
        return {"measurement_var": 100.0, "initial_density": 35.0, "initial_ramp_state": 1.0}
    raise ValueError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")


def save_scenario(sc: Scenario, path: str | Path) -> None:
    """Write a scenario to JSON for inspection; nothing in the package reads it back."""
    payload = {
        "name": sc.name,
        "n_steps": sc.n_steps,
        "network": sc.cfg.to_dict(),
        "initial_density_veh_km": sc.initial_density_veh_km.tolist(),
        "speeds_kmh": sc.speeds_kmh.tolist(),
        "entry_flow_vph": sc.entry_flow_vph.tolist(),
        "ramp_flows_vph": {str(seg): series.tolist() for seg, series in sorted(sc.ramp_flows_vph.items())},
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


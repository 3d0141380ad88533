"""Highway stretch topology, sensor placement, and discretization checks.

Units are fixed across the whole package: lengths in km, time in hours,
speeds in km/h, densities in veh/km, flows in veh/h. Ingestion code converts
at the boundary (meters, m/s, seconds); nothing downstream converts again.

Segments are numbered 1..N. A flow sensor "at segment j" measures the total
flow crossing the downstream boundary of segment j; the entry flow of the
stretch is treated as a model input, not a sensor entry.

``_cfl_decision`` is the one owner of the discretization policy.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "RampType",
    "Segment",
    "NetworkConfig",
    "Violation",
    "ValidationReport",
    "CflReport",
    "CflViolationError",
    "InputError",
    "validate_network",
    "check_cfl",
    "load_network",
    "save_network",
]


class InputError(ValueError):
    """A file or flag the user supplied cannot be used; the command line exits 2."""


class RampType(str, Enum):
    NONE = "none"
    ON = "on_ramp"
    OFF = "off_ramp"


@dataclass(frozen=True)
class Segment:
    """One highway segment; at most one ramp (on or off) may attach to it.

    ``ramp_measured`` is meaningful only when ``ramp`` is not NONE: it marks
    whether the ramp flow is directly sensed or must be estimated.
    """

    length_km: float
    ramp: RampType = RampType.NONE
    ramp_measured: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.ramp, RampType):
            object.__setattr__(self, "ramp", RampType(self.ramp))


def _flag(raw: dict, name: str, default: bool, where: str = "") -> bool:
    """A JSON boolean field; any other value, such as the string "false", is a format error."""
    value = raw.get(name, default)
    if not isinstance(value, bool):
        raise InputError(f"{where}{name} must be true or false, got {value!r}")
    return value


def _number(value, name: str) -> float:
    """A JSON number as a float; any other value, such as true or the string "0.5", is a format error."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise InputError(f"{name} must be a number, got {json.dumps(value)}")
    return float(value)


def _segment_from_dict(d: dict, pos: int) -> Segment:
    try:
        length = d["length_km"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"segment {pos}: bad or missing length_km") from exc
    length = _number(length, f"segment {pos}: length_km")
    ramp_raw = d.get("ramp", "none")
    try:
        ramp = RampType(ramp_raw)
    except ValueError as exc:
        raise InputError(f"segment {pos}: unknown ramp type {ramp_raw!r}") from exc
    return Segment(length_km=length, ramp=ramp, ramp_measured=_flag(d, "ramp_measured", False, f"segment {pos}: "))


@dataclass(frozen=True)
class NetworkConfig:
    """A single linear stretch: ordered segments plus sensor placement.

    Segment indices are 1-based everywhere (a segment's identity is its
    position in ``segments``). ``flow_sensor_segments`` holds the segments
    whose exit flow is measured; the stretch entry flow is a separate input
    and is flagged by ``entry_flow_measured``.

    Construction raises InputError unless there is a segment, every length
    and the time step are positive and finite, and every sensor is an
    integer (not a bool) in 1..N.
    """

    segments: tuple[Segment, ...]
    flow_sensor_segments: frozenset[int]
    time_step_h: float
    entry_flow_measured: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        sensors = list(self.flow_sensor_segments)
        if bad := [j for j in sensors if isinstance(j, bool) or not isinstance(j, numbers.Integral)]:
            raise InputError(f"flow_sensors entries must be integers, got {bad}")
        object.__setattr__(self, "flow_sensor_segments", frozenset(int(j) for j in sensors))
        if not self.segments:
            raise InputError("segments must be a non-empty array")
        # Each chained comparison is false for NaN as for an infinite value.
        for i, seg in enumerate(self.segments, start=1):
            if not 0 < seg.length_km < math.inf:
                raise InputError(f"segment {i}: length_km must be positive and finite, got {seg.length_km}")
        if not 0 < self.time_step_h < math.inf:
            raise InputError(f"time_step_h must be positive and finite, got {self.time_step_h}")
        if outside := sorted(j for j in self.flow_sensor_segments if not 1 <= j <= self.n_segments):
            raise InputError(f"flow_sensors outside 1..{self.n_segments}: {outside}")

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def lengths_km(self) -> np.ndarray:
        return np.array([s.length_km for s in self.segments], dtype=float)

    @property
    def total_length_km(self) -> float:
        return float(sum(s.length_km for s in self.segments))

    def boundaries_km(self) -> np.ndarray:
        """Positions of the N+1 segment boundaries from the stretch origin."""
        return np.concatenate([[0.0], np.cumsum(self.lengths_km)])

    def ramp_segments(self, *, measured: bool | None = None) -> tuple[int, ...]:
        """1-based indices of segments with a ramp, optionally filtered."""
        out = []
        for i, seg in enumerate(self.segments, start=1):
            if seg.ramp is RampType.NONE:
                continue
            if measured is None or seg.ramp_measured == measured:
                out.append(i)
        return tuple(out)

    def segment_of_position(self, x_km: float) -> int | None:
        """1-based segment containing position ``x_km``, or None if outside.

        Boundaries belong to the downstream segment, except the stretch end
        which belongs to segment N.
        """
        return int(self.segments_of_positions(x_km)) or None

    def segments_of_positions(self, x_km) -> np.ndarray:
        """Array form of ``segment_of_position``, with 0 for "outside"."""
        x = np.asarray(x_km, dtype=float)
        edges = self.boundaries_km()
        seg = np.where(x >= edges[-1], self.n_segments, np.searchsorted(edges, x, side="right"))
        return np.where((x >= 0.0) & (x <= self.total_length_km), seg, 0)

    def to_dict(self) -> dict:
        """The JSON form of the network, read back by ``from_dict``."""
        return {
            "time_step_h": self.time_step_h,
            "segments": [
                {"length_km": s.length_km, "ramp": s.ramp.value, "ramp_measured": s.ramp_measured}
                for s in self.segments
            ],
            "flow_sensors": sorted(self.flow_sensor_segments),
            "entry_flow_measured": self.entry_flow_measured,
        }

    @classmethod
    def from_dict(cls, raw) -> NetworkConfig:
        """Parse the JSON form, raising InputError on a malformed one.

        Schema: ``{"time_step_h": float, "segments": [{"length_km": float,
        "ramp": "none"|"on_ramp"|"off_ramp", "ramp_measured": bool}, ...],
        "flow_sensors": [int, ...], "entry_flow_measured": bool}``. Flags
        must be JSON booleans, and lengths and the time step JSON numbers;
        the sensor and structural rules are the constructor's.
        """
        if not isinstance(raw, dict):
            raise InputError("expected a JSON object at top level")
        try:
            time_step = raw["time_step_h"]
            seg_list = raw["segments"]
        except KeyError as exc:
            raise InputError("missing or malformed time_step_h/segments") from exc
        time_step = _number(time_step, "time_step_h")
        if not isinstance(seg_list, list):
            raise InputError("segments must be a non-empty array")
        segments = tuple(_segment_from_dict(d, i) for i, d in enumerate(seg_list, start=1))
        sensors = raw.get("flow_sensors", [])
        if not isinstance(sensors, list):
            raise InputError("flow_sensors must be an array of segment indices")
        return cls(
            segments=segments,
            flow_sensor_segments=sensors,
            time_step_h=time_step,
            entry_flow_measured=_flag(raw, "entry_flow_measured", True),
        )


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str
    indices: tuple[int, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    def __str__(self) -> str:
        if self.ok:
            return "network ok"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  [{v.rule}] {v.message}" for v in self.violations]
        return "\n".join(lines)


@dataclass(frozen=True)
class CflReport:
    """Result of the discretization accuracy check 0 <= T*v/delta < 1."""

    max_ratio: float
    violations: tuple[tuple[int, int, float], ...]  # (step k, segment i, ratio)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_network(cfg: NetworkConfig) -> ValidationReport:
    """Check the sensor placement rule only; ``NetworkConfig`` checks structure.

    All breaks are reported, never raised. ``ok`` is true iff the
    placement makes the augmented system observable by construction:
    entry and exit flows measured, and at least one mainstream sensor
    between every two consecutive unmeasured ramps.
    """
    violations: list[Violation] = []
    n = cfg.n_segments

    if not cfg.entry_flow_measured:
        violations.append(Violation("entry-flow", "entry flow must be measured"))
    if n not in cfg.flow_sensor_segments:
        violations.append(
            Violation("exit-flow", f"exit flow sensor missing: segment {n} must carry a sensor", (n,))
        )

    unmeasured = cfg.ramp_segments(measured=False)
    for a, b in zip(unmeasured, unmeasured[1:]):
        if not any(a <= j <= b - 1 for j in cfg.flow_sensor_segments):
            violations.append(
                Violation(
                    "ramp-placement",
                    f"no mainstream sensor between consecutive unmeasured ramps {a},{b}"
                    f" (need one at some segment in {a}..{b - 1})",
                    (a, b),
                )
            )

    return ValidationReport(ok=not violations, violations=tuple(violations))


class CflViolationError(RuntimeError):
    """Raised in strict mode when the discretization accuracy bound fails."""


def check_cfl(cfg: NetworkConfig, speeds_kmh) -> CflReport:
    """Evaluate T*v_i(k)/delta_i for a per-step, per-segment speed series.

    ``speeds_kmh`` is (K, N) array-like; NaN entries (missing reports) are
    skipped. A pair (k, i) is flagged iff its ratio is >= 1 or negative: a
    negative speed gives the transition matrix a diagonal entry above 1.
    """
    v = np.atleast_2d(np.asarray(speeds_kmh, dtype=float))
    if v.size == 0:
        return CflReport(max_ratio=0.0, violations=())
    if v.shape[1] != cfg.n_segments:
        raise ValueError(f"speed series has {v.shape[1]} columns, expected {cfg.n_segments}")

    ratios = cfg.time_step_h * v / cfg.lengths_km[np.newaxis, :]
    finite = np.isfinite(ratios)
    max_ratio = float(np.max(ratios[finite])) if finite.any() else 0.0
    k, i = np.nonzero(finite & ((ratios >= 1.0) | (ratios < 0.0)))
    violations = tuple(zip(k.tolist(), (i + 1).tolist(), ratios[k, i].tolist()))
    return CflReport(max_ratio=max_ratio, violations=violations)


def _in_runs(hits: int, n_runs: int) -> str:
    """Which runs of a batch a log line covers; empty for a single run."""
    return f" in {hits} of {n_runs} runs" if n_runs > 1 else ""


def _cfl_decision(cfg: NetworkConfig, speed_tables, strict: bool, prefix: str) -> tuple[list[CflReport], str | None]:
    """``check_cfl`` on each speed table of a batch, and one line, led by ``prefix``, for all that fail.

    Returns the reports and the line, None when all pass; raises
    ``CflViolationError`` with the line instead when ``strict``. Pairs with
    a negative speed, whose ratio lies below the bound, are counted apart.
    """
    reports = [check_cfl(cfg, v) for v in speed_tables]
    hit = [r for r in reports if not r.ok]
    if not hit:
        return reports, None
    ratios = [ratio for r in hit for _k, _i, ratio in r.violations]
    negative = sum(ratio < 0.0 for ratio in ratios)
    negative_text = f", {negative} with a negative speed" if negative else ""
    line = (
        f"{prefix}discretization accuracy bound exceeded at {len(ratios)} (step, segment) pairs"
        f"{_in_runs(len(hit), len(reports))}{negative_text}, max ratio {max(r.max_ratio for r in hit):.3f}"
    )
    if strict:
        raise CflViolationError(line)
    return reports, line


def load_network(path: str | Path) -> NetworkConfig:
    """Read a network config from its JSON file format (see ``NetworkConfig.from_dict``)."""
    try:
        raw = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return NetworkConfig.from_dict(raw)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def save_network(cfg: NetworkConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")

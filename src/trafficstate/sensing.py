"""Measurement extraction: probe speeds, flow detectors, ground truth.

Two ingestion paths produce the same Measurements tables:

* vehicle trajectories (microscopic data): a random subset of vehicles is
  marked as connected, segment speeds are averaged over the connected
  vehicles present at each sampling instant, and flows are obtained from
  virtual detectors that count trajectory crossings at segment boundaries.
  The samples are held in one contiguous array per column, sorted by
  vehicle id and time (``_sorted_rows``, which sorts detector files by
  position and time), and every quantity is computed by array passes over
  them; which sample each vehicle reports at each sampling instant (the
  step grid, ``_step_grid``) is evaluated once per recording and grid, and
  each vehicle's first crossing of a position comes from ``_crossings``.
  The time axis starts at the recording's first sample time t_min: step k
  samples the vehicles at t_min + k*T and counts the flow over
  (t_min + k*T, t_min + (k+1)*T]. A vehicle whose latest sample is more
  than ``MAX_GAP_S`` (1 s) old has left the recording;
* stationary detector files (macroscopic data): each detector snaps to the
  nearest segment boundary within ``SNAP_TOLERANCE_M`` (100 m), boundary i
  feeding segment i and boundary 0 feeding the entry flow, and the time
  axis runs from the first sample to the last.

Every loader returns clean Measurements: no noise, and speeds not
smoothed. ``add_measurement_noise`` corrupts any Measurements and
``moving_average_speed`` smooths their speeds; the command line applies
them to every source in that order, noise first.

External units (meters, seconds, m/s) are converted here, once. Both
loaders parse their file in blocks of lines straight into one contiguous
array per column (``_read_columns``): integer columns as int32 unless the
file holds a value outside its range, floats as float64. So a trajectory
table keeps 28 bytes per sample. One ``np.loadtxt`` call judges every row:
a block it rejects, or that holds a NaN or infinite time or position (or
trajectory speed), is parsed again line by line by the same call, and the
first row that fails alone is reported with its file and line. A header
that names a column twice and a file that is not UTF-8 are rejected too.
"""

from __future__ import annotations

import csv
import logging
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from trafficstate.network import InputError, NetworkConfig, RampType

logger = logging.getLogger(__name__)

__all__ = [
    "Measurements",
    "VehicleTrack",
    "TrajectoryData",
    "RampLaneRule",
    "load_trajectories",
    "load_detectors",
    "assign_connected",
    "segment_speed_series",
    "moving_average_speed",
    "virtual_detector_flow",
    "lane_transition_flow",
    "ground_truth_densities",
    "frames_from_trajectories",
    "frames_from_detectors",
    "add_measurement_noise",
]

MPS_TO_KMH = 3.6
# A vehicle whose latest sample is older than this has left the recording.
MAX_GAP_S = 1.0
# A detector farther than this from every segment boundary is dropped.
SNAP_TOLERANCE_M = 100.0
# Input CSVs are counted this many characters at a time, then parsed this
# many lines at a time.
READ_BLOCK_CHARS = 1 << 16
READ_BLOCK_LINES = 1 << 11
_INT32 = np.iinfo(np.int32)


@dataclass(frozen=True)
class Measurements:
    """Everything the estimator consumes over K steps, as three C-contiguous tables.

    ``speeds_kmh`` is (K, N), NaN where no vehicle reported. Column b of
    ``flows_vph`` (K, N + 1) is the flow past segment boundary b: the entry
    flow at b = 0, the flow sensor's reading at its segment j, NaN where the
    reading is missing or the boundary has no sensor. ``ramp_flows_vph``
    (K, N) holds each measured ramp's flow magnitude, whatever its
    direction, in its segment's column, NaN elsewhere; None measures none.
    A table given as a strided view is copied, so it keeps no wider table
    alive. Each table is held as a read-only view: a C-contiguous float64
    array is adopted without a copy, and stays writeable to its owner, but
    no value can change through another one built from the same array.
    """

    speeds_kmh: np.ndarray
    flows_vph: np.ndarray
    ramp_flows_vph: np.ndarray | None = None

    def __post_init__(self) -> None:
        speeds = np.ascontiguousarray(self.speeds_kmh, dtype=float)
        if speeds.ndim != 2:
            raise ValueError(f"speeds must be a (K, N) table, got shape {speeds.shape}")
        K, n = speeds.shape

        def table(name: str, values, width: int) -> np.ndarray:
            arr = np.ascontiguousarray(values, dtype=float)
            if arr.shape != (K, width):
                raise ValueError(f"{name} must have shape ({K}, {width}), got {arr.shape}")
            return arr

        tables = {"speeds_kmh": speeds, "flows_vph": table("flows", self.flows_vph, n + 1)}
        if self.ramp_flows_vph is not None:
            tables["ramp_flows_vph"] = table("ramp flows", self.ramp_flows_vph, n)
        for name, arr in tables.items():
            view = arr.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def n_steps(self) -> int:
        return self.speeds_kmh.shape[0]


def _step_table(n_steps: int, width: int, series: Mapping[int, np.ndarray | float], fill: float = np.nan) -> np.ndarray:
    """(n_steps, width) table holding each series in the column its key names, ``fill`` elsewhere.

    A series is one value per step, or one value for every step.
    """
    table = np.full((n_steps, width), fill)
    for col, values in series.items():
        table[:, col] = values
    return table


@dataclass(frozen=True)
class VehicleTrack:
    """One vehicle's samples, sorted by time."""

    vehicle_id: int
    times_s: np.ndarray
    positions_m: np.ndarray
    speeds_mps: np.ndarray
    lanes: np.ndarray


class TrajectoryData:
    """Trajectory samples of one recording period, as one flat table.

    The constructor takes one entry per sample in each column, rows in any
    order, and sorts them by vehicle id and then by time, ties keeping row
    order. The read-only columns ``t_s``, ``x_m``, ``speed_mps`` and
    ``lane`` then hold every sample, vehicle after vehicle in the ascending
    order of ``ids``: vehicle ``ids[j]`` owns rows ``starts[j]:starts[j + 1]``.
    ``tracks`` maps each id to its samples as views into the columns, in the
    same order. So no result depends on the order of the rows, as long as no
    vehicle has two samples at one time.

    Rows already in that order are adopted without a sort or a copy, so the
    columns may share memory with numpy array arguments; the arguments
    themselves stay writeable. Integer ``vehicle_id`` and ``lane`` arrays
    keep their dtype (int32 from ``load_trajectories``, unless a value needs
    int64), without a cast or a copy; any other input converts to int64.
    """

    def __init__(self, vehicle_id, t_s, x_m, speed_mps, lane):
        vehicle_id, lane = (np.asarray(c) for c in (vehicle_id, lane))
        vehicle_id, lane = (c if c.dtype.kind in "iu" else c.astype(np.int64) for c in (vehicle_id, lane))
        t_s, x_m, speed_mps = (np.asarray(c, dtype=float) for c in (t_s, x_m, speed_mps))
        shapes = {c.shape for c in (vehicle_id, t_s, x_m, speed_mps, lane)}
        if len(shapes) != 1 or t_s.ndim != 1:
            raise ValueError(f"trajectory columns must be 1-D and of equal length, got shapes {shapes}")
        if t_s.size == 0:
            raise InputError("no trajectory samples")
        sorted_rows = _sorted_rows(vehicle_id, t_s, x_m, speed_mps, lane)
        self.ids, self.starts, (self.t_s, self.x_m, self.speed_mps, self.lane) = sorted_rows
        for column in (self.ids, self.starts, self.t_s, self.x_m, self.speed_mps, self.lane):
            column.flags.writeable = False
        self.t_min_s, self.t_max_s = float(self.t_s.min()), float(self.t_s.max())
        self._grid_key, self._grid_value = None, None

    @cached_property
    def tracks(self) -> dict[int, VehicleTrack]:
        bounds = self.starts.tolist()
        return {
            vid: VehicleTrack(vid, self.t_s[a:b], self.x_m[a:b], self.speed_mps[a:b], self.lane[a:b])
            for vid, a, b in zip(self.ids.tolist(), bounds[:-1], bounds[1:])
        }

    def _grid(self, n_steps: int, time_step_h: float):
        """``_step_grid`` at the times t_min + k*T, kept for the next request of the same grid.

        The speed series, the truth densities and the all-vehicle speeds of
        one run ask for the same grid; it is evaluated once.
        """
        key = (n_steps, time_step_h)
        if self._grid_key != key:
            times_s = self.t_min_s + np.arange(n_steps) * (time_step_h * 3600.0)
            self._grid_key, self._grid_value = key, _step_grid(self, times_s)
        return self._grid_value


@dataclass(frozen=True)
class RampLaneRule:
    """How to count a ramp's flow from lane numbers in trajectory data.

    On-ramps count vehicles whose lane changes away from ``lane`` (the
    merge); off-ramps count changes onto ``lane`` (the diverge).
    """

    segment: int
    lane: int
    kind: RampType


class _finite(float):
    """A column kind for ``_read_columns``: a float that may not be NaN or infinite."""


def _read_columns(path: str | Path, columns: Mapping[str, type]) -> dict[str, np.ndarray]:
    """Parse the named CSV columns in C; they are empty when there are no rows.

    A column's kind is ``int``, ``float`` or ``_finite``. The header may list
    the columns in any order, among others, but each of them once. Each
    column returned is its own contiguous array: the file's newlines are
    counted first, and its lines are then parsed ``READ_BLOCK_LINES`` at a
    time straight into arrays of that length, so a load holds the kept
    columns and one block. An ``int`` column is int32, or int64 once a block
    holds a value outside the int32 range: that block widens the column with
    one copy. One ``np.loadtxt`` call judges every row: a block it rejects,
    or whose ``_finite`` columns hold a NaN or an infinity, is read again
    line by line by the same call, and the first line that fails alone is
    the ``InputError``, as ``path:line: bad row {header: cell}``. A file
    that is not UTF-8 text is an ``InputError`` too.
    """
    dtype = [(name, "i8" if kind is int else "f8") for name, kind in columns.items()]
    # An integer column is held as int32 until a block needs int64.
    kinds = {name: np.int32 if kind == "i8" else np.float64 for name, kind in dtype}
    finite = [name for name, kind in columns.items() if kind is _finite]
    with open(path) as fh:
        # The header and the count decode the whole file; a later pass over
        # it meets no byte they did not.
        try:
            header = fh.readline()
            fields = next(csv.reader([header])) if header else None
            if fields is None or not set(columns).issubset(fields):
                raise InputError(f"{path}: header must contain {sorted(columns)}, got {fields}")
            twice = [name for name in columns if fields.count(name) > 1]
            if twice:
                raise InputError(f"{path}: header names column {twice[0]!r} more than once")
            start = fh.tell()
            n_lines, blank = 1, True
            for text in iter(partial(fh.read, READ_BLOCK_CHARS), ""):
                n_lines += text.count("\n")
                blank = blank and text.isspace()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
        if blank:
            return {name: np.empty(0, kind) for name, kind in kinds.items()}
        fh.seek(start)
        # Lines bound the rows; the pages past the last row are never touched.
        out = {name: np.empty(n_lines, kind) for name, kind in kinds.items()}
        where = {name: i for i, name in enumerate(fields)}
        parse = partial(
            np.loadtxt, delimiter=",", comments=None, ndmin=1, usecols=[where[name] for name in columns], dtype=dtype
        )

        def checked(lines) -> np.ndarray:
            block = parse(lines)
            if not all(np.isfinite(block[name]).all() for name in finite):
                raise ValueError("non-finite values")
            return block

        rows = 0
        with warnings.catch_warnings():
            # numpy < 2 only warns when it truncates "2.5" to an integer.
            warnings.simplefilter("error", DeprecationWarning)
            # A block of blank lines parses to no rows.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # ``first`` is the file line of the block's first line, the header being line 1.
            for first in range(2, n_lines + 2, READ_BLOCK_LINES):
                try:
                    block = checked(islice(fh, READ_BLOCK_LINES))
                except (ValueError, DeprecationWarning) as exc:
                    with open(path) as again:
                        for line, text in enumerate(islice(again, first - 1, first - 1 + READ_BLOCK_LINES), first):
                            try:
                                checked([text])
                            except (ValueError, DeprecationWarning) as why:
                                row = dict(zip(fields, text.rstrip("\r\n").split(",")))
                                raise InputError(f"{path}:{line}: bad row {row!r}") from why
                    raise InputError(f"{path}: {exc}") from exc
                for name in columns:
                    values = block[name]
                    narrow = out[name].dtype == np.int32
                    if narrow and values.size and (values.min() < _INT32.min or values.max() > _INT32.max):
                        wide = np.empty(n_lines, np.int64)
                        wide[:rows] = out[name][:rows]
                        out[name] = wide
                    out[name][rows : rows + block.size] = values
                rows += block.size
    return {name: column[:rows] for name, column in out.items()}


def _group_starts(keys: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values in sorted ``keys``, plus the end."""
    change = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    return np.concatenate([[0], change, [keys.size]])


def _sorted_rows(
    key: np.ndarray, t_s: np.ndarray, *columns: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The rows in ascending (key, time) order, ties keeping row order.

    Returns each group's key, the ``_group_starts`` of the sorted keys, and
    ``t_s`` and ``columns`` in that order. Rows already in it are adopted as
    they are, as views: one linear lexicographic check decides, and a NaN
    time fails it. Any other rows get one stable ``lexsort``.
    """
    # Forward: the key rises, or it stays and the time does not fall.
    forward = t_s[1:] >= t_s[:-1]
    forward |= key[1:] != key[:-1]
    forward &= key[1:] >= key[:-1]
    # Rows in order take the full slice, which makes views, not copies.
    order = slice(None) if forward.all() else np.lexsort((t_s, key))
    key = key[order]
    starts = _group_starts(key)
    key = key[starts[:-1]]  # frees the sorted keys before the sorted columns are made
    return key, starts, [c[order] for c in (t_s, *columns)]


def load_trajectories(path: str | Path) -> TrajectoryData:
    """Read a trajectory CSV: vehicle_id,t_s,x_m,lane,speed_mps.

    Rows may come in any order (see ``TrajectoryData``). A NaN or infinite
    time, position or speed is a format error.
    """
    cols = _read_columns(path, {"vehicle_id": int, "t_s": _finite, "x_m": _finite, "lane": int, "speed_mps": _finite})
    return TrajectoryData(**cols)


def assign_connected(vehicle_ids: Sequence[int], penetration: float, rng: np.random.Generator) -> frozenset[int]:
    """Mark each vehicle as connected independently with probability p.

    Draws one uniform number per id in sorted id order, so the marking
    depends only on the seed, not on container ordering.
    """
    if not 0.0 <= penetration <= 1.0:
        raise ValueError(f"penetration must be in [0, 1], got {penetration}")
    ids = np.sort(np.fromiter(vehicle_ids, dtype=np.int64))
    return frozenset(ids[rng.random(ids.size) < penetration].tolist())


def _bisect(lo: np.ndarray, hi: np.ndarray, holds) -> np.ndarray:
    """Per entry, the first index in [lo, hi) at which ``holds`` fails, else hi.

    ``holds`` maps an array of indices to a bool array and must hold on a
    prefix of every range: one binary search over all the ranges at once.
    """
    while (open_ := lo < hi).any():
        # Closed entries probe index 0, which exists while any entry is open.
        mid = np.where(open_, (lo + hi) // 2, 0)
        ok = open_ & holds(mid)
        lo, hi = np.where(ok, mid + 1, lo), np.where(open_ & ~ok, mid, hi)
    return lo


def _step_grid(
    traj: TrajectoryData, times_s: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each vehicle's latest sample at or before each grid time.

    A sample covers the grid times from its own time up to, not including,
    its vehicle's next sample (every later grid time after the vehicle's
    last sample), as long as it is fresh: a sample older than ``MAX_GAP_S``
    means the vehicle has left the recording. Returns flat (track, step,
    x_m, speed_mps, lane) arrays with one entry per vehicle present at a
    step, track after track in table order, steps ascending. The index
    arrays are int32: no table held in memory has 2**31 rows.
    """
    first = np.searchsorted(times_s, traj.t_s).astype(np.int32)
    last = traj.starts[1:] - 1
    # A row covers up to the next row's first grid time; a vehicle's last
    # row, up to the end of the grid. Only the kept rows get a stop.
    covers = np.empty(first.size, dtype=bool)
    np.less(first[:-1], first[1:], out=covers[:-1])
    covers[last] = first[last] < times_s.size
    rows = np.flatnonzero(covers).astype(np.int32)
    stop = first.take(rows + 1, mode="clip")
    stop[np.searchsorted(rows, last[covers[last]])] = times_s.size
    del covers
    first, t_s = first[rows], traj.t_s[rows]
    # A sample only gets staler as the grid time grows, so its fresh grid
    # times are a prefix of the ones it covers.
    stop = _bisect(first, stop, lambda k: ~(times_s[k] - t_s > MAX_GAP_S))
    counts = stop - first
    offsets = first - (np.cumsum(counts, dtype=np.int32) - counts)
    steps = np.repeat(offsets, counts) + np.arange(counts.sum(), dtype=np.int32)
    rows = np.repeat(rows, counts)
    track = (np.searchsorted(traj.starts, rows, side="right") - 1).astype(np.int32)
    return track, steps, traj.x_m[rows], traj.speed_mps[rows], traj.lane[rows]


def _cells(
    cfg: NetworkConfig, steps: np.ndarray, x_m: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat (step, segment) cell of each kept entry inside the stretch, and the new mask."""
    seg = cfg.segments_of_positions(x_m / 1000.0)
    keep = keep & (seg > 0)
    return steps[keep] * cfg.n_segments + seg[keep] - 1, keep


def segment_speed_series(
    traj: TrajectoryData,
    cfg: NetworkConfig,
    n_steps: int,
    connected: frozenset[int],
    *,
    exclude_lanes: frozenset[int] = frozenset(),
) -> np.ndarray:
    """(K, N) connected-vehicle mean speed per segment in km/h, NaN if none.

    The speed of segment i at step k averages the instantaneous speeds of
    the connected vehicles located in segment i at time t_min + k*T, t_min
    being the recording's first sample time.
    """
    shape = (n_steps, cfg.n_segments)
    track, k, x, v, lane = traj._grid(n_steps, cfg.time_step_h)
    is_connected = np.isin(traj.ids, list(connected))
    keep = is_connected[track] & ~np.isin(lane, list(exclude_lanes))
    cells, keep = _cells(cfg, k, x, keep)
    sums = np.bincount(cells, weights=v[keep], minlength=n_steps * cfg.n_segments).reshape(shape)
    counts = np.bincount(cells, minlength=n_steps * cfg.n_segments).reshape(shape)
    out = np.full(shape, np.nan)
    present = counts > 0
    out[present] = sums[present] / counts[present] * MPS_TO_KMH
    return out


def moving_average_speed(series_kmh: np.ndarray, window: int = 3) -> np.ndarray:
    """Trailing moving average that skips missing entries.

    Each output cell averages the finite values among the ``window`` most
    recent steps of that segment; it stays NaN only when all of them are
    missing. The lagged slices are added to a zero total oldest first, the
    order in which a sum over each window adds them.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    s = np.asarray(series_kmh, dtype=float)
    K = s.shape[0]
    finite = np.isfinite(s)
    values = np.where(finite, s, 0.0)
    sums = np.zeros_like(s)
    counts = np.zeros(s.shape, dtype=int)
    for lag in range(min(window, K) - 1, -1, -1):
        sums[lag:] += values[: K - lag]
        counts[lag:] += finite[: K - lag]
    out = np.full_like(s, np.nan)
    good = counts > 0
    out[good] = sums[good] / counts[good]
    return out


def _first_steps(traj: TrajectoryData, hit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each track's first step between consecutive samples for which ``hit`` holds.

    ``hit[r]`` describes the step from row r to row r + 1; steps from one
    vehicle's last sample to the next vehicle's first are ignored. Returns
    the later row of each track's first such step, and its track.
    """
    rows = np.flatnonzero(hit) + 1
    track = np.searchsorted(traj.starts, rows, side="right") - 1
    within = rows != traj.starts[track]
    rows, track = rows[within], track[within]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = track[1:] != track[:-1]
    return rows[first], track[first]


def _crossings(traj: TrajectoryData, x_m: float) -> tuple[np.ndarray, np.ndarray]:
    """(track, time) of each vehicle's first crossing of x, tracks ascending.

    The crossing is interpolated between the first sample at or past x and
    the one before it; a vehicle whose first sample is at or past x never
    crosses.
    """
    past = traj.x_m >= x_m
    i, track = _first_steps(traj, ~past[:-1] & past[1:])
    crosses = ~past[traj.starts[track]]
    i, track = i[crosses], track[crosses]
    x0, x1 = traj.x_m[i - 1], traj.x_m[i]
    t0, t1 = traj.t_s[i - 1], traj.t_s[i]
    return track, t0 + (x_m - x0) / (x1 - x0) * (t1 - t0)


def _binned_flow(traj: TrajectoryData, times_s: np.ndarray, n_steps: int, time_step_h: float) -> np.ndarray:
    """(K,) flow in veh/h of events at ``times_s``, step k counting (t_min + k*T, t_min + (k+1)*T]."""
    k = np.ceil((times_s - traj.t_min_s) / (time_step_h * 3600.0)) - 1
    return np.bincount(k[(k >= 0) & (k < n_steps)].astype(np.int64), minlength=n_steps) / time_step_h


def virtual_detector_flow(
    traj: TrajectoryData,
    x_m: float,
    n_steps: int,
    time_step_h: float,
    *,
    lanes: frozenset[int] | None = None,
) -> np.ndarray:
    """(K,) flow in veh/h past position x, counting crossings per interval.

    Step k covers the interval (t_min + k*T, t_min + (k+1)*T], t_min being
    the recording's first sample time. ``lanes`` restricts the count to
    vehicles in those lanes at the crossing.
    """
    return _event_flow(traj, *_crossings(traj, x_m), n_steps, time_step_h, lanes)


def _entry_flow(
    traj: TrajectoryData,
    cfg: NetworkConfig,
    n_steps: int,
    lanes: frozenset[int] | None,
) -> np.ndarray:
    """(K,) flow in veh/h into the stretch.

    Counts crossings of the origin, and vehicles whose first sample already
    lies inside segment 1 (a recording that starts at the origin sees most
    vehicles only after they pass it) at that first sample. No vehicle is
    both: a crossing starts before the origin.
    """
    track, times = _crossings(traj, 0.0)
    end_m = cfg.boundaries_km()[1] * 1000.0
    first = traj.starts[:-1]
    inside = np.flatnonzero((0.0 <= traj.x_m[first]) & (traj.x_m[first] < end_m))
    track = np.concatenate([track, inside])
    times = np.concatenate([times, traj.t_s[first[inside]]])
    return _event_flow(traj, track, times, n_steps, cfg.time_step_h, lanes)


def _event_flow(
    traj: TrajectoryData,
    track: np.ndarray,
    times_s: np.ndarray,
    n_steps: int,
    time_step_h: float,
    lanes: frozenset[int] | None,
) -> np.ndarray:
    """(K,) flow in veh/h of one event per (track, time) pair.

    ``lanes`` keeps the events whose vehicle is in one of them at its first
    sample after the event (its last sample when there is none).
    """
    if lanes is not None:
        end = traj.starts[track + 1]
        after = _bisect(traj.starts[track], end, lambda i: traj.t_s[i] <= times_s)
        times_s = times_s[np.isin(traj.lane[np.minimum(after, end - 1)], list(lanes))]
    return _binned_flow(traj, times_s, n_steps, time_step_h)


def lane_transition_flow(traj: TrajectoryData, rule: RampLaneRule, n_steps: int, time_step_h: float) -> np.ndarray:
    """(K,) ramp flow in veh/h counted from lane transitions, binned as in ``virtual_detector_flow``.

    Each vehicle contributes at most once, at its first transition off the
    ramp lane (on-ramp) or onto it (off-ramp).
    """
    on = traj.lane == rule.lane
    if rule.kind is RampType.ON:
        rows, _track = _first_steps(traj, on[:-1] & ~on[1:])
    else:
        rows, _track = _first_steps(traj, ~on[:-1] & on[1:])
    return _binned_flow(traj, traj.t_s[rows], n_steps, time_step_h)


def ground_truth_densities(
    traj: TrajectoryData, cfg: NetworkConfig, n_steps: int, *, exclude_lanes: frozenset[int] = frozenset()
) -> np.ndarray:
    """(K, N) reference density: vehicles in segment at t_min + k*T over its length."""
    _track, k, x, _v, lane = traj._grid(n_steps, cfg.time_step_h)
    cells, _keep = _cells(cfg, k, x, ~np.isin(lane, list(exclude_lanes)))
    counts = np.bincount(cells, minlength=n_steps * cfg.n_segments)
    return counts.reshape(n_steps, cfg.n_segments) / cfg.lengths_km


def frames_from_trajectories(
    traj: TrajectoryData,
    cfg: NetworkConfig,
    penetration: float,
    rng: np.random.Generator,
    *,
    exclude_lanes: frozenset[int] = frozenset(),
    ramp_rules: Sequence[RampLaneRule] = (),
) -> Measurements:
    """Clean estimator inputs from microscopic data: no noise, speeds not smoothed.

    The grid starts at the recording's first sample time t_min and has one
    step per whole T until its last sample. Connected vehicles are drawn
    once for the whole recording; each segment speed is the mean over the
    connected vehicles present at the sampling instant
    (``segment_speed_series``). Flows come from virtual
    detectors at the entry boundary (which also counts vehicles first seen
    inside segment 1) and at the downstream boundary of every segment
    carrying a flow sensor; measured ramps need a RampLaneRule. A recording
    shorter than one step is an ``InputError``.
    """
    n_steps = int(math.floor((traj.t_max_s - traj.t_min_s) / (cfg.time_step_h * 3600.0)))
    if n_steps <= 0:
        raise InputError(f"recording too short: {n_steps} steps")

    connected = assign_connected(traj.ids, penetration, rng)
    speeds = segment_speed_series(traj, cfg, n_steps, connected, exclude_lanes=exclude_lanes)

    boundaries_m = cfg.boundaries_km() * 1000.0
    lanes_kept = None
    if exclude_lanes:
        lanes_kept = frozenset(set(np.unique(traj.lane).tolist()) - set(exclude_lanes))
    flows = {0: _entry_flow(traj, cfg, n_steps, lanes_kept)}
    for j in cfg.flow_sensor_segments:
        flows[j] = virtual_detector_flow(traj, boundaries_m[j], n_steps, cfg.time_step_h, lanes=lanes_kept)

    measured_segments = set(cfg.ramp_segments(measured=True))
    rules_by_segment = {r.segment: r for r in ramp_rules}
    missing = measured_segments - rules_by_segment.keys()
    if missing:
        raise InputError(f"measured ramps without a lane rule: {sorted(missing)}")
    ramps = {}
    for seg in measured_segments:
        ramps[seg - 1] = lane_transition_flow(traj, rules_by_segment[seg], n_steps, cfg.time_step_h)
    n = cfg.n_segments
    return Measurements(speeds, _step_table(n_steps, n + 1, flows), _step_table(n_steps, n, ramps) if ramps else None)


@dataclass(frozen=True)
class DetectorSeries:
    """One stationary detector's time series, sorted by time."""

    position_m: float
    times_s: np.ndarray
    flows_vph: np.ndarray
    speeds_kmh: np.ndarray


def load_detectors(path: str | Path) -> list[DetectorSeries]:
    """Read a detector CSV: detector_pos_m,t_s,flow_vph,speed_kmh.

    Series are sorted by position; samples by time, ties keeping file order;
    a file already in that order is not copied. A NaN or infinite position
    or time is a format error; a NaN flow or speed is a missing reading.
    """
    cols = _read_columns(path, {"detector_pos_m": _finite, "t_s": _finite, "flow_vph": float, "speed_kmh": float})
    if cols["t_s"].size == 0:
        raise InputError(f"{path}: no detector rows")
    positions, starts, (t_s, flows, speeds) = _sorted_rows(*cols.values())
    return [
        DetectorSeries(position_m=pos, times_s=t_s[a:b], flows_vph=flows[a:b], speeds_kmh=speeds[a:b])
        for pos, a, b in zip(positions.tolist(), starts[:-1], starts[1:])
    ]


def snap_detectors_to_boundaries(
    detectors: Sequence[DetectorSeries], cfg: NetworkConfig
) -> dict[int, DetectorSeries]:
    """Assign each detector to its nearest segment boundary (0..N).

    Boundary 0 is the stretch entry; boundary i the downstream end of
    segment i. Detectors farther than ``SNAP_TOLERANCE_M`` from every boundary
    are dropped; a boundary claimed twice keeps the nearer detector, the
    first one on a tie. One warning per call counts and places the detectors
    dropped each way.
    """
    boundaries_m = cfg.boundaries_km() * 1000.0
    assigned: dict[int, tuple[float, DetectorSeries]] = {}
    far, displaced = [], []
    for det in detectors:
        dists = np.abs(boundaries_m - det.position_m)
        b = int(np.argmin(dists))
        d = float(dists[b])
        if d > SNAP_TOLERANCE_M:
            far.append(det.position_m)
        elif b in assigned and assigned[b][0] <= d:
            displaced.append(det.position_m)
        else:
            if b in assigned:
                displaced.append(assigned[b][1].position_m)
            assigned[b] = (d, det)
    if far:
        logger.warning("dropped %d detectors beyond %.1f m of every boundary, at %s m", len(far), SNAP_TOLERANCE_M, far)
    if displaced:
        logger.warning("dropped %d detectors whose boundary a nearer one takes, at %s m", len(displaced), displaced)
    return {b: det for b, (_d, det) in assigned.items()}


def frames_from_detectors(detectors: Sequence[DetectorSeries], cfg: NetworkConfig) -> Measurements:
    """Build the estimator inputs from stationary detector files.

    The detector snapped to boundary i supplies segment i's speed, and its
    flow when segment i carries a sensor in the network config; boundary 0
    supplies the entry flow. Each detector sample is mapped to the nearest
    step of the grid t0 + k*T, a sample halfway between two steps to the
    later one; the grid runs from the first sample t0 of the snapped
    detectors to the step their last maps to, so every sample lands on the
    grid; steps without a sample stay missing. When
    several samples of one detector map to the same step, the later one
    wins, and a negative flow or speed, a detector fault code, is missing
    like a NaN; one warning counts each kind of drop. Detectors count no
    ramp flow, so a network that measures a ramp is an ``InputError``.
    """
    if measured := cfg.ramp_segments(measured=True):
        raise InputError(f"detectors count no ramp flow, but the network measures ramps at segments {list(measured)}")
    by_boundary = snap_detectors_to_boundaries(detectors, cfg)
    if not by_boundary:
        raise InputError("no detector lies near any segment boundary")
    T_s = cfg.time_step_h * 3600.0
    t0_s = min(float(d.times_s[0]) for d in by_boundary.values())
    t_end = max(float(d.times_s[-1]) for d in by_boundary.values())
    n_steps = int(np.floor((t_end - t0_s) / T_s + 0.5)) + 1

    n = cfg.n_segments
    speeds, flows = np.full((n_steps, n), np.nan), np.full((n_steps, n + 1), np.nan)
    dropped = 0
    for b, det in sorted(by_boundary.items()):
        ks = np.floor((det.times_s - t0_s) / T_s + 0.5).astype(int)
        # Samples are in time order, so the last of each run of equal steps is the latest.
        latest = np.append(ks[1:] != ks[:-1], True)
        dropped += int(np.count_nonzero(~latest))
        if b:
            speeds[ks[latest], b - 1] = det.speeds_kmh[latest]
        if b == 0 or b in cfg.flow_sensor_segments:
            flows[ks[latest], b] = det.flows_vph[latest]
    if dropped:
        logger.warning(
            "%d detector samples fell on a step already sampled by the same detector;"
            " kept the later one",
            dropped,
        )
    negative = [table < 0.0 for table in (speeds, flows)]
    speeds[negative[0]], flows[negative[1]] = np.nan, np.nan
    if count := sum(map(np.count_nonzero, negative)):
        logger.warning("%d negative detector flows or speeds treated as missing", count)
    return Measurements(speeds, flows)


def add_measurement_noise(
    meas: Measurements,
    rng: np.random.Generator | None,
    *,
    flow_std_vph: float = 0.0,
    speed_std_kmh: float = 0.0,
    clamp_nonnegative: bool = False,
) -> Measurements:
    """Corrupt measurements with independent zero-mean Gaussian noise.

    Flow noise hits every present (finite) cell of ``flows_vph`` and
    ``ramp_flows_vph``; speed noise hits every speed cell. Values are not
    clipped unless ``clamp_nonnegative`` floors speeds and flows at zero,
    except ramp magnitudes, which are always floored (a negative magnitude
    has no direction to encode). Draws run step by step: the N speeds, the
    flows by boundary, then the ramps by segment. ``rng`` is only used when
    there is something to draw, and may be None otherwise. With nothing to
    draw and nothing to floor, ``meas`` itself is returned.
    """
    if flow_std_vph < 0 or speed_std_kmh < 0:
        raise ValueError("noise standard deviations must be non-negative")
    K, n = meas.speeds_kmh.shape
    ramps = meas.ramp_flows_vph
    flows = [meas.flows_vph] if ramps is None else [meas.flows_vph, ramps]
    mask = np.concatenate(
        [np.full((K, n), speed_std_kmh > 0), *(np.isfinite(t) & (flow_std_vph > 0) for t in flows)], axis=1
    )
    n_draws = np.count_nonzero(mask)
    if n_draws and rng is None:
        raise ValueError("an rng is required when noise is requested")
    if not (n_draws or clamp_nonnegative or (ramps is not None and (ramps < 0.0).any())):
        return meas
    table = np.concatenate([meas.speeds_kmh, *flows], axis=1)
    if n_draws:
        scale = np.where(np.arange(table.shape[1]) < n, speed_std_kmh, flow_std_vph)
        table[mask] += np.broadcast_to(scale, table.shape)[mask] * rng.standard_normal(n_draws)

    def floored(x: np.ndarray) -> np.ndarray:
        # Python's max(x, 0.0): -0.0 and NaN pass through unchanged.
        return np.where(0.0 > x, 0.0, x)

    speeds, flows = table[:, :n], table[:, n : 2 * n + 1]
    if clamp_nonnegative:
        speeds, flows = np.maximum(speeds, 0.0), floored(flows)
    return Measurements(speeds, flows, None if ramps is None else floored(table[:, 2 * n + 1 :]))

"""Tests for measurement extraction from trajectories and detector files."""

import logging
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficstate import sensing
from trafficstate.network import NetworkConfig, RampType, Segment
from trafficstate.sensing import (
    DetectorFormatError,
    Measurements,
    RampLaneRule,
    TrajectoryData,
    TrajectoryFormatError,
    add_measurement_noise,
    assign_connected,
    frames_from_detectors,
    frames_from_trajectories,
    ground_truth_densities,
    lane_transition_flow,
    load_detectors,
    load_trajectories,
    moving_average_speed,
    segment_speed_series,
    snap_detectors_to_boundaries,
    virtual_detector_flow,
)
from trafficstate.sensing import _crossings, _finite, _read_columns, _step_grid

T_STEP_H = 5 / 3600  # 5 s


def grid_snapshots(traj, times_s):
    """Per grid time, {id: (x_m, speed_mps, lane)} of the vehicles ``_step_grid`` places there."""
    track, steps, x, v, lane = _step_grid(traj, np.asarray(times_s, dtype=float))
    out = [{} for _ in times_s]
    for j, k, xj, vj, lj in zip(track.tolist(), steps.tolist(), x.tolist(), v.tolist(), lane.tolist()):
        out[k][int(traj.ids[j])] = (xj, vj, lj)
    return out


def first_crossings(traj, x_m):
    """{id: time} of each vehicle's first crossing of x, from ``_crossings``."""
    track, times = _crossings(traj, x_m)
    return dict(zip(traj.ids[track].tolist(), times.tolist()))


def make_config(n=2, sensors=(2,), ramps=None):
    ramps = ramps or {}
    segments = []
    for i in range(1, n + 1):
        kind, measured = ramps.get(i, (RampType.NONE, False))
        segments.append(Segment(length_km=0.5, ramp=kind, ramp_measured=measured))
    return NetworkConfig(
        segments=tuple(segments),
        flow_sensor_segments=frozenset(sensors),
        time_step_h=T_STEP_H,
    )


def make_track(vid, x0_m, speed_mps, *, t0_s=0.0, n_samples=13, lane=1, lanes=None):
    """One vehicle at constant speed, sampled once a second, as flat sample columns."""
    steps = np.arange(n_samples, dtype=float)
    return {
        "vehicle_id": np.full(n_samples, vid),
        "t_s": t0_s + steps,
        "x_m": x0_m + speed_mps * steps,
        "speed_mps": np.full(n_samples, float(speed_mps)),
        "lane": np.asarray(lanes) if lanes is not None else np.full(n_samples, lane),
    }


def trajectory(*tracks):
    """A TrajectoryData over the rows of ``make_track`` columns, in the order given."""
    return TrajectoryData(**{name: np.concatenate([t[name] for t in tracks]) for name in tracks[0]})


def three_vehicle_traj():
    # Constant 50 m/s on a 1000 m stretch; one vehicle per region.
    return trajectory(make_track(1, -50.0, 50.0), make_track(2, 450.0, 50.0), make_track(3, 950.0, 50.0))


class TestMeasurements:
    def test_coerces_container_types(self):
        meas = Measurements(
            speeds_kmh=[[80.0, 90.0]],
            entry_flow_vph=[1200.0],
            sensor_flows_vph=((2, [900.0]),),
        )
        assert isinstance(meas.speeds_kmh, np.ndarray)
        assert isinstance(meas.entry_flow_vph, np.ndarray)
        assert list(meas.sensor_flows_vph) == [2]
        assert np.array_equal(meas.sensor_flows_vph[2], [900.0])
        assert meas.measured_ramp_flows_vph == {}
        assert meas.n_steps == 1

    def test_rejects_columns_of_mismatched_length(self):
        speeds = np.full((3, 2), 80.0)
        with pytest.raises(ValueError, match="entry flow must have shape"):
            Measurements(speeds, np.zeros(2))
        with pytest.raises(ValueError, match="segment 2 must have shape"):
            Measurements(speeds, np.zeros(3), {2: np.zeros(4)})
        with pytest.raises(ValueError, match="segment 1 must have shape"):
            Measurements(speeds, np.zeros(3), {}, {1: np.zeros((3, 1))})
        with pytest.raises(ValueError, match="speeds must be a"):
            Measurements(np.zeros(3), np.zeros(3))

    def test_sensor_table_fills_absent_segments_with_nan(self):
        meas = Measurements(np.zeros((2, 3)), np.zeros(2), {3: [5.0, np.nan], 1: [1.0, 2.0]})
        assert list(meas.sensor_flows_vph) == [1, 3]
        table = meas.sensor_table([1, 2, 3])
        assert table.flags.c_contiguous
        assert np.array_equal(
            table, [[1.0, np.nan, 5.0], [2.0, np.nan, np.nan]], equal_nan=True
        )


class TestLoaders:
    def test_trajectory_round_trip(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text(
            "vehicle_id,t_s,x_m,lane,speed_mps\n"
            "7,1.0,10.0,2,15.0\n"
            "7,0.0,0.0,2,15.0\n"
            "3,0.0,50.0,1,20.0\n"
        )
        traj = load_trajectories(path)
        # Vehicles in ascending id order, samples sorted by time inside each.
        assert traj.ids.tolist() == [3, 7]
        assert traj.starts.tolist() == [0, 1, 3]
        assert traj.t_s.tolist() == [0.0, 0.0, 1.0]
        assert traj.x_m.tolist() == [50.0, 0.0, 10.0]
        assert traj.t_min_s == 0.0
        assert traj.t_max_s == 1.0

    def test_trajectory_missing_column_raises(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("vehicle_id,t_s,x_m\n1,0,0\n")
        with pytest.raises(TrajectoryFormatError, match="header"):
            load_trajectories(path)

    def test_trajectory_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text(
            "vehicle_id,t_s,x_m,lane,speed_mps\n"
            "1,0.0,0.0,1,15.0\n"
            "1,oops,5.0,1,15.0\n"
        )
        with pytest.raises(TrajectoryFormatError, match=":3:"):
            load_trajectories(path)

    def test_trajectory_columns_in_any_order(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text(
            "lane,speed_mps,extra,x_m,t_s,vehicle_id\n"
            "2,15.0,a,10.0,1.0,7\n"
            "2,15.0,b,0.0,0.0,7\n"
        )
        traj = load_trajectories(path)
        assert np.array_equal(traj.t_s, [0.0, 1.0])
        assert np.array_equal(traj.x_m, [0.0, 10.0])
        assert np.array_equal(traj.lane, [2, 2])

    @pytest.mark.parametrize("bad", ["7.0,0.0,0.0,2,15.0", "7,0.0,0.0,2.5,15.0"])
    def test_trajectory_ids_and_lanes_must_be_integers(self, tmp_path, bad):
        path = tmp_path / "traj.csv"
        path.write_text("vehicle_id,t_s,x_m,lane,speed_mps\n7,0.0,0.0,2,15.0\n" + bad + "\n")
        with pytest.raises(TrajectoryFormatError, match=":3: bad row"):
            load_trajectories(path)

    def test_empty_trajectory_raises(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("vehicle_id,t_s,x_m,lane,speed_mps\n")
        with pytest.raises(TrajectoryFormatError, match="no trajectory samples"):
            load_trajectories(path)

    @pytest.mark.parametrize(
        "rows",
        [
            ["1,0.0,0.0,1,15.0", "1,nan,5.0,1,15.0"],
            ["1,0.0,0.0,1,15.0", "1,inf,5.0,1,15.0"],
            ["1,1.0,-inf,1,15.0"],
            ["1,0.0,0.0,1,15.0", "1,1.0,5.0,1,nan"],
            ["1,0.0,0.0,1,15.0", "", "1,nan,5.0,1,15.0"],
        ],
    )
    def test_trajectory_non_finite_values_are_rejected(self, tmp_path, rows):
        # The last row is the bad one; blank lines count toward its line number.
        path = tmp_path / "traj.csv"
        path.write_text("\n".join(["vehicle_id,t_s,x_m,lane,speed_mps", *rows]) + "\n")
        with pytest.raises(TrajectoryFormatError, match=f":{len(rows) + 1}: bad row"):
            load_trajectories(path)

    @pytest.mark.parametrize("bad", ["nan,5.0,100.0,90.0", "0.0,inf,100.0,90.0", "0.0,nan,100.0,90.0"])
    def test_detector_non_finite_position_or_time_is_rejected(self, tmp_path, bad):
        path = tmp_path / "det.csv"
        path.write_text("detector_pos_m,t_s,flow_vph,speed_kmh\n0.0,0.0,100.0,90.0\n" + bad + "\n")
        with pytest.raises(DetectorFormatError, match=":3: bad row"):
            load_detectors(path)

    def test_detector_nan_readings_are_missing(self, tmp_path):
        path = tmp_path / "det.csv"
        path.write_text("detector_pos_m,t_s,flow_vph,speed_kmh\n0.0,0.0,nan,90.0\n0.0,5.0,100.0,nan\n")
        (series,) = load_detectors(path)
        assert np.array_equal(series.flows_vph, [np.nan, 100.0], equal_nan=True)
        assert np.array_equal(series.speeds_kmh, [90.0, np.nan], equal_nan=True)

    def test_detector_round_trip(self, tmp_path):
        path = tmp_path / "det.csv"
        path.write_text(
            "detector_pos_m,t_s,flow_vph,speed_kmh\n"
            "500.0,5.0,2800.0,95.0\n"
            "500.0,0.0,3000.0,97.0\n"
            "0.0,0.0,3600.0,100.0\n"
        )
        series = load_detectors(path)
        assert [d.position_m for d in series] == [0.0, 500.0]
        assert np.allclose(series[1].times_s, [0.0, 5.0])
        assert np.allclose(series[1].flows_vph, [3000.0, 2800.0])

    def test_detector_columns_in_any_order_keep_tie_order(self, tmp_path):
        path = tmp_path / "det.csv"
        path.write_text(
            "speed_kmh,flow_vph,t_s,detector_pos_m\n"
            "95.0,2800.0,5.0,500.0\n"
            "97.0,3000.0,0.0,500.0\n"
            "96.0,2900.0,0.0,500.0\n"
        )
        (series,) = load_detectors(path)
        assert np.array_equal(series.times_s, [0.0, 0.0, 5.0])
        assert np.array_equal(series.flows_vph, [3000.0, 2900.0, 2800.0])

    @pytest.mark.parametrize("rows", [[0, 1, 2, 3], [2, 0, 3, 1]], ids=["ordered", "shuffled"])
    def test_detector_file_in_order_is_not_copied(self, tmp_path, monkeypatch, rows):
        lines = ["0.0,0.0,1.0,90.0", "0.0,5.0,2.0,91.0", "500.0,0.0,3.0,92.0", "500.0,5.0,4.0,93.0"]
        path = tmp_path / "det.csv"
        path.write_text("\n".join(["detector_pos_m,t_s,flow_vph,speed_kmh", *(lines[i] for i in rows)]) + "\n")
        read, sorts = [], []
        real_read, real_lexsort = sensing._read_columns, np.lexsort

        def read_columns(*args):
            read.append(real_read(*args))
            return read[-1]

        def lexsort(keys):
            sorts.append(keys)
            return real_lexsort(keys)

        monkeypatch.setattr(sensing, "_read_columns", read_columns)
        monkeypatch.setattr(np, "lexsort", lexsort)
        first, second = load_detectors(path)
        assert (first.position_m, second.position_m) == (0.0, 500.0)
        assert first.flows_vph.tolist() + second.flows_vph.tolist() == [1.0, 2.0, 3.0, 4.0]
        # In order, every series is a view into the columns as read, and nothing is sorted.
        ordered = rows == [0, 1, 2, 3]
        assert len(sorts) == (not ordered)
        (columns,) = read
        for series in (first, second):
            assert np.shares_memory(series.times_s, columns["t_s"]) == ordered
            assert np.shares_memory(series.flows_vph, columns["flow_vph"]) == ordered
            assert np.shares_memory(series.speeds_kmh, columns["speed_kmh"]) == ordered

    def test_detector_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "det.csv"
        path.write_text("detector_pos_m,t_s,flow_vph,speed_kmh\n0.0,0.0,100,90\n0.0,5.0,x,90\n")
        with pytest.raises(DetectorFormatError, match=":3: bad row"):
            load_detectors(path)

    def test_detector_missing_column_raises(self, tmp_path):
        path = tmp_path / "det.csv"
        path.write_text("detector_pos_m,t_s,flow_vph\n0,0,100\n")
        with pytest.raises(DetectorFormatError, match="header"):
            load_detectors(path)

    def test_detector_empty_raises(self, tmp_path):
        path = tmp_path / "det.csv"
        path.write_text("detector_pos_m,t_s,flow_vph,speed_kmh\n")
        with pytest.raises(DetectorFormatError, match="no detector rows"):
            load_detectors(path)


TRAJECTORY_COLUMNS = {"vehicle_id": int, "t_s": _finite, "x_m": _finite, "lane": int, "speed_mps": _finite}


def random_trajectory_lines(rng, n_rows, blank_lines):
    """Header fields and data lines of a trajectory CSV: shuffled columns, one extra text column."""
    fields = [*TRAJECTORY_COLUMNS, "note"]
    rng.shuffle(fields)
    scale = 10.0 ** rng.integers(-3, 6, size=(n_rows, 3))
    values = {
        "vehicle_id": rng.integers(-(2**40), 2**40, n_rows).tolist(),
        "lane": rng.integers(-3, 9, n_rows).tolist(),
        "t_s": (rng.standard_normal(n_rows) * scale[:, 0]).tolist(),
        "x_m": np.round(rng.standard_normal(n_rows) * scale[:, 1], 2).tolist(),
        "speed_mps": (rng.standard_normal(n_rows) * scale[:, 2]).tolist(),
        "note": [f"n{i}" for i in range(n_rows)],
    }
    lines = [",".join(str(values[name][i]) for name in fields) for i in range(n_rows)]
    for at in sorted(rng.integers(0, n_rows + 1, blank_lines).tolist(), reverse=True):
        lines.insert(at, "")
    return fields, lines


class TestReadColumns:
    @settings(max_examples=60, deadline=None)
    @given(
        n_rows=st.integers(0, 2000),
        block_lines=st.integers(1, 300),
        block_chars=st.integers(1, 5000),
        blank_lines=st.sampled_from([0, 0, 1, 5]),
        trailing_newline=st.booleans(),
        bad_block=st.none() | st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_read_what_one_loadtxt_reads(
        self, n_rows, block_lines, block_chars, blank_lines, trailing_newline, bad_block, seed
    ):
        # Any block size gives the columns, bit for bit and dtype for dtype,
        # of one loadtxt over the whole file; a bad row first in a later
        # block is reported at its line of the file.
        fields, lines = random_trajectory_lines(np.random.default_rng(seed), n_rows, blank_lines)
        bad_at = None
        if bad_block is not None and bad_block * block_lines < len(lines) and lines[bad_block * block_lines]:
            bad_at = bad_block * block_lines
            cells = lines[bad_at].split(",")
            cells[fields.index("t_s")] = "oops"
            lines[bad_at] = ",".join(cells)
        text = "\n".join([",".join(fields), *lines]) + ("\n" if trailing_newline else "")
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(sensing, "READ_BLOCK_LINES", block_lines)
            mp.setattr(sensing, "READ_BLOCK_CHARS", block_chars)
            path = Path(tmp) / "traj.csv"
            path.write_text(text)
            if bad_at is not None:
                with pytest.raises(TrajectoryFormatError, match=f"^{re.escape(str(path))}:{bad_at + 2}: bad row"):
                    _read_columns(path, TRAJECTORY_COLUMNS, TrajectoryFormatError)
                return
            got = _read_columns(path, TRAJECTORY_COLUMNS, TrajectoryFormatError)
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                want = np.loadtxt(
                    path,
                    delimiter=",",
                    comments=None,
                    skiprows=1,
                    ndmin=1,
                    usecols=[fields.index(name) for name in TRAJECTORY_COLUMNS],
                    dtype=[(name, "i8" if kind is int else "f8") for name, kind in TRAJECTORY_COLUMNS.items()],
                )
        assert list(got) == list(TRAJECTORY_COLUMNS)
        for name, column in got.items():
            assert column.dtype == want.dtype[name]
            assert column.tobytes() == want[name].tobytes()

    @pytest.mark.parametrize(
        "header, row, columns",
        [
            ("vehicle_id,t_s,x_m,lane,speed_mps", "7,0.5,10.0,2,15.0", TRAJECTORY_COLUMNS),
            (
                "detector_pos_m,t_s,flow_vph,speed_kmh",
                "0.0,0.0,100.0,90.0",
                {"detector_pos_m": _finite, "t_s": _finite, "flow_vph": float, "speed_kmh": float},
            ),
        ],
        ids=["trajectories", "detectors"],
    )
    def test_each_column_is_its_own_contiguous_array(self, tmp_path, header, row, columns):
        path = tmp_path / "in.csv"
        path.write_text("\n".join([header, *[row] * 5]) + "\n")
        got = list(_read_columns(path, columns, ValueError).values())
        assert all(c.flags.c_contiguous and c.size == 5 for c in got)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(got) for b in got[i + 1 :])


class TestAssignConnected:
    def test_extremes(self):
        rng = np.random.default_rng(0)
        ids = list(range(20))
        assert assign_connected(ids, 0.0, rng) == frozenset()
        assert assign_connected(ids, 1.0, rng) == frozenset(ids)

    def test_out_of_range_penetration_raises(self):
        with pytest.raises(ValueError, match="penetration"):
            assign_connected([1, 2], 1.5, np.random.default_rng(0))

    def test_marking_is_seed_deterministic(self):
        ids = list(range(100))
        a = assign_connected(ids, 0.3, np.random.default_rng(42))
        b = assign_connected(ids, 0.3, np.random.default_rng(42))
        assert a == b

    def test_fraction_tracks_penetration(self):
        rng = np.random.default_rng(5)
        ids = list(range(2000))
        marked = assign_connected(ids, 0.3, rng)
        assert 500 <= len(marked) <= 700


class TestPositionsAt:
    def test_latest_sample_within_gap(self):
        traj = trajectory(make_track(1, 0.0, 15.0, n_samples=3))
        [snap] = grid_snapshots(traj, [1.5])
        assert snap[1] == (15.0, 15.0, 1)

    def test_stale_sample_is_dropped(self):
        traj = trajectory(make_track(1, 0.0, 15.0, n_samples=3))
        assert 1 in grid_snapshots(traj, [2.9])[0]
        assert grid_snapshots(traj, [3.5]) == [{}]

    def test_before_first_sample_absent(self):
        traj = trajectory(make_track(1, 0.0, 15.0, t0_s=10.0))
        assert grid_snapshots(traj, [9.0]) == [{}]


class TestSegmentSpeeds:
    def test_connected_mean_in_kmh(self):
        # Two connected vehicles in segment 1 at 10 and 14 m/s average to
        # 12 m/s = 43.2 km/h; segment 2 has nobody and stays NaN.
        traj = trajectory(make_track(1, 100.0, 10.0), make_track(2, 200.0, 14.0))
        cfg = make_config()
        series = segment_speed_series(traj, cfg, 1, frozenset({1, 2}))
        assert series[0, 0] == pytest.approx(43.2)
        assert np.isnan(series[0, 1])

    def test_unconnected_vehicles_are_invisible(self):
        traj = trajectory(make_track(1, 100.0, 10.0), make_track(2, 200.0, 14.0))
        cfg = make_config()
        series = segment_speed_series(traj, cfg, 1, frozenset({2}))
        assert series[0, 0] == pytest.approx(14.0 * 3.6)

    def test_excluded_lanes_are_invisible(self):
        traj = trajectory(make_track(1, 100.0, 10.0, lane=1), make_track(2, 200.0, 14.0, lane=9))
        cfg = make_config()
        series = segment_speed_series(
            traj, cfg, 1, frozenset({1, 2}), exclude_lanes=frozenset({9})
        )
        assert series[0, 0] == pytest.approx(36.0)


class TestMovingAverage:
    def test_trailing_window_skips_missing(self):
        series = np.array([[72.0], [np.nan], [66.0], [69.0]])
        out = moving_average_speed(series, window=3)
        assert out[0, 0] == pytest.approx(72.0)
        assert out[1, 0] == pytest.approx(72.0)
        assert out[2, 0] == pytest.approx(69.0)
        assert out[3, 0] == pytest.approx(67.5)

    def test_all_missing_window_stays_nan(self):
        series = np.array([[np.nan], [np.nan], [60.0]])
        out = moving_average_speed(series, window=2)
        assert np.isnan(out[0, 0])
        assert np.isnan(out[1, 0])
        assert out[2, 0] == pytest.approx(60.0)

    def test_window_one_is_identity(self):
        series = np.array([[50.0, np.nan], [np.nan, 40.0]])
        out = moving_average_speed(series, window=1)
        assert np.array_equal(np.isnan(out), np.isnan(series))
        assert out[0, 0] == 50.0 and out[1, 1] == 40.0

    def test_bad_window_raises(self):
        with pytest.raises(ValueError, match="window"):
            moving_average_speed(np.zeros((2, 2)), window=0)


class TestCrossings:
    def test_interpolated_crossing_time(self):
        # 100 m/s from x = 450: reaches 500 halfway through the first second.
        traj = TrajectoryData(vehicle_id=[1, 1], t_s=[0.0, 1.0], x_m=[450.0, 550.0], speed_mps=[100.0] * 2, lane=[1, 1])
        times = first_crossings(traj, 500.0)
        assert times[1] == pytest.approx(0.5)

    def test_vehicles_past_or_short_are_omitted(self):
        past = make_track(1, 600.0, 10.0, n_samples=3)
        short = make_track(2, 0.0, 10.0, n_samples=3)
        times = first_crossings(trajectory(past, short), 500.0)
        assert times == {}

    def test_flow_counts_per_interval(self):
        # Two crossings inside (0, 5] make 2 / (5/3600) = 1440 veh/h.
        # Vehicles 1 and 2 at 100 m/s, their samples interleaved.
        traj = TrajectoryData([1, 2, 1, 2], [0.0, 0.0, 5.0, 5.0], [400.0, 400.0, 900.0, 900.0], [100.0] * 4, [1] * 4)
        flow = virtual_detector_flow(traj, 500.0, 2, T_STEP_H)
        assert np.allclose(flow, [1440.0, 0.0])

    def test_interval_edges_are_left_open_right_closed(self):
        # The recording starts at t = 0. A crossing exactly at t = 5 lands in
        # the first interval (0, 5], not the second; one exactly at t = 10
        # lands in the second.
        traj = TrajectoryData(
            vehicle_id=[1, 1, 2, 2],
            t_s=[0.0, 10.0, 8.0, 12.0],
            x_m=[450.0, 550.0, 400.0, 600.0],
            speed_mps=[10.0, 10.0, 50.0, 50.0],
            lane=[1, 1, 1, 1],
        )
        times = first_crossings(traj, 500.0)
        assert times[1] == 5.0
        assert times[2] == 10.0
        flow = virtual_detector_flow(traj, 500.0, 3, T_STEP_H)
        assert np.allclose(flow, [720.0, 720.0, 0.0])

    def test_lane_filter_at_crossing(self):
        traj = trajectory(
            make_track(1, 450.0, 50.0, lane=2, n_samples=4),
            make_track(2, 450.0, 50.0, lane=7, n_samples=4),
        )
        kept = virtual_detector_flow(traj, 500.0, 1, T_STEP_H, lanes=frozenset({2}))
        both = virtual_detector_flow(traj, 500.0, 1, T_STEP_H)
        assert kept[0] == pytest.approx(720.0)
        assert both[0] == pytest.approx(1440.0)


class TestLaneTransitions:
    def test_merge_counts_once_at_first_departure(self):
        lanes = [9, 9, 1, 9, 1, 1]
        track = make_track(1, 0.0, 10.0, n_samples=6, lanes=lanes)
        rule = RampLaneRule(segment=1, lane=9, kind=RampType.ON)
        flow = lane_transition_flow(trajectory(track), rule, 2, T_STEP_H)
        # First departure from lane 9 happens at t = 2, inside (0, 5].
        assert np.allclose(flow, [720.0, 0.0])

    def test_diverge_counts_arrival_on_the_ramp_lane(self):
        lanes = [1, 1, 1, 1, 1, 1, 9]
        track = make_track(1, 0.0, 10.0, n_samples=7, lanes=lanes)
        rule = RampLaneRule(segment=1, lane=9, kind=RampType.OFF)
        flow = lane_transition_flow(trajectory(track), rule, 2, T_STEP_H)
        # Arrival at t = 6 falls in the second interval (5, 10].
        assert np.allclose(flow, [0.0, 720.0])

    def test_vehicle_never_on_ramp_lane_contributes_nothing(self):
        track = make_track(1, 0.0, 10.0, n_samples=6, lane=1)
        rule = RampLaneRule(segment=1, lane=9, kind=RampType.ON)
        flow = lane_transition_flow(trajectory(track), rule, 2, T_STEP_H)
        assert np.allclose(flow, 0.0)


class TestGroundTruth:
    def test_counts_over_length(self):
        traj = trajectory(*(make_track(vid, x0, 0.01) for vid, x0 in ((1, 100.0), (2, 200.0), (3, 300.0), (4, 700.0))))
        cfg = make_config()
        rho = ground_truth_densities(traj, cfg, 1)
        assert rho[0, 0] == pytest.approx(3 / 0.5)
        assert rho[0, 1] == pytest.approx(1 / 0.5)


class TestFramesFromTrajectories:
    def test_full_penetration_frames(self):
        traj = three_vehicle_traj()
        cfg = make_config()
        meas = frames_from_trajectories(traj, cfg, 1.0, np.random.default_rng(0))
        # 12 s of samples at a 5 s step give two full intervals.
        assert meas.n_steps == 2
        assert np.allclose(meas.speeds_kmh, 180.0)
        assert meas.entry_flow_vph[0] == pytest.approx(720.0)
        assert list(meas.sensor_flows_vph) == [2]
        assert meas.sensor_flows_vph[2][0] == pytest.approx(720.0)
        assert meas.entry_flow_vph[1] == pytest.approx(0.0)

    def test_measured_ramp_requires_lane_rule(self):
        cfg = make_config(ramps={2: (RampType.ON, True)})
        with pytest.raises(ValueError, match="lane rule"):
            frames_from_trajectories(
                three_vehicle_traj(), cfg, 1.0, np.random.default_rng(0)
            )

    def test_ramp_rule_produces_measured_flows(self):
        cfg = make_config(ramps={2: (RampType.ON, True)})
        lanes = [9, 9, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
        merger = make_track(4, 600.0, 10.0, lanes=lanes)
        traj = trajectory(make_track(1, -50.0, 50.0), make_track(2, 450.0, 50.0), merger)
        rule = RampLaneRule(segment=2, lane=9, kind=RampType.ON)
        meas = frames_from_trajectories(
            traj, cfg, 1.0, np.random.default_rng(0), ramp_rules=[rule]
        )
        assert list(meas.measured_ramp_flows_vph) == [2]
        assert meas.measured_ramp_flows_vph[2] == pytest.approx([720.0, 0.0])

    def test_vehicles_first_seen_inside_segment_one_enter(self):
        # A recording that starts at the origin sees each vehicle only after
        # it has passed it: 300 vehicles, one per second, first seen 0.5-5 m
        # in, driving 25 m/s through both segments.
        rng = np.random.default_rng(7)
        tracks = [
            make_track(vid, float(rng.uniform(0.5, 5.0)), 25.0, t0_s=float(vid), n_samples=42)
            for vid in range(1, 301)
        ]
        # An excluded-lane vehicle starts the recording at t = 0.
        tracks.append(make_track(301, 2.0, 25.0, t0_s=0.0, n_samples=42, lane=9))
        meas = frames_from_trajectories(
            trajectory(*tracks),
            make_config(),
            1.0,
            np.random.default_rng(0),
            exclude_lanes=frozenset({9}),
        )
        entry = meas.entry_flow_vph
        exit_ = meas.sensor_flows_vph[2]
        assert entry[:50].mean() == pytest.approx(3600.0)
        assert exit_[10:60].mean() == pytest.approx(3600.0)
        # Each vehicle enters once and leaves once; the one at t = 1 is seen
        # in the first interval, the excluded lane is never counted.
        assert entry.sum() == pytest.approx(exit_.sum())

    def test_too_short_recording_raises(self):
        traj = trajectory(make_track(1, 0.0, 10.0, n_samples=3))
        with pytest.raises(ValueError, match="too short"):
            frames_from_trajectories(traj, make_config(), 1.0, np.random.default_rng(0))


class TestDetectorSnapping:
    def test_nearest_boundary_and_tolerance(self):
        cfg = make_config()
        series = [
            _series(0.0),
            _series(495.0),
            _series(1002.0),
            _series(700.0),
        ]
        snapped = snap_detectors_to_boundaries(series, cfg)
        assert sorted(snapped) == [0, 1, 2]
        assert snapped[1].position_m == 495.0

    def test_duplicate_boundary_keeps_nearer_detector(self):
        cfg = make_config()
        snapped = snap_detectors_to_boundaries([_series(503.0), _series(498.0)], cfg)
        assert snapped[1].position_m == 498.0

    def test_one_warning_per_kind_of_drop(self, caplog):
        cfg = make_config()
        series = [_series(x) for x in (250.0, 503.0, 700.0, 498.0, 1002.0, 999.0, 1001.0)]
        with caplog.at_level(logging.WARNING, logger="trafficstate.sensing"):
            snapped = snap_detectors_to_boundaries(series, cfg)
        assert {b: det.position_m for b, det in snapped.items()} == {1: 498.0, 2: 999.0}
        assert [r.getMessage() for r in caplog.records] == [
            "dropped 2 detectors beyond 100.0 m of every boundary, at [250.0, 700.0] m",
            "dropped 3 detectors whose boundary a nearer one takes, at [503.0, 1002.0, 1001.0] m",
        ]

    def test_all_detectors_out_of_tolerance_raises_downstream(self):
        cfg = make_config()
        with pytest.raises(DetectorFormatError, match="near any segment boundary"):
            frames_from_detectors([_series(250.0)], cfg)


def _series(pos_m, times=(0.0,), flows=(1000.0,), speeds=(90.0,)):
    from trafficstate.sensing import DetectorSeries

    return DetectorSeries(
        position_m=pos_m,
        times_s=np.asarray(times, dtype=float),
        flows_vph=np.asarray(flows, dtype=float),
        speeds_kmh=np.asarray(speeds, dtype=float),
    )


class TestFramesFromDetectors:
    def test_boundary_roles_and_missing_steps(self):
        cfg = make_config()
        detectors = [
            _series(0.0, times=(0.0, 5.0), flows=(3600.0, 3000.0), speeds=(100.0, 98.0)),
            _series(495.0, times=(0.0, 10.0), flows=(2800.0, 2600.0), speeds=(95.0, 90.0)),
            _series(1002.0, times=(5.0,), flows=(2500.0,), speeds=(88.0,)),
        ]
        meas = frames_from_detectors(detectors, cfg)
        assert meas.n_steps == 3
        assert list(meas.sensor_flows_vph) == [2]
        exit_flow = meas.sensor_flows_vph[2]

        assert meas.entry_flow_vph[0] == pytest.approx(3600.0)
        assert meas.speeds_kmh[0, 0] == pytest.approx(95.0)
        assert np.isnan(meas.speeds_kmh[0, 1])
        assert np.isnan(exit_flow[0])

        assert meas.entry_flow_vph[1] == pytest.approx(3000.0)
        assert meas.speeds_kmh[1, 1] == pytest.approx(88.0)
        assert exit_flow[1] == pytest.approx(2500.0)

        assert np.isnan(meas.entry_flow_vph[2])
        assert np.isnan(exit_flow[2])
        assert meas.speeds_kmh[2, 0] == pytest.approx(90.0)

    def test_samples_snap_to_nearest_step(self):
        # The entry detector spans the grid: steps at 0 s and 5 s.
        cfg = make_config(sensors=(2,))
        detectors = [
            _series(0.0, times=(0.0, 5.0), flows=(900.0, 900.0), speeds=(90.0, 90.0)),
            _series(1000.0, times=(4.9,), flows=(2000.0,), speeds=(85.0,)),
        ]
        meas = frames_from_detectors(detectors, cfg)
        assert meas.n_steps == 2
        assert np.array_equal(meas.sensor_flows_vph[2], [np.nan, 2000.0], equal_nan=True)
        assert np.isnan(meas.speeds_kmh[0, 1])

    def test_later_sample_on_the_same_step_wins_and_is_counted(self, caplog):
        # With T = 5 s, samples at 3.0 s and 5.0 s (0.4 T apart) both round
        # to step 1; the entry detector's pair at 10 s and 12 s to step 2.
        cfg = make_config(sensors=(2,))
        detectors = [
            _series(0.0, times=(0.0, 10.0, 12.0), flows=(900.0, 1000.0, 1100.0), speeds=(1.0, 1.0, 1.0)),
            _series(1000.0, times=(0.0, 3.0, 5.0), flows=(1.0, 2000.0, 2200.0), speeds=(80.0, 85.0, 87.0)),
        ]
        with caplog.at_level(logging.WARNING, logger="trafficstate.sensing"):
            meas = frames_from_detectors(detectors, cfg)
        assert meas.n_steps == 3
        assert meas.sensor_flows_vph[2][1] == 2200.0
        assert meas.speeds_kmh[1, 1] == 87.0
        assert meas.entry_flow_vph[2] == 1100.0
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 1
        assert warnings[0].startswith("2 detector samples fell on a step already sampled")

    def test_negative_readings_are_missing_and_counted_once(self, caplog):
        # -1 is a common detector fault code. A negative speed or flow is a
        # missing reading, exactly like a NaN, and one warning counts them.
        cfg = make_config(n=3, sensors=(2, 3))
        times = np.arange(40) * T_STEP_H * 3600.0

        def corridor(fault):
            entry, flows, speeds = np.full(40, 2700.0), np.full(40, 2500.0), np.full(40, 90.0)
            entry[7] = fault
            flows[[3, 25]] = fault
            speeds[20:30] = fault
            return [
                _series(0.0, times, entry, np.full(40, 95.0)),
                _series(500.0, times, np.full(40, 2600.0), np.full(40, 92.0)),
                _series(1000.0, times, flows, speeds),
                _series(1500.0, times, np.full(40, 2500.0), np.full(40, 88.0)),
            ]

        with caplog.at_level(logging.WARNING, logger="trafficstate.sensing"):
            faulty = frames_from_detectors(corridor(-1.0), cfg)
        assert [r.getMessage() for r in caplog.records] == [
            "13 negative detector flows or speeds treated as missing"
        ]
        missing = frames_from_detectors(corridor(np.nan), cfg)
        assert np.isnan(faulty.speeds_kmh[20:30, 1]).all()
        assert np.array_equal(faulty.speeds_kmh, missing.speeds_kmh, equal_nan=True)
        assert np.array_equal(faulty.entry_flow_vph, missing.entry_flow_vph, equal_nan=True)
        for j in (2, 3):
            assert np.array_equal(faulty.sensor_flows_vph[j], missing.sensor_flows_vph[j], equal_nan=True)


class TestMeasurementNoise:
    def frames(self):
        return Measurements(
            speeds_kmh=np.tile([80.0, 90.0], (40, 1)),
            entry_flow_vph=np.full(40, 2000.0),
            sensor_flows_vph={2: np.full(40, 1500.0)},
            measured_ramp_flows_vph={1: np.full(40, 10.0)},
        )

    def test_zero_noise_is_identity(self):
        out = add_measurement_noise(self.frames(), np.random.default_rng(0))
        assert np.allclose(out.speeds_kmh, [80.0, 90.0])
        assert np.all(out.entry_flow_vph == 2000.0)
        assert list(out.sensor_flows_vph) == [2]
        assert np.all(out.sensor_flows_vph[2] == 1500.0)

    def test_same_seed_same_noise(self):
        a = add_measurement_noise(
            self.frames(), np.random.default_rng(3), flow_std_vph=50.0, speed_std_kmh=2.0
        )
        b = add_measurement_noise(
            self.frames(), np.random.default_rng(3), flow_std_vph=50.0, speed_std_kmh=2.0
        )
        assert np.array_equal(a.speeds_kmh, b.speeds_kmh)
        assert np.array_equal(a.entry_flow_vph, b.entry_flow_vph)

    def test_speed_noise_leaves_flows_alone(self):
        out = add_measurement_noise(
            self.frames(), np.random.default_rng(1), speed_std_kmh=3.0
        )
        assert np.all(out.entry_flow_vph == 2000.0)
        assert not np.allclose(out.speeds_kmh[0], [80.0, 90.0])

    def test_ramp_magnitudes_are_always_floored(self):
        # Noise far larger than the 10 veh/h ramp flow would otherwise send
        # the magnitude negative; sensor flows are allowed to go negative
        # unless clamped.
        out = add_measurement_noise(
            self.frames(), np.random.default_rng(2), flow_std_vph=5000.0
        )
        assert out.measured_ramp_flows_vph[1].min() >= 0.0
        assert out.sensor_flows_vph[2].min() < 0.0

    def test_clamp_floors_flows_and_speeds(self):
        out = add_measurement_noise(
            self.frames(),
            np.random.default_rng(2),
            flow_std_vph=5000.0,
            speed_std_kmh=200.0,
            clamp_nonnegative=True,
        )
        assert out.entry_flow_vph.min() >= 0.0
        assert out.sensor_flows_vph[2].min() >= 0.0
        assert out.speeds_kmh.min() >= 0.0

    def test_none_entry_flow_stays_none(self):
        # A missing (NaN) entry flow stays missing and takes no draw.
        meas = Measurements(speeds_kmh=[[80.0]], entry_flow_vph=[np.nan])
        rng = np.random.default_rng(0)
        out = add_measurement_noise(meas, rng, flow_std_vph=10.0)
        assert np.isnan(out.entry_flow_vph[0])
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_negative_std_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            add_measurement_noise(self.frames(), np.random.default_rng(0), flow_std_vph=-1.0)

    def test_noise_without_a_generator_raises(self):
        with pytest.raises(ValueError, match="an rng is required"):
            add_measurement_noise(self.frames(), None, flow_std_vph=5.0)
        # Nothing to draw: no generator needed.
        out = add_measurement_noise(self.frames(), None, clamp_nonnegative=True)
        assert np.array_equal(out.speeds_kmh, self.frames().speeds_kmh)


def _oracle_noise(meas, rng, flow_std, speed_std, clamp):
    """The per-step noise loop ``add_measurement_noise`` replaced, over the same columns."""

    def flow(x, floor):
        y = x + rng.normal(0.0, flow_std) if flow_std > 0 else x
        return max(y, 0.0) if floor or clamp else y

    K = meas.n_steps
    speeds = np.empty_like(meas.speeds_kmh)
    entry = np.full(K, np.nan)
    sensors = {j: np.full(K, np.nan) for j in meas.sensor_flows_vph}
    ramps = {s: np.full(K, np.nan) for s in meas.measured_ramp_flows_vph}
    for k in range(K):
        v = meas.speeds_kmh[k].copy()
        if speed_std > 0:
            v = v + rng.normal(0.0, speed_std, v.shape[0])
        if clamp:
            v = np.maximum(v, 0.0)
        speeds[k] = v
        if np.isfinite(meas.entry_flow_vph[k]):
            entry[k] = flow(float(meas.entry_flow_vph[k]), False)
        for j in sorted(sensors):
            q = float(meas.sensor_flows_vph[j][k])
            if np.isfinite(q):
                sensors[j][k] = flow(q, False)
        for s in sorted(ramps):
            q = float(meas.measured_ramp_flows_vph[s][k])
            if np.isfinite(q):
                ramps[s][k] = flow(q, True)
    return Measurements(speeds, entry, sensors, ramps)


@st.composite
def measurement_columns(draw):
    """Measurements with missing speeds, entry flows and sensor readings."""
    K = draw(st.integers(0, 6))
    n = draw(st.integers(1, 3))
    value = st.one_of(st.just(np.nan), st.just(-0.0), st.floats(-50.0, 3000.0))
    segments = st.lists(st.integers(1, 6), max_size=3, unique=True)

    def column():
        return draw(st.lists(value, min_size=K, max_size=K))

    return Measurements(
        speeds_kmh=np.array(draw(st.lists(value, min_size=K * n, max_size=K * n))).reshape(K, n),
        entry_flow_vph=column(),
        sensor_flows_vph={j: column() for j in draw(segments)},
        measured_ramp_flows_vph={
            s: draw(st.lists(st.floats(0.0, 800.0), min_size=K, max_size=K)) for s in draw(segments)
        },
    )


def _oracle_moving_average(s, window):
    out = np.full_like(s, np.nan)
    for k in range(s.shape[0]):
        chunk = s[max(0, k - window + 1) : k + 1]
        finite = np.isfinite(chunk)
        counts = finite.sum(axis=0)
        sums = np.where(finite, chunk, 0.0).sum(axis=0)
        good = counts > 0
        out[k, good] = sums[good] / counts[good]
    return out


class TestColumnarOracles:
    @settings(max_examples=150)
    @given(
        measurement_columns(),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.7, 25.0]),
        st.sampled_from([0.0, 2.5]),
        st.booleans(),
    )
    def test_noise_matches_the_per_step_loop(self, meas, seed, flow_std, speed_std, clamp):
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _oracle_noise(meas, want_rng, flow_std, speed_std, clamp)
        got = add_measurement_noise(
            meas, got_rng, flow_std_vph=flow_std, speed_std_kmh=speed_std, clamp_nonnegative=clamp
        )
        # Bit-for-bit, NaN cells included, and the generator ends in the same state.
        assert got.speeds_kmh.tobytes() == want.speeds_kmh.tobytes()
        assert got.entry_flow_vph.tobytes() == want.entry_flow_vph.tobytes()
        for name in ("sensor_flows_vph", "measured_ramp_flows_vph"):
            got_map, want_map = getattr(got, name), getattr(want, name)
            assert list(got_map) == list(want_map)
            for seg in want_map:
                assert got_map[seg].tobytes() == want_map[seg].tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @settings(max_examples=200)
    @given(
        st.integers(0, 12),
        st.integers(1, 4),
        st.integers(1, 6),
        st.data(),
    )
    def test_moving_average_matches_the_per_step_loop(self, K, n, window, data):
        value = st.one_of(st.just(np.nan), st.just(-0.0), st.floats(0.0, 130.0))
        cells = data.draw(st.lists(value, min_size=K * n, max_size=K * n))
        series = np.array(cells, dtype=float).reshape(K, n)
        got = moving_average_speed(series, window=window)
        assert got.tobytes() == _oracle_moving_average(series, window).tobytes()


# Property tests: the step grid against the per-step, per-vehicle loop it
# replaced, on recordings with the cases the presets never reach.


def _oracle_segment(cfg, x_km):
    if x_km < 0.0 or x_km > cfg.total_length_km:
        return None
    edges = cfg.boundaries_km()
    if x_km >= edges[-1]:
        return cfg.n_segments
    return int(np.searchsorted(edges, x_km, side="right"))


def _oracle_snapshot(traj, t_s, max_gap_s):
    out = {}
    for vid, track in traj.tracks.items():
        i = int(np.searchsorted(track.times_s, t_s, side="right")) - 1
        if i < 0 or t_s - track.times_s[i] > max_gap_s:
            continue
        out[vid] = (float(track.positions_m[i]), float(track.speeds_mps[i]), int(track.lanes[i]))
    return out


def _oracle_series(traj, cfg, n_steps, connected, exclude, t0_s, max_gap_s):
    T_s = cfg.time_step_h * 3600.0
    n = cfg.n_segments
    speeds = np.full((n_steps, n), np.nan)
    density = np.zeros((n_steps, n))
    for k in range(n_steps):
        sums = np.zeros(n)
        counts = np.zeros(n, dtype=int)
        everyone = np.zeros(n)
        for vid, (x_m, v_mps, lane) in _oracle_snapshot(traj, t0_s + k * T_s, max_gap_s).items():
            seg = _oracle_segment(cfg, x_m / 1000.0)
            if lane in exclude or seg is None:
                continue
            everyone[seg - 1] += 1
            if vid in connected:
                sums[seg - 1] += v_mps
                counts[seg - 1] += 1
        present = counts > 0
        speeds[k, present] = sums[present] / counts[present] * 3.6
        density[k] = everyone / cfg.lengths_km
    return speeds, density


LENGTHS_KM = (0.25, 0.5)


@st.composite
def recordings(draw, *, unique_times=False):
    """Small recordings with stale gaps, late starts, off-stretch and boundary positions.

    The recording's clock starts at a drawn offset, and each vehicle at its
    own offset from it; gaps between samples fall below, at and above 1 s.
    """
    n_seg = draw(st.integers(1, 3))
    cfg = NetworkConfig(
        segments=tuple(Segment(length_km=draw(st.sampled_from(LENGTHS_KM))) for _ in range(n_seg)),
        flow_sensor_segments=frozenset({n_seg}),
        time_step_h=T_STEP_H,
    )
    edges_m = [float(b) * 1000.0 for b in cfg.boundaries_km()]
    position = st.one_of(
        st.sampled_from(edges_m + [-1.0, edges_m[-1] + 1.0]),
        st.floats(-100.0, edges_m[-1] + 100.0, allow_nan=False),
    )
    columns = {"vehicle_id": [], "t_s": [], "x_m": [], "speed_mps": [], "lane": []}
    start = draw(st.sampled_from([0.0, -1.0, 2.5, 600.0]))
    ids = draw(st.lists(st.integers(0, 50), min_size=1, max_size=6, unique=True))
    for vid in ids:
        n = draw(st.integers(1, 8))
        t0 = draw(st.sampled_from([-3.0, -0.5, 0.0, 0.7, 2.0, 6.0]))
        steps = draw(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0]), min_size=n - 1, max_size=n - 1)
        )
        if unique_times:
            steps = [d + 0.25 for d in steps]
        columns["vehicle_id"] += [vid] * n
        columns["t_s"] += (start + t0 + np.concatenate([[0.0], np.cumsum(steps)])).tolist()
        columns["x_m"] += draw(st.lists(position, min_size=n, max_size=n))
        columns["speed_mps"] += draw(st.lists(st.floats(0.0, 40.0), min_size=n, max_size=n))
        columns["lane"] += draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    traj = TrajectoryData(**columns)
    connected = frozenset(draw(st.lists(st.sampled_from(ids), unique=True)))
    exclude = frozenset(draw(st.lists(st.integers(1, 3), max_size=2, unique=True)))
    return traj, cfg, connected, exclude


@st.composite
def busy_rows(draw):
    """Rows of 3 to 12 vehicles sampled once a second across a 1 km stretch.

    Several vehicles share most (step, segment) cells, so a sum over them
    depends on the order it adds them in.
    """
    rows = []
    for vid in draw(st.lists(st.integers(0, 50), min_size=3, max_size=12, unique=True)):
        n, t0 = draw(st.integers(2, 20)), draw(st.integers(-2, 5))
        x0, v = draw(st.floats(-200.0, 900.0)), draw(st.floats(1.0, 40.0))
        speeds = draw(st.lists(st.floats(0.0, 40.0), min_size=n, max_size=n))
        lanes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        rows += [(vid, float(t0 + s), x0 + v * s, speeds[s], lanes[s]) for s in range(n)]
    return rows


def table_rows(traj):
    """(vehicle_id, t_s, x_m, speed_mps, lane) of every sample, in table order."""
    vehicle = np.repeat(traj.ids, np.diff(traj.starts))
    return list(zip(*(c.tolist() for c in (vehicle, traj.t_s, traj.x_m, traj.speed_mps, traj.lane))))


def ordered_rows(rows):
    """The rows in table order: vehicles by ascending id, then time, ties in row order.

    Also returns the ids in ascending order. Times must not be NaN.
    """
    return sorted(rows, key=lambda row: (row[0], row[1])), sorted({row[0] for row in rows})


def assert_table_of(traj, rows):
    """``traj`` holds ``rows`` in table order, with its ids and starts."""
    want, ids = ordered_rows(rows)
    assert table_rows(traj) == want
    assert traj.ids.tolist() == ids
    assert traj.starts[-1] == len(rows)


class TestTrajectoryData:
    @settings(max_examples=100)
    @given(recordings(), st.randoms(use_true_random=False))
    def test_shuffled_rows_give_the_table_of_the_ordered_ones(self, rec, rnd):
        # Ordered rows are adopted as they are; shuffled ones are sorted.
        rows = table_rows(rec[0])
        rnd.shuffle(rows)
        shuffled = TrajectoryData(*zip(*rows))
        ordered = TrajectoryData(*zip(*ordered_rows(rows)[0]))
        assert_table_of(ordered, rows)
        assert shuffled.ids.tolist() == ordered.ids.tolist()
        assert shuffled.starts.tolist() == ordered.starts.tolist()
        for name in ("t_s", "x_m", "speed_mps", "lane"):
            assert getattr(shuffled, name).tobytes() == getattr(ordered, name).tobytes()
        assert (shuffled.t_min_s, shuffled.t_max_s) == (ordered.t_min_s, ordered.t_max_s)

    @pytest.mark.parametrize(
        "rows",
        [
            # Vehicle 7 reappears after vehicle 3.
            [(7, 0.0, 0.0, 10.0, 1), (3, 0.0, 50.0, 12.0, 2), (7, 1.0, 10.0, 10.0, 1)],
            # Time goes back within vehicle 7.
            [(7, 1.0, 10.0, 10.0, 1), (7, 0.0, 0.0, 10.0, 1), (3, 0.0, 50.0, 12.0, 2)],
            # Equal times, in rows that need sorting and in rows that do not.
            [(7, 1.0, 10.0, 10.0, 1), (7, 0.0, 0.0, 10.0, 1), (7, 1.0, 11.0, 9.0, 2)],
            [(7, 0.0, 0.0, 10.0, 1), (7, 0.0, 1.0, 11.0, 2), (3, 4.0, 5.0, 6.0, 1), (3, 4.0, 7.0, 8.0, 1)],
            # Rows grouped by vehicle and time-ordered, but ids not ascending: sorted.
            [(9, 0.0, 0.0, 1.0, 1), (9, 1.0, 1.0, 1.0, 1), (2, 0.0, 0.0, 1.0, 1), (5, 0.0, 0.0, 1.0, 1)],
        ],
        ids=["id-reappears", "time-goes-back", "equal-times-sorted", "equal-times-ordered", "ids-not-ascending"],
    )
    def test_rows_are_grouped_and_sorted(self, rows):
        assert_table_of(TrajectoryData(*zip(*rows)), rows)

    def test_a_nan_time_is_sorted_last_within_its_vehicle(self):
        # No comparison with NaN holds, so these rows are not taken as time-ordered.
        traj = TrajectoryData([3, 7, 7, 7], [0.0, 0.0, math.nan, 1.0], [50.0, 0.0, 5.0, 10.0], [10.0] * 4, [1] * 4)
        assert traj.ids.tolist() == [3, 7]
        assert traj.starts.tolist() == [0, 1, 4]
        assert traj.t_s.tolist()[:3] == [0.0, 0.0, 1.0] and math.isnan(traj.t_s[3])
        assert traj.x_m.tolist() == [50.0, 0.0, 10.0, 5.0]

    @pytest.mark.parametrize("order", [[0, 1, 2], [1, 0, 2]], ids=["ordered", "shuffled"])
    def test_caller_arrays_stay_writeable_and_unchanged(self, order):
        columns = [
            np.array([3, 7, 7])[order],
            np.array([0.0, 0.0, 1.0])[order],
            np.array([50.0, 0.0, 10.0])[order],
            np.array([12.0, 10.0, 10.0])[order],
            np.array([2, 1, 1])[order],
        ]
        before = [c.copy() for c in columns]
        traj = TrajectoryData(*columns)
        for column, copy in zip(columns, before):
            assert column.flags.writeable
            assert np.array_equal(column, copy)
        # Ordered columns are adopted, shuffled ones copied; both read-only.
        assert np.shares_memory(traj.t_s, columns[1]) == (order == [0, 1, 2])
        assert not traj.t_s.flags.writeable
        assert table_rows(traj) == [(3, 0.0, 50.0, 12.0, 2), (7, 0.0, 0.0, 10.0, 1), (7, 1.0, 10.0, 10.0, 1)]

    def test_columns_of_unequal_length_raise(self):
        with pytest.raises(ValueError, match="equal length"):
            TrajectoryData([1, 1], [0.0, 1.0], [0.0, 5.0, 10.0], [5.0, 5.0], [1, 1])

    def test_no_samples_raise(self):
        with pytest.raises(TrajectoryFormatError, match="no trajectory samples"):
            TrajectoryData([], [], [], [], [])

    def test_columns_are_read_only(self):
        traj = three_vehicle_traj()
        with pytest.raises(ValueError, match="read-only"):
            traj.x_m[0] = 0.0


class TestStepGridProperties:
    @settings(max_examples=150)
    @given(recordings(), st.integers(0, 6))
    def test_grid_matches_per_step_loop(self, rec, n_steps):
        # The grid starts at the first sample; a sample more than 1 s old is stale.
        traj, cfg, connected, exclude = rec
        want_speeds, want_density = _oracle_series(traj, cfg, n_steps, connected, exclude, traj.t_min_s, 1.0)
        speeds = segment_speed_series(traj, cfg, n_steps, connected, exclude_lanes=exclude)
        density = ground_truth_densities(traj, cfg, n_steps, exclude_lanes=exclude)
        # Bit-for-bit, NaN cells included.
        assert speeds.tobytes() == want_speeds.tobytes()
        assert density.tobytes() == want_density.tobytes()
        times = traj.t_min_s + np.arange(n_steps) * cfg.time_step_h * 3600.0
        want = [_oracle_snapshot(traj, t, 1.0) for t in times]
        assert grid_snapshots(traj, times) == want

    @settings(max_examples=60)
    @given(recordings(unique_times=True), st.randoms(use_true_random=False))
    def test_loading_ignores_row_and_column_order(self, rec, rnd):
        traj, cfg, connected, _exclude = rec
        columns = ["vehicle_id", "t_s", "x_m", "lane", "speed_mps"]
        rows = [
            dict(zip(columns, (vid, t, x, lane, v)))
            for vid, tr in traj.tracks.items()
            for t, x, lane, v in zip(
                tr.times_s.tolist(), tr.positions_m.tolist(), tr.lanes.tolist(), tr.speeds_mps.tolist()
            )
        ]
        rnd.shuffle(rows)
        rnd.shuffle(columns)
        lines = [",".join(columns)] + [",".join(repr(row[c]) for c in columns) for row in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "traj.csv"
            path.write_text("\n".join(lines) + "\n")
            loaded = load_trajectories(path)
        assert loaded.ids.tolist() == traj.ids.tolist()
        assert (loaded.t_min_s, loaded.t_max_s) == (traj.t_min_s, traj.t_max_s)
        for vid, track in traj.tracks.items():
            got = loaded.tracks[vid]
            assert np.array_equal(got.times_s, track.times_s)
            assert np.array_equal(got.positions_m, track.positions_m)
            assert np.array_equal(got.speeds_mps, track.speeds_mps)
            assert np.array_equal(got.lanes, track.lanes)
        n_steps = 4
        assert np.array_equal(
            ground_truth_densities(loaded, cfg, n_steps), ground_truth_densities(traj, cfg, n_steps)
        )
        assert (
            segment_speed_series(loaded, cfg, n_steps, connected).tobytes()
            == segment_speed_series(traj, cfg, n_steps, connected).tobytes()
        )

    @settings(max_examples=100)
    @given(
        busy_rows(),
        st.randoms(use_true_random=False),
        st.sampled_from([RampType.ON, RampType.OFF]),
        st.sampled_from([None, frozenset({1}), frozenset({2, 3})]),
    )
    def test_row_order_changes_no_output_bit(self, rows, rnd, kind, lanes):
        # Without two samples of one vehicle at one time, any order of the
        # rows gives the same table, so the same bits in every output.
        cfg, n_steps = make_config(), 4
        connected = frozenset(row[0] for row in rows)
        rule = RampLaneRule(segment=1, lane=2, kind=kind)

        def outputs(rows):
            traj = TrajectoryData(*zip(*rows))
            return [
                segment_speed_series(traj, cfg, n_steps, connected),
                ground_truth_densities(traj, cfg, n_steps, exclude_lanes=frozenset({3})),
                virtual_detector_flow(traj, 500.0, n_steps, T_STEP_H, lanes=lanes),
                lane_transition_flow(traj, rule, n_steps, T_STEP_H),
            ]

        want = outputs(rows)
        rnd.shuffle(rows)
        for got, expected in zip(outputs(rows), want):
            assert got.tobytes() == expected.tobytes()


# Property tests: the array code of crossings, event flows, lane transitions
# and connected-vehicle marking against the per-vehicle loops it replaced.


def _oracle_crossing_times(traj, x_m):
    out = {}
    for vid, track in traj.tracks.items():
        pos = track.positions_m
        if pos[0] >= x_m:
            continue
        above = np.nonzero(pos >= x_m)[0]
        if above.size == 0:
            continue
        i = int(above[0])
        x0, x1 = pos[i - 1], pos[i]
        t0, t1 = track.times_s[i - 1], track.times_s[i]
        if x1 == x0:
            out[vid] = float(t1)
        else:
            out[vid] = float(t0 + (x_m - x0) / (x1 - x0) * (t1 - t0))
    return out


def _oracle_bin_crossings(times_s, n_steps, T_s, t0_s):
    counts = np.zeros(n_steps, dtype=int)
    for t in times_s:
        k = math.ceil((t - t0_s) / T_s) - 1
        if 0 <= k < n_steps:
            counts[k] += 1
    return counts


def _oracle_event_flow(traj, times, n_steps, time_step_h, t0_s, lanes):
    if lanes is not None:
        kept = {}
        for vid, t in times.items():
            track = traj.tracks[vid]
            i = min(int(np.searchsorted(track.times_s, t, side="right")), len(track.lanes) - 1)
            if int(track.lanes[i]) in lanes:
                kept[vid] = t
        times = kept
    T_s = time_step_h * 3600.0
    return _oracle_bin_crossings(times.values(), n_steps, T_s, t0_s) / time_step_h


def _oracle_entry_flow(traj, cfg, n_steps, t0_s, lanes):
    events = _oracle_crossing_times(traj, 0.0)
    end_m = cfg.boundaries_km()[1] * 1000.0
    for vid, track in traj.tracks.items():
        if 0.0 <= track.positions_m[0] < end_m:
            events[vid] = float(track.times_s[0])
    return _oracle_event_flow(traj, events, n_steps, cfg.time_step_h, t0_s, lanes)


def _oracle_lane_transition_flow(traj, rule, n_steps, time_step_h, t0_s):
    events = []
    for track in traj.tracks.values():
        lanes = track.lanes
        if len(lanes) < 2:
            continue
        on_ramp_lane = lanes == rule.lane
        if rule.kind is RampType.ON:
            hits = np.nonzero(on_ramp_lane[:-1] & ~on_ramp_lane[1:])[0]
        else:
            hits = np.nonzero(~on_ramp_lane[:-1] & on_ramp_lane[1:])[0]
        if hits.size:
            events.append(float(track.times_s[int(hits[0]) + 1]))
    T_s = time_step_h * 3600.0
    return _oracle_bin_crossings(events, n_steps, T_s, t0_s) / time_step_h


def _oracle_assign_connected(vehicle_ids, penetration, rng):
    return frozenset(vid for vid in sorted(vehicle_ids) if rng.random() < penetration)


def _detector_positions(cfg):
    edges_m = [float(b) * 1000.0 for b in cfg.boundaries_km()]
    return st.one_of(st.sampled_from(edges_m), st.floats(-50.0, edges_m[-1] + 50.0))


class TestFlowProperties:
    @settings(max_examples=150)
    @given(recordings(), st.data())
    def test_crossings_match_the_per_vehicle_loop(self, rec, data):
        traj, cfg, _connected, _exclude = rec
        x_m = data.draw(_detector_positions(cfg))
        got, want = first_crossings(traj, x_m), _oracle_crossing_times(traj, x_m)
        assert list(got) == list(want)
        assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()

    @settings(max_examples=150)
    @given(
        recordings(),
        st.integers(0, 6),
        st.one_of(st.none(), st.frozensets(st.integers(1, 3))),
        st.data(),
    )
    def test_detector_flows_match_the_per_vehicle_loop(self, rec, n_steps, lanes, data):
        traj, cfg, _connected, _exclude = rec
        x_m = data.draw(_detector_positions(cfg))
        got = virtual_detector_flow(traj, x_m, n_steps, T_STEP_H, lanes=lanes)
        want = _oracle_event_flow(
            traj, _oracle_crossing_times(traj, x_m), n_steps, T_STEP_H, traj.t_min_s, lanes
        )
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=150)
    @given(recordings(), st.integers(0, 2**32 - 1))
    def test_frames_match_the_per_vehicle_loops(self, rec, seed):
        # Entry flow, sensor flows and the lanes kept after an exclusion, on
        # one step per whole T from the first sample to the last.
        traj, cfg, _connected, exclude = rec
        t0_s = min(float(tr.times_s[0]) for tr in traj.tracks.values())
        t_end = max(float(tr.times_s[-1]) for tr in traj.tracks.values())
        n_steps = math.floor((t_end - t0_s) / (T_STEP_H * 3600.0))
        rng = np.random.default_rng(seed)
        if n_steps <= 0:
            with pytest.raises(ValueError, match="too short"):
                frames_from_trajectories(traj, cfg, 0.5, rng, exclude_lanes=exclude)
            return
        meas = frames_from_trajectories(traj, cfg, 0.5, rng, exclude_lanes=exclude)
        assert meas.n_steps == n_steps
        lanes = None
        if exclude:
            lanes = frozenset({int(l) for tr in traj.tracks.values() for l in np.unique(tr.lanes)} - exclude)
        want_entry = _oracle_entry_flow(traj, cfg, n_steps, t0_s, lanes)
        assert meas.entry_flow_vph.tobytes() == want_entry.tobytes()
        edges_m = cfg.boundaries_km() * 1000.0
        for j, got in meas.sensor_flows_vph.items():
            want = _oracle_event_flow(
                traj, _oracle_crossing_times(traj, edges_m[j]), n_steps, T_STEP_H, t0_s, lanes
            )
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=150)
    @given(
        recordings(),
        st.integers(0, 6),
        st.integers(1, 3),
        st.sampled_from([RampType.ON, RampType.OFF]),
    )
    def test_lane_transitions_match_the_per_vehicle_loop(self, rec, n_steps, lane, kind):
        traj, _cfg, _connected, _exclude = rec
        rule = RampLaneRule(segment=1, lane=lane, kind=kind)
        got = lane_transition_flow(traj, rule, n_steps, T_STEP_H)
        want = _oracle_lane_transition_flow(traj, rule, n_steps, T_STEP_H, traj.t_min_s)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=150)
    @given(
        st.lists(st.integers(-5, 10**6)),
        st.sampled_from([0.0, 0.05, 0.5, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_connected_marking_matches_the_per_vehicle_loop(self, ids, penetration, seed):
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _oracle_assign_connected(ids, penetration, want_rng)
        assert assign_connected(ids, penetration, got_rng) == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

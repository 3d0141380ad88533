"""Tests for network topology, validation rules, and the CFL check."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trafficstate.network import (
    CflReport,
    InputError,
    NetworkConfig,
    RampType,
    Segment,
    check_cfl,
    load_network,
    save_network,
    validate_network,
)


def make_config(n=4, sensors=(4,), time_step_h=10 / 3600, ramps=None):
    ramps = ramps or {}
    segments = []
    for i in range(1, n + 1):
        kind, measured = ramps.get(i, (RampType.NONE, False))
        segments.append(Segment(length_km=0.5, ramp=kind, ramp_measured=measured))
    return NetworkConfig(
        segments=tuple(segments),
        flow_sensor_segments=frozenset(sensors),
        time_step_h=time_step_h,
    )


class TestSegment:
    def test_ramp_string_is_coerced_to_enum(self):
        seg = Segment(length_km=0.5, ramp="on_ramp")
        assert seg.ramp is RampType.ON

    def test_unknown_ramp_string_raises(self):
        with pytest.raises(ValueError):
            Segment(length_km=0.5, ramp="sideways")

    def test_default_has_no_ramp(self):
        seg = Segment(length_km=1.0)
        assert seg.ramp is RampType.NONE
        assert not seg.ramp_measured


class TestNetworkConfig:
    def test_requires_at_least_one_segment(self):
        with pytest.raises(InputError, match="^segments must be a non-empty array$"):
            NetworkConfig(segments=(), flow_sensor_segments=frozenset(), time_step_h=0.01)

    def test_basic_properties(self):
        cfg = make_config(n=3, sensors=(3,))
        assert cfg.n_segments == 3
        assert np.allclose(cfg.lengths_km, [0.5, 0.5, 0.5])
        assert cfg.total_length_km == pytest.approx(1.5)

    def test_boundaries_are_cumulative_lengths(self):
        cfg = NetworkConfig(
            segments=(Segment(0.3), Segment(0.7), Segment(0.5)),
            flow_sensor_segments=frozenset({3}),
            time_step_h=0.01,
        )
        assert np.allclose(cfg.boundaries_km(), [0.0, 0.3, 1.0, 1.5])

    def test_ramp_segments_filtering(self):
        cfg = make_config(
            n=5,
            sensors=(5,),
            ramps={2: (RampType.ON, True), 4: (RampType.OFF, False)},
        )
        assert cfg.ramp_segments() == (2, 4)
        assert cfg.ramp_segments(measured=True) == (2,)
        assert cfg.ramp_segments(measured=False) == (4,)

    def test_segment_of_position_boundary_ownership(self):
        cfg = NetworkConfig(
            segments=(Segment(0.5), Segment(0.5)),
            flow_sensor_segments=frozenset({2}),
            time_step_h=0.01,
        )
        assert cfg.segment_of_position(0.0) == 1
        assert cfg.segment_of_position(0.25) == 1
        # An interior boundary belongs to the downstream segment.
        assert cfg.segment_of_position(0.5) == 2
        # The stretch end belongs to the last segment.
        assert cfg.segment_of_position(1.0) == 2
        assert cfg.segment_of_position(-0.01) is None
        assert cfg.segment_of_position(1.01) is None

    def test_sensor_indices_are_coerced_to_int(self):
        cfg = NetworkConfig(
            segments=(Segment(0.5),),
            flow_sensor_segments=frozenset({np.int64(1)}),
            time_step_h=0.01,
        )
        assert all(isinstance(j, int) for j in cfg.flow_sensor_segments)


class TestValidateNetwork:
    def test_valid_config_reports_ok(self):
        cfg = make_config(n=4, sensors=(4,))
        report = validate_network(cfg)
        assert report.ok
        assert report.violations == ()
        assert str(report) == "network ok"

    # A structural break never reaches validate_network: constructing the
    # network refuses it, naming the field (see TestNetworkConfigRules).
    @pytest.mark.parametrize("length, step", [(math.nan, 0.01), (math.inf, 0.01), (0.5, math.nan), (0.5, math.inf)])
    def test_non_finite_length_or_time_step_flagged(self, length, step):
        segments = (Segment(0.5), Segment(length))
        want = f"segment 2: length_km must be positive and finite, got {length}"
        if math.isfinite(length):
            want = f"time_step_h must be positive and finite, got {step}"
        with pytest.raises(InputError) as err:
            NetworkConfig(segments=segments, flow_sensor_segments=frozenset({2}), time_step_h=step)
        assert str(err.value) == want

    def test_nonpositive_length_flagged(self):
        with pytest.raises(InputError) as err:
            NetworkConfig(
                segments=(Segment(0.5), Segment(0.0)),
                flow_sensor_segments=frozenset({2}),
                time_step_h=0.01,
            )
        assert str(err.value) == "segment 2: length_km must be positive and finite, got 0.0"

    def test_nonpositive_time_step_flagged(self):
        with pytest.raises(InputError) as err:
            make_config(time_step_h=0.0)
        assert str(err.value) == "time_step_h must be positive and finite, got 0.0"

    def test_unmeasured_entry_flow_flagged(self):
        cfg = NetworkConfig(
            segments=(Segment(0.5),),
            flow_sensor_segments=frozenset({1}),
            time_step_h=0.01,
            entry_flow_measured=False,
        )
        rules = {v.rule for v in validate_network(cfg).violations}
        assert "entry-flow" in rules

    def test_sensor_out_of_range_flagged(self):
        with pytest.raises(InputError) as err:
            make_config(n=3, sensors=(0, 3, 7))
        assert str(err.value) == "flow_sensors outside 1..3: [0, 7]"

    def test_missing_exit_sensor_flagged(self):
        cfg = make_config(n=4, sensors=(2,))
        rules = {v.rule for v in validate_network(cfg).violations}
        assert "exit-flow" in rules

    def test_consecutive_unmeasured_ramps_need_a_sensor_between(self):
        ramps = {2: (RampType.ON, False), 5: (RampType.OFF, False)}
        uncovered = make_config(n=6, sensors=(6,), ramps=ramps)
        report = validate_network(uncovered)
        bad = [v for v in report.violations if v.rule == "ramp-placement"]
        assert len(bad) == 1
        assert bad[0].indices == (2, 5)

        # A sensor anywhere in 2..4 covers the pair; segment 5 does not.
        covered = make_config(n=6, sensors=(3, 6), ramps=ramps)
        assert validate_network(covered).ok
        late = make_config(n=6, sensors=(5, 6), ramps=ramps)
        assert not validate_network(late).ok

    def test_measured_ramps_do_not_constrain_placement(self):
        ramps = {2: (RampType.ON, True), 5: (RampType.OFF, True)}
        cfg = make_config(n=6, sensors=(6,), ramps=ramps)
        assert validate_network(cfg).ok

    def test_report_string_lists_rules(self):
        cfg = make_config(n=4, sensors=(2,))
        text = str(validate_network(cfg))
        assert text.startswith("1 violation(s):")
        assert "[exit-flow]" in text


class TestCheckCfl:
    def test_ratio_value_on_a_hand_case(self):
        # T = 5 s, delta = 0.05 km: v = 20 km/h gives 20 * (5/3600) / 0.05.
        cfg = NetworkConfig(
            segments=(Segment(0.05),),
            flow_sensor_segments=frozenset({1}),
            time_step_h=5 / 3600,
        )
        report = check_cfl(cfg, np.array([[20.0]]))
        assert report.ok
        assert report.max_ratio == pytest.approx(0.5555555555555556)

    def test_violation_flagged_at_and_above_one(self):
        cfg = NetworkConfig(
            segments=(Segment(0.05), Segment(0.05)),
            flow_sensor_segments=frozenset({2}),
            time_step_h=5 / 3600,
        )
        speeds = np.array([[20.0, 40.0], [36.0, 10.0]])
        report = check_cfl(cfg, speeds)
        assert not report.ok
        # v = 40 gives ratio 1.111...; v = 36 sits exactly at 1.0.
        assert (0, 2, pytest.approx(1.1111111111111112)) in [
            (k, i, r) for k, i, r in report.violations
        ]
        assert any(k == 1 and i == 1 for k, i, _ in report.violations)
        assert report.max_ratio == pytest.approx(1.1111111111111112)

    def test_negative_speed_is_flagged(self):
        # A negative speed puts a diagonal entry above 1 into the transition matrix.
        cfg = NetworkConfig(
            segments=(Segment(0.05), Segment(0.05)),
            flow_sensor_segments=frozenset({2}),
            time_step_h=5 / 3600,
        )
        report = check_cfl(cfg, np.array([[20.0, 30.0], [-0.5, 10.0]]))
        assert not report.ok
        assert report.violations == ((1, 1, pytest.approx(-0.5 * 5 / 3600 / 0.05)),)
        assert report.max_ratio == pytest.approx(30.0 * 5 / 3600 / 0.05)

    def test_one_dimensional_input_is_a_single_step(self):
        cfg = make_config(n=2, sensors=(2,))
        report = check_cfl(cfg, [30.0, 40.0])
        assert isinstance(report, CflReport)
        assert report.ok

    def test_nan_speeds_are_skipped(self):
        cfg = NetworkConfig(
            segments=(Segment(0.05),),
            flow_sensor_segments=frozenset({1}),
            time_step_h=5 / 3600,
        )
        report = check_cfl(cfg, np.array([[np.nan], [20.0]]))
        assert report.ok
        assert report.max_ratio == pytest.approx(0.5555555555555556)

    def test_all_nan_series_reports_zero(self):
        cfg = make_config(n=1, sensors=(1,))
        report = check_cfl(cfg, np.array([[np.nan], [np.nan]]))
        assert report.ok
        assert report.max_ratio == 0.0

    def test_wrong_column_count_raises(self):
        cfg = make_config(n=3, sensors=(3,))
        with pytest.raises(ValueError):
            check_cfl(cfg, np.zeros((5, 2)))


class TestNetworkIo:
    def test_round_trip_preserves_config(self, tmp_path):
        cfg = make_config(
            n=4,
            sensors=(2, 4),
            ramps={2: (RampType.ON, False), 3: (RampType.OFF, True)},
        )
        path = tmp_path / "net.json"
        save_network(cfg, path)
        loaded = load_network(path)
        assert loaded == cfg

    def test_saved_file_is_plain_json(self, tmp_path):
        cfg = make_config(n=2, sensors=(2,))
        path = tmp_path / "net.json"
        save_network(cfg, path)
        raw = json.loads(path.read_text())
        assert raw["flow_sensors"] == [2]
        assert len(raw["segments"]) == 2

    def test_invalid_json_raises_format_error(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text("{not json")
        with pytest.raises(InputError):
            load_network(path)

    def test_non_object_top_level_raises(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(InputError):
            load_network(path)

    def test_missing_segments_raises(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"time_step_h": 0.01}))
        with pytest.raises(InputError):
            load_network(path)

    def test_bad_segment_length_raises(self, tmp_path):
        path = tmp_path / "net.json"
        payload = {"time_step_h": 0.01, "segments": [{"length_km": "wide"}]}
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError, match="segment 1"):
            load_network(path)

    def test_unknown_ramp_type_raises(self, tmp_path):
        path = tmp_path / "net.json"
        payload = {
            "time_step_h": 0.01,
            "segments": [{"length_km": 0.5, "ramp": "diagonal"}],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError, match="ramp type"):
            load_network(path)

    def test_non_integer_sensor_raises(self, tmp_path):
        path = tmp_path / "net.json"
        payload = {
            "time_step_h": 0.01,
            "segments": [{"length_km": 0.5}],
            "flow_sensors": ["exit"],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError):
            load_network(path)

    def test_dict_form_round_trips_and_names_the_bad_field(self):
        cfg = make_config(n=3, sensors=(3, 1), ramps={2: (RampType.OFF, True)})
        raw = cfg.to_dict()
        assert raw["flow_sensors"] == [1, 3]
        assert raw["segments"][1] == {"length_km": 0.5, "ramp": "off_ramp", "ramp_measured": True}
        assert NetworkConfig.from_dict(json.loads(json.dumps(raw))) == cfg
        raw["flow_sensors"] = "3"
        with pytest.raises(InputError, match="^flow_sensors must be an array"):
            NetworkConfig.from_dict(raw)

    def test_numpy_numbers_are_numbers(self):
        # A library caller's dict may hold numpy scalars where JSON has numbers.
        raw = {"time_step_h": np.int64(1), "segments": [{"length_km": np.float32(0.5)}], "flow_sensors": [1]}
        cfg = NetworkConfig.from_dict(raw)
        assert (cfg.time_step_h, cfg.segments[0].length_km) == (1.0, 0.5)
        assert type(cfg.time_step_h) is float

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"ramp_measured": "false"}, "segment 2: ramp_measured must be true or false, got 'false'"),
            ({"ramp_measured": 1}, "segment 2: ramp_measured must be true or false, got 1"),
            ({"entry_flow_measured": "false"}, "entry_flow_measured must be true or false, got 'false'"),
            ({"flow_sensors": [1.9]}, "flow_sensors entries must be integers, got [1.9]"),
            ({"flow_sensors": [2, True]}, "flow_sensors entries must be integers, got [True]"),
            ({"length_km": math.nan}, "segment 2: length_km must be positive and finite, got nan"),
            ({"length_km": math.inf}, "segment 2: length_km must be positive and finite, got inf"),
            ({"time_step_h": math.nan}, "time_step_h must be positive and finite, got nan"),
            ({"time_step_h": 0}, "time_step_h must be positive and finite, got 0.0"),
            ({"flow_sensors": [2, 9]}, "flow_sensors outside 1..2: [9]"),
            ({"flow_sensors": [[2]]}, "flow_sensors entries must be integers, got [[2]]"),
            ({"time_step_h": True}, "time_step_h must be a number, got true"),
            ({"length_km": "0.5"}, 'segment 2: length_km must be a number, got "0.5"'),
        ],
    )
    def test_values_that_mean_something_else_raise(self, change, message):
        # JSON allows NaN and Infinity; bool("false") is True, int(1.9) is 1
        # and float(True) is 1.0.
        # The structural rules are the constructor's, reached through from_dict.
        raw = make_config(n=2, sensors=(2,), ramps={2: (RampType.ON, True)}).to_dict()
        for key, value in change.items():
            (raw["segments"][1] if key in ("ramp_measured", "length_km") else raw)[key] = value
        with pytest.raises(InputError) as err:
            NetworkConfig.from_dict(json.loads(json.dumps(raw)))
        assert str(err.value) == message


# Every value the structural rules must tell apart: on the bounds, beyond
# them, and not a number.
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, -0.5, math.nan, math.inf, -math.inf])


class TestNetworkConfigRules:
    def test_sensors_must_be_integers_not_bools(self):
        # int() would take 1.9 and True as sensor 1.
        with pytest.raises(InputError) as err:
            NetworkConfig((Segment(0.5),), [1.9, True], 0.01)
        assert str(err.value) == "flow_sensors entries must be integers, got [1.9, True]"
        (sensor,) = NetworkConfig((Segment(0.5),), [np.int64(1)], 0.01).flow_sensor_segments
        assert sensor == 1 and type(sensor) is int

    @pytest.mark.parametrize("rule", [None, "length", "time step", "sensor", "no segments"])
    @given(
        lengths=st.lists(st.floats(0.01, 5.0), min_size=1, max_size=5),
        step=st.floats(1e-4, 0.1),
        entry=st.booleans(),
        data=st.data(),
    )
    def test_construction_refuses_exactly_the_structural_breaks(self, rule, lengths, step, entry, data):
        # A well-formed network, then the named structural rule broken in it.
        n = len(lengths)
        sensors = set(data.draw(st.frozensets(st.integers(1, n), max_size=4)))
        if rule == "length":
            lengths[data.draw(st.integers(0, n - 1))] = data.draw(_EDGE_FLOATS)
        elif rule == "time step":
            step = data.draw(_EDGE_FLOATS)
        elif rule == "sensor":
            sensors.add(data.draw(st.sampled_from([-1, 0, n + 1, n + 7])))
        elif rule == "no segments":
            lengths, sensors = [], set()
        ramps = data.draw(st.lists(st.tuples(st.sampled_from(RampType), st.booleans()), min_size=n, max_size=n))
        segments = tuple(Segment(length, kind, measured) for length, (kind, measured) in zip(lengths, ramps))
        broken = (
            not segments
            or any(not 0 < length < math.inf for length in lengths)
            or not 0 < step < math.inf
            or any(not 1 <= j <= len(segments) for j in sensors)
        )
        try:
            cfg = NetworkConfig(segments, sensors, step, entry)
        except InputError:
            assert broken
            return
        assert not broken
        assert NetworkConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
        rules = {v.rule for v in validate_network(cfg).violations}
        assert rules <= {"entry-flow", "exit-flow", "ramp-placement"}

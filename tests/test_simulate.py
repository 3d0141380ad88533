"""Tests for synthetic truth generation and measurement emulation."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficstate import cli
from trafficstate.kalman import FilterTuning, run_filter
from trafficstate.ltv_model import build_state_index
from trafficstate.metrics import cv_rho
from trafficstate.network import (
    CflViolationError,
    InputError,
    NetworkConfig,
    RampType,
    Segment,
    check_cfl,
    validate_network,
)
from trafficstate.sensing import Measurements, add_measurement_noise, moving_average_speed
from trafficstate.simulate import (
    PRESET_NAMES,
    Scenario,
    emulate_probe_speeds,
    make_congestion_scenario,
    preset_filter_defaults,
    save_scenario,
    simulate_truth,
    synthetic_measurements,
)


def make_config(n=2, sensors=(2,), ramps=None, time_step_h=10 / 3600, length=0.5):
    ramps = ramps or {}
    segments = []
    for i in range(1, n + 1):
        kind, measured = ramps.get(i, (RampType.NONE, False))
        segments.append(Segment(length_km=length, ramp=kind, ramp_measured=measured))
    return NetworkConfig(
        segments=tuple(segments),
        flow_sensor_segments=frozenset(sensors),
        time_step_h=time_step_h,
    )


def make_scenario(cfg, n_steps, rho0, speed, entry, ramp_flows=None):
    n = cfg.n_segments
    return Scenario(
        cfg=cfg,
        n_steps=n_steps,
        initial_density_veh_km=np.full(n, float(rho0)),
        speeds_kmh=np.full((n_steps, n), float(speed)),
        entry_flow_vph=np.full(n_steps, float(entry)),
        ramp_flows_vph=ramp_flows or {},
    )


def random_scenario(rng, n_max=8, k_max=60):
    n = int(rng.integers(2, n_max + 1))
    K = int(rng.integers(10, k_max))
    ramps = {}
    for seg in rng.permutation(np.arange(1, n + 1))[: int(rng.integers(0, 3))]:
        kind = RampType.ON if rng.random() < 0.6 else RampType.OFF
        ramps[int(seg)] = (kind, bool(rng.random() < 0.5))
    cfg = make_config(n, sensors=(n,), ramps=ramps, length=float(rng.uniform(0.3, 0.8)))
    speeds = rng.uniform(20.0, 0.95 * cfg.lengths_km.min() / cfg.time_step_h, size=(K, n))
    sc = Scenario(
        cfg=cfg,
        n_steps=K,
        initial_density_veh_km=rng.uniform(5.0, 50.0, size=n),
        speeds_kmh=speeds,
        entry_flow_vph=rng.uniform(500.0, 3500.0, size=K),
        ramp_flows_vph={seg: rng.uniform(0.0, 600.0, size=K) for seg in ramps},
    )
    return sc


@st.composite
def valid_scenarios(draw):
    """Scenarios on random rule-valid networks: mixed lengths, on- and off-ramps,
    measured or not, sensors at the exit and between unmeasured ramps."""
    n = draw(st.integers(2, 12))
    segments = []
    for _ in range(n):
        kind = draw(st.sampled_from([RampType.NONE, RampType.ON, RampType.OFF]))
        measured = kind is not RampType.NONE and draw(st.booleans())
        segments.append(Segment(length_km=draw(st.floats(0.1, 1.0)), ramp=kind, ramp_measured=measured))
    unmeasured = [i for i, seg in enumerate(segments, start=1) if seg.ramp is not RampType.NONE and not seg.ramp_measured]
    sensors = {n} | {draw(st.integers(a, b - 1)) for a, b in zip(unmeasured, unmeasured[1:])}
    cfg = NetworkConfig(
        segments=tuple(segments),
        flow_sensor_segments=frozenset(sensors),
        time_step_h=draw(st.sampled_from([5 / 3600, 10 / 3600])),
    )
    assert validate_network(cfg).ok
    K = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Speeds within the accuracy bound, stopped traffic included.
    speeds = rng.uniform(0.0, 0.99, size=(K, n)) * cfg.lengths_km / cfg.time_step_h
    speeds[rng.random((K, n)) < 0.1] = 0.0
    return Scenario(
        cfg=cfg,
        n_steps=K,
        initial_density_veh_km=rng.uniform(0.0, 150.0, size=n),
        speeds_kmh=speeds,
        entry_flow_vph=rng.uniform(0.0, 4000.0, size=K),
        ramp_flows_vph={seg: rng.uniform(0.0, 900.0, size=K) for seg in cfg.ramp_segments()},
    )


class TestScenarioValidation:
    def test_shape_checks(self):
        cfg = make_config()
        with pytest.raises(ValueError, match="initial density"):
            Scenario(cfg, 5, np.zeros(3), np.full((5, 2), 80.0), np.zeros(5))
        with pytest.raises(ValueError, match="speed table"):
            Scenario(cfg, 5, np.zeros(2), np.full((4, 2), 80.0), np.zeros(5))
        with pytest.raises(ValueError, match="entry flow"):
            Scenario(cfg, 5, np.zeros(2), np.full((5, 2), 80.0), np.zeros(4))

    def test_negative_values_rejected(self):
        cfg = make_config()
        with pytest.raises(ValueError, match="non-negative"):
            Scenario(cfg, 2, np.array([-1.0, 0.0]), np.full((2, 2), 80.0), np.zeros(2))

    def test_ramp_flow_needs_a_ramp_segment(self):
        cfg = make_config()
        with pytest.raises(ValueError, match="carries no ramp"):
            make_scenario(cfg, 3, 10.0, 80.0, 1000.0, ramp_flows={1: np.zeros(3)})

    def test_ramp_flow_magnitude_must_be_non_negative(self):
        cfg = make_config(ramps={2: (RampType.ON, False)})
        with pytest.raises(ValueError, match="non-negative"):
            make_scenario(cfg, 3, 10.0, 80.0, 1000.0, ramp_flows={2: np.full(3, -1.0)})

    def test_ramp_flow_series_length_checked(self):
        cfg = make_config(ramps={2: (RampType.ON, False)})
        with pytest.raises(ValueError, match="shape"):
            make_scenario(cfg, 3, 10.0, 80.0, 1000.0, ramp_flows={2: np.zeros(4)})


class TestSimulateTruth:
    def test_filling_an_empty_road(self):
        # One step of 2000 veh/h into an empty 0.5 km segment over 10 s
        # deposits (10/3600)/0.5 * 2000 = 11.11 veh/km.
        cfg = make_config()
        sc = make_scenario(cfg, 1, 0.0, 80.0, 2000.0)
        sim = simulate_truth(sc)
        assert sim.densities.shape == (2, 2)
        assert np.allclose(sim.densities[0], 0.0)
        assert sim.densities[1, 0] == pytest.approx(2000.0 * (10 / 3600) / 0.5)
        assert sim.densities[1, 1] == 0.0
        assert np.allclose(sim.segment_flows, 0.0)

    def test_uniform_flow_is_stationary(self):
        cfg = make_config(n=3, sensors=(3,))
        sc = make_scenario(cfg, 20, 20.0, 90.0, 1800.0)
        sim = simulate_truth(sc)
        assert np.allclose(sim.densities, 20.0)
        assert np.allclose(sim.segment_flows, 1800.0)
        assert np.allclose(sim.segment_flows[:, -1], 1800.0)

    def test_ramp_signs_with_frozen_traffic(self):
        # Zero speed stops all mainstream transport, isolating the ramps:
        # 360 veh/h for 10 s over 0.5 km moves density by exactly 2.
        ramps = {2: (RampType.ON, False), 3: (RampType.OFF, False)}
        cfg = make_config(n=3, sensors=(2, 3), ramps=ramps)
        sc = Scenario(
            cfg=cfg,
            n_steps=1,
            initial_density_veh_km=np.full(3, 30.0),
            speeds_kmh=np.zeros((1, 3)),
            entry_flow_vph=np.zeros(1),
            ramp_flows_vph={2: np.full(1, 360.0), 3: np.full(1, 360.0)},
        )
        sim = simulate_truth(sc)
        assert sim.densities[1, 0] == pytest.approx(30.0)
        assert sim.densities[1, 1] == pytest.approx(32.0)
        assert sim.densities[1, 2] == pytest.approx(28.0)

    def test_ramp_segments_without_series_flow_zero(self):
        cfg = make_config(ramps={2: (RampType.ON, False)})
        sc = make_scenario(cfg, 5, 20.0, 90.0, 1800.0)
        sim = simulate_truth(sc)
        assert np.allclose(sim.densities, 20.0)

    def test_vehicle_conservation_on_random_scenarios(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            sc = random_scenario(rng)
            sim = simulate_truth(sc)
            lengths = sc.cfg.lengths_km
            T = sc.cfg.time_step_h
            stored = float(np.sum(lengths * (sim.densities[-1] - sim.densities[0])))
            net_ramp = np.zeros(sc.n_steps)
            for seg, series in sc.ramp_flows_vph.items():
                sign = 1.0 if sc.cfg.segments[seg - 1].ramp is RampType.ON else -1.0
                net_ramp += sign * series
            through = float(T * np.sum(sc.entry_flow_vph - sim.segment_flows[:, -1] + net_ramp))
            scale = max(abs(stored), abs(through), 1.0)
            assert abs(stored - through) / scale < 1e-9

    @settings(max_examples=200)
    @given(valid_scenarios())
    def test_every_step_conserves_vehicles(self, sc):
        # Vehicles stored in the stretch change by what enters (entry flow,
        # on-ramps) minus what leaves (exit flow, off-ramps), step by step.
        sim = simulate_truth(sc)
        T, lengths = sc.cfg.time_step_h, sc.cfg.lengths_km
        on = sum(q for seg, q in sc.ramp_flows_vph.items() if sc.cfg.segments[seg - 1].ramp is RampType.ON)
        off = sum(q for seg, q in sc.ramp_flows_vph.items() if sc.cfg.segments[seg - 1].ramp is RampType.OFF)
        stored = sim.densities @ lengths
        change = np.diff(stored)
        exit_flow = sim.segment_flows[:, -1]
        through = T * (sc.entry_flow_vph - exit_flow + on - off)
        # Relative to the vehicles stored plus those moved in the step.
        gross = np.abs(sim.densities[:-1]) @ lengths + T * (sc.entry_flow_vph + np.abs(exit_flow) + on + off)
        assert np.all(np.abs(change - through) <= 1e-9 * np.maximum(gross, 1.0))

    def test_strict_cfl_raises_on_fast_scenarios(self):
        cfg = make_config(time_step_h=5 / 3600, length=0.05)
        sc = make_scenario(cfg, 3, 10.0, 40.0, 1000.0)
        with pytest.raises(CflViolationError, match="accuracy bound"):
            simulate_truth(sc, strict_cfl=True)
        sim = simulate_truth(sc, strict_cfl=False)
        assert sim.densities.shape == (4, 2)


class TestProbeEmulation:
    def scenario(self):
        cfg = make_config(n=3, sensors=(3,))
        return simulate_truth(make_scenario(cfg, 30, 25.0, 80.0, 2000.0))

    def test_full_penetration_reports_exact_speeds(self):
        sim = self.scenario()
        speeds = emulate_probe_speeds(sim, 1.0, np.random.default_rng(0))
        assert np.allclose(speeds, sim.speeds_kmh)

    def test_zero_penetration_reports_nothing(self):
        sim = self.scenario()
        speeds = emulate_probe_speeds(sim, 0.0, np.random.default_rng(0))
        assert np.isnan(speeds).all()

    def test_empty_segments_report_nothing_even_fully_connected(self):
        cfg = make_config()
        sim = simulate_truth(make_scenario(cfg, 3, 0.0, 80.0, 0.0))
        speeds = emulate_probe_speeds(sim, 1.0, np.random.default_rng(0))
        assert np.isnan(speeds).all()

    def test_partial_penetration_spreads_around_truth(self):
        sim = self.scenario()
        speeds = emulate_probe_speeds(sim, 0.3, np.random.default_rng(4), speed_spread_kmh=3.0)
        finite = np.isfinite(speeds)
        assert finite.any()
        # 25 veh/km over 0.5 km is about 12 vehicles; the finite-population
        # standard error stays below the full spread.
        assert np.abs(speeds[finite] - 80.0).max() < 6 * 3.0

    def test_same_seed_same_table(self):
        sim = self.scenario()
        a = emulate_probe_speeds(sim, 0.2, np.random.default_rng(9))
        b = emulate_probe_speeds(sim, 0.2, np.random.default_rng(9))
        assert np.array_equal(a, b, equal_nan=True)

    def test_invalid_penetration_raises(self):
        with pytest.raises(ValueError, match="penetration"):
            emulate_probe_speeds(self.scenario(), -0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("spread", [-3.0, math.nan, math.inf])
    def test_invalid_spread_raises(self, spread):
        with pytest.raises(ValueError, match="speed spread"):
            emulate_probe_speeds(self.scenario(), 0.5, np.random.default_rng(0), speed_spread_kmh=spread)

    def test_matches_a_per_cell_reference(self):
        # The draw order written out cell by cell: every binomial draw first,
        # then one standard normal per partially connected cell, row-major.
        sc = dataclasses.replace(self.scenario().scenario, initial_density_veh_km=np.array([0.0, 4.0, 25.0]))
        sim = simulate_truth(sc)
        p, spread = 0.3, 3.0
        got = emulate_probe_speeds(sim, p, np.random.default_rng(11), speed_spread_kmh=spread)

        rng = np.random.default_rng(11)
        counts = np.rint(np.maximum(sim.densities[: sc.n_steps] * sc.cfg.lengths_km, 0.0)).astype(int)
        connected = rng.binomial(counts, p)
        expected = np.full(counts.shape, np.nan)
        partial_cells = 0
        for k, i in np.ndindex(*counts.shape):
            m, total = int(connected[k, i]), int(counts[k, i])
            if m == 0:
                continue
            v = sim.speeds_kmh[k, i]
            if m < total:
                v = v + spread * math.sqrt(1.0 / m - 1.0 / total) * rng.standard_normal()
                partial_cells += 1
            expected[k, i] = v
        assert partial_cells > 0 and np.isnan(expected).any()
        assert np.array_equal(got, expected, equal_nan=True)


def _vehicle_counts(sim) -> np.ndarray:
    sc = sim.scenario
    return np.rint(np.maximum(sim.densities[: sc.n_steps] * sc.cfg.lengths_km, 0.0)).astype(int)


class TestProbeEmulationProperties:
    @settings(max_examples=60, deadline=None)
    @given(valid_scenarios(), st.floats(0.0, 1.0), st.floats(0.0, 20.0), st.integers(0, 2**32 - 1))
    def test_empty_cells_never_report(self, sc, p, spread, seed):
        sim = simulate_truth(sc)
        speeds = emulate_probe_speeds(sim, p, np.random.default_rng(seed), speed_spread_kmh=spread)
        assert np.isnan(speeds[_vehicle_counts(sim) == 0]).all()

    @settings(max_examples=40, deadline=None)
    @given(valid_scenarios(), st.floats(0.0, 20.0), st.integers(0, 2**32 - 1))
    def test_zero_penetration_reports_nothing(self, sc, spread, seed):
        speeds = emulate_probe_speeds(simulate_truth(sc), 0.0, np.random.default_rng(seed), speed_spread_kmh=spread)
        assert np.isnan(speeds).all()

    @settings(max_examples=40, deadline=None)
    @given(valid_scenarios(), st.floats(0.0, 20.0), st.integers(0, 2**32 - 1))
    def test_full_penetration_reports_the_true_speed(self, sc, spread, seed):
        sim = simulate_truth(sc)
        speeds = emulate_probe_speeds(sim, 1.0, np.random.default_rng(seed), speed_spread_kmh=spread)
        occupied = _vehicle_counts(sim) > 0
        assert np.array_equal(speeds[occupied], sim.speeds_kmh[occupied])
        assert np.isnan(speeds[~occupied]).all()

    @settings(max_examples=40, deadline=None)
    @given(valid_scenarios(), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_zero_spread_reports_the_true_speed(self, sc, p, seed):
        sim = simulate_truth(sc)
        speeds = emulate_probe_speeds(sim, p, np.random.default_rng(seed), speed_spread_kmh=0.0)
        finite = np.isfinite(speeds)
        assert np.array_equal(speeds[finite], sim.speeds_kmh[finite])

    @settings(max_examples=40, deadline=None)
    @given(valid_scenarios(), st.floats(0.0, 1.0), st.floats(0.0, 20.0), st.integers(0, 2**32 - 1))
    def test_same_generator_state_same_table(self, sc, p, spread, seed):
        sim = simulate_truth(sc)
        a = emulate_probe_speeds(sim, p, np.random.default_rng(seed), speed_spread_kmh=spread)
        b = emulate_probe_speeds(sim, p, np.random.default_rng(seed), speed_spread_kmh=spread)
        assert np.array_equal(a, b, equal_nan=True)


class TestSyntheticMeasurements:
    def scenario(self):
        cfg = make_config(n=3, sensors=(2, 3), ramps={2: (RampType.ON, True)})
        return simulate_truth(
            make_scenario(cfg, 25, 20.0, 90.0, 1800.0, ramp_flows={2: np.full(25, 300.0)})
        )

    def test_exact_path_copies_the_truth(self):
        sim = self.scenario()
        raw = synthetic_measurements(sim)
        assert np.array_equal(raw.speeds_kmh, sim.speeds_kmh)
        assert np.array_equal(raw.flows_vph[:, 0], sim.scenario.entry_flow_vph)
        assert np.isnan(raw.flows_vph[:, 1]).all()
        assert np.array_equal(raw.flows_vph[:, 2:], sim.segment_flows[:, 1:])
        assert np.array_equal(raw.ramp_flows_vph, np.tile([np.nan, 300.0, np.nan], (25, 1)), equal_nan=True)

    def test_a_value_cannot_write_into_an_array_it_shares(self):
        # The exact path adopts the truth's speed table, and two values built
        # from one array share it: a write through a value raises instead of
        # changing the other, while the owners' arrays stay writeable.
        sim = self.scenario()
        exact = synthetic_measurements(sim)
        flows = np.array(exact.flows_vph)
        first, second = Measurements(sim.speeds_kmh, flows), Measurements(sim.speeds_kmh, flows)
        assert np.shares_memory(exact.speeds_kmh, sim.speeds_kmh)
        assert np.shares_memory(first.flows_vph, second.flows_vph)
        for table in (exact.speeds_kmh, first.flows_vph):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = -1.0
        assert sim.speeds_kmh.flags.writeable and flows.flags.writeable
        assert np.array_equal(second.flows_vph, exact.flows_vph, equal_nan=True)

    def test_measured_ramps_absent_from_the_scenario_flow_zero(self):
        cfg = make_config(n=3, sensors=(3,), ramps={1: (RampType.OFF, True), 2: (RampType.ON, False)})
        raw = synthetic_measurements(simulate_truth(make_scenario(cfg, 5, 20.0, 90.0, 1800.0)))
        assert np.array_equal(raw.ramp_flows_vph, np.tile([0.0, np.nan, np.nan], (5, 1)), equal_nan=True)
        unmeasured = make_config(n=3, sensors=(3,), ramps={2: (RampType.ON, False)})
        raw = synthetic_measurements(simulate_truth(make_scenario(unmeasured, 5, 20.0, 90.0, 1800.0)))
        assert raw.ramp_flows_vph is None

    @settings(max_examples=30, deadline=None)
    @given(valid_scenarios(), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_flows_off_the_sensors_are_missing(self, sc, p, seed):
        meas = synthetic_measurements(simulate_truth(sc), np.random.default_rng(seed), penetration=p)
        off = [b for b in range(1, sc.cfg.n_segments + 1) if b not in sc.cfg.flow_sensor_segments]
        assert np.isnan(meas.flows_vph[:, off]).all()
        assert np.isfinite(meas.flows_vph[:, [0, *sc.cfg.flow_sensor_segments]]).all()
        measured = np.isin(np.arange(1, sc.cfg.n_segments + 1), sc.cfg.ramp_segments(measured=True))
        if measured.any():
            assert np.isfinite(meas.ramp_flows_vph[:, measured]).all()
            assert np.isnan(meas.ramp_flows_vph[:, ~measured]).all()
        else:
            assert meas.ramp_flows_vph is None

    def test_rng_required_when_randomness_requested(self):
        sim = self.scenario()
        with pytest.raises(ValueError, match="rng is required"):
            synthetic_measurements(sim, penetration=0.5)

    # Noise is added by ``add_measurement_noise`` to the clean measurements.

    def test_flow_noise_floors_ramp_magnitudes(self):
        sim = self.scenario()
        raw = add_measurement_noise(synthetic_measurements(sim), np.random.default_rng(3), flow_std_vph=5000.0)
        assert raw.ramp_flows_vph[:, 1].min() >= 0.0
        assert raw.flows_vph[:, 2:].min() < 0.0

    def test_clamp_floors_entry_and_sensor_flows(self):
        sim = self.scenario()
        raw = add_measurement_noise(
            synthetic_measurements(sim), np.random.default_rng(3), flow_std_vph=5000.0, clamp_nonnegative=True
        )
        assert raw.flows_vph[:, [0, 2, 3]].min() >= 0.0

    def test_same_seed_same_measurements(self):
        sim = self.scenario()

        def noisy(rng):
            return add_measurement_noise(synthetic_measurements(sim, rng, penetration=0.4), rng, flow_std_vph=50.0)

        a, b = noisy(np.random.default_rng(8)), noisy(np.random.default_rng(8))
        assert np.array_equal(a.speeds_kmh, b.speeds_kmh, equal_nan=True)
        assert np.array_equal(a.flows_vph, b.flows_vph, equal_nan=True)


class TestFrameAssembly:
    """Clean measurements, then noise, then ``cli._smoothed``: the path of every run."""

    def test_window_one_keeps_raw_speeds(self):
        # Segment 1 starts empty, so its step-0 cell reports nothing whatever
        # the draws: the raw speeds have a gap for window=1 to keep.
        sc = make_scenario(make_config(n=3, sensors=(3,)), 30, 20.0, 90.0, 1800.0)
        sim = simulate_truth(dataclasses.replace(sc, initial_density_veh_km=np.array([0.0, 20.0, 20.0])))
        rng = np.random.default_rng(4)
        raw = add_measurement_noise(synthetic_measurements(sim, rng, penetration=0.3), rng, flow_std_vph=20.0)
        meas = cli._smoothed(raw, 1)
        assert np.isnan(raw.speeds_kmh[0, 0])
        assert np.array_equal(meas.speeds_kmh, raw.speeds_kmh, equal_nan=True)
        assert np.array_equal(meas.flows_vph, raw.flows_vph, equal_nan=True)

    def test_windowed_frames_use_the_trailing_average(self):
        sim = simulate_truth(
            make_scenario(make_config(n=3, sensors=(3,)), 30, 20.0, 90.0, 1800.0)
        )
        raw = synthetic_measurements(sim, np.random.default_rng(5), penetration=0.3)
        meas = cli._smoothed(raw, 3)
        expected = moving_average_speed(raw.speeds_kmh, window=3)
        assert np.array_equal(meas.speeds_kmh, expected, equal_nan=True)
        assert np.array_equal(meas.flows_vph, raw.flows_vph, equal_nan=True)


class TestPresets:
    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="unknown preset"):
            make_congestion_scenario("rush_hour")
        with pytest.raises(ValueError, match="unknown preset"):
            preset_filter_defaults("rush_hour")

    def test_preset_names_are_buildable(self):
        for name in PRESET_NAMES:
            sc = make_congestion_scenario(name)
            assert sc.name == name
            assert validate_network(sc.cfg).ok

    def test_dense_stretch_shape_and_accuracy_bound(self):
        sc = make_congestion_scenario("ngsim_like", seed=0)
        assert sc.cfg.n_segments == 8
        assert sc.n_steps == 360
        assert sc.cfg.ramp_segments(measured=False) == (4,)
        report = check_cfl(sc.cfg, sc.speeds_kmh)
        assert report.ok
        assert report.max_ratio < 1.0

    def test_long_stretch_shape_and_recovery(self):
        sc = make_congestion_scenario("a20_like", seed=0)
        assert sc.cfg.n_segments == 31
        assert sc.n_steps == 1200
        assert len(sc.cfg.ramp_segments(measured=False)) == 5
        assert check_cfl(sc.cfg, sc.speeds_kmh).ok
        # The bottleneck dips into congestion and fully dissipates.
        assert 35.0 < sc.speeds_kmh.min() < 45.0
        assert np.allclose(sc.speeds_kmh[-1], 100.0)

    def test_long_stretch_densities_return_to_initial(self):
        for seed in (0, 1, 2):
            sc = make_congestion_scenario("a20_like", seed=seed)
            sim = simulate_truth(sc)
            dev = np.abs(sim.densities[-1] - sim.densities[0]) / sim.densities[0]
            assert dev.max() < 0.10

    def test_seed_moves_the_phases(self):
        a = make_congestion_scenario("ngsim_like", seed=0)
        b = make_congestion_scenario("ngsim_like", seed=1)
        assert not np.allclose(a.speeds_kmh, b.speeds_kmh)
        assert not np.allclose(a.entry_flow_vph, b.entry_flow_vph)

    def test_same_seed_is_reproducible(self):
        a = make_congestion_scenario("a20_like", seed=5)
        b = make_congestion_scenario("a20_like", seed=5)
        assert np.array_equal(a.speeds_kmh, b.speeds_kmh)
        assert np.array_equal(a.entry_flow_vph, b.entry_flow_vph)

    def test_filter_defaults_have_the_tuning_keys(self):
        for name in PRESET_NAMES:
            defaults = preset_filter_defaults(name)
            assert {"measurement_var", "initial_density", "initial_ramp_state"} <= set(defaults)


class TestTruthReconstruction:
    def test_exact_measurements_reconstruct_the_truth(self):
        # With exact speeds and flows and the true initial state, the
        # estimator tracks the simulated densities to within a few percent
        # on both presets.
        for name in PRESET_NAMES:
            sc = make_congestion_scenario(name, seed=0)
            sim = simulate_truth(sc)
            frames = synthetic_measurements(sim)
            idx = build_state_index(sc.cfg)
            lengths = sc.cfg.lengths_km
            # Each ramp state is its flow's per-step density contribution (T/delta) q.
            theta0 = [
                sc.cfg.time_step_h / lengths[seg - 1] * float(sc.ramp_flows_vph[seg][0])
                for seg in idx.theta_segments
            ]
            diag_q = np.concatenate(
                [np.ones(idx.n_segments), np.full(idx.n_theta, 0.01)]
            )
            tuning = FilterTuning(
                process_cov=np.diag(diag_q),
                measurement_cov=preset_filter_defaults(name)["measurement_var"]
                * np.eye(len(sc.cfg.flow_sensor_segments)),
                initial_mean=np.concatenate([sim.densities[0], theta0]),
                initial_cov=np.eye(idx.dim),
            )
            result = run_filter(sc.cfg, idx, tuning, frames)
            cv = cv_rho(result.densities, sim.densities, warmup=10)
            assert cv < 0.05, f"{name}: cv_rho {cv:.4f}"


def scenario_from_json(path):
    """The Scenario that ``save_scenario`` wrote to ``path``, read with ``json``."""
    raw = json.loads(path.read_text())
    return Scenario(
        cfg=NetworkConfig.from_dict(raw["network"]),
        n_steps=raw["n_steps"],
        initial_density_veh_km=raw["initial_density_veh_km"],
        speeds_kmh=raw["speeds_kmh"],
        entry_flow_vph=raw["entry_flow_vph"],
        ramp_flows_vph={int(seg): q for seg, q in raw["ramp_flows_vph"].items()},
        name=raw["name"],
    )


class TestScenarioIo:
    def test_round_trip(self, tmp_path):
        # scenario.json holds every input of the scenario, exactly.
        sc = make_congestion_scenario("ngsim_like", seed=3)
        path = tmp_path / "scenario.json"
        save_scenario(sc, path)
        loaded = scenario_from_json(path)
        assert loaded.cfg == sc.cfg
        assert loaded.n_steps == sc.n_steps
        assert loaded.name == sc.name
        assert np.array_equal(loaded.initial_density_veh_km, sc.initial_density_veh_km)
        assert np.array_equal(loaded.speeds_kmh, sc.speeds_kmh)
        assert np.array_equal(loaded.entry_flow_vph, sc.entry_flow_vph)
        assert set(loaded.ramp_flows_vph) == set(sc.ramp_flows_vph)
        for seg in sc.ramp_flows_vph:
            assert np.array_equal(loaded.ramp_flows_vph[seg], sc.ramp_flows_vph[seg])

    def test_round_trip_simulates_identically(self, tmp_path):
        sc = make_congestion_scenario("a20_like", seed=1)
        path = tmp_path / "scenario.json"
        save_scenario(sc, path)
        a = simulate_truth(sc)
        b = simulate_truth(scenario_from_json(path))
        assert np.array_equal(a.densities, b.densities)

    def test_bad_network_raises_network_format_error(self, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(make_congestion_scenario("ngsim_like", seed=0), path)
        payload = json.loads(path.read_text())
        payload["network"]["segments"][2]["ramp"] = "diagonal"
        with pytest.raises(InputError, match="segment 3: unknown ramp type"):
            NetworkConfig.from_dict(payload["network"])

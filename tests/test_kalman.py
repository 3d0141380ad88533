"""Tests for the predictor-form Kalman filter and the observability check."""

import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import random_observable_network

from trafficstate.kalman import (
    CflViolationError,
    FilterState,
    FilterTuning,
    SingularInnovationError,
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
from trafficstate.network import NetworkConfig, RampType, Segment
from trafficstate.sensing import Measurements


def make_config(n, sensors, ramps=None, time_step_h=10 / 3600, length=0.5):
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


def scalar_snapshot():
    return LtvSnapshot(
        A=np.array([[1.0]]),
        B=np.array([[0.0]]),
        u=np.array([0.0]),
        C=np.array([[1.0]]),
    )


def scalar_tuning(r=1.0, q=0.01):
    return FilterTuning(
        process_cov=np.array([[q]]),
        measurement_cov=np.array([[r]]),
        initial_mean=np.array([0.0]),
        initial_cov=np.array([[1.0]]),
    )


class TestFilterTuning:
    def test_asymmetric_process_cov_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            FilterTuning(
                process_cov=np.array([[1.0, 0.5], [0.0, 1.0]]),
                measurement_cov=np.eye(1),
                initial_mean=np.zeros(2),
                initial_cov=np.eye(2),
            )

    def test_indefinite_initial_cov_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            FilterTuning(
                process_cov=np.eye(2),
                measurement_cov=np.eye(1),
                initial_mean=np.zeros(2),
                initial_cov=np.diag([1.0, -1.0]),
            )

    def test_singular_measurement_cov_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            FilterTuning(
                process_cov=np.eye(1),
                measurement_cov=np.zeros((2, 2)),
                initial_mean=np.zeros(1),
                initial_cov=np.eye(1),
            )

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="2x2"):
            FilterTuning(
                process_cov=np.eye(3),
                measurement_cov=np.eye(1),
                initial_mean=np.zeros(2),
                initial_cov=np.eye(2),
            )

    def test_semidefinite_process_cov_accepted(self):
        tuning = FilterTuning(
            process_cov=np.zeros((2, 2)),
            measurement_cov=2.0 * np.eye(3),
            initial_mean=np.zeros(2),
            initial_cov=np.eye(2),
        )
        assert tuning.dim == 2
        assert tuning.n_measurements == 3


class TestDefaultTuning:
    def test_block_structure(self):
        cfg = make_config(3, sensors=(3,), ramps={2: (RampType.ON, False)})
        idx = build_state_index(cfg)
        tuning = default_tuning(idx, 2)
        assert np.allclose(np.diag(tuning.process_cov), [1.0, 1.0, 1.0, 0.01])
        assert np.allclose(tuning.measurement_cov, 10.0 * np.eye(2))
        assert np.allclose(tuning.initial_mean, [40.0, 40.0, 40.0, 40.0])
        assert np.allclose(tuning.initial_cov, np.eye(4))

    def test_separate_ramp_state_mean(self):
        cfg = make_config(3, sensors=(3,), ramps={2: (RampType.ON, False)})
        idx = build_state_index(cfg)
        tuning = default_tuning(idx, 1, initial_density=30.0, initial_ramp_state=0.5)
        assert np.allclose(tuning.initial_mean, [30.0, 30.0, 30.0, 0.5])


class TestKfStep:
    def test_scalar_hand_case(self):
        # P = 1, R = 1 gives gain 1/2; z = 2 from x_hat = 0 doubles through
        # A = 1 into the prediction 1; covariance (1 - 1/2) + 0.01 = 0.51.
        state = FilterState(x_hat=np.array([0.0]), cov=np.array([[1.0]]), k=0)
        nxt = kf_step(state, scalar_snapshot(), np.array([2.0]), scalar_tuning())
        assert nxt.x_hat[0] == pytest.approx(1.0)
        assert nxt.cov[0, 0] == pytest.approx(0.51)
        assert nxt.k == 1

    def test_matches_explicit_inverse_formulas(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            m = int(rng.integers(1, dim + 1))
            A = rng.normal(size=(dim, dim)) * 0.3 + np.eye(dim)
            B = rng.normal(size=(dim, 2))
            u = rng.normal(size=2)
            C = np.zeros((m, dim))
            C[np.arange(m), rng.choice(dim, size=m, replace=False)] = 1.0
            L = rng.normal(size=(dim, dim))
            P = L @ L.T + 0.1 * np.eye(dim)
            Q = np.diag(rng.uniform(0.01, 1.0, size=dim))
            R = np.diag(rng.uniform(0.5, 2.0, size=m))
            x = rng.normal(size=dim)
            z = rng.normal(size=m)
            tuning = FilterTuning(
                process_cov=Q, measurement_cov=R, initial_mean=x, initial_cov=P
            )
            snap = LtvSnapshot(A=A, B=B, u=u, C=C)
            got = kf_step(FilterState(x_hat=x, cov=P, k=3), snap, z, tuning)

            K_gain = P @ C.T @ np.linalg.inv(C @ P @ C.T + R)
            x_ref = A @ x + B @ u + A @ K_gain @ (z - C @ x)
            P_ref = A @ (np.eye(dim) - K_gain @ C) @ P @ A.T + Q
            assert np.allclose(got.x_hat, x_ref, atol=1e-11)
            assert np.allclose(got.cov, P_ref, atol=1e-11)
            assert got.k == 4

    def test_ill_conditioned_innovation_raises(self):
        # Two identical rows with near-zero noise make S numerically singular.
        snap = LtvSnapshot(
            A=np.eye(1),
            B=np.zeros((1, 1)),
            u=np.zeros(1),
            C=np.array([[1.0], [1.0]]),
        )
        tuning = FilterTuning(
            process_cov=np.eye(1),
            measurement_cov=1e-14 * np.eye(2),
            initial_mean=np.zeros(1),
            initial_cov=np.eye(1),
        )
        state = FilterState(x_hat=np.zeros(1), cov=np.eye(1), k=5)
        with pytest.raises(SingularInnovationError) as err:
            kf_step(state, snap, np.zeros(2), tuning)
        assert err.value.step == 5
        assert err.value.cond > 1e12


def fixed_point_frames(k_steps, entry=1800.0, speed=90.0, flow=1800.0):
    return Measurements(
        speeds_kmh=np.full((k_steps, 2), speed),
        entry_flow_vph=np.full(k_steps, entry),
        sensor_flows_vph={2: np.full(k_steps, flow)},
    )


def random_frames(rng, cfg, idx, n_steps, *, max_ratio=0.9, drop=0.2):
    """Random measurements; about ``drop`` of speeds, flows and entries are missing."""
    n = cfg.n_segments
    speeds = np.empty((n_steps, n))
    sensors = {s: np.full(n_steps, np.nan) for s in sorted(cfg.flow_sensor_segments)}
    ramps = {s: np.empty(n_steps) for s in idx.measured_ramp_segments}
    entry = np.full(n_steps, np.nan)
    for k in range(n_steps):
        v = rng.uniform(0.0, max_ratio, size=n) * cfg.lengths_km / cfg.time_step_h
        v[rng.random(n) < drop] = np.nan
        speeds[k] = v
        for s in sensors:
            if rng.random() >= drop:
                sensors[s][k] = rng.uniform(500.0, 3000.0)
        for s in ramps:
            ramps[s][k] = rng.uniform(0.0, 600.0)
        if rng.random() >= drop:
            entry[k] = rng.uniform(500.0, 4000.0)
    return Measurements(speeds, entry, sensors, ramps)


def with_measured_ramp(rng, cfg):
    """The network with one more ramp, measured, on a segment that has none."""
    free = [i for i, seg in enumerate(cfg.segments) if seg.ramp is RampType.NONE]
    i = int(rng.choice(free))
    kind = RampType.ON if rng.random() < 0.5 else RampType.OFF
    segments = list(cfg.segments)
    segments[i] = dataclasses.replace(segments[i], ramp=kind, ramp_measured=True)
    return dataclasses.replace(cfg, segments=tuple(segments))


class TestRunFilter:
    def test_matches_a_loop_of_dense_kf_steps(self):
        # The structured step equals kf_step on build_A/build_C snapshots fed
        # with what the run actually consumed, held values included.
        rng = np.random.default_rng(7)
        ramp_kinds = set()
        worst = 0.0
        for _ in range(20):
            cfg, _ = random_observable_network(rng)
            cfg = with_measured_ramp(rng, cfg)
            idx = build_state_index(cfg)
            ramp_kinds |= set(idx.theta_kinds)
            base = default_tuning(idx, len(cfg.flow_sensor_segments), initial_ramp_state=0.1)
            L = rng.normal(size=(idx.dim, idx.dim))
            tuning = dataclasses.replace(base, initial_cov=L @ L.T + np.eye(idx.dim))
            frames = random_frames(rng, cfg, idx, 60)
            result = run_filter(cfg, idx, tuning, frames)
            assert result.held_measurement_steps > 0

            B = build_B(idx, cfg.lengths_km, cfg.time_step_h)
            C = build_C(idx, result.sensor_segments)
            state = FilterState(x_hat=tuning.initial_mean, cov=tuning.initial_cov, k=0)
            entry = 0.0
            for k in range(frames.n_steps):
                if np.isfinite(frames.entry_flow_vph[k]):
                    entry = frames.entry_flow_vph[k]
                A = build_A(idx, cfg.lengths_km, cfg.time_step_h, result.speeds_used[k])
                ramps = {s: q[k] for s, q in frames.measured_ramp_flows_vph.items()}
                u = build_u(idx, entry, ramps)
                z = result.measurements_used[k]
                assert np.allclose(result.innovations[k], z - C @ state.x_hat, rtol=0, atol=1e-9)
                state = kf_step(state, LtvSnapshot(A=A, B=B, u=u, C=C), z, tuning)
                worst = max(worst, float(np.max(np.abs(result.states[k + 1] - state.x_hat))))
            worst = max(worst, float(np.max(np.abs(result.final.cov - state.cov))))
        assert ramp_kinds == {RampType.ON, RampType.OFF}
        assert worst <= 1e-9

    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_steps=st.integers(100, 400),
        max_ratio=st.floats(0.05, 0.99),
    )
    def test_covariance_stays_symmetric_psd(self, seed, n_steps, max_ratio):
        rng = np.random.default_rng(seed)
        cfg, _ = random_observable_network(rng)
        idx = build_state_index(cfg)
        tuning = default_tuning(idx, len(cfg.flow_sensor_segments))
        frames = random_frames(rng, cfg, idx, n_steps, max_ratio=max_ratio)
        P = run_filter(cfg, idx, tuning, frames).final.cov
        assert np.array_equal(P, P.T)
        eig = np.linalg.eigvalsh(P)
        assert eig[0] >= -1e-9 * eig[-1]

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_steps=st.integers(0, 30),
        drop=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
        v_floor=st.sampled_from([0.0, 2.0, 40.0]),
    )
    def test_gap_filling_matches_the_per_step_loop(self, seed, n_steps, drop, v_floor):
        # The per-step hold loop run_filter used before its columnar gap filling.
        rng = np.random.default_rng(seed)
        cfg, _ = random_observable_network(rng)
        idx = build_state_index(cfg)
        sensors = tuple(sorted(cfg.flow_sensor_segments))
        tuning = default_tuning(idx, len(sensors), initial_density=rng.uniform(10.0, 50.0))
        meas = random_frames(rng, cfg, idx, n_steps, drop=drop)
        result = run_filter(cfg, idx, tuning, meas, v_floor_kmh=v_floor, default_speed_kmh=55.0)

        speeds = np.zeros((n_steps, idx.n_segments))
        z_used = np.zeros((n_steps, len(sensors)))
        last_speed = np.full(idx.n_segments, np.nan)
        held_z = tuning.initial_mean[[j - 1 for j in sensors]]
        held_steps = held_entry_steps = 0
        for k in range(n_steps):
            v = meas.speeds_kmh[k]
            filled = np.where(~np.isfinite(v), last_speed, v)
            filled[~np.isfinite(filled)] = 55.0
            last_speed = speeds[k] = filled
            held_entry_steps += not np.isfinite(meas.entry_flow_vph[k])
            z = held_z.copy()
            held_any = False
            for row, seg in enumerate(sensors):
                q = meas.sensor_flows_vph[seg][k]
                if not np.isfinite(q) or filled[seg - 1] <= v_floor:
                    held_any = True
                    continue
                z[row] = q / filled[seg - 1]
            held_steps += held_any
            held_z = z_used[k] = z
        assert result.speeds_used.tobytes() == speeds.tobytes()
        assert result.measurements_used.tobytes() == z_used.tobytes()
        assert result.held_measurement_steps == held_steps
        assert result.held_entry_steps == held_entry_steps

    def test_ill_conditioned_innovation_reports_the_step(self):
        cfg = make_config(3, sensors=(1, 3))
        idx = build_state_index(cfg)
        cov = np.eye(3)
        cov[0, 0] = 1e15
        tuning = dataclasses.replace(default_tuning(idx, 2), initial_cov=cov)
        with pytest.raises(SingularInnovationError) as err:
            run_filter(cfg, idx, tuning, random_frames(np.random.default_rng(0), cfg, idx, 3))
        assert err.value.step == 0
        assert err.value.cond > 1e12

    def test_uniform_flow_is_reproduced_exactly(self):
        # Density 20 at speed 90 carries the entry flow through unchanged;
        # starting on the fixed point, every innovation is zero.
        cfg = make_config(2, sensors=(2,))
        idx = build_state_index(cfg)
        tuning = FilterTuning(
            process_cov=np.eye(2),
            measurement_cov=10.0 * np.eye(1),
            initial_mean=np.full(2, 20.0),
            initial_cov=np.eye(2),
        )
        result = run_filter(cfg, idx, tuning, fixed_point_frames(10))
        assert result.states.shape == (11, 2)
        assert np.allclose(result.states, 20.0)
        assert np.allclose(result.innovations, 0.0)
        assert np.allclose(result.measurements_used, 20.0)
        assert result.held_measurement_steps == 0
        assert result.cfl.ok
        assert result.final.k == 10

    def test_first_row_is_the_initial_mean(self):
        cfg = make_config(2, sensors=(2,))
        idx = build_state_index(cfg)
        tuning = default_tuning(build_state_index(cfg), 1, initial_density=33.0)
        result = run_filter(cfg, idx, tuning, fixed_point_frames(3))
        assert np.allclose(result.states[0], 33.0)

    def test_sensors_default_to_every_declared_sensor(self):
        cfg = make_config(3, sensors=(1, 3))
        idx = build_state_index(cfg)
        tuning = default_tuning(idx, 2)
        frames = Measurements(
            speeds_kmh=np.full((1, 3), 90.0),
            entry_flow_vph=[1800.0],
            sensor_flows_vph={1: [1800.0], 3: [1800.0]},
        )
        result = run_filter(cfg, idx, tuning, frames)
        assert result.sensor_segments == (1, 3)
        assert result.measurements_used.shape == (1, 2)

    def test_missing_speed_holds_last_then_default(self):
        cfg = make_config(2, sensors=(2,))
        idx = build_state_index(cfg)
        tuning = default_tuning(idx, 1)
        frames = Measurements(
            speeds_kmh=np.array([[np.nan, 90.0], [80.0, np.nan]]),
            entry_flow_vph=[1800.0, 1800.0],
            sensor_flows_vph={2: [1800.0, 1800.0]},
        )
        result = run_filter(cfg, idx, tuning, frames, default_speed_kmh=100.0)
        assert np.allclose(result.speeds_used[0], [100.0, 90.0])
        assert np.allclose(result.speeds_used[1], [80.0, 90.0])

    def test_missing_flow_holds_previous_reading(self):
        cfg = make_config(2, sensors=(2,))
        idx = build_state_index(cfg)
        tuning = FilterTuning(
            process_cov=np.eye(2),
            measurement_cov=10.0 * np.eye(1),
            initial_mean=np.array([20.0, 25.0]),
            initial_cov=np.eye(2),
        )
        frames = Measurements(
            speeds_kmh=np.full((3, 2), 90.0),
            entry_flow_vph=np.full(3, 1800.0),
            sensor_flows_vph={2: [np.nan, 2700.0, np.nan]},
        )
        result = run_filter(cfg, idx, tuning, frames)
        # Seeded from the initial mean, then the real reading, then held.
        assert result.measurements_used[0, 0] == pytest.approx(25.0)
        assert result.measurements_used[1, 0] == pytest.approx(30.0)
        assert result.measurements_used[2, 0] == pytest.approx(30.0)
        assert result.held_measurement_steps == 2

    def test_speed_floor_holds_the_density_reading(self):
        cfg = make_config(2, sensors=(2,))
        idx = build_state_index(cfg)
        tuning = FilterTuning(
            process_cov=np.eye(2),
            measurement_cov=10.0 * np.eye(1),
            initial_mean=np.array([20.0, 25.0]),
            initial_cov=np.eye(2),
        )
        frames = Measurements(
            speeds_kmh=np.array([[90.0, 1.5]]),
            entry_flow_vph=[1800.0],
            sensor_flows_vph={2: [2700.0]},
        )
        result = run_filter(cfg, idx, tuning, frames, v_floor_kmh=2.0)
        assert result.measurements_used[0, 0] == pytest.approx(25.0)
        assert result.held_measurement_steps == 1

    def test_missing_entry_flow_holds_zero_initially(self):
        cfg = make_config(2, sensors=(2,))
        idx = build_state_index(cfg)
        tuning = FilterTuning(
            process_cov=np.zeros((2, 2)),
            measurement_cov=np.eye(1),
            initial_mean=np.zeros(2),
            initial_cov=np.zeros((2, 2)),
        )
        frames = Measurements(speeds_kmh=np.full((3, 2), 90.0), entry_flow_vph=np.full(3, np.nan))
        result = run_filter(cfg, idx, tuning, frames)
        # No inflow ever arrives, so the empty-road estimate stays empty.
        assert np.allclose(result.states, 0.0)

    def test_missing_entry_flows_are_counted_and_logged_once(self, caplog):
        cfg = make_config(2, sensors=(2,))
        idx = build_state_index(cfg)
        entry = np.full(5, 1800.0)
        entry[[0, 2, 3]] = np.nan
        frames = dataclasses.replace(fixed_point_frames(5), entry_flow_vph=entry)
        with caplog.at_level(logging.WARNING, logger="trafficstate.kalman"):
            result = run_filter(cfg, idx, default_tuning(idx, 1), frames)
        assert result.held_entry_steps == 3
        warnings = [r.getMessage() for r in caplog.records if "entry flow" in r.getMessage()]
        assert warnings == ["entry flow missing at 3 of 5 steps; held the previous value"]

    def test_strict_cfl_raises(self):
        cfg = make_config(2, sensors=(2,), time_step_h=5 / 3600, length=0.05)
        idx = build_state_index(cfg)
        tuning = default_tuning(idx, 1)
        frames = Measurements(
            speeds_kmh=np.full((1, 2), 40.0),
            entry_flow_vph=[1000.0],
            sensor_flows_vph={2: [1000.0]},
        )
        with pytest.raises(CflViolationError, match="max ratio"):
            run_filter(cfg, idx, tuning, frames, strict_cfl=True)
        relaxed = run_filter(cfg, idx, tuning, frames, strict_cfl=False)
        assert not relaxed.cfl.ok
        assert relaxed.cfl.max_ratio == pytest.approx(40.0 * (5 / 3600) / 0.05)

    def test_clamp_floors_published_densities_only(self):
        cfg = make_config(2, sensors=(2,), ramps={2: (RampType.OFF, False)})
        idx = build_state_index(cfg)
        tuning = FilterTuning(
            process_cov=np.zeros((3, 3)),
            measurement_cov=np.eye(1),
            initial_mean=np.array([-5.0, -5.0, 0.2]),
            initial_cov=np.zeros((3, 3)),
        )
        frames = Measurements(speeds_kmh=np.full((4, 2), 50.0), entry_flow_vph=np.zeros(4))
        clamped = run_filter(cfg, idx, tuning, frames, clamp_nonnegative=True)
        raw = run_filter(cfg, idx, tuning, frames, clamp_nonnegative=False)
        assert np.all(clamped.densities >= 0.0)
        assert raw.densities.min() < 0.0
        # The ramp state column is left untouched by the clamp.
        assert np.allclose(clamped.states[:, 2], raw.states[:, 2])

    def test_mismatched_tuning_sizes_raise(self):
        cfg = make_config(3, sensors=(3,))
        idx = build_state_index(cfg)
        empty = Measurements(speeds_kmh=np.zeros((0, 3)), entry_flow_vph=np.zeros(0))
        with pytest.raises(ValueError, match="dim"):
            run_filter(cfg, idx, default_tuning(build_state_index(make_config(2, (2,))), 1), empty)
        with pytest.raises(ValueError, match="sensors are in use"):
            run_filter(cfg, idx, default_tuning(idx, 2), empty)

    def test_wrong_frame_speed_shape_raises(self):
        cfg = make_config(3, sensors=(3,))
        idx = build_state_index(cfg)
        frames = Measurements(
            speeds_kmh=np.full((1, 2), 80.0),
            entry_flow_vph=[1000.0],
            sensor_flows_vph={3: [900.0]},
        )
        with pytest.raises(ValueError, match="expected 3 segment speeds"):
            run_filter(cfg, idx, default_tuning(idx, 1), frames)

    def test_ramp_flows_rescale_the_extra_state(self):
        cfg = make_config(3, sensors=(1, 3), ramps={2: (RampType.ON, False)})
        idx = build_state_index(cfg)
        tuning = default_tuning(idx, 2, initial_density=20.0, initial_ramp_state=0.5)
        empty = Measurements(speeds_kmh=np.zeros((0, 3)), entry_flow_vph=np.zeros(0))
        result = run_filter(cfg, idx, tuning, empty)
        flows = result.ramp_flows(cfg.lengths_km, cfg.time_step_h)
        assert flows.shape == (1, 1)
        assert flows[0, 0] == pytest.approx(0.5 * 0.5 / (10 / 3600))


class TestObservabilityGramian:
    def placement_case(self):
        segs = (
            Segment(0.5),
            Segment(0.5, ramp=RampType.ON),
            Segment(0.5, ramp=RampType.OFF),
            Segment(0.5),
        )
        cfg = NetworkConfig(
            segments=segs, flow_sensor_segments=frozenset({2, 4}), time_step_h=10 / 3600
        )
        idx = build_state_index(cfg)
        A = build_A(idx, cfg.lengths_km, cfg.time_step_h, np.full(4, 60.0))
        return cfg, idx, A

    def test_single_term_gramian_is_ctc(self):
        C = np.array([[1.0, 0.0], [0.0, 2.0]])
        G, rank = observability_gramian([], C)
        assert np.allclose(G, C.T @ C)
        assert rank == 2

    def test_valid_placement_reaches_full_rank(self):
        cfg, idx, A = self.placement_case()
        C = build_C(idx, [2, 4])
        window = 2 * idx.dim + 5
        _, rank = observability_gramian([A] * (window - 1), C)
        assert rank == idx.dim == 6

    def test_dropping_the_gap_sensor_loses_rank(self):
        cfg, idx, A = self.placement_case()
        window = 2 * idx.dim + 5
        _, rank_exit_only = observability_gramian([A] * (window - 1), build_C(idx, [4]))
        assert rank_exit_only < idx.dim

    def test_identity_output_is_always_full_rank(self):
        _, idx, A = self.placement_case()
        window = 2 * idx.dim + 5
        _, rank = observability_gramian([A] * (window - 1), np.eye(idx.dim))
        assert rank == idx.dim

    def test_gramian_is_symmetric_psd(self):
        _, idx, A = self.placement_case()
        G, _ = observability_gramian([A] * 7, build_C(idx, [2, 4]))
        assert np.allclose(G, G.T)
        assert np.linalg.eigvalsh(G).min() >= -1e-10

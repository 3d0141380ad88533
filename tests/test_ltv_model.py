"""Tests for the time-varying density model builders."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficstate import ltv_model
from trafficstate.kalman import default_tuning, run_filter
from trafficstate.ltv_model import (
    build_A,
    build_B,
    build_C,
    build_state_index,
    build_u,
)
from trafficstate.ltv_model import _A_step, _apply_A_into, _coefficients
from trafficstate.network import NetworkConfig, RampType, Segment
from trafficstate.sensing import Measurements


def make_config(n, sensors, ramps=None, time_step_h=10 / 3600, lengths=None):
    ramps = ramps or {}
    lengths = lengths if lengths is not None else [0.5] * n
    segments = []
    for i in range(1, n + 1):
        kind, measured = ramps.get(i, (RampType.NONE, False))
        segments.append(Segment(length_km=lengths[i - 1], ramp=kind, ramp_measured=measured))
    return NetworkConfig(
        segments=tuple(segments),
        flow_sensor_segments=frozenset(sensors),
        time_step_h=time_step_h,
    )


def random_index(rng, n_max=8):
    n = int(rng.integers(2, n_max + 1))
    ramps = {}
    for seg in rng.permutation(np.arange(1, n + 1))[: int(rng.integers(0, min(3, n) + 1))]:
        kind = RampType.ON if rng.random() < 0.5 else RampType.OFF
        ramps[int(seg)] = (kind, bool(rng.random() < 0.5))
    cfg = make_config(
        n,
        sensors=(n,),
        ramps=ramps,
        lengths=rng.uniform(0.3, 0.8, size=n).tolist(),
    )
    return cfg, build_state_index(cfg)


class TestStateIndex:
    def test_layout_counts_and_ordering(self):
        ramps = {
            2: (RampType.ON, False),
            3: (RampType.OFF, True),
            5: (RampType.OFF, False),
        }
        cfg = make_config(6, sensors=(3, 6), ramps=ramps)
        idx = build_state_index(cfg)
        assert idx.n_segments == 6
        assert idx.theta_segments == (2, 5)
        assert idx.theta_kinds == (RampType.ON, RampType.OFF)
        assert idx.measured_ramp_segments == (3,)
        assert idx.measured_ramp_kinds == (RampType.OFF,)
        assert idx.n_theta == 2
        assert idx.dim == 8
        assert idx.n_inputs == 2

    def test_plain_network_has_no_extra_states(self):
        idx = build_state_index(make_config(3, sensors=(3,)))
        assert idx.dim == 3
        assert idx.n_inputs == 1
        assert idx.theta_segments == ()


class TestBuildA:
    def test_two_segment_values(self):
        cfg = make_config(2, sensors=(2,), lengths=[0.5, 0.5])
        idx = build_state_index(cfg)
        A = build_A(idx, cfg.lengths_km, cfg.time_step_h, [100.0, 90.0])
        # c = (10/3600)/0.5 = 1/180 per segment.
        assert A.shape == (2, 2)
        assert A[0, 0] == pytest.approx(1.0 - 100.0 / 180.0)
        assert A[1, 1] == pytest.approx(0.5)
        assert A[1, 0] == pytest.approx(100.0 / 180.0)
        assert A[0, 1] == 0.0

    def test_ramp_state_columns_carry_signed_units(self):
        ramps = {2: (RampType.ON, False), 3: (RampType.OFF, False)}
        cfg = make_config(3, sensors=(2, 3), ramps=ramps)
        idx = build_state_index(cfg)
        A = build_A(idx, cfg.lengths_km, cfg.time_step_h, [80.0, 80.0, 80.0])
        assert A.shape == (5, 5)
        assert A[1, 3] == 1.0
        assert A[2, 4] == -1.0
        assert A[3, 3] == 1.0 and A[4, 4] == 1.0
        assert A[3, :3].sum() == 0.0 and A[4, :3].sum() == 0.0

    def test_measured_ramps_do_not_appear_in_A(self):
        cfg = make_config(3, sensors=(3,), ramps={2: (RampType.ON, True)})
        idx = build_state_index(cfg)
        A = build_A(idx, cfg.lengths_km, cfg.time_step_h, [80.0, 80.0, 80.0])
        assert A.shape == (3, 3)

    def test_wrong_speed_count_raises(self):
        cfg = make_config(3, sensors=(3,))
        idx = build_state_index(cfg)
        with pytest.raises(ValueError):
            build_A(idx, cfg.lengths_km, cfg.time_step_h, [80.0, 80.0])

    def test_apply_equals_the_dense_product(self):
        ramps = {2: (RampType.ON, False), 3: (RampType.OFF, True), 4: (RampType.OFF, False)}
        cfg = make_config(5, sensors=(3, 5), ramps=ramps)
        idx = build_state_index(cfg)
        rng = np.random.default_rng(3)
        v = rng.uniform(20.0, 120.0, size=5)
        A = build_A(idx, cfg.lengths_km, cfg.time_step_h, v)
        # A row-major matrix and a transposed view, as the filter passes both.
        for M in (rng.normal(size=(idx.dim, idx.dim + 1)), rng.normal(size=(idx.dim, idx.dim)).T):
            got = _apply_A_into(idx, *_coefficients(cfg.time_step_h / cfg.lengths_km, v), M, np.empty(M.shape))
            assert np.allclose(got, A @ M, rtol=0, atol=1e-12)

    def test_apply_broadcasts_over_a_run_axis(self):
        # One speed row and one matrix per run: each product is that run's A M.
        ramps = {2: (RampType.ON, False), 3: (RampType.OFF, True), 4: (RampType.OFF, False)}
        cfg = make_config(5, sensors=(3, 5), ramps=ramps)
        idx = build_state_index(cfg)
        rng = np.random.default_rng(4)
        v = rng.uniform(20.0, 120.0, size=(3, 5))
        M = rng.normal(size=(3, idx.dim, idx.dim + 1))
        got = _apply_A_into(idx, *_coefficients(cfg.time_step_h / cfg.lengths_km, v), M, np.empty(M.shape))
        assert got.shape == M.shape
        for r in range(3):
            A = build_A(idx, cfg.lengths_km, cfg.time_step_h, v[r])
            assert np.allclose(got[r], A @ M[r], rtol=0, atol=1e-12)


@st.composite
def ramp_networks(draw):
    """A network of 1..8 segments, each carrying no ramp, an on-ramp or an off-ramp, measured or not."""
    n = draw(st.integers(1, 8))
    ramps = {
        seg: (kind, draw(st.booleans()))
        for seg in range(1, n + 1)
        if (kind := draw(st.sampled_from(list(RampType)))) is not RampType.NONE
    }
    lengths = draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n))
    return make_config(n, sensors=(n,), ramps=ramps, lengths=lengths)


class TestAStep:
    @pytest.mark.parametrize("dense_max_dim", [0, 10**9], ids=["row-passes", "dense-A"])
    @settings(max_examples=40)
    @given(cfg=ramp_networks(), n_runs=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_each_path_matches_build_A(self, dense_max_dim, cfg, n_runs, seed):
        # Two steps of one step function, on a batch of symmetric X: A [X | x]
        # and A (A X)^T, which is A X A^T, per run.
        idx = build_state_index(cfg)
        d = idx.dim
        rng = np.random.default_rng(seed)
        # Hypothesis refuses the function-scoped monkeypatch fixture.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ltv_model, "DENSE_A_MAX_DIM", dense_max_dim)
            step = _A_step(idx, cfg.lengths_km, cfg.time_step_h, n_runs)
        for _ in range(2):
            v = rng.uniform(0.0, 150.0, size=(n_runs, idx.n_segments))
            L = rng.normal(size=(n_runs, d, d))
            X = L + L.swapaxes(-1, -2)
            M = np.concatenate([X, rng.normal(size=(n_runs, d, 1))], axis=2)
            AM, APA = np.empty_like(M), np.empty_like(X)
            step(v, M, AM, APA)
            for r in range(n_runs):
                A = build_A(idx, cfg.lengths_km, cfg.time_step_h, v[r])
                assert np.allclose(AM[r], A @ M[r], rtol=0, atol=1e-12)
                assert np.allclose(APA[r], A @ (A @ X[r]).T, rtol=0, atol=1e-12)


class TestBuildBAndU:
    def test_entry_and_measured_ramp_columns(self):
        cfg = make_config(
            2, sensors=(2,), ramps={2: (RampType.ON, True)}, lengths=[0.5, 0.4]
        )
        idx = build_state_index(cfg)
        B = build_B(idx, cfg.lengths_km, cfg.time_step_h)
        assert B.shape == (2, 2)
        assert B[0, 0] == pytest.approx((10 / 3600) / 0.5)
        assert B[1, 1] == pytest.approx((10 / 3600) / 0.4)
        assert B[0, 1] == 0.0 and B[1, 0] == 0.0

    def test_u_applies_off_ramp_sign(self):
        ramps = {2: (RampType.ON, True), 3: (RampType.OFF, True)}
        cfg = make_config(3, sensors=(3,), ramps=ramps)
        idx = build_state_index(cfg)
        u = build_u(idx, 3600.0, [np.nan, 600.0, 400.0])
        assert np.allclose(u, [3600.0, 600.0, -400.0])

    def test_u_defaults_absent_ramps_to_zero(self):
        cfg = make_config(3, sensors=(3,), ramps={2: (RampType.ON, True)})
        idx = build_state_index(cfg)
        assert np.allclose(build_u(idx, 1200.0), [1200.0, 0.0])

    def test_u_rejects_negative_magnitude(self):
        cfg = make_config(2, sensors=(2,), ramps={2: (RampType.ON, True)})
        idx = build_state_index(cfg)
        with pytest.raises(ValueError, match="non-negative"):
            build_u(idx, 1000.0, [np.nan, -5.0])

    def test_u_broadcasts_over_a_step_axis(self):
        ramps = {2: (RampType.ON, True), 3: (RampType.OFF, True)}
        idx = build_state_index(make_config(4, sensors=(4,), ramps=ramps))
        entry = np.array([3600.0, 1200.0, np.nan])
        table = np.full((3, 4), np.nan)
        table[:, 1] = [600.0, 0.0, 50.0]
        table[:, 2] = [400.0, 10.0, np.nan]
        u = build_u(idx, entry, table)
        assert u.shape == (3, 3)
        for k in range(3):
            assert np.array_equal(u[k], build_u(idx, entry[k], table[k]), equal_nan=True)
        table[:, 2] = [1.0, -2.0, -1.0]
        with pytest.raises(ValueError, match="segment 3 must be non-negative, got -2.0"):
            build_u(idx, entry, table)

    def test_u_reads_only_the_measured_columns(self):
        # Segment 1 has no ramp and segment 3's is not measured: their
        # columns are never read, whatever they hold.
        ramps = {2: (RampType.ON, True), 3: (RampType.OFF, False)}
        idx = build_state_index(make_config(3, sensors=(3,), ramps=ramps))
        assert np.array_equal(build_u(idx, 1000.0, [-7.0, 250.0, np.nan]), [1000.0, 250.0])
        with pytest.raises(ValueError, match=r"ramp table must have shape \(3,\), got \(2,\)"):
            build_u(idx, 1000.0, [0.0, 250.0])


class TestBuildC:
    def test_unit_rows_in_ascending_segment_order(self):
        cfg = make_config(4, sensors=(4,), ramps={2: (RampType.ON, False)})
        idx = build_state_index(cfg)
        C = build_C(idx, [3, 1])
        assert C.shape == (2, 5)
        expected = np.zeros((2, 5))
        expected[0, 0] = 1.0
        expected[1, 2] = 1.0
        assert np.array_equal(C, expected)

    def test_duplicates_collapse(self):
        idx = build_state_index(make_config(3, sensors=(3,)))
        assert build_C(idx, [2, 2, 3]).shape == (2, 3)

    def test_empty_sensor_set_raises(self):
        idx = build_state_index(make_config(3, sensors=(3,)))
        with pytest.raises(ValueError, match="at least one sensor"):
            build_C(idx, [])

    def test_out_of_range_sensor_raises(self):
        idx = build_state_index(make_config(3, sensors=(3,)))
        with pytest.raises(ValueError, match="outside"):
            build_C(idx, [4])


def step(idx, cfg, x, speeds, entry, measured=None):
    """One step of the model dynamics, x+ = A x + B u."""
    A = build_A(idx, cfg.lengths_km, cfg.time_step_h, speeds)
    B = build_B(idx, cfg.lengths_km, cfg.time_step_h)
    return A @ x + B @ build_u(idx, entry, measured)


def ramp_flows_of(cfg, idx, x):
    """Ramp flows (veh/h) of state x, as FilterResult.ramp_flows reports them."""
    tuning = dataclasses.replace(default_tuning(idx, len(cfg.flow_sensor_segments)), initial_mean=x)
    empty = Measurements(np.zeros((0, idx.n_segments)), np.zeros((0, idx.n_segments + 1)))
    result = run_filter(cfg, idx, tuning, empty)
    return dict(zip(idx.theta_segments, result.ramp_flows(cfg.lengths_km, cfg.time_step_h)[0]))


class TestDynamics:
    def test_single_step_conservation_hand_case(self):
        # Empty road, entry 2000 veh/h, T = 10 s, delta = 0.5 km:
        # the first segment gains (T/delta) * 2000 = 11.111... veh/km.
        cfg = make_config(2, sensors=(2,))
        idx = build_state_index(cfg)
        x1 = step(idx, cfg, np.zeros(2), [80.0, 80.0], 2000.0)
        assert x1[0] == pytest.approx(2000.0 * (10 / 3600) / 0.5)
        assert x1[1] == 0.0

    def test_uniform_flow_is_a_fixed_point(self):
        # rho * v constant along the stretch and matching the entry flow
        # leaves every density unchanged.
        cfg = make_config(3, sensors=(3,))
        idx = build_state_index(cfg)
        v = np.array([90.0, 90.0, 90.0])
        rho = np.full(3, 20.0)
        assert np.allclose(step(idx, cfg, rho, v, 1800.0), rho)

    def test_vehicle_count_is_conserved_on_random_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            cfg, idx = random_index(rng)
            n = idx.n_segments
            lengths = cfg.lengths_km
            T = cfg.time_step_h
            speeds = rng.uniform(0.2, 0.9) * lengths / T
            x = np.concatenate(
                [rng.uniform(5.0, 60.0, size=n), rng.uniform(0.0, 0.5, size=idx.n_theta)]
            )
            measured = np.full(n, np.nan)
            for seg in idx.measured_ramp_segments:
                measured[seg - 1] = rng.uniform(0.0, 800.0)
            entry = float(rng.uniform(500.0, 4000.0))
            x1 = step(idx, cfg, x, speeds, entry, measured)

            gained = float(np.sum(lengths * (x1[:n] - x[:n])))
            signed_measured = sum(
                (1.0 if kind is RampType.ON else -1.0) * measured[seg - 1]
                for seg, kind in zip(idx.measured_ramp_segments, idx.measured_ramp_kinds)
            )
            theta_flows = ramp_flows_of(cfg, idx, x)
            signed_theta = sum(
                (1.0 if kind is RampType.ON else -1.0) * theta_flows[seg]
                for seg, kind in zip(idx.theta_segments, idx.theta_kinds)
            )
            exit_flow = x[n - 1] * speeds[n - 1]
            expected = T * (entry - exit_flow + signed_measured + signed_theta)
            assert gained == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_ramp_states_are_constant_under_dynamics(self):
        ramps = {2: (RampType.ON, False)}
        cfg = make_config(3, sensors=(2, 3), ramps=ramps)
        idx = build_state_index(cfg)
        x = np.array([10.0, 12.0, 14.0, 0.4])
        x1 = step(idx, cfg, x, [70.0, 70.0, 70.0], 1500.0)
        assert x1[3] == 0.4
        # The on-ramp state feeds its segment one unit per step.
        assert x1[1] == pytest.approx(
            x[1] + (10 / 3600) / 0.5 * (x[0] * 70.0 - x[1] * 70.0) + 0.4
        )


class TestConversions:
    def test_ramp_state_round_trip(self):
        # A ramp state is its flow's per-step density contribution (T/delta) q.
        theta = (10 / 3600) / 0.4 * 720.0
        ramps = {3: (RampType.ON, False)}
        cfg = make_config(4, sensors=(4,), ramps=ramps, lengths=[0.5, 0.5, 0.4, 0.5])
        idx = build_state_index(cfg)
        x = np.zeros(idx.dim)
        x[4] = theta  # the one ramp state follows the four densities
        assert ramp_flows_of(cfg, idx, x) == {3: pytest.approx(720.0)}

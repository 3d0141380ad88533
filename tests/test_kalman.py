"""Tests for the predictor-form Kalman filter and the observability check."""

import dataclasses
import logging
import weakref

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import random_observable_network

from trafficstate import kalman, ltv_model
from trafficstate.kalman import (
    FilterState,
    FilterTuning,
    SingularInnovationError,
    default_tuning,
    kf_step,
    observability_gramian,
    run_filter,
    run_filter_batch,
)
from trafficstate.ltv_model import (
    LtvSnapshot,
    build_A,
    build_B,
    build_C,
    build_state_index,
    build_u,
)
from trafficstate.network import CflViolationError, NetworkConfig, RampType, Segment, validate_network
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

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("field", ["process_cov", "measurement_cov", "initial_mean", "initial_cov"])
    def test_non_finite_field_rejected_first(self, field, value):
        # R is singular, so a later check would fail too: the finite check
        # must come first and name the field.
        fields = dict(
            process_cov=np.eye(2),
            measurement_cov=np.zeros((1, 1)),
            initial_mean=np.zeros(2),
            initial_cov=np.eye(2),
        )
        fields[field] = fields[field].copy()
        fields[field].flat[0] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            FilterTuning(**fields)

    def test_semidefinite_process_cov_accepted(self):
        tuning = FilterTuning(
            process_cov=np.zeros((2, 2)),
            measurement_cov=2.0 * np.eye(3),
            initial_mean=np.zeros(2),
            initial_cov=np.eye(2),
        )
        assert tuning.dim == 2
        assert tuning.n_measurements == 3

    def test_diagonal_covariances_need_no_eigensolver(self, monkeypatch):
        # A diagonal matrix's eigenvalues are its diagonal entries.
        def unreachable(*args, **kwargs):
            raise AssertionError("eigvalsh ran on a diagonal matrix")

        monkeypatch.setattr(np.linalg, "eigvalsh", unreachable)
        idx = build_state_index(make_config(200, sensors=(1, 100, 200)))
        assert default_tuning(idx, 3).dim == 200
        with pytest.raises(ValueError, match=r"semidefinite \(min eigenvalue -2\.000e\+00\)"):
            FilterTuning(
                process_cov=np.diag([1.0, -2.0]),
                measurement_cov=np.eye(1),
                initial_mean=np.zeros(2),
                initial_cov=np.eye(2),
            )

    def test_positive_diagonal_with_a_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match=r"semidefinite \(min eigenvalue -1\.000e\+00\)"):
            FilterTuning(
                process_cov=np.eye(2),
                measurement_cov=np.eye(1),
                initial_mean=np.zeros(2),
                initial_cov=np.array([[1.0, 2.0], [2.0, 1.0]]),
            )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(-3e-10, 1e-10),
                st.sampled_from([-1e-10, np.nextafter(-1e-10, -1.0), np.nextafter(-1e-10, 0.0), -0.0]),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_diagonal_check_agrees_with_the_eigensolver(self, diagonal):
        M = np.diag(diagonal)
        rejected = np.linalg.eigvalsh(M).min() < -1e-10
        try:
            FilterTuning(process_cov=M, measurement_cov=np.eye(1), initial_mean=np.zeros(M.shape[0]), initial_cov=M)
        except ValueError as exc:
            assert rejected, exc
        else:
            assert not rejected


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


class TestGain:
    @settings(max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        runs=st.integers(1, 4),
        m=st.integers(1, 6),
        extra=st.integers(0, 5),
        log_cond=st.floats(0.0, 9.0),
    )
    def test_matches_the_explicit_inverse_up_to_cond(self, seed, runs, m, extra, log_cond):
        # S = V diag(w) V^T with w spread log-evenly from 1 to cond(S), so the
        # error bound scales with cond(S): ||S^-1|| = 1.
        rng = np.random.default_rng(seed)
        cond = 10.0**log_cond
        w = np.geomspace(1.0, cond, m)
        V = np.linalg.qr(rng.normal(size=(runs, m, m)))[0]
        S = (V * w) @ V.swapaxes(-1, -2)
        S = 0.5 * (S + S.swapaxes(-1, -2))
        CP = rng.normal(size=(runs, m, m + extra))
        R = np.diag(rng.uniform(0.0, 1.0, m))
        got = kalman._gain(CP, S - R, R, 0)
        want = CP.swapaxes(-1, -2) @ np.linalg.inv(S)
        for g, wt, cp in zip(got, want, CP):
            assert np.linalg.norm(g - wt) <= 1e-13 * cond * np.linalg.norm(cp)

    def test_one_eigendecomposition_per_step(self, monkeypatch):
        cfg = mixed_batch_network()
        idx = build_state_index(cfg)
        tuning = default_tuning(idx, 2, initial_ramp_state=0.1)
        rng = np.random.default_rng(8)
        batch = [random_frames(rng, cfg, idx, 7) for _ in range(3)]
        snap = LtvSnapshot(
            A=build_A(idx, cfg.lengths_km, cfg.time_step_h, np.full(cfg.n_segments, 90.0)),
            B=build_B(idx, cfg.lengths_km, cfg.time_step_h),
            u=build_u(idx, 1800.0),
            C=build_C(idx, (3, 6)),
        )
        # The tuning is built; from here on the filter factors S only with eigh.
        calls = []
        real_eigh = np.linalg.eigh

        def eigh(S):
            calls.append(S.shape)
            return real_eigh(S)

        def unreachable(*args, **kwargs):
            raise AssertionError("the filter called a factorization other than eigh")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        for name in ("cholesky", "inv", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, unreachable)
        run_filter_batch(cfg, idx, tuning, batch)
        assert calls == [(3, 2, 2)] * 7
        calls.clear()
        state = FilterState(x_hat=tuning.initial_mean, cov=tuning.initial_cov, k=0)
        for _ in range(4):
            state = kf_step(state, snap, np.full(2, 30.0), tuning)
        assert calls == [(2, 2)] * 4


def fixed_point_frames(k_steps, entry=1800.0, speed=90.0, flow=1800.0):
    # Boundary 0 reads the entry flow, boundary 1 has no sensor, boundary 2 does.
    return Measurements(np.full((k_steps, 2), speed), np.tile([entry, np.nan, flow], (k_steps, 1)))


def random_frames(rng, cfg, idx, n_steps, *, max_ratio=0.9, drop=0.2):
    """Random measurements; about ``drop`` of speeds, flows and entries are missing."""
    n = cfg.n_segments
    speeds = np.empty((n_steps, n))
    flows = np.full((n_steps, n + 1), np.nan)
    ramps = np.full((n_steps, n), np.nan) if idx.measured_ramp_segments else None
    for k in range(n_steps):
        v = rng.uniform(0.0, max_ratio, size=n) * cfg.lengths_km / cfg.time_step_h
        v[rng.random(n) < drop] = np.nan
        speeds[k] = v
        for s in sorted(cfg.flow_sensor_segments):
            if rng.random() >= drop:
                flows[k, s] = rng.uniform(500.0, 3000.0)
        for s in idx.measured_ramp_segments:
            ramps[k, s - 1] = rng.uniform(0.0, 600.0)
        if rng.random() >= drop:
            flows[k, 0] = rng.uniform(500.0, 4000.0)
    return Measurements(speeds, flows, ramps)


def _worst_gap_to_kf_steps(cfg, idx, tuning, meas, result):
    """Largest gap between a filter result and a kf_step loop over what it consumed."""
    B = build_B(idx, cfg.lengths_km, cfg.time_step_h)
    C = build_C(idx, result.sensor_segments)
    state = FilterState(x_hat=tuning.initial_mean, cov=tuning.initial_cov, k=0)
    entry = 0.0
    worst = 0.0
    for k in range(meas.n_steps):
        if np.isfinite(meas.flows_vph[k, 0]):
            entry = meas.flows_vph[k, 0]
        A = build_A(idx, cfg.lengths_km, cfg.time_step_h, result.speeds_used[k])
        u = build_u(idx, entry, None if meas.ramp_flows_vph is None else meas.ramp_flows_vph[k])
        z = result.measurements_used[k]
        assert np.allclose(result.innovations[k], z - C @ state.x_hat, rtol=0, atol=1e-9)
        state = kf_step(state, LtvSnapshot(A=A, B=B, u=u, C=C), z, tuning)
        worst = max(worst, float(np.max(np.abs(result.states[k + 1] - state.x_hat))))
    return max(worst, float(np.max(np.abs(result.final.cov - state.cov))))


def with_measured_ramp(rng, cfg):
    """The network with one more ramp, measured, on a segment that has none."""
    free = [i for i, seg in enumerate(cfg.segments) if seg.ramp is RampType.NONE]
    i = int(rng.choice(free))
    kind = RampType.ON if rng.random() < 0.5 else RampType.OFF
    segments = list(cfg.segments)
    segments[i] = dataclasses.replace(segments[i], ramp=kind, ramp_measured=True)
    return dataclasses.replace(cfg, segments=tuple(segments))


class TestHold:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_gaps_take_the_nearest_valid_value_above(self, data):
        # Over a leading run axis: a valid cell stays, an invalid one takes
        # the nearest valid value above it in its column, else ``initial``.
        runs, K, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 8)), data.draw(st.integers(1, 4))
        cells = st.floats(-1e3, 1e3) | st.just(np.nan)
        values = data.draw(hnp.arrays(np.float64, (runs, K, cols), elements=cells))
        valid = data.draw(hnp.arrays(np.bool_, (runs, K, cols)))
        initial = data.draw(hnp.arrays(np.float64, (cols,), elements=cells))
        expected = values.copy()
        for r, k, c in np.ndindex(runs, K, cols):
            if not valid[r, k, c]:
                above = [j for j in range(k) if valid[r, j, c]]
                expected[r, k, c] = values[r, above[-1], c] if above else initial[c]
        got = values.copy()
        kalman._hold(got, valid, initial)
        assert np.array_equal(got, expected, equal_nan=True)


# Caps on ltv_model.DENSE_A_MAX_DIM that send every network down one of the
# filter step's two paths: the row passes of _apply_A_into, or the dense A.
A_PATHS = pytest.mark.parametrize("dense_max_dim", [0, 10**9], ids=["row-passes", "dense-A"])


class TestRunFilter:
    @A_PATHS
    def test_matches_a_loop_of_dense_kf_steps(self, monkeypatch, dense_max_dim):
        # The structured step equals kf_step on build_A/build_C snapshots fed
        # with what the run actually consumed, held values included: alone,
        # and as each member of a batch on the same network.
        monkeypatch.setattr(ltv_model, "DENSE_A_MAX_DIM", dense_max_dim)
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
            batch = [frames] + [random_frames(rng, cfg, idx, 60, drop=drop) for drop in (0.0, 0.5)]
            runs = [(frames, run_filter(cfg, idx, tuning, frames))]
            runs += zip(batch, run_filter_batch(cfg, idx, tuning, batch))
            assert runs[0][1].held_measurement_steps > 0
            for meas, result in runs:
                worst = max(worst, _worst_gap_to_kf_steps(cfg, idx, tuning, meas, result))
        assert ramp_kinds == {RampType.ON, RampType.OFF}
        assert worst <= 1e-9

    @A_PATHS
    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_steps=st.integers(100, 400),
        max_ratio=st.floats(0.05, 0.99),
    )
    def test_covariance_stays_symmetric_psd(self, dense_max_dim, seed, n_steps, max_ratio):
        rng = np.random.default_rng(seed)
        cfg, _ = random_observable_network(rng)
        idx = build_state_index(cfg)
        tuning = default_tuning(idx, len(cfg.flow_sensor_segments))
        frames = random_frames(rng, cfg, idx, n_steps, max_ratio=max_ratio)
        # Hypothesis refuses the function-scoped monkeypatch fixture.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ltv_model, "DENSE_A_MAX_DIM", dense_max_dim)
            P = run_filter(cfg, idx, tuning, frames).final.cov
        assert np.array_equal(P, P.T)
        eig = np.linalg.eigvalsh(P)
        assert eig[0] >= -1e-9 * eig[-1]

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_steps=st.integers(0, 30),
        drop=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
        slow=st.sampled_from([0.0, 0.3, 0.8]),
    )
    def test_gap_filling_matches_the_per_step_loop(self, seed, n_steps, drop, slow):
        # The per-step hold loop run_filter used before its columnar gap
        # filling. About ``slow`` of the speeds are redrawn below, at and
        # just above the 2 km/h floor, where a sensor reading is held.
        v_floor = 2.0
        rng = np.random.default_rng(seed)
        cfg, _ = random_observable_network(rng)
        idx = build_state_index(cfg)
        sensors = tuple(sorted(cfg.flow_sensor_segments))
        tuning = default_tuning(idx, len(sensors), initial_density=rng.uniform(10.0, 50.0))
        meas = random_frames(rng, cfg, idx, n_steps, drop=drop)
        speeds = meas.speeds_kmh.copy()
        redrawn = np.isfinite(speeds) & (rng.random(speeds.shape) < slow)
        speeds[redrawn] = rng.choice([0.0, 1.5, 2.0, 2.5], size=np.count_nonzero(redrawn))
        meas = dataclasses.replace(meas, speeds_kmh=speeds)
        result = run_filter(cfg, idx, tuning, meas, default_speed_kmh=55.0)

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
            held_entry_steps += not np.isfinite(meas.flows_vph[k, 0])
            z = held_z.copy()
            held_any = False
            for row, seg in enumerate(sensors):
                q = meas.flows_vph[k, seg]
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

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_steps=st.integers(1, 30),
        fill=st.sampled_from([-1.0, 0.0, 2500.0, 1e12]),
    )
    def test_flows_off_the_sensors_and_measured_ramps_are_never_read(self, seed, n_steps, fill):
        # Finite values in every flow column of a boundary without a sensor,
        # and in every ramp column of a segment without a measured ramp,
        # leave the results unchanged bit for bit.
        rng = np.random.default_rng(seed)
        cfg, _ = random_observable_network(rng)
        cfg = with_measured_ramp(rng, cfg)
        idx = build_state_index(cfg)
        tuning = default_tuning(idx, len(cfg.flow_sensor_segments), initial_ramp_state=0.1)
        meas = random_frames(rng, cfg, idx, n_steps, drop=0.3)
        off_sensors = [b for b in range(1, cfg.n_segments + 1) if b not in cfg.flow_sensor_segments]
        unmeasured = [i - 1 for i in range(1, cfg.n_segments + 1) if i not in idx.measured_ramp_segments]
        assert off_sensors and np.isnan(meas.flows_vph[:, off_sensors]).all()
        flows, ramps = meas.flows_vph.copy(), meas.ramp_flows_vph.copy()
        flows[:, off_sensors] = fill
        ramps[:, unmeasured] = fill
        filled = Measurements(meas.speeds_kmh, flows, ramps)
        (want,) = run_filter_batch(cfg, idx, tuning, [meas])
        (got,) = run_filter_batch(cfg, idx, tuning, [filled])
        for name in ("states", "speeds_used", "measurements_used", "innovations"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.final.cov.tobytes() == want.final.cov.tobytes()
        counts = ("held_measurement_steps", "held_entry_steps", "held_ramp_steps")
        assert [getattr(got, c) for c in counts] == [getattr(want, c) for c in counts]

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
        frames = Measurements(np.full((1, 3), 90.0), [[1800.0, 1800.0, np.nan, 1800.0]])
        result = run_filter(cfg, idx, tuning, frames)
        assert result.sensor_segments == (1, 3)
        assert result.measurements_used.shape == (1, 2)

    def test_missing_speed_holds_last_then_default(self):
        cfg = make_config(2, sensors=(2,))
        idx = build_state_index(cfg)
        tuning = default_tuning(idx, 1)
        frames = Measurements(np.array([[np.nan, 90.0], [80.0, np.nan]]), np.tile([1800.0, np.nan, 1800.0], (2, 1)))
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
        flows = np.tile([1800.0, np.nan, np.nan], (3, 1))
        flows[1, 2] = 2700.0
        frames = Measurements(np.full((3, 2), 90.0), flows)
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
        frames = Measurements(np.array([[90.0, 1.5]]), [[1800.0, np.nan, 2700.0]])
        result = run_filter(cfg, idx, tuning, frames)
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
        frames = Measurements(np.full((3, 2), 90.0), np.full((3, 3), np.nan))
        result = run_filter(cfg, idx, tuning, frames)
        # No inflow ever arrives, so the empty-road estimate stays empty.
        assert np.allclose(result.states, 0.0)

    def test_missing_entry_flows_are_counted_and_logged_once(self, caplog):
        cfg = make_config(2, sensors=(2,))
        idx = build_state_index(cfg)
        flows = np.tile([1800.0, np.nan, 1800.0], (5, 1))
        flows[[0, 2, 3], 0] = np.nan
        frames = Measurements(np.full((5, 2), 90.0), flows)
        with caplog.at_level(logging.WARNING, logger="trafficstate.kalman"):
            result = run_filter(cfg, idx, default_tuning(idx, 1), frames)
        assert result.held_entry_steps == 3
        warnings = [r.getMessage() for r in caplog.records if "entry flow" in r.getMessage()]
        assert warnings == ["entry flow missing at 3 of 5 steps; held the previous value"]

    def test_missing_measured_ramp_flows_hold_like_the_entry_flow(self, caplog):
        # A missing measured ramp flow holds the previous one, zero before
        # any, instead of turning every later state NaN.
        cfg = make_config(3, sensors=(3,), ramps={2: (RampType.ON, True)})
        idx = build_state_index(cfg)
        flows = np.tile([1800.0, np.nan, np.nan, 2000.0], (12, 1))
        ramps = np.tile([np.nan, 300.0, np.nan], (12, 1))
        filled_ramps = ramps.copy()
        filled_ramps[0, 1] = 0.0
        filled = Measurements(np.full((12, 3), 90.0), flows.copy(), filled_ramps)
        flows[3, 0] = np.nan
        ramps[[0, 5], 1] = np.nan
        gapped = Measurements(np.full((12, 3), 90.0), flows, ramps)
        tuning = default_tuning(idx, 1)
        with caplog.at_level(logging.WARNING, logger="trafficstate.kalman"):
            result = run_filter(cfg, idx, tuning, gapped)
        assert np.isfinite(result.states).all()
        assert np.array_equal(result.states, run_filter(cfg, idx, tuning, filled).states)
        assert (result.held_entry_steps, result.held_ramp_steps) == (1, 2)
        assert [r.getMessage() for r in caplog.records] == [
            "entry flow missing at 1 of 12 steps, measured ramp flow missing at 2 of 12 steps;"
            " held the previous value"
        ]

    def test_strict_cfl_raises(self):
        cfg = make_config(2, sensors=(2,), time_step_h=5 / 3600, length=0.05)
        idx = build_state_index(cfg)
        tuning = default_tuning(idx, 1)
        frames = Measurements(np.full((1, 2), 40.0), [[1000.0, np.nan, 1000.0]])
        with pytest.raises(CflViolationError, match="max ratio"):
            run_filter(cfg, idx, tuning, frames, strict_cfl=True)
        relaxed = run_filter(cfg, idx, tuning, frames, strict_cfl=False)
        assert not relaxed.cfl.ok
        assert relaxed.cfl.max_ratio == pytest.approx(40.0 * (5 / 3600) / 0.05)

    def test_negative_speed_is_named_in_the_violation_line(self, caplog):
        # Ratios 100/180 = 0.556 and -20/180: only the negative speed breaks
        # the bound, and the max ratio alone would not say so.
        cfg = make_config(2, sensors=(2,))
        idx = build_state_index(cfg)
        frames = Measurements(np.array([[100.0, -20.0]]), [[1000.0, np.nan, 1000.0]])
        with caplog.at_level(logging.WARNING, logger="trafficstate.kalman"):
            run_filter(cfg, idx, default_tuning(idx, 1), frames)
        want = "discretization accuracy bound exceeded at 1 (step, segment) pairs, 1 with a negative speed, max ratio 0.556"
        assert [r.getMessage() for r in caplog.records] == [want]
        with pytest.raises(CflViolationError, match="1 with a negative speed"):
            run_filter(cfg, idx, default_tuning(idx, 1), frames, strict_cfl=True)

    def test_clamp_floors_published_densities_only(self):
        cfg = make_config(2, sensors=(2,), ramps={2: (RampType.OFF, False)})
        idx = build_state_index(cfg)
        tuning = FilterTuning(
            process_cov=np.zeros((3, 3)),
            measurement_cov=np.eye(1),
            initial_mean=np.array([-5.0, -5.0, 0.2]),
            initial_cov=np.zeros((3, 3)),
        )
        frames = Measurements(np.full((4, 2), 50.0), np.zeros((4, 3)))
        clamped = run_filter(cfg, idx, tuning, frames, clamp_nonnegative=True)
        raw = run_filter(cfg, idx, tuning, frames, clamp_nonnegative=False)
        assert np.all(clamped.densities >= 0.0)
        assert raw.densities.min() < 0.0
        # The ramp state column is left untouched by the clamp.
        assert np.allclose(clamped.states[:, 2], raw.states[:, 2])

    def test_mismatched_tuning_sizes_raise(self):
        cfg = make_config(3, sensors=(3,))
        idx = build_state_index(cfg)
        empty = Measurements(np.zeros((0, 3)), np.zeros((0, 4)))
        with pytest.raises(ValueError, match="dim"):
            run_filter(cfg, idx, default_tuning(build_state_index(make_config(2, (2,))), 1), empty)
        with pytest.raises(ValueError, match="sensors are in use"):
            run_filter(cfg, idx, default_tuning(idx, 2), empty)
        unsensed = make_config(3, sensors=())
        with pytest.raises(ValueError, match="at least one sensor"):
            run_filter(unsensed, idx, default_tuning(idx, 0), empty)

    def test_wrong_frame_speed_shape_raises(self):
        cfg = make_config(3, sensors=(3,))
        idx = build_state_index(cfg)
        frames = Measurements(np.full((1, 2), 80.0), [[1000.0, np.nan, np.nan]])
        with pytest.raises(ValueError, match="expected 3 segment speeds"):
            run_filter(cfg, idx, default_tuning(idx, 1), frames)

    def test_ramp_flows_rescale_the_extra_state(self):
        cfg = make_config(3, sensors=(1, 3), ramps={2: (RampType.ON, False)})
        idx = build_state_index(cfg)
        tuning = default_tuning(idx, 2, initial_density=20.0, initial_ramp_state=0.5)
        empty = Measurements(np.zeros((0, 3)), np.zeros((0, 4)))
        result = run_filter(cfg, idx, tuning, empty)
        flows = result.ramp_flows(cfg.lengths_km, cfg.time_step_h)
        assert flows.shape == (1, 1)
        assert flows[0, 0] == pytest.approx(0.5 * 0.5 / (10 / 3600))


def mixed_batch_network():
    """Unmeasured on- and off-ramps with a sensor between them, plus measured ramps of both kinds."""
    ramps = {
        2: (RampType.ON, False),
        3: (RampType.OFF, True),
        4: (RampType.OFF, False),
        5: (RampType.ON, True),
    }
    return make_config(6, sensors=(3, 6), ramps=ramps)


class TestRunFilterBatch:
    def test_members_equal_their_runs_alone(self):
        cfg = mixed_batch_network()
        idx = build_state_index(cfg)
        tuning = default_tuning(idx, 2, initial_ramp_state=0.1)
        rng = np.random.default_rng(5)
        batch = [random_frames(rng, cfg, idx, 80, drop=drop) for drop in (0.0, 0.3, 0.8)]
        no_entry = random_frames(rng, cfg, idx, 80)
        flows = no_entry.flows_vph.copy()
        flows[:, 0] = np.nan
        batch.append(dataclasses.replace(no_entry, flows_vph=flows))
        batch.append(random_frames(rng, cfg, idx, 80, max_ratio=1.2))
        results = run_filter_batch(cfg, idx, tuning, batch, default_speed_kmh=70.0, clamp_nonnegative=True)
        assert len(results) == len(batch)
        assert results[2].held_measurement_steps > 0 and results[3].held_entry_steps == 80
        assert results[0].cfl.ok and not results[4].cfl.ok
        for meas, got in zip(batch, results):
            want = run_filter(cfg, idx, tuning, meas, default_speed_kmh=70.0, clamp_nonnegative=True)
            for name in ("states", "speeds_used", "measurements_used", "innovations"):
                assert np.allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-12), name
            assert np.allclose(got.final.cov, want.final.cov, rtol=0, atol=1e-12)
            assert got.cfl == want.cfl
            assert got.held_measurement_steps == want.held_measurement_steps
            assert got.held_entry_steps == want.held_entry_steps

    def test_ill_conditioned_run_is_named(self):
        cfg = make_config(3, sensors=(1, 3))
        idx = build_state_index(cfg)
        tuning = default_tuning(idx, 2)
        flows = np.tile([1800.0, 1800.0, np.nan, 1800.0], (6, 1))
        speeds = np.full((3, 6, 3), 90.0)
        # A speed far past the accuracy bound at step 2 blows up run 1's
        # covariance on segment 1, so S is ill-conditioned at step 3.
        speeds[1, 2, 0] = 1e9
        batch = [Measurements(v, flows) for v in speeds]
        with pytest.raises(SingularInnovationError, match="step 3 of run 1") as err:
            run_filter_batch(cfg, idx, tuning, batch)
        assert (err.value.step, err.value.run) == (3, 1)
        assert err.value.cond > 1e12
        with pytest.raises(SingularInnovationError) as alone:
            run_filter(cfg, idx, tuning, batch[1])
        assert alone.value.run is None
        assert "at step 3 has condition number" in str(alone.value)

    def test_empty_batch_and_mixed_step_counts_raise(self):
        cfg = make_config(2, sensors=(2,))
        idx = build_state_index(cfg)
        tuning = default_tuning(idx, 1)
        for empty in ([], iter(())):
            with pytest.raises(ValueError, match="at least one run"):
                run_filter_batch(cfg, idx, tuning, empty)
        with pytest.raises(ValueError, match="step count"):
            run_filter_batch(cfg, idx, tuning, [fixed_point_frames(3), fixed_point_frames(4)])

    def test_a_generator_gives_the_results_of_a_list(self):
        cfg = mixed_batch_network()
        idx = build_state_index(cfg)
        tuning = default_tuning(idx, 2, initial_ramp_state=0.1)
        rng = np.random.default_rng(6)
        batch = [random_frames(rng, cfg, idx, 40, drop=drop) for drop in (0.0, 0.5, 0.9)]
        inputs = [(meas.speeds_kmh.copy(), meas.flows_vph.copy(), meas.ramp_flows_vph.copy()) for meas in batch]
        from_list = run_filter_batch(cfg, idx, tuning, batch)
        from_generator = run_filter_batch(cfg, idx, tuning, (meas for meas in batch))
        assert len(from_generator) == len(from_list) == 3
        for got, want in zip(from_generator, from_list):
            for name in ("states", "speeds_used", "measurements_used", "innovations"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert np.array_equal(got.final.cov, want.final.cov)
            assert got.cfl == want.cfl
            assert got.held_measurement_steps == want.held_measurement_steps
            assert got.held_entry_steps == want.held_entry_steps
        # Gaps are filled in the stacked copies, never in the runs.
        for meas, (speeds, flows, ramps) in zip(batch, inputs):
            assert np.array_equal(meas.speeds_kmh, speeds, equal_nan=True)
            assert np.array_equal(meas.flows_vph, flows, equal_nan=True)
            assert np.array_equal(meas.ramp_flows_vph, ramps, equal_nan=True)

    def test_runs_are_released_before_the_first_step(self, monkeypatch):
        cfg = make_config(3, sensors=(1, 3))
        idx = build_state_index(cfg)
        refs = []

        def runs():
            rng = np.random.default_rng(7)
            for _ in range(3):
                meas = random_frames(rng, cfg, idx, 5)
                refs.append(weakref.ref(meas))
                yield meas

        alive = []
        real = kalman._gain

        def gain(*args):
            if not alive:
                alive.append([ref() is not None for ref in refs])
            return real(*args)

        monkeypatch.setattr(kalman, "_gain", gain)
        run_filter_batch(cfg, idx, default_tuning(idx, 2), runs())
        assert alive == [[False, False, False]]

    def test_one_warning_per_batch(self, caplog):
        # Every run breaks the accuracy bound and misses entry flows; the
        # batch logs one line of each, and each result keeps its own counts.
        cfg = make_config(2, sensors=(2,), time_step_h=5 / 3600, length=0.05)
        idx = build_state_index(cfg)
        batch = []
        for j in range(3):
            flows = np.tile([1000.0, np.nan, 1000.0], (4, 1))
            flows[: j + 1, 0] = np.nan
            speeds = np.full((4, 2), 20.0)
            speeds[: j + 1, 1] = 40.0
            batch.append(Measurements(speeds, flows))
        with caplog.at_level(logging.WARNING, logger="trafficstate.kalman"):
            results = run_filter_batch(cfg, idx, default_tuning(idx, 1), batch)
        messages = [r.getMessage() for r in caplog.records]
        assert messages == [
            "entry flow missing at 6 of 12 steps in 3 of 3 runs; held the previous value",
            "discretization accuracy bound exceeded at 6 (step, segment) pairs in 3 of 3 runs, max ratio 1.111",
        ]
        assert [len(r.cfl.violations) for r in results] == [1, 2, 3]
        assert [r.held_entry_steps for r in results] == [1, 2, 3]
        with pytest.raises(CflViolationError, match="in 3 of 3 runs"):
            run_filter_batch(cfg, idx, default_tuning(idx, 1), batch, strict_cfl=True)

    def test_cfl_is_checked_before_the_first_step(self, monkeypatch, caplog):
        # The speeds break the bound and entry flows are missing. A strict
        # batch fails before any step; a relaxed one runs every step and
        # still logs the held inputs before the violations.
        cfg = make_config(2, sensors=(2,), time_step_h=5 / 3600, length=0.05)
        idx = build_state_index(cfg)
        flows = np.tile([1000.0, np.nan, 1000.0], (6, 1))
        flows[1, 0] = np.nan
        batch = [Measurements(np.full((6, 2), 40.0), flows) for _ in range(2)]
        calls = []
        real = kalman._gain

        def gain(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(kalman, "_gain", gain)
        with caplog.at_level(logging.WARNING, logger="trafficstate.kalman"):
            with pytest.raises(CflViolationError, match="at 24 \\(step, segment\\) pairs in 2 of 2 runs"):
                run_filter_batch(cfg, idx, default_tuning(idx, 1), batch, strict_cfl=True)
            assert calls == []
            results = run_filter_batch(cfg, idx, default_tuning(idx, 1), batch)
        assert calls == list(range(6))
        assert [r.getMessage() for r in caplog.records] == [
            "entry flow missing at 2 of 12 steps in 2 of 2 runs; held the previous value",
            "discretization accuracy bound exceeded at 24 (step, segment) pairs in 2 of 2 runs, max ratio 1.111",
        ]
        assert [len(r.cfl.violations) for r in results] == [12, 12]


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

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_placement_rule_holds_exactly_when_the_gramian_has_full_rank(self, data):
        # Random placements, valid and invalid, beyond criterion 6's 20 valid
        # ones: the rule accepts a placement exactly when the Gramian over a
        # window of 2*dim + 5 steps has full rank. Speeds keep the CFL ratio
        # in criterion 6's band.
        n = data.draw(st.integers(1, 12), label="n")
        per_segment = st.tuples(
            st.floats(0.3, 0.7), st.sampled_from(list(RampType)), st.booleans(), st.floats(0.6, 0.9)
        )
        drawn = data.draw(st.lists(per_segment, min_size=n, max_size=n), label="segments")
        sensors = data.draw(st.sets(st.integers(1, n), min_size=1), label="sensors")
        T = 10 / 3600
        segments = [Segment(length_km=L, ramp=kind, ramp_measured=measured) for L, kind, measured, _ in drawn]
        cfg = NetworkConfig(segments=tuple(segments), flow_sensor_segments=frozenset(sensors), time_step_h=T)
        idx = build_state_index(cfg)
        speeds = np.array([ratio for *_, ratio in drawn]) * cfg.lengths_km / T
        A = build_A(idx, cfg.lengths_km, T, speeds)
        _, rank = observability_gramian([A] * (2 * idx.dim + 4), build_C(idx, sorted(sensors)))
        assert validate_network(cfg).ok == (rank == idx.dim)

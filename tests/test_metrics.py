"""Tests for the run evaluation metrics."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trafficstate import metrics
from trafficstate.metrics import (
    DEFAULT_WARMUP_STEPS,
    cv_rho,
    ramp_flow_best_lag,
    ramp_flow_rmse,
    speed_error_covariance,
)
from trafficstate.network import NetworkConfig, Segment


def one_cell_config(time_step_h=0.05, length_km=0.5):
    return NetworkConfig(
        segments=(Segment(length_km),),
        flow_sensor_segments=frozenset({1}),
        time_step_h=time_step_h,
    )


class TestCvRho:
    def test_exact_fraction(self):
        truth = np.array([[20.0, 30.0]])
        est = truth + np.array([[5.0, -5.0]])
        # RMSE 5 over grand mean 25 is exactly one fifth.
        assert cv_rho(est, truth, warmup=0) == pytest.approx(0.2, abs=1e-15)

    def test_default_warmup_excludes_early_rows(self):
        K = DEFAULT_WARMUP_STEPS + 5
        truth = np.full((K, 2), 25.0)
        est = truth.copy()
        est[:DEFAULT_WARMUP_STEPS] += 1000.0
        assert cv_rho(est, truth) == 0.0
        assert cv_rho(est, truth, warmup=0) > 0.0

    def test_warmup_also_trims_the_denominator(self):
        truth = np.array([[1000.0], [10.0]])
        est = np.array([[1000.0], [15.0]])
        assert cv_rho(est, truth, warmup=1) == pytest.approx(0.5, abs=1e-15)

    def test_warmup_trims_both_series(self):
        est = np.array([[100.0], [3.0]])
        truth = np.array([[0.0], [3.0]])
        assert cv_rho(est, truth, warmup=1) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            cv_rho(np.ones((3, 2)), np.ones((4, 2)), warmup=0)

    def test_warmup_outside_horizon_raises(self):
        with pytest.raises(ValueError, match="warmup"):
            cv_rho(np.ones((3, 2)), np.ones((3, 2)), warmup=3)

    def test_nonpositive_truth_mean_raises(self):
        with pytest.raises(ValueError, match="grand mean"):
            cv_rho(np.zeros((2, 2)), np.zeros((2, 2)), warmup=0)


class TestSpeedErrorCovariance:
    def test_single_cell_value(self):
        # (T/delta)^2 * rho^2 * dv^2 = 0.1^2 * 50^2 * 2^2 = 100 exactly.
        cfg = one_cell_config()
        w = speed_error_covariance(
            np.array([[50.0]]), np.array([[62.0]]), np.array([[60.0]]), cfg
        )
        assert w == pytest.approx(100.0, abs=1e-12)

    def test_quadratic_in_speed_error(self):
        cfg = one_cell_config()
        rho = np.array([[50.0]])
        base = speed_error_covariance(rho, np.array([[61.0]]), np.array([[60.0]]), cfg)
        double = speed_error_covariance(rho, np.array([[62.0]]), np.array([[60.0]]), cfg)
        assert double == pytest.approx(4.0 * base, rel=1e-12)

    def test_quadratic_in_density(self):
        cfg = one_cell_config()
        vh = np.array([[62.0]])
        vb = np.array([[60.0]])
        base = speed_error_covariance(np.array([[25.0]]), vh, vb, cfg)
        double = speed_error_covariance(np.array([[50.0]]), vh, vb, cfg)
        assert double == pytest.approx(4.0 * base, rel=1e-12)

    def test_averages_over_cells(self):
        cfg = NetworkConfig(
            segments=(Segment(0.5), Segment(0.5)),
            flow_sensor_segments=frozenset({2}),
            time_step_h=0.05,
        )
        rho = np.array([[50.0, 0.0]])
        vh = np.array([[62.0, 70.0]])
        vb = np.array([[60.0, 60.0]])
        # Second cell contributes zero, so the mean halves the first.
        w = speed_error_covariance(rho, vh, vb, cfg)
        assert w == pytest.approx(50.0, abs=1e-12)

    def test_shape_mismatch_raises(self):
        cfg = one_cell_config()
        with pytest.raises(ValueError, match="shape mismatch"):
            speed_error_covariance(np.zeros((2, 1)), np.zeros((3, 1)), np.zeros((3, 1)), cfg)

    @settings(max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_steps=st.integers(1, 40),
        n_segments=st.integers(1, 9),
        block_cells=st.sampled_from([1, 5, 16, 33, metrics._BLOCK_CELLS]),
        warmup_share=st.floats(0.0, 1.0, exclude_max=True),
        unknown=st.sampled_from([0.0, 0.2, 0.7, 1.0]),
    )
    # Three blocks of 4 rows and a last block of 1; then a warm-up of 10
    # that leaves 3 of 13 rows, fewer than one block of 5.
    @example(seed=0, n_steps=13, n_segments=4, block_cells=16, warmup_share=0.0, unknown=0.2)
    @example(seed=1, n_steps=13, n_segments=1, block_cells=5, warmup_share=0.77, unknown=0.7)
    def test_blocks_match_the_one_expression_form_bit_for_bit(
        self, seed, n_steps, n_segments, block_cells, warmup_share, unknown
    ):
        # A non-finite truth density weighs 0 and a non-finite true speed
        # counts as the speed used, over any block size and warm-up.
        rng = np.random.default_rng(seed)
        cfg = NetworkConfig(
            segments=tuple(Segment(float(x)) for x in rng.uniform(0.2, 0.8, n_segments)),
            flow_sensor_segments=frozenset({n_segments}),
            time_step_h=5 / 3600,
        )
        shape = (n_steps, n_segments)
        rho, v_hat, v_bar = rng.uniform(0, 150, shape), rng.uniform(0, 120, shape), rng.uniform(0, 120, shape)
        rho[rng.random(shape) < unknown] = np.nan
        gaps = rng.random(shape) < unknown
        v_bar[gaps] = rng.choice([np.nan, np.inf, -np.inf], np.count_nonzero(gaps))
        warmup = int(warmup_share * n_steps)
        with mock.patch.object(metrics, "_BLOCK_CELLS", block_cells):
            got = speed_error_covariance(rho, v_hat, v_bar, cfg, warmup=warmup)
        ratio = cfg.time_step_h / cfg.lengths_km
        r, h, b = rho[warmup:], v_hat[warmup:], v_bar[warmup:]
        want = np.mean((ratio**2) * np.where(np.isfinite(r), r, 0) ** 2 * (h - np.where(np.isfinite(b), b, h)) ** 2)
        assert got == float(want)


class TestRampFlowMetrics:
    def test_rmse_over_the_series(self):
        est = np.array([100.0, 200.0])
        truth = np.array([110.0, 190.0])
        assert ramp_flow_rmse(est, truth) == pytest.approx(10.0)

    def test_best_lag_recovers_a_pure_shift(self):
        rng = np.random.default_rng(2)
        truth = 500.0 + 100.0 * np.sin(np.linspace(0.0, 8.0, 120)) + rng.normal(0, 5, 120)
        est = np.concatenate([np.full(3, truth[0]), truth[:-3]])
        lag, err = ramp_flow_best_lag(est, truth, max_lag=10)
        assert lag == 3
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_ties_go_to_the_smallest_lag(self):
        series = np.full(30, 400.0)
        lag, err = ramp_flow_best_lag(series, series, max_lag=5)
        assert lag == 0
        assert err == 0.0

    def test_max_lag_must_leave_samples(self):
        with pytest.raises(ValueError, match="max_lag"):
            ramp_flow_best_lag(np.zeros(5), np.zeros(5), max_lag=5)

    def test_requires_one_dimensional_series(self):
        with pytest.raises(ValueError, match="1-d"):
            ramp_flow_best_lag(np.zeros((5, 2)), np.zeros((5, 2)))


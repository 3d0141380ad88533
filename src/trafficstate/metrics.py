"""Evaluation quantities for estimation runs.

The density metrics can exclude a warm-up window so the filter's
initialization transient is not scored; callers that want the full-horizon
value pass warmup=0 (run summaries report both). The ramp-flow metrics
score the series they are given, so callers slice the warm-up off first.
"""

from __future__ import annotations

import numpy as np

from trafficstate.network import NetworkConfig

__all__ = [
    "DEFAULT_WARMUP_STEPS",
    "cv_rho",
    "speed_error_covariance",
    "ramp_flow_rmse",
    "ramp_flow_best_lag",
]

DEFAULT_WARMUP_STEPS = 10
# Cells per block of the speed-error metric: a whole 360 x 8 preset table
# is one block.
_BLOCK_CELLS = 8192


def _paired(est, truth, warmup: int):
    e = np.asarray(est, dtype=float)
    t = np.asarray(truth, dtype=float)
    if e.shape != t.shape:
        raise ValueError(f"shape mismatch: estimates {e.shape} vs truth {t.shape}")
    if not 0 <= warmup < e.shape[0]:
        raise ValueError(f"warmup {warmup} outside horizon of {e.shape[0]} steps")
    return e[warmup:], t[warmup:]


def cv_rho(est, truth, *, warmup: int = DEFAULT_WARMUP_STEPS) -> float:
    """Density error as a fraction: RMSE over the grand mean of the truth.

    Both tables are (steps, segments); the first ``warmup`` steps are
    excluded from numerator and denominator alike.
    """
    e, t = _paired(est, truth, warmup)
    mean = float(np.mean(t))
    if mean <= 0.0:
        raise ValueError(f"truth grand mean must be positive, got {mean}")
    return float(np.sqrt(np.mean((e - t) ** 2))) / mean


def speed_error_covariance(
    truth_densities,
    v_hat,
    v_bar,
    cfg: NetworkConfig,
    *,
    warmup: int = 0,
) -> float:
    """Mean squared density-dynamics perturbation caused by speed error.

    Averages (T/delta_i)^2 * rho_i(k)^2 * (v_hat - v_bar)^2 over all
    cells, in veh^2/km^2: the empirical covariance of the conservation
    equation error induced by feeding the filter v_hat instead of the true
    mean speed. ``v_hat`` is the speed series the filter actually used.
    Where the truth is unknown the cell still counts in the mean: a NaN (or
    infinite) density weighs 0, and a NaN (or infinite) ``v_bar`` counts as
    ``v_hat``. The cells are formed ``_BLOCK_CELLS`` at a time into one
    (K - warmup, N) table, whose ``np.mean`` is the result, so no other
    table of that size is made.
    """
    vh, vb = _paired(v_hat, v_bar, warmup)
    rho = np.asarray(truth_densities, dtype=float)[warmup:]
    if rho.shape != vh.shape:
        raise ValueError(f"shape mismatch: densities {rho.shape} vs speeds {vh.shape}")
    ratio2 = (cfg.time_step_h / cfg.lengths_km) ** 2
    cells = np.empty(rho.shape)
    step = max(1, _BLOCK_CELLS // max(1, cells[:1].size))
    for a in range(0, cells.shape[0], step):
        r, h, b = rho[a : a + step], vh[a : a + step], vb[a : a + step]
        out = cells[a : a + step]
        # The products of the one-expression form, in its order, in place.
        np.square(np.where(np.isfinite(r), r, 0.0), out=out)
        out *= ratio2
        dv = np.where(np.isfinite(b), b, h)
        np.subtract(h, dv, out=dv)
        np.square(dv, out=dv)
        out *= dv
        # Freed before the next block's broadcast multiply takes its buffer.
        del dv
    return float(np.mean(cells))


def ramp_flow_rmse(est, truth) -> float:
    """Root mean square ramp-flow error in veh/h over the step series."""
    e, t = _paired(est, truth, 0)
    return float(np.sqrt(np.mean((e - t) ** 2)))


def ramp_flow_best_lag(est, truth, *, max_lag: int = 20) -> tuple[int, float]:
    """Delay diagnostic: the lag in steps that minimizes the ramp RMSE.

    Lag d scores est[d:] against truth[:-d] (the estimate trailing the
    truth by d steps); ties go to the smallest lag.
    """
    e = np.asarray(est, dtype=float)
    t = np.asarray(truth, dtype=float)
    if e.shape != t.shape or e.ndim != 1:
        raise ValueError("est and truth must be equal-length 1-d series")
    if max_lag >= e.shape[0]:
        raise ValueError(f"max_lag {max_lag} must be below the series length {e.shape[0]}")
    best = (0, float(np.sqrt(np.mean((e - t) ** 2))))
    for d in range(1, max_lag + 1):
        val = float(np.sqrt(np.mean((e[d:] - t[:-d]) ** 2)))
        if val < best[1]:
            best = (d, val)
    return best

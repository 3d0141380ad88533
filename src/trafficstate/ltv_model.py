"""Time-varying linear model of segment densities driven by probe speeds.

The state vector stacks the N segment densities (veh/km) with one extra
random-walk state per unmeasured ramp. The extra state for a ramp on
segment i is the per-step density contribution (T/delta_i) * flow, so the
ramp flow in veh/h is recovered by multiplying with delta_i/T.

All builders take the per-step segment speeds explicitly; the matrices A
change every step while B and C are constant for a fixed network. This
module also chooses how the filter multiplies by A each step (``_A_step``):
by row passes that use A's structure, or by matmuls with a dense A for
small state dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from trafficstate.network import NetworkConfig, RampType

__all__ = [
    "StateIndex",
    "LtvSnapshot",
    "build_state_index",
    "build_A",
    "build_B",
    "build_u",
    "build_C",
]


@dataclass(frozen=True)
class StateIndex:
    """Layout of the augmented state and input vectors for one network.

    Densities occupy positions 0..N-1 (segment i at position i-1). The
    ramp states follow in ascending segment order. Inputs are the entry
    flow first, then one entry per measured ramp, ascending.
    """

    n_segments: int
    theta_segments: tuple[int, ...]
    theta_kinds: tuple[RampType, ...]
    measured_ramp_segments: tuple[int, ...]
    measured_ramp_kinds: tuple[RampType, ...]

    @property
    def n_theta(self) -> int:
        return len(self.theta_segments)

    @property
    def dim(self) -> int:
        return self.n_segments + self.n_theta

    @property
    def n_inputs(self) -> int:
        return 1 + len(self.measured_ramp_segments)


@dataclass(frozen=True)
class LtvSnapshot:
    """The four system matrices of one time step: x+ = A x + B u, z = C x."""

    A: np.ndarray
    B: np.ndarray
    u: np.ndarray
    C: np.ndarray


def build_state_index(cfg: NetworkConfig) -> StateIndex:
    theta_segs: list[int] = []
    theta_kinds: list[RampType] = []
    meas_segs: list[int] = []
    meas_kinds: list[RampType] = []
    for i, seg in enumerate(cfg.segments, start=1):
        if seg.ramp is RampType.NONE:
            continue
        if seg.ramp_measured:
            meas_segs.append(i)
            meas_kinds.append(seg.ramp)
        else:
            theta_segs.append(i)
            theta_kinds.append(seg.ramp)
    return StateIndex(
        n_segments=cfg.n_segments,
        theta_segments=tuple(theta_segs),
        theta_kinds=tuple(theta_kinds),
        measured_ramp_segments=tuple(meas_segs),
        measured_ramp_kinds=tuple(meas_kinds),
    )


def _ratios(lengths_km: Sequence[float], time_step_h: float) -> np.ndarray:
    lengths = np.asarray(lengths_km, dtype=float)
    return time_step_h / lengths


def _coefficients(ratios: np.ndarray, speeds_kmh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A's density diagonal 1 - c_i v_i and subdiagonal c_i v_{i-1}, per run."""
    c, v = ratios, speeds_kmh
    return 1.0 - c * v, c[1:] * v[..., :-1]


def _apply_A_into(idx: StateIndex, diag: np.ndarray, sub: np.ndarray, M: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Product A M of one step's transition matrix with a (dim, k) matrix, written into ``out``.

    ``diag`` and ``sub`` are A's ``_coefficients``. A is lower-bidiagonal on
    the densities (diagonal 1 - c_i v_i, subdiagonal c_i v_{i-1}), carries
    +1 (on-ramp) or -1 (off-ramp) in each ramp state's column on its
    segment's row, and is the identity on the ramp states, so the product
    costs O(dim * k) and A itself is never formed. ``out`` must not overlap M.

    Leading axes are runs of a batch: coefficients from speeds (..., N) and
    M (..., dim, k) give one product per run.
    """
    n = idx.n_segments
    np.multiply(diag[..., np.newaxis], M[..., :n, :], out=out[..., :n, :])
    out[..., 1:n, :] += sub[..., np.newaxis] * M[..., : n - 1, :]
    for j, (seg, kind) in enumerate(zip(idx.theta_segments, idx.theta_kinds)):
        if kind is RampType.ON:
            out[..., seg - 1, :] += M[..., n + j, :]
        else:
            out[..., seg - 1, :] -= M[..., n + j, :]
    out[..., n:, :] = M[..., n:, :]
    return out


# Up to this state dimension the filter's step forms A for the whole batch
# and takes A P A^T as two stacked matmuls; above it, the row passes of
# ``_apply_A_into`` cost less. Filter step in us (K = 60, medians of 7;
# 2 cores, numpy 2.4, OpenBLAS 0.3.31):
#
#   dim   runs   row passes    dense
#     8   1/40     91/222      75/178
#    33   1/40    120/788      88/512
#    63   1/40    107/2906     85/2391
#    84   1/40    130/4310    128/4316
#   105   1/4     249/568     253/712
#   210   1/4     540/2232   1011/2902
#
# The two break even near dim 84; the cap keeps a margin below that.
DENSE_A_MAX_DIM = 64


def _A_step(idx: StateIndex, lengths_km: Sequence[float], time_step_h: float, n_runs: int):
    """The filter's A-products for a batch of ``n_runs``, as one step function.

    ``step(speeds, M, AM, APA)`` takes one step's (runs, N) speeds and the
    (runs, dim, dim + 1) posterior M = [P | x], writes A M into ``AM`` and
    A P A^T into ``APA``. At or below ``DENSE_A_MAX_DIM`` states, each call
    writes the step's coefficients into one (runs, dim, dim) stack of A and
    takes two stacked matmuls; above it, A is never formed and both products
    are row passes of ``_apply_A_into``, the second using A P A^T = A (A P)^T
    for symmetric P.
    """
    n, d = idx.n_segments, idx.dim
    ratios = _ratios(lengths_km, time_step_h)
    if d > DENSE_A_MAX_DIM:

        def row_passes(speeds: np.ndarray, M: np.ndarray, AM: np.ndarray, APA: np.ndarray) -> None:
            diag, sub = _coefficients(ratios, speeds)
            _apply_A_into(idx, diag, sub, M, AM)
            _apply_A_into(idx, diag, sub, AM[..., :d].swapaxes(-1, -2), APA)

        return row_passes

    # Zero coefficients leave only A's constant entries: the ramp columns and
    # the identity on the ramp states.
    A = _apply_A_into(idx, np.zeros(n), np.zeros(n - 1), np.eye(d), np.empty((n_runs, d, d)))
    flat = A.reshape(n_runs, d * d)
    # Entry (i, i) sits at flat i (d + 1), entry (i, i - 1) one before it.
    A_diag, A_sub = flat[:, : n * (d + 1) : d + 1], flat[:, d : n * (d + 1) - 1 : d + 1]

    def dense(speeds: np.ndarray, M: np.ndarray, AM: np.ndarray, APA: np.ndarray) -> None:
        A_diag[...], A_sub[...] = _coefficients(ratios, speeds)
        np.matmul(A, M, out=AM)
        np.matmul(AM[..., :d], A.swapaxes(-1, -2), out=APA)

    return dense


def build_A(
    idx: StateIndex,
    lengths_km: Sequence[float],
    time_step_h: float,
    speeds_kmh: Sequence[float],
) -> np.ndarray:
    """Transition matrix for one step given that step's segment speeds."""
    n = idx.n_segments
    v = np.asarray(speeds_kmh, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"expected {n} segment speeds, got shape {v.shape}")
    c = _ratios(lengths_km, time_step_h)
    if c.shape != (n,):
        raise ValueError(f"expected {n} segment lengths, got {c.shape[0]}")
    return _apply_A_into(idx, *_coefficients(c, v), np.eye(idx.dim), np.empty((idx.dim, idx.dim)))


def build_B(idx: StateIndex, lengths_km: Sequence[float], time_step_h: float) -> np.ndarray:
    """Input matrix: entry flow into segment 1, measured ramps into theirs.

    One column per actual input (entry plus each measured ramp); segments
    without a measured ramp contribute no column.
    """
    c = _ratios(lengths_km, time_step_h)
    B = np.zeros((idx.dim, idx.n_inputs))
    B[0, 0] = c[0]
    for jcol, seg in enumerate(idx.measured_ramp_segments, start=1):
        B[seg - 1, jcol] = c[seg - 1]
    return B


def build_u(idx: StateIndex, entry_flow_vph, ramp_table: np.ndarray | None = None) -> np.ndarray:
    """Input vector from the entry flow and the measured ramps' flow magnitudes.

    Column i of ``ramp_table`` (..., N) is read for a measured ramp on segment
    i, as a non-negative magnitude; the sign is applied here from the ramp
    kind (off-ramps enter negatively). Without a table the ramps flow zero.
    Given (K,) entry flows and a (K, N) table, the result has a leading
    step axis: one input vector per step, shape (K, n_inputs).
    """
    entry = np.asarray(entry_flow_vph, dtype=float)
    u = np.zeros(entry.shape + (idx.n_inputs,))
    u[..., 0] = entry
    shape = entry.shape + (idx.n_segments,)
    ramps = np.zeros(shape) if ramp_table is None else np.asarray(ramp_table, dtype=float)
    if ramps.shape != shape:
        raise ValueError(f"ramp table must have shape {shape}, got {ramps.shape}")
    for jcol, (seg, kind) in enumerate(zip(idx.measured_ramp_segments, idx.measured_ramp_kinds), start=1):
        mag = ramps[..., seg - 1]
        if (mag < 0.0).any():
            raise ValueError(
                f"ramp flow magnitude at segment {seg} must be non-negative, got {mag[mag < 0.0].min()}"
            )
        u[..., jcol] = mag if kind is RampType.ON else -mag
    return u


def build_C(idx: StateIndex, sensor_segments: Sequence[int]) -> np.ndarray:
    """Output matrix selecting the density of each sensor-carrying segment.

    A flow sensor at segment j combined with that segment's speed yields a
    direct density reading, so each row is a unit selector.
    """
    segs = sorted(set(int(j) for j in sensor_segments))
    if not segs:
        raise ValueError("at least one sensor segment is required")
    bad = [j for j in segs if j < 1 or j > idx.n_segments]
    if bad:
        raise ValueError(f"sensor segments outside 1..{idx.n_segments}: {bad}")
    C = np.zeros((len(segs), idx.dim))
    for row, seg in enumerate(segs):
        C[row, seg - 1] = 1.0
    return C

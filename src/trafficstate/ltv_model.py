"""Time-varying linear model of segment densities driven by probe speeds.

The state vector stacks the N segment densities (veh/km) with one extra
random-walk state per unmeasured ramp. The extra state for a ramp on
segment i is the per-step density contribution (T/delta_i) * flow, so the
ramp flow in veh/h is recovered by multiplying with delta_i/T.

All builders take the per-step segment speeds explicitly; the matrices A
change every step while B and C are constant for a fixed network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from trafficstate.network import NetworkConfig, RampType

__all__ = [
    "StateIndex",
    "LtvSnapshot",
    "build_state_index",
    "apply_A",
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


def apply_A(idx: StateIndex, ratios: np.ndarray, speeds_kmh: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Product A M of one step's transition matrix with a (dim, k) matrix.

    ``ratios`` holds T/delta_i per segment. A is lower-bidiagonal on the
    densities (diagonal 1 - c_i v_i, subdiagonal c_i v_{i-1}), carries +1
    (on-ramp) or -1 (off-ramp) in each ramp state's column on its segment's
    row, and is the identity on the ramp states, so the product costs
    O(dim * k) and A itself is never formed.

    Leading axes are runs of a batch: speeds (..., N) and M (..., dim, k)
    give one product per run.
    """
    n = idx.n_segments
    c, v = ratios, speeds_kmh
    out = np.empty(M.shape)
    out[..., :n, :] = (1.0 - c * v)[..., np.newaxis] * M[..., :n, :]
    out[..., 1:n, :] += (c[1:] * v[..., :-1])[..., np.newaxis] * M[..., : n - 1, :]
    for j, (seg, kind) in enumerate(zip(idx.theta_segments, idx.theta_kinds)):
        if kind is RampType.ON:
            out[..., seg - 1, :] += M[..., n + j, :]
        else:
            out[..., seg - 1, :] -= M[..., n + j, :]
    out[..., n:, :] = M[..., n:, :]
    return out


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
    return apply_A(idx, c, v, np.eye(idx.dim))


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


def build_u(
    idx: StateIndex,
    entry_flow_vph,
    measured_ramp_flows_vph: Mapping[int, object] | None = None,
) -> np.ndarray:
    """Input vector from the entry flow and measured ramp flow magnitudes.

    Ramp flows are keyed by 1-based segment and given as non-negative
    magnitudes; the sign is applied here from the ramp kind (off-ramps
    enter negatively). Segments absent from the mapping default to zero.
    Given (K,) columns instead of scalars, the result has a leading step
    axis: one input vector per step, shape (K, n_inputs).
    """
    flows = dict(measured_ramp_flows_vph or {})
    entry = np.asarray(entry_flow_vph, dtype=float)
    u = np.zeros(entry.shape + (idx.n_inputs,))
    u[..., 0] = entry
    for jcol, (seg, kind) in enumerate(
        zip(idx.measured_ramp_segments, idx.measured_ramp_kinds), start=1
    ):
        mag = np.asarray(flows.pop(seg, 0.0), dtype=float)
        if (mag < 0.0).any():
            raise ValueError(
                f"ramp flow magnitude at segment {seg} must be non-negative, got {mag[mag < 0.0].min()}"
            )
        u[..., jcol] = mag if kind is RampType.ON else -mag
    if flows:
        raise ValueError(f"flows given for segments without a measured ramp: {sorted(flows)}")
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

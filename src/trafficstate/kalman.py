"""Kalman filtering of the time-varying density model.

The filter is run in one-step-ahead predictor form: the state estimate
published for step k+1 uses measurements up to and including step k. One
eigendecomposition S = V diag(w) V^T of the m x m innovation covariance per
step gives both the cond(S) guard and the gain solve; S is never inverted.

``run_filter_batch`` uses the model's structure. The output matrix only
selects rows, so C P is indexing. ``ltv_model`` chooses how each step
multiplies by A (``ltv_model._A_step``): by row passes that never form A,
or, for small state dimensions, by stacked matmuls with a dense A. Runs
that share a network, tuning and step count are filtered together on a
leading run axis, so one step of numpy calls serves the whole batch;
``run_filter`` is a batch of one.
``kf_step`` is the dense form of the same update for an arbitrary snapshot.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

# build_A stays importable from this module for code that binds it here;
# the filter itself does not call it.
from trafficstate import ltv_model
from trafficstate.ltv_model import LtvSnapshot, StateIndex, build_A, build_B, build_u  # noqa: F401
from trafficstate.network import CflReport, CflViolationError, NetworkConfig, cfl_message, check_cfl
from trafficstate.sensing import Measurements

logger = logging.getLogger(__name__)

__all__ = [
    "FilterTuning",
    "FilterState",
    "FilterResult",
    "SingularInnovationError",
    "default_tuning",
    "kf_step",
    "run_filter",
    "run_filter_batch",
    "observability_gramian",
]

COND_LIMIT = 1e12
# At or below this speed a sensor's flow says nothing about its density.
V_FLOOR_KMH = 2.0


class SingularInnovationError(RuntimeError):
    """Innovation covariance too ill-conditioned to invert reliably.

    ``run`` is the index of the offending run within a batch of several,
    else None.
    """

    def __init__(self, step: int, cond: float, run: int | None = None):
        where = f"step {step}" if run is None else f"step {step} of run {run}"
        super().__init__(
            f"innovation covariance at {where} has condition number {cond:.3e}"
            f" (limit {COND_LIMIT:.0e})"
        )
        self.step = step
        self.cond = cond
        self.run = run


def _check_symmetric_psd(name: str, M: np.ndarray, dim: int) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got {M.shape}")
    if not np.allclose(M, M.T, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    diagonal = np.diagonal(M)
    # A diagonal matrix's eigenvalues are its diagonal entries; a dense
    # eigvalsh of a large diagonal Q or P0 costs far more.
    if np.count_nonzero(M) == np.count_nonzero(diagonal):
        eigmin = float(diagonal.min())
    else:
        eigmin = float(np.linalg.eigvalsh(M).min())
    if eigmin < -1e-10:
        raise ValueError(f"{name} must be positive semidefinite (min eigenvalue {eigmin:.3e})")
    return M


@dataclass(frozen=True)
class FilterTuning:
    """Process/measurement covariances and the initial state belief.

    Q is sized to the augmented state, R to the measurement vector. Every
    entry must be finite. R must be positive definite; Q and the initial
    covariance only need to be positive semidefinite.
    """

    process_cov: np.ndarray
    measurement_cov: np.ndarray
    initial_mean: np.ndarray
    initial_cov: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            if not np.isfinite(np.asarray(getattr(self, f.name), dtype=float)).all():
                raise ValueError(f"{f.name} must be finite")
        dim = np.asarray(self.initial_mean, dtype=float).shape[0]
        object.__setattr__(self, "initial_mean", np.asarray(self.initial_mean, dtype=float))
        object.__setattr__(self, "process_cov", _check_symmetric_psd("process_cov", self.process_cov, dim))
        object.__setattr__(self, "initial_cov", _check_symmetric_psd("initial_cov", self.initial_cov, dim))
        R = np.asarray(self.measurement_cov, dtype=float)
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ValueError(f"measurement_cov must be square, got {R.shape}")
        if not np.allclose(R, R.T, atol=1e-10):
            raise ValueError("measurement_cov must be symmetric")
        try:
            np.linalg.cholesky(R)
        except np.linalg.LinAlgError as exc:
            raise ValueError("measurement_cov must be positive definite") from exc
        object.__setattr__(self, "measurement_cov", R)

    @property
    def dim(self) -> int:
        return self.initial_mean.shape[0]

    @property
    def n_measurements(self) -> int:
        return self.measurement_cov.shape[0]


def default_tuning(
    idx: StateIndex,
    n_sensors: int,
    *,
    density_process_var: float = 1.0,
    ramp_process_var: float = 0.01,
    measurement_var: float = 10.0,
    initial_density: float = 40.0,
    initial_ramp_state: float | None = None,
    initial_var: float = 1.0,
) -> FilterTuning:
    """Diagonal tuning with one variance per state family.

    Defaults reproduce the reference calibration: unit process variance on
    densities, 0.01 on ramp states, identity-scaled initial covariance.
    """
    if initial_ramp_state is None:
        initial_ramp_state = initial_density
    q = np.concatenate(
        [np.full(idx.n_segments, density_process_var), np.full(idx.n_theta, ramp_process_var)]
    )
    mean = np.concatenate(
        [np.full(idx.n_segments, initial_density), np.full(idx.n_theta, initial_ramp_state)]
    )
    return FilterTuning(
        process_cov=np.diag(q),
        measurement_cov=np.diag(np.full(n_sensors, measurement_var)),
        initial_mean=mean,
        initial_cov=np.diag(np.full(idx.dim, initial_var)),
    )


@dataclass(frozen=True)
class FilterState:
    """Predicted state for step k given measurements through step k-1."""

    x_hat: np.ndarray
    cov: np.ndarray
    k: int


def _gain(CP: np.ndarray, CPCt: np.ndarray, R: np.ndarray, step: int) -> np.ndarray:
    """Kalman gain P C^T S^-1 from C P and C P C^T, with S = C P C^T + R.

    Leading axes are runs of a batch: CP is (..., m, dim) and the gain
    (..., dim, m). One stacked eigendecomposition S = V diag(w) V^T serves
    the guard and the solve. cond(S) is w_max / w_min; a non-positive w_min
    counts as infinite. Past the guard every w is positive, and the gain is
    (V diag(1/w) V^T C P)^T.
    """
    S = CPCt + R
    S = 0.5 * (S + S.swapaxes(-1, -2))
    w, V = np.linalg.eigh(S)
    lo, hi = w[..., 0], w[..., -1]
    # cond(S) = hi / lo < COND_LIMIT without dividing: false for lo <= 0 and for NaN.
    ok = hi < COND_LIMIT * lo
    if not ok.all():
        run = int(np.argmin(ok))
        lo_r, hi_r = float(lo.flat[run]), float(hi.flat[run])
        cond = hi_r / lo_r if lo_r > 0.0 else math.inf
        raise SingularInnovationError(step, cond, run if ok.size > 1 else None)
    X = (V / w[..., np.newaxis, :]) @ (V.swapaxes(-1, -2) @ CP)
    return X.swapaxes(-1, -2)


def kf_step(state: FilterState, snap: LtvSnapshot, z: np.ndarray, tuning: FilterTuning) -> FilterState:
    """One predictor update: absorb measurement z(k), return the k+1 state."""
    A, B, u, C = snap.A, snap.B, snap.u, snap.C
    P = state.cov
    CP = C @ P
    gain = _gain(CP, CP @ C.T, tuning.measurement_cov, state.k)
    innovation = z - C @ state.x_hat
    x_next = A @ state.x_hat + B @ u + A @ gain @ innovation
    P_next = A @ (P - gain @ CP) @ A.T + tuning.process_cov
    P_next = 0.5 * (P_next + P_next.T)
    return FilterState(x_hat=x_next, cov=P_next, k=state.k + 1)


@dataclass(frozen=True)
class FilterResult:
    """Full estimator trajectory over K steps.

    ``states`` has K+1 rows: row k is the prediction for step k, row 0 the
    initial mean. ``speeds_used`` and ``measurements_used`` record what the
    filter actually consumed after gap filling and the speed floor guard.
    ``held_measurement_steps``, ``held_entry_steps`` and ``held_ramp_steps``
    count the steps that held a previous sensor reading, entry flow or
    measured ramp flow.
    """

    states: np.ndarray
    sensor_segments: tuple[int, ...]
    speeds_used: np.ndarray
    measurements_used: np.ndarray
    innovations: np.ndarray
    cfl: CflReport
    final: FilterState
    index: StateIndex
    held_measurement_steps: int = 0
    held_entry_steps: int = 0
    held_ramp_steps: int = 0

    @property
    def densities(self) -> np.ndarray:
        return self.states[:, : self.index.n_segments]

    def ramp_flows(self, lengths_km: Sequence[float], time_step_h: float) -> np.ndarray:
        """(K+1, n_theta) recovered ramp flow magnitudes in veh/h."""
        lengths = np.asarray(lengths_km, dtype=float)
        theta = self.states[:, self.index.n_segments :]
        scale = lengths[[s - 1 for s in self.index.theta_segments]] / time_step_h
        return theta * scale[np.newaxis, :]


def _hold(values: np.ndarray, valid: np.ndarray, initial) -> None:
    """Fill each invalid cell in place with the last valid value above it in its column, else ``initial``.

    ``values`` is (runs, K, columns), rows on axis 1; it may be a view. Rows
    are filled in ascending order, so a gap takes the already filled row
    above it, and only rows with a gap cost a call; no table-sized
    temporary is made.
    """
    invalid = ~valid
    for k in np.flatnonzero(invalid.any(axis=(0, 2))).tolist():
        np.copyto(values[:, k], values[:, k - 1] if k else initial, where=invalid[:, k])


def run_filter(
    cfg: NetworkConfig,
    idx: StateIndex,
    tuning: FilterTuning,
    meas: Measurements,
    *,
    default_speed_kmh: float = 100.0,
    strict_cfl: bool = False,
    clamp_nonnegative: bool = False,
) -> FilterResult:
    """Run the predictor over K steps of measurements: ``run_filter_batch`` on one run."""
    return run_filter_batch(
        cfg,
        idx,
        tuning,
        [meas],
        default_speed_kmh=default_speed_kmh,
        strict_cfl=strict_cfl,
        clamp_nonnegative=clamp_nonnegative,
    )[0]


def run_filter_batch(
    cfg: NetworkConfig,
    idx: StateIndex,
    tuning: FilterTuning,
    runs: Iterable[Measurements],
    *,
    default_speed_kmh: float = 100.0,
    strict_cfl: bool = False,
    clamp_nonnegative: bool = False,
) -> list[FilterResult]:
    """Run the predictor over K steps of measurements for each run of a batch.

    The runs share the network, the tuning and the step count K; each is
    filtered independently and gets its own ``FilterResult``, in order.
    ``runs`` may be any iterable, a generator included. It is read once,
    and no run is referenced after its columns are stacked, so a caller
    that passes a generator never holds a batch's inputs beside the
    stacked copy.

    Gap handling: a missing segment speed holds the last seen value for
    that segment (free-flow ``default_speed_kmh`` before anything is seen);
    a missing sensor flow, or a sensor speed at or below ``V_FLOOR_KMH``
    (2 km/h), holds the previous density reading for that sensor, seeded
    from the initial mean; a missing entry or measured ramp flow holds the
    previous one, starting at zero. Held inputs and discretization
    violations warn in one line each per batch, after the last step.
    ``check_cfl`` runs on the gap-filled speeds before the first step and
    before the state and covariance buffers are allocated; ``strict_cfl``
    makes a violation an error raised there, with no held-input line
    logged. ``clamp_nonnegative`` floors published densities at zero (the
    raw filter state keeps evolving unclamped).

    Of ``flows_vph`` only the entry flow, column 0, and the network's flow
    sensors are read. The measurement vector reads the sensors in ascending
    segment order, so ``tuning`` is sized to their number.

    Each step is the update of ``kf_step`` computed from the model's
    structure: see the module docstring.
    """
    n = idx.n_segments
    sensor_segments = tuple(sorted(cfg.flow_sensor_segments))
    if not sensor_segments:
        raise ValueError("at least one sensor segment is required")
    B = build_B(idx, cfg.lengths_km, cfg.time_step_h)
    # C only selects rows: C M == M[sel].
    sel = np.array(sensor_segments) - 1
    if tuning.dim != idx.dim:
        raise ValueError(f"tuning is sized for dim {tuning.dim}, model has {idx.dim}")
    if tuning.n_measurements != len(sensor_segments):
        raise ValueError(
            f"measurement_cov is {tuning.n_measurements}x{tuning.n_measurements},"
            f" but {len(sensor_segments)} sensors are in use"
        )

    def columns(meas: Measurements) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Speeds (K, N), sensor flows (K, m) and inputs (K, n_inputs), flows with their gaps."""
        if meas.speeds_kmh.shape[1] != n:
            raise ValueError(f"expected {n} segment speeds per step, got {meas.speeds_kmh.shape[1]}")
        flows = meas.flows_vph
        return meas.speeds_kmh, flows[:, sensor_segments], build_u(idx, flows[:, 0], meas.ramp_flows_vph)

    read = [columns(meas) for meas in runs]
    if not read:
        raise ValueError("run_filter_batch needs at least one run")
    step_counts = sorted({speeds.shape[0] for speeds, _, _ in read})
    if len(step_counts) > 1:
        raise ValueError(f"runs of a batch must share their step count, got {step_counts}")
    n_runs, K = len(read), step_counts[0]

    # Run-major columns: (runs, K, ...), gaps filled in place.
    speeds_used, z_used, u = (np.stack(column) for column in zip(*read))
    del read
    _hold(speeds_used, np.isfinite(speeds_used), default_speed_kmh)
    u_ok = np.isfinite(u)
    held_entry_steps = np.count_nonzero(~u_ok[..., 0], axis=1)
    held_ramp_steps = np.count_nonzero(~u_ok[..., 1:].all(axis=2), axis=1)
    _hold(u, u_ok, 0.0)
    # B u is formed per step: a (runs, K, dim) table would be as large as the states.
    # Sensor flows become density readings where the speed allows.
    v_sensor = speeds_used[..., sel]
    reading = np.isfinite(z_used) & (v_sensor > V_FLOOR_KMH)
    np.divide(z_used, v_sensor, out=z_used, where=reading)
    _hold(z_used, reading, tuning.initial_mean[sel])
    held_steps = np.count_nonzero(~reading.all(axis=2), axis=1)
    del u_ok, v_sensor, reading
    # The speeds the filter will use are final here: check them before the
    # covariance buffers exist, so the check's (K, N) temporaries never sit
    # beside them, and a strict run fails before its first step.
    cfls = [check_cfl(cfg, v) for v in speeds_used]
    cfl_msg = None if all(c.ok for c in cfls) else cfl_message(cfls)
    if cfl_msg and strict_cfl:
        raise CflViolationError(cfl_msg)

    d = idx.dim
    states = np.zeros((n_runs, K + 1, d))
    innovations = np.zeros((n_runs, K, len(sensor_segments)))
    R, Q = tuning.measurement_cov, tuning.process_cov
    x = np.repeat(tuning.initial_mean[np.newaxis], n_runs, axis=0)
    P = np.repeat(tuning.initial_cov[np.newaxis], n_runs, axis=0)
    states[:, 0] = x
    # Posterior [P - K C P | x + K nu], multiplied by A in one pass.
    posterior = np.empty((n_runs, d, d + 1))
    AM = np.empty_like(posterior)
    APA = np.empty_like(P)
    A_step = ltv_model._A_step(idx, cfg.lengths_km, cfg.time_step_h, n_runs)

    for k in range(K):
        innovation = z_used[:, k] - x[:, sel]
        innovations[:, k] = innovation
        CP = P[:, sel]
        gain = _gain(CP, CP[..., sel], R, k)
        np.subtract(P, gain @ CP, out=posterior[..., :d])
        posterior[..., d] = x + (gain @ innovation[..., np.newaxis])[..., 0]
        A_step(speeds_used[:, k], posterior, AM, APA)
        x = AM[..., d] + u[:, k] @ B.T
        APA += Q
        np.add(APA, APA.swapaxes(-1, -2), out=P)
        P *= 0.5
        states[:, k + 1] = x

    # One log line per batch for the held inputs, and one for the violations.
    held = [
        f"{name} missing at {int(c.sum())} of {n_runs * K} steps{_in_runs(np.count_nonzero(c), n_runs)}"
        for name, c in (("entry flow", held_entry_steps), ("measured ramp flow", held_ramp_steps)) if c.any()
    ]
    if held:
        logger.warning("%s; held the previous value", ", ".join(held))
    if cfl_msg:
        logger.warning(cfl_msg)

    published = states
    if clamp_nonnegative:
        published = states.copy()
        published[..., :n] = np.maximum(published[..., :n], 0.0)

    return [
        FilterResult(
            states=published[r],
            sensor_segments=sensor_segments,
            speeds_used=speeds_used[r],
            measurements_used=z_used[r],
            innovations=innovations[r],
            cfl=cfls[r],
            final=FilterState(x_hat=x[r], cov=P[r], k=K),
            index=idx,
            held_measurement_steps=int(held_steps[r]),
            held_entry_steps=int(held_entry_steps[r]),
            held_ramp_steps=int(held_ramp_steps[r]),
        )
        for r in range(n_runs)
    ]


def _in_runs(hits: int, n_runs: int) -> str:
    """Which runs of a batch a log line covers; empty for a single run."""
    return f" in {hits} of {n_runs} runs" if n_runs > 1 else ""


def observability_gramian(
    A_seq: Sequence[np.ndarray], C: np.ndarray, *, rank_rtol: float = 1e-10
) -> tuple[np.ndarray, int]:
    """Finite-horizon observability Gramian and its numerical rank.

    With transition matrices A(0)..A(M-2) the Gramian sums
    Phi(j)^T C^T C Phi(j) over j = 0..M-1, Phi(0) = I and
    Phi(j) = A(j-1) ... A(0). Rank counts singular values above
    ``rank_rtol`` times the largest.
    """
    A_seq = list(A_seq)
    dim = C.shape[1]
    G = np.zeros((dim, dim))
    phi = np.eye(dim)
    CtC = C.T @ C
    G += phi.T @ CtC @ phi
    for A in A_seq:
        phi = A @ phi
        G += phi.T @ CtC @ phi
    G = 0.5 * (G + G.T)
    s = np.linalg.svd(G, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return G, 0
    rank = int(np.sum(s > rank_rtol * s[0]))
    return G, rank

"""Density and ramp-flow estimation for highway stretches from probe speeds."""

from trafficstate.kalman import (
    FilterResult,
    FilterState,
    FilterTuning,
    default_tuning,
    kf_step,
    observability_gramian,
    run_filter,
    run_filter_batch,
)
from trafficstate.ltv_model import (
    LtvSnapshot,
    StateIndex,
    build_A,
    build_B,
    build_C,
    build_state_index,
    build_u,
)
from trafficstate.network import (
    CflReport,
    NetworkConfig,
    RampType,
    Segment,
    ValidationReport,
    check_cfl,
    load_network,
    save_network,
    validate_network,
)
from trafficstate.sensing import Measurements, load_detectors, load_trajectories
from trafficstate.simulate import (
    Scenario,
    SimulationResult,
    make_congestion_scenario,
    simulate_truth,
)

__version__ = "0.1.0"

__all__ = [
    "CflReport",
    "FilterResult",
    "FilterState",
    "FilterTuning",
    "LtvSnapshot",
    "Measurements",
    "NetworkConfig",
    "RampType",
    "Scenario",
    "Segment",
    "SimulationResult",
    "StateIndex",
    "ValidationReport",
    "build_A",
    "build_B",
    "build_C",
    "build_state_index",
    "build_u",
    "check_cfl",
    "default_tuning",
    "kf_step",
    "load_detectors",
    "load_network",
    "load_trajectories",
    "make_congestion_scenario",
    "observability_gramian",
    "run_filter",
    "run_filter_batch",
    "save_network",
    "simulate_truth",
    "validate_network",
    "__version__",
]

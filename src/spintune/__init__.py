"""Closed-loop tuning of simulated spin-qubit devices.

Gradient-free optimization of readout, shuttling and single-qubit gate
parameters against physics-backed simulated backends, with post-hoc
sensitivity and covariance analysis.
"""

from .cmaes import DistributionState, StrategyParams, ask, tell
from .dqd import (
    DqdConfig,
    NoiseModel,
    StateVector,
    evolve,
    hamiltonian,
    initialization_fidelity,
    sweep_fidelity_grid,
)
from .backends import (
    CostEvaluation,
    HiddenLandscape,
    ParameterSpace,
    ReadoutShots,
    SpaceEntry,
    make_readout_landscape,
    make_shuttle_landscape,
    readout_backend_evaluate,
    readout_space,
    rb_space,
    shuttle_backend_evaluate,
    shuttle_space,
    visibility,
    visibility_to_fidelity,
)
from .rb import RbConfig, clifford_table, per_gate_fidelity, rb_backend_evaluate
from .analysis import (
    CovarianceSeries,
    FitResult,
    SensitivityReport,
    covariance_average,
    covariance_trajectory,
    fit_decay,
    fit_rabi,
    hdmr_first_order,
    shuttle_fidelity,
)
from .harness import BatchResult, RunConfig, RunRecord, batch, export, load_record, run

__version__ = "0.1.0"

__all__ = [
    "DistributionState", "StrategyParams", "ask", "tell",
    "DqdConfig", "NoiseModel", "StateVector", "evolve", "hamiltonian",
    "initialization_fidelity", "sweep_fidelity_grid",
    "CostEvaluation", "HiddenLandscape", "ParameterSpace", "ReadoutShots",
    "SpaceEntry", "make_readout_landscape", "make_shuttle_landscape",
    "readout_backend_evaluate", "readout_space", "rb_space",
    "shuttle_backend_evaluate", "shuttle_space", "visibility",
    "visibility_to_fidelity",
    "RbConfig", "clifford_table", "per_gate_fidelity", "rb_backend_evaluate",
    "CovarianceSeries", "FitResult", "SensitivityReport",
    "covariance_average", "covariance_trajectory", "fit_decay", "fit_rabi",
    "hdmr_first_order", "shuttle_fidelity",
    "BatchResult", "RunConfig", "RunRecord", "batch", "export",
    "load_record", "run",
    "__version__",
]

"""Filtered intrusive polynomial-moment methods for 1D conservation laws."""

from .basis import QuadratureRule, gauss_rule, vandermonde
from .closures import ClosureSolver
from .config import ExperimentConfig, ScanConfig, list_presets, load_config, parse_config
from .errors import (
    BreakdownError,
    ConfigError,
    DualNonConvergenceError,
    FipmError,
    InadmissibleStateError,
    VacuumError,
)
from .euler import EulerEntropy, UncertainShockIC, project_ic
from .experiment import run_experiment, scan_figure1, sweep
from .filters import FilterKind, FilterSpec, gains
from .realizability import filter_image_scan, is_realizable_n2
from .solver import Closure, GridConfig, MomentSolver
from .stats import StatField, delta_metrics, error_norms, stats_from_moments

__all__ = [
    "QuadratureRule",
    "gauss_rule",
    "vandermonde",
    "ClosureSolver",
    "ExperimentConfig",
    "ScanConfig",
    "list_presets",
    "load_config",
    "parse_config",
    "BreakdownError",
    "ConfigError",
    "DualNonConvergenceError",
    "FipmError",
    "InadmissibleStateError",
    "VacuumError",
    "EulerEntropy",
    "run_experiment",
    "scan_figure1",
    "sweep",
    "FilterKind",
    "FilterSpec",
    "gains",
    "filter_image_scan",
    "is_realizable_n2",
    "Closure",
    "GridConfig",
    "MomentSolver",
    "UncertainShockIC",
    "project_ic",
    "StatField",
    "delta_metrics",
    "error_norms",
    "stats_from_moments",
]

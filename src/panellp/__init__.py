"""Panel local projections: event dummies, fixed-effects regressions per
horizon, and cluster-robust impulse-response bands."""

__version__ = "0.1.0"

from ._heap import hold_freed_heap
from .errors import (
    ConfigError,
    DataError,
    DegenerateDesignError,
    DegenerateVariableError,
    EmptySampleError,
    EventError,
    InsufficientClustersError,
    MissingVariableError,
    PanelLPError,
)
from .estimator import (
    CoefficientInterval,
    DesignMatrix,
    RegressionResult,
    cluster_covariance,
    coefficient_interval,
    fit_with_covariance,
    linear_combination,
    lsdv_fit,
    ols_fit,
    significance_stars,
)
from .events import (
    EventList,
    EventSet,
    PandemicEvent,
    SeverityClasses,
    build_dummies,
    severity_terciles,
)
from .ingest import (
    CARBON_TO_CO2,
    carbon_to_co2,
    load_config,
    merge,
    read_event_list,
    read_groups,
    read_irf,
    read_panel,
    write_irf,
    write_panel,
    write_regression_table,
)
from .lp import (
    IRF,
    GroupSpec,
    HorizonEstimate,
    LPSpec,
    TransitionState,
    build_baseline_design,
    build_interaction_design,
    build_transition_design,
    build_transition_state,
    estimate_irf,
    pp_conversion,
    smooth_transition,
)
from .panel import (
    Panel,
    VariableSpec,
    add_lag,
    apply_variable_spec,
    first_difference,
    horizon_delta,
    log_column,
    per_capita,
    scale_column,
    standardize,
    two_way_demean,
)

# every run of horizons frees and rebuilds a few MiB of arrays; keep that
# memory mapped, so a process's speed does not depend on what it freed first
hold_freed_heap()

__all__ = [
    "__version__",
    # errors
    "PanelLPError",
    "DataError",
    "ConfigError",
    "MissingVariableError",
    "DegenerateVariableError",
    "EmptySampleError",
    "DegenerateDesignError",
    "InsufficientClustersError",
    "EventError",
    # panel
    "Panel",
    "VariableSpec",
    "add_lag",
    "horizon_delta",
    "first_difference",
    "standardize",
    "log_column",
    "per_capita",
    "scale_column",
    "two_way_demean",
    "apply_variable_spec",
    # estimator
    "DesignMatrix",
    "RegressionResult",
    "CoefficientInterval",
    "ols_fit",
    "cluster_covariance",
    "fit_with_covariance",
    "coefficient_interval",
    "linear_combination",
    "lsdv_fit",
    "significance_stars",
    # events
    "PandemicEvent",
    "EventList",
    "EventSet",
    "SeverityClasses",
    "severity_terciles",
    "build_dummies",
    # lp
    "LPSpec",
    "GroupSpec",
    "TransitionState",
    "IRF",
    "HorizonEstimate",
    "smooth_transition",
    "build_transition_state",
    "build_baseline_design",
    "build_interaction_design",
    "build_transition_design",
    "estimate_irf",
    "pp_conversion",
    # ingest
    "CARBON_TO_CO2",
    "read_panel",
    "write_panel",
    "read_event_list",
    "read_groups",
    "carbon_to_co2",
    "merge",
    "write_irf",
    "read_irf",
    "write_regression_table",
    "load_config",
    # simgen
    "DGPSpec",
    "SimTruth",
    "generate",
]


def __getattr__(name: str):
    # the simulator loads on first use, so importing the package for an
    # estimate run does not pay for it
    if name in ("DGPSpec", "SimTruth", "generate"):
        from . import simgen

        return getattr(simgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

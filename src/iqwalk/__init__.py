"""Interacting discrete-time quantum walks and their entanglement diagnostics."""

from .conditioning import CoinProjection
from .errors import ContractViolationError, ZeroProbabilityError
from .linalg import SubsystemShape, hermitian_eig, partial_transpose
from .metrics import closeness, log_negativity, n_concurrence, trace_distance, von_neumann_entropy
from .runner import (
    BEST_CLUSTER_COINS,
    STANDARD_COINS,
    MetricSeries,
    SweepResult,
    SweepSpec,
    default_angle_grid,
    parse_angle,
    reproduce_figure,
    run_metric_series,
    run_sweep,
    series_csv,
    series_json,
)
from .states import ghz, graph_state, stabilizer_expectations, w_state
from .walk import (
    CoinParams,
    GraphTopology,
    PureState,
    WalkConfig,
    build_coin,
    evolve,
    standard_initial_state,
    trajectory,
    walk_shape,
)

__all__ = [
    "BEST_CLUSTER_COINS",
    "CoinParams",
    "CoinProjection",
    "ContractViolationError",
    "GraphTopology",
    "MetricSeries",
    "PureState",
    "STANDARD_COINS",
    "SubsystemShape",
    "SweepResult",
    "SweepSpec",
    "WalkConfig",
    "ZeroProbabilityError",
    "build_coin",
    "closeness",
    "default_angle_grid",
    "evolve",
    "ghz",
    "graph_state",
    "hermitian_eig",
    "log_negativity",
    "n_concurrence",
    "parse_angle",
    "partial_transpose",
    "reproduce_figure",
    "run_metric_series",
    "run_sweep",
    "series_csv",
    "series_json",
    "stabilizer_expectations",
    "standard_initial_state",
    "trace_distance",
    "trajectory",
    "von_neumann_entropy",
    "w_state",
    "walk_shape",
]

__version__ = "0.1.0"

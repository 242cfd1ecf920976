"""Generalized-cost model and Monte Carlo simulator for semi-on-demand
minibus corridors on grid networks."""

from .model import (
    CostParams,
    DEFAULT_REPLICATIONS,
    DEFAULT_SEED,
    GridGeometry,
    MetricSummary,
    Request,
    RoutePlan,
    Scenario,
    ScenarioError,
    ScenarioStats,
    ServiceConfig,
    Violation,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_problems,
    scenario_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "CostParams",
    "DEFAULT_REPLICATIONS",
    "DEFAULT_SEED",
    "GridGeometry",
    "MetricSummary",
    "Request",
    "RoutePlan",
    "Scenario",
    "ScenarioError",
    "ScenarioStats",
    "ServiceConfig",
    "Violation",
    "load_scenario",
    "save_scenario",
    "scenario_from_dict",
    "scenario_problems",
    "scenario_to_dict",
    "__version__",
]

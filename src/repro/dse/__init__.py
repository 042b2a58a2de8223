"""Design-space exploration: sweeps, constraints, and Pareto fronts."""

from repro.dse.optimizer import (
    ExplorationResult,
    explore,
    metric_disagreement,
)
from repro.dse.pareto import (
    dominates,
    pareto_front,
    pareto_mask,
)
from repro.dse.qos import Constraint, at_least, at_most, constrained_minimum
from repro.dse.sweep import (
    BatchSweepResult,
    FrozenParams,
    PlannedSweepResult,
    SweepRecord,
    argmin,
    feasible,
    sweep_1d,
    sweep_grid,
    sweep_grid_batched,
)

__all__ = [
    "BatchSweepResult",
    "Constraint",
    "ExplorationResult",
    "FrozenParams",
    "PlannedSweepResult",
    "SweepRecord",
    "argmin",
    "at_least",
    "at_most",
    "constrained_minimum",
    "dominates",
    "explore",
    "feasible",
    "metric_disagreement",
    "pareto_front",
    "pareto_mask",
    "sweep_1d",
    "sweep_grid",
    "sweep_grid_batched",
]

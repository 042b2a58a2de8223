"""Design-space exploration: sweeps, constraints, and Pareto fronts."""

from repro.dse.optimizer import (
    ExplorationResult,
    ExplorationSession,
    explore,
    explore_batched,
    metric_disagreement,
)
from repro.dse.pareto import (
    dominance_counts,
    dominates,
    pareto_front,
    pareto_mask,
    update_dominance_counts,
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
    "ExplorationSession",
    "FrozenParams",
    "PlannedSweepResult",
    "SweepRecord",
    "argmin",
    "at_least",
    "at_most",
    "constrained_minimum",
    "dominance_counts",
    "dominates",
    "explore",
    "explore_batched",
    "feasible",
    "metric_disagreement",
    "pareto_front",
    "pareto_mask",
    "sweep_1d",
    "sweep_grid",
    "sweep_grid_batched",
    "update_dominance_counts",
]

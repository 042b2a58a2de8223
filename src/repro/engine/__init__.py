"""Batched scenario evaluation: Eq. 1-8 as array kernels over N scenarios.

The scalar model (:class:`~repro.analysis.scenario.ActScenario`,
:class:`~repro.core.model.Platform`) is the reference implementation; this
package is its high-throughput twin.  A :class:`ScenarioBatch` holds N
complete parameter assignments struct-of-arrays style, :func:`evaluate_batch`
runs the full Eq. 1-8 pipeline over all rows at once, and
:class:`EvaluationCache` memoizes results by content hash so overlapping
sweeps never recompute.  The sweep / Monte Carlo / sensitivity / experiment
layers all build on these kernels; the equivalence test suite pins batched
output to the scalar path within 1e-9.

Use the scalar path for single designs and rich per-component reports; use
the engine whenever the same question is asked across a grid, a sample, or
a design space.

There is one float64 kernel body; the scalar ``core/`` model is its
oracle.
"""

from repro.engine.batch import FIELD_NAMES, ScenarioBatch, product_params
from repro.engine.cache import (
    DEFAULT_CACHE,
    CacheStats,
    EvaluationCache,
    batch_key,
    evaluate_cached,
)
from repro.engine.kernels import (
    BatchResult,
    cpa_g_per_cm2,
    evaluate_batch,
    operational_g,
    packaging_g,
    soc_embodied_g,
    storage_embodied_g,
    total_g,
)
from repro.engine.metrics import (
    canonical_metric,
    metric_columns,
    score_table_batched,
    stack_design_points,
    winners_batched,
    winners_from_table,
)
from repro.engine.plan import (
    SweepPlan,
    evaluate_plan_cached,
    plan_product,
    planner_engaged,
    verify_plan,
)

__all__ = [
    "BatchResult",
    "CacheStats",
    "DEFAULT_CACHE",
    "EvaluationCache",
    "FIELD_NAMES",
    "ScenarioBatch",
    "SweepPlan",
    "batch_key",
    "canonical_metric",
    "cpa_g_per_cm2",
    "evaluate_batch",
    "evaluate_cached",
    "evaluate_plan_cached",
    "metric_columns",
    "operational_g",
    "packaging_g",
    "plan_product",
    "planner_engaged",
    "product_params",
    "score_table_batched",
    "soc_embodied_g",
    "stack_design_points",
    "storage_embodied_g",
    "total_g",
    "verify_plan",
    "winners_batched",
    "winners_from_table",
]

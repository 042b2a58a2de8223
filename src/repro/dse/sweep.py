"""Generic parameter sweeps for carbon-aware design-space exploration.

Thin, typed helpers that the experiment modules build on: evaluate a design
generator over a one-dimensional parameter grid or the Cartesian product of
several named grids, keeping the (parameters → design) association so
results can be tabulated and constrained afterwards.

Two evaluation paths exist.  The scalar helpers (:func:`sweep_1d`,
:func:`sweep_grid`) call an arbitrary Python evaluator per point and remain
the reference implementation.  :func:`sweep_grid_batched` instead sweeps the
ACT model itself: it lowers the grid into a
:class:`~repro.engine.batch.ScenarioBatch` and evaluates Eq. 1-8 for every
point in one vectorized, cached pass — the same results, orders of
magnitude faster for large grids.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Generic,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
    TypeVar,
)

import numpy as np

from repro.analysis.scenario import ActScenario
from repro.core.errors import ConstraintError, ValidationError
from repro.engine.batch import ScenarioBatch, product_columns, product_params
from repro.engine.cache import EvaluationCache, evaluate_cached
from repro.engine.kernels import BatchResult
from repro.obs.context import current_context

if TYPE_CHECKING:  # pragma: no cover - robustness sits above this module
    from repro.engine.plan import SweepPlan
    from repro.robustness.guard import ColumnDiagnostic, GuardedEngine

P = TypeVar("P")
D = TypeVar("D")


def _canonical_param(value: object) -> object:
    """Collapse numpy scalar wrappers to the Python scalars they box.

    Sweep points arrive as whatever type produced them — ``5.0`` from a
    literal grid, ``np.float64(5.0)`` from an array column, a 0-d array
    from an aggregation.  0-d arrays are unhashable outright, and boxed
    scalars make memo hits depend on provenance, so parameter values are
    normalized once at freeze time: numerically equal points hash and
    compare identically no matter which type produced them.
    """
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    if isinstance(value, np.generic):
        return value.item()
    return value


class FrozenParams(Mapping[str, object]):
    """An immutable, hashable parameter mapping.

    ``SweepRecord`` is a frozen dataclass, but a frozen dataclass holding a
    plain ``dict`` is neither hashable nor safe to use as a cache key.  This
    wrapper freezes the mapping at construction (normalizing numpy scalar
    values, see :func:`_canonical_param`) and hashes by item set, so
    records can go straight into sets, dict keys, and memo tables.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Mapping[str, object]):
        self._items = {
            key: _canonical_param(value) for key, value in items.items()
        }

    def __getitem__(self, key: str) -> object:
        return self._items[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return hash(frozenset(self._items.items()))

    def __repr__(self) -> str:
        return f"FrozenParams({self._items!r})"


@dataclass(frozen=True)
class SweepRecord(Generic[D]):
    """One evaluated point of a sweep: the parameters and the design."""

    params: Mapping[str, object]
    design: D

    def __post_init__(self) -> None:
        # Freeze the mapping so frozen records are genuinely immutable and
        # hashable (dict-valued fields would break hash() and cache keys).
        if not isinstance(self.params, FrozenParams):
            object.__setattr__(self, "params", FrozenParams(self.params))


def sweep_1d(
    name: str, values: Iterable[P], evaluate: Callable[[P], D]
) -> tuple[SweepRecord[D], ...]:
    """Evaluate a single-parameter sweep.

    Args:
        name: Parameter name recorded on each result.
        values: Grid of parameter values.
        evaluate: Maps one parameter value to a design/result object.
    """
    context = current_context()
    with context.span("dse.sweep_1d", parameter=name):
        records = tuple(
            SweepRecord(params={name: value}, design=evaluate(value))
            for value in values
        )
    if context.enabled:
        context.count("dse.sweep.points", len(records))
    return records


def sweep_grid(
    grids: Mapping[str, Sequence[object]],
    evaluate: Callable[..., D],
) -> tuple[SweepRecord[D], ...]:
    """Evaluate the Cartesian product of several named parameter grids.

    ``evaluate`` is called with the grid names as keyword arguments.
    """
    if not grids:
        raise ConstraintError("at least one parameter grid is required")
    names = tuple(grids)
    context = current_context()
    with context.span("dse.sweep_grid_scalar", dimensions=len(names)):
        records = []
        for combo in itertools.product(*(grids[name] for name in names)):
            params = dict(zip(names, combo))
            records.append(
                SweepRecord(params=params, design=evaluate(**params))
            )
    if context.enabled:
        context.count("dse.sweep.points", len(records))
    return tuple(records)


@dataclass(frozen=True)
class BatchSweepResult:
    """A fully-evaluated ACT-model grid sweep, struct-of-arrays style.

    Attributes:
        names: The swept parameter names, in grid order.
        batch: The evaluated scenario batch (row ``i`` = grid point ``i``,
            ordered like ``itertools.product`` over the grids).
        result: Every Eq. 1-8 output series aligned with the batch rows.
    """

    names: tuple[str, ...]
    batch: ScenarioBatch
    result: BatchResult

    def __len__(self) -> int:
        return len(self.batch)

    def params(self, index: int) -> dict[str, float]:
        """The swept-parameter assignment of grid point ``index``."""
        return {
            name: float(self.batch.column(name)[index]) for name in self.names
        }

    def argmin(self, series: str = "total_g") -> int:
        """Row index minimizing one result series (default: Eq. 1 total).

        ``NaN`` rows — rows marked missing — never win.

        Raises:
            ValidationError: Every row of the series is ``NaN``.
        """
        values = getattr(self.result, series)
        index = int(np.argmin(values))
        if np.isnan(values[index]):
            # np.argmin stops at the first NaN; only then pay for the
            # NaN-aware scan.
            if np.isnan(values).all():
                raise ValidationError(
                    f"no minimum: every row of series {series!r} is NaN"
                )
            index = int(np.nanargmin(values))
        return index

    def min_record(self, series: str = "total_g") -> SweepRecord[ActScenario]:
        """The minimizing grid point as a scalar-compatible sweep record."""
        index = self.argmin(series)
        return SweepRecord(
            params=self.params(index), design=self.batch.scenario(index)
        )

    def records(self) -> tuple[SweepRecord[float], ...]:
        """Scalar-compatible records carrying each point's total footprint."""
        totals = self.result.total_g
        return tuple(
            SweepRecord(params=self.params(index), design=float(totals[index]))
            for index in range(len(self))
        )


class PlannedSweepResult(BatchSweepResult):
    """A planned sweep whose dense input batch materializes lazily.

    The factored evaluator produces every output series without ever
    building the 18-column dense batch, and most sweep consumers
    (``argmin`` over a series, reading a response surface) never touch
    the input columns at all.  ``batch`` is therefore built from the
    plan on first attribute access and cached — the identical
    :class:`~repro.engine.batch.ScenarioBatch` the eager constructor
    would hold, minus the upfront materialization cost on the planned
    hot path.

    Attributes:
        plan: The :class:`~repro.engine.plan.SweepPlan` this result was
            evaluated from.
    """

    def __init__(
        self,
        *,
        names: tuple[str, ...],
        result: BatchResult,
        plan: "SweepPlan",
    ):
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "result", result)
        object.__setattr__(self, "plan", plan)

    def __getattr__(self, name: str) -> object:
        if name == "batch":
            plan = self.__dict__.get("plan")
            if plan is None:  # mid-unpickle, before "plan" lands
                raise AttributeError(name)
            batch = plan.batch()
            object.__setattr__(self, "batch", batch)
            return batch
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __len__(self) -> int:
        return len(self.result)


@dataclass(frozen=True)
class GuardedSweepResult(BatchSweepResult):
    """A guarded grid sweep: the surviving points plus what was masked.

    A drop-in :class:`BatchSweepResult` whose batch holds only the rows
    the guard accepted (with ``repair``-policy clamping applied), plus the
    guard's bookkeeping so callers can see exactly which grid points were
    dropped and why.

    Attributes:
        valid: Boolean mask over the *original* grid rows.
        source_indices: Original grid-row index of each surviving row.
        diagnostics: Everything the guard's validation found.
    """

    valid: np.ndarray = None  # type: ignore[assignment]
    source_indices: np.ndarray = None  # type: ignore[assignment]
    diagnostics: "tuple[ColumnDiagnostic, ...]" = ()

    @property
    def masked_count(self) -> int:
        """How many grid points the guard masked out."""
        return int(self.valid.size - np.count_nonzero(self.valid))


def _planned_sweep(
    base: ActScenario,
    grids: Mapping[str, Sequence[float]],
    cache: "EvaluationCache | None",
) -> BatchSweepResult:
    """The factored serial sweep (see :mod:`repro.engine.plan`).

    Bit-identical to the dense path: the plan
    evaluates each Eq. 1-8 partial once on its marginal grid and
    broadcasts the outer products out, the sampled cross-check re-derives
    up to 32 rows densely, and the result batch is the same grid with
    constant columns kept as zero-stride views.
    """
    from repro.engine.plan import evaluate_plan_cached, plan_product, verify_plan

    plan = plan_product(base, grids)
    context = current_context()
    if context.enabled:
        context.count("dse.sweep.points", plan.size)
    result = evaluate_plan_cached(plan, cache)
    verify_plan(plan, result)
    return PlannedSweepResult(names=plan.names, result=result, plan=plan)


def _grid_size(grids: Mapping[str, Sequence[float]]) -> int:
    """The Cartesian row count of ``grids`` (0 for a malformed grid)."""
    size = 1
    for values in grids.values():
        axis = np.asarray(values)
        if axis.ndim != 1:
            return 0
        size *= int(axis.size)
    return size


def sweep_grid_batched(
    base: ActScenario,
    grids: Mapping[str, Sequence[float]],
    *,
    cache: EvaluationCache | None = None,
    guard: "GuardedEngine | None" = None,
) -> BatchSweepResult:
    """Sweep the ACT model over a parameter grid in one vectorized pass.

    The batched twin of ``sweep_grid(grids, lambda **p: base.replace(**p))``:
    every Cartesian grid point becomes one batch row, Eq. 1-8 run once over
    the whole batch, and repeated sweeps of an identical grid are served
    from the content-hash cache.

    Args:
        base: Scenario providing every non-swept parameter.
        grids: Named grids over :class:`ActScenario` fields.
        cache: Optional evaluation cache (default: the process-wide one).
        guard: Optional :class:`~repro.robustness.guard.GuardedEngine`.
            When given, the grid columns are validated (and repaired or
            masked, per policy) before evaluation and a
            :class:`GuardedSweepResult` over the surviving points is
            returned.

    Sweeps run in-process: the kernel evaluates a grid row faster than
    the row's columns could be shipped to a worker process and back, and
    a planned sweep leaves no per-row work to spread.

    An unguarded grid of at least
    :data:`~repro.engine.plan.AUTO_MIN_ROWS` points takes the
    structure-aware planner (:mod:`repro.engine.plan`): Eq. 1-8 are
    factored into per-axis partial terms evaluated once on their marginal
    grids — bit-identical results, orders of magnitude less arithmetic on
    separable grids.  Smaller and guarded sweeps run densely.
    """
    if not grids:
        raise ConstraintError("at least one parameter grid is required")
    from repro.engine.plan import planner_engaged

    context = current_context()
    with context.span(
        "dse.sweep_grid", dimensions=len(grids), guarded=guard is not None
    ):
        if guard is not None:
            size, columns = product_columns(base, grids)
            if context.enabled:
                context.count("dse.sweep.points", size)
            guarded = guard.evaluate_columns(base, size, columns)
            return GuardedSweepResult(
                names=tuple(grids),
                batch=guarded.batch,
                result=guarded.result,
                valid=guarded.valid,
                source_indices=guarded.indices,
                diagnostics=guarded.diagnostics,
            )
        if planner_engaged(_grid_size(grids)):
            return _planned_sweep(base, grids, cache)
        batch = ScenarioBatch.from_product(base, grids)
        if context.enabled:
            context.count("dse.sweep.points", len(batch))
        result = evaluate_cached(batch, cache)
        return BatchSweepResult(names=tuple(grids), batch=batch, result=result)


def argmin(
    records: Sequence[SweepRecord[D]], key: Callable[[D], float]
) -> SweepRecord[D]:
    """The record whose design minimizes ``key``."""
    if not records:
        raise ConstraintError("cannot take argmin of an empty sweep")
    return min(records, key=lambda record: key(record.design))


def feasible(
    records: Sequence[SweepRecord[D]], predicate: Callable[[D], bool]
) -> tuple[SweepRecord[D], ...]:
    """The records whose designs satisfy a constraint predicate."""
    return tuple(record for record in records if predicate(record.design))


__all__ = [
    "BatchSweepResult",
    "FrozenParams",
    "GuardedSweepResult",
    "SweepRecord",
    "argmin",
    "feasible",
    "product_params",
    "sweep_1d",
    "sweep_grid",
    "sweep_grid_batched",
]

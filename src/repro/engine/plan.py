"""Structure-aware sweep planning: factored Eq. 1-8 evaluation over grids.

A Cartesian grid sweep evaluates the same shallow sum-of-products for
every one of the ``∏ n_i`` rows, yet each model term reads only one or
two of the swept parameters: Eq. 5's ``cpa`` depends on the fab columns,
Eq. 2's operational term on ``energy × ci_use``, the storage terms on
their own capacity/intensity pairs.  The planner exploits that structure
instead of re-deriving it per row.

:func:`plan_product` analyzes which batch columns vary along which grid
axes and builds a :class:`SweepPlan`.  Evaluation then runs the exact
Eq. 5→4→3→1 operation DAG of the float64 kernel over *axis-shaped
marginal arrays*: each swept column is reshaped so its values lie along
its own grid axis (singleton everywhere else) and each constant column
collapses to a scalar.  Numpy broadcasting keeps every intermediate at
the marginal grid of the union of its operands' axes — the factored
"partial terms" fall out of the DAG without hand-written factoring rules
— and only the ten output series are materialized to full grid length,
via broadcasted outer products.  Because every elementwise IEEE
operation is a deterministic function of its operand *values*, and each
full-grid element sees exactly the operand values the dense row-wise
pass sees, the planned result is **bit-identical** to the dense batched
path.

Two cooperating mechanisms live here:

* the factored evaluator itself (:meth:`SweepPlan.evaluate`, with
  :meth:`SweepPlan.partial_series` / :meth:`SweepPlan.gather_rows` for
  chunked runners and parallel shards that want the small factor tables
  instead of full series);
* a sampled planned-vs-dense cross-check (:func:`verify_plan`) so a
  planner bug is caught on its first sweep instead of silently
  corrupting results.

Grid size alone selects the path (:func:`planner_engaged`): a sweep of
at least :data:`AUTO_MIN_ROWS` points is planned, a smaller one runs
densely, and guarded sweeps always run densely.  The answer is the
same either way.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.errors import (
    DivergenceError,
    ParameterError,
    UnknownEntryError,
)
from repro.engine.batch import (
    FIELD_NAMES,
    ScenarioBatch,
    _require_column,
    prevalidated_batch,
)
from repro.engine.cache import DEFAULT_CACHE, EvaluationCache
from repro.engine.kernels import BatchResult, evaluate_batch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.scenario import ActScenario

#: Below this row count sweeps stay on the dense path: the planner's
#: fixed costs (plan analysis, per-series materialization, the sampled
#: cross-check) only amortize on grids with real fan-out.
AUTO_MIN_ROWS = 512

#: Sampled rows for the planned-vs-dense cross-check.
VERIFY_SAMPLE_ROWS = 32

_MAX_SHOWN = 8

#: ``=d`` packs a native-order IEEE double, byte-identical to a one-row
#: float64 column's ``tobytes()`` (mirrors ``repro.engine.cache``).
_PACK_DOUBLE = struct.Struct("=d").pack

#: The ten output series, in ``BatchResult`` field order.
SERIES_NAMES: tuple[str, ...] = tuple(BatchResult.__dataclass_fields__)


def planner_engaged(rows: int) -> bool:
    """Whether an unguarded sweep of ``rows`` points is planned.

    Grid size is the only selector: :data:`AUTO_MIN_ROWS` points or
    more, so small sweeps skip the planner's fixed costs.
    """
    return rows >= AUTO_MIN_ROWS


# --- the factored sweep plan ---------------------------------------------


@dataclass(frozen=True)
class SweepPlan:
    """A Cartesian sweep, factored by which column varies on which axis.

    Attributes:
        base: Scenario providing every non-swept parameter.
        names: The swept parameter names, in grid (= axis) order.
        axes: One validated float64 value array per swept parameter.

    Row ``i`` of the planned sweep is the ``np.unravel_index(i, shape)``
    combination of axis values — exactly the ``itertools.product`` order
    of :meth:`~repro.engine.batch.ScenarioBatch.from_product`.
    """

    base: "ActScenario"
    names: tuple[str, ...]
    axes: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        frozen = []
        for axis in self.axes:
            axis = np.ascontiguousarray(axis, dtype=np.float64)
            axis.flags.writeable = False
            frozen.append(axis)
        object.__setattr__(self, "axes", tuple(frozen))

    @property
    def shape(self) -> tuple[int, ...]:
        """The grid shape, one dimension per swept axis."""
        return tuple(int(axis.size) for axis in self.axes)

    @property
    def size(self) -> int:
        """Total grid points (``∏ n_i``)."""
        size = 1
        for axis in self.axes:
            size *= int(axis.size)
        return size

    def __len__(self) -> int:
        return self.size

    @property
    def content_key(self) -> str:
        """A content hash identifying this plan's full dense batch.

        Folds the base scenario's 18 field values, the swept names, and
        every axis's bytes into one digest.  Domain-prefixed so plan
        entries can share an :class:`EvaluationCache` with batch- and
        scenario-keyed entries without collisions.
        """
        digest = hashlib.sha256()
        digest.update(b"act-sweep-plan:")
        digest.update(self.size.to_bytes(8, "little"))
        for name in FIELD_NAMES:
            digest.update(name.encode("ascii"))
            digest.update(_PACK_DOUBLE(getattr(self.base, name)))
        for name, axis in zip(self.names, self.axes):
            digest.update(name.encode("ascii"))
            digest.update(axis.tobytes())
        return digest.hexdigest()

    # --- factored evaluation --------------------------------------------

    def _factors(self) -> dict[str, np.ndarray | np.floating]:
        """Each batch column as its marginal factor.

        Swept columns come back axis-shaped (their values along their own
        grid dimension, singleton elsewhere); constant columns collapse
        to 0-d float64 scalars.
        """
        rank = len(self.names)
        factors: dict[str, np.ndarray | np.floating] = {}
        for position, (name, axis) in enumerate(zip(self.names, self.axes)):
            shape = [1] * rank
            shape[position] = axis.size
            factors[name] = axis.reshape(shape)
        for name in FIELD_NAMES:
            if name not in factors:
                factors[name] = np.float64(getattr(self.base, name))
        return factors

    def partial_series(self) -> dict[str, np.ndarray]:
        """Every output series as a broadcast-shaped marginal factor table.

        Runs the kernel's Eq. 5→4→3→1 DAG over the axis-shaped column
        factors; each returned array's shape is the marginal grid of the
        axes that series actually depends on (singleton dimensions
        elsewhere, 0-d for axis-invariant series).  Broadcasting any
        table to :attr:`shape` and flattening C-order yields the dense
        series bit-for-bit.
        """
        f = self._factors()
        # The kernel's exact operation order (kernels.py):
        # any reordering could break bit-identity with the dense pass.
        cpa = (
            f["ci_fab_g_per_kwh"] * f["epa_kwh_per_cm2"]
            + f["gpa_g_per_cm2"]
            + f["mpa_g_per_cm2"]
        ) / f["fab_yield"]
        soc = f["soc_area_cm2"] * cpa
        dram = f["dram_gb"] * f["cps_dram_g_per_gb"]
        ssd = f["ssd_gb"] * f["cps_ssd_g_per_gb"]
        hdd = f["hdd_gb"] * f["cps_hdd_g_per_gb"]
        packaging = f["ic_count"] * f["packaging_g_per_ic"]
        # Summed in ActScenario.embodied_g's term order for bit parity.
        embodied = packaging + soc + dram + ssd + hdd
        operational = f["energy_kwh"] * f["ci_use_g_per_kwh"]
        fraction = f["duration_hours"] / f["lifetime_hours"]
        totals = operational + fraction * embodied
        return {
            "operational_g": np.asarray(operational),
            "cpa_g_per_cm2": np.asarray(cpa),
            "soc_embodied_g": np.asarray(soc),
            "dram_embodied_g": np.asarray(dram),
            "ssd_embodied_g": np.asarray(ssd),
            "hdd_embodied_g": np.asarray(hdd),
            "packaging_g": np.asarray(packaging),
            "embodied_g": np.asarray(embodied),
            "lifetime_fraction": np.asarray(fraction),
            "total_g": np.asarray(totals),
        }

    def gather_rows(
        self,
        factors: Mapping[str, np.ndarray],
        start: int,
        stop: int,
    ) -> dict[str, np.ndarray]:
        """Rows ``[start, stop)`` of each factored series, as 1-D arrays.

        Chunked runners and parallel shards call this instead of
        materializing the full grid: the cost is proportional to the
        slice, and the gathered values are the broadcast outer product's
        — bit-identical to the dense rows.
        """
        if not 0 <= start <= stop <= self.size:
            raise ParameterError(
                f"row range [{start}, {stop}) is outside the "
                f"{self.size}-point grid"
            )
        shape = self.shape
        indices = np.unravel_index(np.arange(start, stop, dtype=np.intp), shape)
        return {
            name: np.ascontiguousarray(
                np.broadcast_to(np.asarray(factor), shape)[indices]
            )
            for name, factor in factors.items()
        }

    def evaluate(self) -> BatchResult:
        """The full :class:`BatchResult` of this sweep, factored-first.

        Bit-identical to evaluating the dense
        :meth:`~repro.engine.batch.ScenarioBatch.from_product` batch:
        each partial is computed once on
        its marginal grid, then broadcast out to full length — the only
        O(rows) work is the ten final series copies.
        """
        factors = self.partial_series()
        shape = self.shape
        size = self.size
        # One block allocation for all ten series: a single large buffer
        # plus broadcast assignment per row is ~2x faster than ten
        # separate allocations, and the values are bit-identical (each
        # assignment is a plain IEEE copy of the factor's outer product).
        block = np.empty((len(factors), size), dtype=np.float64)
        columns = {}
        for position, (name, factor) in enumerate(factors.items()):
            row = block[position]
            row.reshape(shape)[...] = factor
            columns[name] = row
        # Rows are views of the shared block; freezing the block (not
        # just the views) keeps cached results immutable through .base.
        block.flags.writeable = False
        return BatchResult(**columns)

    # --- dense materialization ------------------------------------------

    def column_values(self, name: str, indices: np.ndarray) -> np.ndarray:
        """Column ``name`` at the given dense row ``indices`` (float64)."""
        if name not in FIELD_NAMES:
            raise UnknownEntryError("scenario parameter", name, FIELD_NAMES)
        if name in self.names:
            position = self.names.index(name)
            multi = np.unravel_index(
                np.asarray(indices, dtype=np.intp), self.shape
            )
            return np.ascontiguousarray(self.axes[position][multi[position]])
        return np.full(len(indices), getattr(self.base, name), dtype=np.float64)

    def batch(self) -> ScenarioBatch:
        """The dense :class:`ScenarioBatch` this plan describes.

        Swept columns are materialized (one owned array each, built from
        broadcast views with no intermediate full-grid copies); constant
        columns stay **zero-stride broadcast views**, so an 18-column
        batch over a 4-axis grid allocates 4 full columns instead of 18.
        Values were validated at plan construction (axes) or scenario
        construction (base), so per-element re-validation is skipped
        exactly as :func:`~repro.engine.batch.prevalidated_batch` does.
        """
        shape = self.shape
        size = self.size
        rank = len(self.names)
        batch = object.__new__(ScenarioBatch)
        for name in FIELD_NAMES:
            if name in self.names:
                position = self.names.index(name)
                axis_shape = [1] * rank
                axis_shape[position] = shape[position]
                column = np.empty(size, dtype=np.float64)
                column.reshape(shape)[...] = self.axes[position].reshape(
                    axis_shape
                )
            else:
                column = np.broadcast_to(
                    np.float64(getattr(self.base, name)), (size,)
                )
            column.flags.writeable = False
            object.__setattr__(batch, name, column)
        return batch


def plan_product(
    base: "ActScenario",
    grids: Mapping[str, Sequence[float]],
) -> SweepPlan:
    """Analyze a Cartesian grid over ``base`` into a :class:`SweepPlan`.

    Validation mirrors the dense path exactly — unknown parameter names,
    malformed grids, and out-of-domain axis values raise the same typed
    errors building :meth:`ScenarioBatch.from_product` would, so the
    planned and dense paths are interchangeable even in their failures.
    """
    if not grids:
        raise ParameterError("at least one parameter grid is required")
    names = tuple(grids)
    unknown = set(names) - set(FIELD_NAMES)
    if unknown:
        raise UnknownEntryError(
            "scenario parameter", ", ".join(sorted(unknown)), FIELD_NAMES
        )
    axes = []
    for name in names:
        axis = np.asarray(grids[name], dtype=np.float64)
        if axis.ndim != 1 or axis.size == 0:
            raise ParameterError("every grid must be a non-empty 1-D sequence")
        # The same per-element domain checks the dense batch constructor
        # runs over the full column — one axis is every value it takes.
        _require_column(name, axis)
        axes.append(axis)
    return SweepPlan(base=base, names=names, axes=tuple(axes))


def evaluate_plan_cached(
    plan: SweepPlan, cache: EvaluationCache | None = None
) -> BatchResult:
    """Evaluate a plan through ``cache`` (default: the process-wide one).

    Entries are keyed by the plan's content hash (base values + axes),
    so re-sweeping an identical grid is a cache hit without
    materializing — or hashing — the dense columns.
    """
    if cache is None:
        cache = DEFAULT_CACHE
    key = plan.content_key
    cached = cache.peek_by_key(key, plan.size)
    if cached is not None:
        return cached
    result = plan.evaluate()
    cache.put_by_key(key, result)
    return result


# --- sampled planned-vs-dense cross-check --------------------------------


def verify_plan(
    plan: SweepPlan,
    result: BatchResult,
    *,
    tolerance: float = 0.0,
    sample_rows: int = VERIFY_SAMPLE_ROWS,
) -> None:
    """Spot-check a planned result against the dense kernel pass.

    Up to ``sample_rows`` evenly-strided grid rows are materialized as a
    dense sub-batch and re-evaluated through the ordinary
    :func:`~repro.engine.kernels.evaluate_batch`; every output series
    must agree within ``tolerance`` (exactly-equal and NaN-on-both-sides
    rows agree by definition — for a correct plan the comparison is
    exact, so even a zero tolerance passes).  Bounded cost, first-batch
    detection.

    Raises:
        DivergenceError: A sampled row disagrees beyond tolerance.
    """
    rows = plan.size
    stride = max(1, rows // sample_rows)
    sample = np.arange(0, rows, stride, dtype=np.intp)[:sample_rows]
    # One unravel shared by every swept column (column_values would
    # recompute it per name — this check runs on every planned sweep).
    multi = np.unravel_index(sample, plan.shape)
    columns = {}
    for name in FIELD_NAMES:
        if name in plan.names:
            position = plan.names.index(name)
            columns[name] = np.ascontiguousarray(
                plan.axes[position][multi[position]]
            )
        else:
            columns[name] = np.full(
                sample.size, getattr(plan.base, name), dtype=np.float64
            )
    sub_batch = prevalidated_batch(columns)
    with np.errstate(over="ignore", invalid="ignore"):
        dense = evaluate_batch(sub_batch)
    bound = float(tolerance)
    # All ten series stacked into one (series, sample) comparison: the
    # sampled matrices are tiny, so one vectorized pass beats a per-series
    # loop of small kernel launches and errstate context switches.
    planned_rows = np.stack(
        [getattr(result, name)[sample] for name in SERIES_NAMES]
    )
    expected_rows = np.stack([getattr(dense, name) for name in SERIES_NAMES])
    with np.errstate(invalid="ignore", over="ignore"):
        scale = np.maximum(1.0, np.abs(expected_rows))
        disagree = ~(np.abs(planned_rows - expected_rows) <= bound * scale)
        disagree &= ~(planned_rows == expected_rows)
        disagree &= ~(np.isnan(planned_rows) & np.isnan(expected_rows))
    if disagree.any():
        position = int(np.flatnonzero(disagree.any(axis=1))[0])
        series = SERIES_NAMES[position]
        planned = planned_rows[position]
        expected = expected_rows[position]
        bad = np.flatnonzero(disagree[position])
        indices = [int(sample[i]) for i in bad]
        raise DivergenceError(
            f"planned {series} diverges from the dense "
            f"pass at sampled row(s) "
            f"{indices[:_MAX_SHOWN]} (tolerance {bound:g})",
            series=series,
            indices=indices,
            batched=[float(planned[i]) for i in bad],
            reference=[float(expected[i]) for i in bad],
            tolerance=bound,
        )


__all__ = [
    "AUTO_MIN_ROWS",
    "SweepPlan",
    "VERIFY_SAMPLE_ROWS",
    "evaluate_plan_cached",
    "planner_engaged",
    "plan_product",
    "verify_plan",
]

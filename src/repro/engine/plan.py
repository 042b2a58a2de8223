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

Three cooperating mechanisms live here:

* the factored evaluator itself (:meth:`SweepPlan.evaluate`, with
  :meth:`SweepPlan.partial_series` / :meth:`SweepPlan.gather_rows` for
  chunked runners and parallel shards that want the small factor tables
  instead of full series);
* unique-row deduplication (:func:`dedup_rows`,
  :func:`evaluate_batch_deduped`) so batches with repeated rows — Monte
  Carlo draws over discrete axes, optimizer revisits — pay one kernel
  pass per *distinct* row, composing with the content-hash cache via
  per-unique-row keys;
* a sampled planned-vs-dense cross-check (:func:`verify_plan`) so a
  planner bug is caught on its first sweep instead of silently
  corrupting results.

Planner selection uses a process-wide stack: install a mode for a block
with :func:`use_planner` (``"auto"``, ``"on"``, ``"off"``); the stack
bottoms out at the ``ACT_REPRO_PLANNER`` environment variable (default
``auto``).  Guarded sweeps fall back to the dense path with identical
results.
"""

from __future__ import annotations

import hashlib
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

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
from repro.engine.cache import (
    DEFAULT_CACHE,
    EvaluationCache,
    evaluate_cached,
    row_key,
)
from repro.engine.kernels import BatchResult, evaluate_batch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.scenario import ActScenario

#: Canonical planner modes.  ``auto`` engages the planned path when it is
#: applicable *and* the grid is large enough to win; ``on`` engages it
#: whenever it is applicable; ``off`` never does.
PLANNER_AUTO = "auto"
PLANNER_ON = "on"
PLANNER_OFF = "off"
PLANNER_MODES = (PLANNER_AUTO, PLANNER_ON, PLANNER_OFF)

#: Environment variable naming the process-default planner mode (the
#: bottom of the :func:`use_planner` stack).
PLANNER_ENV_VAR = "ACT_REPRO_PLANNER"

#: Below this row count ``auto`` stays on the dense path: the planner's
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


# --- planner mode selection ----------------------------------------------

_ACTIVE_MODES: list[str | None] = [None]
_ENV_DEFAULT: str | None = None


def _validated_mode(mode: str) -> str:
    if mode not in PLANNER_MODES:
        raise ParameterError(
            f"unknown planner mode {mode!r} "
            f"(expected one of: {', '.join(PLANNER_MODES)})"
        )
    return mode


def _default_mode() -> str:
    """The stack's bottom: ``$ACT_REPRO_PLANNER`` or ``auto``."""
    global _ENV_DEFAULT
    if _ENV_DEFAULT is None:
        _ENV_DEFAULT = _validated_mode(
            os.environ.get(PLANNER_ENV_VAR, PLANNER_AUTO) or PLANNER_AUTO
        )
    return _ENV_DEFAULT


def current_planner_mode() -> str:
    """The innermost installed planner mode (default: ``auto`` / env)."""
    mode = _ACTIVE_MODES[-1]
    if mode is not None:
        return mode
    return _default_mode()


def resolve_planner_mode(mode: str | None) -> str:
    """Normalize a ``planner=`` argument to a canonical mode string.

    ``None`` falls back to :func:`current_planner_mode`; anything else
    must be one of :data:`PLANNER_MODES`.
    """
    if mode is None:
        return current_planner_mode()
    return _validated_mode(mode)


@contextmanager
def use_planner(mode: str | None) -> Iterator[str | None]:
    """Install a planner mode process-wide for the block.

    Installing ``None`` is transparent (the current selection stays in
    effect), so CLI code can write ``with use_planner(args.planner)``
    unconditionally.  Unknown modes fail at the ``with`` statement.
    """
    resolved = _validated_mode(mode) if mode is not None else None
    _ACTIVE_MODES.append(resolved if resolved is not None else _ACTIVE_MODES[-1])
    try:
        yield resolved
    finally:
        _ACTIVE_MODES.pop()


def planner_engaged(mode: str, rows: int) -> bool:
    """Whether a sweep of ``rows`` points takes the planned path.

    ``off`` never engages; ``auto`` requires at least
    :data:`AUTO_MIN_ROWS` grid points so small sweeps skip the planner's
    fixed costs.
    """
    if mode == PLANNER_OFF:
        return False
    if mode == PLANNER_AUTO and rows < AUTO_MIN_ROWS:
        return False
    return True


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


# --- unique-row deduplication --------------------------------------------


@dataclass(frozen=True)
class DedupPlan:
    """A gather–scatter over a batch's unique rows.

    Attributes:
        rows: Rows in the original batch.
        index: Original-row index of each unique row (sorted unique
            order, as ``np.unique`` produces).
        inverse: For each original row, its position in the unique set —
            ``gathered[inverse]`` reconstructs any per-row array in the
            **original row order**.
    """

    rows: int
    index: np.ndarray
    inverse: np.ndarray

    def __post_init__(self) -> None:
        for name in ("index", "inverse"):
            array = np.ascontiguousarray(getattr(self, name), dtype=np.intp)
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def unique_count(self) -> int:
        """How many distinct rows the batch holds."""
        return int(self.index.size)

    @property
    def duplicate_fraction(self) -> float:
        """Fraction of rows that are repeats of an earlier-sorted row."""
        return 1.0 - self.unique_count / self.rows if self.rows else 0.0

    def gather(self, column: np.ndarray) -> np.ndarray:
        """``column`` restricted to one representative per unique row."""
        return np.ascontiguousarray(np.asarray(column)[self.index])

    def scatter(self, unique_values: np.ndarray) -> np.ndarray:
        """Per-unique-row values expanded back to original row order.

        Preserves row order and per-row flags exactly: row ``i`` of the
        output is ``unique_values[inverse[i]]``, so boolean ``valid``
        masks round-trip through gather/scatter unchanged.
        """
        return np.asarray(unique_values)[self.inverse]


def dedup_rows(
    columns: Mapping[str, np.ndarray], rows: int | None = None
) -> DedupPlan:
    """Find the unique rows of a column set, byte-exact.

    Rows are compared by their packed column bytes (a lexsorted
    ``np.unique`` over the row records), so two rows deduplicate only
    when every column matches bit-for-bit — ``-0.0`` vs ``0.0`` and
    distinct NaN payloads stay separate, which is conservative but can
    never merge rows a kernel would treat differently.
    """
    names = [name for name in FIELD_NAMES if name in columns]
    if not names:
        names = list(columns)
    if not names:
        raise ParameterError("dedup_rows needs at least one column")
    first = np.asarray(columns[names[0]])
    if rows is None:
        rows = int(first.size)
    stacked = np.column_stack(
        [np.broadcast_to(np.asarray(columns[name]), (rows,)) for name in names]
    )
    records = np.ascontiguousarray(stacked).view(
        np.dtype((np.void, stacked.dtype.itemsize * stacked.shape[1]))
    ).reshape(rows)
    _, index, inverse = np.unique(
        records, return_index=True, return_inverse=True
    )
    return DedupPlan(rows=rows, index=index, inverse=inverse.reshape(rows))


#: Beyond this many unique rows, per-row cache keys cost more than the
#: kernel pass they might save; the deduplicated batch is cached whole
#: under its ordinary content hash instead.
ROW_KEY_LIMIT = 4096


def evaluate_batch_deduped(
    batch: ScenarioBatch,
    cache: EvaluationCache | None = None,
    *,
    row_keys: bool = False,
) -> BatchResult:
    """Evaluate ``batch`` paying one kernel pass per *distinct* row.

    Duplicate rows — Monte Carlo draws over discrete axes, optimizer
    revisits — are detected with a lexsorted unique pass, the unique
    rows are evaluated once, and the results are scattered back to the
    original row order.  Bit-identical to the plain pass: every output
    row is exactly the kernel's value for its input row.

    With ``row_keys=True`` (and a batch of at most
    :data:`ROW_KEY_LIMIT` unique rows) each unique row composes with the
    content-hash cache individually: rows are looked up under their
    single-row batch keys (the :func:`~repro.engine.cache.scenario_key`
    layout, so entries interoperate with the service's per-query cache),
    only the misses are evaluated, and the fresh rows are stored back
    per key.  Otherwise the deduplicated batch caches whole.
    """
    dedup = dedup_rows(
        {name: batch.column(name) for name in FIELD_NAMES}, len(batch)
    )
    if dedup.unique_count == len(batch):
        return evaluate_cached(batch, cache)
    unique_batch = prevalidated_batch(
        {name: dedup.gather(batch.column(name)) for name in FIELD_NAMES}
    )
    use_row_keys = (
        row_keys
        and cache is not None
        and dedup.unique_count <= ROW_KEY_LIMIT
    )
    if not use_row_keys:
        unique_result = evaluate_cached(unique_batch, cache)
    else:
        keys = [
            row_key(
                [
                    unique_batch.column(name)[row]
                    for name in FIELD_NAMES
                ]
            )
            for row in range(dedup.unique_count)
        ]
        hits: dict[int, BatchResult] = {}
        for row, key in enumerate(keys):
            cached = cache.peek_by_key(key, 1)
            if cached is not None:
                hits[row] = cached
        misses = [row for row in range(dedup.unique_count) if row not in hits]
        fresh: BatchResult | None = None
        if misses:
            miss_index = np.asarray(misses, dtype=np.intp)
            miss_batch = prevalidated_batch(
                {
                    name: np.ascontiguousarray(
                        unique_batch.column(name)[miss_index]
                    )
                    for name in FIELD_NAMES
                }
            )
            fresh = evaluate_batch(miss_batch)
            cache.put_many_by_key(
                [
                    (
                        keys[row],
                        BatchResult(
                            **{
                                name: getattr(fresh, name)[position : position + 1]
                                for name in SERIES_NAMES
                            }
                        ),
                    )
                    for position, row in enumerate(misses)
                ]
            )
        series: dict[str, np.ndarray] = {}
        miss_position = {row: position for position, row in enumerate(misses)}
        for name in SERIES_NAMES:
            column = np.empty(dedup.unique_count, dtype=np.float64)
            for row in range(dedup.unique_count):
                if row in hits:
                    column[row] = getattr(hits[row], name)[0]
                else:
                    column[row] = getattr(fresh, name)[miss_position[row]]
            series[name] = column
        unique_result = BatchResult(**series)
    return BatchResult(
        **{
            name: dedup.scatter(getattr(unique_result, name))
            for name in SERIES_NAMES
        }
    )


__all__ = [
    "AUTO_MIN_ROWS",
    "DedupPlan",
    "PLANNER_AUTO",
    "PLANNER_ENV_VAR",
    "PLANNER_MODES",
    "PLANNER_OFF",
    "PLANNER_ON",
    "ROW_KEY_LIMIT",
    "SweepPlan",
    "VERIFY_SAMPLE_ROWS",
    "current_planner_mode",
    "dedup_rows",
    "evaluate_batch_deduped",
    "evaluate_plan_cached",
    "planner_engaged",
    "plan_product",
    "resolve_planner_mode",
    "use_planner",
    "verify_plan",
]

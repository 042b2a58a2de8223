"""Struct-of-arrays scenario batches: N ACT scenarios as 18 numpy columns.

:class:`~repro.analysis.scenario.ActScenario` is the right shape for one
design question; sweeps, Monte Carlo, and DSE ask the same question tens of
thousands of times.  :class:`ScenarioBatch` holds those N scenarios as one
float64 array per Table 1 parameter, so the Eq. 1-8 kernels in
:mod:`repro.engine.kernels` can evaluate the whole batch with a handful of
array expressions instead of N Python object graphs.

Construction mirrors how the analysis layers actually generate scenarios:

* :meth:`ScenarioBatch.from_columns` — broadcast a base scenario and
  override some parameters with sample columns (Monte Carlo).
* :meth:`ScenarioBatch.from_product` — the Cartesian product of named
  parameter grids (design-space sweeps).
* :meth:`ScenarioBatch.from_scenarios` — pack existing scalar scenarios.

Validation is the same as the scalar path — every column is checked
against its field's hard domain in
:data:`~repro.core.parameters.PARAMETER_DOMAINS` at construction, so
kernels can assume well-formed inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Iterator, Mapping, Sequence

import numpy as np

from repro.core.errors import ParameterError, UnknownEntryError
from repro.core.parameters import PARAMETER_DOMAINS, beyond_float_range

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine is a leaf)
    from repro.analysis.scenario import ActScenario

#: The batched parameter columns, in ``ActScenario`` field order (the
#: order of the domain table; the test suite asserts it matches
#: ``dataclasses.fields(ActScenario)`` exactly).
FIELD_NAMES: tuple[str, ...] = tuple(PARAMETER_DOMAINS)


def _require_column(name: str, values: np.ndarray) -> None:
    """Vectorized twin of the scalar parameter validators.

    Two reductions decide a column: ``NaN`` propagates through min and
    max, ``±Inf`` lands in one of them, and the domain is an interval, so
    its extremes lie in the domain exactly when every value does.
    """
    if not values.size:
        return  # an empty batch is refused for its size, not its values
    low = float(np.min(values))
    high = float(np.max(values))
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ParameterError(f"{name} must be finite in every batch row")
    domain = PARAMETER_DOMAINS[name].kind
    if not (domain.holds(low) and domain.holds(high)):
        raise ParameterError(f"{name} {domain.detail} in every batch row")


def float_column(name: str, values: object) -> np.ndarray:
    """``values`` as a float64 array; an integer beyond float range is a
    :class:`ParameterError` naming ``name``."""
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        raise beyond_float_range(name) from None


def broadcast_columns(
    base: "ActScenario",
    size: int,
    columns: Mapping[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """The raw full column set :meth:`ScenarioBatch.from_columns` assembles.

    Performs the same broadcasting and unknown-name checking as batch
    construction but **no value validation**, so the guard can diagnose
    every bad row of the columns before a batch is built.  Returned arrays
    may be read-only broadcast views.
    """
    if size <= 0:
        raise ParameterError(f"batch size must be > 0, got {size}")
    overrides = dict(columns or {})
    unknown = set(overrides) - set(FIELD_NAMES)
    if unknown:
        raise UnknownEntryError(
            "scenario parameter", ", ".join(sorted(unknown)), FIELD_NAMES
        )
    data: dict[str, np.ndarray] = {}
    for name in FIELD_NAMES:
        if name in overrides:
            override = float_column(name, overrides[name])
            try:
                data[name] = np.broadcast_to(override, (size,))
            except ValueError:
                raise ParameterError(
                    f"column {name} has shape {override.shape}, "
                    f"expected ({size},) or a broadcastable scalar"
                ) from None
        else:
            data[name] = np.full(size, getattr(base, name), dtype=np.float64)
    return data


def product_columns(
    base: "ActScenario",
    grids: Mapping[str, Sequence[float]],
) -> tuple[int, dict[str, np.ndarray]]:
    """The raw (unvalidated) columns of a Cartesian grid over ``base``.

    Row order matches :meth:`ScenarioBatch.from_product` exactly.
    """
    if not grids:
        raise ParameterError("at least one parameter grid is required")
    names = tuple(grids)
    axes = [float_column(name, grids[name]) for name in names]
    if any(axis.ndim != 1 or axis.size == 0 for axis in axes):
        raise ParameterError("every grid must be a non-empty 1-D sequence")
    # Broadcast views (copy=False), not materialized meshes: flattening
    # each view below allocates that column's final storage directly, so
    # the k swept columns are never held as full grids twice over.  The
    # planner's view-backed batches (repro.engine.plan) go further and
    # keep even the constant columns as zero-stride views.
    mesh = np.meshgrid(*axes, indexing="ij", copy=False)
    size = int(mesh[0].size)
    overrides = {name: grid.reshape(-1) for name, grid in zip(names, mesh)}
    return size, broadcast_columns(base, size, overrides)


def prevalidated_batch(
    columns: Mapping[str, np.ndarray], *, identity_key: str | None = None
) -> "ScenarioBatch":
    """Construct a batch from columns a caller has *already* fully validated.

    The guarded engine diagnoses every column (finiteness + the same
    domain table ``_require_column`` checks) before construction; when
    that diagnosis comes back clean, re-running the per-element validators
    inside ``__post_init__`` would be pure double work on the hot path.
    This constructor keeps the cheap structural checks (full column set,
    1-D, congruent lengths, read-only) and skips only the per-element
    value validation.  Callers MUST have proven every column finite and
    in-domain — anything less reintroduces the silent-garbage path the
    batch's strict constructor exists to close.  ``identity_key`` is
    attached as the batch's :attr:`ScenarioBatch.identity_key`.
    """
    missing = set(FIELD_NAMES) - set(columns)
    if missing:
        raise ParameterError(
            f"prevalidated batch is missing columns: {', '.join(sorted(missing))}"
        )
    batch = object.__new__(ScenarioBatch)
    size: int | None = None
    for name in FIELD_NAMES:
        column = np.ascontiguousarray(columns[name], dtype=np.float64)
        if column.ndim != 1:
            raise ParameterError(
                f"batch column {name} must be 1-D, got shape {column.shape}"
            )
        if size is None:
            size = column.size
        elif column.size != size:
            raise ParameterError(
                f"batch column {name} has {column.size} rows, expected {size}"
            )
        column.flags.writeable = False
        object.__setattr__(batch, name, column)
    if not size:
        raise ParameterError("a ScenarioBatch needs at least one row")
    if identity_key is not None:
        object.__setattr__(batch, "identity_key", identity_key)
    return batch


@dataclass(frozen=True)
class ScenarioBatch:
    """N complete assignments of the ACT model inputs, one array per field.

    Every attribute is a 1-D float64 array of the same length; row ``i``
    across all columns is one scenario.  Instances are immutable: the
    arrays are marked read-only at construction so cached results stay
    valid.

    Attributes:
        identity_key: ``None``, or a key that identifies the batch's
            content by the configuration that generated it (the Monte
            Carlo draw stream's
            :meth:`~repro.analysis.montecarlo.ShardColumnSource.identity_key`).
            :class:`~repro.engine.cache.EvaluationCache` uses it instead
            of hashing the columns.  Only :meth:`from_columns` and
            :func:`prevalidated_batch` attach one; every other
            constructor, and so every derived batch, has none.
    """

    identity_key: ClassVar[str | None] = None

    # Operational side (Eq. 1-2).
    energy_kwh: np.ndarray
    ci_use_g_per_kwh: np.ndarray
    duration_hours: np.ndarray
    lifetime_hours: np.ndarray
    # Logic die (Eq. 4-5).
    soc_area_cm2: np.ndarray
    ci_fab_g_per_kwh: np.ndarray
    epa_kwh_per_cm2: np.ndarray
    gpa_g_per_cm2: np.ndarray
    mpa_g_per_cm2: np.ndarray
    fab_yield: np.ndarray
    # Memory / storage (Eq. 6-8).
    dram_gb: np.ndarray
    cps_dram_g_per_gb: np.ndarray
    ssd_gb: np.ndarray
    cps_ssd_g_per_gb: np.ndarray
    hdd_gb: np.ndarray
    cps_hdd_g_per_gb: np.ndarray
    # Packaging (Eq. 3).
    ic_count: np.ndarray
    packaging_g_per_ic: np.ndarray

    def __post_init__(self) -> None:
        size: int | None = None
        for name in FIELD_NAMES:
            column = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if column.ndim != 1:
                raise ParameterError(
                    f"batch column {name} must be 1-D, got shape {column.shape}"
                )
            if size is None:
                size = column.size
            elif column.size != size:
                raise ParameterError(
                    f"batch column {name} has {column.size} rows, expected {size}"
                )
            _require_column(name, column)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if not size:
            raise ParameterError("a ScenarioBatch needs at least one row")

    # --- construction ---------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        base: ActScenario,
        size: int,
        columns: Mapping[str, np.ndarray] | None = None,
        *,
        identity_key: str | None = None,
    ) -> "ScenarioBatch":
        """Broadcast ``base`` to ``size`` rows, overriding some columns.

        Args:
            base: Scenario providing every parameter not overridden.
            size: Number of rows in the batch.
            columns: Per-parameter override arrays (length ``size`` or
                broadcastable scalars), e.g. Monte Carlo sample columns.
            identity_key: The batch's :attr:`identity_key`; the caller
                vouches that it determines exactly these ``base``,
                ``size`` and ``columns``.
        """
        batch = cls(**broadcast_columns(base, size, columns))
        if identity_key is not None:
            object.__setattr__(batch, "identity_key", identity_key)
        return batch

    @classmethod
    def from_product(
        cls,
        base: ActScenario,
        grids: Mapping[str, Sequence[float]],
    ) -> "ScenarioBatch":
        """The Cartesian product of named parameter grids over ``base``.

        Rows are ordered exactly like ``itertools.product`` over the grids
        in mapping order, matching the scalar :func:`repro.dse.sweep_grid`.
        """
        _, columns = product_columns(base, grids)
        return cls(**columns)

    @classmethod
    def from_scenarios(
        cls, scenarios: Sequence[ActScenario]
    ) -> "ScenarioBatch":
        """Pack existing scalar scenarios into one batch (row order kept)."""
        if not scenarios:
            raise ParameterError("a ScenarioBatch needs at least one scenario")
        return cls(
            **{
                name: np.array(
                    [getattr(scenario, name) for scenario in scenarios],
                    dtype=np.float64,
                )
                for name in FIELD_NAMES
            }
        )

    def __getstate__(self) -> dict[str, object]:
        # An identity key is only valid in the process that generated the
        # rows, so pickles and copies carry the columns without it.
        state = dict(self.__dict__)
        state.pop("identity_key", None)
        return state

    # --- access ---------------------------------------------------------

    def __len__(self) -> int:
        return int(self.energy_kwh.size)

    def column(self, name: str) -> np.ndarray:
        """One parameter column by name."""
        if name not in FIELD_NAMES:
            raise UnknownEntryError("scenario parameter", name, FIELD_NAMES)
        return getattr(self, name)

    def scenario(self, index: int) -> ActScenario:
        """Row ``index`` as a scalar :class:`ActScenario`."""
        from repro.analysis.scenario import ActScenario

        size = len(self)
        if not -size <= index < size:
            raise IndexError(f"batch index {index} out of range for {size} rows")
        return ActScenario(
            **{name: float(getattr(self, name)[index]) for name in FIELD_NAMES}
        )

    def scenarios(self) -> Iterator[ActScenario]:
        """Iterate the batch as scalar scenarios (the reference view)."""
        return (self.scenario(index) for index in range(len(self)))

    def with_columns(self, **columns: np.ndarray) -> "ScenarioBatch":
        """A copy of this batch with some columns replaced."""
        unknown = set(columns) - set(FIELD_NAMES)
        if unknown:
            raise UnknownEntryError(
                "scenario parameter", ", ".join(sorted(unknown)), FIELD_NAMES
            )
        size = len(self)
        data = {
            name: np.broadcast_to(
                np.asarray(columns[name], dtype=np.float64), (size,)
            )
            if name in columns
            else getattr(self, name)
            for name in FIELD_NAMES
        }
        return ScenarioBatch(**data)


def product_params(
    grids: Mapping[str, Sequence[float]],
) -> tuple[dict[str, float], ...]:
    """The per-row parameter assignments of :meth:`ScenarioBatch.from_product`.

    Kept alongside the batch constructor so sweep results can be labelled
    without re-deriving the row order.
    """
    names = tuple(grids)
    return tuple(
        dict(zip(names, combo))
        for combo in itertools.product(*(tuple(grids[name]) for name in names))
    )

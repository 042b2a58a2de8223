"""Guarded batch evaluation: validate, repair or mask, then cross-check.

The batched engine assumes well-formed inputs; this module is the layer
that *makes* them well-formed.  A :class:`GuardedEngine` wraps the Eq. 1-8
kernels with three lines of defense:

1. **Pre-validation** — every column is diagnosed for NaN/Inf, hard domain
   violations (negative carbon intensities, yields outside (0, 1]), and
   values outside the documented Table 1 ranges, with per-column,
   per-index :class:`ColumnDiagnostic` records.
2. **Policy** — what happens to a bad row is explicit, never implicit:
   ``strict`` raises :class:`~repro.core.errors.ValidationError`,
   ``repair`` clamps into the documented ranges and warns, ``skip`` masks
   the offending rows and continues with the rest.
3. **Cross-check** — any kernel anomaly (a non-finite output series) is
   re-evaluated on the scalar reference path.  If batched and scalar
   disagree beyond 1e-9 the engine raises
   :class:`~repro.core.errors.DivergenceError`; if they agree, the anomaly
   is a genuine input-driven overflow and is handled by the policy.  The
   scalar model is thereby a *live* safety net, not just a test oracle.

Corrupted inputs therefore either raise a typed
:class:`~repro.core.errors.ReproError` or come back explicitly masked with
a :class:`RobustnessWarning` — never as plausible-but-wrong CO2 numbers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.analysis.scenario import PARAMETER_RANGES
from repro.core.errors import DivergenceError, ParameterError, ValidationError
from repro.engine.batch import (
    FIELD_NAMES,
    FRACTION_FIELDS,
    POSITIVE_FIELDS,
    ScenarioBatch,
    broadcast_columns,
    prevalidated_batch,
)
from repro.engine.cache import EvaluationCache, evaluate_cached
from repro.engine.kernels import BatchResult
from repro.obs.context import RunContext, current_context

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.scenario import ActScenario

#: Guard policies.
STRICT = "strict"
REPAIR = "repair"
SKIP = "skip"
POLICIES = (STRICT, REPAIR, SKIP)

#: Diagnostic reasons.
NON_FINITE = "non-finite"
DOMAIN = "domain"
RANGE = "range"
OUTPUT = "non-finite output"
#: Rows lost to a quarantined shard under ``failure_policy="degrade"`` —
#: not a data problem, but reported through the same diagnostics channel
#: so every masked-row consumer sees one uniform account of missing rows.
QUARANTINED = "quarantined"

#: Batched/scalar agreement tolerance for the divergence cross-check.
CROSS_CHECK_TOLERANCE = 1e-9

#: How many offending indices a diagnostic renders before truncating.
_MAX_SHOWN = 8


class RobustnessWarning(UserWarning):
    """Guarded evaluation repaired or masked part of a batch."""


@dataclass(frozen=True)
class ColumnDiagnostic:
    """Invalid values found in one batch column.

    Attributes:
        column: The :data:`~repro.engine.batch.FIELD_NAMES` column.
        reason: One of ``"non-finite"``, ``"domain"`` (violates the hard
            sign/fraction constraint), ``"range"`` (outside the documented
            Table 1 range), or ``"non-finite output"`` (kernel overflow).
        indices: Offending row indices, ascending.
        values: The offending values, aligned with ``indices``.
        detail: Human-readable constraint description.
    """

    column: str
    reason: str
    indices: tuple[int, ...]
    values: tuple[float, ...]
    detail: str = ""

    def __str__(self) -> str:
        shown = ", ".join(str(index) for index in self.indices[:_MAX_SHOWN])
        if len(self.indices) > _MAX_SHOWN:
            shown += f", … and {len(self.indices) - _MAX_SHOWN} more"
        values = ", ".join(f"{value:g}" for value in self.values[:_MAX_SHOWN])
        message = (
            f"{self.column}: {len(self.indices)} {self.reason} row(s) "
            f"at [{shown}] (values [{values}])"
        )
        if self.detail:
            message += f" — {self.detail}"
        return message


def _domain_violations(name: str, values: np.ndarray) -> tuple[np.ndarray, str]:
    """Finite values violating the hard per-column constraint, plus detail."""
    if name in FRACTION_FIELDS:
        return (values <= 0.0) | (values > 1.0), "must be in (0, 1]"
    if name in POSITIVE_FIELDS:
        return values <= 0.0, "must be > 0"
    return values < 0.0, "must be >= 0"


def diagnose_columns(
    columns: Mapping[str, np.ndarray],
    *,
    ranges: Mapping[str, tuple[float, float]] | None = None,
) -> list[ColumnDiagnostic]:
    """Every NaN/Inf, domain, and range violation across ``columns``.

    Args:
        columns: Full-length column arrays keyed by field name.
        ranges: Optional documented (low, high) plausibility bounds; a
            finite, in-domain value outside its bound is reported with
            reason ``"range"`` (how unit-scale faults like g↔kg surface).
    """
    diagnostics: list[ColumnDiagnostic] = []
    for name in FIELD_NAMES:
        if name not in columns:
            continue
        values = np.asarray(columns[name], dtype=np.float64)
        # Fast path: two reductions prove a clean column clean.  NaN
        # propagates through min/max, ±Inf lands outside every bound, and
        # the domain/range floors and ceilings bracket the extremes — so a
        # column passing this check has nothing to diagnose and skips the
        # per-element boolean passes entirely.
        low = np.min(values)
        high = np.max(values)
        if np.isfinite(low) and np.isfinite(high):
            if name in FRACTION_FIELDS:
                domain_ok = low > 0.0 and high <= 1.0
            elif name in POSITIVE_FIELDS:
                domain_ok = low > 0.0
            else:
                domain_ok = low >= 0.0
            if domain_ok:
                if ranges is None or name not in ranges:
                    continue
                range_low, range_high = ranges[name]
                if low >= range_low and high <= range_high:
                    continue
        finite = np.isfinite(values)
        if not finite.all():
            bad = np.flatnonzero(~finite)
            diagnostics.append(
                ColumnDiagnostic(
                    column=name,
                    reason=NON_FINITE,
                    indices=tuple(int(i) for i in bad),
                    values=tuple(float(values[i]) for i in bad),
                    detail="must be a finite number",
                )
            )
        domain_bad, detail = _domain_violations(name, values)
        domain_bad &= finite
        if domain_bad.any():
            bad = np.flatnonzero(domain_bad)
            diagnostics.append(
                ColumnDiagnostic(
                    column=name,
                    reason=DOMAIN,
                    indices=tuple(int(i) for i in bad),
                    values=tuple(float(values[i]) for i in bad),
                    detail=detail,
                )
            )
        if ranges is not None and name in ranges:
            low, high = ranges[name]
            range_bad = finite & ~domain_bad & ((values < low) | (values > high))
            if range_bad.any():
                bad = np.flatnonzero(range_bad)
                diagnostics.append(
                    ColumnDiagnostic(
                        column=name,
                        reason=RANGE,
                        indices=tuple(int(i) for i in bad),
                        values=tuple(float(values[i]) for i in bad),
                        detail=f"outside the documented range [{low:g}, {high:g}]",
                    )
                )
    return diagnostics


#: Scalar twins of each cross-checked output series, for the divergence test.
_SCALAR_SERIES = {
    "operational_g": lambda s: s.operational_g(),
    "cpa_g_per_cm2": lambda s: s.cpa_g_per_cm2(),
    "soc_embodied_g": lambda s: s.soc_embodied_g(),
    "dram_embodied_g": lambda s: s.dram_gb * s.cps_dram_g_per_gb,
    "ssd_embodied_g": lambda s: s.ssd_gb * s.cps_ssd_g_per_gb,
    "hdd_embodied_g": lambda s: s.hdd_gb * s.cps_hdd_g_per_gb,
    "packaging_g": lambda s: s.ic_count * s.packaging_g_per_ic,
    "embodied_g": lambda s: s.embodied_g(),
    "total_g": lambda s: s.total_g(),
}


def _values_agree(batched: float, reference: float, tolerance: float) -> bool:
    if np.isnan(batched) and np.isnan(reference):
        return True
    if np.isinf(batched) or np.isinf(reference):
        return batched == reference
    return abs(batched - reference) <= tolerance * max(1.0, abs(reference))


def offset_diagnostics(
    diagnostics: Iterable[ColumnDiagnostic], start: int
) -> tuple[ColumnDiagnostic, ...]:
    """Translate piece-local diagnostic row indices to rows of the run."""
    if start == 0:
        return tuple(diagnostics)
    return tuple(
        ColumnDiagnostic(
            column=diagnostic.column,
            reason=diagnostic.reason,
            indices=tuple(index + start for index in diagnostic.indices),
            values=diagnostic.values,
            detail=diagnostic.detail,
        )
        for diagnostic in diagnostics
    )


def require_survivors(
    policy: str,
    survived: np.ndarray,
    lost: int = 0,
    diagnostics: Iterable[ColumnDiagnostic] = (),
) -> None:
    """Raise the guard's all-masked error for a whole run, once.

    Runs evaluated in chunks, waves or shards keep a fully masked piece
    as ``NaN`` rows.  Only the run as a whole fails: when no row
    ``survived`` although some were evaluated (not all ``lost`` to
    quarantined shards).
    """
    if survived.size > lost and not survived.any():
        raise ValidationError(
            "skip policy masked every row of the batch"
            if policy == SKIP
            else "every row of the batch overflowed",
            tuple(diagnostics),
        )


@dataclass(frozen=True)
class GuardedResult:
    """One guarded batch evaluation, with its mask and diagnostics.

    Attributes:
        size: Rows in the *original* (pre-masking) batch.
        valid: Boolean mask over the original rows; ``False`` rows were
            masked out by the ``skip`` policy or the overflow cross-check.
        batch: The batch actually evaluated — only the valid rows, with
            ``repair``-policy clamping applied.
        result: Eq. 1-8 outputs aligned with ``batch`` (compact rows).
        diagnostics: Everything pre-validation and the cross-check found.
        policy: The guard policy that produced this result.
        repaired: Whether any value was clamped by the ``repair`` policy.
    """

    size: int
    valid: np.ndarray
    batch: ScenarioBatch
    result: BatchResult
    diagnostics: tuple[ColumnDiagnostic, ...]
    policy: str
    repaired: bool = False

    def __len__(self) -> int:
        return self.size

    @property
    def masked_count(self) -> int:
        """How many original rows were masked out."""
        return int(self.size - np.count_nonzero(self.valid))

    @property
    def indices(self) -> np.ndarray:
        """Original row index of each compact result row."""
        return np.flatnonzero(self.valid)

    def samples(self) -> np.ndarray:
        """The valid rows' total footprints (compact, original order)."""
        return np.array(self.result.total_g, copy=True)

    def full_series(self, name: str) -> np.ndarray:
        """One output series scattered to original length, NaN where masked."""
        series = getattr(self.result, name)
        full = np.full(self.size, np.nan)
        full[self.valid] = series
        return full


@dataclass
class GuardedEngine:
    """The batched Eq. 1-8 engine wrapped in validation and cross-checking.

    Attributes:
        policy: ``"strict"`` (raise on any bad value), ``"repair"`` (clamp
            into the documented ranges and warn), or ``"skip"`` (mask bad
            rows and continue).
        ranges: Documented (low, high) plausibility bounds per column
            (default: Table 1's :data:`PARAMETER_RANGES`).  Pass ``None``
            to validate hard domains only.
        cache: Evaluation cache for the kernel pass (default: the
            process-wide one).  Only fully-valid content is ever cached —
            masked batches are compacted first, so masking cannot poison
            cache keys.
        tolerance: Batched/scalar agreement tolerance for the cross-check.
    """

    policy: str = STRICT
    ranges: Mapping[str, tuple[float, float]] | None = field(
        default_factory=lambda: dict(PARAMETER_RANGES)
    )
    cache: EvaluationCache | None = None
    tolerance: float = CROSS_CHECK_TOLERANCE

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ParameterError(
                f"unknown guard policy {self.policy!r}; use one of {POLICIES}"
            )

    # --- public entry points --------------------------------------------

    def evaluate_columns(
        self,
        base: "ActScenario",
        size: int,
        columns: Mapping[str, np.ndarray] | None = None,
        *,
        identity_key: str | None = None,
    ) -> GuardedResult:
        """Validate, police, evaluate, and cross-check raw columns.

        The raw columns (e.g. Monte Carlo samples or a sweep grid) are
        diagnosed *before* batch construction, so the ``repair`` and
        ``skip`` policies can act on inputs the strict
        :class:`ScenarioBatch` constructor would reject outright.

        ``identity_key`` (a Monte Carlo chunk's
        :meth:`~repro.analysis.montecarlo.ShardColumnSource.identity_key`)
        keys the cache only when diagnosis finds nothing: a repaired or
        masked batch is a different batch, keyed by its content.

        Under an active :class:`~repro.obs.context.RunContext` the pass is
        a ``guard.evaluate_columns`` span and per-policy repair/mask counts
        land in the metrics registry.
        """
        context = current_context()
        if not context.enabled:
            return self._evaluate_columns(base, size, columns, identity_key)
        with context.span(
            "guard.evaluate_columns", policy=self.policy, rows=size
        ):
            guarded = self._evaluate_columns(base, size, columns, identity_key)
        self._report(context, guarded)
        return guarded

    def _evaluate_columns(
        self,
        base: "ActScenario",
        size: int,
        columns: Mapping[str, np.ndarray] | None,
        identity_key: str | None,
    ) -> GuardedResult:
        raw = broadcast_columns(base, size, columns)
        diagnostics = diagnose_columns(raw, ranges=self.ranges)
        valid = np.ones(size, dtype=bool)
        repaired = False
        if diagnostics:
            if self.policy == STRICT:
                raise ValidationError(
                    "guarded evaluation rejected the batch: "
                    + "; ".join(str(d) for d in diagnostics),
                    diagnostics,
                )
            if self.policy == REPAIR:
                raw = self._repair(base, raw, diagnostics)
                repaired = True
                self._warn(
                    f"repaired {sum(len(d.indices) for d in diagnostics)} "
                    f"value(s) across {len({d.column for d in diagnostics})} "
                    "column(s)",
                    diagnostics,
                )
            else:  # SKIP
                for diagnostic in diagnostics:
                    valid[list(diagnostic.indices)] = False
                if not valid.any():
                    raise ValidationError(
                        "skip policy masked every row of the batch",
                        diagnostics,
                    )
                self._warn(
                    f"masked {int(size - np.count_nonzero(valid))} of "
                    f"{size} row(s)",
                    diagnostics,
                )
        if not diagnostics:
            # Diagnosis just proved every column finite and in-domain — the
            # exact checks the strict constructor would repeat — so skip the
            # per-element re-validation on the hot path.  The columns are
            # exactly the caller's, so its identity key still holds.
            batch = prevalidated_batch(raw, identity_key=identity_key)
        elif valid.all():
            # Repaired columns: clamping aims at the documented ranges, but
            # caller-supplied ranges may sit outside the hard domain, so let
            # the strict constructor have the last word.
            batch = ScenarioBatch(**raw)
        else:
            batch = ScenarioBatch(
                **{
                    name: np.ascontiguousarray(column[valid])
                    for name, column in raw.items()
                }
            )
        with np.errstate(over="ignore", invalid="ignore"):
            result = evaluate_cached(batch, self.cache)
        return self._cross_checked(
            base_size=size,
            valid=valid,
            batch=batch,
            result=result,
            diagnostics=tuple(diagnostics),
            repaired=repaired,
        )

    def evaluate(self, batch: ScenarioBatch) -> GuardedResult:
        """Guard an already-constructed (domain-valid) batch.

        Range validation and the overflow cross-check still apply; NaN/Inf
        and domain violations cannot occur because ``ScenarioBatch``
        enforces them at construction.  Like :meth:`evaluate_columns`, the
        pass is spanned and counted under an active run context.
        """
        context = current_context()
        if not context.enabled:
            return self._evaluate_batch(batch)
        with context.span(
            "guard.evaluate", policy=self.policy, rows=len(batch)
        ):
            guarded = self._evaluate_batch(batch)
        self._report(context, guarded)
        return guarded

    def _evaluate_batch(self, batch: ScenarioBatch) -> GuardedResult:
        columns = {name: batch.column(name) for name in FIELD_NAMES}
        diagnostics = diagnose_columns(columns, ranges=self.ranges)
        valid = np.ones(len(batch), dtype=bool)
        if diagnostics:
            if self.policy == STRICT:
                raise ValidationError(
                    "guarded evaluation rejected the batch: "
                    + "; ".join(str(d) for d in diagnostics),
                    diagnostics,
                )
            if self.policy == SKIP:
                for diagnostic in diagnostics:
                    valid[list(diagnostic.indices)] = False
                if not valid.any():
                    raise ValidationError(
                        "skip policy masked every row of the batch",
                        diagnostics,
                    )
                self._warn(
                    f"masked {int(len(batch) - np.count_nonzero(valid))} of "
                    f"{len(batch)} row(s)",
                    diagnostics,
                )
                batch = ScenarioBatch(
                    **{
                        name: np.ascontiguousarray(column[valid])
                        for name, column in columns.items()
                    }
                )
            else:  # REPAIR on a constructed batch: clamp into ranges.
                base = batch.scenario(0)
                repaired_columns = self._repair(base, dict(columns), diagnostics)
                batch = ScenarioBatch(**repaired_columns)
                self._warn("repaired out-of-range value(s)", diagnostics)
        with np.errstate(over="ignore", invalid="ignore"):
            result = evaluate_cached(batch, self.cache)
        return self._cross_checked(
            base_size=int(valid.size),
            valid=valid,
            batch=batch,
            result=result,
            diagnostics=tuple(diagnostics),
            repaired=self.policy == REPAIR and bool(diagnostics),
        )

    # --- internals ------------------------------------------------------

    def _report(self, context: RunContext, guarded: GuardedResult) -> None:
        """Mirror one guarded pass into the active context's metrics."""
        policy = self.policy
        context.count("guard.batches")
        context.count(f"guard.{policy}.batches")
        context.count(f"guard.{policy}.rows", guarded.size)
        if guarded.diagnostics:
            context.count(
                f"guard.{policy}.diagnostics", len(guarded.diagnostics)
            )
            flagged = sum(len(d.indices) for d in guarded.diagnostics)
            context.count(f"guard.{policy}.flagged_values", flagged)
            if guarded.repaired:
                context.count(f"guard.{policy}.repaired_values", flagged)
        if guarded.masked_count:
            context.count(f"guard.{policy}.masked_rows", guarded.masked_count)

    def _warn(
        self, summary: str, diagnostics: Sequence[ColumnDiagnostic]
    ) -> None:
        detail = "; ".join(str(d) for d in diagnostics[:4])
        if len(diagnostics) > 4:
            detail += f"; … and {len(diagnostics) - 4} more diagnostic(s)"
        warnings.warn(
            f"guarded evaluation ({self.policy}): {summary} — {detail}",
            RobustnessWarning,
            stacklevel=3,
        )

    def _repair(
        self,
        base: "ActScenario",
        raw: Mapping[str, np.ndarray],
        diagnostics: Sequence[ColumnDiagnostic],
    ) -> dict[str, np.ndarray]:
        """Clamp every diagnosed value into its documented range.

        NaN becomes the base scenario's value for the column, ±Inf and
        out-of-range values clip to the range edge (falling back to the
        hard domain bound when no documented range exists).
        """
        repaired = {name: np.array(column) for name, column in raw.items()}
        for diagnostic in diagnostics:
            column = repaired[diagnostic.column]
            low, high = self._clamp_bounds(diagnostic.column)
            indices = np.asarray(diagnostic.indices, dtype=np.intp)
            values = column[indices]
            fallback = min(max(getattr(base, diagnostic.column), low), high)
            values = np.where(np.isnan(values), fallback, values)
            column[indices] = np.clip(values, low, high)
        return repaired

    def _clamp_bounds(self, name: str) -> tuple[float, float]:
        if self.ranges is not None and name in self.ranges:
            return self.ranges[name]
        if name in FRACTION_FIELDS:
            return np.finfo(np.float64).tiny, 1.0
        if name in POSITIVE_FIELDS:
            return np.finfo(np.float64).tiny, np.finfo(np.float64).max
        return 0.0, np.finfo(np.float64).max

    def verify_planned(self, plan: "object", result: BatchResult) -> None:
        """Spot-check a factored sweep plan's output, guard-style.

        Up to 32 evenly-strided rows of ``plan`` are rebuilt densely and
        re-evaluated, then compared against ``result`` under the guard's
        tolerance.  Delegates to :func:`repro.engine.plan.verify_plan`,
        which raises :class:`~repro.core.errors.DivergenceError` on the
        first sampled disagreement.
        """
        from repro.engine.plan import verify_plan

        verify_plan(plan, result, tolerance=self.tolerance)

    def _cross_checked(
        self,
        *,
        base_size: int,
        valid: np.ndarray,
        batch: ScenarioBatch,
        result: BatchResult,
        diagnostics: tuple[ColumnDiagnostic, ...],
        repaired: bool,
    ) -> GuardedResult:
        """Re-derive kernel anomalies on the scalar path, policing overflow.

        Raises:
            DivergenceError: Batched and scalar values disagree beyond
                tolerance at an anomalous row — the engine itself, not the
                inputs, is wrong.
            ValidationError: Genuine input-driven overflow under the
                ``strict`` policy.
        """
        # With pre-validated inputs (all finite, yields in (0, 1], lifetime
        # > 0, the rest >= 0) every non-finite kernel intermediate reaches
        # total_g: the component series are non-negative, so their sums
        # cannot cancel an Inf, and 0 * Inf yields NaN rather than hiding
        # it.  One reduction over total_g therefore clears the whole batch;
        # the per-series scan below runs only for genuinely anomalous rows.
        anomalous: np.ndarray | None = None
        if not np.isfinite(result.total_g).all():
            for series in _SCALAR_SERIES:
                finite = np.isfinite(getattr(result, series))
                if not finite.all():
                    bad = ~finite
                    anomalous = bad if anomalous is None else anomalous | bad
        if anomalous is None:
            return GuardedResult(
                size=base_size,
                valid=valid,
                batch=batch,
                result=result,
                diagnostics=diagnostics,
                policy=self.policy,
                repaired=repaired,
            )

        rows = np.flatnonzero(anomalous)
        tolerance = self.tolerance
        for series, scalar_fn in _SCALAR_SERIES.items():
            batched_series = getattr(result, series)
            disagreements: list[int] = []
            batched_values: list[float] = []
            reference_values: list[float] = []
            for row in rows:
                with np.errstate(over="ignore", invalid="ignore"):
                    reference = float(scalar_fn(batch.scenario(int(row))))
                batched = float(batched_series[row])
                if not _values_agree(batched, reference, tolerance):
                    disagreements.append(int(row))
                    batched_values.append(batched)
                    reference_values.append(reference)
            if disagreements:
                raise DivergenceError(
                    f"batched {series} diverges from the scalar reference at "
                    f"row(s) {disagreements[:_MAX_SHOWN]} "
                    f"(tolerance {tolerance:g})",
                    series=series,
                    indices=disagreements,
                    batched=batched_values,
                    reference=reference_values,
                    tolerance=tolerance,
                )

        # Batched and scalar agree: the anomaly is genuine input-driven
        # overflow.  Strict raises; repair/skip mask the rows and warn.
        overflow = ColumnDiagnostic(
            column="total_g",
            reason=OUTPUT,
            indices=tuple(int(np.flatnonzero(valid)[row]) for row in rows),
            values=tuple(float(result.total_g[row]) for row in rows),
            detail="kernel output overflowed (scalar path agrees)",
        )
        if self.policy == STRICT:
            raise ValidationError(
                f"guarded evaluation found non-finite outputs: {overflow}",
                diagnostics + (overflow,),
            )
        keep = ~anomalous
        if not keep.any():
            raise ValidationError(
                "every row of the batch overflowed", diagnostics + (overflow,)
            )
        self._warn(
            f"masked {len(rows)} overflowed row(s)", [overflow]
        )
        new_valid = np.array(valid)
        new_valid[np.flatnonzero(valid)[rows]] = False
        compact_batch = ScenarioBatch(
            **{
                name: np.ascontiguousarray(batch.column(name)[keep])
                for name in FIELD_NAMES
            }
        )
        compact_result = BatchResult(
            **{
                name: getattr(result, name)[keep]
                for name in BatchResult.__dataclass_fields__
            }
        )
        return GuardedResult(
            size=base_size,
            valid=new_valid,
            batch=compact_batch,
            result=compact_result,
            diagnostics=diagnostics + (overflow,),
            policy=self.policy,
            repaired=repaired,
        )

"""Guarded batch evaluation: validate, evaluate, then cross-check.

The batched engine assumes well-formed inputs; this module is the layer
that proves them so.  A :class:`GuardedEngine` wraps the Eq. 1-8 kernels
with two lines of defense:

1. **Pre-validation** — every column is diagnosed for NaN/Inf, hard domain
   violations (negative carbon intensities, yields outside (0, 1]), and
   values outside the documented Table 1 ranges, with per-column,
   per-index :class:`ColumnDiagnostic` records.  Any finding raises
   :class:`~repro.core.errors.ValidationError` carrying them all.
2. **Cross-check** — any kernel anomaly (a non-finite output series) is
   re-evaluated on the scalar reference path.  If batched and scalar
   disagree beyond 1e-9 the engine raises
   :class:`~repro.core.errors.DivergenceError`; if they agree, the anomaly
   is a genuine input-driven overflow and raises ``ValidationError``.
   The scalar model is thereby a *live* safety net, not just a test
   oracle.

Corrupted inputs therefore raise a typed
:class:`~repro.core.errors.ReproError` naming the offending rows — never
plausible-but-wrong CO2 numbers.  The guard is strict-only: it never
repairs or drops a row.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.analysis.scenario import PARAMETER_RANGES
from repro.core.errors import DivergenceError, ParameterError, ValidationError
from repro.core.parameters import PARAMETER_DOMAINS
from repro.engine.batch import (
    FIELD_NAMES,
    ScenarioBatch,
    broadcast_columns,
    prevalidated_batch,
)
from repro.engine.cache import EvaluationCache, evaluate_cached
from repro.engine.kernels import BatchResult
from repro.obs.context import current_context

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.scenario import ActScenario

#: The guard policy: raise on any bad value.  The only one; a guard that
#: is off is no guard (``guard=None``).
STRICT = "strict"

#: Diagnostic reasons.
NON_FINITE = "non-finite"
DOMAIN = "domain"
RANGE = "range"
OUTPUT = "non-finite output"

#: Batched/scalar agreement tolerance for the divergence cross-check.
CROSS_CHECK_TOLERANCE = 1e-9

#: How many offending indices a diagnostic renders before truncating.
_MAX_SHOWN = 8


class RobustnessWarning(UserWarning):
    """A run lost or recovered part of its work (quarantine, salvage).

    Warned for a degraded run's quarantined shards and for a damaged
    checkpoint salvaged on resume; the guard itself never warns, it
    raises.
    """


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


def _diagnostic(
    name: str, reason: str, values: np.ndarray, bad: np.ndarray, detail: str
) -> ColumnDiagnostic:
    rows = np.flatnonzero(bad)
    return ColumnDiagnostic(
        column=name,
        reason=reason,
        indices=tuple(int(i) for i in rows),
        values=tuple(float(values[i]) for i in rows),
        detail=detail,
    )


def diagnose_columns(
    columns: Mapping[str, np.ndarray],
    *,
    ranges: Mapping[str, tuple[float, float]] | None = None,
) -> list[ColumnDiagnostic]:
    """Every NaN/Inf, domain, and range violation across ``columns``.

    Each column is judged against its field's hard domain in
    :data:`~repro.core.parameters.PARAMETER_DOMAINS`.

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
        domain = PARAMETER_DOMAINS[name].kind
        bounds = ranges.get(name) if ranges is not None else None
        # Fast path: two reductions prove a clean column clean.  NaN
        # propagates through min/max, ±Inf lies in no domain, and the
        # domain and range are intervals that bracket the extremes — so a
        # column passing this check has nothing to diagnose and skips the
        # per-element boolean passes entirely.
        low = np.min(values)
        high = np.max(values)
        if (
            domain.holds(low)
            and domain.holds(high)
            and (bounds is None or (low >= bounds[0] and high <= bounds[1]))
        ):
            continue
        finite = np.isfinite(values)
        if not finite.all():
            diagnostics.append(
                _diagnostic(
                    name, NON_FINITE, values, ~finite, "must be a finite number"
                )
            )
        domain_bad = domain.violations(values) & finite
        if domain_bad.any():
            diagnostics.append(
                _diagnostic(name, DOMAIN, values, domain_bad, domain.detail)
            )
        if bounds is not None:
            range_low, range_high = bounds
            range_bad = (
                finite
                & ~domain_bad
                & ((values < range_low) | (values > range_high))
            )
            if range_bad.any():
                diagnostics.append(
                    _diagnostic(
                        name,
                        RANGE,
                        values,
                        range_bad,
                        "outside the documented range "
                        f"[{range_low:g}, {range_high:g}]",
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


def _rejection(diagnostics: Sequence[ColumnDiagnostic]) -> ValidationError:
    """The strict guard's error: every finding, with its rows, in the
    message and on the error."""
    return ValidationError(
        "guarded evaluation rejected the batch: "
        + "; ".join(str(d) for d in diagnostics),
        diagnostics,
    )


def _divergence(
    series: str,
    indices: Sequence[int],
    batched: Sequence[float],
    reference: Sequence[float],
    tolerance: float,
) -> DivergenceError:
    """The cross-check's error: the diverging rows, in the message and on
    the error."""
    return DivergenceError(
        f"batched {series} diverges from the scalar reference at "
        f"row(s) {list(indices[:_MAX_SHOWN])} (tolerance {tolerance:g})",
        series=series,
        indices=indices,
        batched=batched,
        reference=reference,
        tolerance=tolerance,
    )


def at_run_rows(
    error: ValidationError | DivergenceError, start: int
) -> ValidationError | DivergenceError:
    """``error``, raised for a chunk or shard whose row 0 is run row
    ``start``, with its diagnostics or indices (and message) naming run
    rows."""
    if start == 0:
        return error
    if isinstance(error, DivergenceError):
        return _divergence(
            error.series,
            [index + start for index in error.indices],
            error.batched,
            error.reference,
            error.tolerance,
        )
    return _rejection(
        [
            dataclasses.replace(
                diagnostic,
                indices=tuple(index + start for index in diagnostic.indices),
            )
            for diagnostic in error.diagnostics
        ]
    )


@dataclass(frozen=True)
class GuardedResult:
    """One guarded batch evaluation, every row validated and cross-checked.

    Attributes:
        batch: The batch evaluated: every input row, validated.
        result: Its Eq. 1-8 outputs.
    """

    batch: ScenarioBatch
    result: BatchResult

    def __len__(self) -> int:
        return len(self.batch)


@dataclass
class GuardedEngine:
    """The batched Eq. 1-8 engine wrapped in validation and cross-checking.

    Attributes:
        policy: ``"strict"``, the only policy: any bad value raises.
        ranges: Documented (low, high) plausibility bounds per column
            (default: Table 1's :data:`PARAMETER_RANGES`).  Pass ``None``
            to validate hard domains only.
        cache: Evaluation cache for the kernel pass (default: the
            process-wide one).  Only validated content is ever cached.
        tolerance: Batched/scalar agreement tolerance for the cross-check.
    """

    policy: str = STRICT
    ranges: Mapping[str, tuple[float, float]] | None = field(
        default_factory=lambda: dict(PARAMETER_RANGES)
    )
    cache: EvaluationCache | None = None
    tolerance: float = CROSS_CHECK_TOLERANCE

    def __post_init__(self) -> None:
        if self.policy != STRICT:
            raise ParameterError(
                f"unknown guard policy {self.policy!r}; the guard is "
                f"{STRICT!r} only"
            )

    def evaluate_columns(
        self,
        base: "ActScenario",
        size: int,
        columns: Mapping[str, np.ndarray] | None = None,
        *,
        identity_key: str | None = None,
    ) -> GuardedResult:
        """Validate, evaluate, and cross-check raw columns.

        The raw columns (e.g. Monte Carlo samples or a sweep grid) are
        diagnosed *before* batch construction, so a rejection names every
        bad row of every column, not just the first column the strict
        :class:`ScenarioBatch` constructor would refuse.

        ``identity_key`` (a Monte Carlo chunk's
        :meth:`~repro.analysis.montecarlo.ShardColumnSource.identity_key`)
        keys the cache: the evaluated columns are exactly the caller's.

        Under an active :class:`~repro.obs.context.RunContext` the pass is
        a ``guard.evaluate_columns`` span and its batch and row counts
        land in the metrics registry.

        Raises:
            ValidationError: A non-finite, out-of-domain or out-of-range
                input, or a genuine overflow; its diagnostics name every
                offending row.
            DivergenceError: The batched and scalar paths disagree.
        """
        context = current_context()
        if not context.enabled:
            return self._evaluate_columns(base, size, columns, identity_key)
        with context.span(
            "guard.evaluate_columns", policy=self.policy, rows=size
        ):
            guarded = self._evaluate_columns(base, size, columns, identity_key)
        context.count("guard.batches")
        context.count(f"guard.{self.policy}.batches")
        context.count(f"guard.{self.policy}.rows", size)
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
        if diagnostics:
            raise _rejection(diagnostics)
        # Diagnosis just proved every column finite and in-domain — the
        # exact checks the strict constructor would repeat — so skip the
        # per-element re-validation on the hot path.
        batch = prevalidated_batch(raw, identity_key=identity_key)
        with np.errstate(over="ignore", invalid="ignore"):
            result = evaluate_cached(batch, self.cache)
        self._cross_check(batch, result)
        return GuardedResult(batch=batch, result=result)

    def _cross_check(self, batch: ScenarioBatch, result: BatchResult) -> None:
        """Re-derive kernel anomalies on the scalar path.

        Raises:
            DivergenceError: Batched and scalar values disagree beyond
                tolerance at an anomalous row — the engine itself, not the
                inputs, is wrong.
            ValidationError: Genuine input-driven overflow.
        """
        # With pre-validated inputs (all finite, yields in (0, 1], lifetime
        # > 0, the rest >= 0) every non-finite kernel intermediate reaches
        # total_g: the component series are non-negative, so their sums
        # cannot cancel an Inf, and 0 * Inf yields NaN rather than hiding
        # it.  One reduction over total_g therefore clears the whole batch;
        # the per-series scan below runs only for genuinely anomalous rows.
        if np.isfinite(result.total_g).all():
            return
        anomalous = np.zeros(len(batch), dtype=bool)
        for series in _SCALAR_SERIES:
            anomalous |= ~np.isfinite(getattr(result, series))
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
                raise _divergence(
                    series,
                    disagreements,
                    batched_values,
                    reference_values,
                    tolerance,
                )
        # Batched and scalar agree: the anomaly is genuine input-driven
        # overflow.
        raise _rejection(
            [
                _diagnostic(
                    "total_g",
                    OUTPUT,
                    result.total_g,
                    anomalous,
                    "kernel output overflowed (scalar path agrees)",
                )
            ]
        )

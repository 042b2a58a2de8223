"""High-level design-selection facade.

The experiments repeat one pattern: take a candidate set, score it under
every Table 2 metric, find each metric's winner, extract the Pareto front,
and normalize for presentation.  :func:`explore` packages that pattern into
a single :class:`ExplorationResult`, so examples and downstream users get
the full Figure 8(d)-style analysis in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.errors import ConstraintError, ValidationError
from repro.core.metrics import METRICS, DesignPoint, canonical_metric
from repro.dse.pareto import pareto_mask
from repro.engine.metrics import score_table_batched, winners_from_table
from repro.obs.context import current_context


@dataclass(frozen=True)
class ExplorationResult:
    """Everything a carbon-aware design sweep produces.

    Attributes:
        points: The evaluated candidates.
        scores: ``{metric: {design: score}}`` (lower is better).
        winners: ``{metric: design name}``.
        pareto: Non-dominated designs under (C, E, D).
    """

    points: tuple[DesignPoint, ...]
    scores: Mapping[str, Mapping[str, float]]
    winners: Mapping[str, str]
    pareto: tuple[DesignPoint, ...]

    @property
    def distinct_winner_count(self) -> int:
        """How many different designs win at least one metric — the paper's
        'carbon opens new design spaces' indicator."""
        return len(set(self.winners.values()))

    def winner_point(self, metric_name: str) -> DesignPoint:
        """The winning design point for one metric, in any spelling
        :func:`~repro.core.metrics.canonical_metric` accepts.

        Raises:
            UnknownEntryError: ``metric_name`` is no Table 2 metric.
            ConstraintError: The metric was not part of this exploration.
        """
        key = canonical_metric(metric_name)
        if key not in self.winners:
            raise ConstraintError(
                f"metric {metric_name!r} was not part of this exploration"
            )
        name = self.winners[key]
        return next(point for point in self.points if point.name == name)

    def is_pareto(self, design_name: str) -> bool:
        """Whether a named design sits on the (C, E, D) Pareto front."""
        return any(point.name == design_name for point in self.pareto)


def _require_finite_points(points: Sequence[DesignPoint]) -> None:
    """Reject candidates with non-finite objectives.

    A NaN embodied-carbon or delay value silently corrupts winner
    selection and the Pareto front (NaN comparisons are always False), so
    candidate sets are screened up front and rejected with a typed,
    per-candidate error instead.
    """
    bad: list[str] = []
    for point in points:
        fields = (point.embodied_carbon_g, point.energy_kwh, point.delay_s)
        area = point.area_mm2
        if any(not math.isfinite(value) for value in fields) or (
            area is not None and not math.isfinite(area)
        ):
            bad.append(point.name)
    if bad:
        raise ValidationError(
            f"{len(bad)} design point(s) carry non-finite objectives: "
            + ", ".join(repr(name) for name in bad[:8])
            + ("…" if len(bad) > 8 else "")
        )


def explore(
    points: Sequence[DesignPoint],
    metric_names: Sequence[str] | None = None,
) -> ExplorationResult:
    """Run the full carbon-aware exploration over a candidate set.

    Scores, winners, and the (C, E, D) Pareto front are all computed as
    array expressions over the stacked candidate columns, and equal the
    scalar :func:`~repro.core.metrics.score_table`,
    :func:`~repro.core.metrics.winners` and
    :func:`~repro.dse.pareto.pareto_front` exactly.  Metrics are keyed by
    :func:`~repro.core.metrics.canonical_metric`, whatever spelling the
    caller passed.

    Args:
        points: Candidate designs with (C, E, D[, A]) filled in.
        metric_names: Metrics to evaluate; defaults to all of Table 2.

    Raises:
        ConstraintError: On an empty candidate set.
        ParameterError: On two candidates sharing a name.
        ValidationError: On candidates with non-finite objectives.
        UnknownEntryError: On an unknown metric name.
    """
    if not points:
        raise ConstraintError("cannot explore an empty candidate set")
    _require_finite_points(points)
    names = tuple(metric_names) if metric_names is not None else tuple(METRICS)
    context = current_context()
    with context.span(
        "dse.explore", candidates=len(points), metrics=len(names)
    ):
        if context.enabled:
            context.count("dse.candidates", len(points))
        # Score once and derive the winners from the same table: the
        # winners are its per-metric argmins.
        scores = score_table_batched(points, names)
        mask = pareto_mask(
            np.array(
                [
                    (point.embodied_carbon_g, point.energy_kwh, point.delay_s)
                    for point in points
                ],
                dtype=np.float64,
            )
        )
        return ExplorationResult(
            points=tuple(points),
            scores=scores,
            winners=winners_from_table(scores),
            pareto=tuple(
                point for point, keep in zip(points, mask) if keep
            ),
        )


def metric_disagreement(result: ExplorationResult) -> float:
    """Fraction of metrics whose winner differs from the EDP winner.

    0 means classic energy-delay optimization already finds every optimum;
    anything above 0 quantifies how much the carbon metrics *change the
    answer* — the paper's central claim.
    """
    if "EDP" not in result.winners:
        raise ConstraintError("metric_disagreement needs EDP in the exploration")
    reference = result.winners["EDP"]
    others = [name for name in result.winners if name != "EDP"]
    if not others:
        return 0.0
    disagreements = sum(
        result.winners[name] != reference for name in others
    )
    return disagreements / len(others)

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
from repro.core.metrics import (
    METRICS,
    DesignPoint,
    score_table,
    winners,
)
from repro.dse.pareto import (
    dominance_counts,
    pareto_front,
    pareto_mask,
    update_dominance_counts,
)
from repro.engine.metrics import (
    METRIC_INPUTS,
    canonical_metric,
    metric_table_entry,
    score_table_batched,
    stack_design_points,
    winners_from_table,
)
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
        """The winning design point for one metric."""
        key = metric_name.strip().upper()
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

    Args:
        points: Candidate designs with (C, E, D[, A]) filled in.
        metric_names: Metrics to evaluate; defaults to all of Table 2.

    Raises:
        ConstraintError: On an empty candidate set.
        ValidationError: On candidates with non-finite objectives.
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
        front = pareto_front(
            tuple(points),
            (
                lambda p: p.embodied_carbon_g,
                lambda p: p.energy_kwh,
                lambda p: p.delay_s,
            ),
        )
        return ExplorationResult(
            points=tuple(points),
            scores=score_table(points, names),
            winners=winners(points, names),
            pareto=front,
        )


def explore_batched(
    points: Sequence[DesignPoint],
    metric_names: Sequence[str] | None = None,
    *,
    policy: "object | int | None" = None,
) -> ExplorationResult:
    """The batched twin of :func:`explore`, built on the engine kernels.

    Scores, winners, and the (C, E, D) Pareto front are all computed as
    array expressions over the stacked candidate columns — identical
    results to the scalar path (the equivalence suite pins them), at a
    fraction of the per-candidate cost for large design spaces.

    Args:
        points: The candidate designs.
        metric_names: Table 2 metrics to score (default: all of them).
        policy: An :class:`~repro.parallel.ExecutionPolicy`, a bare worker
            count, or ``None`` for the serial path.  Parallelism shards
            the Pareto dominance test — each shard compares its rows
            against the full objective matrix, so the front (and every
            winner) is bit-identical to the serial pass at any worker
            count.
    """
    if not points:
        raise ConstraintError("cannot explore an empty candidate set")
    _require_finite_points(points)
    names = tuple(metric_names) if metric_names is not None else tuple(METRICS)
    from repro.parallel.policy import resolve_policy

    resolved_policy = resolve_policy(policy)
    context = current_context()
    with context.span(
        "dse.explore_batched",
        candidates=len(points),
        metrics=len(names),
        workers=resolved_policy.workers if resolved_policy is not None else 0,
    ):
        if context.enabled:
            context.count("dse.candidates", len(points))
        columns = stack_design_points(points)
        objectives = np.stack(
            (
                columns["embodied_carbon_g"],
                columns["energy_kwh"],
                columns["delay_s"],
            ),
            axis=1,
        )
        if resolved_policy is not None and resolved_policy.parallel:
            from repro.parallel.runner import ParallelRunner

            with ParallelRunner(resolved_policy) as runner:
                mask = runner.pareto_mask(objectives)
        else:
            mask = pareto_mask(objectives)
        # Score once and derive the winners from the same table — the
        # winners are its per-metric argmins, so scoring twice (as a
        # separate winners_batched call would) buys nothing.
        scores = score_table_batched(points, names)
        return ExplorationResult(
            points=tuple(points),
            scores=scores,
            winners=winners_from_table(scores),
            pareto=tuple(
                point for point, keep in zip(points, mask) if keep
            ),
        )


#: The three (C, E, D) objective columns the Pareto front is built over.
_OBJECTIVE_COLUMNS = ("embodied_carbon_g", "energy_kwh", "delay_s")


class ExplorationSession:
    """Incremental :func:`explore_batched` across optimizer iterations.

    Local-search optimizers re-score nearly identical candidate sets
    every iteration — a move perturbs one objective of a few candidates
    and leaves everything else untouched.  A session remembers the last
    iteration's stacked columns, per-metric score-table rows, and Pareto
    mask, and on the next call recomputes only what its inputs require:
    a metric row is rebuilt only when one of its
    :data:`~repro.engine.metrics.METRIC_INPUTS` columns changed, the
    Pareto mask only when an objective column changed — and when only a
    few candidates moved, the mask is rebuilt *incrementally*: the
    session keeps per-row dominator counts
    (:func:`~repro.dse.pareto.dominance_counts`) and adjusts them from
    the changed rows in O(k*n) instead of re-deriving the O(n^2)
    dominance matrix.  Every
    :class:`ExplorationResult` it returns is identical (same scores,
    winners, and front) to a fresh ``explore_batched`` call on the same
    candidates — the equivalence is pinned by tests and benchmarked on
    ≥50-iteration trajectories.

    Sessions are serial and not thread-safe; use one per optimizer loop.

    Attributes:
        metrics_computed: Metric table rows rebuilt across all calls.
        metrics_reused: Metric table rows served from the previous
            iteration unchanged.
        pareto_reused: Calls that reused the previous Pareto mask.
        pareto_incremental: Calls that rebuilt the mask from the changed
            rows' dominator-count updates instead of a full recount.
    """

    def __init__(self) -> None:
        self._point_names: tuple[str, ...] | None = None
        self._columns: dict[str, np.ndarray | None] | None = None
        self._area_signature: tuple[float | None, ...] | None = None
        self._table: dict[str, dict[str, float]] = {}
        self._mask: np.ndarray | None = None
        self._objectives: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        self.metrics_computed = 0
        self.metrics_reused = 0
        self.pareto_reused = 0
        self.pareto_incremental = 0

    def _changed_columns(
        self,
        point_names: tuple[str, ...],
        columns: Mapping[str, np.ndarray | None],
        area_signature: tuple[float | None, ...],
    ) -> set[str]:
        """Which stacked columns differ from the previous iteration.

        A renamed or reordered candidate set invalidates everything (the
        table rows key on design names), so it reports all columns
        changed.  Area is compared through the per-point signature so a
        flip between ``None`` and a value (which changes EDAP
        eligibility, not just scores) registers as a change.
        """
        if self._columns is None or self._point_names != point_names:
            return set(METRIC_INPUTS["EDAP"]) | set(_OBJECTIVE_COLUMNS)
        changed = {
            name
            for name in _OBJECTIVE_COLUMNS
            if not np.array_equal(self._columns[name], columns[name])
        }
        if self._area_signature != area_signature:
            changed.add("area_mm2")
        return changed

    def explore(
        self,
        points: Sequence[DesignPoint],
        metric_names: Sequence[str] | None = None,
    ) -> ExplorationResult:
        """Score a candidate set, reusing unchanged work from last call.

        Same validation, same result as :func:`explore_batched` — an
        empty set raises :class:`~repro.core.errors.ConstraintError`,
        non-finite objectives raise
        :class:`~repro.core.errors.ValidationError`.
        """
        if not points:
            raise ConstraintError("cannot explore an empty candidate set")
        # Screen the stacked columns vectorized; only a failing screen
        # pays for the per-candidate loop (which names the offenders in
        # the exact error explore_batched would raise).
        columns = stack_design_points(points)
        area_signature = tuple(point.area_mm2 for point in points)
        finite = bool(
            np.isfinite(columns["embodied_carbon_g"]).all()
            and np.isfinite(columns["energy_kwh"]).all()
            and np.isfinite(columns["delay_s"]).all()
        )
        if finite:
            area_column = columns["area_mm2"]
            if area_column is not None:
                finite = bool(np.isfinite(area_column).all())
            else:  # mixed None/value areas never stack; check the values
                finite = not any(
                    value is not None and not math.isfinite(value)
                    for value in area_signature
                )
        if not finite:
            _require_finite_points(points)
        names = (
            tuple(metric_names) if metric_names is not None else tuple(METRICS)
        )
        requested = tuple(canonical_metric(name) for name in names)
        context = current_context()
        with context.span(
            "dse.explore_session",
            candidates=len(points),
            metrics=len(requested),
        ):
            if context.enabled:
                context.count("dse.candidates", len(points))
            point_names = tuple(point.name for point in points)
            changed = self._changed_columns(
                point_names, columns, area_signature
            )
            table: dict[str, dict[str, float]] = {}
            design_names = list(point_names)
            for metric in requested:
                cached = self._table.get(metric)
                if cached is not None and not changed.intersection(
                    METRIC_INPUTS[metric]
                ):
                    self.metrics_reused += 1
                else:
                    cached = metric_table_entry(
                        points, columns, design_names, metric
                    )
                    self._table[metric] = cached
                    self.metrics_computed += 1
                table[metric] = cached
            if self._mask is not None and not changed.intersection(
                _OBJECTIVE_COLUMNS
            ):
                mask = self._mask
                self.pareto_reused += 1
            else:
                objectives = np.stack(
                    tuple(columns[name] for name in _OBJECTIVE_COLUMNS),
                    axis=1,
                )
                counts = None
                if (
                    self._point_names == point_names
                    and self._objectives is not None
                    and self._counts is not None
                    and self._objectives.shape == objectives.shape
                ):
                    # Aligned candidate set: update the dominator counts
                    # from the rows that actually moved.  Incremental
                    # O(k*n) only pays off while few rows changed; past
                    # a quarter of the set the full O(n^2) recount wins.
                    rows = np.flatnonzero(
                        (self._objectives != objectives).any(axis=1)
                    )
                    if rows.size * 4 <= objectives.shape[0]:
                        counts = update_dominance_counts(
                            self._objectives, self._counts, objectives, rows
                        )
                        self.pareto_incremental += 1
                if counts is None:
                    counts = dominance_counts(objectives)
                mask = counts == 0
                self._mask = mask
                self._objectives = objectives
                self._counts = counts
            self._point_names = point_names
            self._columns = columns
            self._area_signature = area_signature
            # Hand out copies of the cached rows: ExplorationResult is
            # frozen but its score dicts are not, and a caller mutating
            # one must not corrupt the next iteration's reuse.
            scores = {metric: dict(row) for metric, row in table.items()}
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

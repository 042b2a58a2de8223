"""Table 2 optimization metrics as array expressions over N designs.

The scalar registry in :mod:`repro.core.metrics` evaluates one
(design, metric) pair per call; Figures 8, 9, and 12 score every candidate
under every metric.  This module computes each metric as a single numpy
expression over stacked (C, E, D, A) columns, and re-exposes the results in
the exact shapes the scalar helpers produce (``score_table`` /
``winners``-compatible dicts) so experiments can swap the scalar helpers
for these without changing their downstream reporting.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.errors import UnknownEntryError
from repro.core.metrics import METRICS, DesignPoint

_CANONICAL = tuple(METRICS)

#: Which stacked design columns each Table 2 metric actually reads.
#: Drives incremental re-scoring (:class:`repro.dse.optimizer.ExplorationSession`):
#: a metric's cached table entry stays valid while none of its input
#: columns changed between optimizer iterations.
METRIC_INPUTS: Mapping[str, tuple[str, ...]] = {
    "EDP": ("energy_kwh", "delay_s"),
    "EDAP": ("energy_kwh", "delay_s", "area_mm2"),
    "CDP": ("embodied_carbon_g", "delay_s"),
    "CEP": ("embodied_carbon_g", "energy_kwh"),
    "C2EP": ("embodied_carbon_g", "energy_kwh"),
    "CE2P": ("embodied_carbon_g", "energy_kwh"),
}


def canonical_metric(name: str) -> str:
    """Normalize a metric spelling (``"edp"``, ``"ED-P"``…) to its key."""
    key = name.strip().upper().replace("-", "").replace("_", "")
    if key not in METRICS:
        raise UnknownEntryError("metric", name, METRICS)
    return key


_canonical_name = canonical_metric


def metric_columns(
    embodied_carbon_g: np.ndarray,
    energy_kwh: np.ndarray,
    delay_s: np.ndarray,
    area_mm2: np.ndarray | None = None,
    metric_names: Iterable[str] | None = None,
) -> dict[str, np.ndarray]:
    """All requested Table 2 metrics over stacked design columns.

    Args:
        embodied_carbon_g: Embodied carbon ``C`` per design.
        energy_kwh: Operational energy ``E`` per design.
        delay_s: Delay ``D`` per design.
        area_mm2: Area ``A`` per design; required only for EDAP.
        metric_names: Metrics to compute (default: all of Table 2;
            EDAP is skipped automatically when no area is given).

    Returns:
        ``{metric: scores array}`` with lower-is-better scores.
    """
    carbon = np.asarray(embodied_carbon_g, dtype=np.float64)
    energy = np.asarray(energy_kwh, dtype=np.float64)
    delay = np.asarray(delay_s, dtype=np.float64)
    area = None if area_mm2 is None else np.asarray(area_mm2, dtype=np.float64)
    if metric_names is None:
        names = tuple(name for name in _CANONICAL if name != "EDAP" or area is not None)
    else:
        names = tuple(_canonical_name(name) for name in metric_names)
    if "EDAP" in names and area is None:
        raise UnknownEntryError("design point area (required by EDAP)", "(batch)")
    columns: dict[str, np.ndarray] = {}
    for name in names:
        if name == "EDP":
            columns[name] = energy * delay
        elif name == "EDAP":
            columns[name] = energy * delay * area
        elif name == "CDP":
            columns[name] = carbon * delay
        elif name == "CEP":
            columns[name] = carbon * energy
        elif name == "C2EP":
            columns[name] = carbon**2 * energy
        elif name == "CE2P":
            columns[name] = carbon * energy**2
    return columns


def stack_design_points(
    points: Sequence[DesignPoint],
) -> dict[str, np.ndarray | None]:
    """Design points as struct-of-arrays columns (area None-aware).

    The ``area_mm2`` entry is ``None`` when *any* point lacks an area, since
    EDAP is undefined for a partially-specified candidate set; the
    per-metric helpers below fall back to the scalar skip semantics there.
    """
    if not points:
        raise UnknownEntryError("design point set", "(empty)")
    has_area = all(point.area_mm2 is not None for point in points)
    return {
        "embodied_carbon_g": np.array(
            [point.embodied_carbon_g for point in points], dtype=np.float64
        ),
        "energy_kwh": np.array(
            [point.energy_kwh for point in points], dtype=np.float64
        ),
        "delay_s": np.array([point.delay_s for point in points], dtype=np.float64),
        "area_mm2": (
            np.array([point.area_mm2 for point in points], dtype=np.float64)
            if has_area
            else None
        ),
    }


def score_table_batched(
    points: Sequence[DesignPoint], metric_names: Iterable[str] | None = None
) -> dict[str, dict[str, float]]:
    """Batched drop-in for :func:`repro.core.metrics.score_table`.

    Returns the same ``{metric: {design name: score}}`` mapping, computed
    from one array expression per metric instead of a per-pair Python call.
    """
    columns = stack_design_points(points)
    requested = (
        tuple(_canonical_name(name) for name in metric_names)
        if metric_names is not None
        else _CANONICAL
    )
    names = [point.name for point in points]
    return {
        metric: metric_table_entry(points, columns, names, metric)
        for metric in requested
    }


def metric_table_entry(
    points: Sequence[DesignPoint],
    columns: Mapping[str, np.ndarray | None],
    names: Sequence[str],
    metric: str,
) -> dict[str, float]:
    """One metric's ``{design name: score}`` row of the score table.

    The loop body of :func:`score_table_batched`, factored out so
    incremental re-scoring (:class:`repro.dse.optimizer.ExplorationSession`)
    can recompute exactly the metrics whose input columns changed and
    still produce byte-identical table entries.  EDAP keeps the scalar
    path's skip semantics: only area-carrying candidates appear.
    """
    if metric == "EDAP":
        eligible = [
            index
            for index, point in enumerate(points)
            if point.area_mm2 is not None
        ]
        if not eligible:
            return {}
        area = np.array(
            [points[index].area_mm2 for index in eligible], dtype=np.float64
        )
        scores = metric_columns(
            columns["embodied_carbon_g"][eligible],
            columns["energy_kwh"][eligible],
            columns["delay_s"][eligible],
            area,
            metric_names=("EDAP",),
        )["EDAP"]
        return {
            names[index]: float(score)
            for index, score in zip(eligible, scores)
        }
    scores = metric_columns(
        columns["embodied_carbon_g"],
        columns["energy_kwh"],
        columns["delay_s"],
        columns["area_mm2"],
        metric_names=(metric,),
    )[metric]
    return dict(zip(names, (float(s) for s in scores)))


def winners_from_table(
    table: Mapping[str, Mapping[str, float]],
) -> dict[str, str]:
    """Per-metric argmin over an already-computed score table.

    Ties resolve to the earliest design (``np.argmin`` breaks ties by
    position; row order follows the candidate order), matching ``min``
    over the scalar path.  Empty rows (EDAP with no area-carrying
    candidates) are skipped.
    """
    result: dict[str, str] = {}
    for metric, row in table.items():
        if not row:
            continue
        labels = list(row)
        result[metric] = labels[int(np.argmin(np.array(list(row.values()))))]
    return result


def winners_batched(
    points: Sequence[DesignPoint], metric_names: Iterable[str] | None = None
) -> dict[str, str]:
    """Batched drop-in for :func:`repro.core.metrics.winners`.

    Per-metric argmin over the score arrays; ties resolve to the earliest
    design, matching ``min`` over the scalar path.
    """
    return winners_from_table(score_table_batched(points, metric_names))


def best_index(
    scores: Mapping[str, np.ndarray] | np.ndarray, metric: str | None = None
) -> int:
    """Index of the minimizing design in a score column."""
    if isinstance(scores, Mapping):
        if metric is None:
            raise UnknownEntryError("metric", "(none given)", scores)
        scores = scores[_canonical_name(metric)]
    return int(np.argmin(np.asarray(scores)))

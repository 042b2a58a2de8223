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

from repro.core.errors import ParameterError, UnknownEntryError
from repro.core.metrics import METRICS, DesignPoint, canonical_metric

_CANONICAL = tuple(METRICS)


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
        names = tuple(canonical_metric(name) for name in metric_names)
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
            columns[name] = carbon * carbon * energy
        elif name == "CE2P":
            columns[name] = carbon * (energy * energy)
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
    EDAP keeps the scalar path's skip semantics: only area-carrying
    candidates appear in its row.

    Raises:
        ParameterError: Two candidates share a name, which would collapse
            them into one score-table entry.
    """
    names = [point.name for point in points]
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ParameterError(
                f"design name {name!r} is repeated: every candidate needs "
                "its own name"
            )
        seen.add(name)
    columns = stack_design_points(points)
    requested = (
        tuple(canonical_metric(name) for name in metric_names)
        if metric_names is not None
        else _CANONICAL
    )
    objectives = tuple(
        columns[name] for name in ("embodied_carbon_g", "energy_kwh", "delay_s")
    )
    scored = metric_columns(
        *objectives, metric_names=[name for name in requested if name != "EDAP"]
    )
    labels = dict.fromkeys(scored, names)
    if "EDAP" in requested:
        eligible = [
            index
            for index, point in enumerate(points)
            if point.area_mm2 is not None
        ]
        area = np.array(
            [points[index].area_mm2 for index in eligible], dtype=np.float64
        )
        scored.update(
            metric_columns(
                *(column[eligible] for column in objectives), area, ("EDAP",)
            )
        )
        labels["EDAP"] = [points[index].name for index in eligible]
    return {
        metric: dict(zip(labels[metric], map(float, scored[metric])))
        for metric in requested
    }


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

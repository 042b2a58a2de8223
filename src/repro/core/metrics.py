"""Carbon optimization metrics (Table 2 of the paper).

ACT extends the architect's classic energy-delay product family with four
carbon-aware figures of merit.  In every formula ``C`` is *embodied* carbon,
``E`` operational energy, ``D`` delay, and ``A`` area; lower is always
better:

========  ==================  =============================================
Metric    Formula             Use case (Table 2)
========  ==================  =============================================
EDP       E·D                 energy optimization (mobile)
EDAP      E·D·A               energy + cost optimization (mobile)
CDP       C·D                 balance CO2 and performance (data center)
CEP       C·E                 balance CO2 and energy (sustainable mobile)
C2EP      C²·E                device dominated by embodied footprint
CE2P      C·E²                device dominated by operational footprint
========  ==================  =============================================

The module exposes both plain functions and a registry keyed by metric name
so sweeps can iterate "for each metric, find the optimum" exactly the way
Figures 8, 9, and 12 do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from repro.core.errors import UnknownEntryError


@dataclass(frozen=True)
class DesignPoint:
    """The quantities a metric can consume, for one candidate design.

    Attributes:
        name: Design identifier (e.g. ``"Kirin 980"`` or ``"256 MACs"``).
        embodied_carbon_g: Embodied carbon ``C`` (grams CO2).
        energy_kwh: Operational energy ``E`` for the reference workload.
        delay_s: Delay ``D`` (seconds) for the reference workload.
        area_mm2: Silicon area ``A`` (mm^2); optional — only EDAP needs it.
    """

    name: str
    embodied_carbon_g: float
    energy_kwh: float
    delay_s: float
    area_mm2: float | None = None


def edp(point: DesignPoint) -> float:
    """Energy-delay product (``E·D``)."""
    return point.energy_kwh * point.delay_s


def edap(point: DesignPoint) -> float:
    """Energy-delay-area product (``E·D·A``)."""
    if point.area_mm2 is None:
        raise UnknownEntryError("design point area (required by EDAP)", point.name)
    return point.energy_kwh * point.delay_s * point.area_mm2


def cdp(point: DesignPoint) -> float:
    """Carbon-delay product (``C·D``)."""
    return point.embodied_carbon_g * point.delay_s


def cep(point: DesignPoint) -> float:
    """Carbon-energy product (``C·E``)."""
    return point.embodied_carbon_g * point.energy_kwh


def c2ep(point: DesignPoint) -> float:
    """Carbon²-energy product (``C²·E``) — embodied-dominated designs."""
    # Squares are written as products: ``x**2`` goes through libm pow(),
    # which can round differently from numpy's array square, and the
    # batched kernels in repro.engine.metrics must match these exactly.
    carbon = point.embodied_carbon_g
    return carbon * carbon * point.energy_kwh


def ce2p(point: DesignPoint) -> float:
    """Carbon-energy² product (``C·E²``) — operational-dominated designs."""
    energy = point.energy_kwh
    return point.embodied_carbon_g * (energy * energy)


MetricFn = Callable[[DesignPoint], float]

#: All Table 2 metrics by canonical name, in the paper's presentation order.
METRICS: dict[str, MetricFn] = {
    "EDP": edp,
    "EDAP": edap,
    "CDP": cdp,
    "CEP": cep,
    "C2EP": c2ep,
    "CE2P": ce2p,
}

#: The carbon-aware subset introduced by ACT.
CARBON_METRICS: tuple[str, ...] = ("CDP", "CEP", "C2EP", "CE2P")

#: The classic PPA-era baselines.
ENERGY_METRICS: tuple[str, ...] = ("EDP", "EDAP")


def canonical_metric(name: str) -> str:
    """Normalize a metric spelling (``"edp"``, ``"ED-P"``…) to its key.

    Every score table, winner map and exploration result keys its metrics
    by this name, whatever spelling the caller passed.
    """
    key = name.strip().upper().replace("-", "").replace("_", "")
    if key not in METRICS:
        raise UnknownEntryError("metric", name, METRICS)
    return key


def metric(name: str) -> MetricFn:
    """Look up a metric function by (case-insensitive) name."""
    return METRICS[canonical_metric(name)]


def evaluate(point: DesignPoint, metric_name: str) -> float:
    """Evaluate one named metric on one design point."""
    return metric(metric_name)(point)


def score_table(
    points: Sequence[DesignPoint], metric_names: Iterable[str] | None = None
) -> dict[str, dict[str, float]]:
    """Scores for every (design, metric) pair.

    Args:
        points: Candidate designs.
        metric_names: Metrics to evaluate; defaults to all of Table 2
            (skipping EDAP automatically when a point lacks area).

    Returns:
        ``{metric: {design name: score}}`` with lower-is-better scores,
        keyed by :func:`canonical_metric`.
    """
    names = tuple(metric_names) if metric_names is not None else tuple(METRICS)
    table: dict[str, dict[str, float]] = {}
    for name in names:
        key = canonical_metric(name)
        fn = METRICS[key]
        row: dict[str, float] = {}
        for point in points:
            if key == "EDAP" and point.area_mm2 is None:
                continue
            row[point.name] = fn(point)
        table[key] = row
    return table


def best_design(points: Sequence[DesignPoint], metric_name: str) -> DesignPoint:
    """The design minimizing a named metric (lower is better)."""
    if not points:
        raise UnknownEntryError("design point set", "(empty)")
    fn = metric(metric_name)
    return min(points, key=fn)


def winners(
    points: Sequence[DesignPoint], metric_names: Iterable[str] | None = None
) -> dict[str, str]:
    """The winning design name for each metric — Figure 8(d)'s punchline.

    Keyed by :func:`canonical_metric`, like :func:`score_table`.
    """
    names = tuple(metric_names) if metric_names is not None else tuple(METRICS)
    result: dict[str, str] = {}
    for name in names:
        key = canonical_metric(name)
        eligible = [
            p for p in points if not (key == "EDAP" and p.area_mm2 is None)
        ]
        if eligible:
            result[key] = best_design(eligible, key).name
    return result


T = TypeVar("T")


def normalized(scores: dict[str, float], reference: str) -> dict[str, float]:
    """Scores divided by the reference design's score (Figure 8(d)'s y-axis)."""
    if reference not in scores:
        raise UnknownEntryError("reference design", reference, scores)
    ref = scores[reference]
    if ref == 0:
        raise ZeroDivisionError(f"reference design {reference!r} has zero score")
    return {name: value / ref for name, value in scores.items()}

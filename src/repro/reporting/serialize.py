"""Serialization of figure/table data to CSV and JSON strings.

Kept dependency-free (``json`` + hand-rolled CSV) so exported experiment
data can be re-plotted with any external tool.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.errors import finite_json
from repro.reporting.figures import FigureData, Series


def _csv_cell(value: object) -> str:
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def rows_to_csv(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render headers + rows as an RFC-4180-style CSV string."""
    lines = [",".join(_csv_cell(cell) for cell in headers)]
    lines.extend(",".join(_csv_cell(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def series_to_csv(series: Series) -> str:
    """One series as a two-column CSV (x, y)."""
    return rows_to_csv(("x", series.name), series.as_pairs())


def figure_to_csv(figure: FigureData) -> str:
    """A figure as a wide CSV: one x column plus one column per series.

    Requires every series to share the same x positions (true for all the
    bundled experiments); raises otherwise.
    """
    if not figure.series:
        return "x\n"
    base_x = figure.series[0].x
    for entry in figure.series[1:]:
        if entry.x != base_x:
            raise ValueError(
                f"series {entry.name!r} has different x positions than "
                f"{figure.series[0].name!r}; export them individually"
            )
    headers = ("x",) + tuple(entry.name for entry in figure.series)
    rows = [
        (x,) + tuple(entry.y[index] for entry in figure.series)
        for index, x in enumerate(base_x)
    ]
    return rows_to_csv(headers, rows)


def figure_to_json(figure: FigureData, *, indent: int = 2) -> str:
    """A figure as a strict JSON document.

    A non-finite value raises :class:`~repro.core.errors.NonFiniteError`.
    """
    payload = {
        "title": figure.title,
        "x_label": figure.x_label,
        "y_label": figure.y_label,
        "series": [
            {"name": entry.name, "x": list(entry.x), "y": list(entry.y)}
            for entry in figure.series
        ],
    }
    return finite_json(payload, f"figure {figure.title!r}", indent=indent)

"""Pareto-front extraction for multi-objective design-space exploration.

ACT's central message is that carbon, performance, and energy trade off
along *different* axes than classical PPA; the Pareto front over
(embodied carbon, delay, energy, ...) is the natural way to present that
design space.  All objectives minimize.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.core.errors import ConstraintError

T = TypeVar("T")

Objective = Callable[[T], float]


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether objective vector ``a`` Pareto-dominates ``b`` (minimizing).

    ``a`` dominates ``b`` when it is no worse on every objective and
    strictly better on at least one.
    """
    if len(a) != len(b):
        raise ConstraintError(
            f"objective vectors differ in length: {len(a)} vs {len(b)}"
        )
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def pareto_front(
    candidates: Sequence[T], objectives: Sequence[Objective[T]]
) -> tuple[T, ...]:
    """The non-dominated subset of ``candidates`` under ``objectives``.

    Order is preserved; duplicate objective vectors are all retained (they
    do not dominate each other).
    """
    if not objectives:
        raise ConstraintError("at least one objective is required")
    if not candidates:
        return ()
    vectors = np.array(
        [[fn(candidate) for fn in objectives] for candidate in candidates],
        dtype=np.float64,
    )
    mask = pareto_mask(vectors)
    return tuple(
        candidate
        for candidate, keep in zip(candidates, mask)
        if keep
    )


def pareto_mask(objectives: np.ndarray) -> np.ndarray:
    """Boolean non-dominated mask over an ``(n, m)`` objective matrix.

    The array form of :func:`pareto_front` — row ``i`` is one candidate's
    ``m`` minimizing objectives, and the result marks the rows no other row
    Pareto-dominates.  One broadcasted comparison replaces the O(n^2)
    Python loop, so batched sweeps can extract fronts directly from their
    result columns.  Duplicate rows are all retained, matching
    :func:`dominates` semantics.
    """
    matrix = np.asarray(objectives, dtype=np.float64)
    if matrix.ndim != 2:
        raise ConstraintError(
            f"objective matrix must be 2-D (candidates x objectives), "
            f"got shape {matrix.shape}"
        )
    if matrix.shape[1] == 0:
        raise ConstraintError("at least one objective is required")
    if matrix.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    # dominated[i, j]: candidate i is no worse than j everywhere and
    # strictly better somewhere — i.e. i dominates j.  Self-pairs come out
    # False (a row is never strictly better than itself somewhere).
    no_worse = (matrix[:, None, :] <= matrix[None, :, :]).all(axis=2)
    better = (matrix[:, None, :] < matrix[None, :, :]).any(axis=2)
    return ~(no_worse & better).any(axis=0)

"""Exception hierarchy for the ACT reproduction library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single except clause while still
letting programming errors (TypeError, etc.) propagate untouched.

The robustness layer (:mod:`repro.robustness`) grows the taxonomy with
errors that carry *structured* context — which column failed, at which
row indices, with which offending values — so failures in long batched
runs are diagnosable without re-running anything.
"""

from __future__ import annotations

import difflib
import json
from typing import Iterable, Sequence

#: How many available entries an :class:`UnknownEntryError` message lists
#: before truncating with "… and N more".
_MAX_AVAILABLE_SHOWN = 10


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ParameterError(ReproError, ValueError):
    """An ACT model parameter is missing, out of range, or inconsistent."""


class UnknownEntryError(ReproError, KeyError):
    """A lookup into one of the bundled data tables failed.

    Carries the requested key and the set of available keys so error
    messages are actionable.  Long availability lists are truncated in the
    message (the full sorted list stays on :attr:`available`), and a
    close-match suggestion is appended when one exists.
    """

    def __init__(self, kind: str, key: object, available: object = None):
        self.kind = kind
        self.key = key
        # ``is not None`` rather than truthiness: a legitimately empty
        # collection ("this table has no entries") is still information.
        self.available = sorted(available, key=str) if available is not None else None
        message = f"unknown {kind}: {key!r}"
        if self.available is not None:
            names = [str(entry) for entry in self.available]
            shown = names[:_MAX_AVAILABLE_SHOWN]
            listing = ", ".join(shown)
            if len(names) > len(shown):
                listing += f", … and {len(names) - len(shown)} more"
            if names:
                message += f" (available: {listing})"
            else:
                message += " (no entries available)"
            match = difflib.get_close_matches(str(key), names, n=1)
            if match:
                message += f" — did you mean {match[0]!r}?"
                self.suggestion: str | None = match[0]
            else:
                self.suggestion = None
        else:
            self.suggestion = None
        super().__init__(message)

    def __str__(self) -> str:  # KeyError quotes its args; keep message plain
        return self.args[0]


class ConstraintError(ReproError, ValueError):
    """A design-space constraint is infeasible or malformed."""


class CalibrationError(ReproError, RuntimeError):
    """A calibrated case-study model failed an internal sanity check."""


class NonFiniteError(ReproError, ValueError):
    """An artifact value is NaN or ±Infinity, which strict JSON cannot hold.

    Raised by :func:`finite_json` in place of writing the artifact.
    """


def finite_json(payload: object, what: str, **options: object) -> str:
    """``json.dumps(payload, allow_nan=False, **options)`` for artifacts.

    Python's encoder writes ``NaN``/``Infinity`` by default, which no
    strict JSON reader accepts; an artifact carrying one raises
    :class:`NonFiniteError` naming ``what`` instead of being written.
    """
    try:
        return json.dumps(payload, allow_nan=False, **options)
    except ValueError as error:
        raise NonFiniteError(
            f"{what} cannot be written as JSON: {error}"
        ) from None


class ValidationError(ReproError, ValueError):
    """Guarded evaluation rejected a batch of model inputs.

    Attributes:
        diagnostics: Per-column findings (objects with ``column``,
            ``reason``, ``indices``, and ``values`` attributes — see
            :class:`repro.robustness.guard.ColumnDiagnostic`).  Empty when
            the failure is not column-shaped.
    """

    def __init__(self, message: str, diagnostics: Iterable[object] = ()):
        self.diagnostics = tuple(diagnostics)
        super().__init__(message)


class DivergenceError(ReproError, ArithmeticError):
    """The batched engine and the scalar reference path disagree.

    Raised by the guarded engine's cross-check when a kernel anomaly is
    re-evaluated on the scalar path and the two implementations differ
    beyond tolerance — the one failure mode that must never be absorbed
    silently, because it means the fast path is computing a different
    model than the reference.

    Attributes:
        series: The Eq. 1-8 output series that diverged (e.g. ``total_g``).
        indices: Batch row indices where the disagreement was observed.
        batched: The batched engine's values at those rows.
        reference: The scalar reference values at those rows.
        tolerance: The comparison tolerance that was exceeded.
    """

    def __init__(
        self,
        message: str,
        *,
        series: str = "",
        indices: Sequence[int] = (),
        batched: Sequence[float] = (),
        reference: Sequence[float] = (),
        tolerance: float = 0.0,
    ):
        self.series = series
        self.indices = tuple(int(index) for index in indices)
        self.batched = tuple(float(value) for value in batched)
        self.reference = tuple(float(value) for value in reference)
        self.tolerance = tolerance
        super().__init__(message)


class CheckpointError(ReproError, RuntimeError):
    """A run checkpoint is missing, corrupt, or from a different run.

    Attributes:
        path: The checkpoint file involved (when known).
        reason: Machine-readable failure class (``"missing"``,
            ``"corrupt"``, ``"mismatch"``, ``"version"``, ``"io"``, ...).
        salvage: The salvage summary for the store involved (chunks
            kept/quarantined, generation recovered) when a recovery was
            attempted — empty otherwise.  Also embedded in the message,
            so operators see what was lost, not a bare "corrupt".
    """

    def __init__(
        self,
        message: str,
        *,
        path: object = None,
        reason: str = "",
        salvage: str = "",
    ):
        self.path = path
        self.reason = reason
        self.salvage = salvage
        super().__init__(message)


class WorkerError(ReproError, RuntimeError):
    """A worker process died, or failed in a way its exception could not express.

    The shard supervisor chains every infrastructure failure it gives up
    on to its cause: the worker's own exception when it survives a pickle
    round trip, and otherwise one of these — carrying the exception's
    text and traceback (exotic ``__init__`` signatures, unpicklable
    payloads) or a dead worker's exit code.

    Attributes:
        worker: Index of the worker process that failed.
        shard: Index of the shard being evaluated (``-1`` when unknown).
        original: The original exception's ``repr`` (plus traceback text
            when available).
    """

    def __init__(
        self,
        message: str,
        *,
        worker: int = -1,
        shard: int = -1,
        original: str = "",
    ):
        self.worker = worker
        self.shard = shard
        self.original = original
        super().__init__(message)


class ShardFailedError(WorkerError):
    """A shard exhausted its retry budget.

    Raised by the shard supervisor once a shard has failed its first
    attempt plus its re-executions — ``max_retries`` under
    ``failure_policy="retry"``, none under ``"fail_fast"`` — for
    *infrastructure* reasons (worker death, blown deadline, lost result,
    transport failure), chained to the last failure's exception.  Model
    errors never reach this point — any :class:`ReproError` raised by the
    shard's evaluation is deterministic and propagates immediately with
    its original type.

    Attributes:
        attempts: Total executions attempted (first try included).
        cause: Machine-readable class of the final failure
            (``"error"``, ``"worker-death"``, ``"deadline"``, ``"lost"``).
    """

    def __init__(
        self,
        message: str,
        *,
        worker: int = -1,
        shard: int = -1,
        original: str = "",
        attempts: int = 0,
        cause: str = "",
    ):
        self.attempts = attempts
        self.cause = cause
        super().__init__(
            message, worker=worker, shard=shard, original=original
        )


class RunInterrupted(ReproError, RuntimeError):
    """A chunked run was cancelled cooperatively before completing.

    Partial results were checkpointed (when a checkpoint path was given),
    so the run can be resumed bit-for-bit.

    Attributes:
        completed: Rows evaluated before the interruption.
        total: Rows the full run would evaluate.
        checkpoint: Path of the checkpoint holding the partial results
            (``None`` when the run was not checkpointing).
    """

    def __init__(
        self,
        message: str,
        *,
        completed: int = 0,
        total: int = 0,
        checkpoint: object = None,
    ):
        self.completed = completed
        self.total = total
        self.checkpoint = checkpoint
        super().__init__(message)

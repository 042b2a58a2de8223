"""Structured event sinks: the JSONL audit stream of a traced run.

Every observable happening — run start/end, span enter/exit, checkpoint
save/restore, chunk progress — is one flat JSON object per line.  The
schema is deliberately minimal and stable:

* ``ts`` — wall-clock Unix timestamp (seconds, float);
* ``event`` — the event type (``run_start``, ``span_start``, ``span_end``,
  ``checkpoint_save``, ``checkpoint_restore``, ``chunk``, ``metric``,
  ``run_end``);
* everything else — event-specific fields (span ``name`` and ``attributes``,
  chunk ``completed``/``total``, the final metrics snapshot, ...).

A line-oriented format means a killed run still leaves a readable prefix,
and ``jq``/pandas can consume the stream without a schema registry.
:func:`read_events` is the matching consumer: it tolerates exactly the
damage a crash can cause (a torn *trailing* line) and refuses the damage
a crash cannot (garbage in the middle of the stream).

Path-based sinks write through the process-wide
:class:`~repro.robustness.durability.DurableIO` layer, so the torture
harness can kill a run mid-line and prove the stream stays parseable.
"""

from __future__ import annotations

import json
import math
import threading
import time
from typing import IO, Mapping

from repro.core.errors import CheckpointError


class EventSink:
    """Base sink: silently drops every event (the null object)."""

    def emit(self, event: str, **fields: object) -> None:
        """Record one event (no-op in the base sink)."""

    def close(self) -> None:
        """Flush and release any underlying resources (no-op here)."""


def _jsonable(value: object) -> object:
    """Coerce numpy scalars / paths / exotic values into JSON-safe types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(item) for item in value]
    item = getattr(value, "item", None)  # numpy scalar
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return str(value)


def _finite(value: object) -> object:
    """``value`` (already :func:`_jsonable`) with every non-finite float
    replaced by ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite(item) for item in value]
    return value


class MemoryEventSink(EventSink):
    """Keeps every event in a list — the test- and profile-friendly sink."""

    def __init__(self) -> None:
        self.events: list[dict[str, object]] = []
        self._lock = threading.Lock()

    def emit(self, event: str, **fields: object) -> None:
        record: dict[str, object] = {"ts": time.time(), "event": event}
        record.update({key: _jsonable(value) for key, value in fields.items()})
        with self._lock:
            self.events.append(record)

    def of_type(self, event: str) -> list[dict[str, object]]:
        """Every recorded event of one type, in order."""
        with self._lock:
            return [
                record for record in self.events if record["event"] == event
            ]


class JsonlEventSink(EventSink):
    """Appends one JSON object per event to a file (or file-like object).

    Every line is strict JSON: a non-finite field value (``NaN``,
    ``±Infinity``) is written as ``null``, because a sink must never
    raise into the run it observes.

    The file is opened lazily on the first event and flushed per line, so
    an interrupted run leaves a valid (truncated) JSONL prefix.  Writes
    are serialized under a lock, so concurrent request threads (the
    service's access log) never interleave half-lines.
    """

    def __init__(self, target: str | IO[str]) -> None:
        if isinstance(target, str):
            self.path: str | None = target
            self._handle: IO[str] | None = None
        else:
            self.path = None
            self._handle = target
        self.emitted = 0
        self._lock = threading.Lock()

    @staticmethod
    def _io():
        # Imported lazily: the durability module lives in the robustness
        # package, whose __init__ transitively imports this module.
        from repro.robustness import durability

        return durability, durability.current_io()

    def _file(self) -> IO[str]:
        if self._handle is None:
            assert self.path is not None
            durability, layer = self._io()
            self._handle = layer.open(
                self.path, "w", durability.CP_JSONL_OPEN
            )
        return self._handle

    def emit(self, event: str, **fields: object) -> None:
        record: dict[str, object] = {"ts": time.time(), "event": event}
        record.update({key: _jsonable(value) for key, value in fields.items()})
        try:
            line = json.dumps(record, allow_nan=False) + "\n"
        except ValueError:
            # An event must never fail the run it describes: a NaN or
            # ±Infinity field value is written as ``null`` instead.
            line = json.dumps(_finite(record), allow_nan=False) + "\n"
        with self._lock:
            handle = self._file()
            if self.path is not None:
                durability, layer = self._io()
                layer.write(handle, line, durability.CP_JSONL_WRITE)
                layer.flush(handle, durability.CP_JSONL_FLUSHED)
            else:
                handle.write(line)
                handle.flush()
            self.emitted += 1

    def close(self) -> None:
        with self._lock:
            if self._handle is not None and self.path is not None:
                self._handle.close()
                self._handle = None


def read_events(
    path: str, *, strict: bool = False
) -> list[dict[str, object]]:
    """Parse a JSONL event stream, tolerating a torn trailing line.

    A crash mid-append can leave exactly one kind of damage: an
    incomplete *final* line.  That line is silently dropped (unless
    ``strict=True``).  Anything else — unparseable JSON *followed by
    more lines*, or a non-object record — cannot be produced by the
    append-and-flush protocol and raises
    :class:`~repro.core.errors.CheckpointError` (reason ``"corrupt"``)
    instead of being skipped: an audit stream with holes in the middle
    must not pass for a healthy one.

    Args:
        path: The JSONL file to read.
        strict: Raise on a torn trailing line instead of dropping it.

    Returns:
        The parsed event records, in emission order.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        content = handle.read()
    events: list[dict[str, object]] = []
    lines = content.split("\n")
    # A healthy stream ends with "\n", so the final split element is "".
    terminated = lines and lines[-1] == ""
    if terminated:
        lines = lines[:-1]
    for index, line in enumerate(lines):
        is_last = index == len(lines) - 1
        torn_tail_allowed = is_last and not terminated and not strict
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("event record is not a JSON object")
        except ValueError as error:
            if torn_tail_allowed:
                break
            raise CheckpointError(
                f"event stream {path!r} is corrupt at line {index + 1}: "
                f"{error}",
                path=path,
                reason="corrupt",
            ) from error
        events.append(record)
    return events

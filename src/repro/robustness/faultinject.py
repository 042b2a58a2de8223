"""Deterministic fault injection for scenario columns and data tables.

Carbon models feed real design decisions, so "what happens when an input
is corrupt?" must be a tested property, not a hope.  This module corrupts
inputs *on purpose* — reproducibly, from a seeded RNG — so the test suite
can prove that every fault class either raises a typed
:class:`~repro.core.errors.ReproError` somewhere in the stack or surfaces
as an explicitly warned, masked result.  The fault classes mirror the ways
real data goes bad:

========== =========================================================
``nan``    A sensor/parse hole: values become NaN.
``inf``    An overflow artifact: values become ±Inf.
``sign``   A sign flip: values are negated.
``scale``  A unit-scale error (g↔kg, GB↔TB): a whole column or table
           row is multiplied by a constant factor.
``drop``   A dropped entry: a column row or table key disappears.
``dup``    A duplicated entry: a column row or table label appears
           twice.
========== =========================================================

Everything returns *copies* — the bundled tables and caller columns are
never mutated — plus a :class:`FaultRecord` describing exactly what was
corrupted, so tests can assert detection against a clean-run oracle.

Table rows are frozen, eagerly-validated dataclasses; corrupt values are
planted with ``object.__setattr__`` on shallow copies, simulating data
that bypassed construction-time validation (e.g. loaded from disk).
"""

from __future__ import annotations

import copy
import dataclasses
import os
import signal
import time
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.core.errors import ParameterError
from repro.robustness.durability import DurableIO

#: Fault classes, in the order the smoke suite sweeps them.
FAULT_NAN = "nan"
FAULT_INF = "inf"
FAULT_SIGN = "sign"
FAULT_SCALE = "scale"
FAULT_DROP = "drop"
FAULT_DUP = "dup"
COLUMN_FAULTS = (FAULT_NAN, FAULT_INF, FAULT_SIGN, FAULT_SCALE, FAULT_DROP, FAULT_DUP)
TABLE_FAULTS = COLUMN_FAULTS

#: Unit-scale error factor: grams read as kilograms (or vice versa).
DEFAULT_SCALE_FACTOR = 1000.0


@dataclasses.dataclass(frozen=True)
class FaultRecord:
    """What a single injection corrupted.

    Attributes:
        kind: The fault class (one of :data:`COLUMN_FAULTS`).
        target: ``"column:<name>"`` or ``"table:<name>"``.
        indices: Corrupted row indices (column faults).
        keys: Corrupted table keys (table faults).
        factor: The multiplier applied (``scale`` faults).
    """

    kind: str
    target: str
    indices: tuple[int, ...] = ()
    keys: tuple[str, ...] = ()
    factor: float | None = None

    def __str__(self) -> str:
        where = (
            f"rows {list(self.indices)}"
            if self.indices
            else f"keys {list(self.keys)}"
        )
        suffix = f" ×{self.factor:g}" if self.factor is not None else ""
        return f"{self.kind} fault on {self.target} ({where}){suffix}"


def _pick_indices(
    rng: np.random.Generator, size: int, fraction: float
) -> np.ndarray:
    count = max(1, int(round(size * fraction)))
    return np.sort(rng.choice(size, size=min(count, size), replace=False))


def inject_column_fault(
    columns: Mapping[str, np.ndarray],
    name: str,
    kind: str,
    *,
    rng: np.random.Generator,
    fraction: float = 0.02,
    factor: float = DEFAULT_SCALE_FACTOR,
) -> tuple[dict[str, np.ndarray], FaultRecord]:
    """A copy of ``columns`` with one column corrupted.

    ``nan``/``inf``/``sign`` hit a sampled ``fraction`` of rows; ``scale``
    multiplies the *whole* column (unit errors are systematic); ``drop``
    and ``dup`` change the column's length, modeling a misaligned data
    feed.

    Args:
        columns: Column arrays keyed by scenario field name.
        name: The column to corrupt (must be present).
        kind: One of :data:`COLUMN_FAULTS`.
        rng: Seeded generator — identical seeds inject identical faults.
        fraction: Share of rows corrupted by the per-row fault classes.
        factor: Multiplier for ``scale`` faults.
    """
    if name not in columns:
        raise ParameterError(f"no column {name!r} to corrupt")
    corrupted = {key: np.array(value) for key, value in columns.items()}
    column = corrupted[name]
    target = f"column:{name}"
    if kind == FAULT_NAN:
        indices = _pick_indices(rng, column.size, fraction)
        column[indices] = np.nan
        record = FaultRecord(kind, target, indices=tuple(map(int, indices)))
    elif kind == FAULT_INF:
        indices = _pick_indices(rng, column.size, fraction)
        signs = np.where(rng.random(indices.size) < 0.5, -np.inf, np.inf)
        column[indices] = signs
        record = FaultRecord(kind, target, indices=tuple(map(int, indices)))
    elif kind == FAULT_SIGN:
        indices = _pick_indices(rng, column.size, fraction)
        column[indices] = -column[indices]
        record = FaultRecord(kind, target, indices=tuple(map(int, indices)))
    elif kind == FAULT_SCALE:
        corrupted[name] = column * factor
        record = FaultRecord(
            kind, target, indices=tuple(range(column.size)), factor=factor
        )
    elif kind == FAULT_DROP:
        index = int(rng.integers(column.size))
        corrupted[name] = np.delete(column, index)
        record = FaultRecord(kind, target, indices=(index,))
    elif kind == FAULT_DUP:
        index = int(rng.integers(column.size))
        corrupted[name] = np.insert(column, index, column[index])
        record = FaultRecord(kind, target, indices=(index,))
    else:
        raise ParameterError(
            f"unknown column fault {kind!r}; use one of {COLUMN_FAULTS}"
        )
    return corrupted, record


def _corrupt_row(row: object, attribute: str, value: float) -> object:
    """A shallow copy of a frozen table row with one attribute overwritten.

    Bypasses ``__post_init__`` validation on purpose — the whole point is
    modeling values that arrived without passing through the constructors.
    """
    clone = copy.copy(row)
    object.__setattr__(clone, attribute, value)
    return clone


def inject_table_fault(
    rows: Mapping[str, object],
    kind: str,
    *,
    rng: np.random.Generator,
    attribute: str = "cps_g_per_gb",
    factor: float = DEFAULT_SCALE_FACTOR,
) -> tuple[dict[str, object], FaultRecord]:
    """A corrupted copy of a bundled data table.

    ``nan``/``inf``/``sign``/``scale`` overwrite ``attribute`` on one
    sampled row; ``drop`` removes a key; ``dup`` inserts an alias key
    whose row carries a duplicate label (what a bad merge produces).

    Args:
        rows: A table mapping (e.g. ``DRAM_TECHNOLOGIES``).  Never mutated.
        kind: One of :data:`TABLE_FAULTS`.
        rng: Seeded generator.
        attribute: The numeric row attribute the value faults overwrite.
        factor: Multiplier for ``scale`` faults.
    """
    if not rows:
        raise ParameterError("cannot corrupt an empty table")
    corrupted: dict[str, object] = dict(rows)
    keys = sorted(corrupted)
    key = keys[int(rng.integers(len(keys)))]
    target = f"table:{attribute}"
    if kind == FAULT_NAN:
        corrupted[key] = _corrupt_row(corrupted[key], attribute, float("nan"))
    elif kind == FAULT_INF:
        corrupted[key] = _corrupt_row(corrupted[key], attribute, float("inf"))
    elif kind == FAULT_SIGN:
        original = getattr(corrupted[key], attribute)
        corrupted[key] = _corrupt_row(corrupted[key], attribute, -original)
    elif kind == FAULT_SCALE:
        original = getattr(corrupted[key], attribute)
        corrupted[key] = _corrupt_row(
            corrupted[key], attribute, original * factor
        )
        return corrupted, FaultRecord(kind, target, keys=(key,), factor=factor)
    elif kind == FAULT_DROP:
        del corrupted[key]
    elif kind == FAULT_DUP:
        alias = f"{key}__dup"
        corrupted[alias] = corrupted[key]
        return corrupted, FaultRecord(kind, target, keys=(key, alias))
    else:
        raise ParameterError(
            f"unknown table fault {kind!r}; use one of {TABLE_FAULTS}"
        )
    return corrupted, FaultRecord(kind, target, keys=(key,))


# --------------------------------------------------------------------------
# Process-level chaos: faults against the execution substrate, not the data.
#
# The column/table faults above corrupt *inputs*; these corrupt the
# *machinery* — kill a worker mid-shard, stall it past its deadline, drop
# its result message — so every
# recovery path in the shard supervisor is provable in tests rather than
# assumed.  Faults are armed through a filesystem token budget: each
# planned firing is one token file, consumed atomically (``os.remove``)
# by whichever process fires it.  Tokens survive fork, spawn, respawn,
# and retry — exactly the chaos lifecycle — and "already consumed" is a
# natural no-op, so a retried shard runs clean once its fault has fired.
# --------------------------------------------------------------------------

#: Process fault classes (see :class:`ProcessFault`).
FAULT_KILL = "kill"
FAULT_STALL = "stall"
FAULT_DROP_RESULT = "drop_result"
PROCESS_FAULTS = (FAULT_KILL, FAULT_STALL, FAULT_DROP_RESULT)


class ResultDropped(BaseException):
    """Chaos signal: the shard ran, but its result message vanished.

    Deliberately a ``BaseException`` so no model-level ``except
    Exception`` can absorb it, and flagged with
    :attr:`repro_dropped_result` so the worker loop's transport layer can
    recognize it without importing this module (the parallel package must
    not depend on the robustness package).
    """

    repro_dropped_result = True


@dataclasses.dataclass(frozen=True)
class ProcessFault:
    """One planned fault against the worker fleet.

    Attributes:
        kind: One of :data:`PROCESS_FAULTS` — ``"kill"`` (SIGKILL the
            worker at shard start), ``"stall"`` (sleep past the shard
            deadline), ``"drop_result"`` (evaluate, then lose the result
            message).
        shard: Only fire on this shard index; ``None`` fires on any.
        times: How many firings this fault is budgeted (each firing
            consumes one token; retried shards run clean once spent).
        stall_seconds: How long a ``"stall"`` fault sleeps.
    """

    kind: str
    shard: int | None = None
    times: int = 1
    stall_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in PROCESS_FAULTS:
            raise ParameterError(
                f"unknown process fault {self.kind!r}; "
                f"use one of {PROCESS_FAULTS}"
            )
        if self.times < 1:
            raise ParameterError(
                f"a process fault must fire at least once, got times={self.times}"
            )
        if not self.stall_seconds >= 0.0:
            raise ParameterError(
                f"stall_seconds must be >= 0, got {self.stall_seconds!r}"
            )


class ProcessFaultPlan:
    """An armed set of process faults with a filesystem token budget.

    The plan directory holds one token file per planned firing.  The
    parent creates the plan and threads its picklable :meth:`spec` into
    each shard task; workers consume tokens as faults fire.  The
    filesystem is the one shared mutable store that survives every chaos
    event we inject (worker death, respawn, interpreter restart under
    ``spawn``), which is what makes ``times=N`` budgets exact.
    """

    def __init__(self, root: Path, faults: Sequence[ProcessFault]):
        self.root = Path(root)
        self.faults = tuple(faults)

    @classmethod
    def create(
        cls, root: "Path | str", faults: Sequence[ProcessFault]
    ) -> "ProcessFaultPlan":
        """Arm ``faults`` under ``root`` (created; must be writable)."""
        plan = cls(Path(root), faults)
        plan.root.mkdir(parents=True, exist_ok=True)
        for index, fault in enumerate(plan.faults):
            for firing in range(fault.times):
                plan._token(index, firing).touch()
        return plan

    def _token(self, index: int, firing: int) -> Path:
        return self.root / f"{index:03d}-{firing:02d}.tok"

    def spec(self) -> dict:
        """The picklable description workers fire faults from."""
        return {
            "faults": [
                {
                    "kind": fault.kind,
                    "shard": fault.shard,
                    "stall_seconds": fault.stall_seconds,
                    "tokens": [
                        str(self._token(index, firing))
                        for firing in range(fault.times)
                    ],
                }
                for index, fault in enumerate(self.faults)
            ]
        }

    def remaining(self, index: int = 0) -> int:
        """Unconsumed firings left in fault ``index``'s budget."""
        fault = self.faults[index]
        return sum(
            self._token(index, firing).exists()
            for firing in range(fault.times)
        )


def _consume_token(paths: Sequence[str]) -> bool:
    """Atomically claim one firing from a fault's token budget.

    ``os.remove`` either succeeds in exactly one process or raises
    ``FileNotFoundError`` — no lock needed even with racing workers.
    """
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            continue
        return True
    return False


def apply_process_faults(spec: Mapping, shard: int, stage: str) -> None:
    """Fire any armed faults matching this shard at this stage.

    Called by the worker's shard entry point at ``stage="start"`` (before
    any work — ``kill``/``stall`` fire here) and
    ``stage="finish"`` (after evaluation — ``drop_result`` fires here, by
    raising :class:`ResultDropped` so the completed work's message never
    reaches the parent).
    """
    for fault in spec["faults"]:
        if fault["shard"] is not None and fault["shard"] != shard:
            continue
        kind = fault["kind"]
        fires_now = (
            stage == "finish"
            if kind == FAULT_DROP_RESULT
            else stage == "start"
        )
        if not fires_now or not _consume_token(fault["tokens"]):
            continue
        if kind == FAULT_KILL:
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == FAULT_STALL:
            time.sleep(fault["stall_seconds"])
        elif kind == FAULT_DROP_RESULT:
            raise ResultDropped(
                f"chaos: dropped result message for shard {shard}"
            )


# --------------------------------------------------------------------------
# Filesystem fault injection (crash points, torn writes, ENOSPC/EIO)
# --------------------------------------------------------------------------

#: I/O fault kinds accepted by :class:`IOFault`.
IO_FAULT_CRASH = "crash"
IO_FAULT_TORN = "torn"
IO_FAULT_DROP_FSYNC = "drop_fsync"
IO_FAULT_ENOSPC = "enospc"
IO_FAULT_EIO = "eio"
IO_FAULT_TORN_RENAME = "torn_rename"
IO_FAULTS = (
    IO_FAULT_CRASH,
    IO_FAULT_TORN,
    IO_FAULT_DROP_FSYNC,
    IO_FAULT_ENOSPC,
    IO_FAULT_EIO,
    IO_FAULT_TORN_RENAME,
)


class CrashPoint(BaseException):
    """An injected crash fired at a registered durability boundary.

    Raised by exception-mode :class:`FaultyIO` *after* simulating the
    power loss (un-fsynced bytes truncated, un-dir-fsynced renames rolled
    back), so the on-disk state the handler observes is exactly what a
    real kill at that instant could have left.  A ``BaseException`` so no
    recovery/retry layer can accidentally swallow it.
    """

    def __init__(self, point: str, occurrence: int):
        super().__init__(f"injected crash at {point!r} (occurrence {occurrence})")
        self.point = point
        self.occurrence = occurrence


@dataclasses.dataclass(frozen=True)
class IOFault:
    """One deterministic filesystem fault, armed at a named crash point.

    Attributes:
        kind: One of :data:`IO_FAULTS` — ``crash`` (die at the point),
            ``torn`` (write only a byte prefix, then die), ``drop_fsync``
            (the fsync silently does nothing — pair with a later
            ``crash`` to lose the lied-about bytes), ``enospc``/``eio``
            (the operation fails with that ``errno``), ``torn_rename``
            (destination updated, source left behind, then die).
        point: The registered crash-point name to fire at (see
            :data:`~repro.robustness.durability.CRASH_POINTS`).
        occurrence: Fire on the Nth time the point is reached (1-based).
        tear_bytes: For ``torn``: how many leading bytes survive.
    """

    kind: str
    point: str
    occurrence: int = 1
    tear_bytes: int = 37

    def __post_init__(self) -> None:
        if self.kind not in IO_FAULTS:
            raise ParameterError(
                f"unknown I/O fault kind {self.kind!r}; expected one of {IO_FAULTS}"
            )
        if self.occurrence < 1:
            raise ParameterError("IOFault.occurrence is 1-based and must be >= 1")


class FaultyIO(DurableIO):
    """A :class:`~repro.robustness.durability.DurableIO` that injects faults.

    Two crash modes:

    * ``"sigkill"`` — the fault delivers a real ``SIGKILL`` to the
      process.  Used by the subprocess torture campaigns: durability is
      then proven against the actual kernel page cache, not a simulation.
    * ``"exception"`` — the fault simulates the power loss in-process
      (files truncated back to their last-fsynced size, renames not yet
      pinned by a directory fsync rolled back, trimmed log tails
      resurrected) and raises :class:`CrashPoint`.  Used for in-process
      campaigns (e.g. ``workers=4``, where SIGKILLing the parent would
      orphan daemonized pool workers) and for the property tests.

    With an empty fault list the layer is a pure recorder: it performs
    every operation verbatim while counting reached crash points in
    :attr:`points_reached` — how the torture harness enumerates a
    workload's boundary trace before arming faults against it.

    Not thread-safe; install per-run via
    :func:`~repro.robustness.durability.use_durable_io`.
    """

    def __init__(
        self,
        faults: Sequence[IOFault] = (),
        *,
        mode: str = "exception",
    ):
        if mode not in ("exception", "sigkill"):
            raise ParameterError(
                f"unknown FaultyIO mode {mode!r}; expected 'exception' or 'sigkill'"
            )
        self.faults = tuple(faults)
        self.mode = mode
        #: point name -> times reached, in this layer's lifetime.
        self.points_reached: dict[str, int] = {}
        #: every point reached, in order.
        self.trace: list[str] = []
        self._consumed: set[int] = set()
        self._pending: IOFault | None = None
        self._handles: dict[int, tuple[str, str]] = {}
        self._synced: dict[str, int] = {}
        self._pending_renames: list[tuple[str, str, "bytes | None"]] = []
        self._pending_tails: dict[str, bytes] = {}

    # -- fault dispatch ----------------------------------------------------

    def reached(self, point: str) -> None:
        """Count the crossing and fire any fault armed at this point."""
        count = self.points_reached.get(point, 0) + 1
        self.points_reached[point] = count
        self.trace.append(point)
        self._pending = None
        for fault in self.faults:
            if (
                fault.point != point
                or fault.occurrence != count
                or id(fault) in self._consumed
            ):
                continue
            self._consumed.add(id(fault))
            if fault.kind == IO_FAULT_CRASH:
                self._crash(point, count)
            elif fault.kind == IO_FAULT_ENOSPC:
                raise OSError(28, f"injected ENOSPC at {point}")  # errno.ENOSPC
            elif fault.kind == IO_FAULT_EIO:
                raise OSError(5, f"injected EIO at {point}")  # errno.EIO
            else:
                # torn / drop_fsync / torn_rename are honored by the
                # primitive this point guards, which runs next.
                self._pending = fault
            return

    def _take_pending(self, kind: str) -> "IOFault | None":
        fault = self._pending
        if fault is not None and fault.kind == kind:
            self._pending = None
            return fault
        return None

    def _crash(self, point: str, occurrence: int) -> "None":
        if self.mode == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        self._power_loss()
        raise CrashPoint(point, occurrence)

    def _power_loss(self) -> None:
        """Reduce the filesystem to what a real power cut could leave.

        Write-opened files are truncated back to their last-fsynced size,
        renames not yet pinned by a directory fsync are rolled back, and
        log tails trimmed without a subsequent fsync are resurrected.
        Unlinks are *not* undone (a resurrected manifest is tolerated by
        the reader anyway, which clamps its offset to the log length).
        """
        for path, synced in self._synced.items():
            try:
                if os.path.getsize(path) > synced:
                    os.truncate(path, synced)
            except OSError:
                continue
        for source, destination, old in reversed(self._pending_renames):
            try:
                with open(destination, "rb") as handle:
                    current = handle.read()
            except OSError:
                current = None
            if current is not None:
                with open(source, "wb") as handle:
                    handle.write(current)
            if old is None:
                try:
                    os.remove(destination)
                except OSError:
                    pass
            else:
                with open(destination, "wb") as handle:
                    handle.write(old)
        self._pending_renames.clear()
        for path, tail in self._pending_tails.items():
            try:
                with open(path, "ab") as handle:
                    handle.write(tail)
            except OSError:
                continue
        self._pending_tails.clear()

    # -- DurableIO primitives ---------------------------------------------

    def open(self, path: str, mode: str, point: str):
        """Open ``path``, tracking write handles for power-loss simulation."""
        self.reached(point)
        if "b" in mode:
            handle = open(path, mode)
        else:
            handle = open(path, mode, encoding="utf-8")
        if any(flag in mode for flag in ("w", "a", "+")):
            self._handles[id(handle)] = (os.path.abspath(path), mode)
            durable = 0
            if not mode.startswith("w"):
                try:
                    durable = os.path.getsize(path)
                except OSError:
                    durable = 0
            self._synced.setdefault(os.path.abspath(path), durable)
            if mode.startswith("w"):
                self._synced[os.path.abspath(path)] = 0
        return handle

    def write(self, handle, data, point: str) -> None:
        """Write ``data``, honoring an armed torn-write fault."""
        self.reached(point)
        fault = self._take_pending(IO_FAULT_TORN)
        if fault is None:
            handle.write(data)
            return
        prefix = data[: max(0, min(fault.tear_bytes, len(data)))]
        handle.write(prefix)
        handle.flush()
        if self.mode == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        # The torn prefix is the part that *did* reach the platter:
        # pin it as durable, then lose everything else.
        info = self._handles.get(id(handle))
        if info is not None:
            try:
                self._synced[info[0]] = os.fstat(handle.fileno()).st_size
            except OSError:
                pass
        self._power_loss()
        raise CrashPoint(point, self.points_reached.get(point, 1))

    def fsync(self, handle, point: str) -> None:
        """Fsync, honoring an armed dropped-fsync fault."""
        self.reached(point)
        if self._take_pending(IO_FAULT_DROP_FSYNC) is not None:
            return  # the lie: caller believes the bytes are durable
        handle.flush()
        os.fsync(handle.fileno())
        info = self._handles.get(id(handle))
        if info is not None:
            try:
                self._synced[info[0]] = os.fstat(handle.fileno()).st_size
            except OSError:
                pass
            self._pending_tails.pop(info[0], None)

    def flush(self, handle, point: str) -> None:
        """Flush without fsync (audit streams); bytes stay volatile."""
        self.reached(point)
        handle.flush()

    def replace(self, source: str, destination: str, point: str) -> None:
        """Rename, honoring an armed torn-rename fault."""
        self.reached(point)
        source = os.path.abspath(source)
        destination = os.path.abspath(destination)
        fault = self._take_pending(IO_FAULT_TORN_RENAME)
        if fault is not None:
            # Worst-case torn rename: destination carries the new bytes
            # but the source entry survives, then the process dies.
            with open(source, "rb") as handle:
                payload = handle.read()
            with open(destination, "wb") as handle:
                handle.write(payload)
            if self.mode == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            self._power_loss()
            raise CrashPoint(point, self.points_reached.get(point, 1))
        old: "bytes | None"
        try:
            with open(destination, "rb") as handle:
                old = handle.read()
        except OSError:
            old = None
        os.replace(source, destination)
        self._synced.pop(source, None)
        self._pending_renames.append((source, destination, old))

    def unlink(self, path: str, point: str) -> None:
        """Remove ``path`` if present."""
        self.reached(point)
        try:
            os.remove(path)
        except FileNotFoundError:
            pass

    def truncate(self, handle, size: int, point: str) -> None:
        """Truncate, remembering the cut tail until the next fsync."""
        self.reached(point)
        info = self._handles.get(id(handle))
        if info is not None:
            path = info[0]
            try:
                current = os.path.getsize(path)
            except OSError:
                current = size
            if current > size:
                with open(path, "rb") as reader:
                    reader.seek(size)
                    self._pending_tails[path] = reader.read(current - size)
                self._synced[path] = min(self._synced.get(path, 0), size)
        handle.truncate(size)

    def fsync_dir(self, path: str, point: str) -> None:
        """Directory fsync: pins completed renames against power loss."""
        self.reached(point)
        self._pending_renames.clear()
        directory = os.path.dirname(os.path.abspath(path)) or "."
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir-open
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

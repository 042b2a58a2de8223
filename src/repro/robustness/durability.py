"""Crash-consistent durability: a write-ahead chunk store with salvage.

Long runs persist their progress through this module so that a SIGKILL,
power loss, full disk, or flaky device mid-write can never cost more than
the last uncommitted chunk — and never silently corrupts what *was*
committed.  Three pieces:

* :class:`DurableIO` — the filesystem boundary.  Every durability-
  relevant syscall (write, fsync, rename, truncate, directory fsync)
  goes through one named method carrying a registered **crash point**
  label, so the fault-injection layer
  (:class:`~repro.robustness.faultinject.FaultyIO`) can kill the process,
  tear the write, drop the fsync, or raise ``ENOSPC``/``EIO`` at every
  boundary the store crosses.
* :class:`DurableChunkStore` — a write-ahead, generation-tagged chunk
  log plus a manifest.  Chunks are appended as CRC-checked,
  length-prefixed records and fsynced; a commit then atomically replaces
  the manifest (tmp-write → fsync → rename → directory fsync) to point
  at the new generation and committed byte offset.  Readers trust only
  what the manifest points at.
* :func:`load_store_state` — the salvage path.  On a corrupt, torn, or
  partial store it recovers the **longest valid committed prefix** of
  chunk records, quarantines everything after the first bad record for
  recompute, and reports exactly what was kept and lost
  (:class:`SalvageReport`) — never silent acceptance of bad bytes, never
  wholesale discard of good ones.

The commit protocol's invariant: at every instant there is either a valid
manifest pointing at fully-fsynced log bytes, or a previous valid
manifest (rename is atomic), or no manifest at all (only before the very
first commit).  A crash therefore loses at most the work since the last
commit, and :func:`load_store_state` proves it by construction in the
torture harness (:mod:`repro.robustness.torture`).
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import IO, Iterable, Iterator, Mapping

import numpy as np

from repro.core.errors import CheckpointError, finite_json
from repro.obs.context import current_context
from repro.robustness.guard import RobustnessWarning

#: Magic prefix of every chunk record in the write-ahead log.
RECORD_MAGIC = b"ACTW"

#: On-disk format version of the chunk store (log records + manifest).
STORE_FORMAT = 1

#: Version of the run metadata a chunked run commits
#: (:meth:`DurableChunkStore.run_meta`); bumped on incompatible layout
#: changes.  Version 2: this store's format, with the kernel and planner
#: entries folded into run fingerprints.
CHECKPOINT_VERSION = 2

#: Suffix of the manifest file living next to the chunk log.
MANIFEST_SUFFIX = ".manifest"

#: Sanity bounds used while walking a possibly-corrupt log: a header or
#: payload length beyond these is treated as unframeable garbage.
_MAX_HEADER_BYTES = 1_000_000
_MAX_PAYLOAD_BYTES = 1 << 34

# --------------------------------------------------------------------------
# Crash points
# --------------------------------------------------------------------------

#: Every registered crash point, name → human description.  The torture
#: harness enumerates this registry and proves that killing the process
#: at each point leaves a store that resumes bit-identically.
CRASH_POINTS: dict[str, str] = {}


def register_crash_point(name: str, description: str) -> str:
    """Register a named filesystem crash point and return its name.

    Call sites pass the returned name into the :class:`DurableIO`
    primitives; the fault-injection layer matches on it.  Registering the
    same name twice is allowed (and keeps the first description) so
    modules can be reloaded safely.
    """
    CRASH_POINTS.setdefault(name, description)
    return name


CP_MANIFEST_UNLINK = register_crash_point(
    "store.manifest.unlink", "before a fresh run removes the old manifest"
)
CP_LOG_OPEN = register_crash_point(
    "store.log.open", "before the chunk log is opened (created/truncated)"
)
CP_LOG_TRUNCATE = register_crash_point(
    "store.log.truncate", "before the log is trimmed to its valid prefix"
)
CP_LOG_TRUNCATED = register_crash_point(
    "store.log.truncated", "after the log trim completed"
)
CP_CHUNK_WRITE = register_crash_point(
    "store.chunk.write", "before a chunk record's bytes are written"
)
CP_CHUNK_FSYNC = register_crash_point(
    "store.chunk.fsync", "before the chunk log is fsynced"
)
CP_CHUNK_SYNCED = register_crash_point(
    "store.chunk.synced", "after a chunk record reached stable storage"
)
CP_MANIFEST_TMP_OPEN = register_crash_point(
    "store.manifest.tmp.open", "before the manifest temp file is opened"
)
CP_MANIFEST_TMP_WRITE = register_crash_point(
    "store.manifest.tmp.write", "before the manifest body is written"
)
CP_MANIFEST_TMP_FSYNC = register_crash_point(
    "store.manifest.tmp.fsync", "before the manifest temp file is fsynced"
)
CP_MANIFEST_RENAME = register_crash_point(
    "store.manifest.rename", "before the manifest rename commits"
)
CP_MANIFEST_RENAMED = register_crash_point(
    "store.manifest.renamed", "after the manifest rename, before dir fsync"
)
CP_DIR_FSYNC = register_crash_point(
    "store.dir.fsync", "before the containing directory is fsynced"
)
CP_COMMITTED = register_crash_point(
    "store.committed", "after a commit is fully durable"
)
CP_JSONL_OPEN = register_crash_point(
    "obs.jsonl.open", "before a JSONL event sink opens its file"
)
CP_JSONL_WRITE = register_crash_point(
    "obs.jsonl.write", "before a JSONL event line is written"
)
CP_JSONL_FLUSHED = register_crash_point(
    "obs.jsonl.flushed", "after a JSONL event line was flushed"
)
CP_ATOMIC_TMP_WRITE = register_crash_point(
    "atomic.tmp.write", "before an atomic-file payload is written"
)
CP_ATOMIC_TMP_FSYNC = register_crash_point(
    "atomic.tmp.fsync", "before an atomic-file temp is fsynced"
)
CP_ATOMIC_RENAME = register_crash_point(
    "atomic.rename", "before an atomic-file rename commits"
)


# --------------------------------------------------------------------------
# The I/O boundary
# --------------------------------------------------------------------------


class DurableIO:
    """The real filesystem boundary, with named crash-point hooks.

    Every method takes the crash-point label of its call site and invokes
    :meth:`reached` before performing the operation; marker points (the
    ``*.synced`` / ``*.renamed`` / ``*.committed`` family) are signalled
    through :meth:`reached` directly after the preceding operation
    completed.  The base class performs the operations verbatim;
    :class:`~repro.robustness.faultinject.FaultyIO` overrides them to
    inject crashes, torn writes, dropped fsyncs, and I/O errors.
    """

    def reached(self, point: str) -> None:
        """Crash-point hook: a durability boundary is about to be crossed."""

    def open(self, path: str, mode: str, point: str) -> IO:
        """Open ``path`` (text mode iff ``mode`` has no ``b``)."""
        self.reached(point)
        if "b" in mode:
            return open(path, mode)
        return open(path, mode, encoding="utf-8")

    def write(self, handle: IO, data: "bytes | str", point: str) -> None:
        """Write ``data`` to an open handle."""
        self.reached(point)
        handle.write(data)

    def fsync(self, handle: IO, point: str) -> None:
        """Flush and fsync an open handle."""
        self.reached(point)
        handle.flush()
        os.fsync(handle.fileno())

    def flush(self, handle: IO, point: str) -> None:
        """Flush an open handle (no fsync — used by audit streams)."""
        self.reached(point)
        handle.flush()

    def replace(self, source: str, destination: str, point: str) -> None:
        """Atomically rename ``source`` over ``destination``."""
        self.reached(point)
        os.replace(source, destination)

    def unlink(self, path: str, point: str) -> None:
        """Remove ``path`` if it exists."""
        self.reached(point)
        try:
            os.remove(path)
        except FileNotFoundError:
            pass

    def truncate(self, handle: IO, size: int, point: str) -> None:
        """Truncate an open handle to ``size`` bytes."""
        self.reached(point)
        handle.truncate(size)

    def fsync_dir(self, path: str, point: str) -> None:
        """Fsync the directory containing ``path`` (rename durability)."""
        self.reached(point)
        directory = os.path.dirname(os.path.abspath(path)) or "."
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir-open
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


_DEFAULT_IO = DurableIO()
_INSTALLED_IO: DurableIO | None = None


def current_io() -> DurableIO:
    """The process-wide :class:`DurableIO` (the real one by default)."""
    return _INSTALLED_IO if _INSTALLED_IO is not None else _DEFAULT_IO


def install_durable_io(io: "DurableIO | None") -> None:
    """Install (or with ``None`` reset) the process-wide I/O layer.

    Used by torture-harness child processes; interactive code should
    prefer the scoped :func:`use_durable_io`.
    """
    global _INSTALLED_IO
    _INSTALLED_IO = io


@contextmanager
def use_durable_io(io: "DurableIO | None") -> Iterator[DurableIO]:
    """Scope the process-wide I/O layer to a ``with`` block."""
    global _INSTALLED_IO
    previous = _INSTALLED_IO
    _INSTALLED_IO = io
    try:
        yield current_io()
    finally:
        _INSTALLED_IO = previous


# --------------------------------------------------------------------------
# Atomic whole-file writes (manifests, benchmark payloads)
# --------------------------------------------------------------------------


def atomic_write_bytes(
    path: "str | os.PathLike", data: bytes, *, io: "DurableIO | None" = None
) -> None:
    """Write ``data`` to ``path`` atomically (tmp → fsync → rename).

    A crash at any instant leaves either the previous file contents or
    the new ones — never a truncated mixture.
    """
    path = os.fspath(path)
    layer = io if io is not None else current_io()
    temp = f"{path}.tmp"
    try:
        handle = layer.open(temp, "wb", CP_ATOMIC_TMP_WRITE)
        try:
            layer.write(handle, data, CP_ATOMIC_TMP_WRITE)
            layer.fsync(handle, CP_ATOMIC_TMP_FSYNC)
        finally:
            handle.close()
        layer.replace(temp, path, CP_ATOMIC_RENAME)
        layer.fsync_dir(path, CP_DIR_FSYNC)
    finally:
        if os.path.exists(temp):
            try:
                os.remove(temp)
            except OSError:  # pragma: no cover - cleanup best effort
                pass


def atomic_write_json(
    path: "str | os.PathLike",
    payload: object,
    *,
    indent: int | None = 2,
    io: "DurableIO | None" = None,
) -> None:
    """JSON-serialize ``payload`` and write it atomically to ``path``.

    The writer of record for ``BENCH_*.json`` and manifest-shaped
    artifacts: an interrupted benchmark or trace run can no longer leave
    a truncated payload behind for CI to choke on.  A payload holding a
    non-finite number raises :class:`~repro.core.errors.NonFiniteError`
    and writes nothing.
    """
    text = finite_json(payload, f"artifact {os.fspath(path)!r}", indent=indent)
    atomic_write_bytes(path, (text + "\n").encode("utf-8"), io=io)


# --------------------------------------------------------------------------
# Record framing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ChunkRecord:
    """One decoded record of the write-ahead chunk log.

    Attributes:
        index: Append-order index of the record within its store.
        start: First global row the record's arrays cover.
        stop: One past the last global row covered.
        generation: The commit generation the record was appended under.
        kind: The run kind the record belongs to (ownership check for
            manifest-less recovery).
        fingerprint: The run-configuration fingerprint the record was
            written under.
        arrays: The persisted column slices, name → array.
    """

    index: int
    start: int
    stop: int
    generation: int
    kind: str
    fingerprint: str
    arrays: Mapping[str, np.ndarray]


def _record_parts(
    *,
    index: int,
    start: int,
    stop: int,
    generation: int,
    kind: str,
    fingerprint: str,
    arrays: Mapping[str, np.ndarray],
) -> tuple[bytes, list[memoryview], bytes]:
    """Frame one chunk record as ``(prefix, payload views, crc trailer)``.

    The payload stays as zero-copy memoryviews over the (contiguous)
    arrays — at store bandwidth every extra materialization of a
    multi-megabyte chunk shows up directly in the checkpoint overhead
    budget.  The CRC covers ``header + payload`` exactly as if they had
    been concatenated.
    """
    names = sorted(arrays)
    specs = []
    views: list[memoryview] = []
    payload_length = 0
    for name in names:
        array = np.ascontiguousarray(arrays[name])
        specs.append([name, array.dtype.str, list(array.shape)])
        view = memoryview(array).cast("B")
        views.append(view)
        payload_length += view.nbytes
    header = finite_json(
        {
            "index": index,
            "start": start,
            "stop": stop,
            "gen": generation,
            "kind": kind,
            "fp": fingerprint,
            "arrays": specs,
        },
        "chunk record header",
        sort_keys=True,
    ).encode("utf-8")
    crc = zlib.crc32(header)
    for view in views:
        crc = zlib.crc32(view, crc)
    prefix = b"".join(
        (
            RECORD_MAGIC,
            len(header).to_bytes(4, "little"),
            header,
            payload_length.to_bytes(8, "little"),
        )
    )
    return prefix, views, crc.to_bytes(4, "little")


def _decode_header(header: bytes) -> dict | None:
    try:
        decoded = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(decoded, dict) or "arrays" not in decoded:
        return None
    return decoded


def _record_arrays(header: dict, body: bytes) -> dict[str, np.ndarray] | None:
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    try:
        for name, dtype_str, shape in header["arrays"]:
            dtype = np.dtype(dtype_str)
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            nbytes = dtype.itemsize * count
            view = body[offset : offset + nbytes]
            if len(view) != nbytes:
                return None
            arrays[str(name)] = (
                np.frombuffer(view, dtype=dtype).reshape(shape).copy()
            )
            offset += nbytes
    except (TypeError, ValueError, KeyError):
        return None
    return arrays


@dataclass(frozen=True)
class _ScanOutcome:
    """Raw results of walking a chunk log's byte range."""

    kept: tuple[ChunkRecord, ...]
    quarantined: tuple[int, ...]  # record indices dropped after the prefix
    valid_end: int  # byte offset one past the last kept record
    unframeable: int  # bytes that could not even be walked


def _scan_records(data: bytes, limit: int) -> _ScanOutcome:
    """Walk log records in ``data[:limit]``, keeping the valid prefix.

    The kept prefix ends at the first record whose framing or CRC fails;
    later records that still frame-parse are counted as quarantined (they
    exist but sit behind a hole, so the contiguous-prefix contract drops
    them for recompute), and the walk stops entirely at unframeable
    bytes.
    """
    kept: list[ChunkRecord] = []
    quarantined: list[int] = []
    offset = 0
    valid_end = 0
    prefix_intact = True
    walk_index = 0
    while offset + 16 <= limit:
        if data[offset : offset + 4] != RECORD_MAGIC:
            break
        header_len = int.from_bytes(data[offset + 4 : offset + 8], "little")
        if not 0 < header_len <= _MAX_HEADER_BYTES:
            break
        header_start = offset + 8
        header_end = header_start + header_len
        if header_end + 8 > limit:
            break
        header_bytes = data[header_start:header_end]
        payload_len = int.from_bytes(data[header_end : header_end + 8], "little")
        if payload_len > _MAX_PAYLOAD_BYTES:
            break
        body_start = header_end + 8
        body_end = body_start + payload_len
        record_end = body_end + 4
        if record_end > limit:
            break
        header = _decode_header(header_bytes)
        if header is None:
            break
        body = data[body_start:body_end]
        stored_crc = int.from_bytes(data[body_end:record_end], "little")
        crc = zlib.crc32(body, zlib.crc32(header_bytes))
        record_ok = crc == stored_crc
        arrays = _record_arrays(header, body) if record_ok else None
        if record_ok and arrays is not None and prefix_intact:
            kept.append(
                ChunkRecord(
                    index=int(header.get("index", walk_index)),
                    start=int(header.get("start", 0)),
                    stop=int(header.get("stop", 0)),
                    generation=int(header.get("gen", 0)),
                    kind=str(header.get("kind", "")),
                    fingerprint=str(header.get("fp", "")),
                    arrays=arrays,
                )
            )
            valid_end = record_end
        else:
            prefix_intact = False
            quarantined.append(int(header.get("index", walk_index)))
        offset = record_end
        walk_index += 1
    return _ScanOutcome(
        kept=tuple(kept),
        quarantined=tuple(quarantined),
        valid_end=valid_end,
        unframeable=max(0, limit - offset),
    )


# --------------------------------------------------------------------------
# Manifest
# --------------------------------------------------------------------------


def _manifest_bytes(
    *, generation: int, offset: int, chunks: int, meta: Mapping[str, object]
) -> bytes:
    body = {
        "format": STORE_FORMAT,
        "generation": generation,
        "offset": offset,
        "chunks": chunks,
        "meta": dict(meta),
    }
    canonical = finite_json(body, "checkpoint manifest", sort_keys=True)
    body["crc"] = zlib.crc32(canonical.encode("utf-8"))
    text = finite_json(body, "checkpoint manifest", sort_keys=True)
    return (text + "\n").encode("utf-8")


def _read_manifest(path: str) -> "dict | None":
    """The manifest dict, or ``None`` when it is absent, unreadable, or
    fails parsing, its CRC or its format check."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError:
        return None
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(manifest, dict) or "crc" not in manifest:
        return None
    stored_crc = manifest.pop("crc")
    try:
        canonical = json.dumps(manifest, sort_keys=True, allow_nan=False)
    except ValueError:  # NaN/Infinity: never written by _manifest_bytes
        return None
    if zlib.crc32(canonical.encode("utf-8")) != stored_crc:
        return None
    if manifest.get("format") != STORE_FORMAT:
        return None
    return manifest


# --------------------------------------------------------------------------
# Salvage
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SalvageReport:
    """What a (possibly damaged) store load kept, dropped, and recovered.

    Attributes:
        chunks_kept: Valid committed records recovered, in append order.
        chunks_quarantined: Record indices dropped for recompute (the
            first bad record and everything committed after it).
        quarantined_rows: Total rows covered by the dropped records.
        generation: The commit generation the recovery represents.
        committed_rows: Contiguous rows (from row 0) the kept prefix
            covers — what a resume may trust.
        manifest_ok: Whether a valid manifest guided the recovery.
        torn_bytes: Committed-region bytes lost to truncation after the
            last kept record (0 on a clean load).
        uncommitted_bytes: Log bytes past the committed offset — the
            normal residue of a crash between append and commit.
    """

    chunks_kept: int = 0
    chunks_quarantined: tuple[int, ...] = ()
    quarantined_rows: int = 0
    generation: int = 0
    committed_rows: int = 0
    manifest_ok: bool = True
    torn_bytes: int = 0
    uncommitted_bytes: int = 0

    @property
    def lossy(self) -> bool:
        """Whether the load dropped any committed state."""
        return (
            bool(self.chunks_quarantined)
            or self.torn_bytes > 0
            or not self.manifest_ok
        )

    def summary(self) -> str:
        """One operator-readable line: kept / quarantined / recovered."""
        parts = [
            f"salvage kept {self.chunks_kept} chunk(s) "
            f"({self.committed_rows} rows), generation {self.generation}"
        ]
        if self.chunks_quarantined:
            shown = ", ".join(str(i) for i in self.chunks_quarantined[:8])
            if len(self.chunks_quarantined) > 8:
                shown += ", …"
            parts.append(
                f"quarantined {len(self.chunks_quarantined)} chunk(s) "
                f"[{shown}] ({self.quarantined_rows} rows for recompute)"
            )
        if self.torn_bytes:
            parts.append(f"dropped {self.torn_bytes} torn committed bytes")
        if self.uncommitted_bytes:
            parts.append(
                f"discarded {self.uncommitted_bytes} uncommitted bytes"
            )
        if not self.manifest_ok:
            parts.append("manifest missing/damaged (log-scan recovery)")
        return "; ".join(parts)


@dataclass(frozen=True)
class StoreState:
    """A salvage-aware snapshot of a chunk store on disk.

    Attributes:
        chunks: The recovered committed prefix, in append order.  Later
            records may overwrite rows of earlier ones (write-ahead
            semantics); replay in order.
        meta: The committed run metadata from the manifest, or ``None``
            when recovery had to scan the log without one.
        generation: Last committed generation recovered.
        report: Exactly what was kept, quarantined, and truncated.
        valid_end: Byte offset one past the last recovered record, where
            :meth:`DurableChunkStore.open_resume` trims the log.
    """

    chunks: tuple[ChunkRecord, ...]
    meta: "dict | None"
    generation: int
    report: SalvageReport
    valid_end: int

    def replay(self, series: Mapping[str, np.ndarray]) -> int:
        """Apply the recovered records (in order) into ``series`` arrays.

        Later records overwrite overlapping rows of earlier ones — the
        write-ahead contract that lets quarantine-heals rewrite rows of
        an already-committed chunk.  Returns the contiguous row coverage
        from row 0 (what a resume may treat as ``completed``).
        """
        for record in self.chunks:
            for name, values in record.arrays.items():
                if name in series:
                    series[name][record.start : record.stop] = values
        return _contiguous_coverage(self.chunks)


def _contiguous_coverage(chunks: "tuple[ChunkRecord, ...]") -> int:
    """Rows covered contiguously from row 0 by ``chunks``' ranges."""
    spans = sorted((record.start, record.stop) for record in chunks)
    covered = 0
    for start, stop in spans:
        if start > covered:
            break
        covered = max(covered, stop)
    return covered


def load_store_state(path: "str | os.PathLike") -> StoreState:
    """Read a chunk store from disk, salvaging whatever is recoverable.

    Never raises on damage — torn tails, CRC failures, and a missing or
    corrupt manifest all degrade into a (possibly empty) valid prefix
    plus an honest :class:`SalvageReport`.  Only a genuinely absent log
    raises :class:`~repro.core.errors.CheckpointError` (``"missing"``).
    The *caller* decides whether an empty or lossy recovery is acceptable
    (and with which error); this function only refuses to invent data.
    Reading is injection-free: salvage must work on any bytes.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        raise CheckpointError(
            f"cannot load chunk store: {path!r} does not exist",
            path=path,
            reason="missing",
        ) from None
    manifest = _read_manifest(path + MANIFEST_SUFFIX)
    limit = len(data)
    if manifest is not None:
        limit = min(int(manifest.get("offset", 0)), limit)
    outcome = _scan_records(data, limit)
    kept_rows = _contiguous_coverage(outcome.kept)
    if manifest is not None:
        # Records the manifest committed but the walk never reached
        # (framing destroyed) are quarantined too — they are real losses.
        walked = len(outcome.kept) + len(outcome.quarantined)
        ghosts = range(walked, int(manifest.get("chunks", walked)))
        committed = int(manifest.get("meta", {}).get("completed", 0) or 0)
        meta = dict(manifest.get("meta", {}))
        generation = int(manifest.get("generation", 0))
        report = SalvageReport(
            chunks_kept=len(outcome.kept),
            chunks_quarantined=outcome.quarantined + tuple(ghosts),
            quarantined_rows=max(0, committed - kept_rows),
            generation=generation,
            committed_rows=kept_rows,
            torn_bytes=max(0, limit - outcome.valid_end),
            uncommitted_bytes=max(0, len(data) - limit),
        )
    else:
        # No usable manifest: best-effort scan of the whole log.
        # Committed and uncommitted bytes are indistinguishable here, so
        # every valid record is kept (they were all written by the
        # protocol) and the caller must verify ownership via the
        # per-record fingerprints.
        meta = None
        generation = outcome.kept[-1].generation if outcome.kept else 0
        report = SalvageReport(
            chunks_kept=len(outcome.kept),
            chunks_quarantined=outcome.quarantined,
            generation=generation,
            committed_rows=kept_rows,
            manifest_ok=False,
            torn_bytes=outcome.unframeable,
        )
    return StoreState(
        chunks=outcome.kept,
        meta=meta,
        generation=generation,
        report=report,
        valid_end=outcome.valid_end,
    )


# --------------------------------------------------------------------------
# The store
# --------------------------------------------------------------------------


class DurableChunkStore:
    """A write-ahead, generation-tagged chunk log with atomic commits.

    Layout on disk: ``<path>`` is the append-only record log,
    ``<path>.manifest`` the committed manifest.  The append/commit
    protocol (all through the injectable :class:`DurableIO`):

    1. :meth:`append` frames the chunk (magic, length-prefixed header
       JSON, payload, CRC-32), writes it to the log, and fsyncs.
    2. :meth:`commit` writes the manifest — generation, committed byte
       offset, chunk count, run metadata, its own CRC — to a temp file,
       fsyncs it, atomically renames it over the manifest, and fsyncs
       the directory.

    Readers (:func:`load_store_state`) trust only bytes at or below the
    manifest's offset; everything later is a crash residue and is
    truncated on the next :meth:`open_resume`.

    A chunked run of ``total`` rows drives the store through
    :meth:`start`, :meth:`append`, :meth:`save` and :meth:`resume`, which
    write and check the run metadata (:meth:`run_meta`).
    """

    def __init__(
        self,
        path: "str | os.PathLike",
        *,
        kind: str,
        fingerprint: str,
        total: int = 0,
        io: "DurableIO | None" = None,
    ):
        self.path = os.fspath(path)
        self.manifest_path = self.path + MANIFEST_SUFFIX
        self.kind = kind
        self.fingerprint = fingerprint
        self.total = int(total)
        self.io = io if io is not None else current_io()
        self._handle: IO | None = None
        self._offset = 0
        self._chunks = 0
        self._next_index = 0
        self.generation = 0

    # -- lifecycle ---------------------------------------------------------

    def create(self, meta: Mapping[str, object]) -> None:
        """Start a fresh store: drop old state, commit an empty manifest.

        The immediate empty commit means a crash one instant later
        already leaves a *valid* (zero-progress) store — resume never has
        to distinguish "never started" from "crashed before first chunk".
        """
        self.io.unlink(self.manifest_path, CP_MANIFEST_UNLINK)
        self._handle = self.io.open(self.path, "wb", CP_LOG_OPEN)
        self._offset = 0
        self._chunks = 0
        self._next_index = 0
        self.generation = 0
        self.commit(meta)

    def open_resume(self, state: StoreState) -> None:
        """Re-open for appending after a salvage-aware load.

        Trims the log back to the byte end of the recovered valid prefix
        (``state.valid_end``, found by the load's own walk — the log is
        not read again), dropping torn tails and quarantined records so
        new appends extend a clean prefix, then fsyncs the trim before
        any new record is written.
        """
        self._handle = self.io.open(self.path, "r+b", CP_LOG_OPEN)
        self.io.truncate(self._handle, state.valid_end, CP_LOG_TRUNCATE)
        self.io.fsync(self._handle, CP_LOG_TRUNCATE)
        self.io.reached(CP_LOG_TRUNCATED)
        self._handle.seek(state.valid_end)
        self._offset = state.valid_end
        self._chunks = len(state.chunks)
        self._next_index = (
            max((record.index for record in state.chunks), default=-1) + 1
        )
        self.generation = state.generation

    def close(self) -> None:
        """Close the append handle (safe to call repeatedly)."""
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None

    # -- writing -----------------------------------------------------------

    def append(
        self, start: int, stop: int, arrays: Mapping[str, np.ndarray]
    ) -> int:
        """Append one chunk record covering global rows [start, stop).

        The record is written and fsynced immediately (write-ahead), but
        becomes visible to readers only after the next :meth:`commit`.
        Returns the record's append index.
        """
        if self._handle is None:
            raise CheckpointError(
                "chunk store is not open for appending",
                path=self.path,
                reason="corrupt",
            )
        index = self._next_index
        prefix, views, trailer = _record_parts(
            index=index,
            start=start,
            stop=stop,
            generation=self.generation + 1,
            kind=self.kind,
            fingerprint=self.fingerprint,
            arrays=arrays,
        )
        # Each piece goes straight from its source buffer to the file —
        # no record-sized intermediate (see _record_parts).
        for piece in (prefix, *views, trailer):
            self.io.write(self._handle, piece, CP_CHUNK_WRITE)
        self.io.fsync(self._handle, CP_CHUNK_FSYNC)
        self.io.reached(CP_CHUNK_SYNCED)
        self._offset += (
            len(prefix) + sum(view.nbytes for view in views) + len(trailer)
        )
        self._chunks += 1
        self._next_index += 1
        return index

    def commit(self, meta: Mapping[str, object]) -> int:
        """Atomically publish every appended record; returns the generation."""
        generation = self.generation + 1
        payload = _manifest_bytes(
            generation=generation,
            offset=self._offset,
            chunks=self._chunks,
            meta=meta,
        )
        temp = self.manifest_path + ".tmp"
        handle = self.io.open(temp, "wb", CP_MANIFEST_TMP_OPEN)
        try:
            self.io.write(handle, payload, CP_MANIFEST_TMP_WRITE)
            self.io.fsync(handle, CP_MANIFEST_TMP_FSYNC)
        finally:
            handle.close()
        self.io.replace(temp, self.manifest_path, CP_MANIFEST_RENAME)
        self.io.reached(CP_MANIFEST_RENAMED)
        self.io.fsync_dir(self.manifest_path, CP_DIR_FSYNC)
        self.io.reached(CP_COMMITTED)
        self.generation = generation
        return generation

    # -- a chunked run -----------------------------------------------------

    def run_meta(
        self, completed: int, quarantined: Iterable[tuple[int, int]]
    ) -> dict:
        """The metadata every commit of a chunked run carries: ``completed``
        rows and the quarantined ``(start, stop)`` row ranges among them."""
        return {
            "version": CHECKPOINT_VERSION,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "completed": int(completed),
            "total": self.total,
            "quarantined": [
                [int(start), int(stop)] for start, stop in quarantined
            ],
        }

    def start(self) -> None:
        """Create the store of a fresh run (no row completed)."""
        self.create(self.run_meta(0, ()))

    def save(
        self, completed: int, quarantined: Iterable[tuple[int, int]]
    ) -> None:
        """Commit every appended record under the run's metadata."""
        self.commit(self.run_meta(completed, quarantined))
        context = current_context()
        context.count("checkpoint.saves")
        context.event(
            "checkpoint_save",
            kind=self.kind,
            path=self.path,
            completed=int(completed),
            total=self.total,
        )

    def resume(
        self, series: Mapping[str, np.ndarray]
    ) -> tuple[int, list[tuple[int, int]]]:
        """Load the run's store (salvaging if needed), replay it into
        ``series`` and re-open it for appending.

        Returns ``(completed, quarantined_ranges)``.  Only records of this
        store's kind and fingerprint are replayed — the ownership check a
        recovery without a manifest relies on.  A lossy recovery warns
        :class:`~repro.robustness.guard.RobustnessWarning` and emits a
        ``checkpoint_salvage`` event — never silent acceptance, never
        wholesale discard.

        Raises:
            CheckpointError: Nothing usable was recovered, or the store
                holds a different run (the salvage summary rides along).
        """
        state = load_store_state(self.path)
        report = state.report
        salvage = report.summary()
        owned = replace(
            state,
            chunks=tuple(
                record
                for record in state.chunks
                if record.kind == self.kind
                and record.fingerprint == self.fingerprint
            ),
        )

        def refuse(reason: str, message: str) -> CheckpointError:
            return CheckpointError(
                f"cannot resume: checkpoint {self.path!r} {message}",
                path=self.path,
                reason=reason,
                salvage=salvage,
            )

        meta = state.meta
        if meta is None:
            if not owned.chunks:
                # An empty log with no manifest is a crash one instant
                # after create(): nothing committed, nothing torn — treat
                # it as absent so callers can restart fresh.
                raise refuse(
                    "corrupt" if report.torn_bytes else "missing",
                    f"has no committed state ({salvage})",
                )
            # Manifest destroyed but the log itself is healthy: the owned
            # records are trustworthy (CRC + fingerprint), so synthesize
            # the metadata instead of discarding them.
            meta = self.run_meta(_contiguous_coverage(owned.chunks), ())
        if int(meta.get("version", -1)) != CHECKPOINT_VERSION:
            raise refuse(
                "version",
                f"has version {meta.get('version')}, expected "
                f"{CHECKPOINT_VERSION}",
            )
        if str(meta.get("kind", "")) != self.kind:
            raise refuse(
                "mismatch",
                f"holds a {str(meta.get('kind', ''))!r} run, not "
                f"{self.kind!r}",
            )
        if str(meta.get("fingerprint", "")) != self.fingerprint:
            raise refuse(
                "mismatch",
                "was written by a different run configuration (seed, "
                "draws, parameters, or policy differ)",
            )
        committed = int(meta.get("completed", 0))
        if committed > self.total or int(meta.get("total", -1)) != self.total:
            raise refuse(
                "mismatch",
                f"covers {committed}/{meta.get('total')} rows, expected "
                f"{self.total}",
            )
        completed = min(committed, owned.replay(series))
        # Quarantined holes sit inside the completed prefix; any range a
        # lossy salvage pushed past `completed` is recomputed anyway.
        quarantined = [
            (int(start), int(stop))
            for start, stop in meta.get("quarantined", [])
            if int(stop) <= completed
        ]
        context = current_context()
        if report.lossy or completed < committed:
            warnings.warn(
                f"checkpoint {self.path!r} was damaged; recovered the "
                f"longest valid committed prefix ({salvage}); "
                f"{committed - completed} row(s) will be recomputed",
                RobustnessWarning,
                stacklevel=4,
            )
            context.count("checkpoint.salvages")
            context.event(
                "checkpoint_salvage",
                kind=self.kind,
                path=self.path,
                chunks_kept=report.chunks_kept,
                chunks_quarantined=len(report.chunks_quarantined),
                generation=report.generation,
                completed=completed,
                committed=committed,
                summary=salvage,
            )
        context.count("checkpoint.restores")
        context.event(
            "checkpoint_restore",
            kind=self.kind,
            path=self.path,
            completed=completed,
            total=self.total,
        )
        self.open_resume(state)
        return completed, quarantined

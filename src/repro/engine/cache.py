"""Content-addressed caching for batched Eq. 1-8 evaluations.

Sweeps repeat themselves: the CLI re-runs the same Monte Carlo grid, a
figure regenerates over the exact same Cartesian product, an optimizer
revisits a region of the design space.  Since a
:class:`~repro.engine.batch.ScenarioBatch` is just 18 float columns, its
*content* is hashable — the SHA-256 of the column bytes keys an evaluated
:class:`~repro.engine.kernels.BatchResult` so identical batches are never
recomputed, regardless of how they were constructed.

Results are stored with read-only arrays (enforced by ``BatchResult``
itself), so handing the same object to multiple callers is safe.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.errors import ParameterError
from repro.core.parameters import require_positive
from repro.engine.batch import FIELD_NAMES, ScenarioBatch
from repro.engine.kernels import BatchResult, evaluate_batch
from repro.obs.context import current_context

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.scenario import ActScenario


def batch_key(batch: ScenarioBatch) -> str:
    """A content hash identifying a batch by its parameter values.

    Two batches with equal columns hash identically even when built by
    different constructors (``from_product`` vs ``from_scenarios``), so a
    re-swept grid hits the cache of its first evaluation.  The digest
    starts with the row count and the literal column dtype tag
    ``float64``.

    C-contiguous columns are hashed in place through their buffer; only
    broadcast (zero-stride) or strided columns are materialized with
    ``tobytes()`` — the digested bytes are the same either way.
    """
    digest = hashlib.sha256()
    digest.update(len(batch).to_bytes(8, "little"))
    digest.update(b"float64")
    for name in FIELD_NAMES:
        digest.update(name.encode("ascii"))
        column = batch.column(name)
        digest.update(
            column.data if column.flags.c_contiguous else column.tobytes()
        )
    return digest.hexdigest()


#: Precomputed pieces of the single-row digest: the fixed prefix (row
#: count 1 + dtype name) and each field name's ASCII bytes, so
#: :func:`scenario_key` does no per-call encoding work.
_SINGLE_ROW_PREFIX = (1).to_bytes(8, "little") + b"float64"
_FIELD_NAME_BYTES = tuple(name.encode("ascii") for name in FIELD_NAMES)
#: ``=d`` packs a native-order IEEE double — byte-identical to a one-row
#: float64 column's ``tobytes()``.
_PACK_DOUBLE = struct.Struct("=d").pack


def scenario_key(scenario: "ActScenario") -> str:
    """:func:`batch_key` of the one-row batch for ``scenario`` — computed
    directly from the scalar fields, without constructing the batch.

    Building and validating an 18-column ``ScenarioBatch`` costs ~100x
    the kernel pass for a single row, so the carbon-query service's
    per-query cache lookups hash the scenario itself.  The digest layout
    mirrors :func:`batch_key` exactly (row count, dtype name, then each
    column's name and bytes), so
    ``scenario_key(s) == batch_key(ScenarioBatch.from_scenarios((s,)))``
    and key-level entries interoperate with batch-level ones.
    """
    digest = hashlib.sha256()
    digest.update(_SINGLE_ROW_PREFIX)
    pack = _PACK_DOUBLE
    for name, name_bytes in zip(FIELD_NAMES, _FIELD_NAME_BYTES):
        digest.update(name_bytes)
        digest.update(pack(getattr(scenario, name)))
    return digest.hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of one cache's counters.

    Attributes:
        hits / misses / evictions: Running counters since the last reset.
        size: Entries currently stored.
        capacity: Maximum entries retained.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        """Fraction of evaluations served from cache (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        """The snapshot as a plain dict (for JSON events and CLI output)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": self.hit_rate,
        }


@dataclass
class EvaluationCache:
    """An LRU content-hash cache of batched model evaluations.

    Thread-safe: the store and its counters are guarded by an internal
    lock, so the carbon-query service can share one cache across every
    request thread.  On a miss, the kernel pass itself runs *outside*
    the lock — two threads racing on the same key both compute, and the
    second insert wins harmlessly (results for equal keys are equal).

    Attributes:
        capacity: Maximum number of batch results retained; least recently
            used entries are evicted first.
        hits / misses / evictions: Running counters for observability and
            tests (see :meth:`stats` for an atomic snapshot).
    """

    capacity: int = 64
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    _store: "OrderedDict[str, BatchResult]" = field(default_factory=OrderedDict)
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        require_positive("capacity", self.capacity)

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def _get(self, key: str, rows: int) -> "BatchResult | None":
        """Look up ``key`` under the lock, counting the hit or miss."""
        context = current_context()
        with self._lock:
            cached = self._store.get(key)
            if cached is not None and len(cached) == rows:
                self.hits += 1
                self._store.move_to_end(key)
                if context.enabled:
                    context.count("engine.cache.hits")
                return cached
            self.misses += 1
        if context.enabled:
            context.count("engine.cache.misses")
        return None

    def _insert(self, key: str, result: BatchResult) -> None:
        context = current_context()
        with self._lock:
            self._store[key] = result
            self._store.move_to_end(key)
            evicted = 0
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if evicted and context.enabled:
            context.count("engine.cache.evictions", evicted)

    def evaluate(self, batch: ScenarioBatch) -> BatchResult:
        """Eq. 1-8 over ``batch``, reusing any previous identical evaluation.

        Hits, misses, and evictions are mirrored to the active
        :class:`~repro.obs.context.RunContext` as ``engine.cache.*``
        counters; the null context makes that a no-op.
        """
        return self.evaluate_with_origin(batch)[0]

    def evaluate_with_origin(
        self, batch: ScenarioBatch, backend: None = None
    ) -> "tuple[BatchResult, bool]":
        """:meth:`evaluate`, additionally reporting where the result came
        from: ``(result, True)`` for a cache hit, ``(result, False)`` for
        a fresh kernel pass.

        The carbon-query service's circuit breaker needs the
        distinction — a hit proves nothing about backend health, so
        recording it as a success would close a half-open breaker
        against a still-broken backend.

        ``backend`` survives only for subclasses that forward it
        positionally; anything but ``None`` raises
        :class:`~repro.core.errors.ParameterError`.
        """
        if backend is not None:
            raise ParameterError(
                f"there is one float64 kernel; backend must be None, got {backend!r}"
            )
        key = batch_key(batch)
        cached = self._get(key, len(batch))
        if cached is not None:
            return cached, True
        result = evaluate_batch(batch)
        self._insert(key, result)
        return result, False

    def peek(self, batch: ScenarioBatch) -> "BatchResult | None":
        """The cached result for ``batch``, or ``None`` — never computes.

        The cache-only lookup behind the service's degraded serving mode:
        when the circuit breaker is open, previously computed answers are
        still served while nothing new touches the failing backend.
        Counts as a hit or miss like :meth:`evaluate`.
        """
        return self._get(batch_key(batch), len(batch))

    def put(self, batch: ScenarioBatch, result: BatchResult) -> None:
        """Store an externally computed ``result`` for ``batch``.

        Lets the micro-batcher populate per-query entries from one
        coalesced kernel pass, so later identical queries (including
        cache-only degraded ones) hit without re-evaluating.  The result
        must align with the batch row-for-row.
        """
        if len(result) != len(batch):
            raise ParameterError(
                f"cached result has {len(result)} rows for a "
                f"{len(batch)}-row batch"
            )
        self._insert(batch_key(batch), result)

    def peek_by_key(
        self, content_key: str, rows: int = 1
    ) -> "BatchResult | None":
        """:meth:`peek` by a precomputed content key (see
        :func:`scenario_key`) — the service's per-query fast path, which
        never pays for batch construction on a hit.

        The by-key interface is value-agnostic: any row-aligned result
        object with ``__len__`` can live under a caller-hashed key, which
        is how scheduling sweeps share this cache (their
        :func:`~repro.scheduling.batch.schedule_batch_key` layout is
        domain-prefixed, so schedule and Eq. 1-8 entries cannot
        collide)."""
        return self._get(content_key, rows)

    def put_by_key(self, content_key: str, result: BatchResult) -> None:
        """:meth:`put` by a precomputed content key.  The caller vouches
        that ``content_key`` identifies exactly the inputs that produced
        ``result`` (the micro-batcher hashes each scenario at submit and
        stores its row slice under that same key)."""
        self._insert(content_key, result)

    def put_many_by_key(self, entries: "list[tuple[str, BatchResult]]") -> None:
        """:meth:`put_by_key` for a whole tick's rows in one lock hold.

        The micro-batcher stores every row of a coalesced evaluation at
        once; taking the lock per row would dominate the per-row cost at
        service rates.
        """
        context = current_context()
        with self._lock:
            store = self._store
            for content_key, result in entries:
                store[content_key] = result
                store.move_to_end(content_key)
            evicted = 0
            while len(store) > self.capacity:
                store.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if evicted and context.enabled:
            context.count("engine.cache.evictions", evicted)

    def stats(self) -> CacheStats:
        """A snapshot of the counters, size, and capacity."""
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                size=len(self._store),
                capacity=self.capacity,
            )

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters (stored entries are kept)."""
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def clear(self) -> None:
        """Drop every cached result and reset the counters."""
        with self._lock:
            self._store.clear()
            self.reset_stats()

    @property
    def hit_rate(self) -> float:
        """Fraction of evaluations served from cache (0 when unused)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0


#: Process-wide default cache used when callers do not pass their own.
DEFAULT_CACHE = EvaluationCache()


def evaluate_cached(
    batch: ScenarioBatch, cache: EvaluationCache | None = None
) -> BatchResult:
    """Evaluate a batch through ``cache`` (default: the process-wide one)."""
    if cache is None:
        cache = DEFAULT_CACHE
    return cache.evaluate(batch)

"""The ``montecarlo`` and ``montecarlo_durable`` workloads.

``montecarlo`` is what ``act-repro montecarlo`` users wait for: one
``run_monte_carlo`` call over all 18 Table 1 parameters with triangular
draws, a fresh seed per operation and a private cache (so every
operation is a cache miss).  ``montecarlo_durable`` runs the same draws
through the chunked driver with a strict guard, the serial ``policy=1``
runner and a checkpoint on a real (non-tmpfs) filesystem: sample ->
validate -> batch -> kernel -> reduce -> persist.

Correctness does not depend on the draw stream: the private cache keeps
a few rows of every batch the program actually evaluated, and each of
those rows is recomputed with the scalar model and compared with the
returned sample at the test-suite tolerance.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np

from repro.analysis import montecarlo as mc_module
from repro.analysis.montecarlo import run_monte_carlo
from repro.analysis.scenario import ActScenario
from repro.engine import cache as cache_module
from repro.engine.batch import FIELD_NAMES, ScenarioBatch
from repro.engine.cache import EvaluationCache
from repro.robustness import checkpoint as checkpoint_module
from repro.robustness import guard as guard_module
from repro.robustness.durability import DurableChunkStore, DurableIO, install_durable_io
from repro.robustness.guard import GuardedEngine

from common import (
    OpWorkload,
    Outcome,
    Tracer,
    check,
    filesystem_type,
    op_seed,
)

#: The scalar-model agreement tolerance of ``tests/test_engine.py``.
TOLERANCE = 1e-9

BASE = ActScenario()


class RecordingCache(EvaluationCache):
    """A private evaluation cache that keeps ``rows`` evenly spaced input
    rows of every batch it evaluates (the correctness oracle's inputs)."""

    def __init__(self, capacity: int, rows: int):
        super().__init__(capacity=capacity)
        self.rows = rows
        self.seen: list[tuple[int, np.ndarray, np.ndarray]] = []

    def evaluate_with_origin(self, batch, backend=None):
        size = len(batch)
        index = np.unique(np.linspace(0, size - 1, min(self.rows, size)).astype(np.intp))
        values = np.stack([batch.column(name)[index] for name in FIELD_NAMES])
        self.seen.append((size, index, values))
        return super().evaluate_with_origin(batch, backend)


def check_samples(samples: np.ndarray, draws: int, seen, corrupt: bool) -> None:
    """Count, finiteness, and every recorded row against the scalar model.

    ``corrupt`` perturbs one checked sample first (the self-test's proof
    that a wrong answer trips the check).
    """
    if corrupt and seen:
        samples = samples.copy()
        samples[seen[0][1][-1]] *= 1.0 + 1e-6
    check(samples.shape == (draws,), f"{samples.shape[0]} samples for {draws} draws")
    check(bool(np.isfinite(samples).all()), "non-finite sample")
    evaluated = sum(size for size, _, _ in seen)
    check(evaluated == draws, f"the program evaluated {evaluated} rows for {draws} draws")
    offset = 0
    for size, index, values in seen:
        for column, row in enumerate(index):
            scenario = ActScenario(
                **{name: float(values[k, column]) for k, name in enumerate(FIELD_NAMES)}
            )
            expected = scenario.total_g()
            got = float(samples[offset + row])
            check(
                abs(got - expected) <= TOLERANCE + TOLERANCE * abs(expected),
                f"draw {offset + row}: {got!r} vs scalar model {expected!r}",
            )
        offset += size


class CountingIO(DurableIO):
    """The real filesystem boundary, counting fsyncs and bytes written."""

    def __init__(self) -> None:
        self.fsyncs = 0
        self.bytes_written = 0

    def write(self, handle, data, point):
        self.bytes_written += data.nbytes if isinstance(data, memoryview) else len(data)
        super().write(handle, data, point)

    def fsync(self, handle, point):
        self.fsyncs += 1
        super().fsync(handle, point)

    def fsync_dir(self, path, point):
        self.fsyncs += 1
        super().fsync_dir(path, point)


class MonteCarlo(OpWorkload):
    """2^20-draw ``run_monte_carlo`` operations, one seed each."""

    name = "montecarlo"
    #: Recorded rows per evaluated batch (the oracle's sample).
    rows_checked = 64
    stages = (
        "analysis.sample",
        "engine.batch_build",
        "engine.cache_key",
        "engine.kernel",
    )

    def __init__(self, ctx):
        super().__init__(ctx)
        self.draws = 2**12 if ctx.tiny else 2**20
        self.cache: RecordingCache | None = None

    def _run(self, seed: int, cache: RecordingCache):
        return run_monte_carlo(BASE, draws=self.draws, seed=seed, cache=cache)

    def _extra_check(self, seed: int, samples: np.ndarray) -> None:
        """A further check of the first timed operation (none here)."""

    def setup(self, repeat: int) -> None:
        """A private cache (each operation's seed derives from the run
        seed) and one warm-up operation, checked."""
        self.cache = RecordingCache(capacity=1, rows=self.rows_checked)
        self.operation(op_seed(self.ctx.seed, 1, repeat))

    def operation(self, seed: int, first: bool = False) -> float:
        cache = self.cache
        cache.seen.clear()
        started = time.perf_counter()
        result = self._run(seed, cache)
        elapsed = time.perf_counter() - started
        self.items += self.draws

        def check() -> None:
            check_samples(result.samples, self.draws, cache.seen, self.ctx.corrupt)
            if first:
                self._extra_check(seed, result.samples)

        self.checked(check)
        cache.seen.clear()
        return elapsed

    def timed(self, index: int) -> float:
        return self.operation(op_seed(self.ctx.seed, 0, index), first=index == 0)

    def begin_trace(self, tracer: Tracer) -> None:
        tracer.wrap(mc_module, "sample_parameter_columns", "analysis.sample")
        tracer.wrap(ScenarioBatch, "from_columns", "engine.batch_build")
        trace_engine(tracer)

    def layers(self, tracer: Tracer, ops: int) -> dict[str, float]:
        return {
            "analysis.sample_s": tracer.per_op("analysis.sample", ops),
            "engine.cache_key_s": tracer.per_op("engine.cache_key", ops),
            "engine.cache_hit_ratio": self.cache.stats().hit_rate,
            "engine.batch_build_s": tracer.per_op("engine.batch_build", ops),
            "engine.kernel_s": tracer.per_op("engine.kernel", ops),
            "engine.kernel_rows": tracer.counts["engine.kernel.rows"] / ops,
        }


def trace_engine(tracer: Tracer) -> None:
    """Spans around the cache key and the kernel call inside the cache."""
    tracer.wrap(cache_module, "batch_key", "engine.cache_key")
    tracer.wrap(
        cache_module,
        "evaluate_batch",
        "engine.kernel",
        rows=lambda batch, *args, **kwargs: len(batch),
    )


class MonteCarloDurable(MonteCarlo):
    """The same draws through the guarded, checkpointed chunked driver."""

    name = "montecarlo_durable"
    rows_checked = 8
    stages = MonteCarlo.stages + (
        "parallel.runner",
        "robustness.guard",
        "robustness.persist",
    )

    def __init__(self, ctx):
        super().__init__(ctx)
        self.chunk_rows = 2**10 if ctx.tiny else 2**16
        self.directory = os.path.join(ctx.workdir, f"durable-{os.getpid()}")
        self.io: CountingIO | None = None

    def setup(self, repeat: int) -> None:
        """A fresh checkpoint directory (refused on tmpfs), then the
        shared set-up."""
        shutil.rmtree(self.directory, ignore_errors=True)
        os.makedirs(self.directory)
        if filesystem_type(self.directory) == "tmpfs":
            raise RuntimeError(
                f"checkpoint directory {self.directory} is on tmpfs, where fsync "
                "costs nothing; run from a checkout on a disk-backed filesystem"
            )
        super().setup(repeat)

    def _run(self, seed: int, cache: RecordingCache, checkpoint: bool = True):
        def call():
            return checkpoint_module.run_monte_carlo_chunked(
                BASE,
                draws=self.draws,
                seed=seed,
                chunk_rows=self.chunk_rows,
                checkpoint=os.path.join(self.directory, "mc.ckpt") if checkpoint else None,
                guard=GuardedEngine(policy="strict", cache=cache),
                policy=1,
            )

        if self.tracer is None:
            return call()
        with self.tracer.span("parallel.runner"):
            return call()

    def _extra_check(self, seed: int, samples: np.ndarray) -> None:
        """Bit-identical to the same chunked run without a checkpoint."""
        reference = self._run(seed, RecordingCache(capacity=1, rows=1), checkpoint=False)
        check(
            reference.samples.tobytes() == samples.tobytes(),
            "checkpointed samples differ from the same run without a checkpoint",
        )

    def begin_trace(self, tracer: Tracer) -> None:
        self.io = CountingIO()
        install_durable_io(self.io)
        tracer.wrap(checkpoint_module, "sample_parameter_columns_sharded", "analysis.sample")
        tracer.wrap(GuardedEngine, "evaluate_columns", "robustness.guard")
        tracer.wrap(guard_module, "broadcast_columns", "engine.batch_build")
        tracer.wrap(guard_module, "prevalidated_batch", "engine.batch_build")
        for method in ("create", "append", "commit"):
            tracer.wrap(DurableChunkStore, method, "robustness.persist")
        trace_engine(tracer)

    def end_trace(self) -> None:
        install_durable_io(None)

    def layers(self, tracer: Tracer, ops: int) -> dict[str, float]:
        return {
            **super().layers(tracer, ops),
            "robustness.guard_s": tracer.per_op("robustness.guard", ops),
            "robustness.persist_s": tracer.per_op("robustness.persist", ops),
            "robustness.fsyncs": self.io.fsyncs / ops,
            "robustness.bytes_written": self.io.bytes_written / ops,
            "parallel.runner_s": tracer.per_op("parallel.runner", ops),
        }

    def run(self) -> Outcome:
        try:
            return super().run()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)


WORKLOADS = {
    MonteCarlo.name: MonteCarlo,
    MonteCarloDurable.name: MonteCarloDurable,
}

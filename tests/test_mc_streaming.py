"""Streamed Monte Carlo sampling in the chunked driver.

Under a resolved execution policy, :func:`run_monte_carlo_chunked` samples
each chunk from its own ``SeedSequence(seed).spawn(n)[i]`` child when the
chunk is evaluated (through
:class:`~repro.analysis.montecarlo.ShardColumnSource`) instead of sampling
every draw up front.  These tests pin that the streamed run is the same
run: bit-identical samples against the serial up-front reference at any
worker count, resumes that converge bit-identically and never re-sample
committed chunks, fingerprints (and so checkpoints) unchanged from the
up-front driver, and a sampling footprint bounded by the chunk, not the
run.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from repro.analysis import montecarlo as mc_module
from repro.analysis.montecarlo import (
    ShardColumnSource,
    resolve_parameter_ranges,
    sample_parameter_columns_sharded,
    sample_shard_columns,
)
from repro.analysis.scenario import ActScenario
from repro.core.errors import ParameterError, RunInterrupted
from repro.engine.batch import ScenarioBatch
from repro.engine.cache import EvaluationCache
from repro.engine.kernels import evaluate_batch
from repro.obs.context import RunContext, use_context
from repro.parallel import DEGRADE, ExecutionPolicy
from repro.parallel.policy import shard_plan
from repro.robustness.checkpoint import (
    CHECKPOINT_VERSION,
    CountingCancelToken,
    run_monte_carlo_chunked,
)
from repro.robustness.durability import DurableChunkStore
from repro.robustness.faultinject import ProcessFault, ProcessFaultPlan
from repro.robustness.guard import RobustnessWarning

BASE = ActScenario()
#: Not a multiple of CHUNK: the last chunk is short.
DRAWS = 1000
CHUNK = 128
SEED = 3


def up_front_columns(draws=DRAWS, seed=SEED, chunk_rows=CHUNK):
    """Every shard sampled up front, spelled out: spawn all children,
    sample each shard from its child, concatenate in shard order."""
    resolved = resolve_parameter_ranges()
    plan = shard_plan(draws, chunk_rows)
    seeds = np.random.SeedSequence(seed).spawn(len(plan))
    shards = [
        sample_shard_columns(BASE, resolved, stop - start, seeds[index])
        for index, (start, stop) in enumerate(plan)
    ]
    return {
        name: np.concatenate([shard[name] for shard in shards])
        for name in resolved
    }


def up_front_reference(draws=DRAWS, seed=SEED, chunk_rows=CHUNK):
    """Every draw sampled up front and evaluated in one batch — the
    serial reference the streamed run must reproduce bit for bit."""
    columns = up_front_columns(draws, seed, chunk_rows)
    batch = ScenarioBatch.from_columns(BASE, draws, columns)
    return np.asarray(evaluate_batch(batch).total_g)


def policy(workers, **overrides):
    return ExecutionPolicy(workers=workers, backend="reference", **overrides)


class TestShardColumnSource:
    def test_any_aligned_range_matches_the_up_front_columns(self):
        reference = up_front_columns()
        sharded = sample_parameter_columns_sharded(
            BASE, draws=DRAWS, seed=SEED, shard_rows=CHUNK
        )
        source = ShardColumnSource.create(
            BASE, draws=DRAWS, seed=SEED, shard_rows=CHUNK
        )
        assert source.names == tuple(reference) == tuple(sharded)
        for start, stop in [(0, DRAWS), (0, CHUNK), (256, 640), (896, DRAWS)]:
            columns = source.columns(start, stop)
            for name, column in reference.items():
                assert columns[name].tobytes() == column[start:stop].tobytes()
                assert sharded[name][start:stop].tobytes() == (
                    column[start:stop].tobytes()
                )

    @pytest.mark.parametrize("start, stop", [(1, 128), (0, 130), (128, 128)])
    def test_unaligned_ranges_are_rejected(self, start, stop):
        source = ShardColumnSource.create(
            BASE, draws=DRAWS, seed=SEED, shard_rows=CHUNK
        )
        with pytest.raises(ParameterError, match="shard-aligned"):
            source.columns(start, stop)


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_streamed_samples_match_the_up_front_reference(self, workers):
        result = run_monte_carlo_chunked(
            BASE,
            draws=DRAWS,
            seed=SEED,
            chunk_rows=CHUNK,
            policy=policy(workers),
        )
        assert result.samples.tobytes() == up_front_reference().tobytes()


class TestResume:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_cancelled_run_resumes_bit_identically(self, tmp_path, workers):
        path = tmp_path / "mc.ckpt"
        with pytest.raises(RunInterrupted) as excinfo:
            run_monte_carlo_chunked(
                BASE,
                draws=DRAWS,
                seed=SEED,
                chunk_rows=CHUNK,
                checkpoint=path,
                cancel=CountingCancelToken(1),
                policy=policy(workers),
            )
        assert 0 < excinfo.value.completed < DRAWS
        resumed = run_monte_carlo_chunked(
            BASE,
            draws=DRAWS,
            seed=SEED,
            chunk_rows=CHUNK,
            checkpoint=path,
            resume=True,
            policy=policy(workers),
        )
        assert resumed.samples.tobytes() == up_front_reference().tobytes()

    def test_quarantined_holes_converge_bit_identically(self, tmp_path):
        path = tmp_path / "mc.ckpt"
        degrade = policy(
            2, failure_policy=DEGRADE, max_retries=0, backoff_seconds=0.0
        )
        plan = ProcessFaultPlan.create(
            tmp_path / "faults", [ProcessFault("kill", shard=1, times=1)]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RobustnessWarning)
            partial = run_monte_carlo_chunked(
                BASE,
                draws=DRAWS,
                seed=SEED,
                chunk_rows=CHUNK,
                checkpoint=path,
                policy=degrade,
                fault_plan=plan,
            )
            assert partial.partial is not None
            assert partial.partial.ranges == ((CHUNK, 2 * CHUNK),)
            healed = run_monte_carlo_chunked(
                BASE,
                draws=DRAWS,
                seed=SEED,
                chunk_rows=CHUNK,
                checkpoint=path,
                resume=True,
                policy=degrade,
            )
        assert healed.partial is None
        assert healed.samples.tobytes() == up_front_reference().tobytes()

    def test_resume_samples_only_uncommitted_chunks(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "mc.ckpt"
        with pytest.raises(RunInterrupted) as excinfo:
            run_monte_carlo_chunked(
                BASE,
                draws=DRAWS,
                seed=SEED,
                chunk_rows=CHUNK,
                checkpoint=path,
                cancel=CountingCancelToken(3),
                policy=1,
            )
        committed = excinfo.value.completed // CHUNK
        assert committed == 3

        sampled = []
        real = mc_module.sample_shard_columns

        def counting(base, ranges, count, seed, distribution):
            sampled.append(seed.spawn_key[-1])
            return real(base, ranges, count, seed, distribution)

        monkeypatch.setattr(mc_module, "sample_shard_columns", counting)
        resumed = run_monte_carlo_chunked(
            BASE,
            draws=DRAWS,
            seed=SEED,
            chunk_rows=CHUNK,
            checkpoint=path,
            resume=True,
            policy=1,
        )
        assert sampled == list(range(committed, 8))
        assert resumed.samples.tobytes() == up_front_reference().tobytes()


class TestFingerprint:
    #: The checkpoint fingerprint the up-front driver wrote for this run
    #: (seed 3, 1000 draws, 128-row chunks, reference backend, no guard).
    UP_FRONT_FINGERPRINT = (
        "b8738f87fa67f2810cee18a5e641ac41b082ffcb8f1e8350a2b02e1abb41bf07"
    )

    def test_checkpoint_written_up_front_resumes_streamed(self, tmp_path):
        path = tmp_path / "mc.ckpt"
        reference = up_front_reference()
        committed = 3 * CHUNK
        store = DurableChunkStore(
            path, kind="montecarlo", fingerprint=self.UP_FRONT_FINGERPRINT
        )

        def meta(completed):
            return {
                "version": CHECKPOINT_VERSION,
                "kind": "montecarlo",
                "fingerprint": self.UP_FRONT_FINGERPRINT,
                "completed": completed,
                "total": DRAWS,
                "quarantined": [],
            }

        store.create(meta(0))
        store.append(0, committed, {"samples": reference[:committed]})
        store.commit(meta(committed))
        store.close()

        context = RunContext.create(describe_git=False)
        with use_context(context):
            resumed = run_monte_carlo_chunked(
                BASE,
                draws=DRAWS,
                seed=SEED,
                chunk_rows=CHUNK,
                checkpoint=path,
                resume=True,
                policy=policy(1),
            )
        assert resumed.samples.tobytes() == reference.tobytes()
        assert len(context.sink.of_type("chunk")) == 8 - 3


class TestMemory:
    def test_sampling_footprint_is_bounded_by_the_chunk(self):
        draws = 2**18
        up_front_bytes = 18 * draws * 8
        tracemalloc.start()
        try:
            run_monte_carlo_chunked(
                BASE,
                draws=draws,
                seed=5,
                chunk_rows=2**14,
                policy=1,
                cache=EvaluationCache(capacity=1),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < up_front_bytes / 4

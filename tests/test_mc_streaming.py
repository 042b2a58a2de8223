"""The one Monte Carlo draw stream and the one driver that streams it.

:func:`run_monte_carlo_chunked` samples each chunk from its own
``SeedSequence(seed).spawn(n)[i]`` child when the chunk is evaluated
(through :class:`~repro.analysis.montecarlo.ShardColumnSource`) instead
of sampling every draw up front, and ``run_monte_carlo`` is that driver
without a checkpoint.  These tests pin that every path is the same run:
byte-identical samples against the serial up-front reference for any
policy, transport, guard, checkpoint or resume (the conformance matrix),
resumes that converge bit-identically and never re-sample committed
chunks, fingerprints (and so checkpoints) unchanged from the up-front
driver, old single-stream checkpoints refused, fully masked chunks that
only fail a run with no survivor, and a sampling footprint bounded by the
chunk, not the run.
"""

import functools
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.analysis import montecarlo as mc_module
from repro.analysis.montecarlo import (
    ShardColumnSource,
    resolve_parameter_ranges,
    run_monte_carlo,
    sample_parameter_columns,
    sample_shard_columns,
)
from repro.analysis.scenario import ActScenario
from repro.core.errors import (
    CheckpointError,
    ParameterError,
    RunInterrupted,
    ValidationError,
)
from repro.engine.batch import ScenarioBatch
from repro.engine.cache import EvaluationCache
from repro.engine.kernels import evaluate_batch
from repro.obs.context import RunContext, use_context
from repro.parallel import (
    DEFAULT_SHARD_ROWS,
    DEGRADE,
    PICKLE,
    SHM,
    ExecutionPolicy,
)
from repro.parallel.policy import shard_plan
from repro.robustness.checkpoint import (
    CHECKPOINT_VERSION,
    CancelToken,
    CountingCancelToken,
    run_monte_carlo_chunked,
)
from repro.robustness.durability import DurableChunkStore
from repro.robustness.faultinject import ProcessFault, ProcessFaultPlan
from repro.robustness.guard import GuardedEngine, RobustnessWarning

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
    return ExecutionPolicy(workers=workers, **overrides)


class TestShardColumnSource:
    def test_any_aligned_range_matches_the_up_front_columns(self):
        reference = up_front_columns()
        sharded = sample_parameter_columns(
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


#: The conformance run: two blocks of the default block size, the last
#: short, so a run without a policy and a two-worker run both split it.
ONE_DRAWS = DEFAULT_SHARD_ROWS + 4097
ONE_SEED = 11


@functools.lru_cache(maxsize=1)
def one_stream_reference():
    return up_front_reference(ONE_DRAWS, ONE_SEED, DEFAULT_SHARD_ROWS)


def one_run(**kwargs):
    return run_monte_carlo(BASE, draws=ONE_DRAWS, seed=ONE_SEED, **kwargs)


def one_chunked(**kwargs):
    return run_monte_carlo_chunked(
        BASE,
        draws=ONE_DRAWS,
        seed=ONE_SEED,
        chunk_rows=DEFAULT_SHARD_ROWS,
        **kwargs,
    )


def one_resumed(tmp_path, resume_policy):
    path = tmp_path / "mc.ckpt"
    with pytest.raises(RunInterrupted):
        one_chunked(checkpoint=path, cancel=CountingCancelToken(1))
    return one_chunked(checkpoint=path, resume=True, policy=resume_policy)


#: Every way to run the conformance draws; each must give the same bytes.
ONE_STREAM_PATHS = {
    "policy=None": lambda tmp_path: one_run(),
    "policy=1/shm": lambda tmp_path: one_run(policy=policy(1, transport=SHM)),
    "policy=1/pickle": lambda tmp_path: one_run(
        policy=policy(1, transport=PICKLE)
    ),
    "policy=2/shm": lambda tmp_path: one_run(policy=policy(2, transport=SHM)),
    "policy=2/pickle": lambda tmp_path: one_run(
        policy=policy(2, transport=PICKLE)
    ),
    "guard=strict": lambda tmp_path: one_run(
        guard=GuardedEngine(policy="strict")
    ),
    "guard=strict/policy=2": lambda tmp_path: one_run(
        guard=GuardedEngine(policy="strict"), policy=2
    ),
    "chunked": lambda tmp_path: one_chunked(),
    "chunked/checkpoint": lambda tmp_path: one_chunked(
        checkpoint=tmp_path / "mc.ckpt"
    ),
    "chunked/resumed": lambda tmp_path: one_resumed(tmp_path, None),
    "chunked/resumed at policy=2": lambda tmp_path: one_resumed(tmp_path, 2),
}


class TestOneStream:
    """A sample depends only on (base, ranges, distribution, seed, draws,
    block rows): never on the policy, transport, guard or checkpoint."""

    @pytest.mark.parametrize("path", list(ONE_STREAM_PATHS))
    def test_every_path_gives_the_same_bytes(self, path, tmp_path):
        samples = ONE_STREAM_PATHS[path](tmp_path).samples
        assert samples.tobytes() == one_stream_reference().tobytes()

    def test_scalar_response_oracle_agrees(self):
        oracle = one_run(response=ActScenario.total_g)
        np.testing.assert_allclose(
            oracle.samples, one_stream_reference(), rtol=1e-9, atol=0.0
        )


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
            # The cause is reported by run chunk, not by wave shard.
            assert partial.partial.causes() == {1: "worker-death"}
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

    def test_degraded_run_reports_run_chunks_and_every_wave(self, tmp_path):
        # Checkpointed at two workers: waves of chunks {0, 1}, {2, 3}, ...
        # Chunk 0 dies once and recovers on its retry; chunk 3, in the
        # second wave, dies on both attempts and is quarantined.
        degrade = policy(
            2, failure_policy=DEGRADE, max_retries=1, backoff_seconds=0.0
        )
        plan = ProcessFaultPlan.create(
            tmp_path / "faults",
            [
                ProcessFault("kill", shard=0, times=1),
                ProcessFault("kill", shard=3, times=2),
            ],
        )
        context = RunContext.create(describe_git=False)
        with warnings.catch_warnings(), use_context(context):
            warnings.simplefilter("ignore", RobustnessWarning)
            result = run_monte_carlo_chunked(
                BASE,
                draws=DRAWS,
                seed=SEED,
                chunk_rows=CHUNK,
                checkpoint=tmp_path / "mc.ckpt",
                policy=degrade,
                fault_plan=plan,
            )
        assert plan.remaining(0) == 0 and plan.remaining(1) == 0
        assert result.partial.quarantined == (3,)
        assert result.partial.ranges == ((3 * CHUNK, 4 * CHUNK),)
        assert result.partial.causes() == {3: "worker-death"}
        # The recovered first wave's retry and respawn count too.
        assert result.partial.retries == 2
        assert result.partial.respawns == 3
        quarantine_events = context.sink.of_type("shard_quarantined")
        assert [event["shard"] for event in quarantine_events] == [3]
        shard_ids = [
            event["attributes"]["shard"]
            for event in context.sink.of_type("span_start")
            if event["name"] == "parallel.shard"
        ]
        # Every chunk but the quarantined one reports under its run number.
        assert sorted(shard_ids) == [
            chunk for chunk in range(-(-DRAWS // CHUNK)) if chunk != 3
        ]

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


class TestSingleStreamCheckpoints:
    #: The checkpoint fingerprint the single-stream driver (every draw
    #: sampled from ``default_rng(seed)`` up front, ``policy=None``) wrote
    #: for this run (seed 3, 1000 draws, 128-row chunks, no guard).
    SINGLE_STREAM_FINGERPRINT = (
        "e4ecb19b0b2be54fd5b4c9e6f3dca59ba46a00ffd9f0ebbd3700e4831b0d46b5"
    )

    @pytest.mark.parametrize("workers", [None, 1])
    def test_single_stream_checkpoint_is_refused(self, tmp_path, workers):
        path = tmp_path / "mc.ckpt"
        store = DurableChunkStore(
            path, kind="montecarlo", fingerprint=self.SINGLE_STREAM_FINGERPRINT
        )
        meta = {
            "version": CHECKPOINT_VERSION,
            "kind": "montecarlo",
            "fingerprint": self.SINGLE_STREAM_FINGERPRINT,
            "completed": 0,
            "total": DRAWS,
            "quarantined": [],
        }
        store.create(meta)
        store.append(0, CHUNK, {"samples": np.zeros(CHUNK)})
        store.commit(dict(meta, completed=CHUNK))
        store.close()
        with pytest.raises(CheckpointError) as excinfo:
            run_monte_carlo_chunked(
                BASE,
                draws=DRAWS,
                seed=SEED,
                chunk_rows=CHUNK,
                checkpoint=path,
                resume=True,
                policy=workers,
            )
        assert excinfo.value.reason == "mismatch"


class TestWholeRunMasking:
    """The guard's all-masked rule judges a run once, not each chunk."""

    @staticmethod
    def draws(workers, chunk_rows):
        return 2 * chunk_rows + 1 if workers > 1 else chunk_rows + 1

    @classmethod
    def masked_yields(cls, seed, workers, chunk_rows, low=0.9, cancel=None):
        # Yields above 1 are outside the domain: the skip guard masks
        # them, and a one-row last chunk is often masked whole.  A cancel
        # token (never fired) keeps a parallel run in waves of `workers`
        # chunks, so that last chunk is a wave of its own.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RobustnessWarning)
            return run_monte_carlo_chunked(
                BASE,
                ["fab_yield"],
                draws=cls.draws(workers, chunk_rows),
                seed=seed,
                chunk_rows=chunk_rows,
                ranges={"fab_yield": (low, 1.3)},
                guard=GuardedEngine(policy="skip"),
                policy=workers,
                cancel=cancel,
            )

    @pytest.mark.parametrize("waves", [False, True])
    @pytest.mark.parametrize(
        "workers, chunk_rows, seeds",
        [(1, 4096, range(20)), (2, 2048, range(10))],
    )
    def test_a_fully_masked_chunk_is_dropped(
        self, workers, chunk_rows, seeds, waves
    ):
        for seed in seeds:
            result = self.masked_yields(
                seed,
                workers,
                chunk_rows,
                cancel=CancelToken() if waves else None,
            )
            assert 0 < result.samples.size < chunk_rows
            assert np.isfinite(result.samples).all()

    def test_a_fully_masked_chunk_warns(self):
        # Seed 0's one-row last chunk is masked whole (see above).
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RobustnessWarning)
            run_monte_carlo_chunked(
                BASE,
                ["fab_yield"],
                draws=4097,
                seed=0,
                chunk_rows=4096,
                ranges={"fab_yield": (0.9, 1.3)},
                guard=GuardedEngine(policy="skip"),
                policy=1,
            )
        assert any(
            "masked every row of draws [4096, 4097)" in str(warning.message)
            for warning in caught
        )

    def test_a_fully_overflowed_chunk_is_dropped(self):
        # Uniform energies over (1e305, 1e307) overflow Eq. 2 in ~95% of
        # rows: the one-row last chunk overflows whole in most seeds.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RobustnessWarning)
            for seed in range(5):
                result = run_monte_carlo_chunked(
                    BASE,
                    ["energy_kwh"],
                    draws=4097,
                    seed=seed,
                    distribution="uniform",
                    chunk_rows=4096,
                    ranges={"energy_kwh": (1e305, 1e307)},
                    guard=GuardedEngine(policy="skip", ranges=None),
                    policy=1,
                )
                assert 0 < result.samples.size < 4096

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_run_with_no_survivor_still_raises(self, workers):
        with pytest.raises(ValidationError, match="masked every row") as info:
            self.masked_yields(0, workers, 512, low=1.1, cancel=CancelToken())
        # The error carries every chunk's diagnostics, by run row.
        flagged = {
            index
            for diagnostic in info.value.diagnostics
            if diagnostic.column == "fab_yield"
            for index in diagnostic.indices
        }
        assert flagged == set(range(self.draws(workers, 512)))
        with pytest.raises(ValidationError, match="masked every row"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RobustnessWarning)
                run_monte_carlo(
                    BASE,
                    ["fab_yield"],
                    draws=300,
                    ranges={"fab_yield": (1.1, 1.3)},
                    guard=GuardedEngine(policy="skip"),
                    policy=workers,
                )


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

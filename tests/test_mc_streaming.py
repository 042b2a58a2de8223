"""The one Monte Carlo draw stream and the one driver that streams it.

:func:`run_monte_carlo_chunked` samples each chunk from its own
``SeedSequence(seed).spawn(n)[i]`` child when the chunk is evaluated
(through :class:`~repro.analysis.montecarlo.ShardColumnSource`) instead
of sampling every draw up front, and ``run_monte_carlo`` is that driver
without a checkpoint.  These tests pin that every path is the same run:
byte-identical samples against the serial up-front reference for any
policy, guard, checkpoint or resume (the conformance matrix),
resumes that converge bit-identically and never re-sample committed
chunks, fingerprints (and so checkpoints) unchanged from the up-front
driver, old single-stream checkpoints refused, strict-guard rejections
that name rows of the run, sampling ranges checked against the parameter
domain before any draw, and a sampling footprint bounded by the chunk,
not the run.
"""

import dataclasses
import functools
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.analysis import montecarlo as mc_module
from repro.analysis.montecarlo import (
    STREAM_KEY_PREFIX,
    ShardColumnSource,
    resolve_parameter_ranges,
    run_monte_carlo,
    sample_parameter_columns,
    sample_shard_columns,
)
from repro.analysis.scenario import ActScenario
from repro.core.errors import (
    CheckpointError,
    DivergenceError,
    ParameterError,
    RunInterrupted,
    ValidationError,
)
from repro.engine import cache as cache_module
from repro.engine.batch import ScenarioBatch
from repro.engine.cache import DEFAULT_CACHE, EvaluationCache
from repro.engine.kernels import evaluate_batch
from repro.obs.context import RunContext, use_context
from repro.parallel import DEFAULT_SHARD_ROWS, DEGRADE, ExecutionPolicy
from repro.parallel.policy import shard_plan
from repro.robustness.checkpoint import (
    CancelToken,
    CountingCancelToken,
    run_monte_carlo_chunked,
)
from repro.robustness.durability import (
    CHECKPOINT_VERSION,
    DurableChunkStore,
    load_store_state,
)
from repro.robustness.faultinject import ProcessFault, ProcessFaultPlan
from repro.robustness import guard as guard_module
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
    "policy=1": lambda tmp_path: one_run(policy=policy(1)),
    "policy=2": lambda tmp_path: one_run(policy=policy(2)),
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
    block rows): never on the policy, guard or checkpoint."""

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


class TestSamplingOrder:
    """The sampling order decides which draws each column gets, so a
    checkpoint binds it; Table 1 order keeps its old fingerprint."""

    #: The fingerprint the driver wrote before the order entry existed,
    #: for ``["energy_kwh", "fab_yield"]`` (Table 1 order), seed 3, 1000
    #: draws, 128-row chunks, no guard.
    TABLE_ORDER_FINGERPRINT = (
        "dcb9dc905c15c15d1b57bd7854fe7614cd252d15137666dfddf78ae4a9938efd"
    )

    @staticmethod
    def run(parameters, **kwargs):
        return run_monte_carlo_chunked(
            BASE,
            parameters,
            draws=DRAWS,
            seed=SEED,
            chunk_rows=CHUNK,
            policy=1,
            **kwargs,
        )

    def test_table_order_keeps_its_fingerprint(self, tmp_path):
        path = tmp_path / "mc.ckpt"
        self.run(["energy_kwh", "fab_yield"], checkpoint=path)
        meta = load_store_state(str(path)).meta
        assert meta["fingerprint"] == self.TABLE_ORDER_FINGERPRINT

    def test_reordered_parameters_do_not_resume(self, tmp_path):
        path = tmp_path / "mc.ckpt"
        with pytest.raises(RunInterrupted) as excinfo:
            self.run(
                ["fab_yield", "energy_kwh"],
                checkpoint=path,
                cancel=CountingCancelToken(4),
            )
        assert excinfo.value.completed == 4 * CHUNK
        with pytest.raises(CheckpointError) as refused:
            self.run(["energy_kwh", "fab_yield"], checkpoint=path, resume=True)
        assert refused.value.reason == "mismatch"
        # The same order resumes into the uninterrupted run.
        resumed = self.run(
            ["fab_yield", "energy_kwh"], checkpoint=path, resume=True
        )
        uninterrupted = self.run(["fab_yield", "energy_kwh"])
        assert resumed.samples.tobytes() == uninterrupted.samples.tobytes()


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


class TestStrictRows:
    """A strict guard's rejection names rows of the run, not of the chunk
    or shard that raised it."""

    @pytest.mark.parametrize(
        "policy, waves, seed, row",
        [
            (None, False, 19, 131),
            (1, False, 19, 131),
            (ExecutionPolicy(workers=2, shard_rows=100), False, 19, 131),
            # Waves of two chunks: the bad draw sits in the second wave.
            (ExecutionPolicy(workers=2, shard_rows=100), True, 89, 329),
            (1, True, 89, 329),
        ],
        ids=["serial", "policy=1", "workers=2", "workers=2/waves", "waves"],
    )
    def test_diagnostics_name_the_run_row(self, policy, waves, seed, row):
        with pytest.raises(ValidationError) as info:
            run_monte_carlo_chunked(
                BASE,
                ["energy_kwh"],
                draws=400,
                seed=seed,
                chunk_rows=100,
                ranges={"energy_kwh": (1.0, 40.3)},
                guard=GuardedEngine(),
                policy=policy,
                cancel=CancelToken() if waves else None,
            )
        (diagnostic,) = info.value.diagnostics
        assert (diagnostic.column, diagnostic.indices) == ("energy_kwh", (row,))
        assert f"at [{row}]" in str(info.value)
        column = sample_parameter_columns(
            BASE,
            ["energy_kwh"],
            draws=400,
            seed=seed,
            ranges={"energy_kwh": (1.0, 40.3)},
            shard_rows=100,
        )["energy_kwh"]
        assert diagnostic.values == (column[row],)

    @pytest.mark.parametrize(
        "policy", [1, ExecutionPolicy(workers=2, shard_rows=100)],
        ids=["policy=1", "workers=2"],
    )
    def test_divergence_names_the_run_row(self, policy, monkeypatch):
        # The guard's kernel pass over the second chunk returns inf at its
        # row 5; the scalar reference disagrees, so the cross-check raises
        # a DivergenceError, which must name run row 105.  The tampered
        # pass is patched in before the pool forks, so workers run it.
        key = ShardColumnSource.create(
            BASE, draws=400, seed=1, shard_rows=100
        ).identity_key(100, 200)
        real = guard_module.evaluate_cached

        def tampered(batch, cache=None):
            result = real(batch, cache)
            if batch.identity_key != key:
                return result
            total_g = result.total_g.copy()
            total_g[5] = np.inf
            return dataclasses.replace(result, total_g=total_g)

        monkeypatch.setattr(guard_module, "evaluate_cached", tampered)
        with pytest.raises(DivergenceError) as info:
            run_monte_carlo_chunked(
                BASE,
                draws=400,
                seed=1,
                chunk_rows=100,
                guard=GuardedEngine(),
                policy=policy,
            )
        assert (info.value.series, info.value.indices) == ("total_g", (105,))
        assert "[105]" in str(info.value)


class TestSamplingRanges:
    """A sampling range is checked against the parameter's hard domain
    once, before any draw."""

    @pytest.mark.parametrize(
        "name, bounds",
        [
            ("fab_yield", (0.5, 1.2)),
            ("energy_kwh", (-1.0, 5.0)),
            ("lifetime_hours", (0.0, 87_600.0)),
            ("energy_kwh", (1.0, float("inf"))),
            ("energy_kwh", (float("nan"), 5.0)),
        ],
    )
    @pytest.mark.parametrize("policy", [None, 2])
    def test_out_of_domain_range_is_refused_before_any_draw(
        self, name, bounds, policy, monkeypatch
    ):
        drawn = []
        real = mc_module.sample_shard_columns

        def counting(*args, **kwargs):
            drawn.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(mc_module, "sample_shard_columns", counting)
        with pytest.raises(ParameterError, match=name):
            run_monte_carlo(
                BASE,
                [name],
                draws=500,
                ranges={name: bounds},
                guard=GuardedEngine(ranges=None),
                policy=policy,
            )
        assert drawn == []

    def test_ranges_at_the_domain_edges_are_accepted(self):
        resolved = resolve_parameter_ranges(
            ["fab_yield", "hdd_gb"],
            {"fab_yield": (0.25, 1.0), "hdd_gb": (0.0, 10.0)},
        )
        assert resolved == {"fab_yield": (0.25, 1.0), "hdd_gb": (0.0, 10.0)}


    @pytest.mark.parametrize("distribution", ["uniform", "triangular"])
    def test_zero_width_range_samples_the_constant(self, distribution):
        ranges = {"lifetime_hours": (30_000.0, 30_000.0)}
        columns = sample_parameter_columns(
            BASE,
            ["lifetime_hours", "energy_kwh"],
            draws=16,
            distribution=distribution,
            ranges=ranges,
        )
        assert (columns["lifetime_hours"] == 30_000.0).all()
        assert np.unique(columns["energy_kwh"]).size > 1
        samples = [
            run_monte_carlo(
                BASE,
                ["lifetime_hours", "energy_kwh"],
                draws=16,
                distribution=distribution,
                ranges=ranges,
                policy=ExecutionPolicy(workers=workers, shard_rows=8),
            ).samples.tobytes()
            for workers in (1, 2)
        ]
        assert samples[0] == samples[1]


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


class TestIdentityKey:
    """Chunks are cached under the draw stream's identity key instead of
    a SHA-256 of their columns: the same answers, no hashing, hits on a
    repeated run, and never a hit across configurations."""

    #: Two parameters in 4 chunks.
    PARAMETERS = ["energy_kwh", "fab_yield"]
    CLEAN = {"fab_yield": (0.6, 1.0)}

    @classmethod
    def run(cls, cache=None, guard=None, **overrides):
        kwargs = dict(
            draws=4 * CHUNK,
            seed=SEED,
            chunk_rows=CHUNK,
            ranges=cls.CLEAN,
            cache=cache,
            guard=guard,
            policy=1,
        )
        kwargs.update(overrides)
        base = kwargs.pop("base", BASE)
        parameters = kwargs.pop("parameters", cls.PARAMETERS)
        return run_monte_carlo_chunked(base, parameters, **kwargs)

    GUARDS = {
        "none": lambda: {},
        "strict": lambda: {"guard": GuardedEngine(policy="strict")},
    }

    @pytest.mark.parametrize("guard", list(GUARDS))
    def test_samples_equal_the_content_hash_path(self, guard, monkeypatch):
        hashed = []
        real_batch_key = cache_module.batch_key

        def counting(batch):
            hashed.append(len(batch))
            return real_batch_key(batch)

        monkeypatch.setattr(cache_module, "batch_key", counting)
        keyed = self.run(cache=EvaluationCache(), **self.GUARDS[guard]())
        keyed_hashes = len(hashed)
        # Without identity keys every chunk is keyed by its content.
        monkeypatch.setattr(
            ShardColumnSource, "identity_key", lambda self, start, stop: None
        )
        content = self.run(cache=EvaluationCache(), **self.GUARDS[guard]())
        assert keyed.samples.tobytes() == content.samples.tobytes()
        assert len(hashed) - keyed_hashes == 4
        assert keyed.samples.size == 4 * CHUNK
        assert keyed_hashes == 0

    def test_guarded_parallel_shards_hash_nothing(self, monkeypatch, tmp_path):
        # Workers sample their own shards from seeds, so they receive the
        # shard's identity key with the seed instead of hashing columns.
        # The counting key function is patched in before each pool forks,
        # so the workers log what they hash to a file.
        log = tmp_path / "hashed.log"
        real_batch_key = cache_module.batch_key

        def counting(batch):
            with open(log, "a") as handle:
                handle.write(f"{len(batch)}\n")
            return real_batch_key(batch)

        def run():
            log.write_text("")
            result = run_monte_carlo_chunked(
                BASE,
                draws=2**18,
                seed=2022,
                chunk_rows=65536,
                guard=GuardedEngine(),
                policy=2,
            )
            hashed = [int(line) for line in log.read_text().split()]
            return result.samples, hashed

        monkeypatch.setattr(cache_module, "batch_key", counting)
        keyed, hashed = run()
        assert hashed == []
        monkeypatch.setattr(
            ShardColumnSource, "identity_key", lambda self, start, stop: None
        )
        content, hashed = run()
        assert hashed == [65536] * 4
        assert keyed.tobytes() == content.tobytes()

    @pytest.mark.parametrize("guard", ["none", "strict"])
    def test_a_repeated_run_hits_every_chunk(self, guard):
        cache = EvaluationCache()
        first = self.run(cache=cache, **self.GUARDS[guard]())
        assert (cache.hits, cache.misses) == (0, 4)
        again = self.run(cache=cache, **self.GUARDS[guard]())
        assert (cache.hits, cache.misses) == (4, 4)
        assert again.samples.tobytes() == first.samples.tobytes()

    VARIANTS = {
        "seed": {"seed": SEED + 1},
        "ranges": {"ranges": {"fab_yield": (0.6, 0.99)}},
        "distribution": {"distribution": "uniform"},
        "chunk_rows": {"chunk_rows": CHUNK // 2, "draws": 8 * (CHUNK // 2)},
        "base": {"base": ActScenario(ic_count=BASE.ic_count + 1)},
        "order": {"parameters": PARAMETERS[::-1]},
    }

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_other_configurations_never_hit(self, variant):
        cache = EvaluationCache()
        baseline = self.run(cache=cache)
        cache.reset_stats()
        shared = self.run(cache=cache, **self.VARIANTS[variant])
        assert cache.hits == 0
        alone = self.run(cache=EvaluationCache(), **self.VARIANTS[variant])
        assert shared.samples.tobytes() == alone.samples.tobytes()
        assert shared.samples.tobytes() != baseline.samples.tobytes()

    def test_a_clean_batch_carries_the_key(self):
        source = ShardColumnSource.create(
            BASE, draws=CHUNK, seed=SEED, shard_rows=CHUNK
        )
        key = source.identity_key()
        cache = EvaluationCache()
        guarded = GuardedEngine(cache=cache).evaluate_columns(
            BASE, CHUNK, source.columns(), identity_key=key
        )
        assert guarded.batch.identity_key == key
        assert cache.peek_by_key(key, CHUNK) is guarded.result
        # The key stays in the process that sampled the rows.
        assert pickle.loads(pickle.dumps(guarded.batch)).identity_key is None

    def test_keys_never_look_like_content_digests(self):
        source = ShardColumnSource.create(
            BASE, draws=DRAWS, seed=SEED, shard_rows=CHUNK
        )
        keys = {
            source.identity_key(start, stop)
            for start, stop in [(0, CHUNK), (CHUNK, 2 * CHUNK), (0, DRAWS)]
        }
        assert len(keys) == 3
        for key in keys:
            assert key.startswith(STREAM_KEY_PREFIX)
            assert not re.fullmatch("[0-9a-f]{64}", key)
        batch = ScenarioBatch.from_columns(BASE, CHUNK, source.columns(0, CHUNK))
        assert re.fullmatch("[0-9a-f]{64}", cache_module.batch_key(batch))
        with pytest.raises(ParameterError, match="shard-aligned"):
            source.identity_key(1, CHUNK)


class TestPrivateCache:
    """Fresh draws stay out of the process-wide cache."""

    @pytest.mark.parametrize("guard", [None, "strict"])
    def test_distinct_seeds_leave_the_default_cache_unchanged(self, guard):
        # The entry count alone cannot move once the cache is full, so
        # every lookup counts too.
        def state():
            return len(DEFAULT_CACHE), DEFAULT_CACHE.hits + DEFAULT_CACHE.misses

        before = state()
        for seed in range(3):
            run_monte_carlo(
                BASE,
                draws=3 * CHUNK,
                seed=seed,
                policy=ExecutionPolicy(workers=1, shard_rows=CHUNK),
                guard=GuardedEngine(policy=guard) if guard else None,
            )
        assert state() == before

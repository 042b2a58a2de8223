"""The parallel execution layer: determinism and integration.

The contract under test is bit-identity: the shard plan and the per-shard
SeedSequence child streams depend only on ``(rows, shard_rows, seed)``,
so ``workers=1`` and ``workers=4`` must produce byte-for-byte identical
Monte Carlo samples, guarded results, and DSE winners — the worker count
only decides *where* a shard runs, never *what* it computes.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.montecarlo import (
    ShardColumnSource,
    resolve_parameter_ranges,
    run_monte_carlo,
    sample_parameter_columns,
    sample_shard_columns,
)
from repro.analysis.scenario import ActScenario
from repro.core.errors import (
    ParameterError,
    RunInterrupted,
    ShardFailedError,
    ValidationError,
    WorkerError,
)
from repro.core.intensity import solar_diurnal_trace
from repro.engine.batch import ScenarioBatch
from repro.engine.kernels import evaluate_batch
from repro.obs.context import RunContext, use_context
from repro.parallel import runner as runner_module
from repro.parallel import (
    DEFAULT_SHARD_ROWS,
    DEGRADE,
    FAIL_FAST,
    RETRY,
    ExecutionPolicy,
    ParallelRunner,
    resolve_policy,
    shard_plan,
)
from repro.robustness.checkpoint import (
    CountingCancelToken,
    run_monte_carlo_chunked,
)
from repro.robustness.guard import STRICT, GuardedEngine
from repro.scheduling.sweep import ScheduleSweepSpec, run_policy_sweep

BASE = ActScenario()

# Draw ranges reaching outside the documented Table 1 ranges: fab_yield
# below 0.5 lies inside its domain (0, 1] but outside [0.5, 1], so the
# strict guard has rows to reject.
DIRTY_RANGES = {"fab_yield": (0.3, 1.0), "energy_kwh": (2.0, 8.0)}
DIRTY_DRAWS = 200


class TestExecutionPolicy:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.workers == 1
        assert policy.shard_rows == DEFAULT_SHARD_ROWS
        assert not policy.parallel

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True, "two"])
    def test_invalid_workers_rejected(self, workers):
        with pytest.raises(ParameterError):
            ExecutionPolicy(workers=workers)

    def test_invalid_shard_rows_rejected(self):
        with pytest.raises(ParameterError):
            ExecutionPolicy(shard_rows=0)

    def test_unknown_transport_rejected(self):
        # Tasks and results are always pickled: a policy has no
        # transport to choose, so naming any is an error.
        for transport in ("shm", "pickle", "carrier-pigeon"):
            with pytest.raises(TypeError, match="transport"):
                ExecutionPolicy(transport=transport)

    def test_six_fields(self):
        # The pool always uses the platform's default start method and
        # its own shutdown timeouts, and a quarantined shard is never
        # re-run in the parent: no policy field selects any of that.
        names = [field.name for field in dataclasses.fields(ExecutionPolicy)]
        assert names == [
            "workers",
            "shard_rows",
            "failure_policy",
            "max_retries",
            "backoff_seconds",
            "shard_deadline_seconds",
        ]
        for removed in (
            "start_method",
            "join_timeout_seconds",
            "term_timeout_seconds",
            "serial_fallback",
        ):
            with pytest.raises(TypeError, match=removed):
                ExecutionPolicy(**{removed: None})

    def test_replace_revalidates(self):
        policy = ExecutionPolicy(workers=2)
        assert policy.replace(shard_rows=128).shard_rows == 128
        with pytest.raises(ParameterError):
            policy.replace(workers=0)

    def test_resolve_policy_forms(self):
        assert resolve_policy(None) is None
        assert resolve_policy(3) == ExecutionPolicy(workers=3)
        policy = ExecutionPolicy(workers=2, shard_rows=64)
        assert resolve_policy(policy) is policy
        with pytest.raises(ParameterError):
            resolve_policy("four")
        with pytest.raises(ParameterError):
            resolve_policy(0)

class TestShardPlan:
    def test_covers_rows_contiguously(self):
        plan = shard_plan(10, 4)
        assert plan == ((0, 4), (4, 8), (8, 10))

    def test_single_shard_when_rows_fit(self):
        assert shard_plan(5, 100) == ((0, 5),)

    def test_pure_function_of_rows_and_shard_rows(self):
        assert shard_plan(1000, 128) == shard_plan(1000, 128)

    def test_rejects_empty_and_bad_sizes(self):
        with pytest.raises(ParameterError):
            shard_plan(0, 4)
        with pytest.raises(ParameterError):
            shard_plan(10, 0)


#: A base scenario marking the shards the failing evaluator below fails.
FAILING_BASE = ActScenario(energy_kwh=13.0)


class _Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.handle = lambda: None  # lambdas cannot pickle


def _failing_evaluator(real, error_type):
    """``_evaluate_shard`` failing shard 1 of any run over FAILING_BASE."""

    def evaluate(task, count):
        if task["base"] == FAILING_BASE and task["shard"] == 1:
            raise error_type(f"boom in shard {task['shard']}")
        return real(task, count)

    return evaluate


class TestRunnerTransport:
    """What the workers hand back, through the one supervised loop.

    The failing evaluator is patched into the runner module before the
    pool forks, so the workers run it.
    """

    SOURCE = ShardColumnSource.create(BASE, draws=300, seed=5, shard_rows=100)

    @staticmethod
    def _fail(monkeypatch, error_type, policy=None):
        monkeypatch.setattr(
            runner_module,
            "_evaluate_shard",
            _failing_evaluator(runner_module._evaluate_shard, error_type),
        )
        runner = ParallelRunner(
            policy or ExecutionPolicy(workers=2, shard_rows=100)
        )
        source = ShardColumnSource.create(
            FAILING_BASE, draws=300, seed=5, shard_rows=100
        )
        return runner, source

    def test_shards_merge_in_shard_order(self):
        with ParallelRunner(ExecutionPolicy(workers=2, shard_rows=100)) as runner:
            evaluation = runner.evaluate_source(self.SOURCE)
        assert [report.shard for report in evaluation.shards] == [0, 1, 2]
        assert [(r.start, r.stop) for r in evaluation.shards] == [
            (0, 100),
            (100, 200),
            (200, 300),
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_picklable_exception_is_the_cause(self, monkeypatch, workers):
        # fail_fast is a zero retry budget: the first infrastructure
        # failure raises ShardFailedError, chained to the worker's error.
        runner, source = self._fail(
            monkeypatch,
            ValueError,
            ExecutionPolicy(workers=workers, shard_rows=100),
        )
        with runner, pytest.raises(ShardFailedError) as info:
            runner.evaluate_source(source)
        assert isinstance(info.value, WorkerError)
        assert (info.value.shard, info.value.attempts) == (1, 1)
        assert info.value.cause == "error"
        assert type(info.value.__cause__) is ValueError
        assert "boom in shard 1" in str(info.value.__cause__)

    def test_unpicklable_exception_arrives_as_worker_error(self, monkeypatch):
        runner, source = self._fail(monkeypatch, _Unpicklable)
        with runner, pytest.raises(ShardFailedError) as info:
            runner.evaluate_source(source)
        cause = info.value.__cause__
        assert type(cause) is WorkerError
        assert "_Unpicklable" in str(cause) and "boom" in str(cause)
        assert "Traceback" in cause.original

    def test_runner_survives_a_failed_call(self, monkeypatch):
        runner, source = self._fail(monkeypatch, ValueError)
        with runner:
            with pytest.raises(ShardFailedError):
                runner.evaluate_source(source)
            evaluation = runner.evaluate_source(self.SOURCE)
        reference = evaluate_batch(
            ScenarioBatch.from_columns(BASE, 300, self.SOURCE.columns())
        )
        assert (
            evaluation.full_series("total_g").tobytes()
            == reference.total_g.tobytes()
        )


class TestShardedSampling:
    def test_matches_serial_shard_ordered_reference(self):
        """The pinned reference: spawn one child stream per shard, sample
        each shard serially in shard order, concatenate."""
        resolved = resolve_parameter_ranges(None, None)
        plan = shard_plan(1000, 256)
        seeds = np.random.SeedSequence(2022).spawn(len(plan))
        reference = {
            name: np.concatenate(
                [
                    sample_shard_columns(
                        BASE, resolved, stop - start, seeds[index]
                    )[name]
                    for index, (start, stop) in enumerate(plan)
                ]
            )
            for name in resolved
        }
        sharded = sample_parameter_columns(
            BASE, draws=1000, seed=2022, shard_rows=256
        )
        assert set(sharded) == set(reference)
        for name in reference:
            np.testing.assert_array_equal(sharded[name], reference[name])

    def test_shard_rows_is_part_of_the_stream_contract(self):
        a = sample_parameter_columns(
            BASE, draws=512, seed=1, shard_rows=128
        )
        b = sample_parameter_columns(
            BASE, draws=512, seed=1, shard_rows=256
        )
        assert not np.array_equal(a["energy_kwh"], b["energy_kwh"])


class TestMonteCarloDeterminism:
    def test_bit_identical_across_worker_counts(self):
        results = [
            run_monte_carlo(
                BASE,
                draws=600,
                seed=11,
                policy=ExecutionPolicy(workers=workers, shard_rows=128),
            )
            for workers in (1, 2, 4)
        ]
        for other in results[1:]:
            np.testing.assert_array_equal(
                results[0].samples, other.samples
            )

    def test_workers_1_runs_in_process_same_stream(self):
        serial = run_monte_carlo(
            BASE,
            draws=300,
            seed=3,
            policy=ExecutionPolicy(workers=1, shard_rows=100),
        )
        sharded = sample_parameter_columns(
            BASE, draws=300, seed=3, shard_rows=100
        )
        batch = ScenarioBatch.from_columns(BASE, 300, sharded)
        np.testing.assert_array_equal(
            serial.samples, evaluate_batch(batch).total_g
        )

    def test_shards_return_total_g_only(self):
        """The driver keeps one series, so workers ship back only that
        one, not all ten Eq. 1-8 series."""
        source = ShardColumnSource.create(
            BASE, draws=300, seed=5, shard_rows=100
        )
        with ParallelRunner(ExecutionPolicy(workers=2, shard_rows=100)) as runner:
            evaluation = runner.evaluate_source(source)
        assert tuple(evaluation.series) == ("total_g",)
        reference = evaluate_batch(
            ScenarioBatch.from_columns(BASE, 300, source.columns())
        )
        assert (
            evaluation.full_series("total_g").tobytes()
            == reference.total_g.tobytes()
        )


class TestWorkersConformance:
    """The conformance matrix's "workers 1 vs 2" row, through public entry
    points: the in-process run and a two-worker pool agree byte for byte
    under every failure policy, with and without a strict guard."""

    #: Four 65,536-row chunks: the default block size, so policy=None
    #: and a default-shard policy sample the same stream.
    DRAWS = 4 * DEFAULT_SHARD_ROWS

    @pytest.fixture(scope="class")
    def serial(self):
        return {
            guarded: run_monte_carlo(
                BASE,
                draws=self.DRAWS,
                seed=3,
                guard=GuardedEngine() if guarded else None,
            ).samples.tobytes()
            for guarded in (False, True)
        }

    @pytest.mark.parametrize("guarded", [False, True], ids=["off", "strict"])
    @pytest.mark.parametrize("failure_policy", [FAIL_FAST, RETRY, DEGRADE])
    def test_monte_carlo(self, serial, failure_policy, guarded):
        result = run_monte_carlo(
            BASE,
            draws=self.DRAWS,
            seed=3,
            guard=GuardedEngine() if guarded else None,
            policy=ExecutionPolicy(workers=2, failure_policy=failure_policy),
        )
        assert result.partial is None
        assert result.samples.tobytes() == serial[guarded]

    def test_policy_sweep(self):
        spec = ScheduleSweepSpec(
            trace=solar_diurnal_trace(500.0, solar_share_at_noon=0.7),
            windows=60,
            seed=7,
        )
        serial = run_policy_sweep(spec)
        pooled = run_policy_sweep(spec, policy=2, chunk_rows=32)
        assert pooled.pareto_policies == serial.pareto_policies
        assert sorted(pooled.series) == sorted(serial.series)
        for name, values in serial.series.items():
            assert pooled.series[name].tobytes() == values.tobytes(), name


class _NoPool(Exception):
    """Raised by the recording pool stub: no worker process may start."""


class TestPoolSize:
    """A pool never outgrows the shards of the call that starts it."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        sizes = []

        def recording_pool(workers, **options):
            sizes.append(workers)
            raise _NoPool

        monkeypatch.setattr(runner_module, "WorkerPool", recording_pool)
        return sizes

    def test_a_later_call_with_more_shards_grows_the_pool(self):
        source = ShardColumnSource.create(
            BASE, draws=300, seed=5, shard_rows=100
        )
        policy = ExecutionPolicy(workers=3, shard_rows=100)
        with ParallelRunner(policy) as runner:
            first = runner.evaluate_source(source, 0, 100)
            assert runner._pool.workers == 1
            whole = runner.evaluate_source(source)
            assert runner._pool.workers == 3
        assert first.full_series("total_g").tobytes() == (
            whole.full_series("total_g")[:100].tobytes()
        )


def _dirty_run(guard, workers):
    """A guarded Monte Carlo run over out-of-domain draw ranges."""
    return run_monte_carlo(
        BASE,
        draws=DIRTY_DRAWS,
        seed=9,
        ranges=DIRTY_RANGES,
        guard=guard,
        policy=ExecutionPolicy(workers=workers, shard_rows=40),
    )


class TestGuardedParallel:
    def test_strict_diagnostics_name_run_rows(self):
        guard = GuardedEngine(policy=STRICT)
        source = ShardColumnSource.create(
            BASE, draws=DIRTY_DRAWS, seed=9, shard_rows=40, ranges=DIRTY_RANGES
        )
        with pytest.raises(ValidationError) as serial:
            guard.evaluate_columns(BASE, DIRTY_DRAWS, source.columns())
        with ParallelRunner(ExecutionPolicy(workers=2, shard_rows=40)) as runner:
            with pytest.raises(ValidationError) as parallel:
                runner.evaluate_source(source, 80, DIRTY_DRAWS, guard=guard)
        # The parallel run stops at one rejected shard of rows [80, 200);
        # its findings are that shard's slice of the serial findings, by
        # row of the run.
        serial_rows = {
            (d.column, d.reason): dict(zip(d.indices, d.values))
            for d in serial.value.diagnostics
        }
        (diag,) = parallel.value.diagnostics
        rows = dict(zip(diag.indices, diag.values))
        assert rows and rows.items() <= serial_rows[diag.column, diag.reason].items()
        assert len({index // 40 for index in rows}) == 1
        assert min(rows) >= 80
        assert str(diag) in str(parallel.value)

    def test_strict_matches_serial(self):
        guard = GuardedEngine(policy=STRICT)
        clean = {"fab_yield": (0.6, 1.0), "energy_kwh": (2.0, 8.0)}
        runs = [
            run_monte_carlo(
                BASE,
                draws=DIRTY_DRAWS,
                seed=9,
                ranges=clean,
                guard=guard,
                policy=ExecutionPolicy(workers=workers, shard_rows=40),
            )
            for workers in (1, 2)
        ]
        assert len(runs[1].samples) == DIRTY_DRAWS
        assert runs[0].samples.tobytes() == runs[1].samples.tobytes()

    def test_strict_validation_error_crosses_process_boundary(self):
        with pytest.raises(ValidationError):
            _dirty_run(GuardedEngine(policy=STRICT), workers=2)


class TestCheckpointUnderParallelism:
    def test_interrupted_parallel_run_resumes_bit_identical(self, tmp_path):
        path = tmp_path / "mc.npz"
        policy = ExecutionPolicy(workers=2, shard_rows=64)
        uninterrupted = run_monte_carlo_chunked(
            BASE, draws=600, seed=4, chunk_rows=64, policy=policy
        )
        with pytest.raises(RunInterrupted) as excinfo:
            run_monte_carlo_chunked(
                BASE,
                draws=600,
                seed=4,
                chunk_rows=64,
                checkpoint=path,
                cancel=CountingCancelToken(2),
                policy=policy,
            )
        completed = excinfo.value.completed
        assert 0 < completed < 600
        assert completed % 64 == 0  # whole chunks only
        resumed = run_monte_carlo_chunked(
            BASE,
            draws=600,
            seed=4,
            chunk_rows=64,
            checkpoint=path,
            resume=True,
            policy=policy,
        )
        np.testing.assert_array_equal(
            uninterrupted.samples, resumed.samples
        )

    def test_checkpoint_resumes_at_a_different_worker_count(self, tmp_path):
        path = tmp_path / "mc.npz"
        with pytest.raises(RunInterrupted):
            run_monte_carlo_chunked(
                BASE,
                draws=600,
                seed=4,
                chunk_rows=64,
                checkpoint=path,
                cancel=CountingCancelToken(2),
                policy=ExecutionPolicy(workers=4, shard_rows=64),
            )
        resumed = run_monte_carlo_chunked(
            BASE,
            draws=600,
            seed=4,
            chunk_rows=64,
            checkpoint=path,
            resume=True,
            policy=ExecutionPolicy(workers=1),
        )
        reference = run_monte_carlo_chunked(
            BASE, draws=600, seed=4, chunk_rows=64, policy=1
        )
        np.testing.assert_array_equal(reference.samples, resumed.samples)

class TestObservabilityMerging:
    def test_shard_spans_and_counters_reach_parent_context(self):
        context = RunContext.create(describe_git=False)
        with use_context(context):
            run_monte_carlo(
                BASE,
                draws=400,
                seed=2,
                policy=ExecutionPolicy(workers=2, shard_rows=100),
            )
        starts = context.sink.of_type("span_start")
        names = [event["name"] for event in starts]
        assert "parallel.evaluate" in names
        assert names.count("parallel.shard") == 4
        rendered = context.metrics.render()
        assert "parallel.shards" in rendered
        shard_ids = {
            event["attributes"]["shard"]
            for event in starts
            if event["name"] == "parallel.shard"
        }
        assert shard_ids == {0, 1, 2, 3}

    def test_worker_row_counts_cover_all_rows(self):
        context = RunContext.create(describe_git=False)
        with use_context(context):
            run_monte_carlo(
                BASE,
                draws=500,
                seed=2,
                policy=ExecutionPolicy(workers=2, shard_rows=125),
            )
        rendered = context.metrics.render()
        assert "parallel.worker" in rendered


class TestRunnerLifecycle:
    def test_runner_reusable_after_close(self):
        source = ShardColumnSource.create(
            BASE, draws=300, seed=6, shard_rows=100
        )
        runner = ParallelRunner(ExecutionPolicy(workers=2, shard_rows=100))
        first = runner.evaluate_source(source)
        runner.close()
        second = runner.evaluate_source(source)
        runner.close()
        assert (
            first.full_series("total_g").tobytes()
            == second.full_series("total_g").tobytes()
        )

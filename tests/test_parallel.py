"""The parallel execution layer: determinism, transport, and integration.

The contract under test is bit-identity: the shard plan and the per-shard
SeedSequence child streams depend only on ``(rows, shard_rows, seed)``,
so ``workers=1`` and ``workers=4`` must produce byte-for-byte identical
Monte Carlo samples, sweep records, and DSE winners — the worker count
only decides *where* a shard runs, never *what* it computes.
"""

import os
import warnings

import numpy as np
import pytest

from repro.analysis.montecarlo import (
    resolve_parameter_ranges,
    run_monte_carlo,
    sample_parameter_columns,
    sample_shard_columns,
)
from repro.analysis.scenario import ActScenario
from repro.core.errors import (
    ParameterError,
    RunInterrupted,
    ValidationError,
    WorkerError,
)
from repro.core.metrics import DesignPoint
from repro.dse.optimizer import explore_batched
from repro.dse.pareto import pareto_mask
from repro.dse.sweep import GuardedSweepResult, sweep_grid_batched
from repro.engine.batch import ScenarioBatch
from repro.engine.kernels import evaluate_batch
from repro.obs.context import RunContext, use_context
from repro.parallel import (
    DEFAULT_SHARD_ROWS,
    PICKLE,
    SHM,
    ExecutionPolicy,
    ParallelRunner,
    SharedArrayStore,
    WorkerPool,
    current_policy,
    resolve_policy,
    shard_plan,
    use_execution_policy,
)
from repro.robustness.checkpoint import (
    CountingCancelToken,
    run_monte_carlo_chunked,
    sweep_grid_batched_chunked,
)
from repro.robustness.guard import REPAIR, SKIP, STRICT, GuardedEngine
from repro.robustness.guard import RobustnessWarning

BASE = ActScenario()

# In-range grids (the guard validates against the Table 1 ranges).
CLEAN_GRIDS = {
    "fab_yield": (0.6, 0.875, 0.95),
    "energy_kwh": tuple(np.linspace(2.0, 8.0, 20)),
    "soc_area_cm2": (0.5, 1.0, 1.5),
}
DIRTY_GRIDS = {
    "fab_yield": (0.6, 0.875, 2.0),  # 2.0 violates (0, 1]
    "energy_kwh": tuple(np.linspace(2.0, 8.0, 20)),
    "soc_area_cm2": (0.5, 1.0, 1.5),
}


class TestExecutionPolicy:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.workers == 1
        assert policy.shard_rows == DEFAULT_SHARD_ROWS
        assert policy.transport == SHM
        assert not policy.parallel

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True, "two"])
    def test_invalid_workers_rejected(self, workers):
        with pytest.raises(ParameterError):
            ExecutionPolicy(workers=workers)

    def test_invalid_shard_rows_rejected(self):
        with pytest.raises(ParameterError):
            ExecutionPolicy(shard_rows=0)

    def test_unknown_transport_rejected(self):
        with pytest.raises(ParameterError):
            ExecutionPolicy(transport="carrier-pigeon")

    def test_unavailable_start_method_rejected(self):
        with pytest.raises(ParameterError):
            ExecutionPolicy(start_method="teleport")

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

    def test_use_execution_policy_nests_and_shadows(self):
        outer = ExecutionPolicy(workers=2)
        assert current_policy() is None
        with use_execution_policy(outer):
            assert current_policy() is outer
            assert resolve_policy(None) is outer
            with use_execution_policy(None):
                assert resolve_policy(None) is None
            assert current_policy() is outer
        assert current_policy() is None


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


class TestSharedArrayStore:
    def test_roundtrip_through_handle(self):
        data = {
            "a": np.arange(12, dtype=np.float64),
            "b": np.linspace(0, 1, 7),
        }
        with SharedArrayStore.create(data) as store:
            attached = SharedArrayStore.attach(store.handle())
            try:
                assert attached.names() == ("a", "b")
                np.testing.assert_array_equal(attached.array("a"), data["a"])
                np.testing.assert_array_equal(attached.array("b"), data["b"])
            finally:
                attached.close()

    def test_zeros_and_write_visibility(self):
        with SharedArrayStore.zeros({"out": (5,)}) as store:
            attached = SharedArrayStore.attach(store.handle())
            try:
                attached.array("out")[:] = 7.0
            finally:
                attached.close()
            np.testing.assert_array_equal(store.array("out"), np.full(5, 7.0))

    def test_unknown_array_rejected(self):
        with SharedArrayStore.zeros({"x": (3,)}) as store:
            with pytest.raises(ParameterError, match="unknown shared array"):
                store.array("y")

    def test_closed_store_rejects_access(self):
        store = SharedArrayStore.zeros({"x": (3,)})
        store.unlink()
        with pytest.raises(ParameterError, match="closed"):
            store.array("x")

    def test_empty_and_negative_shapes_rejected(self):
        with pytest.raises(ParameterError):
            SharedArrayStore.zeros({})
        with pytest.raises(ParameterError):
            SharedArrayStore.zeros({"x": (-1,)})


def _square(value):
    return value * value


def _fail_picklable(value):
    raise ValueError(f"boom {value}")


class _Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.handle = lambda: None  # lambdas cannot pickle


def _fail_unpicklable(value):
    raise _Unpicklable(f"opaque {value}")


class TestWorkerPool:
    def test_results_return_in_payload_order(self):
        with WorkerPool(workers=2) as pool:
            results = pool.run(_square, list(range(8)))
        assert [value for _, value in results] == [n * n for n in range(8)]

    def test_picklable_exception_reraised_with_type(self):
        with WorkerPool(workers=2) as pool:
            with pytest.raises(ValueError, match="boom"):
                pool.run(_fail_picklable, [1, 2, 3])

    def test_unpicklable_exception_becomes_worker_error(self):
        with WorkerPool(workers=2) as pool:
            with pytest.raises(WorkerError, match="opaque"):
                pool.run(_fail_unpicklable, [5])

    def test_pool_survives_a_failed_batch(self):
        with WorkerPool(workers=2) as pool:
            with pytest.raises(ValueError):
                pool.run(_fail_picklable, [1])
            results = pool.run(_square, [3, 4])
        assert [value for _, value in results] == [9, 16]


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


@pytest.mark.parametrize("transport", [SHM, PICKLE])
class TestMonteCarloDeterminism:
    def test_bit_identical_across_worker_counts(self, transport):
        results = [
            run_monte_carlo(
                BASE,
                draws=600,
                seed=11,
                policy=ExecutionPolicy(
                    workers=workers, shard_rows=128, transport=transport
                ),
            )
            for workers in (1, 2, 4)
        ]
        for other in results[1:]:
            np.testing.assert_array_equal(
                results[0].samples, other.samples
            )

    def test_workers_1_runs_in_process_same_stream(self, transport):
        serial = run_monte_carlo(
            BASE,
            draws=300,
            seed=3,
            policy=ExecutionPolicy(
                workers=1, shard_rows=100, transport=transport
            ),
        )
        sharded = sample_parameter_columns(
            BASE, draws=300, seed=3, shard_rows=100
        )
        batch = ScenarioBatch.from_columns(BASE, 300, sharded)
        np.testing.assert_array_equal(
            serial.samples, evaluate_batch(batch).total_g
        )


class TestSweepDeterminism:
    def test_parallel_sweep_bit_identical_to_serial(self):
        serial = sweep_grid_batched(BASE, CLEAN_GRIDS)
        for policy in (
            ExecutionPolicy(workers=2, shard_rows=50),
            ExecutionPolicy(workers=4, shard_rows=17, transport=PICKLE),
        ):
            parallel = sweep_grid_batched(BASE, CLEAN_GRIDS, policy=policy)
            np.testing.assert_array_equal(
                serial.result.total_g, parallel.result.total_g
            )
            np.testing.assert_array_equal(
                serial.batch.column("energy_kwh"),
                parallel.batch.column("energy_kwh"),
            )
            assert serial.min_record().params == parallel.min_record().params

    def test_workers_1_policy_stays_on_cached_serial_path(self):
        serial = sweep_grid_batched(BASE, CLEAN_GRIDS)
        via_policy = sweep_grid_batched(
            BASE, CLEAN_GRIDS, policy=ExecutionPolicy(workers=1)
        )
        np.testing.assert_array_equal(
            serial.result.total_g, via_policy.result.total_g
        )

    def test_installed_policy_is_picked_up(self):
        serial = sweep_grid_batched(BASE, CLEAN_GRIDS)
        with use_execution_policy(ExecutionPolicy(workers=2, shard_rows=64)):
            ambient = sweep_grid_batched(BASE, CLEAN_GRIDS)
        np.testing.assert_array_equal(
            serial.result.total_g, ambient.result.total_g
        )


class TestDseDeterminism:
    @staticmethod
    def _points(count=60):
        rng = np.random.default_rng(17)
        carbon, energy, delay = rng.uniform(1.0, 100.0, size=(3, count))
        return tuple(
            DesignPoint(
                name=f"d{index}",
                embodied_carbon_g=float(carbon[index]),
                energy_kwh=float(energy[index]),
                delay_s=float(delay[index]),
            )
            for index in range(count)
        )

    def test_pareto_mask_matches_serial(self):
        rng = np.random.default_rng(5)
        objectives = rng.uniform(0.0, 10.0, size=(257, 3))
        serial = pareto_mask(objectives)
        for policy in (
            ExecutionPolicy(workers=2, shard_rows=50),
            ExecutionPolicy(workers=3, shard_rows=64, transport=PICKLE),
        ):
            with ParallelRunner(policy) as runner:
                np.testing.assert_array_equal(
                    serial, runner.pareto_mask(objectives)
                )

    def test_explore_winners_and_front_identical(self):
        points = self._points()
        serial = explore_batched(points)
        parallel = explore_batched(
            points, policy=ExecutionPolicy(workers=2, shard_rows=16)
        )
        assert serial.winners == parallel.winners
        assert [p.name for p in serial.pareto] == [
            p.name for p in parallel.pareto
        ]


class TestGuardedParallel:
    def test_skip_diagnostics_carry_global_indices(self):
        guard = GuardedEngine(policy=SKIP)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            serial = sweep_grid_batched(BASE, DIRTY_GRIDS, guard=guard)
            parallel = sweep_grid_batched(
                BASE,
                DIRTY_GRIDS,
                guard=guard,
                policy=ExecutionPolicy(workers=2, shard_rows=40),
            )
        assert isinstance(parallel, GuardedSweepResult)
        np.testing.assert_array_equal(serial.valid, parallel.valid)
        np.testing.assert_array_equal(
            serial.source_indices, parallel.source_indices
        )
        np.testing.assert_array_equal(
            serial.result.total_g, parallel.result.total_g
        )
        serial_findings = {
            (d.column, d.reason, d.indices, d.values, d.detail)
            for d in serial.diagnostics
        }
        parallel_findings = {
            (d.column, d.reason, d.indices, d.values, d.detail)
            for d in parallel.diagnostics
        }
        assert serial_findings == parallel_findings

    def test_repair_matches_serial(self):
        guard = GuardedEngine(policy=REPAIR)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            serial = sweep_grid_batched(BASE, DIRTY_GRIDS, guard=guard)
            parallel = sweep_grid_batched(
                BASE,
                DIRTY_GRIDS,
                guard=guard,
                policy=ExecutionPolicy(workers=2, shard_rows=40),
            )
        np.testing.assert_array_equal(
            serial.batch.column("fab_yield"), parallel.batch.column("fab_yield")
        )
        np.testing.assert_array_equal(
            serial.result.total_g, parallel.result.total_g
        )

    def test_strict_validation_error_crosses_process_boundary(self):
        guard = GuardedEngine(policy=STRICT)
        with pytest.raises(ValidationError):
            sweep_grid_batched(
                BASE,
                DIRTY_GRIDS,
                guard=guard,
                policy=ExecutionPolicy(workers=2, shard_rows=40),
            )

    def test_warnings_reemitted_in_parent(self):
        guard = GuardedEngine(policy=SKIP)
        with pytest.warns(RobustnessWarning):
            sweep_grid_batched(
                BASE,
                DIRTY_GRIDS,
                guard=guard,
                policy=ExecutionPolicy(workers=2, shard_rows=40),
            )

    def test_globally_masked_batch_raises(self):
        guard = GuardedEngine(policy=SKIP)
        grids = {"energy_kwh": (float("nan"), float("inf"), -1.0, -2.0)}
        with pytest.raises(ValidationError, match="every row"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sweep_grid_batched(
                    BASE,
                    grids,
                    guard=guard,
                    policy=ExecutionPolicy(workers=2, shard_rows=2),
                )


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

    def test_parallel_sweep_checkpoint_is_serial_compatible(self, tmp_path):
        path = tmp_path / "sweep.npz"
        serial = sweep_grid_batched(BASE, CLEAN_GRIDS)
        with pytest.raises(RunInterrupted):
            sweep_grid_batched_chunked(
                BASE,
                CLEAN_GRIDS,
                chunk_rows=30,
                checkpoint=path,
                cancel=CountingCancelToken(2),
                policy=ExecutionPolicy(workers=2),
            )
        # Resume with NO policy: the grid columns (and so the checkpoint
        # fingerprint) are identical on the serial and parallel paths.
        finished = sweep_grid_batched_chunked(
            BASE, CLEAN_GRIDS, chunk_rows=30, checkpoint=path, resume=True
        )
        np.testing.assert_array_equal(
            serial.result.total_g, finished.result.total_g
        )


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
        runner = ParallelRunner(ExecutionPolicy(workers=2, shard_rows=100))
        first = runner.run_monte_carlo(BASE, draws=300, seed=6)
        runner.close()
        second = runner.run_monte_carlo(BASE, draws=300, seed=6)
        runner.close()
        np.testing.assert_array_equal(first.samples(), second.samples())

    def test_no_shared_memory_leak(self):
        shm_dir = "/dev/shm"
        if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
            pytest.skip("no /dev/shm on this platform")
        before = set(os.listdir(shm_dir))
        with ParallelRunner(ExecutionPolicy(workers=2, shard_rows=64)) as runner:
            runner.run_monte_carlo(BASE, draws=500, seed=8)
        leaked = {
            name
            for name in set(os.listdir(shm_dir)) - before
            if name.startswith("psm_")
        }
        assert not leaked

    def test_evaluate_batch_matches_serial_kernels(self):
        batch = ScenarioBatch.from_columns(BASE, 333)
        serial = evaluate_batch(batch)
        with ParallelRunner(ExecutionPolicy(workers=2, shard_rows=100)) as runner:
            parallel = runner.evaluate_batch(batch)
        np.testing.assert_array_equal(
            serial.total_g, parallel.full_series("total_g")
        )

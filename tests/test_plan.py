"""The structure-aware sweep planner: factoring and incremental DSE.

Five contracts are pinned here:

* **Bit-identity** — the planned path (factored per-axis partials,
  combined by broadcast) produces *exactly* the dense batched result —
  ``==`` per element, same dtype — through every integration point
  (one-shot sweeps, parallel sweeps at any worker count, chunked+resumed
  sweeps).
* **Fallback matrix** — ``off`` never plans, ``auto`` skips small grids,
  and guarded sweeps stay dense; error behavior (empty grids, unknown
  parameters, malformed axes) is identical on both paths.
* **Memory discipline** — a planned batch materializes only the swept
  columns; constant columns stay zero-stride broadcast views (the
  satellite regression for no intermediate full-grid copies).
* **Reuse mechanics** — the plan-level content-hash cache hits on
  re-sweeps, and :class:`~repro.dse.optimizer.ExplorationSession`
  reproduces full
  ``explore_batched`` trajectories while recomputing only changed
  metrics.
* **Guard + CLI integration** — ``GuardedEngine.verify_planned`` and
  ``verify_plan`` catch a corrupted planned result with a typed
  :class:`~repro.core.errors.DivergenceError`; ``experiment``'s
  ``--planner`` flag parses, applies, and rejects unknown modes, and the
  subcommands that run no planner do not accept it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.scenario import ActScenario
from repro.core.errors import (
    ConstraintError,
    DivergenceError,
    ParameterError,
    UnknownEntryError,
    ValidationError,
)
from repro.core.metrics import METRICS, DesignPoint
from repro.dse.optimizer import ExplorationSession, explore_batched
from repro.dse.pareto import (
    dominance_counts,
    pareto_mask,
    update_dominance_counts,
)
from repro.dse.sweep import FrozenParams, sweep_grid_batched
from repro.engine import (
    FIELD_NAMES,
    BatchResult,
    EvaluationCache,
    ScenarioBatch,
    evaluate_batch,
)
from repro.engine.batch import product_columns
from repro.engine.plan import (
    AUTO_MIN_ROWS,
    PLANNER_AUTO,
    PLANNER_ENV_VAR,
    PLANNER_MODES,
    PLANNER_OFF,
    PLANNER_ON,
    SERIES_NAMES,
    SweepPlan,
    current_planner_mode,
    evaluate_plan_cached,
    plan_product,
    planner_engaged,
    resolve_planner_mode,
    use_planner,
    verify_plan,
)
from repro.parallel.policy import ExecutionPolicy
from repro.robustness import GuardedEngine, sweep_grid_batched_chunked

BASE = ActScenario()
REPO_ROOT = Path(__file__).resolve().parents[1]

#: A 4-axis separable grid comfortably above the auto threshold.
BIG_GRIDS = {
    "ci_use_g_per_kwh": tuple(np.linspace(50.0, 700.0, 10)),
    "ci_fab_g_per_kwh": tuple(np.linspace(100.0, 900.0, 9)),
    "dram_gb": tuple(np.linspace(4.0, 64.0, 8)),
    "ic_count": tuple(np.arange(1.0, 8.0)),
}

#: A mixed grid: three of the axes feed the same cpa/soc factor chain.
MIXED_GRIDS = {
    "ci_fab_g_per_kwh": tuple(np.linspace(100.0, 900.0, 9)),
    "epa_kwh_per_cm2": tuple(np.linspace(0.5, 3.0, 8)),
    "fab_yield": tuple(np.linspace(0.6, 1.0, 9)),
    "ci_use_g_per_kwh": tuple(np.linspace(50.0, 700.0, 10)),
}


def assert_results_identical(a: BatchResult, b: BatchResult) -> None:
    for name in SERIES_NAMES:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        np.testing.assert_array_equal(left, right, err_msg=name)


class TestPlannerModes:
    def test_default_mode_is_auto(self):
        assert current_planner_mode() == PLANNER_AUTO
        assert resolve_planner_mode(None) == PLANNER_AUTO

    def test_use_planner_nests_and_restores(self):
        with use_planner(PLANNER_OFF):
            assert current_planner_mode() == PLANNER_OFF
            with use_planner(PLANNER_ON):
                assert current_planner_mode() == PLANNER_ON
            assert current_planner_mode() == PLANNER_OFF
        assert current_planner_mode() == PLANNER_AUTO

    def test_use_planner_none_is_transparent(self):
        with use_planner(PLANNER_ON):
            with use_planner(None):
                assert current_planner_mode() == PLANNER_ON

    def test_unknown_mode_rejected(self):
        with pytest.raises(ParameterError) as excinfo:
            resolve_planner_mode("fastest")
        assert "fastest" in str(excinfo.value)
        for mode in PLANNER_MODES:
            assert mode in str(excinfo.value)
        with pytest.raises(ParameterError):
            with use_planner("fastest"):
                pass  # pragma: no cover - must fail at the with statement

    def test_env_var_sets_process_default(self):
        # _ENV_DEFAULT caches at first read, so probe in a subprocess.
        code = (
            "from repro.engine.plan import current_planner_mode;"
            "print(current_planner_mode())"
        )
        env = {
            **os.environ,
            "PYTHONPATH": str(REPO_ROOT / "src"),
            PLANNER_ENV_VAR: "off",
        }
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == PLANNER_OFF

    def test_engagement_matrix(self):
        many, few = AUTO_MIN_ROWS, AUTO_MIN_ROWS - 1
        assert not planner_engaged(PLANNER_OFF, many)
        assert planner_engaged(PLANNER_ON, few)
        assert planner_engaged(PLANNER_AUTO, many)
        assert not planner_engaged(PLANNER_AUTO, few)


class TestPlanConstruction:
    def test_plan_mirrors_dense_grid_shape(self):
        plan = plan_product(BASE, BIG_GRIDS)
        assert plan.names == tuple(BIG_GRIDS)
        assert plan.shape == (10, 9, 8, 7)
        assert plan.size == len(plan) == 5040

    def test_empty_grids_rejected(self):
        with pytest.raises(ParameterError):
            plan_product(BASE, {})

    def test_unknown_parameter_rejected_like_dense(self):
        bad = {"not_a_field": (1.0, 2.0)}
        with pytest.raises(UnknownEntryError):
            plan_product(BASE, bad)
        with pytest.raises(UnknownEntryError):
            ScenarioBatch.from_product(BASE, bad)

    def test_malformed_axes_rejected(self):
        with pytest.raises(ParameterError):
            plan_product(BASE, {"energy_kwh": []})
        with pytest.raises(ParameterError):
            plan_product(BASE, {"energy_kwh": [[1.0, 2.0]]})

    def test_invalid_axis_values_rejected_like_dense(self):
        bad = {"energy_kwh": (1.0, float("nan"))}
        with pytest.raises(ParameterError):
            plan_product(BASE, bad)
        with pytest.raises(ParameterError):
            ScenarioBatch.from_product(BASE, bad)

    def test_gather_rows_range_validated(self):
        plan = plan_product(BASE, {"energy_kwh": (1.0, 2.0, 3.0)})
        factors = plan.partial_series()
        with pytest.raises(ParameterError):
            plan.gather_rows(factors, 2, 5)
        with pytest.raises(ParameterError):
            plan.gather_rows(factors, -1, 2)

    def test_content_key_distinguishes_grids_and_bases(self):
        plan = plan_product(BASE, BIG_GRIDS)
        other_grid = dict(BIG_GRIDS, dram_gb=(4.0, 8.0, 16.0))
        other_base = plan_product(BASE.replace(hdd_gb=500.0), BIG_GRIDS)
        assert plan.content_key != plan_product(BASE, other_grid).content_key
        assert plan.content_key != other_base.content_key
        assert plan.content_key == plan_product(BASE, BIG_GRIDS).content_key


class TestPlannedBitIdentity:
    def test_planned_equals_dense(self):
        dense = sweep_grid_batched(
            BASE, BIG_GRIDS, cache=EvaluationCache(), planner="off"
        )
        planned = sweep_grid_batched(
            BASE, BIG_GRIDS, cache=EvaluationCache(), planner="on"
        )
        assert planned.names == dense.names
        assert_results_identical(dense.result, planned.result)
        for name in FIELD_NAMES:
            np.testing.assert_array_equal(
                dense.batch.column(name), planned.batch.column(name)
            )

    def test_mixed_grid_planned_equals_dense(self):
        dense = sweep_grid_batched(
            BASE, MIXED_GRIDS, cache=EvaluationCache(), planner="off"
        )
        planned = sweep_grid_batched(
            BASE, MIXED_GRIDS, cache=EvaluationCache(), planner="on"
        )
        assert_results_identical(dense.result, planned.result)

    def test_single_axis_degenerate_grid(self):
        grids = {"energy_kwh": tuple(np.linspace(1.0, 20.0, 600))}
        dense = sweep_grid_batched(
            BASE, grids, cache=EvaluationCache(), planner="off"
        )
        planned = sweep_grid_batched(
            BASE, grids, cache=EvaluationCache(), planner="on"
        )
        assert_results_identical(dense.result, planned.result)

    def test_all_singleton_axes_grid(self):
        grids = {"energy_kwh": (5.0,), "dram_gb": (8.0,), "ic_count": (3.0,)}
        dense = sweep_grid_batched(
            BASE, grids, cache=EvaluationCache(), planner="off"
        )
        planned = sweep_grid_batched(
            BASE, grids, cache=EvaluationCache(), planner="on"
        )
        assert_results_identical(dense.result, planned.result)

    def test_auto_engages_above_threshold_only(self):
        # Identity holds either way; this pins that auto == on for big
        # grids and auto == off for small ones via the cache key used
        # (plan-level keys never touch the dense batch hash).
        cache = EvaluationCache()
        small = {"energy_kwh": tuple(np.linspace(1.0, 9.0, 16))}
        sweep_grid_batched(BASE, small, cache=cache)  # auto, 16 rows: dense
        batch = ScenarioBatch.from_product(BASE, small)
        assert cache.peek(batch) is not None

        cache = EvaluationCache()
        sweep_grid_batched(BASE, BIG_GRIDS, cache=cache)  # auto: planned
        plan = plan_product(BASE, BIG_GRIDS)
        assert cache.peek_by_key(plan.content_key, plan.size) is not None

    def test_gathered_chunks_match_full_evaluation(self):
        plan = plan_product(BASE, MIXED_GRIDS)
        factors = plan.partial_series()
        full = plan.evaluate()
        for start, stop in ((0, 7), (100, 612), (plan.size - 3, plan.size)):
            rows = plan.gather_rows(factors, start, stop)
            for name in SERIES_NAMES:
                np.testing.assert_array_equal(
                    rows[name], getattr(full, name)[start:stop], err_msg=name
                )


class TestPlannedBatchViews:
    """Satellite: no intermediate full-grid copies on the planned path."""

    def test_constant_columns_are_zero_stride_views(self):
        plan = plan_product(BASE, BIG_GRIDS)
        batch = plan.batch()
        swept = set(plan.names)
        for name in FIELD_NAMES:
            column = batch.column(name)
            assert column.shape == (plan.size,)
            if name in swept:
                assert column.strides != (0,)
                assert column.flags.c_contiguous
            else:
                # One scalar broadcast out — 8 bytes backing 5040 rows.
                assert column.strides == (0,)
            assert not column.flags.writeable

    def test_view_batch_equals_dense_batch(self):
        plan = plan_product(BASE, BIG_GRIDS)
        dense = ScenarioBatch.from_product(BASE, BIG_GRIDS)
        batch = plan.batch()
        assert len(batch) == len(dense)
        for name in FIELD_NAMES:
            np.testing.assert_array_equal(
                batch.column(name), dense.column(name), err_msg=name
            )

    def test_view_batch_evaluates_like_dense(self):
        plan = plan_product(BASE, MIXED_GRIDS)
        dense = ScenarioBatch.from_product(BASE, MIXED_GRIDS)
        assert_results_identical(
            evaluate_batch(dense), evaluate_batch(plan.batch())
        )

    def test_product_columns_swept_columns_stay_single_copy(self):
        # product_columns builds the Cartesian columns from meshgrid
        # broadcast views; each returned column owns exactly one dense
        # allocation (the final reshape) and nothing else.
        size, columns = product_columns(BASE, BIG_GRIDS)
        assert size == 5040
        for name, column in columns.items():
            assert column.shape == (size,)
            assert column.flags.c_contiguous
            # The backing allocation is the column itself (or smaller —
            # a zero-stride broadcast of one scalar), never a larger
            # intermediate Cartesian copy.
            backing = column
            while backing.base is not None:
                backing = backing.base
            assert backing.nbytes <= column.nbytes


class TestPlanCache:
    def test_repeat_sweep_is_plan_level_cache_hit(self):
        cache = EvaluationCache()
        plan = plan_product(BASE, BIG_GRIDS)
        first = evaluate_plan_cached(plan, cache)
        second = evaluate_plan_cached(plan, cache)
        assert second is first
        stats = cache.stats()
        assert stats.misses == 1 and stats.hits == 1


class TestFallbacks:
    def test_guarded_sweeps_stay_dense_and_identical(self):
        # In-range axes only: the guard validates against Table 1.
        grids = {
            "fab_yield": tuple(np.linspace(0.6, 0.95, 8)),
            "energy_kwh": tuple(np.linspace(2.0, 8.0, 10)),
            "ci_use_g_per_kwh": tuple(np.linspace(50.0, 650.0, 8)),
        }
        guard = GuardedEngine()
        guarded = sweep_grid_batched(BASE, grids, guard=guard)
        dense = sweep_grid_batched(
            BASE, grids, cache=EvaluationCache(), planner="off"
        )
        np.testing.assert_array_equal(
            guarded.result.total_g, dense.result.total_g
        )

    def test_off_mode_uses_dense_batch_cache_key(self):
        cache = EvaluationCache()
        sweep_grid_batched(BASE, BIG_GRIDS, cache=cache, planner="off")
        batch = ScenarioBatch.from_product(BASE, BIG_GRIDS)
        assert cache.peek(batch) is not None
        assert cache.stats().misses == 1


class TestVerifyPlan:
    def test_correct_plan_passes_at_zero_tolerance(self):
        plan = plan_product(BASE, BIG_GRIDS)
        verify_plan(plan, plan.evaluate())

    def test_corrupted_result_raises_divergence(self):
        plan = plan_product(BASE, BIG_GRIDS)
        result = plan.evaluate()
        series = {
            name: np.array(getattr(result, name)) for name in SERIES_NAMES
        }
        series["total_g"][0] *= 1.001
        with pytest.raises(DivergenceError) as excinfo:
            verify_plan(plan, BatchResult(**series))
        assert excinfo.value.series == "total_g"
        assert 0 in excinfo.value.indices

    def test_guarded_engine_verify_planned(self):
        plan = plan_product(BASE, BIG_GRIDS)
        guard = GuardedEngine()
        guard.verify_planned(plan, plan.evaluate())


class TestParallelPlanned:
    @pytest.mark.parametrize("transport", ("shm", "pickle"))
    def test_parallel_planned_matches_dense_any_worker_count(self, transport):
        dense = sweep_grid_batched(
            BASE, BIG_GRIDS, cache=EvaluationCache(), planner="off"
        )
        for workers in (1, 2, 3):
            policy = ExecutionPolicy(
                workers=workers, transport=transport, shard_rows=1024
            )
            swept = sweep_grid_batched(
                BASE, BIG_GRIDS, policy=policy, planner="on"
            )
            assert_results_identical(dense.result, swept.result)

    def test_parallel_auto_small_grid_stays_dense_path(self):
        small = {
            "fab_yield": (0.6, 0.875, 0.95),
            "energy_kwh": tuple(np.linspace(2.0, 8.0, 20)),
        }
        policy = ExecutionPolicy(workers=2, shard_rows=16)
        serial = sweep_grid_batched(
            BASE, small, cache=EvaluationCache(), planner="off"
        )
        swept = sweep_grid_batched(BASE, small, policy=policy)
        assert_results_identical(serial.result, swept.result)


class TestChunkedPlanned:
    def test_chunked_planned_matches_dense(self):
        dense = sweep_grid_batched(
            BASE, BIG_GRIDS, cache=EvaluationCache(), planner="off"
        )
        chunked = sweep_grid_batched_chunked(
            BASE, BIG_GRIDS, chunk_rows=997, planner="on"
        )
        assert_results_identical(dense.result, chunked.result)

    def test_resume_folds_planner_mode_into_the_fingerprint(self, tmp_path):
        # The planner mode is part of a checkpoint's identity: resuming
        # under a different mode refuses with a typed mismatch (the two
        # paths are bit-identical by the planner contract, but identity
        # checks must not rely on that), while the same mode resumes to
        # the bit-identical dense result.
        from repro.core.errors import CheckpointError, RunInterrupted
        from repro.robustness import CancelToken

        class StopAfter(CancelToken):
            def __init__(self, checks):
                self._left = checks

            def should_stop(self):
                self._left -= 1
                return self._left < 0

        path = tmp_path / "sweep.npz"
        dense = sweep_grid_batched_chunked(
            BASE, BIG_GRIDS, chunk_rows=640, planner="off"
        )
        with pytest.raises(RunInterrupted):
            sweep_grid_batched_chunked(
                BASE,
                BIG_GRIDS,
                chunk_rows=640,
                checkpoint=path,
                cancel=StopAfter(3),
                planner="off",
            )
        with pytest.raises(CheckpointError) as excinfo:
            sweep_grid_batched_chunked(
                BASE,
                BIG_GRIDS,
                chunk_rows=640,
                checkpoint=path,
                resume=True,
                planner="on",
            )
        assert excinfo.value.reason == "mismatch"
        resumed = sweep_grid_batched_chunked(
            BASE,
            BIG_GRIDS,
            chunk_rows=640,
            checkpoint=path,
            resume=True,
            planner="off",
        )
        assert_results_identical(dense.result, resumed.result)


class TestFrozenParams:
    def test_numpy_scalars_hash_like_python_floats(self):
        plain = FrozenParams({"energy_kwh": 5.0, "dram_gb": 8.0})
        numpy_typed = FrozenParams(
            {"energy_kwh": np.float64(5.0), "dram_gb": np.float32(8.0)}
        )
        assert plain == numpy_typed
        assert hash(plain) == hash(numpy_typed)

    def test_zero_dim_arrays_are_unwrapped(self):
        wrapped = FrozenParams({"energy_kwh": np.array(5.0)})
        assert wrapped == FrozenParams({"energy_kwh": 5.0})
        assert hash(wrapped) == hash(FrozenParams({"energy_kwh": 5.0}))

    def test_memo_hits_across_value_provenance(self):
        memo = {FrozenParams({"energy_kwh": 5.0, "ic_count": 3.0}): "hit"}
        key = FrozenParams(
            {"energy_kwh": np.float64(5.0), "ic_count": np.int64(3)}
        )
        assert memo.get(key) == "hit"


class TestExplorationSession:
    @staticmethod
    def _points(c, e, d, areas):
        return [
            DesignPoint(
                name=f"p{i}",
                embodied_carbon_g=float(c[i]),
                energy_kwh=float(e[i]),
                delay_s=float(d[i]),
                area_mm2=None if areas[i] is None else float(areas[i]),
            )
            for i in range(len(c))
        ]

    def test_trajectory_identical_to_full_reevaluation(self):
        rng = np.random.default_rng(13)
        n = 48
        c = rng.uniform(10, 100, n)
        e = rng.uniform(1, 9, n)
        d = rng.uniform(0.1, 2.0, n)
        areas = list(rng.uniform(50, 500, n))
        areas[5] = None  # EDAP skip semantics must survive reuse
        session = ExplorationSession()
        for iteration in range(50):
            moved = rng.integers(0, n, 3)
            d = d.copy()
            d[moved] *= 1.0 + rng.uniform(-0.05, 0.05, moved.size)
            if iteration % 9 == 0:
                c = c.copy()
                c[moved] *= 1.02
            points = self._points(c, e, d, areas)
            full = explore_batched(points)
            incremental = session.explore(points)
            assert incremental.scores == full.scores, iteration
            assert incremental.winners == full.winners, iteration
            assert incremental.pareto == full.pareto, iteration
        assert session.metrics_reused > 0
        assert session.metrics_computed < 50 * len(METRICS)

    def test_unchanged_candidates_reuse_everything(self):
        rng = np.random.default_rng(3)
        points = self._points(
            rng.uniform(10, 100, 16),
            rng.uniform(1, 9, 16),
            rng.uniform(0.1, 2.0, 16),
            list(rng.uniform(50, 500, 16)),
        )
        session = ExplorationSession()
        first = session.explore(points)
        computed = session.metrics_computed
        second = session.explore(points)
        assert session.metrics_computed == computed
        assert session.metrics_reused >= len(METRICS)
        assert session.pareto_reused == 1
        assert second.scores == first.scores
        assert second.winners == first.winners

    def test_caller_mutation_cannot_corrupt_reuse(self):
        rng = np.random.default_rng(4)
        points = self._points(
            rng.uniform(10, 100, 8),
            rng.uniform(1, 9, 8),
            rng.uniform(0.1, 2.0, 8),
            [None] * 8,
        )
        session = ExplorationSession()
        result = session.explore(points)
        next(iter(result.scores.values()))["p0"] = -1.0
        clean = session.explore(points)
        assert clean.scores == explore_batched(points).scores

    def test_session_validates_like_explore_batched(self):
        session = ExplorationSession()
        with pytest.raises(ConstraintError):
            session.explore([])
        bad = [
            DesignPoint(
                name="nan",
                embodied_carbon_g=float("nan"),
                energy_kwh=1.0,
                delay_s=1.0,
            )
        ]
        with pytest.raises(ValidationError):
            session.explore(bad)

    def test_metric_subset_and_switching(self):
        rng = np.random.default_rng(6)
        points = self._points(
            rng.uniform(10, 100, 8),
            rng.uniform(1, 9, 8),
            rng.uniform(0.1, 2.0, 8),
            list(rng.uniform(50, 500, 8)),
        )
        session = ExplorationSession()
        subset = session.explore(points, metric_names=("EDP", "CEP"))
        assert set(subset.scores) == {"EDP", "CEP"}
        everything = session.explore(points)
        assert everything.scores == explore_batched(points).scores

    def test_small_moves_take_the_incremental_pareto_path(self):
        rng = np.random.default_rng(11)
        n = 64
        c = rng.uniform(10, 100, n)
        e = rng.uniform(1, 9, n)
        d = rng.uniform(0.1, 2.0, n)
        areas = list(rng.uniform(50, 500, n))
        session = ExplorationSession()
        session.explore(self._points(c, e, d, areas))
        assert session.pareto_incremental == 0  # first call is a full count
        for _ in range(10):
            d = d.copy()
            moved = rng.integers(0, n, 3)
            d[moved] *= 1.0 + rng.uniform(-0.05, 0.05, moved.size)
            points = self._points(c, e, d, areas)
            incremental = session.explore(points)
            full = explore_batched(points)
            assert incremental.pareto == full.pareto
        assert session.pareto_incremental == 10

    def test_bulk_moves_fall_back_to_the_full_recount(self):
        rng = np.random.default_rng(12)
        n = 16
        c = rng.uniform(10, 100, n)
        e = rng.uniform(1, 9, n)
        d = rng.uniform(0.1, 2.0, n)
        areas = list(rng.uniform(50, 500, n))
        session = ExplorationSession()
        session.explore(self._points(c, e, d, areas))
        # Every delay moves: more than a quarter of the rows changed, so
        # the session recounts in full (and still matches the reference).
        d = d * 1.01
        points = self._points(c, e, d, areas)
        result = session.explore(points)
        assert session.pareto_incremental == 0
        assert result.pareto == explore_batched(points).pareto


class TestIncrementalPareto:
    @staticmethod
    def _brute_counts(matrix):
        n = matrix.shape[0]
        counts = np.zeros(n, dtype=np.intp)
        for j in range(n):
            for i in range(n):
                if i == j:
                    continue
                no_worse = bool((matrix[i] <= matrix[j]).all())
                better = bool((matrix[i] < matrix[j]).any())
                if no_worse and better:
                    counts[j] += 1
        return counts

    def test_counts_match_brute_force_and_mask(self):
        rng = np.random.default_rng(7)
        matrix = rng.uniform(0.0, 10.0, (40, 3))
        matrix[5] = matrix[9]  # duplicate rows never dominate each other
        counts = dominance_counts(matrix)
        np.testing.assert_array_equal(counts, self._brute_counts(matrix))
        np.testing.assert_array_equal(counts == 0, pareto_mask(matrix))

    def test_update_equals_fresh_counts(self):
        rng = np.random.default_rng(8)
        old = rng.uniform(0.0, 10.0, (30, 3))
        counts = dominance_counts(old)
        new = old.copy()
        changed = np.array([2, 17, 29], dtype=np.intp)
        new[changed] *= rng.uniform(0.8, 1.2, (changed.size, 3))
        updated = update_dominance_counts(old, counts, new, changed)
        np.testing.assert_array_equal(updated, dominance_counts(new))
        np.testing.assert_array_equal(updated == 0, pareto_mask(new))

    def test_update_dedupes_repeated_changed_rows(self):
        rng = np.random.default_rng(9)
        old = rng.uniform(0.0, 10.0, (12, 3))
        counts = dominance_counts(old)
        new = old.copy()
        new[4] *= 0.5  # strictly better everywhere: dominates more rows
        repeated = np.array([4, 4, 4], dtype=np.intp)
        updated = update_dominance_counts(old, counts, new, repeated)
        np.testing.assert_array_equal(updated, dominance_counts(new))

    def test_update_with_no_changes_is_identity(self):
        rng = np.random.default_rng(10)
        matrix = rng.uniform(0.0, 10.0, (8, 3))
        counts = dominance_counts(matrix)
        updated = update_dominance_counts(
            matrix, counts, matrix, np.array([], dtype=np.intp)
        )
        np.testing.assert_array_equal(updated, counts)

    def test_update_validates_shapes_and_rows(self):
        rng = np.random.default_rng(14)
        old = rng.uniform(0.0, 10.0, (6, 3))
        counts = dominance_counts(old)
        with pytest.raises(ConstraintError):
            update_dominance_counts(
                old, counts, rng.uniform(0, 1, (7, 3)), np.array([0])
            )
        with pytest.raises(ConstraintError):
            update_dominance_counts(old, counts[:-1], old, np.array([0]))
        with pytest.raises(ConstraintError):
            update_dominance_counts(old, counts, old, np.array([6]))


class TestPlannerCli:
    def test_planner_flag_round_trips(self):
        from repro.cli import main

        assert main(["experiment", "fig6", "--planner", "auto"]) == 0

    def test_unknown_planner_mode_exits_2(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "fig6", "--planner", "fastest"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "command", ["montecarlo", "sensitivity", "schedule"]
    )
    def test_subcommands_without_a_planner_reject_the_flag(self, command):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([command, "--planner", "auto"])
        assert excinfo.value.code == 2
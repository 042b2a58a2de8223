"""The structure-aware sweep planner: factoring and incremental DSE.

Five contracts are pinned here:

* **Bit-identity** — the planned path (factored per-axis partials,
  combined by broadcast) produces *exactly* the dense batched result —
  ``==`` per element, same dtype — through every integration point
  (one-shot sweeps, chunked+resumed sweeps).
* **Path selection** — grid size alone picks the path: an unguarded
  grid of :data:`~repro.engine.plan.AUTO_MIN_ROWS` (512) points or more
  is planned, a smaller one and every guarded sweep run densely; error
  behavior (empty grids, unknown parameters, malformed axes) is
  identical on both paths.
* **Memory discipline** — a planned batch materializes only the swept
  columns; constant columns stay zero-stride broadcast views (the
  satellite regression for no intermediate full-grid copies).
* **Reuse mechanics** — the plan-level content-hash cache hits on
  re-sweeps, and :class:`~repro.dse.optimizer.ExplorationSession`
  reproduces full
  ``explore_batched`` trajectories while recomputing only changed
  metrics.
* **Guard + CLI integration** — ``verify_plan`` catches a corrupted
  planned result with a typed
  :class:`~repro.core.errors.DivergenceError`; no subcommand accepts a
  ``--planner`` flag.
"""

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
from repro.engine import plan as plan_module
from repro.engine.plan import (
    AUTO_MIN_ROWS,
    SERIES_NAMES,
    SweepPlan,
    evaluate_plan_cached,
    plan_product,
    planner_engaged,
    verify_plan,
)
from repro.robustness import GuardedEngine, sweep_grid_batched_chunked

BASE = ActScenario()

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


def dense(grids) -> BatchResult:
    """The dense reference: every Cartesian row through the kernel."""
    return evaluate_batch(ScenarioBatch.from_product(BASE, grids))


class TestPlannerModes:
    """Grid size alone picks the planned or the dense path."""

    #: 7 x 73 = 511 points (dense) and 8 x 64 = 512 points (planned).
    GRIDS = {
        511: {
            "ci_use_g_per_kwh": tuple(np.linspace(50.0, 700.0, 7)),
            "energy_kwh": tuple(np.linspace(1.0, 20.0, 73)),
        },
        512: {
            "ci_use_g_per_kwh": tuple(np.linspace(50.0, 700.0, 8)),
            "energy_kwh": tuple(np.linspace(1.0, 20.0, 64)),
        },
    }

    FORMS = {
        "serial": lambda grids: sweep_grid_batched(
            BASE, grids, cache=EvaluationCache()
        ),
        "chunked": lambda grids: sweep_grid_batched_chunked(
            BASE, grids, chunk_rows=97
        ),
    }

    def test_engagement_matrix(self):
        assert AUTO_MIN_ROWS == 512
        assert planner_engaged(AUTO_MIN_ROWS)
        assert planner_engaged(10**6)
        assert not planner_engaged(AUTO_MIN_ROWS - 1)
        assert not planner_engaged(1)

    @pytest.mark.parametrize("form", list(FORMS))
    @pytest.mark.parametrize("rows", [511, 512])
    def test_grid_size_picks_the_path(self, rows, form, monkeypatch):
        plans = []
        real_plan_product = plan_module.plan_product

        def counting(base, grids):
            plans.append(grids)
            return real_plan_product(base, grids)

        monkeypatch.setattr(plan_module, "plan_product", counting)
        grids = self.GRIDS[rows]
        swept = self.FORMS[form](grids)
        assert len(plans) == (1 if rows >= AUTO_MIN_ROWS else 0)
        assert len(swept) == rows
        assert_results_identical(dense(grids), swept.result)


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
        planned = sweep_grid_batched(BASE, BIG_GRIDS, cache=EvaluationCache())
        assert planned.names == tuple(BIG_GRIDS)
        assert_results_identical(dense(BIG_GRIDS), planned.result)
        batch = ScenarioBatch.from_product(BASE, BIG_GRIDS)
        for name in FIELD_NAMES:
            np.testing.assert_array_equal(
                batch.column(name), planned.batch.column(name)
            )

    def test_mixed_grid_planned_equals_dense(self):
        planned = sweep_grid_batched(BASE, MIXED_GRIDS, cache=EvaluationCache())
        assert_results_identical(dense(MIXED_GRIDS), planned.result)

    def test_single_axis_degenerate_grid(self):
        grids = {"energy_kwh": tuple(np.linspace(1.0, 20.0, 600))}
        planned = sweep_grid_batched(BASE, grids, cache=EvaluationCache())
        assert_results_identical(dense(grids), planned.result)

    def test_all_singleton_axes_grid(self):
        # One row: sweeps take the dense path, so evaluate the plan itself.
        grids = {"energy_kwh": (5.0,), "dram_gb": (8.0,), "ic_count": (3.0,)}
        assert_results_identical(dense(grids), plan_product(BASE, grids).evaluate())

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
        np.testing.assert_array_equal(
            guarded.result.total_g, dense(grids).total_g
        )


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


class TestChunkedPlanned:
    def test_chunked_planned_matches_dense(self):
        chunked = sweep_grid_batched_chunked(BASE, BIG_GRIDS, chunk_rows=997)
        assert_results_identical(dense(BIG_GRIDS), chunked.result)

    def test_planned_resume_matches_dense(self, tmp_path):
        # An interrupted planned sweep resumes to the dense result.
        from repro.core.errors import RunInterrupted
        from repro.robustness import CancelToken

        class StopAfter(CancelToken):
            def __init__(self, checks):
                self._left = checks

            def should_stop(self):
                self._left -= 1
                return self._left < 0

        path = tmp_path / "sweep.npz"
        with pytest.raises(RunInterrupted) as excinfo:
            sweep_grid_batched_chunked(
                BASE,
                BIG_GRIDS,
                chunk_rows=640,
                checkpoint=path,
                cancel=StopAfter(3),
            )
        assert 0 < excinfo.value.completed < plan_product(BASE, BIG_GRIDS).size
        resumed = sweep_grid_batched_chunked(
            BASE, BIG_GRIDS, chunk_rows=640, checkpoint=path, resume=True
        )
        assert_results_identical(dense(BIG_GRIDS), resumed.result)


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
    def test_experiment_rejects_the_planner_flag(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "fig6", "--planner", "auto"])
        assert excinfo.value.code == 2

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

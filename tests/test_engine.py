"""Engine/scalar equivalence: batched Eq. 1-8 pinned to the reference path.

The batched engine is only trustworthy if it is indistinguishable from the
scalar model.  These tests sweep the appendix parameter ranges (one-at-a-time
grids, random draws, and degenerate corners) and assert every Eq. 1-8 output
and all six Table 2 metrics agree to 1e-9 between the two implementations.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.montecarlo import run_monte_carlo, sample_scenario_batch
from repro.analysis.scenario import PARAMETER_RANGES, ActScenario
from repro.analysis.sensitivity import tornado
from repro.core.errors import ParameterError, UnknownEntryError
from repro.core.metrics import METRICS, DesignPoint, evaluate, score_table, winners
from repro.dse.optimizer import explore
from repro.dse.pareto import pareto_front, pareto_mask
from repro.dse.sweep import FrozenParams, SweepRecord, sweep_grid, sweep_grid_batched
from repro.engine import (
    FIELD_NAMES,
    EvaluationCache,
    ScenarioBatch,
    batch_key,
    evaluate_batch,
    evaluate_cached,
    metric_columns,
    score_table_batched,
    winners_batched,
)
from repro.engine.kernels import _evaluate_batch_arrays
from repro.obs.context import RunContext, use_context

TOLERANCE = 1e-9


def assert_matches_scalar(batch: ScenarioBatch) -> None:
    """Every Eq. 1-8 series of ``batch`` matches the scalar path to 1e-9."""
    result = evaluate_batch(batch)
    for index, scenario in enumerate(batch.scenarios()):
        np.testing.assert_allclose(
            result.operational_g[index], scenario.operational_g(),
            rtol=TOLERANCE, atol=TOLERANCE,
        )
        np.testing.assert_allclose(
            result.cpa_g_per_cm2[index], scenario.cpa_g_per_cm2(),
            rtol=TOLERANCE, atol=TOLERANCE,
        )
        np.testing.assert_allclose(
            result.soc_embodied_g[index], scenario.soc_embodied_g(),
            rtol=TOLERANCE, atol=TOLERANCE,
        )
        np.testing.assert_allclose(
            result.embodied_g[index], scenario.embodied_g(),
            rtol=TOLERANCE, atol=TOLERANCE,
        )
        np.testing.assert_allclose(
            result.total_g[index], scenario.total_g(),
            rtol=TOLERANCE, atol=TOLERANCE,
        )


class TestFieldParity:
    def test_batch_fields_track_scenario_fields(self):
        scenario_fields = tuple(
            field.name for field in dataclasses.fields(ActScenario)
        )
        assert FIELD_NAMES == scenario_fields

    def test_every_field_has_a_range_or_default(self):
        # Every batched column corresponds to a real scalar parameter.
        base = ActScenario()
        for name in FIELD_NAMES:
            assert hasattr(base, name)


class TestEquivalenceGrids:
    @pytest.mark.parametrize("parameter", sorted(PARAMETER_RANGES))
    def test_one_at_a_time_over_appendix_ranges(self, parameter):
        low, high = PARAMETER_RANGES[parameter]
        base = ActScenario()
        values = np.linspace(low, high, 7)
        if parameter == "duration_hours":
            # Keep T <= LT as the scalar constructor's semantics expect.
            values = np.clip(values, None, base.lifetime_hours)
        batch = ScenarioBatch.from_columns(
            base, values.size, {parameter: values}
        )
        assert_matches_scalar(batch)

    def test_random_draws_across_all_ranges(self):
        batch = sample_scenario_batch(ActScenario(), draws=250, seed=99)
        assert_matches_scalar(batch)

    def test_cartesian_product_grid(self):
        batch = ScenarioBatch.from_product(
            ActScenario(),
            {
                "ci_fab_g_per_kwh": (30.0, 447.5, 700.0),
                "fab_yield": (0.5, 0.875, 1.0),
                "dram_gb": (2.0, 16.0),
            },
        )
        assert len(batch) == 18
        assert_matches_scalar(batch)


class TestDegenerateCases:
    def test_zero_capacity_storage(self):
        base = ActScenario(dram_gb=0.0, ssd_gb=0.0, hdd_gb=0.0)
        batch = ScenarioBatch.from_columns(base, 3, {"energy_kwh": (0.0, 1.0, 5.0)})
        assert_matches_scalar(batch)

    def test_single_component_platform(self):
        # One packaged IC, logic only: the Eq. 3 sum has a single term.
        base = ActScenario(
            ic_count=1.0, dram_gb=0.0, ssd_gb=0.0, hdd_gb=0.0
        )
        batch = ScenarioBatch.from_columns(
            base, 4, {"soc_area_cm2": (0.3, 0.7, 1.0, 2.0)}
        )
        assert_matches_scalar(batch)

    def test_lifetime_fraction_exactly_one(self):
        base = ActScenario(duration_hours=26_280.0, lifetime_hours=26_280.0)
        batch = ScenarioBatch.from_columns(base, 2, {"energy_kwh": (0.0, 8.0)})
        result = evaluate_batch(batch)
        np.testing.assert_allclose(result.lifetime_fraction, 1.0, rtol=0)
        assert_matches_scalar(batch)

    def test_zero_energy_zero_operational(self):
        base = ActScenario(energy_kwh=0.0)
        batch = ScenarioBatch.from_columns(base, 1, {})
        result = evaluate_batch(batch)
        assert result.operational_g[0] == 0.0
        assert_matches_scalar(batch)

    def test_embodied_share_zero_total(self):
        base = ActScenario(
            energy_kwh=0.0, soc_area_cm2=0.0, dram_gb=0.0, ssd_gb=0.0,
            hdd_gb=0.0, ic_count=0.0,
        )
        batch = ScenarioBatch.from_columns(base, 2, {})
        result = evaluate_batch(batch)
        np.testing.assert_array_equal(result.total_g, 0.0)
        np.testing.assert_array_equal(result.embodied_share, 0.0)


class TestKernelParity:
    """The one float64 kernel body: ``evaluate_batch`` is exactly the
    uninstrumented pass, and corner rows agree with the scalar oracle."""

    def test_evaluate_batch_is_the_kernel_pass(self):
        batch = sample_scenario_batch(ActScenario(), draws=512, seed=7)
        dispatched = evaluate_batch(batch)
        direct = _evaluate_batch_arrays(batch)
        for name in dataclasses.fields(dispatched):
            assert np.array_equal(
                getattr(dispatched, name.name), getattr(direct, name.name)
            ), name.name

    def test_instrumented_dispatch_is_the_kernel_pass(self):
        """Recording the pass under an active context changes no bit."""
        batch = sample_scenario_batch(ActScenario(), draws=64, seed=11)
        with use_context(RunContext()):
            instrumented = evaluate_batch(batch)
        direct = _evaluate_batch_arrays(batch)
        for name in dataclasses.fields(instrumented):
            assert np.array_equal(
                getattr(instrumented, name.name), getattr(direct, name.name)
            ), name.name

    def test_corner_batch_matches_scalar_model(self):
        """Zeros, tiny and large magnitudes, and yield edges."""
        base = ActScenario()
        batch = ScenarioBatch.from_scenarios(
            [
                base,
                base.replace(hdd_gb=0.0, ssd_gb=0.0, dram_gb=0.0),
                base.replace(fab_yield=1.0),
                base.replace(fab_yield=0.1, energy_kwh=1e-6),
                base.replace(
                    energy_kwh=1e6, lifetime_hours=1.0, duration_hours=1.0
                ),
            ]
        )
        assert_matches_scalar(batch)


class TestTable2Metrics:
    POINTS = (
        DesignPoint("alpha", 12_000.0, 2.0e-3, 0.006, 14.9),
        DesignPoint("beta", 26_000.0, 0.9e-3, 0.0092, 27.0),
        DesignPoint("gamma", 16.0, 1.1e-6, 0.033, 1.1),
        DesignPoint("delta", 60_000.0, 4.0e-3, 0.001, 80.0),
    )

    @pytest.mark.parametrize("metric_name", sorted(METRICS))
    def test_metric_columns_match_scalar(self, metric_name):
        columns = metric_columns(
            np.array([p.embodied_carbon_g for p in self.POINTS]),
            np.array([p.energy_kwh for p in self.POINTS]),
            np.array([p.delay_s for p in self.POINTS]),
            np.array([p.area_mm2 for p in self.POINTS]),
            metric_names=(metric_name,),
        )
        expected = [evaluate(p, metric_name) for p in self.POINTS]
        np.testing.assert_allclose(
            columns[metric_name], expected, rtol=TOLERANCE, atol=0
        )

    def test_score_table_batched_matches_scalar(self):
        assert score_table_batched(self.POINTS) == score_table(self.POINTS)

    def test_score_table_skips_edap_without_area(self):
        points = (
            DesignPoint("a", 10.0, 2.0, 1.0),
            DesignPoint("b", 5.0, 4.0, 2.0, 3.0),
        )
        assert score_table_batched(points) == score_table(points)
        assert "a" not in score_table_batched(points)["EDAP"]

    def test_winners_batched_matches_scalar(self):
        assert winners_batched(self.POINTS) == winners(self.POINTS)

    @pytest.mark.parametrize("metric_name", ["C2EP", "CE2P"])
    def test_squared_metrics_match_scalar_bit_for_bit(self, metric_name):
        # Squaring this value with ``**`` (libm pow) lands one ulp away
        # from numpy's array square; both paths multiply instead.
        point = DesignPoint("d0", 303059.9605954254, 303059.9605954254, 1.0)
        columns = metric_columns(
            np.array([point.embodied_carbon_g]),
            np.array([point.energy_kwh]),
            np.array([point.delay_s]),
            metric_names=(metric_name,),
        )
        assert float(columns[metric_name][0]) == evaluate(point, metric_name)

    def test_unknown_metric_rejected(self):
        with pytest.raises(UnknownEntryError):
            metric_columns(
                np.ones(2), np.ones(2), np.ones(2), metric_names=("XYZ",)
            )


class TestScenarioBatch:
    def test_from_scenarios_roundtrip(self):
        scenarios = [
            ActScenario(),
            ActScenario(energy_kwh=1.0, fab_yield=0.5),
            ActScenario(hdd_gb=4000.0, ic_count=100.0),
        ]
        batch = ScenarioBatch.from_scenarios(scenarios)
        assert [batch.scenario(i) for i in range(3)] == scenarios

    def test_columns_are_read_only(self):
        batch = ScenarioBatch.from_columns(ActScenario(), 3, {})
        with pytest.raises(ValueError):
            batch.energy_kwh[0] = 1.0

    def test_rejects_negative_columns(self):
        with pytest.raises(ParameterError):
            ScenarioBatch.from_columns(
                ActScenario(), 2, {"energy_kwh": (-1.0, 2.0)}
            )

    def test_rejects_bad_yield(self):
        with pytest.raises(ParameterError):
            ScenarioBatch.from_columns(
                ActScenario(), 2, {"fab_yield": (0.5, 1.5)}
            )

    def test_rejects_unknown_parameter(self):
        with pytest.raises(UnknownEntryError):
            ScenarioBatch.from_columns(ActScenario(), 2, {"bogus": (1.0, 2.0)})

    def test_rejects_empty_batch(self):
        with pytest.raises(ParameterError):
            ScenarioBatch.from_columns(ActScenario(), 0, {})

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ParameterError):
            ScenarioBatch(
                **{
                    name: np.ones(2 if name == "fab_yield" else 3)
                    for name in FIELD_NAMES
                }
            )

    def test_with_columns_replaces(self):
        batch = ScenarioBatch.from_columns(ActScenario(), 2, {})
        updated = batch.with_columns(energy_kwh=np.array([1.0, 2.0]))
        assert updated.energy_kwh.tolist() == [1.0, 2.0]
        assert batch.energy_kwh.tolist() != [1.0, 2.0]

    def test_product_row_order_matches_itertools(self):
        grids = {"energy_kwh": (1.0, 2.0), "dram_gb": (4.0, 8.0, 16.0)}
        batch = ScenarioBatch.from_product(ActScenario(), grids)
        expected = [
            (e, d) for e in grids["energy_kwh"] for d in grids["dram_gb"]
        ]
        observed = list(zip(batch.energy_kwh, batch.dram_gb))
        assert observed == expected


class TestCache:
    def test_identical_batches_hit(self):
        cache = EvaluationCache()
        batch = ScenarioBatch.from_columns(ActScenario(), 10, {})
        first = evaluate_cached(batch, cache)
        second = evaluate_cached(batch, cache)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_content_addressing_across_constructors(self):
        # The same values hash identically however the batch was built.
        cache = EvaluationCache()
        base = ActScenario()
        grid = ScenarioBatch.from_product(base, {"energy_kwh": (1.0, 2.0)})
        packed = ScenarioBatch.from_scenarios(
            [base.replace(energy_kwh=1.0), base.replace(energy_kwh=2.0)]
        )
        assert batch_key(grid) == batch_key(packed)
        evaluate_cached(grid, cache)
        evaluate_cached(packed, cache)
        assert cache.hits == 1

    def test_different_batches_miss(self):
        cache = EvaluationCache()
        base = ActScenario()
        evaluate_cached(ScenarioBatch.from_columns(base, 2, {}), cache)
        evaluate_cached(
            ScenarioBatch.from_columns(base, 2, {"energy_kwh": (1.0, 2.0)}),
            cache,
        )
        assert cache.misses == 2 and cache.hits == 0

    def test_lru_eviction(self):
        cache = EvaluationCache(capacity=2)
        base = ActScenario()
        batches = [
            ScenarioBatch.from_columns(base, 1, {"energy_kwh": (float(k),)})
            for k in range(3)
        ]
        for batch in batches:
            evaluate_cached(batch, cache)
        assert len(cache) == 2
        evaluate_cached(batches[0], cache)  # evicted -> miss again
        assert cache.misses == 4

    def test_clear_resets(self):
        cache = EvaluationCache()
        batch = ScenarioBatch.from_columns(ActScenario(), 2, {})
        evaluate_cached(batch, cache)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_cached_result_is_immutable(self):
        cache = EvaluationCache()
        result = evaluate_cached(
            ScenarioBatch.from_columns(ActScenario(), 2, {}), cache
        )
        with pytest.raises(ValueError):
            result.total_g[0] = 0.0


class TestBatchedSweep:
    GRIDS = {
        "ci_use_g_per_kwh": (11.0, 301.0, 820.0),
        "lifetime_hours": (8_760.0, 26_280.0, 87_600.0),
    }

    def test_matches_scalar_sweep_grid(self):
        base = ActScenario()
        batched = sweep_grid_batched(base, self.GRIDS)
        scalar = sweep_grid(
            self.GRIDS, lambda **params: base.replace(**params).total_g()
        )
        assert len(batched) == len(scalar)
        for index, record in enumerate(scalar):
            assert batched.params(index) == dict(record.params)
            np.testing.assert_allclose(
                batched.result.total_g[index], record.design,
                rtol=TOLERANCE, atol=TOLERANCE,
            )

    def test_argmin_and_min_record(self):
        base = ActScenario()
        batched = sweep_grid_batched(base, self.GRIDS)
        records = batched.records()
        best = min(records, key=lambda r: r.design)
        assert batched.min_record().params == best.params

    def test_repeat_sweep_hits_cache(self):
        cache = EvaluationCache()
        base = ActScenario()
        sweep_grid_batched(base, self.GRIDS, cache=cache)
        sweep_grid_batched(base, self.GRIDS, cache=cache)
        assert cache.hits == 1

    def test_empty_grids_rejected(self):
        from repro.core.errors import ConstraintError

        with pytest.raises(ConstraintError):
            sweep_grid_batched(ActScenario(), {})


class TestFrozenSweepRecords:
    def test_params_are_immutable(self):
        record = SweepRecord(params={"n": 3}, design=9)
        with pytest.raises(TypeError):
            record.params["n"] = 4

    def test_records_are_hashable(self):
        first = SweepRecord(params={"n": 3}, design=9)
        second = SweepRecord(params={"n": 3}, design=9)
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_params_equal_plain_dicts(self):
        record = SweepRecord(params={"n": 3, "m": 1}, design=0)
        assert record.params == {"n": 3, "m": 1}
        assert dict(record.params) == {"n": 3, "m": 1}

    def test_frozen_params_usable_as_cache_key(self):
        memo = {FrozenParams({"a": 1}): "hit"}
        assert memo[FrozenParams({"a": 1})] == "hit"


class TestBatchedPareto:
    def test_mask_matches_pareto_front(self):
        rng = np.random.default_rng(2022)
        matrix = rng.uniform(0.0, 10.0, size=(40, 3))
        candidates = list(range(40))
        objectives = [
            (lambda axis: (lambda idx: matrix[idx, axis]))(axis)
            for axis in range(3)
        ]
        front = pareto_front(candidates, objectives)
        mask = pareto_mask(matrix)
        assert [idx for idx in candidates if mask[idx]] == list(front)

    def test_duplicates_all_kept(self):
        mask = pareto_mask(np.array([[1.0], [1.0], [2.0]]))
        assert mask.tolist() == [True, True, False]

    def test_explore_matches_scalar_oracle(self):
        points = TestTable2Metrics.POINTS
        result = explore(points)
        assert result.scores == score_table(points)
        assert result.winners == winners(points)
        assert result.pareto == pareto_front(
            points,
            (
                lambda p: p.embodied_carbon_g,
                lambda p: p.energy_kwh,
                lambda p: p.delay_s,
            ),
        )


    @pytest.mark.parametrize("entry", [explore, score_table_batched])
    def test_repeated_design_name_is_refused(self, entry):
        # Scores are keyed by name: a repeated one would collapse two
        # candidates into one entry and change the winner.
        points = [
            DesignPoint("a", 1.0, 1.0, 1.0),
            DesignPoint("b", 2.0, 2.0, 2.0),
            DesignPoint("a", 3.0, 3.0, 3.0),
        ]
        with pytest.raises(ParameterError, match="'a' is repeated"):
            entry(points, ("EDP",))


class TestAnalysisOnEngine:
    def test_monte_carlo_batched_equals_scalar_response(self):
        base = ActScenario()
        batched = run_monte_carlo(base, draws=400, seed=11)
        scalar = run_monte_carlo(
            base, draws=400, seed=11, response=lambda s: s.total_g()
        )
        np.testing.assert_allclose(
            batched.samples, scalar.samples, rtol=TOLERANCE, atol=TOLERANCE
        )

    def test_tornado_batched_equals_scalar_response(self):
        base = ActScenario()
        batched = tornado(base)
        scalar = tornado(base, response=lambda s: s.total_g())
        assert [r.parameter for r in batched] == [r.parameter for r in scalar]
        for fast, reference in zip(batched, scalar):
            np.testing.assert_allclose(
                fast.response_low, reference.response_low,
                rtol=TOLERANCE, atol=TOLERANCE,
            )
            np.testing.assert_allclose(
                fast.response_high, reference.response_high,
                rtol=TOLERANCE, atol=TOLERANCE,
            )


class TestExperimentEquivalence:
    def test_cpa_curve_batched_identical(self):
        from repro.fabs.cpa import cpa_curve, cpa_curve_batched

        assert cpa_curve_batched() == cpa_curve()
        assert cpa_curve_batched(perfect_yield=True) == cpa_curve(
            perfect_yield=True
        )

    def test_mobile_soc_sweep_batched_identical(self):
        from repro.fabs.fab import default_fab
        from repro.provisioning.mobile_soc import (
            CONFIGURATIONS,
            SOC_NODE,
            per_inference_totals_batched,
        )

        ci_values = (820.0, 380.0, 41.0, 0.0)
        totals = per_inference_totals_batched(ci_use_g_per_kwh=ci_values)
        for config in CONFIGURATIONS:
            for index, ci_use in enumerate(ci_values):
                operational, embodied = config.footprint_per_inference_g(
                    ci_use_g_per_kwh=ci_use
                )
                np.testing.assert_allclose(
                    totals[config.name][index], operational + embodied,
                    rtol=TOLERANCE, atol=0,
                )

        fab_totals = per_inference_totals_batched(
            ci_use_g_per_kwh=41.0,
            fab=default_fab(SOC_NODE),
            ci_fab_g_per_kwh=ci_values,
        )
        for config in CONFIGURATIONS:
            for index, ci_fab in enumerate(ci_values):
                operational, embodied = config.footprint_per_inference_g(
                    ci_use_g_per_kwh=41.0,
                    fab=default_fab(SOC_NODE).with_ci(ci_fab),
                )
                np.testing.assert_allclose(
                    fab_totals[config.name][index], operational + embodied,
                    rtol=TOLERANCE, atol=0,
                )

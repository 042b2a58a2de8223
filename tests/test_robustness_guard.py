"""GuardedEngine: strict validation, diagnostics, and the scalar cross-check."""

import numpy as np
import pytest

from repro.analysis import ActScenario, run_monte_carlo
from repro.core.errors import DivergenceError, ParameterError, ValidationError
from repro.dse import BatchSweepResult, sweep_grid_batched
from repro.engine.batch import FIELD_NAMES, ScenarioBatch, broadcast_columns
from repro.engine.cache import EvaluationCache, evaluate_cached
from repro.engine.kernels import BatchResult
from repro.robustness import STRICT, GuardedEngine, diagnose_columns
from repro.robustness.guard import DOMAIN, NON_FINITE, OUTPUT, RANGE

BASE = ActScenario()


def columns_with(**overrides):
    """Full-length raw columns: the base broadcast plus explicit overrides."""
    size = max(np.asarray(v).size for v in overrides.values())
    return size, {
        name: np.array(np.broadcast_to(np.asarray(v, dtype=np.float64), (size,)))
        for name, v in overrides.items()
    }


class TestDiagnoseColumns:
    def test_clean_columns_have_no_diagnostics(self):
        raw = broadcast_columns(BASE, 8)
        assert diagnose_columns(raw) == []

    def test_non_finite_reported_with_indices_and_values(self):
        _, cols = columns_with(energy_kwh=[1.0, np.nan, 2.0, np.inf])
        (diag,) = diagnose_columns(cols)
        assert diag.column == "energy_kwh"
        assert diag.reason == NON_FINITE
        assert diag.indices == (1, 3)
        assert np.isnan(diag.values[0]) and np.isinf(diag.values[1])

    def test_domain_violation_for_negative_value(self):
        _, cols = columns_with(ci_use_g_per_kwh=[100.0, -5.0])
        (diag,) = diagnose_columns(cols)
        assert diag.reason == DOMAIN
        assert diag.indices == (1,)
        assert "must be >= 0" in diag.detail

    def test_fraction_field_domain(self):
        _, cols = columns_with(fab_yield=[0.9, 1.5, 0.0])
        (diag,) = diagnose_columns(cols)
        assert diag.reason == DOMAIN
        assert diag.indices == (1, 2)
        assert "(0, 1]" in diag.detail

    def test_range_violation_against_table1(self):
        # 1e6 g/kWh is finite and non-negative but far outside Table 1.
        _, cols = columns_with(ci_use_g_per_kwh=[100.0, 1.0e6])
        diags = diagnose_columns(cols, ranges={"ci_use_g_per_kwh": (11.0, 820.0)})
        (diag,) = diags
        assert diag.reason == RANGE
        assert diag.indices == (1,)
        assert "documented range" in diag.detail

    def test_str_truncates_long_index_lists(self):
        _, cols = columns_with(energy_kwh=np.full(50, np.nan))
        (diag,) = diagnose_columns(cols)
        assert "… and 42 more" in str(diag)


class TestStrictPolicy:
    def test_clean_batch_matches_unguarded_engine(self):
        engine = GuardedEngine(policy=STRICT)
        guarded = engine.evaluate_columns(BASE, 16)
        plain = evaluate_cached(ScenarioBatch.from_columns(BASE, 16))
        np.testing.assert_array_equal(guarded.result.total_g, plain.total_g)
        assert len(guarded) == 16

    def test_raises_with_structured_diagnostics(self):
        engine = GuardedEngine(policy=STRICT)
        size, cols = columns_with(energy_kwh=[1.0, np.nan, 3.0])
        with pytest.raises(ValidationError) as excinfo:
            engine.evaluate_columns(BASE, size, cols)
        (diag,) = excinfo.value.diagnostics
        assert diag.column == "energy_kwh"
        assert diag.indices == (1,)

    def test_out_of_range_rejected_by_default_table1_ranges(self):
        engine = GuardedEngine(policy=STRICT)
        size, cols = columns_with(ci_fab_g_per_kwh=[100.0, 5.0e4])
        with pytest.raises(ValidationError):
            engine.evaluate_columns(BASE, size, cols)

    def test_ranges_none_validates_domains_only(self):
        engine = GuardedEngine(policy=STRICT, ranges=None)
        size, cols = columns_with(ci_fab_g_per_kwh=[100.0, 5.0e4])
        guarded = engine.evaluate_columns(BASE, size, cols)
        assert len(guarded) == 2

    def test_every_bad_row_of_every_column_is_named(self):
        engine = GuardedEngine(policy=STRICT)
        size, cols = columns_with(
            energy_kwh=[1.0, np.nan, 3.0, -2.0],
            fab_yield=[0.9, 0.9, 1.5, 0.9],
        )
        with pytest.raises(ValidationError) as excinfo:
            engine.evaluate_columns(BASE, size, cols)
        found = {
            (d.column, d.reason): d.indices for d in excinfo.value.diagnostics
        }
        assert found == {
            ("energy_kwh", NON_FINITE): (1,),
            ("energy_kwh", DOMAIN): (3,),
            ("fab_yield", DOMAIN): (2,),
        }
        assert "energy_kwh: 1 domain row(s) at [3]" in str(excinfo.value)

    def test_a_rejected_batch_never_reaches_the_cache(self):
        cache = EvaluationCache()
        engine = GuardedEngine(policy=STRICT, cache=cache)
        size, cols = columns_with(energy_kwh=[1.0, np.nan])
        with pytest.raises(ValidationError):
            engine.evaluate_columns(BASE, size, cols)
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)

    @pytest.mark.parametrize("policy", ["repair", "skip", "off"])
    def test_strict_is_the_only_policy(self, policy):
        with pytest.raises(ParameterError, match="strict"):
            GuardedEngine(policy=policy)


class TestCrossCheck:
    def test_divergence_raises_typed_error(self, monkeypatch):
        """A tampered kernel output that the scalar path contradicts."""

        def tampered(batch, cache=None, backend=None):
            result = evaluate_cached(batch, EvaluationCache())
            series = {
                name: np.array(getattr(result, name))
                for name in BatchResult.__dataclass_fields__
            }
            series["total_g"][0] = np.inf  # scalar path says finite
            return BatchResult(**series)

        monkeypatch.setattr("repro.robustness.guard.evaluate_cached", tampered)
        engine = GuardedEngine(policy=STRICT)
        with pytest.raises(DivergenceError) as excinfo:
            engine.evaluate_columns(BASE, 4)
        assert excinfo.value.series == "total_g"
        assert excinfo.value.indices == (0,)
        assert np.isinf(excinfo.value.batched[0])
        assert np.isfinite(excinfo.value.reference[0])

    def test_genuine_overflow_strict_raises_validation_error(self):
        # Both paths overflow identically: input-driven, not divergence.
        engine = GuardedEngine(policy=STRICT, ranges=None)
        size, cols = columns_with(
            energy_kwh=[1.0, 1.0e308], ci_use_g_per_kwh=[300.0, 1.0e308]
        )
        with pytest.raises(ValidationError) as excinfo:
            engine.evaluate_columns(BASE, size, cols)
        (diag,) = excinfo.value.diagnostics
        assert (diag.column, diag.reason, diag.indices) == ("total_g", OUTPUT, (1,))


class TestWiring:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ParameterError):
            GuardedEngine(policy="yolo")

    def test_guarded_monte_carlo_matches_plain_run_bitwise(self):
        """Zero silent wrong numbers: the guard must not perturb clean runs."""
        plain = run_monte_carlo(BASE, draws=500, seed=11)
        guarded = run_monte_carlo(
            BASE, draws=500, seed=11, guard=GuardedEngine(policy=STRICT)
        )
        np.testing.assert_array_equal(plain.samples, guarded.samples)

    def test_guarded_sweep_names_bad_grid_points(self):
        grids = {
            "fab_yield": [0.6, 0.875, 2.0],  # 2.0 violates (0, 1]
            "energy_kwh": [2.0, 8.0],
        }
        with pytest.raises(ValidationError) as excinfo:
            sweep_grid_batched(BASE, grids, guard=GuardedEngine(policy=STRICT))
        (diag,) = excinfo.value.diagnostics
        # fab_yield=2.0 × the two energy points: grid rows 4 and 5.
        assert (diag.column, diag.reason, diag.indices) == (
            "fab_yield",
            DOMAIN,
            (4, 5),
        )

    def test_guarded_sweep_strict_on_clean_grid_matches_plain(self):
        grids = {"fab_yield": [0.6, 0.875], "soc_area_cm2": [0.5, 1.0, 1.5]}
        plain = sweep_grid_batched(BASE, grids)
        guarded = sweep_grid_batched(
            BASE, grids, guard=GuardedEngine(policy=STRICT)
        )
        assert type(guarded) is BatchSweepResult
        np.testing.assert_array_equal(
            plain.result.total_g, guarded.result.total_g
        )
        for name in FIELD_NAMES:
            np.testing.assert_array_equal(
                plain.batch.column(name), guarded.batch.column(name)
            )

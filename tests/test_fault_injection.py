"""Fault-injection harness: every fault class is caught, never silently wrong.

The contract under test: corrupting scenario columns or bundled data
tables must make the stack raise a typed ``ReproError``, whose
diagnostics name exactly the faulted rows where the fault has rows.  No
fault class may flow through into plausible-but-wrong CO2 numbers.
"""

import numpy as np
import pytest

from repro.analysis import ActScenario, sample_parameter_columns
from repro.core.errors import ParameterError, ReproError, ValidationError
from repro.data import DRAM_TECHNOLOGIES, HDD_MODELS, SSD_TECHNOLOGIES
from repro.data.validation import validate_storage_mapping
from repro.engine.batch import ScenarioBatch
from repro.robustness import (
    COLUMN_FAULTS,
    STRICT,
    TABLE_FAULTS,
    GuardedEngine,
    inject_column_fault,
    inject_table_fault,
)

BASE = ActScenario()
DRAWS = 256
SEED = 2022

#: Fault classes that change a column's length (misaligned feeds).
LENGTH_FAULTS = ("drop", "dup")
VALUE_FAULTS = tuple(k for k in COLUMN_FAULTS if k not in LENGTH_FAULTS)


def sampled_columns():
    return sample_parameter_columns(BASE, draws=DRAWS, seed=SEED)


class TestColumnFaults:
    @pytest.mark.parametrize("kind", VALUE_FAULTS)
    @pytest.mark.parametrize("column", ["ci_use_g_per_kwh", "fab_yield"])
    def test_strict_guard_rejects_every_value_fault(self, kind, column):
        rng = np.random.default_rng(7)
        corrupted, record = inject_column_fault(
            sampled_columns(), column, kind, rng=rng
        )
        assert record.kind == kind
        engine = GuardedEngine(policy=STRICT)
        with pytest.raises(ReproError):
            engine.evaluate_columns(BASE, DRAWS, corrupted)

    @pytest.mark.parametrize("kind", ["nan", "inf", "sign"])
    def test_strict_guard_names_exactly_the_faulted_rows(self, kind):
        rng = np.random.default_rng(7)
        corrupted, record = inject_column_fault(
            sampled_columns(), "ci_use_g_per_kwh", kind, rng=rng
        )
        engine = GuardedEngine(policy=STRICT)
        with pytest.raises(ValidationError) as excinfo:
            engine.evaluate_columns(BASE, DRAWS, corrupted)
        flagged = {
            index
            for diagnostic in excinfo.value.diagnostics
            for index in diagnostic.indices
        }
        assert {d.column for d in excinfo.value.diagnostics} == {
            "ci_use_g_per_kwh"
        }
        assert flagged == set(record.indices)

    def test_scale_fault_is_systematic_and_caught_by_range_check(self):
        """A g↔kg unit error hits the whole column; Table 1 ranges catch it."""
        rng = np.random.default_rng(7)
        corrupted, record = inject_column_fault(
            sampled_columns(), "ci_use_g_per_kwh", "scale", rng=rng
        )
        assert record.factor == 1000.0
        assert len(record.indices) == DRAWS
        # Every row is out of range, and the error names them all.
        with pytest.raises(ValidationError) as excinfo:
            GuardedEngine(policy=STRICT).evaluate_columns(BASE, DRAWS, corrupted)
        (diag,) = excinfo.value.diagnostics
        assert diag.indices == tuple(range(DRAWS))

    @pytest.mark.parametrize("kind", LENGTH_FAULTS)
    def test_length_faults_raise_typed_shape_error(self, kind):
        rng = np.random.default_rng(7)
        corrupted, _ = inject_column_fault(
            sampled_columns(), "energy_kwh", kind, rng=rng
        )
        with pytest.raises(ParameterError, match="shape"):
            GuardedEngine(policy=STRICT).evaluate_columns(BASE, DRAWS, corrupted)
        with pytest.raises(ParameterError, match="shape"):
            ScenarioBatch.from_columns(BASE, DRAWS, corrupted)

    def test_injection_is_deterministic(self):
        first = inject_column_fault(
            sampled_columns(), "energy_kwh", "nan", rng=np.random.default_rng(3)
        )
        second = inject_column_fault(
            sampled_columns(), "energy_kwh", "nan", rng=np.random.default_rng(3)
        )
        assert first[1] == second[1]
        np.testing.assert_array_equal(
            first[0]["energy_kwh"], second[0]["energy_kwh"]
        )

    def test_caller_columns_never_mutated(self):
        columns = sampled_columns()
        before = {k: np.array(v) for k, v in columns.items()}
        inject_column_fault(
            columns, "energy_kwh", "nan", rng=np.random.default_rng(3)
        )
        for name, column in columns.items():
            np.testing.assert_array_equal(column, before[name])

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ParameterError):
            inject_column_fault(
                sampled_columns(), "energy_kwh", "gamma-ray",
                rng=np.random.default_rng(0),
            )


TABLES = [
    ("dram", DRAM_TECHNOLOGIES),
    ("ssd", SSD_TECHNOLOGIES),
    ("hdd", HDD_MODELS),
]


class TestTableFaults:
    @pytest.mark.parametrize("table,rows", TABLES)
    def test_pristine_tables_validate_cleanly(self, table, rows):
        findings = validate_storage_mapping(table, rows, required=set(rows))
        assert all(f.passed for f in findings)

    @pytest.mark.parametrize("kind", TABLE_FAULTS)
    @pytest.mark.parametrize("table,rows", TABLES)
    def test_every_fault_class_fails_validation(self, kind, table, rows):
        rng = np.random.default_rng(11)
        corrupted, record = inject_table_fault(rows, kind, rng=rng)
        findings = validate_storage_mapping(
            table, corrupted, required=set(rows)
        )
        failed = [f for f in findings if not f.passed]
        assert failed, f"{kind} fault on {table} passed validation: {record}"

    def test_shipped_tables_unmodified_by_injection(self):
        keys_before = set(DRAM_TECHNOLOGIES)
        inject_table_fault(
            DRAM_TECHNOLOGIES, "drop", rng=np.random.default_rng(0)
        )
        assert set(DRAM_TECHNOLOGIES) == keys_before

    def test_fault_record_names_the_corrupted_key(self):
        corrupted, record = inject_table_fault(
            SSD_TECHNOLOGIES, "scale", rng=np.random.default_rng(5)
        )
        (key,) = record.keys
        original = SSD_TECHNOLOGIES[key].cps_g_per_gb
        assert corrupted[key].cps_g_per_gb == pytest.approx(original * 1000.0)


class TestWholeStack:
    """A corrupted table value flowing through Monte Carlo is still caught."""

    def test_scaled_table_value_rejected_as_scenario_range_fault(self):
        rng = np.random.default_rng(13)
        corrupted, record = inject_table_fault(
            DRAM_TECHNOLOGIES, "scale", rng=rng
        )
        (key,) = record.keys
        bad_cps = corrupted[key].cps_g_per_gb
        base = BASE.replace(cps_dram_g_per_gb=min(bad_cps, 1.0e12))
        engine = GuardedEngine(policy=STRICT)
        with pytest.raises(ReproError):
            engine.evaluate_columns(base, 32)

    def test_nan_table_value_rejected_before_any_total_is_produced(self):
        rng = np.random.default_rng(13)
        corrupted, record = inject_table_fault(DRAM_TECHNOLOGIES, "nan", rng=rng)
        (key,) = record.keys
        bad_cps = corrupted[key].cps_g_per_gb
        # The scalar constructor refuses the NaN outright...
        with pytest.raises(ReproError):
            BASE.replace(cps_dram_g_per_gb=bad_cps)
        # ...and so does the batched path, were it smuggled into a column.
        columns = {"cps_dram_g_per_gb": np.full(8, bad_cps)}
        with pytest.raises(ReproError):
            GuardedEngine(policy=STRICT).evaluate_columns(BASE, 8, columns)

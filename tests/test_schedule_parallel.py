"""Scheduling sweeps through the parallel runner and checkpoint layer.

The contract mirrors the Monte Carlo workload: `build_schedule_batch` is
a pure function of ``(spec, row)``, so the worker count, shard size, and
chunking only decide *where* a row is computed — merged series must be
byte-for-byte identical across every execution shape, including an
interrupt/resume at a different worker count.
"""

import numpy as np
import pytest

from repro.core.errors import CheckpointError, ParameterError, RunInterrupted
from repro.core.intensity import CarbonIntensityTrace, solar_diurnal_trace
from repro.parallel import ExecutionPolicy, ParallelRunner
from repro.robustness.checkpoint import (
    CountingCancelToken,
    run_schedule_sweep_chunked,
)
from repro.scheduling.batch import SCHEDULE_SERIES, evaluate_schedule_batch
from repro.scheduling.sweep import (
    ScheduleSweepSpec,
    build_schedule_batch,
    run_policy_sweep,
)

SPEC = ScheduleSweepSpec(
    trace=solar_diurnal_trace(500.0, solar_share_at_noon=0.7),
    windows=60,
    seed=7,
)


def one_shot_series():
    result = evaluate_schedule_batch(build_schedule_batch(SPEC))
    return {name: getattr(result, name) for name in SCHEDULE_SERIES}


class TestEvaluateSchedule:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_bit_identical_to_one_shot(self, workers):
        reference = one_shot_series()
        with ParallelRunner(
            ExecutionPolicy(workers=workers, shard_rows=32)
        ) as runner:
            evaluation = runner.evaluate_schedule(SPEC)
            for name in SCHEDULE_SERIES:
                np.testing.assert_array_equal(
                    evaluation.full_series(name), reference[name],
                    err_msg=name,
                )

    def test_row_range_selects_absolute_rows(self):
        reference = one_shot_series()
        with ParallelRunner(ExecutionPolicy(workers=2, shard_rows=16)) as runner:
            evaluation = runner.evaluate_schedule(SPEC, start=40, stop=100)
            np.testing.assert_array_equal(
                evaluation.full_series("emissions_g"),
                reference["emissions_g"][40:100],
            )

    def test_rejects_non_spec_input(self):
        with ParallelRunner(ExecutionPolicy(workers=1)) as runner:
            with pytest.raises(ParameterError, match="ScheduleSweepSpec"):
                runner.evaluate_schedule("not-a-spec")

    def test_rejects_bad_row_range(self):
        with ParallelRunner(ExecutionPolicy(workers=1)) as runner:
            with pytest.raises(ParameterError, match="row range"):
                runner.evaluate_schedule(SPEC, start=10, stop=5)


class TestScheduleSweepChunked:
    def test_serial_chunks_match_one_shot(self):
        reference = one_shot_series()
        series = run_schedule_sweep_chunked(SPEC, chunk_rows=37)
        for name in SCHEDULE_SERIES:
            np.testing.assert_array_equal(
                series[name], reference[name], err_msg=name
            )

    def test_parallel_chunks_match_one_shot(self):
        reference = one_shot_series()
        series = run_schedule_sweep_chunked(
            SPEC, chunk_rows=32, policy=ExecutionPolicy(workers=2)
        )
        for name in SCHEDULE_SERIES:
            np.testing.assert_array_equal(
                series[name], reference[name], err_msg=name
            )

    def test_interrupt_carries_partial_series(self):
        with pytest.raises(RunInterrupted) as excinfo:
            run_schedule_sweep_chunked(
                SPEC,
                chunk_rows=48,
                cancel=CountingCancelToken(stop_after_checks=2),
            )
        partial = excinfo.value.partial
        assert set(partial) == set(SCHEDULE_SERIES)
        completed = len(partial["emissions_g"])
        assert 0 < completed < SPEC.rows
        reference = one_shot_series()
        np.testing.assert_array_equal(
            partial["emissions_g"], reference["emissions_g"][:completed]
        )

    def test_resume_across_worker_counts_is_bit_identical(self, tmp_path):
        path = str(tmp_path / "schedule.ckpt")
        with pytest.raises(RunInterrupted):
            run_schedule_sweep_chunked(
                SPEC,
                chunk_rows=32,
                checkpoint_path=path,
                policy=ExecutionPolicy(workers=2),
                cancel=CountingCancelToken(stop_after_checks=2),
            )
        series = run_schedule_sweep_chunked(
            SPEC,
            chunk_rows=24,
            checkpoint_path=path,
            resume=True,
            policy=ExecutionPolicy(workers=3),
        )
        reference = one_shot_series()
        for name in SCHEDULE_SERIES:
            np.testing.assert_array_equal(
                series[name], reference[name], err_msg=name
            )

    def test_resume_with_different_spec_raises_mismatch(self, tmp_path):
        path = str(tmp_path / "schedule.ckpt")
        with pytest.raises(RunInterrupted):
            run_schedule_sweep_chunked(
                SPEC,
                chunk_rows=32,
                checkpoint_path=path,
                cancel=CountingCancelToken(stop_after_checks=1),
            )
        other = ScheduleSweepSpec(
            trace=SPEC.trace, windows=SPEC.windows, seed=SPEC.seed + 1
        )
        with pytest.raises(CheckpointError) as excinfo:
            run_schedule_sweep_chunked(
                other, chunk_rows=32, checkpoint_path=path, resume=True
            )
        assert excinfo.value.reason == "mismatch"

    def test_resume_without_checkpoint_raises(self):
        with pytest.raises(CheckpointError):
            run_schedule_sweep_chunked(SPEC, resume=True)

    def test_rejects_non_spec_input(self):
        with pytest.raises(CheckpointError):
            run_schedule_sweep_chunked("not-a-spec")


class TestPolicySweepParallel:
    def test_parallel_sweep_matches_serial(self):
        serial = run_policy_sweep(SPEC)
        parallel = run_policy_sweep(
            SPEC,
            policy=ExecutionPolicy(workers=2, shard_rows=32),
            verify_sample=4,
        )
        for name in SCHEDULE_SERIES:
            np.testing.assert_array_equal(
                parallel.series[name], serial.series[name], err_msg=name
            )
        assert parallel.pareto_policies == serial.pareto_policies
        for point, expected in zip(parallel.points, serial.points):
            assert point == expected

    def test_checkpointed_sweep_completes_and_matches(self, tmp_path):
        path = str(tmp_path / "sweep.ckpt")
        serial = run_policy_sweep(SPEC)
        checkpointed = run_policy_sweep(
            SPEC, chunk_rows=50, checkpoint=path
        )
        for name in SCHEDULE_SERIES:
            np.testing.assert_array_equal(
                checkpointed.series[name], serial.series[name], err_msg=name
            )

    def test_small_trace_integer_windows_verify(self):
        # Integer CI values: the vectorized path must match the scalar
        # reference exactly, so a full verify pass is loss-free.
        spec = ScheduleSweepSpec(
            trace=CarbonIntensityTrace(
                "int", tuple(float(v) for v in range(100, 580, 20))
            ),
            windows=12,
            seed=3,
        )
        result = run_policy_sweep(spec, verify_sample=12)
        assert len(result.series["feasible"]) == spec.rows

"""Chunked execution, atomic checkpoints, and bit-for-bit resumption."""

import os

import numpy as np
import pytest

from repro.analysis import ActScenario, run_monte_carlo
from repro.core.errors import CheckpointError, RunInterrupted, ValidationError
from repro.core.intensity import solar_diurnal_trace
from repro.dse import sweep_grid_batched
from repro.engine.cache import EvaluationCache
from repro.engine.kernels import BatchResult
from repro.parallel import ExecutionPolicy
from repro.robustness import (
    CancelToken,
    CountingCancelToken,
    GuardedEngine,
    load_store_state,
    run_monte_carlo_chunked,
    sweep_grid_batched_chunked,
)
from repro.robustness.checkpoint import run_schedule_sweep_chunked
from repro.scheduling.sweep import ScheduleSweepSpec

BASE = ActScenario()
GRIDS = {"fab_yield": [0.6, 0.75, 0.875, 1.0], "energy_kwh": list(range(1, 9))}


class TestCancelToken:
    def test_plain_token_never_stops(self):
        assert not CancelToken().should_stop()

    def test_explicit_cancel(self):
        token = CancelToken()
        token.cancel()
        assert token.cancelled
        assert token.should_stop()

    def test_expired_deadline_stops(self):
        assert CancelToken(deadline_seconds=0.0).should_stop()

    def test_counting_token_stops_after_n_checks(self):
        token = CountingCancelToken(stop_after_checks=2)
        assert not token.should_stop()
        assert not token.should_stop()
        assert token.should_stop()


class TestMonteCarloChunked:
    def test_matches_one_shot_runner_bitwise(self):
        # The chunk is the draw stream's block: the one-shot runner with
        # the same block size is the same run.
        one_shot = run_monte_carlo(
            BASE, draws=1000, seed=5, policy=ExecutionPolicy(shard_rows=128)
        )
        chunked = run_monte_carlo_chunked(
            BASE, draws=1000, seed=5, chunk_rows=128, cache=EvaluationCache()
        )
        np.testing.assert_array_equal(one_shot.samples, chunked.samples)
        assert one_shot.base_response == chunked.base_response

    def test_interrupt_then_resume_is_bit_identical(self, tmp_path):
        path = tmp_path / "mc.npz"
        uninterrupted = run_monte_carlo_chunked(
            BASE, draws=1000, seed=5, chunk_rows=128
        )
        with pytest.raises(RunInterrupted) as excinfo:
            run_monte_carlo_chunked(
                BASE,
                draws=1000,
                seed=5,
                chunk_rows=128,
                checkpoint=path,
                cancel=CountingCancelToken(stop_after_checks=3),
            )
        error = excinfo.value
        assert 0 < error.completed < error.total == 1000
        assert error.checkpoint == path
        np.testing.assert_array_equal(
            error.partial, uninterrupted.samples[: error.completed]
        )
        assert not os.path.exists(f"{path}.tmp")  # atomic write left no junk
        resumed = run_monte_carlo_chunked(
            BASE, draws=1000, seed=5, chunk_rows=128,
            checkpoint=path, resume=True,
        )
        np.testing.assert_array_equal(uninterrupted.samples, resumed.samples)

    def test_resume_without_path_raises(self):
        with pytest.raises(CheckpointError) as excinfo:
            run_monte_carlo_chunked(BASE, draws=100, resume=True)
        assert excinfo.value.reason == "missing"

    def test_resume_from_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError) as excinfo:
            run_monte_carlo_chunked(
                BASE, draws=100, checkpoint=tmp_path / "nope.npz", resume=True
            )
        assert excinfo.value.reason == "missing"

    def test_resume_from_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "mc.npz"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError) as excinfo:
            run_monte_carlo_chunked(
                BASE, draws=100, checkpoint=path, resume=True
            )
        assert excinfo.value.reason == "corrupt"

    def test_resume_with_different_config_raises_mismatch(self, tmp_path):
        path = tmp_path / "mc.npz"
        with pytest.raises(RunInterrupted):
            run_monte_carlo_chunked(
                BASE, draws=512, seed=5, chunk_rows=64, checkpoint=path,
                cancel=CountingCancelToken(stop_after_checks=2),
            )
        for overrides in ({"seed": 6}, {"distribution": "uniform"}):
            with pytest.raises(CheckpointError) as excinfo:
                run_monte_carlo_chunked(
                    BASE, draws=512, chunk_rows=64, checkpoint=path,
                    resume=True, **{"seed": 5, **overrides},
                )
            assert excinfo.value.reason == "mismatch"

    def test_resume_rejects_checkpoint_of_other_kind(self, tmp_path):
        path = tmp_path / "ck.npz"
        with pytest.raises(RunInterrupted):
            sweep_grid_batched_chunked(
                BASE, GRIDS, chunk_rows=8, checkpoint=path,
                cancel=CountingCancelToken(stop_after_checks=1),
            )
        with pytest.raises(CheckpointError):
            run_monte_carlo_chunked(
                BASE, draws=100, checkpoint=path, resume=True
            )

    def test_interrupt_without_checkpoint_still_carries_partial(self):
        with pytest.raises(RunInterrupted) as excinfo:
            run_monte_carlo_chunked(
                BASE, draws=512, seed=5, chunk_rows=64,
                cancel=CountingCancelToken(stop_after_checks=2),
            )
        assert excinfo.value.checkpoint is None
        assert excinfo.value.partial.size == excinfo.value.completed

    def test_guarded_chunked_matches_guarded_one_shot(self):
        guard = GuardedEngine()
        one_shot = run_monte_carlo(
            BASE,
            draws=600,
            seed=9,
            guard=guard,
            policy=ExecutionPolicy(shard_rows=100),
        )
        chunked = run_monte_carlo_chunked(
            BASE, draws=600, seed=9, chunk_rows=100, guard=guard
        )
        assert one_shot.samples.tobytes() == chunked.samples.tobytes()
        # A narrowed range makes the strict guard reject some draws; both
        # runs name the same first rejected chunk's rows of the run.
        narrowed = GuardedEngine(ranges={"energy_kwh": (1.0, 20.0)})
        errors = []
        for run in (
            lambda: run_monte_carlo(
                BASE,
                draws=600,
                seed=9,
                guard=narrowed,
                policy=ExecutionPolicy(shard_rows=100),
            ),
            lambda: run_monte_carlo_chunked(
                BASE, draws=600, seed=9, chunk_rows=100, guard=narrowed
            ),
        ):
            with pytest.raises(ValidationError) as excinfo:
                run()
            errors.append(excinfo.value.diagnostics)
        assert errors[0] == errors[1]
        assert errors[0][0].column == "energy_kwh"
        assert all(0 <= index < 100 for index in errors[0][0].indices)

    def test_chunk_rows_must_be_positive(self):
        with pytest.raises(Exception):
            run_monte_carlo_chunked(BASE, draws=10, chunk_rows=0)


class TestSweepChunked:
    def test_matches_one_shot_sweep_bitwise(self):
        one_shot = sweep_grid_batched(BASE, GRIDS, cache=EvaluationCache())
        chunked = sweep_grid_batched_chunked(
            BASE, GRIDS, chunk_rows=5, cache=EvaluationCache()
        )
        assert chunked.names == one_shot.names
        np.testing.assert_array_equal(
            one_shot.result.total_g, chunked.result.total_g
        )
        np.testing.assert_array_equal(
            one_shot.batch.column("fab_yield"), chunked.batch.column("fab_yield")
        )

    def test_interrupt_then_resume_is_bit_identical(self, tmp_path):
        path = tmp_path / "sweep.npz"
        uninterrupted = sweep_grid_batched_chunked(BASE, GRIDS, chunk_rows=6)
        with pytest.raises(RunInterrupted) as excinfo:
            sweep_grid_batched_chunked(
                BASE, GRIDS, chunk_rows=6, checkpoint=path,
                cancel=CountingCancelToken(stop_after_checks=2),
            )
        assert 0 < excinfo.value.completed < len(uninterrupted)
        resumed = sweep_grid_batched_chunked(
            BASE, GRIDS, chunk_rows=6, checkpoint=path, resume=True
        )
        np.testing.assert_array_equal(
            uninterrupted.result.total_g, resumed.result.total_g
        )
        np.testing.assert_array_equal(
            uninterrupted.result.embodied_g, resumed.result.embodied_g
        )

    def test_interrupt_carries_completed_rows_as_partial(self):
        uninterrupted = sweep_grid_batched_chunked(BASE, GRIDS, chunk_rows=6)
        with pytest.raises(RunInterrupted) as excinfo:
            sweep_grid_batched_chunked(
                BASE, GRIDS, chunk_rows=6,
                cancel=CountingCancelToken(stop_after_checks=2),
            )
        completed = excinfo.value.completed
        partial = excinfo.value.partial
        assert 0 < completed < len(uninterrupted)
        assert isinstance(partial, BatchResult)
        assert len(partial) == completed
        for name in BatchResult.__dataclass_fields__:
            np.testing.assert_array_equal(
                getattr(partial, name),
                getattr(uninterrupted.result, name)[:completed],
            )

    def test_resume_with_different_grid_raises_mismatch(self, tmp_path):
        path = tmp_path / "sweep.npz"
        with pytest.raises(RunInterrupted):
            sweep_grid_batched_chunked(
                BASE, GRIDS, chunk_rows=6, checkpoint=path,
                cancel=CountingCancelToken(stop_after_checks=1),
            )
        other = {"fab_yield": [0.5, 0.9], "energy_kwh": list(range(1, 9))}
        with pytest.raises(CheckpointError) as excinfo:
            sweep_grid_batched_chunked(
                BASE, other, chunk_rows=6, checkpoint=path, resume=True
            )
        assert excinfo.value.reason == "mismatch"

    def test_completed_run_leaves_loadable_checkpoint(self, tmp_path):
        path = tmp_path / "sweep.npz"
        result = sweep_grid_batched_chunked(
            BASE, GRIDS, chunk_rows=7, checkpoint=path
        )
        assert path.exists()
        state = load_store_state(path)
        assert not state.report.lossy
        assert int(state.meta["completed"]) == len(result)
        assert str(state.meta["kind"]) == "sweep"
        replayed = {"total_g": np.full(len(result), np.nan)}
        assert state.replay(replayed) == len(result)
        np.testing.assert_array_equal(replayed["total_g"], result.result.total_g)


class TestFingerprintPins:
    """The sweep and schedule checkpoint fingerprints, pinned to the values
    the per-kind drivers wrote before they shared one chunked driver, so
    no driver refactor can silently orphan existing checkpoints.  (The
    Monte Carlo pin lives in ``tests/test_mc_streaming.py``.)"""

    SWEEP = "740e14630ff021c060ffb1942d355c437c2b7accd869e13e0ac5403368272ad2"
    SCHEDULE = (
        "b37015560d0f61156b34f6000be193119ddcd4a051fdd106e3c822e8fc38eaea"
    )

    def test_sweep_fingerprint(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        sweep_grid_batched_chunked(BASE, GRIDS, chunk_rows=8, checkpoint=path)
        assert load_store_state(path).meta["fingerprint"] == self.SWEEP

    @pytest.mark.parametrize("workers", [None, 2])
    def test_schedule_fingerprint(self, tmp_path, workers):
        path = tmp_path / "schedule.ckpt"
        spec = ScheduleSweepSpec(
            trace=solar_diurnal_trace(500.0, solar_share_at_noon=0.7),
            windows=60,
            seed=7,
        )
        run_schedule_sweep_chunked(
            spec,
            chunk_rows=50,
            checkpoint_path=path,
            policy=workers,
        )
        assert load_store_state(path).meta["fingerprint"] == self.SCHEDULE

"""Degraded chunked sweeps persist their holes and heal them on resume.

Every chunked runner shares one driver, so a ``failure_policy="degrade"``
scheduling sweep behaves like the Monte Carlo one: the row ranges lost
to quarantined shards are recorded in the checkpoint manifest, and a
later ``resume=True`` re-attempts exactly those ranges — no healthy
chunk is evaluated again — converging to the bit-identical unfaulted
result.  The consumers of rows a run lost (``argmin``,
``summarize_sweep``) must treat them as missing, not as values.  Grid
sweeps run in-process and never lose a row; ``argmin`` still skips
``NaN`` rows of a result handed to it.

The fault is armed by wrapping the one dispatch point,
:meth:`~repro.parallel.supervisor.ShardSupervisor.run`, since the
schedule driver takes no fault plan of its own.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.analysis import ActScenario
from repro.core.errors import ValidationError
from repro.core.intensity import solar_diurnal_trace
from repro.dse.sweep import BatchSweepResult
from repro.engine.kernels import BatchResult
from repro.obs.context import RunContext, use_context
from repro.parallel import DEGRADE, ExecutionPolicy, ShardSupervisor
from repro.robustness.checkpoint import (
    run_schedule_sweep_chunked,
    sweep_grid_batched_chunked,
)
from repro.robustness.durability import load_store_state
from repro.robustness.faultinject import ProcessFault, ProcessFaultPlan
from repro.robustness.guard import RobustnessWarning
from repro.scheduling.sweep import ScheduleSweepSpec, summarize_sweep

BASE = ActScenario()
GRIDS = {
    "fab_yield": [0.6, 0.7, 0.8, 0.9],
    "energy_kwh": [float(value) for value in range(1, 65)],
}
SPEC = ScheduleSweepSpec(
    trace=solar_diurnal_trace(500.0, solar_share_at_noon=0.7),
    windows=60,
    seed=7,
)
CHUNK = 32
#: Shard 1 of the first two-chunk wave is the run's second chunk.
LOST = (CHUNK, 2 * CHUNK)
POLICY = ExecutionPolicy(workers=2, failure_policy=DEGRADE, max_retries=0)


def run_sweep():
    """The chunked grid sweep, run in-process."""
    return sweep_grid_batched_chunked(BASE, GRIDS, chunk_rows=CHUNK)


def run_schedule(path=None, *, resume=False):
    """The degrade-policy chunked scheduling sweep's raw series."""
    return run_schedule_sweep_chunked(
        SPEC,
        chunk_rows=CHUNK,
        checkpoint_path=path,
        resume=resume,
        policy=POLICY,
    )


def with_shard_one_killed(monkeypatch, tmp_path, run, *args, **kwargs):
    """Run once with one SIGKILL armed against shard 1 (of the first
    parallel wave: the fault's budget is a single firing)."""
    plan = ProcessFaultPlan.create(
        tmp_path / "faults", [ProcessFault("kill", shard=1, times=1)]
    )
    real_run = ShardSupervisor.run

    def faulted_run(self, fn, payloads, labels):
        armed = [
            dataclasses.replace(task, fault=plan.spec()) for task in payloads
        ]
        return real_run(self, fn, armed, labels)

    with monkeypatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore", RobustnessWarning)
        patch.setattr(ShardSupervisor, "run", faulted_run)
        out = run(*args, **kwargs)
    assert plan.remaining() == 0
    return out


@pytest.mark.parametrize("run", [run_schedule], ids=["schedule"])
def test_resume_heals_only_the_quarantined_range(run, tmp_path, monkeypatch):
    reference = run()
    path = tmp_path / "run.ckpt"
    degraded = with_shard_one_killed(monkeypatch, tmp_path, run, path)
    for name, values in degraded.items():
        assert np.isnan(values[LOST[0] : LOST[1]]).all(), name
        np.testing.assert_array_equal(
            np.delete(values, np.s_[LOST[0] : LOST[1]]),
            np.delete(reference[name], np.s_[LOST[0] : LOST[1]]),
            err_msg=name,
        )
    # The manifest names exactly the lost range.
    assert load_store_state(path).meta["quarantined"] == [list(LOST)]

    context = RunContext.create(describe_git=False)
    with use_context(context):
        healed = run(path, resume=True)
    # Only the quarantined range was re-attempted; every healthy chunk
    # rode along from the checkpoint.
    retries = context.sink.of_type("quarantine_retry")
    assert [(event["start"], event["stop"]) for event in retries] == [LOST]
    assert all(event["healed"] for event in retries)
    assert context.sink.of_type("chunk") == []
    assert load_store_state(path).meta["quarantined"] == []
    assert sorted(healed) == sorted(reference)
    for name in reference:
        assert healed[name].tobytes() == reference[name].tobytes(), name


def test_argmin_skips_quarantined_rows():
    reference = run_sweep()
    # The rows a quarantined shard would have lost, NaN in every series.
    holes = {
        name: getattr(reference.result, name).copy()
        for name in BatchResult.__dataclass_fields__
    }
    for values in holes.values():
        values[LOST[0] : LOST[1]] = np.nan
    degraded = BatchSweepResult(
        names=reference.names, batch=reference.batch, result=BatchResult(**holes)
    )
    totals = degraded.result.total_g
    assert np.isnan(totals).any()
    index = degraded.argmin()
    assert np.isfinite(totals[index])
    assert index == int(np.nanargmin(totals))
    assert degraded.min_record().params == degraded.params(index)
    # Unfaulted, the NaN-free fast path still picks the first minimum.
    assert reference.argmin() == int(np.argmin(reference.result.total_g))


def test_argmin_of_all_nan_series_raises():
    sweep = run_sweep()
    holes = BatchResult(
        **{
            name: np.full(len(sweep), np.nan)
            for name in BatchResult.__dataclass_fields__
        }
    )
    lost = BatchSweepResult(names=sweep.names, batch=sweep.batch, result=holes)
    with pytest.raises(ValidationError, match="NaN"):
        lost.argmin()


def test_summary_counts_only_evaluated_windows(tmp_path, monkeypatch):
    reference = summarize_sweep(SPEC, run_schedule())
    series = with_shard_one_killed(monkeypatch, tmp_path, run_schedule)
    degraded = summarize_sweep(SPEC, series)
    policies = len(SPEC.policies)
    for index, (point, full) in enumerate(
        zip(degraded.points, reference.points)
    ):
        assert full.windows == SPEC.windows
        feasible = series["feasible"][index::policies]
        evaluated = np.isfinite(feasible)
        assert 0 < point.windows == int(evaluated.sum()) < SPEC.windows
        # Lost windows are missing, not infeasible: the fraction is the
        # unfaulted run's over the windows that were evaluated.
        unfaulted = reference.series["feasible"][index::policies][evaluated]
        assert point.feasible_windows == int((unfaulted >= 0.5).sum())
        assert point.feasible_fraction == float(np.mean(unfaulted >= 0.5))

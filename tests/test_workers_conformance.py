"""The conformance matrix's "workers 1 vs 2" row, over random runs.

A chunked run's answer is a pure function of its configuration: the
worker count decides only which process evaluates a chunk, never what
the chunk is.  For random draw counts, chunk sizes, seeds, the strict
guard on or off, and small scheduling specs, the public chunked drivers
must return byte-identical Monte Carlo samples and schedule series at
one worker (in-process) and at two (a worker pool).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.scenario import ActScenario
from repro.core.intensity import solar_diurnal_trace
from repro.robustness.checkpoint import (
    run_monte_carlo_chunked,
    run_schedule_sweep_chunked,
)
from repro.robustness.guard import GuardedEngine
from repro.scheduling.sweep import ScheduleSweepSpec

BASE = ActScenario()
TRACE = solar_diurnal_trace(500.0, solar_share_at_noon=0.7)


@settings(max_examples=12, deadline=None)
@given(
    draws=st.integers(2, 600),
    chunk_rows=st.integers(8, 200),
    seed=st.integers(0, 2**32 - 1),
    guarded=st.booleans(),
    windows=st.integers(1, 10),
    jobs=st.integers(1, 4),
    schedule_chunk_rows=st.integers(1, 16),
)
def test_workers_1_and_2_agree_byte_for_byte(
    draws, chunk_rows, seed, guarded, windows, jobs, schedule_chunk_rows
):
    samples = [
        run_monte_carlo_chunked(
            BASE,
            draws=draws,
            seed=seed,
            chunk_rows=chunk_rows,
            guard=GuardedEngine() if guarded else None,
            policy=workers,
        ).samples.tobytes()
        for workers in (1, 2)
    ]
    assert samples[0] == samples[1]

    spec = ScheduleSweepSpec(
        trace=TRACE, windows=windows, jobs_per_window=jobs, seed=seed
    )
    serial, pooled = (
        run_schedule_sweep_chunked(
            spec, chunk_rows=schedule_chunk_rows, policy=workers
        )
        for workers in (1, 2)
    )
    assert sorted(serial) == sorted(pooled)
    for name, values in serial.items():
        assert pooled[name].tobytes() == values.tobytes(), name

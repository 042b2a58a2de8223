"""Hardened evaluation: guarded kernels, fault injection, durable runs.

Four pillars, one discipline — a corrupted input must raise a typed
:class:`~repro.core.errors.ReproError` and a lost shard must degrade
*explicitly*, never return plausible-but-wrong CO2 numbers:

* :mod:`repro.robustness.guard` — :class:`GuardedEngine` pre-validates
  batch columns (NaN/Inf/domain/Table 1 range) and raises a
  :class:`~repro.core.errors.ValidationError` whose per-column diagnostics
  name every offending row, and cross-checks kernel anomalies against
  the scalar reference path, raising
  :class:`~repro.core.errors.DivergenceError` on disagreement.
* :mod:`repro.robustness.faultinject` — deterministic, seeded corruption
  of scenario columns, bundled data tables, worker processes, and — via
  :class:`FaultyIO` — the filesystem itself (crash points, torn writes,
  dropped fsyncs, ENOSPC/EIO), so tests can prove every fault class is
  caught end to end.
* :mod:`repro.robustness.durability` — the crash-consistent chunk store:
  write-ahead CRC-framed records, atomic manifest commits, and a salvage
  loader that recovers the longest valid committed prefix from torn or
  corrupt state (quarantining the rest for recompute, never silently
  accepting or wholesale discarding).
* :mod:`repro.robustness.checkpoint` — chunked Monte Carlo, grid sweeps,
  and schedule sweeps persisted through the durable store, fingerprint-
  verified resume (bit-for-bit identical to an uninterrupted run, bound
  to the exact planner setting), and cooperative
  timeout/cancellation that salvages partial results.

The :mod:`repro.robustness.torture` harness closes the loop: it kills a
real run at every registered crash point (subprocess SIGKILL or simulated
power loss), resumes, and asserts the result is bit-identical to the
uninterrupted run — ``repro torture`` from the CLI.
"""

from repro.robustness.guard import (
    CROSS_CHECK_TOLERANCE,
    STRICT,
    ColumnDiagnostic,
    GuardedEngine,
    GuardedResult,
    RobustnessWarning,
    diagnose_columns,
)
from repro.robustness.durability import (
    CHECKPOINT_VERSION,
    CRASH_POINTS,
    ChunkRecord,
    DurableChunkStore,
    DurableIO,
    SalvageReport,
    StoreState,
    atomic_write_bytes,
    atomic_write_json,
    current_io,
    install_durable_io,
    load_store_state,
    register_crash_point,
    use_durable_io,
)
from repro.robustness.faultinject import (
    COLUMN_FAULTS,
    DEFAULT_SCALE_FACTOR,
    IO_FAULTS,
    TABLE_FAULTS,
    CrashPoint,
    FaultRecord,
    FaultyIO,
    IOFault,
    inject_column_fault,
    inject_table_fault,
)
from repro.robustness.checkpoint import (
    DEFAULT_CHUNK_ROWS,
    CancelToken,
    CountingCancelToken,
    run_monte_carlo_chunked,
    run_schedule_sweep_chunked,
    sweep_grid_batched_chunked,
)
from repro.robustness.torture import (
    TORTURE_WORKLOADS,
    CampaignResult,
    run_error_campaign,
    run_kill_campaign,
    run_record_campaign,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "COLUMN_FAULTS",
    "CRASH_POINTS",
    "CROSS_CHECK_TOLERANCE",
    "CampaignResult",
    "CancelToken",
    "ChunkRecord",
    "ColumnDiagnostic",
    "CountingCancelToken",
    "CrashPoint",
    "DEFAULT_CHUNK_ROWS",
    "DEFAULT_SCALE_FACTOR",
    "DurableChunkStore",
    "DurableIO",
    "FaultRecord",
    "FaultyIO",
    "GuardedEngine",
    "GuardedResult",
    "IOFault",
    "IO_FAULTS",
    "RobustnessWarning",
    "STRICT",
    "SalvageReport",
    "StoreState",
    "TABLE_FAULTS",
    "TORTURE_WORKLOADS",
    "atomic_write_bytes",
    "atomic_write_json",
    "current_io",
    "diagnose_columns",
    "inject_column_fault",
    "inject_table_fault",
    "install_durable_io",
    "load_store_state",
    "register_crash_point",
    "run_error_campaign",
    "run_kill_campaign",
    "run_monte_carlo_chunked",
    "run_record_campaign",
    "run_schedule_sweep_chunked",
    "sweep_grid_batched_chunked",
    "use_durable_io",
]

"""Carbon-aware batch scheduling: one scalar scheduler, fleet model, and
the vectorized policy-sweep stack.

Layers (bottom up):

* :mod:`repro.scheduling.simulator` — the single-machine study (FIFO vs
  greedy carbon-aware), run through the scalar policy reference below.
* :mod:`repro.scheduling.fleet` — machines with capacity, idle/active
  power, and DVFS power caps; generalized jobs (preemptible, fractional
  hours, suspend/resume overhead).
* :mod:`repro.scheduling.policies` — the one scalar scheduler
  (``fifo`` / ``edf`` / ``carbon_waiting`` / ``carbon_lowest``) emitting
  emissions *and* per-job waiting time; the oracle of the vectorized
  path.
* :mod:`repro.scheduling.batch` — the vectorized evaluator: many
  (window, job set, policy) scenarios as numpy columns, cacheable in
  the engine's evaluation cache.
* :mod:`repro.scheduling.sweep` — reproducible policy sweeps with
  emissions-vs-waiting Pareto fronts.
"""

from repro.scheduling.simulator import (
    EMISSIONS_FLOOR_G,
    Job,
    nightly_batch_workload,
    schedule_carbon_aware,
    schedule_fifo,
    scheduling_benefit,
)
from repro.scheduling.fleet import (
    THROTTLE_LADDER_STEPS,
    FleetJob,
    FleetSpec,
    Machine,
    from_simulator_job,
    single_machine_fleet,
)
from repro.scheduling.policies import (
    DEFAULT_THRESHOLD_QUANTILE,
    POLICY_NAMES,
    FleetPlacement,
    FleetSchedule,
    simulate_fleet,
)
from repro.scheduling.batch import (
    POLICY_IDS,
    SCHEDULE_SERIES,
    ScheduleBatch,
    ScheduleBatchResult,
    ScheduleScenario,
    evaluate_schedule_batch,
    evaluate_schedule_cached,
    schedule_batch_key,
    verify_schedule_batch,
)
from repro.scheduling.sweep import (
    PolicyPoint,
    PolicySweepResult,
    ScheduleSweepSpec,
    build_schedule_batch,
    run_policy_sweep,
    summarize_sweep,
)

__all__ = [
    "DEFAULT_THRESHOLD_QUANTILE",
    "EMISSIONS_FLOOR_G",
    "FleetJob",
    "FleetPlacement",
    "FleetSchedule",
    "FleetSpec",
    "Job",
    "Machine",
    "POLICY_IDS",
    "POLICY_NAMES",
    "PolicyPoint",
    "PolicySweepResult",
    "SCHEDULE_SERIES",
    "ScheduleBatch",
    "ScheduleBatchResult",
    "ScheduleScenario",
    "ScheduleSweepSpec",
    "THROTTLE_LADDER_STEPS",
    "build_schedule_batch",
    "evaluate_schedule_batch",
    "evaluate_schedule_cached",
    "from_simulator_job",
    "nightly_batch_workload",
    "run_policy_sweep",
    "schedule_batch_key",
    "schedule_carbon_aware",
    "schedule_fifo",
    "scheduling_benefit",
    "simulate_fleet",
    "single_machine_fleet",
    "summarize_sweep",
    "verify_schedule_batch",
]

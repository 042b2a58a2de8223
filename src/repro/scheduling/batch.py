"""Vectorized schedule evaluation: (window × job set × policy) as columns.

One :class:`ScheduleBatch` row is one *scenario* — a trace window offset,
a policy, a fleet profile, and a fixed-size job set — and the evaluator
simulates every row simultaneously as numpy columns.  Candidate start
hours are priced for every hour of the window at once, offset by offset
in the scalar reference's chronological order (instead of the pinned
simulator's per-candidate Python loops), and the *chosen* placement's
emissions are re-accumulated with exactly the scalar reference's
association, so a vectorized scenario reproduces
:func:`repro.scheduling.policies.simulate_fleet` bit for bit — cost
ties included.

The evaluator computes in float64, and
:func:`evaluate_schedule_cached` shares the engine's
:class:`~repro.engine.cache.EvaluationCache` without ever colliding with
Eq. 1-8 entries (schedule keys hash a disjoint, domain-prefixed layout).

Failure semantics: a scenario whose jobs cannot all be placed is *not* an
error here (one bad draw must not kill a 10k-window sweep) — its
``feasible`` series entry is 0 and every other series is NaN.  The scalar
reference raises :class:`~repro.core.errors.ConstraintError` instead;
:func:`verify_schedule_batch` maps between the two conventions when
cross-checking.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

import numpy as np

from repro.core.errors import ConstraintError, ParameterError, ValidationError
from repro.core.intensity import CarbonIntensityTrace
from repro.engine.cache import DEFAULT_CACHE, EvaluationCache
from repro.obs.context import current_context
from repro.scheduling.fleet import FleetJob, FleetSpec, Machine
from repro.scheduling.policies import (
    DEFAULT_THRESHOLD_QUANTILE,
    POLICY_NAMES,
    WATTS_PER_KW,
    simulate_fleet,
)

#: Policy name -> integer id stored in the ``policy_id`` column.
POLICY_IDS: dict[str, int] = {name: i for i, name in enumerate(POLICY_NAMES)}

_CARBON_LOWEST_ID = POLICY_IDS["carbon_lowest"]
_CARBON_WAITING_ID = POLICY_IDS["carbon_waiting"]

#: Per-scenario (rows,) columns of a :class:`ScheduleBatch`.
SCENARIO_FIELDS: tuple[str, ...] = (
    "window_offset",
    "policy_id",
    "capacity",
    "idle_power_w",
    "active_power_w",
)

#: Per-job (rows, jobs) columns of a :class:`ScheduleBatch`.
JOB_FIELDS: tuple[str, ...] = (
    "arrival_hour",
    "duration_hours",
    "energy_kwh",
    "deadline_hour",
    "preemptible",
    "overhead_kwh",
)


@dataclass(frozen=True)
class ScheduleScenario:
    """One (window, policy, job set, fleet) scenario, pre-vectorization."""

    window_offset: int
    policy: str
    jobs: tuple[FleetJob, ...]
    fleet: FleetSpec


@dataclass(frozen=True)
class ScheduleBatch:
    """SoA of scheduling scenarios sharing one trace and horizon.

    Scenario columns are ``(rows,)`` float64; job columns are
    ``(rows, jobs)`` float64.  All arrays are validated and frozen
    read-only at construction, mirroring the engine's ``ScenarioBatch``
    discipline: a constructed batch is always evaluable.

    Attributes:
        trace_g_per_kwh: One period of the shared intensity trace.
        horizon_hours: Window length; every deadline must fit inside it.
        threshold_quantile: ``carbon_waiting``'s green-start quantile.
    """

    window_offset: np.ndarray
    policy_id: np.ndarray
    capacity: np.ndarray
    idle_power_w: np.ndarray
    active_power_w: np.ndarray
    arrival_hour: np.ndarray
    duration_hours: np.ndarray
    energy_kwh: np.ndarray
    deadline_hour: np.ndarray
    preemptible: np.ndarray
    overhead_kwh: np.ndarray
    trace_g_per_kwh: tuple[float, ...]
    horizon_hours: int
    threshold_quantile: float = DEFAULT_THRESHOLD_QUANTILE

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "trace_g_per_kwh",
            tuple(float(v) for v in self.trace_g_per_kwh),
        )
        if not self.trace_g_per_kwh:
            raise ParameterError("a schedule batch needs a non-empty trace")
        if min(self.trace_g_per_kwh) < 0:
            raise ParameterError("carbon intensities must be non-negative")
        if self.horizon_hours < 1:
            raise ParameterError(
                f"horizon_hours must be >= 1, got {self.horizon_hours}"
            )
        if not 0.0 <= self.threshold_quantile <= 1.0:
            raise ParameterError(
                "threshold_quantile must be in [0, 1], got "
                f"{self.threshold_quantile}"
            )
        for name in SCENARIO_FIELDS + JOB_FIELDS:
            column = np.ascontiguousarray(
                getattr(self, name), dtype=np.float64
            )
            expected_ndim = 1 if name in SCENARIO_FIELDS else 2
            if column.ndim != expected_ndim:
                raise ParameterError(
                    f"column {name!r} must be {expected_ndim}-dimensional, "
                    f"got shape {column.shape}"
                )
            if not np.all(np.isfinite(column)):
                raise ParameterError(f"column {name!r} contains NaN/Inf")
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        rows = self.window_offset.shape[0]
        if rows == 0:
            raise ParameterError("a schedule batch needs at least one row")
        jobs = self.arrival_hour.shape[1] if self.arrival_hour.ndim == 2 else 0
        if jobs == 0:
            raise ParameterError("a schedule batch needs at least one job")
        for name in SCENARIO_FIELDS:
            if getattr(self, name).shape != (rows,):
                raise ParameterError(
                    f"column {name!r} has shape {getattr(self, name).shape}, "
                    f"expected ({rows},)"
                )
        for name in JOB_FIELDS:
            if getattr(self, name).shape != (rows, jobs):
                raise ParameterError(
                    f"column {name!r} has shape {getattr(self, name).shape}, "
                    f"expected ({rows}, {jobs})"
                )
        self._validate_domains()

    def _validate_domains(self) -> None:
        for name in ("window_offset", "policy_id", "capacity"):
            column = getattr(self, name)
            if not np.array_equal(column, np.floor(column)):
                raise ParameterError(f"column {name!r} must be integer-valued")
        if np.any(self.window_offset < 0):
            raise ParameterError("window_offset must be non-negative")
        if np.any(
            (self.policy_id < 0) | (self.policy_id >= len(POLICY_NAMES))
        ):
            raise ParameterError(
                f"policy_id must be in [0, {len(POLICY_NAMES)})"
            )
        if np.any(self.capacity < 1):
            raise ParameterError("capacity must be >= 1 slot")
        if np.any(self.idle_power_w < 0) or np.any(self.active_power_w < 0):
            raise ParameterError("machine power must be non-negative")
        for name in ("arrival_hour", "deadline_hour"):
            column = getattr(self, name)
            if not np.array_equal(column, np.floor(column)):
                raise ParameterError(f"column {name!r} must be integer-valued")
        if np.any(self.arrival_hour < 0):
            raise ParameterError("arrival_hour must be non-negative")
        if np.any(self.duration_hours <= 0):
            raise ParameterError("duration_hours must be positive")
        if np.any(self.energy_kwh < 0) or np.any(self.overhead_kwh < 0):
            raise ParameterError("job energy must be non-negative")
        if not np.all(np.isin(self.preemptible, (0.0, 1.0))):
            raise ParameterError("preemptible must be 0 or 1")
        slots = np.ceil(self.duration_hours)
        if np.any(self.deadline_hour < self.arrival_hour + slots):
            raise ParameterError(
                "deadline_hour must allow ceil(duration) slots after arrival"
            )
        if np.any(self.deadline_hour > self.horizon_hours):
            raise ParameterError(
                f"every deadline must fit the {self.horizon_hours}h horizon"
            )

    def __len__(self) -> int:
        return self.window_offset.shape[0]

    @property
    def jobs_per_scenario(self) -> int:
        return self.arrival_hour.shape[1]

    @classmethod
    def from_scenarios(
        cls,
        scenarios: "tuple[ScheduleScenario, ...] | list[ScheduleScenario]",
        trace: CarbonIntensityTrace,
        *,
        horizon_hours: int,
        threshold_quantile: float = DEFAULT_THRESHOLD_QUANTILE,
    ) -> "ScheduleBatch":
        """Build a batch from per-scenario objects (uniform job count).

        Jobs are stored as given — callers wanting the fleet's DVFS cap
        applied stretch them via ``FleetSpec.effective_duration`` /
        ``effective_energy`` first (the sweep sampler does).
        """
        if not scenarios:
            raise ParameterError("need at least one scenario")
        jobs = len(scenarios[0].jobs)
        if jobs == 0:
            raise ParameterError("scenarios need at least one job")
        for scenario in scenarios:
            if len(scenario.jobs) != jobs:
                raise ParameterError(
                    "every scenario must carry the same number of jobs "
                    f"(got {len(scenario.jobs)} vs {jobs})"
                )
        rows = len(scenarios)
        columns = {
            name: np.zeros((rows, jobs)) for name in JOB_FIELDS
        }
        scen = {name: np.zeros(rows) for name in SCENARIO_FIELDS}
        for row, scenario in enumerate(scenarios):
            if scenario.policy not in POLICY_IDS:
                raise ParameterError(
                    f"unknown policy {scenario.policy!r} in scenario {row}"
                )
            scen["window_offset"][row] = scenario.window_offset
            scen["policy_id"][row] = POLICY_IDS[scenario.policy]
            scen["capacity"][row] = scenario.fleet.capacity
            scen["idle_power_w"][row] = scenario.fleet.idle_power_w
            scen["active_power_w"][row] = scenario.fleet.active_power_w
            for j, job in enumerate(scenario.jobs):
                columns["arrival_hour"][row, j] = job.arrival_hour
                columns["duration_hours"][row, j] = job.duration_hours
                columns["energy_kwh"][row, j] = job.energy_kwh
                columns["deadline_hour"][row, j] = job.deadline_hour
                columns["preemptible"][row, j] = float(job.preemptible)
                columns["overhead_kwh"][row, j] = (
                    job.suspend_resume_overhead_kwh
                )
        return cls(
            **scen,
            **columns,
            trace_g_per_kwh=trace.hourly_g_per_kwh,
            horizon_hours=horizon_hours,
            threshold_quantile=threshold_quantile,
        )

    def row_scenario(self, row: int) -> ScheduleScenario:
        """Reconstruct one row as scalar-reference inputs (for
        cross-checks; the fleet comes back as a single equivalent
        machine)."""
        if not 0 <= row < len(self):
            raise ParameterError(f"row {row} out of range for {len(self)}")
        jobs = tuple(
            FleetJob(
                name=f"row{row}-job{j}",
                arrival_hour=int(self.arrival_hour[row, j]),
                duration_hours=float(self.duration_hours[row, j]),
                energy_kwh=float(self.energy_kwh[row, j]),
                deadline_hour=int(self.deadline_hour[row, j]),
                preemptible=bool(self.preemptible[row, j]),
                suspend_resume_overhead_kwh=float(self.overhead_kwh[row, j]),
            )
            for j in range(self.jobs_per_scenario)
        )
        fleet = FleetSpec(
            (
                Machine(
                    name=f"row{row}",
                    capacity=int(self.capacity[row]),
                    idle_power_w=float(self.idle_power_w[row]),
                    active_power_w=float(self.active_power_w[row]),
                ),
            )
        )
        return ScheduleScenario(
            window_offset=int(self.window_offset[row]),
            policy=POLICY_NAMES[int(self.policy_id[row])],
            jobs=jobs,
            fleet=fleet,
        )


#: Output series of a :class:`ScheduleBatchResult`, in storage order.
SCHEDULE_SERIES: tuple[str, ...] = (
    "emissions_g",
    "energy_kwh",
    "mean_wait_hours",
    "max_wait_hours",
    "preemptions",
    "feasible",
)


@dataclass(frozen=True)
class ScheduleBatchResult:
    """Per-scenario outcomes, one entry per batch row.

    ``feasible`` is 1.0 where every job was placed; infeasible rows carry
    NaN in every other series (never a plausible-looking number).
    """

    emissions_g: np.ndarray
    energy_kwh: np.ndarray
    mean_wait_hours: np.ndarray
    max_wait_hours: np.ndarray
    preemptions: np.ndarray
    feasible: np.ndarray

    def __post_init__(self) -> None:
        rows = self.emissions_g.shape[0]
        for name in SCHEDULE_SERIES:
            series = np.ascontiguousarray(getattr(self, name))
            if series.shape != (rows,):
                raise ParameterError(
                    f"series {name!r} has shape {series.shape}, "
                    f"expected ({rows},)"
                )
            series.setflags(write=False)
            object.__setattr__(self, name, series)

    def __len__(self) -> int:
        return self.emissions_g.shape[0]


def schedule_batch_key(batch: ScheduleBatch) -> str:
    """Content hash of a schedule batch for cache keying.

    The digest layout is domain-prefixed and structurally different from
    the engine's ``batch_key`` (trace, horizon, and 2-D job columns enter
    the hash), so schedule entries can share an
    :class:`~repro.engine.cache.EvaluationCache` with Eq. 1-8 results
    without any possibility of key collision.
    """
    digest = hashlib.sha256()
    digest.update(b"schedule-batch\x00")
    digest.update(len(batch).to_bytes(8, "little"))
    digest.update(batch.jobs_per_scenario.to_bytes(8, "little"))
    digest.update(int(batch.horizon_hours).to_bytes(8, "little"))
    digest.update(np.float64(batch.threshold_quantile).tobytes())
    digest.update(np.asarray(batch.trace_g_per_kwh).tobytes())
    for name in SCENARIO_FIELDS + JOB_FIELDS:
        digest.update(name.encode("ascii"))
        digest.update(getattr(batch, name).tobytes())
    return digest.hexdigest()


def evaluate_schedule_batch(batch: ScheduleBatch) -> ScheduleBatchResult:
    """Simulate every scenario of ``batch`` under its row's policy.

    Emits a ``scheduling.evaluate_batch`` span plus
    ``scheduling.windows`` / ``scheduling.preemptions`` counters on an
    active run context.
    """
    context = current_context()
    if context.enabled:
        with context.span(
            "scheduling.evaluate_batch",
            rows=len(batch),
            jobs=batch.jobs_per_scenario,
        ):
            result = _simulate_columns(batch)
        context.count("scheduling.windows", len(batch))
        preemptions = result.preemptions
        finite = preemptions[np.isfinite(preemptions)]
        if finite.size:
            context.count("scheduling.preemptions", float(finite.sum()))
        return result
    return _simulate_columns(batch)


def _simulate_columns(batch: ScheduleBatch) -> ScheduleBatchResult:
    """The vectorized simulation over every row at once."""
    rows = len(batch)
    jobs = batch.jobs_per_scenario
    horizon = int(batch.horizon_hours)
    row_index = np.arange(rows)
    zero = np.float64(0.0)
    one = np.float64(1.0)
    pool = _scratch_pool((rows, jobs, horizon))

    trace = np.asarray(batch.trace_g_per_kwh, dtype=np.float64)
    offsets = batch.window_offset.astype(np.int64)
    period = trace.shape[0]
    # Each row's CI view is a contiguous window of the tiled trace, so a
    # single first-axis gather over sliding windows replaces a full
    # (rows, horizon) modular index computation.
    reps = -(-(period - 1 + horizon) // period)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.tile(trace, reps), horizon
    )
    ci = np.take(
        windows,
        offsets % period,
        axis=0,
        out=_scratch(pool, "ci", (rows, horizon), np.float64),
    )
    ci_prefix = _scratch(pool, "ci_prefix", (rows, horizon + 1), np.float64)
    ci_prefix[:, 0] = zero
    np.cumsum(ci, axis=1, out=ci_prefix[:, 1:])

    capacity = batch.capacity.astype(np.int16)
    policy_id = batch.policy_id.astype(np.int64)
    idle_kw = batch.idle_power_w / WATTS_PER_KW
    active_kw = batch.active_power_w / WATTS_PER_KW

    arrival = batch.arrival_hour.astype(np.int64)
    deadline = batch.deadline_hour.astype(np.int64)
    slots = np.ceil(batch.duration_hours).astype(np.int64)
    duration = batch.duration_hours
    energy = batch.energy_kwh
    fraction = duration - (slots - 1).astype(np.float64)
    weight = energy / duration + active_kw[:, None]
    overhead = batch.overhead_kwh
    preemptible = batch.preemptible.astype(bool)
    max_slots = int(slots.max())

    order = _priority_order(policy_id, arrival, deadline, slots)

    # Pre-gather job attributes in priority order once, laid out
    # (jobs, rows): each step then reads one fully contiguous row of
    # each attribute instead of a strided column, and the narrow
    # integer dtypes keep the per-step compares cheap.  Flat take on
    # transposed indices is a single C gather per attribute.
    flat_t = row_index[None, :] * jobs + order.T
    arr_o = np.take(arrival, flat_t).astype(np.int32)
    dl_o = np.take(deadline, flat_t).astype(np.int32)
    slots_o = np.take(slots, flat_t).astype(np.int32)
    dur_o = np.take(duration, flat_t)
    frac_o = np.take(fraction, flat_t)
    weight_o = np.take(weight, flat_t)
    energy_o = np.take(energy, flat_t)
    overhead_o = np.take(overhead, flat_t)
    preempt_o = np.take(preemptible, flat_t)

    # The policy of a row never changes across job steps, so the
    # carbon-policy machinery runs on fixed row subsets: gathering the
    # subset (and its quantile threshold) once beats recomputing
    # full-width columns per step.
    waiting_idx = np.flatnonzero(policy_id == _CARBON_WAITING_ID)
    lowest_idx = np.flatnonzero(policy_id == _CARBON_LOWEST_ID)
    ci_waiting = np.take(
        ci,
        waiting_idx,
        axis=0,
        out=_scratch(
            pool, "ci_waiting", (waiting_idx.shape[0], horizon), np.float64
        ),
    )
    threshold_waiting = (
        np.quantile(ci_waiting, batch.threshold_quantile, axis=1)
        if waiting_idx.size
        else np.empty(0, dtype=np.float64)
    )
    # Edge-padded CI for the carbon_lowest rows: pricing a start hour h
    # with s slots reads columns h .. h + s - 1, so padding lets every
    # slots-group use plain slices instead of gathers.  The padded tail
    # only feeds hours the deadline mask rejects.
    n_lowest = lowest_idx.shape[0]
    ci_lowest_pad = _scratch(
        pool, "ci_lowest_pad", (n_lowest, horizon + max_slots), np.float64
    )
    ci_lowest_pad[:, :horizon] = ci[lowest_idx]
    ci_lowest_pad[:, horizon:] = ci_lowest_pad[:, horizon - 1 : horizon]
    free_pad = _scratch(
        pool, "free_pad", (rows, horizon + max_slots - 1), bool
    )
    free_pad[:, horizon:] = True
    ctx = _ColumnContext(
        horizon=horizon,
        max_slots=max_slots,
        hour_grid=np.arange(horizon, dtype=np.int32)[None, :],
        capacity=capacity,
        ci=ci,
        waiting_idx=waiting_idx,
        ci_waiting=ci_waiting,
        threshold_waiting=threshold_waiting,
        lowest_idx=lowest_idx,
        ci_lowest_pad=ci_lowest_pad,
        free_pad=free_pad,
        feasible_buf=_scratch(pool, "feasible_buf", (rows, horizon), bool),
        cost_buf=_scratch(pool, "cost_buf", (n_lowest, horizon), np.float64),
    )

    alive = np.ones(rows, dtype=bool)
    occupancy = _scratch(pool, "occupancy", (rows, horizon), np.int16)
    occupancy.fill(0)
    emissions_total = idle_kw * ci_prefix[:, horizon]
    energy_total = idle_kw * np.float64(horizon)
    wait_sum = np.zeros(rows, dtype=np.float64)
    wait_max = np.full(rows, -np.inf, dtype=np.float64)
    preempt_total = np.zeros(rows, dtype=np.int64)

    slot_grid = np.arange(max_slots, dtype=np.int32)[None, :]
    lowest_mask = policy_id == _CARBON_LOWEST_ID
    for k in range(jobs):
        arr_k = arr_o[k]
        dl_k = dl_o[k]
        slots_k = slots_o[k]
        dur_k = dur_o[k]
        frac_k = frac_o[k]
        weight_k = weight_o[k]
        energy_k = energy_o[k]
        overhead_k = overhead_o[k]
        split = preempt_o[k] & lowest_mask

        chosen, feasible_now = _choose_hours_columns(
            ctx, split, occupancy, arr_k, dl_k, slots_k, frac_k, weight_k
        )
        active = alive & feasible_now
        alive &= feasible_now

        valid = (slot_grid < slots_k[:, None]) & active[:, None]
        hour_safe = np.clip(chosen, 0, horizon - 1)
        # A job's hours are distinct within a step, so a plain fancy
        # increment is safe (and much faster than a buffered add.at).
        occ_rows, occ_slots = np.nonzero(valid)
        occupancy[occ_rows, hour_safe[occ_rows, occ_slots]] += 1

        # Chronological re-accumulation: per hour, resume overhead first,
        # then (weight * fraction) * CI — the scalar reference's exact
        # association, so chosen placements price identically.  The slot
        # matrices are built in one shot; the left-to-right column adds
        # keep the scalar reference's summation order bit-for-bit.
        ci_hours = ci[row_index[:, None], hour_safe]
        gap = np.zeros(valid.shape, dtype=bool)
        gap[:, 1:] = valid[:, 1:] & (chosen[:, 1:] > chosen[:, :-1] + 1)
        f_mat = np.where(
            slot_grid == (slots_k - 1)[:, None], frac_k[:, None], one
        )
        main = np.where(
            valid, (weight_k[:, None] * f_mat) * ci_hours, zero
        )
        over = np.where(gap, overhead_k[:, None] * ci_hours, zero)
        job_acc = np.zeros(rows, dtype=np.float64)
        for s in range(max_slots):
            if s > 0:
                job_acc = job_acc + over[:, s]
            job_acc = job_acc + main[:, s]
        job_preempts = gap.sum(axis=1)

        last_hour = chosen[row_index, np.maximum(slots_k - 1, 0)]
        completion = last_hour.astype(np.float64) + frac_k
        wait = completion - (arr_k.astype(np.float64) + dur_k)

        emissions_total = emissions_total + np.where(active, job_acc, zero)
        energy_total = energy_total + np.where(
            active,
            (energy_k + job_preempts * overhead_k) + active_kw * dur_k,
            zero,
        )
        wait_sum = wait_sum + np.where(active, wait, zero)
        wait_max = np.maximum(
            wait_max, np.where(active, wait, -np.inf)
        )
        preempt_total += np.where(active, job_preempts, 0)

    nan = np.float64(np.nan)
    feasible = alive.astype(np.float64)
    return ScheduleBatchResult(
        emissions_g=np.where(alive, emissions_total, nan),
        energy_kwh=np.where(alive, energy_total, nan),
        mean_wait_hours=np.where(
            alive, wait_sum / np.float64(jobs), nan
        ),
        max_wait_hours=np.where(alive, wait_max, nan),
        preemptions=np.where(alive, preempt_total.astype(np.float64), nan),
        feasible=feasible,
    )


def _priority_order(
    policy_id: np.ndarray,
    arrival: np.ndarray,
    deadline: np.ndarray,
    slots: np.ndarray,
) -> np.ndarray:
    """Per-row job consideration order, matching the scalar reference."""
    rows, jobs = arrival.shape
    tiebreak = np.broadcast_to(np.arange(jobs, dtype=np.int64), (rows, jobs))
    order = np.lexsort((tiebreak, arrival), axis=-1)
    edf_rows = np.flatnonzero(policy_id == POLICY_IDS["edf"])
    if edf_rows.size:
        order[edf_rows] = np.lexsort(
            (tiebreak[: edf_rows.size], arrival[edf_rows], deadline[edf_rows]),
            axis=-1,
        )
    lowest_rows = np.flatnonzero(policy_id == _CARBON_LOWEST_ID)
    if lowest_rows.size:
        slack = (deadline[lowest_rows] - slots[lowest_rows]) - arrival[
            lowest_rows
        ]
        order[lowest_rows] = np.lexsort(
            (tiebreak[: lowest_rows.size], arrival[lowest_rows], slack),
            axis=-1,
        )
    return order


@dataclass
class _ColumnContext:
    """Step-invariant state of one :func:`_simulate_columns` run.

    Policy row subsets (and their gathered CI views) are fixed across job
    steps — precomputing them lets each step run the carbon-policy
    machinery on just the rows that use it instead of the whole batch.
    ``free_pad`` is a reusable scratch buffer whose tail columns stay
    ``True`` so windows running past the horizon match the scalar
    reference's clip-at-horizon semantics; the ``*_buf`` scratch arrays
    are reused every step so the hot loop never re-allocates (large
    numpy temporaries go straight back to the OS, so fresh allocations
    would page-fault on every step).
    """

    horizon: int
    max_slots: int
    hour_grid: np.ndarray
    capacity: np.ndarray
    ci: np.ndarray
    waiting_idx: np.ndarray
    ci_waiting: np.ndarray
    threshold_waiting: np.ndarray
    lowest_idx: np.ndarray
    ci_lowest_pad: np.ndarray
    free_pad: np.ndarray
    feasible_buf: np.ndarray
    cost_buf: np.ndarray


_SCRATCH = threading.local()


def _scratch_pool(signature: tuple) -> dict:
    """Per-thread scratch arrays reused across equal-shaped evaluations.

    Chunked sweeps and repeated calls evaluate many identically shaped
    batches; recycling the large intermediates skips ~tens of MB of
    allocation and first-touch page faults per call.  Only the most
    recent signature's buffers are retained (one batch shape per
    thread), every buffer is fully (re)written before use, and no
    returned array ever aliases the pool.
    """
    if getattr(_SCRATCH, "signature", None) != signature:
        _SCRATCH.pool = {}
        _SCRATCH.signature = signature
    return _SCRATCH.pool


def _scratch(
    pool: dict, name: str, shape: tuple, dtype: "np.dtype | type"
) -> np.ndarray:
    arr = pool.get(name)
    if arr is None or arr.shape != shape or arr.dtype != dtype:
        arr = np.empty(shape, dtype)
        pool[name] = arr
    return arr


def _choose_hours_columns(
    ctx: _ColumnContext,
    split: np.ndarray,
    occupancy: np.ndarray,
    arr_k: np.ndarray,
    dl_k: np.ndarray,
    slots_k: np.ndarray,
    frac_k: np.ndarray,
    weight_k: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(chosen hours (rows, max_slots), feasible (rows,))`` for the
    current priority step's job on every row."""
    horizon = ctx.horizon
    hour_grid = ctx.hour_grid
    slot_grid = np.arange(ctx.max_slots, dtype=np.int64)[None, :]

    # A window [h, h + s) is free iff every hour in it has spare
    # capacity.  Grouping rows by slot count lets each group gather its
    # padded free rows once and AND s shifted slices of that contiguous
    # copy — the per-row window lookup never touches rows with a
    # different slot count, and the arrival/deadline masks ride along on
    # the same group slice.
    free = ctx.free_pad
    np.less(occupancy, ctx.capacity[:, None], out=free[:, :horizon])
    feasible = ctx.feasible_buf
    for s in range(1, ctx.max_slots + 1):
        group = np.flatnonzero(slots_k == s)
        if not group.size:
            continue
        padded = free[group]
        window = padded[:, :horizon] & (hour_grid >= arr_k[group, None])
        for shift in range(1, s):
            window &= padded[:, shift : shift + horizon]
        window &= hour_grid <= (dl_k[group] - s)[:, None]
        feasible[group] = window
    any_feasible = feasible.any(axis=1)

    start = np.argmax(feasible, axis=1)

    if ctx.waiting_idx.size:
        idx = ctx.waiting_idx
        feasible_w = feasible[idx]
        green = feasible_w & (ctx.ci_waiting <= ctx.threshold_waiting[:, None])
        any_green = green.any(axis=1)
        green_first = np.argmax(green, axis=1)
        last_start = horizon - 1 - np.argmax(feasible_w[:, ::-1], axis=1)
        start[idx] = np.where(any_green, green_first, last_start)

    if ctx.lowest_idx.size:
        start[ctx.lowest_idx] = _price_lowest_starts(
            ctx, slots_k, weight_k, frac_k, feasible[ctx.lowest_idx]
        )

    chosen = start[:, None] + slot_grid
    feasible_row = any_feasible

    split_idx = np.flatnonzero(split)
    if split_idx.size:
        hour_ok = (
            free[split_idx, :horizon]
            & (hour_grid >= arr_k[split_idx, None])
            & (hour_grid < dl_k[split_idx, None])
        )
        _place_split_rows(
            ctx, split_idx, hour_ok, slots_k, chosen, feasible_row
        )

    return chosen, feasible_row


def _place_split_rows(
    ctx: _ColumnContext,
    split_idx: np.ndarray,
    hour_ok: np.ndarray,
    slots_k: np.ndarray,
    chosen: np.ndarray,
    feasible_row: np.ndarray,
) -> None:
    """Place each preemptible ``carbon_lowest`` row of ``split_idx`` on
    its ``slots`` lowest-intensity allowed hours (``hour_ok``, one row
    per split row), in hour order; fills ``chosen`` and ``feasible_row``
    in place."""
    slots_s = slots_k[split_idx]
    # Stable argsort over (CI, hour): equal intensities keep hour order,
    # matching the scalar reference's sort key exactly.
    ranked = np.argsort(
        np.where(hour_ok, ctx.ci[split_idx], np.inf), axis=1, kind="stable"
    )
    take = np.arange(ranked.shape[1], dtype=np.int64)[None, :]
    selected = np.where(take < slots_s[:, None], ranked, ctx.horizon)
    chosen[split_idx] = np.sort(selected, axis=1)[:, : ctx.max_slots]
    feasible_row[split_idx] = hour_ok.sum(axis=1) >= slots_s


def _price_lowest_starts(
    ctx: _ColumnContext,
    slots_k: np.ndarray,
    weight_k: np.ndarray,
    frac_k: np.ndarray,
    feasible_l: np.ndarray,
) -> np.ndarray:
    """Cheapest feasible start hour for every ``carbon_lowest`` row.

    Each candidate hour is priced with the scalar reference's own
    arithmetic — ``cost += (weight * fraction) * ci[h + offset]`` over
    the offsets in chronological order, the final slot at its fraction —
    so exact CI ties round, and break, exactly as
    :func:`~repro.scheduling.policies._choose_hours` breaks them (a
    prefix-sum difference rounds differently, and one different start
    cascades through every later placement).  Split rows compute a cost
    too but get overwritten by the caller — they are a small minority.
    """
    horizon = ctx.horizon
    idx = ctx.lowest_idx
    slots_l = slots_k[idx]
    weight_l = weight_k[idx]
    frac_l = frac_k[idx]
    cost = ctx.cost_buf
    for s in range(1, ctx.max_slots + 1):
        group = np.flatnonzero(slots_l == s)
        if group.size:
            ci_group = ctx.ci_lowest_pad[group]
            weight = weight_l[group, None]
            final = weight * frac_l[group, None]
            total = (final if s == 1 else weight) * ci_group[:, :horizon]
            for offset in range(1, s):
                scale = final if offset == s - 1 else weight
                total += scale * ci_group[:, offset : offset + horizon]
            cost[group] = total
    cost[~feasible_l] = np.inf
    return np.argmin(cost, axis=1)


def evaluate_schedule_cached(
    batch: ScheduleBatch, cache: "EvaluationCache | None" = None
) -> ScheduleBatchResult:
    """Evaluate through an :class:`~repro.engine.cache.EvaluationCache`.

    Entries are keyed by :func:`schedule_batch_key` content (via the
    cache's generic by-key interface), so repeated sweeps over identical
    windows are served without recomputation and never collide with
    Eq. 1-8 entries.
    """
    if cache is None:
        cache = DEFAULT_CACHE
    key = schedule_batch_key(batch)
    cached = cache.peek_by_key(key, rows=len(batch))
    if cached is not None:
        return cached
    result = evaluate_schedule_batch(batch)
    cache.put_by_key(key, result)
    return result


#: Each series :func:`verify_schedule_batch` compares, with the
#: :class:`~repro.scheduling.policies.FleetSchedule` total it must equal.
_REFERENCE_TOTALS: tuple[tuple[str, str], ...] = (
    ("emissions_g", "total_emissions_g"),
    ("energy_kwh", "total_energy_kwh"),
    ("mean_wait_hours", "mean_waiting_hours"),
    ("max_wait_hours", "max_waiting_hours"),
    ("preemptions", "total_preemptions"),
)


def verify_schedule_batch(
    batch: ScheduleBatch,
    result: ScheduleBatchResult | None = None,
    *,
    sample: int = 8,
) -> int:
    """Cross-check sampled rows against the scalar reference path.

    The scheduling twin of the engine's guarded cross-check: evenly
    sampled rows are re-simulated with
    :func:`~repro.scheduling.policies.simulate_fleet`; feasibility must
    agree and, on feasible rows, every series must equal the
    :class:`~repro.scheduling.policies.FleetSchedule` total exactly
    (``==``, no tolerance — the vectorized path is bit-exact by
    contract).
    Returns the number of rows checked; raises
    :class:`~repro.core.errors.ValidationError` on any disagreement,
    naming each diverging series.
    """
    if sample < 1:
        raise ParameterError(f"sample must be >= 1, got {sample}")
    if result is None:
        result = evaluate_schedule_batch(batch)
    if len(result) != len(batch):
        raise ParameterError(
            f"result has {len(result)} rows for a {len(batch)}-row batch"
        )
    trace = CarbonIntensityTrace("verify", batch.trace_g_per_kwh)
    checked = np.unique(
        np.linspace(0, len(batch) - 1, min(sample, len(batch))).astype(int)
    )
    mismatches = []
    for row in checked:
        scenario = batch.row_scenario(int(row))
        try:
            reference = simulate_fleet(
                scenario.jobs,
                scenario.fleet,
                trace,
                scenario.policy,
                horizon_hours=batch.horizon_hours,
                window_offset=scenario.window_offset,
                threshold_quantile=batch.threshold_quantile,
            )
        except ConstraintError:
            if result.feasible[row] != 0.0:
                mismatches.append(
                    f"row {row}: scalar reference is infeasible but the "
                    f"vectorized path placed every job"
                )
            continue
        if result.feasible[row] == 0.0:
            mismatches.append(
                f"row {row}: vectorized path infeasible but the scalar "
                f"reference placed every job"
            )
            continue
        diverged = []
        for series, total in _REFERENCE_TOTALS:
            got = float(getattr(result, series)[row])
            expected = float(getattr(reference, total))
            if got != expected:
                diverged.append(
                    f"{series} {got!r} vs scalar reference {expected!r}"
                )
        if diverged:
            mismatches.append(
                f"row {row} ({scenario.policy}): " + "; ".join(diverged)
            )
    if mismatches:
        raise ValidationError(
            "vectorized schedule evaluation diverged from the scalar "
            f"reference on {len(mismatches)} of {len(checked)} sampled "
            "rows",
            mismatches,
        )
    return int(len(checked))

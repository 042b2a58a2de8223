"""Carbon-aware batch scheduler simulation."""

import random

import pytest

from repro.core.dvfs import DvfsModel
from repro.core.errors import (
    ConstraintError,
    ParameterError,
    UnknownEntryError,
)
from repro.core.intensity import (
    CarbonIntensityTrace,
    constant_trace,
    solar_diurnal_trace,
)
from repro.scheduling.fleet import (
    FleetJob,
    FleetSpec,
    Machine,
    from_simulator_job,
    single_machine_fleet,
)
from repro.scheduling.policies import simulate_fleet
from repro.scheduling.simulator import (
    EMISSIONS_FLOOR_G,
    Job,
    nightly_batch_workload,
    schedule_carbon_aware,
    schedule_fifo,
    scheduling_benefit,
)


@pytest.fixture()
def solar():
    return solar_diurnal_trace(500.0, solar_share_at_noon=0.7)


def deadlines_met(schedule):
    """Every job's last occupied hour lies before its deadline."""
    return all(
        placement.hours[-1] < placement.job.deadline_hour
        for placement in schedule.placements
    )


class TestJob:
    def test_latest_start(self):
        job = Job("j", arrival_hour=2, duration_hours=3, energy_kwh=6.0,
                  deadline_hour=10)
        assert job.latest_start == 7

    def test_impossible_deadline_rejected(self):
        with pytest.raises(ParameterError, match="deadline"):
            Job("j", arrival_hour=5, duration_hours=4, energy_kwh=1.0,
                deadline_hour=8)

    def test_emissions_spread_evenly(self):
        trace = CarbonIntensityTrace("t", (100.0, 300.0))
        job = Job("j", 0, 2, 2.0, 4)
        # 1 kWh at 100 + 1 kWh at 300.
        assert job.emissions_g(0, trace) == pytest.approx(400.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ParameterError):
            Job("j", 0, 0, 1.0, 1)


class TestFifo:
    def test_runs_at_arrival_when_free(self, solar):
        jobs = (Job("a", 3, 2, 1.0, 30),)
        schedule = schedule_fifo(jobs, solar)
        assert schedule.placements[0].start_hour == 3

    def test_serializes_overlapping_jobs(self, solar):
        jobs = (
            Job("a", 0, 3, 1.0, 30),
            Job("b", 0, 3, 1.0, 30),
        )
        schedule = schedule_fifo(jobs, solar)
        starts = sorted(p.start_hour for p in schedule.placements)
        assert starts == [0, 3]

    def test_deadline_violation_raises(self, solar):
        jobs = (
            Job("a", 0, 3, 1.0, 3),
            Job("b", 0, 3, 1.0, 3),  # cannot both finish by hour 3
        )
        with pytest.raises(ConstraintError):
            schedule_fifo(jobs, solar)

    def test_all_deadlines_met_flag(self, solar):
        schedule = schedule_fifo(nightly_batch_workload(3), solar)
        assert deadlines_met(schedule)


class TestCarbonAware:
    def test_prefers_solar_window(self, solar):
        jobs = (Job("a", 18, 2, 2.0, 18 + 24),)
        schedule = schedule_carbon_aware(jobs, solar)
        start = schedule.placements[0].start_hour % 24
        assert 8 <= start <= 14  # around midday

    def test_never_worse_than_fifo(self, solar):
        for count in (1, 3, 5):
            jobs = nightly_batch_workload(count)
            assert scheduling_benefit(jobs, solar) >= 1.0 - 1e-12

    def test_flat_grid_offers_nothing(self):
        trace = constant_trace(400.0)
        jobs = nightly_batch_workload(3)
        assert scheduling_benefit(jobs, trace) == pytest.approx(1.0)

    def test_meets_deadlines(self, solar):
        schedule = schedule_carbon_aware(nightly_batch_workload(5), solar)
        assert deadlines_met(schedule)

    def test_jobs_do_not_overlap(self, solar):
        schedule = schedule_carbon_aware(nightly_batch_workload(5), solar)
        occupied = set()
        for placement in schedule.placements:
            hours = set(placement.hours)
            assert not hours & occupied
            occupied |= hours

    def test_tight_jobs_still_feasible(self, solar):
        jobs = (
            Job("urgent", 0, 4, 2.0, 4),  # zero slack
            Job("flexible", 0, 2, 2.0, 48),
        )
        schedule = schedule_carbon_aware(jobs, solar)
        assert deadlines_met(schedule)
        assert schedule.placement_for("urgent").start_hour == 0

    def test_infeasible_set_raises(self, solar):
        jobs = (
            Job("a", 0, 4, 1.0, 4),
            Job("b", 0, 4, 1.0, 4),
        )
        with pytest.raises(ConstraintError):
            schedule_carbon_aware(jobs, solar)

    def test_missing_placement_lookup(self, solar):
        schedule = schedule_carbon_aware(nightly_batch_workload(2), solar)
        with pytest.raises(ConstraintError):
            schedule.placement_for("nonexistent")

    def test_benefit_meaningful_on_solar_grid(self, solar):
        assert scheduling_benefit(nightly_batch_workload(4), solar) > 1.2


class TestWorkloadFactory:
    def test_count(self):
        assert len(nightly_batch_workload(6)) == 6

    def test_all_jobs_have_slack(self):
        for job in nightly_batch_workload(5):
            assert job.latest_start > job.arrival_hour


class TestSchedulingBenefitFloor:
    def test_zero_ci_aware_schedule_stays_finite(self):
        # Regression: a carbon-aware schedule landing wholly in zero-CI
        # hours used to return inf, poisoning downstream means.
        import math

        trace = CarbonIntensityTrace("t", (400.0, 0.0))
        jobs = (Job("j", 0, 1, 2.0, 10),)
        benefit = scheduling_benefit(jobs, trace)
        assert math.isfinite(benefit)
        assert benefit == pytest.approx(800.0 / EMISSIONS_FLOOR_G)

    def test_fully_green_grid_reports_no_opportunity(self):
        trace = CarbonIntensityTrace("t", (0.0,))
        jobs = (Job("j", 0, 1, 2.0, 10),)
        assert scheduling_benefit(jobs, trace) == pytest.approx(1.0)


class TestMachine:
    def test_uncapped_machine_does_not_throttle(self):
        assert Machine("m").throttle() == (1.0, 1.0)

    def test_power_cap_without_dvfs_rejected(self):
        with pytest.raises(ParameterError, match="DvfsModel"):
            Machine("m", power_cap_w=2.0)

    def test_cap_below_min_frequency_power_rejected(self):
        with pytest.raises(ParameterError, match="below"):
            Machine("m", dvfs=DvfsModel(), power_cap_w=0.01)

    def test_cap_above_max_power_is_noop(self):
        dvfs = DvfsModel()
        cap = dvfs.power_w(dvfs.f_max_ghz) + 1.0
        assert Machine("m", dvfs=dvfs, power_cap_w=cap).throttle() == (1.0, 1.0)

    def test_throttle_trades_time_for_energy(self):
        dvfs = DvfsModel()
        slowdown, energy_factor = Machine(
            "m", dvfs=dvfs, power_cap_w=2.0
        ).throttle()
        assert slowdown > 1.0
        assert energy_factor < 1.0
        # The chosen operating point really fits under the cap.
        assert dvfs.power_w(dvfs.f_max_ghz / slowdown) <= 2.0 + 1e-9

    def test_fractional_capacity_rejected(self):
        with pytest.raises(ParameterError, match="whole number"):
            Machine("m", capacity=1.5)


class TestFleetSpec:
    def test_capacity_sums_over_machines(self):
        fleet = FleetSpec((Machine("a", capacity=2), Machine("b", capacity=3)))
        assert fleet.capacity == 5

    def test_idle_power_sums_over_machines(self):
        fleet = FleetSpec(
            (Machine("a", idle_power_w=5.0), Machine("b", idle_power_w=5.0))
        )
        assert fleet.idle_power_w == pytest.approx(10.0)

    def test_heterogeneous_power_profiles_rejected(self):
        with pytest.raises(ConstraintError, match="homogeneous"):
            FleetSpec(
                (Machine("a", idle_power_w=5.0), Machine("b", idle_power_w=9.0))
            )

    def test_empty_fleet_rejected(self):
        with pytest.raises(ParameterError):
            FleetSpec(())

    def test_effective_duration_and_energy_apply_cap(self):
        dvfs = DvfsModel()
        fleet = FleetSpec((Machine("m", dvfs=dvfs, power_cap_w=2.0),))
        slowdown, factor = fleet.machines[0].throttle()
        assert fleet.effective_duration(4.0) == pytest.approx(4.0 * slowdown)
        assert fleet.effective_energy(3.0) == pytest.approx(3.0 * factor)

    def test_single_machine_fleet_is_degenerate(self):
        fleet = single_machine_fleet()
        assert fleet.capacity == 1
        assert fleet.idle_power_w == 0.0
        assert fleet.active_power_w == 0.0
        assert fleet.slowdown == 1.0


class TestFleetJob:
    def test_fractional_duration_slots(self):
        job = FleetJob("j", 0, 2.5, 5.0, 10)
        assert job.slots == 3
        assert job.final_slot_fraction == pytest.approx(0.5)
        assert job.energy_per_full_hour_kwh == pytest.approx(2.0)

    def test_deadline_accounts_for_ceil(self):
        with pytest.raises(ParameterError, match="deadline"):
            FleetJob("j", 0, 2.5, 1.0, 2)

    def test_from_simulator_job_round_trip(self):
        lifted = from_simulator_job(Job("j", 2, 3, 6.0, 12))
        assert lifted.slots == 3
        assert lifted.final_slot_fraction == 1.0
        assert not lifted.preemptible
        assert lifted.suspend_resume_overhead_kwh == 0.0


class TestSimulateFleet:
    """``schedule_fifo`` and ``schedule_carbon_aware`` run through
    :func:`simulate_fleet`; they must reproduce, bit for bit, the table
    the former standalone single-machine simulator produced."""

    def test_fifo_matches_pinned_simulator(self):
        assert golden_mismatches(schedule_fifo, 0) == []

    def test_carbon_lowest_matches_pinned_carbon_aware(self):
        assert golden_mismatches(schedule_carbon_aware, 1) == []

    def test_golden_table_covers_random_and_infeasible_sets(self):
        cases = golden_cases()
        assert [case for case, _, _ in cases] == list(GOLDEN)
        assert len(cases) - 6 >= 200
        for column in (0, 1):
            infeasible = [
                case for case, row in GOLDEN.items() if row[column] == "infeasible"
            ]
            assert 0 < len(infeasible) < len(GOLDEN) // 4

    def test_unknown_policy_rejected(self, solar):
        with pytest.raises(UnknownEntryError):
            simulate_fleet((), single_machine_fleet(), solar, "greedy")

    def test_capacity_allows_parallel_jobs(self, solar):
        fleet = FleetSpec((Machine("m", capacity=2),))
        jobs = (
            FleetJob("a", 0, 2.0, 1.0, 2),
            FleetJob("b", 0, 2.0, 1.0, 2),
        )
        schedule = simulate_fleet(jobs, fleet, solar, "fifo")
        assert {p.start_hour for p in schedule.placements} == {0}

    def test_over_capacity_infeasible_raises(self, solar):
        jobs = (
            FleetJob("a", 0, 2.0, 1.0, 2),
            FleetJob("b", 0, 2.0, 1.0, 2),
        )
        with pytest.raises(ConstraintError):
            simulate_fleet(jobs, single_machine_fleet(), solar, "fifo")

    def test_deadline_beyond_horizon_rejected(self, solar):
        jobs = (FleetJob("j", 0, 1.0, 1.0, 10),)
        with pytest.raises(ParameterError, match="horizon"):
            simulate_fleet(
                jobs, single_machine_fleet(), solar, "fifo", horizon_hours=5
            )

    def test_edf_rescues_tight_deadline_fifo_would_miss(self):
        trace = constant_trace(100.0)
        jobs = (
            FleetJob("late", 0, 1.0, 1.0, 10),
            FleetJob("tight", 0, 1.0, 1.0, 1),
        )
        schedule = simulate_fleet(jobs, single_machine_fleet(), trace, "edf")
        assert schedule.placement_for("tight").start_hour == 0
        assert schedule.placement_for("late").start_hour == 1
        with pytest.raises(ConstraintError):
            simulate_fleet(jobs, single_machine_fleet(), trace, "fifo")

    def test_carbon_waiting_defers_to_green_hour(self):
        trace = CarbonIntensityTrace("t", (400.0, 400.0, 100.0, 400.0))
        jobs = (FleetJob("j", 0, 1.0, 1.0, 4),)
        schedule = simulate_fleet(
            jobs,
            single_machine_fleet(),
            trace,
            "carbon_waiting",
            threshold_quantile=0.25,
        )
        assert schedule.placements[0].start_hour == 2
        assert schedule.placements[0].waiting_hours == pytest.approx(2.0)

    def test_carbon_waiting_without_green_hour_takes_latest_start(self):
        trace = CarbonIntensityTrace("t", (100.0, 400.0, 400.0, 400.0))
        jobs = (FleetJob("j", 1, 1.0, 1.0, 4),)
        schedule = simulate_fleet(
            jobs,
            single_machine_fleet(),
            trace,
            "carbon_waiting",
            threshold_quantile=0.25,
        )
        assert schedule.placements[0].start_hour == 3

    def test_preemptible_job_splits_across_green_hours(self):
        trace = CarbonIntensityTrace("t", (100.0, 900.0, 100.0, 900.0))
        jobs = (
            FleetJob(
                "j", 0, 2.0, 2.0, 4,
                preemptible=True,
                suspend_resume_overhead_kwh=0.5,
            ),
        )
        schedule = simulate_fleet(
            jobs, single_machine_fleet(), trace, "carbon_lowest"
        )
        placement = schedule.placements[0]
        assert placement.hours == (0, 2)
        assert placement.preemptions == 1
        # 1 kWh at hours 0 and 2, plus the 0.5 kWh resume priced at hour 2.
        assert placement.emissions_g == pytest.approx(100.0 + 50.0 + 100.0)
        assert placement.energy_kwh == pytest.approx(2.5)
        assert placement.waiting_hours == pytest.approx(1.0)

    def test_idle_and_active_power_are_charged(self):
        trace = CarbonIntensityTrace("t", (100.0, 200.0))
        fleet = FleetSpec(
            (Machine("m", idle_power_w=1000.0, active_power_w=500.0),)
        )
        jobs = (FleetJob("j", 0, 1.0, 1.0, 2),)
        schedule = simulate_fleet(jobs, fleet, trace, "fifo")
        assert schedule.idle_emissions_g == pytest.approx(300.0)
        assert schedule.idle_energy_kwh == pytest.approx(2.0)
        placement = schedule.placements[0]
        assert placement.emissions_g == pytest.approx(150.0)
        assert placement.active_energy_kwh == pytest.approx(0.5)
        assert schedule.total_emissions_g == pytest.approx(450.0)
        assert schedule.total_energy_kwh == pytest.approx(3.5)

    def test_job_starting_on_arrival_waits_zero(self, solar):
        jobs = (FleetJob("j", 3, 2.0, 1.0, 30),)
        schedule = simulate_fleet(jobs, single_machine_fleet(), solar, "fifo")
        assert schedule.placements[0].waiting_hours == pytest.approx(0.0)
        assert schedule.mean_waiting_hours == 0.0
        assert schedule.max_waiting_hours == 0.0


# --- the golden single-machine scheduler table ---------------------------

#: Seeded random job sets in the golden table (plus the nightly workload
#: at counts 1-6).
GOLDEN_RANDOM_SETS = 200


def golden_cases():
    """``(case id, jobs, trace)`` for every row of :data:`GOLDEN`.

    Random sets draw only from ``random.Random.random()``, the one stream
    Python keeps stable across versions.  A third of them run on the
    solar trace, a third on a random 24-hour trace and a third on a
    12-hour trace of four levels (many emission ties); names are shuffled
    so input order and name order differ.
    """
    solar = solar_diurnal_trace(500.0, solar_share_at_noon=0.7)
    cases = [
        (f"nightly-{count}", nightly_batch_workload(count), solar)
        for count in range(1, 7)
    ]
    for seed in range(GOLDEN_RANDOM_SETS):
        rng = random.Random(seed)

        def draw(n):
            return int(rng.random() * n)

        kind = seed % 3
        if kind == 0:
            trace = solar
        elif kind == 1:
            trace = CarbonIntensityTrace(
                f"r{seed}", tuple(50.0 + 850.0 * rng.random() for _ in range(24))
            )
        else:
            trace = CarbonIntensityTrace(
                f"q{seed}", tuple(100.0 * (1 + draw(4)) for _ in range(12))
            )
        count = 1 + draw(6)
        names = [f"job{k}" for k in range(count)]
        for k in range(count - 1, 0, -1):
            j = draw(k + 1)
            names[k], names[j] = names[j], names[k]
        jobs = []
        for name in names:
            arrival = draw(30)
            duration = 1 + draw(5)
            energy = (
                float(1 + draw(5)) if seed % 2 else 0.5 + 9.5 * rng.random()
            )
            jobs.append(
                Job(name, arrival, duration, energy, arrival + duration + draw(24))
            )
        cases.append((f"{'sqr'[kind]}{seed}", tuple(jobs), trace))
    return cases


def render(schedule_fn, jobs, trace):
    """One golden cell: placements in schedule order as
    ``name@start=float.hex(emissions)``, then the total, or
    ``"infeasible"``."""
    try:
        schedule = schedule_fn(jobs, trace)
    except ConstraintError:
        return "infeasible"
    cells = [
        f"{p.job.name}@{p.start_hour}={p.emissions_g.hex()}"
        for p in schedule.placements
    ]
    cells.append(f"total={float(schedule.total_emissions_g).hex()}")
    return " ".join(cells)


def golden_mismatches(schedule_fn, column):
    """The case ids whose rendering differs from ``GOLDEN[case][column]``."""
    return [
        case
        for case, jobs, trace in golden_cases()
        if render(schedule_fn, jobs, trace) != GOLDEN[case][column]
    ]


#: ``case id -> (fifo, carbon-aware)`` as rendered by :func:`render` from
#: the standalone single-machine simulator these functions replaced.
GOLDEN = {
    'nightly-1': (
        'batch-0@18=0x1.7700000000000p+10 total=0x1.7700000000000p+10',
        'batch-0@35=0x1.1442d2783262ap+9 total=0x1.1442d2783262ap+9',
    ),
    'nightly-2': (
        'batch-0@18=0x1.7700000000000p+10 batch-1@20=0x1.f400000000000p+10 total=0x1.b580000000000p+11',
        'batch-0@33=0x1.72ea1ad1aeef6p+9 batch-1@35=0x1.73ff5408e21b8p+9 total=0x1.7374b76d48857p+10',
    ),
    'nightly-3': (
        'batch-0@18=0x1.7700000000000p+10 batch-1@20=0x1.f400000000000p+10 batch-2@23=0x1.3880000000000p+11 total=0x1.7700000000000p+12',
        'batch-0@32=0x1.cb1e10c55978cp+9 batch-2@34=0x1.e756bc7d45dcap+9 batch-1@38=0x1.15f7b0e5b9d68p+10 total=0x1.77990bc384c0ap+11',
    ),
    'nightly-4': (
        'batch-0@18=0x1.7700000000000p+10 batch-1@20=0x1.f400000000000p+10 batch-2@23=0x1.3880000000000p+11 batch-3@27=0x1.7700000000000p+11 total=0x1.1940000000000p+13',
        'batch-0@32=0x1.cb1e10c55978cp+9 batch-2@34=0x1.e756bc7d45dcap+9 batch-1@38=0x1.15f7b0e5b9d68p+10 batch-3@41=0x1.57d0c73fd2db5p+11 total=0x1.67b4e981abce0p+12',
    ),
    'nightly-5': (
        'batch-0@18=0x1.7700000000000p+10 batch-1@20=0x1.f400000000000p+10 batch-2@23=0x1.3880000000000p+11 batch-3@27=0x1.7700000000000p+11 batch-4@29=0x1.9d3ed3dc4eaabp+11 total=0x1.808fb4f713aabp+13',
        'batch-0@18=0x1.7700000000000p+10 batch-4@31=0x1.2c1fda61f1761p+11 batch-2@34=0x1.e756bc7d45dcap+9 batch-1@38=0x1.15f7b0e5b9d68p+10 batch-3@41=0x1.57d0c73fd2db5p+11 total=0x1.11108a4cfcacfp+13',
    ),
    'nightly-6': (
        'batch-0@18=0x1.7700000000000p+10 batch-1@20=0x1.f400000000000p+10 batch-2@23=0x1.3880000000000p+11 batch-3@27=0x1.7700000000000p+11 batch-4@29=0x1.9d3ed3dc4eaabp+11 batch-5@32=0x1.ffc67c0f1ebf5p+10 total=0x1.c0888478f782ap+13',
        'batch-0@18=0x1.7700000000000p+10 batch-4@22=0x1.b580000000000p+11 batch-3@25=0x1.7700000000000p+11 batch-1@31=0x1.56ffd5023886ep+10 batch-2@34=0x1.e756bc7d45dcap+9 batch-5@38=0x1.38af9ed6d7f32p+11 total=0x1.91814e1dd16b8p+13',
    ),
    's0': (
        'infeasible',
        'job4@13=0x1.256d321be0aa0p+11 job3@18=0x1.1db4b727f75acp+12 job2@28=0x1.2aa117bbb3d8cp+11 job0@32=0x1.b99d84d517a28p+9 job5@35=0x1.cefbb20c56a1ep+9 job1@37=0x1.f06ac117cc95ap+9 total=0x1.7a6e2d89747bcp+13',
    ),
    'q1': (
        'job1@0=0x1.5e72b71adcfbap+10 job0@6=0x1.4b113540a9138p+10 total=0x1.54c1f62dc3079p+11',
        'job1@8=0x1.31d062ad7fe2ep+8 job0@13=0x1.e05e87d7bad85p+8 total=0x1.891775429d5dap+9',
    ),
    'r2': (
        'job2@8=0x1.c86f89145c3adp+7 job1@9=0x1.507332d46e560p+11 job0@29=0x1.8ce0b35787f1dp+10 total=0x1.19b54288bc095p+12',
        'job2@11=0x1.304a5b62e8273p+6 job1@14=0x1.c099991b3dc80p+9 job0@35=0x1.37d51f327d197p+10 total=0x1.159348bb253ffp+11',
    ),
    's3': (
        'job1@0=0x1.f400000000000p+9 job0@11=0x1.85defd3104b08p+9 total=0x1.bcef7e9882584p+10',
        'job1@5=0x1.95ccb301551dcp+9 job0@11=0x1.85defd3104b08p+9 total=0x1.8dd5d8192ce72p+10',
    ),
    'q4': (
        'job0@8=0x1.2bafac5559a8fp+11 job4@14=0x1.1042c93a4fdfdp+11 job5@16=0x1.a961c1999c516p+12 job2@18=0x1.aa3740f8b3019p+9 job3@24=0x1.d73c02d617317p+7 job1@26=0x1.f9617ea6f8d9ep+10 total=0x1.c4da12207b330p+13',
        'job0@12=0x1.d82e644703ca0p+9 job4@19=0x1.f6bd6c45e3638p+10 job2@24=0x1.0687e8e355538p+9 job5@27=0x1.4922a780efd38p+10 job3@33=0x1.c0ab5c76a77aap+7 job1@34=0x1.6a92d5d9de983p+10 total=0x1.9478def12cd35p+12',
    ),
    'r5': (
        'job0@4=0x1.f400000000000p+7 job2@17=0x1.9000000000000p+9 job1@27=0x1.2c00000000000p+8 total=0x1.5180000000000p+10',
        'job0@4=0x1.f400000000000p+7 job2@18=0x1.9000000000000p+7 job1@28=0x1.f400000000000p+7 total=0x1.5e00000000000p+9',
    ),
    's6': (
        'infeasible',
        'job0@12=0x1.57368a46b8b5cp+10 job4@20=0x1.cd00eef48cfabp+10 job3@25=0x1.e2570e7911e3ap+11 job1@30=0x1.0893aa9e6f3eep+10 job2@35=0x1.75ca4d2e8ea3ap+10 total=0x1.2ce871bf4ceb4p+13',
    ),
    'q7': (
        'job0@3=0x1.81ab499e59dfap+10 total=0x1.81ab499e59dfap+10',
        'job0@5=0x1.1f958be56c5d8p+10 total=0x1.1f958be56c5d8p+10',
    ),
    'r8': (
        'job0@2=0x1.13f78aee0d467p+7 job1@12=0x1.9a1f2470f6758p+9 total=0x1.df1d072c79c72p+9',
        'job0@4=0x1.13f78aee0d467p+6 job1@12=0x1.9a1f2470f6758p+9 total=0x1.bc9e15ceb81e5p+9',
    ),
    's9': (
        'job0@2=0x1.f400000000000p+10 job1@11=0x1.24673de4c3846p+9 job2@25=0x1.7700000000000p+10 total=0x1.fe99cf7930e12p+11',
        'job0@2=0x1.f400000000000p+10 job1@11=0x1.24673de4c3846p+9 job2@36=0x1.0c0cccccccccdp+9 total=0x1.861d02ac64145p+11',
    ),
    'q10': (
        'infeasible',
        'infeasible',
    ),
    'r11': (
        'job0@24=0x1.1300000000000p+8 total=0x1.1300000000000p+8',
        'job0@34=0x1.9000000000000p+7 total=0x1.9000000000000p+7',
    ),
    's12': (
        'job0@4=0x1.fb855d9720797p+10 job1@19=0x1.248854103973ap+11 job2@24=0x1.845d784a7d3e2p+11 total=0x1.d3543d9323774p+12',
        'job0@10=0x1.c229bd76eff5bp+9 job1@19=0x1.248854103973ap+11 job2@34=0x1.2ed31b1bc586ap+10 total=0x1.163e287dec1a3p+12',
    ),
    'q13': (
        'job3@4=0x1.465e384e4182cp+9 job1@8=0x1.bd67fe424430cp+9 job2@11=0x1.21c6d929c7889p+10 job0@16=0x1.5b9f2b6149d71p+8 job4@19=0x1.7e37b95fd0bd6p+9 job5@29=0x1.f523740b3e3a6p+9 total=0x1.2d0fd57ff9150p+12',
        'job3@4=0x1.465e384e4182cp+9 job1@9=0x1.2a0a3da4d68a6p+9 job0@16=0x1.5b9f2b6149d71p+8 job2@28=0x1.03d4f9acd854ap+10 job4@29=0x1.a50f8d2f63544p+7 job5@39=0x1.983725e8d5344p+9 total=0x1.c9d7420c86eadp+11',
    ),
    'r14': (
        'job0@6=0x1.fb2b9cab36438p+9 total=0x1.fb2b9cab36438p+9',
        'job0@8=0x1.d42841d91e65bp+9 total=0x1.d42841d91e65bp+9',
    ),
    's15': (
        'job3@6=0x1.3a0c4090f2f8bp+10 job2@9=0x1.35186baebc722p+10 job4@11=0x1.705918a0432e4p+9 job0@16=0x1.1b9260d96c750p+10 job5@23=0x1.3880000000000p+11 job1@26=0x1.3880000000000p+11 total=0x1.249c732d27aeep+13',
        'job3@7=0x1.013fdfc1aa653p+10 job4@11=0x1.705918a0432e4p+9 job2@13=0x1.011f0d191bdfcp+10 job1@31=0x1.86db868c8deffp+10 job5@35=0x1.cc6f5ec853f9cp+9 job0@37=0x1.348ba95154a62p+9 total=0x1.707920f112870p+12',
    ),
    'q16': (
        'job1@7=0x1.32aa84dbedc8fp+10 job0@19=0x1.4a90d7cae20a6p+10 total=0x1.3e9dae5367e9ap+11',
        'job1@8=0x1.9e0f5be9870dfp+9 job0@20=0x1.1fe02a3e4a830p+10 total=0x1.eee7d8330e0a0p+10',
    ),
    'r17': (
        'job0@12=0x1.5400000000000p+8 job1@19=0x1.9000000000000p+6 job3@26=0x1.9000000000000p+10 job2@28=0x1.0680000000000p+10 total=0x1.8240000000000p+11',
        'job0@19=0x1.6800000000000p+7 job3@31=0x1.9000000000000p+8 job1@32=0x1.2c00000000000p+7 job2@43=0x1.2c00000000000p+8 total=0x1.0180000000000p+10',
    ),
    's18': (
        'job0@10=0x1.1d851c2a2c4a9p+10 job1@14=0x1.a2c36c0c265b8p+9 total=0x1.eee6d2303f785p+10',
        'job0@12=0x1.cc301770aa497p+9 job1@14=0x1.a2c36c0c265b8p+9 total=0x1.b779c1be68528p+10',
    ),
    'q19': (
        'job0@21=0x1.303c24d9c5a5fp+10 total=0x1.303c24d9c5a5fp+10',
        'job0@30=0x1.fba27cb785aa0p+8 total=0x1.fba27cb785aa0p+8',
    ),
    'r20': (
        'job0@9=0x1.4dd9fc13bef92p+10 total=0x1.4dd9fc13bef92p+10',
        'job0@9=0x1.4dd9fc13bef92p+10 total=0x1.4dd9fc13bef92p+10',
    ),
    's21': (
        'job0@20=0x1.7700000000000p+10 total=0x1.7700000000000p+10',
        'job0@20=0x1.7700000000000p+10 total=0x1.7700000000000p+10',
    ),
    'q22': (
        'job2@0=0x1.2544914f17164p+11 job0@7=0x1.c0209c334be59p+10 job4@12=0x1.19fdca9f494ccp+11 job5@15=0x1.56011fc65b5fdp+12 job3@20=0x1.2f9dd8b2caa82p+8 job1@28=0x1.2e571f6e37611p+9 total=0x1.8f379b21a910bp+13',
        'job2@1=0x1.8d84c35e0f7f2p+10 job0@7=0x1.c0209c334be59p+10 job5@17=0x1.f911891afb59ep+11 job4@21=0x1.a7b27428e57c9p+10 job3@26=0x1.0ef536855e179p+6 job1@28=0x1.2e571f6e37611p+9 total=0x1.31f2b921f524ep+13',
    ),
    'r23': (
        'job0@2=0x1.7700000000000p+9 total=0x1.7700000000000p+9',
        'job0@7=0x1.7700000000000p+8 total=0x1.7700000000000p+8',
    ),
    's24': (
        'job1@20=0x1.e1280566a81e5p+11 job3@21=0x1.e6074d8b11857p+11 job2@25=0x1.8f8901c6dcf1fp+9 job0@30=0x1.c30d2e878d5a6p+10 job4@34=0x1.ac433c6c5a048p+10 total=0x1.78ae72375923fp+13',
        'job1@20=0x1.e1280566a81e5p+11 job2@25=0x1.8f8901c6dcf1fp+9 job3@30=0x1.73917e1d838bdp+11 job0@34=0x1.cc0b7b8437b2ap+9 job4@38=0x1.ac433c6c5a047p+10 total=0x1.4070104347756p+13',
    ),
    'q25': (
        'job1@1=0x1.05cd9e57ae10fp+12 job2@5=0x1.bb3e8e916cdbap+10 job0@12=0x1.82b4091c55ae0p+10 job3@16=0x1.56ef961e4cf09p+9 total=0x1.00141b837428cp+13',
        'job1@3=0x1.21ec730da51d2p+10 job2@6=0x1.021994780050ap+8 job0@20=0x1.d71fad0c17364p+9 job3@32=0x1.49458dc9782e2p+8 total=0x1.502a0912076bfp+11',
    ),
    'r26': (
        'job5@0=0x1.27e87e2906368p+9 job3@5=0x1.ca71516d1d524p+7 job4@16=0x1.170a17367cf74p+11 job0@25=0x1.8c10971daed2ap+9 job2@30=0x1.15239ac8ee529p+11 job1@32=0x1.036943f6f01b9p+9 total=0x1.9b56aeb2d3341p+12',
        'job5@0=0x1.27e87e2906368p+9 job3@7=0x1.ca71516d1d524p+5 job4@16=0x1.170a17367cf74p+11 job2@25=0x1.bb6c2adb16ea8p+9 job0@27=0x1.01712f067e6f5p+10 job1@37=0x1.59e1aff3eacf7p+7 total=0x1.36afdc9fdb4cbp+12',
    ),
    's27': (
        'infeasible',
        'job3@3=0x1.6a86b619878afp+10 job1@9=0x1.a504fc75293adp+8 job0@35=0x1.da1ebd90a7f38p+9 job2@36=0x1.af7348dbeb8c0p+9 total=0x1.cc487c368dccbp+11',
    ),
    'q28': (
        'job0@3=0x1.89de5ad5aaf53p+10 job1@7=0x1.06ede9943bad2p+12 total=0x1.69658049a66a7p+12',
        'job1@10=0x1.52b98e3024c34p+10 job0@14=0x1.ff828b8dcb802p+9 total=0x1.293d69fb8541ap+11',
    ),
    'r29': (
        'job1@2=0x1.0400000000000p+9 job4@7=0x1.5e00000000000p+9 job2@15=0x1.7700000000000p+9 job5@17=0x1.c200000000000p+9 job0@21=0x1.9000000000000p+9 job3@22=0x1.2c00000000000p+9 total=0x1.0ae0000000000p+12',
        'job1@5=0x1.b800000000000p+8 job4@10=0x1.2c00000000000p+9 job0@20=0x1.9000000000000p+8 job5@21=0x1.9000000000000p+9 job2@32=0x1.c200000000000p+8 job3@34=0x1.2c00000000000p+9 total=0x1.9b40000000000p+11',
    ),
    's30': (
        'job2@6=0x1.e9c07b8a83eaap+10 job0@8=0x1.56957e2c3f052p+9 job1@17=0x1.261e22a4f5ec3p+12 job3@29=0x1.25592ffe598d2p+12 total=0x1.785d10a5bc2a5p+13',
        'job2@11=0x1.8985e9e37b465p+9 job0@13=0x1.7ee923af13583p+8 job1@32=0x1.249db126b48a1p+11 job3@37=0x1.1b51b447334d8p+11 total=0x1.6917022e548a1p+12',
    ),
    'q31': (
        'job0@10=0x1.e6d5582e985eep+10 job1@17=0x1.10a2827edf8d1p+11 total=0x1.0206974b15de4p+12',
        'job0@16=0x1.eb23f2f93aef1p+8 job1@28=0x1.d3148ca3911b0p+9 total=0x1.6453431017494p+10',
    ),
    'r32': (
        'job0@3=0x1.9674ab0bab842p+8 job2@8=0x1.7413316125819p+11 job1@25=0x1.21e771f097771p+9 total=0x1.ef5ba33ec0cfdp+11',
        'job0@4=0x1.9674ab0bab841p+8 job2@12=0x1.7413316125819p+9 job1@25=0x1.21e771f097771p+9 total=0x1.b09a7c6bc95d6p+10',
    ),
    's33': (
        'job2@9=0x1.72ea1ad1aeef6p+9 job3@15=0x1.acbfca42c6a8ap+10 job0@19=0x1.7700000000000p+10 job1@23=0x1.3880000000000p+11 total=0x1.938d35eae7881p+12',
        'job2@10=0x1.348ba95154a62p+9 job3@15=0x1.acbfca42c6a8ap+10 job1@19=0x1.3880000000000p+11 job0@34=0x1.24673de4c3846p+9 total=0x1.528e4f7774af8p+12',
    ),
    'q34': (
        'job1@8=0x1.16c3f8a12cc4cp+11 job2@13=0x1.497e2b431919ep+12 job3@16=0x1.77e3e86e78a9cp+10 job0@22=0x1.fc374101dc0e3p+10 total=0x1.58f378f7e2552p+13',
        'job1@8=0x1.16c3f8a12cc4cp+11 job2@13=0x1.497e2b431919ep+12 job3@16=0x1.77e3e86e78a9cp+10 job0@23=0x1.f77d42b048528p+10 total=0x1.585c392dafddbp+13',
    ),
    'r35': (
        'job0@0=0x1.5e00000000000p+9 job3@4=0x1.9000000000000p+7 job1@5=0x1.9000000000000p+8 job2@16=0x1.9000000000000p+10 job4@21=0x1.9000000000000p+9 total=0x1.ce80000000000p+11',
        'job0@0=0x1.5e00000000000p+9 job1@4=0x1.9000000000000p+7 job3@10=0x1.9000000000000p+7 job2@16=0x1.9000000000000p+10 job4@22=0x1.9000000000000p+8 total=0x1.8380000000000p+11',
    ),
    's36': (
        'job1@0=0x1.64935d436dc1cp+10 job0@28=0x1.c378413e08616p+11 total=0x1.3ae0f7efdfa12p+12',
        'job1@10=0x1.16097b7b02216p+9 job0@34=0x1.90ccfd1017eddp+10 total=0x1.0de8dd66cc7f4p+11',
    ),
    'q37': (
        'job1@0=0x1.7ac875bf59c16p+8 job3@15=0x1.e4dd11fd9ab02p+10 job0@19=0x1.348a59c24ccfap+8 job2@24=0x1.15a5ddba902f2p+11 job4@27=0x1.284c9abbe7c1ap+10 total=0x1.79128703c31d0p+12',
        'job1@8=0x1.403f3bb43e05dp+8 job3@15=0x1.e4dd11fd9ab02p+10 job0@19=0x1.348a59c24ccfap+8 job2@31=0x1.a279885aef6d7p+10 job4@35=0x1.d0ffec634e91dp+9 total=0x1.43423d79f5070p+12',
    ),
    'r38': (
        'job0@6=0x1.13d2c71f41555p+10 job1@15=0x1.95afd5ab8c538p+8 job2@20=0x1.7c5b9b4d71616p+10 total=0x1.7acd2bebcae5cp+11',
        'job0@7=0x1.e2b0dc76b2554p+9 job1@15=0x1.95afd5ab8c538p+8 job2@20=0x1.7c5b9b4d71616p+10 total=0x1.698fff79d6d07p+11',
    ),
    's39': (
        'job1@5=0x1.7700000000000p+10 job0@7=0x1.7a188121e5f16p+8 total=0x1.d5862048797c6p+10',
        'job1@11=0x1.1442d2783262ap+9 job0@13=0x1.9b64e1c1c632dp+7 total=0x1.7b1c0ae8a3ef5p+9',
    ),
    'q40': (
        'job4@3=0x1.1603d53d45487p+11 job2@8=0x1.97d0cc4fb7d6ap+10 job5@9=0x1.e5c0c8dd47df8p+8 job3@18=0x1.61a00201f8be3p+9 job1@24=0x1.0eb55967fa614p+12 job0@29=0x1.abb2c114813b0p+10 total=0x1.5a941a16df6fdp+13',
        'job4@3=0x1.1603d53d45487p+11 job2@10=0x1.2ffff11125baep+7 job5@17=0x1.517ce98017ca4p+8 job3@29=0x1.f4e037e94a22fp+8 job1@41=0x1.777e3ca401efep+11 job0@50=0x1.6eba6d3deddd2p+10 total=0x1.e05575df3e602p+12',
    ),
    'r41': (
        'job3@0=0x1.1300000000000p+10 job0@5=0x1.2c00000000000p+10 job4@7=0x1.2c00000000000p+10 job2@12=0x1.1300000000000p+10 job1@19=0x1.2c00000000000p+8 job5@23=0x1.5e00000000000p+7 total=0x1.3d30000000000p+12',
        'job3@0=0x1.1300000000000p+10 job0@6=0x1.f400000000000p+9 job2@10=0x1.1300000000000p+10 job4@16=0x1.1800000000000p+10 job5@23=0x1.5e00000000000p+7 job1@35=0x1.5e00000000000p+7 total=0x1.23e0000000000p+12',
    ),
    's42': (
        'job3@0=0x1.a11e6f3e2d2cap+11 job0@6=0x1.aca761b482ea8p+11 job2@12=0x1.cc8550643274ep+8 job1@22=0x1.187da5ab54fb7p+12 total=0x1.6e14719578172p+13',
        'job0@6=0x1.aca761b482ea8p+11 job3@11=0x1.3c6c50733b52cp+10 job2@12=0x1.cc8550643274ep+8 job1@22=0x1.187da5ab54fb7p+12 total=0x1.2d5a5fd454366p+13',
    ),
    'q43': (
        'job3@1=0x1.45463aa66ebfap+11 job1@17=0x1.b909f6ff0a0dep+10 job2@22=0x1.36b9ff9ab8bcfp+11 job0@26=0x1.9c21bdbd10ae3p+8 total=0x1.c604b6bc274cap+12',
        'job3@6=0x1.b7c4c915546efp+10 job1@18=0x1.b0e487b6dcf77p+10 job2@24=0x1.a2c46e701170ep+10 job0@32=0x1.1b71b5a429e44p+8 total=0x1.54928b2953541p+12',
    ),
    'r44': (
        'job1@3=0x1.e58b67d2338c3p+9 job2@7=0x1.17cad6a92017dp+7 job0@9=0x1.3e8ae360ef1e1p+11 total=0x1.c96a6ac00e02ap+11',
        'job1@3=0x1.e58b67d2338c3p+9 job2@7=0x1.17cad6a92017dp+7 job0@15=0x1.a8b92f2be97d7p+9 total=0x1.ea1ba6543287cp+10',
    ),
    's45': (
        'job1@2=0x1.f400000000000p+8 job0@8=0x1.535999999999bp+9 total=0x1.26acccccccccep+10',
        'job1@2=0x1.f400000000000p+8 job0@12=0x1.6566666666667p+8 total=0x1.acb3333333334p+9',
    ),
    'q46': (
        'job2@1=0x1.7820e9734fa82p+9 job1@3=0x1.19560d6a5f4f6p+12 job0@7=0x1.3553682d96adbp+11 job3@11=0x1.7ea8298358a47p+10 job4@23=0x1.5b63e5dc4e50cp+9 total=0x1.370d32e5fa474p+13',
        'job1@4=0x1.9223aff675ab4p+11 job2@7=0x1.74fd36e2523e4p+9 job3@9=0x1.2886e752461dap+10 job0@20=0x1.0ffa9f171b0d6p+11 job4@28=0x1.152d74a6253d5p+9 total=0x1.ec7636cc68d33p+12',
    ),
    'r47': (
        'job2@10=0x1.e000000000000p+7 job1@20=0x1.2c00000000000p+9 job0@26=0x1.d2aaaaaaaaaaap+8 total=0x1.46aaaaaaaaaaap+10',
        'job2@17=0x1.1800000000000p+7 job1@24=0x1.2c00000000000p+9 job0@30=0x1.0aaaaaaaaaaaap+8 total=0x1.f755555555555p+9',
    ),
    's48': (
        'job0@6=0x1.13d321ccb3313p+9 job2@7=0x1.6fc75f54b501ap+11 job1@28=0x1.e3adb899994b7p+11 job3@29=0x1.34b2f3f0227f6p+9 total=0x1.f2cb4eaec1dcap+12',
        'job2@9=0x1.e916218bf6872p+10 job0@12=0x1.8a51aca22e754p+7 job1@31=0x1.933c0c9b87eb2p+11 job3@34=0x1.30bd701c511ecp+8 total=0x1.6341f317981cfp+12',
    ),
    'q49': (
        'job0@6=0x1.94a0b4bf728f0p+8 job3@10=0x1.32fd906d413f6p+11 job2@14=0x1.21d1a562c6117p+11 job1@17=0x1.b0c95829472ecp+9 total=0x1.79cad13923b74p+12',
        'job0@6=0x1.94a0b4bf728f0p+8 job3@14=0x1.8c48ea35c9aaep+10 job1@17=0x1.b0c95829472ecp+9 job2@29=0x1.c2c5ecae06528p+8 total=0x1.9d439f52e5bd5p+11',
    ),
    'r50': (
        'infeasible',
        'job4@15=0x1.c64e86c267a80p+8 job0@20=0x1.fe4cfdb2113b7p+8 job1@24=0x1.7736284766920p+10 job3@27=0x1.c9a2c61669360p+9 job5@30=0x1.41a7a4cb4d71ep+10 job2@36=0x1.cbcfafc7ae337p+10 total=0x1.96a97040ad42dp+12',
    ),
    's51': (
        'job0@4=0x1.c33d0073f593cp+9 job1@27=0x1.3880000000000p+11 total=0x1.a94f401cfd64fp+11',
        'job0@10=0x1.909862af7fd6cp+8 job1@35=0x1.cc6f5ec853f9cp+9 total=0x1.4a5dc81009f29p+10',
    ),
    'q52': (
        'job1@2=0x1.28f3f2f446f73p+12 job2@3=0x1.8cfabfdb94abep+9 job0@4=0x1.df3e3c88d7280p+11 job5@9=0x1.6ac0dc7846134p+10 job3@19=0x1.6707d22ea26d6p+8 job4@22=0x1.f2ccc24ef9a79p+11 total=0x1.da5cbf4e4ed01p+13',
        'job0@5=0x1.45ce73b0aa900p+11 job1@10=0x1.6e60751d6159dp+10 job2@13=0x1.102c69af47f38p+7 job5@15=0x1.1513176fc08bbp+9 job3@19=0x1.6707d22ea26d6p+8 job4@23=0x1.693582f9f64f4p+11 total=0x1.f4ae5bfb053dfp+12',
    ),
    'r53': (
        'job0@1=0x1.2c00000000000p+8 job2@12=0x1.2c00000000000p+9 job4@15=0x1.5e00000000000p+8 job3@19=0x1.5e00000000000p+10 job1@22=0x1.4d55555555556p+10 total=0x1.f1eaaaaaaaaabp+11',
        'job0@9=0x1.9000000000000p+6 job4@14=0x1.f400000000000p+7 job2@19=0x1.0aaaaaaaaaaaap+9 job1@22=0x1.4d55555555556p+10 job3@33=0x1.9000000000000p+8 total=0x1.4715555555556p+11',
    ),
    's54': (
        'job2@7=0x1.b85ca7c89a364p+10 job0@11=0x1.1edb33b68984ep+9 job3@13=0x1.d6f30163300d1p+9 job4@16=0x1.27bbe93c6f73ap+11 job5@26=0x1.020448bae6821p+9 job1@30=0x1.a8b667bf3343ap+9 total=0x1.b6063b42d8b25p+12',
        'job0@12=0x1.0e4bec4210e54p+9 job2@13=0x1.df24dbf0e96aep+9 job4@16=0x1.27bbe93c6f73ap+11 job1@32=0x1.1b926f25bbd0ap+9 job3@34=0x1.962c7b662e024p+9 job5@37=0x1.0817dbead2810p+8 total=0x1.584568b4c1663p+12',
    ),
    'q55': (
        'job0@6=0x1.b7b4191abde04p+10 total=0x1.b7b4191abde04p+10',
        'job0@6=0x1.b7b4191abde04p+10 total=0x1.b7b4191abde04p+10',
    ),
    'r56': (
        'job1@0=0x1.c56a59cf455e1p+11 job0@6=0x1.049c7d91ffbc2p+10 total=0x1.23dc4c4c229e1p+12',
        'job1@2=0x1.c56a59cf455e1p+10 job0@6=0x1.049c7d91ffbc2p+10 total=0x1.65036bb0a28d2p+11',
    ),
    's57': (
        'job0@17=0x1.38a18e7fa5b6bp+10 total=0x1.38a18e7fa5b6bp+10',
        'job0@36=0x1.0c0cccccccccdp+9 total=0x1.0c0cccccccccdp+9',
    ),
    'q58': (
        'job0@4=0x1.f5ea7f829a318p+8 job3@7=0x1.e7f595c6816f0p+11 job5@12=0x1.4ed873e527f71p+10 job4@14=0x1.24932daac963fp+11 job1@19=0x1.91a3535db1495p+11 job2@20=0x1.94d62ff2d79d4p+10 total=0x1.93b02e2ad3cb2p+13',
        'infeasible',
    ),
    'r59': (
        'infeasible',
        'infeasible',
    ),
    's60': (
        'job0@7=0x1.63ac63f3b5ef8p+10 job1@26=0x1.0ed2a40c77ce1p+12 total=0x1.67bdbd096549fp+12',
        'job0@10=0x1.ee975e97fa910p+9 job1@34=0x1.a6580a0768b80p+10 total=0x1.4ed1dca9b3004p+11',
    ),
    'q61': (
        'job0@1=0x1.3b5e093889e60p+9 job3@10=0x1.80e66b821d2d2p+8 job2@21=0x1.ca9919d1b7338p+10 job1@25=0x1.7de6a86b273d2p+10 total=0x1.119a186e6aabcp+12',
        'job0@9=0x1.0563cbb767820p+8 job3@17=0x1.5915ec232d57cp+8 job2@24=0x1.7490384f087a4p+10 job1@27=0x1.3b7bbfd61a1b9p+10 total=0x1.a3d5330de3e62p+11',
    ),
    'r62': (
        'job0@14=0x1.cacfb3452e97cp+10 total=0x1.cacfb3452e97cp+10',
        'job0@18=0x1.8944508471146p+10 total=0x1.8944508471146p+10',
    ),
    's63': (
        'job1@6=0x1.f400000000000p+10 job2@14=0x1.bb7df8a96c6fap+9 job0@18=0x1.3880000000000p+11 total=0x1.50afbf152d8dfp+12',
        'job1@12=0x1.6566666666667p+9 job2@14=0x1.bb7df8a96c6fap+9 job0@35=0x1.cc6f5ec853f9cp+9 total=0x1.3b54ef7609b3fp+11',
    ),
    'q64': (
        'job1@16=0x1.3fbdf9656a4fdp+10 job0@23=0x1.b53d2b71fd513p+9 total=0x1.0d2e478f347c3p+11',
        'job1@18=0x1.0f470a985230ep+8 job0@23=0x1.b53d2b71fd513p+9 total=0x1.1e70585f1334dp+10',
    ),
    'r65': (
        'job3@4=0x1.c200000000000p+9 job0@6=0x1.0400000000000p+10 job2@14=0x1.2c00000000000p+10 job1@18=0x1.0400000000000p+10 total=0x1.0540000000000p+12',
        'job3@9=0x1.2c00000000000p+9 job0@11=0x1.e000000000000p+9 job2@21=0x1.9000000000000p+9 job1@33=0x1.9000000000000p+9 total=0x1.8b00000000000p+11',
    ),
    's66': (
        'job0@13=0x1.e6e2ecd0129a4p+9 total=0x1.e6e2ecd0129a4p+9',
        'job0@13=0x1.e6e2ecd0129a4p+9 total=0x1.e6e2ecd0129a4p+9',
    ),
    'q67': (
        'job1@11=0x1.3ef57264276d5p+7 job2@22=0x1.9b73f297ed5a6p+10 job0@27=0x1.f7bfbf5430e49p+10 total=0x1.dd89301c51965p+11',
        'job1@18=0x1.e6768b4ff9063p+6 job0@24=0x1.1befcdc1d6585p+9 job2@33=0x1.78c0b1a172db6p+9 total=0x1.68bfa866a42a4p+10',
    ),
    'r68': (
        'job2@12=0x1.c86423e89c96ap+10 job0@18=0x1.d0ab9dbfa0d92p+8 job1@22=0x1.77552cf51672bp+10 job3@26=0x1.8c709b07e0bf5p+10 total=0x1.501534d55effbp+12',
        'job2@16=0x1.11d5af252ac0cp+10 job1@23=0x1.77552cf51672bp+9 job0@28=0x1.d0ab9dbfa0d92p+7 job3@39=0x1.6df1ca2ea8131p+10 total=0x1.bac3c1c329142p+11',
    ),
    's69': (
        'job4@12=0x1.6566666666667p+7 job1@16=0x1.3a0c4090f2f8ap+10 job0@20=0x1.f400000000000p+10 job3@24=0x1.3880000000000p+11 job2@27=0x1.3880000000000p+11 total=0x1.079721abb7f8bp+13',
        'job4@12=0x1.6566666666667p+7 job1@16=0x1.3a0c4090f2f8ap+10 job0@20=0x1.f400000000000p+10 job3@31=0x1.acbfca42c6a8bp+10 job2@34=0x1.e756bc7d45dcap+9 total=0x1.7ec90d77ca572p+12',
    ),
    'q70': (
        'job0@24=0x1.121287f6b3033p+12 total=0x1.121287f6b3033p+12',
        'job0@25=0x1.9e23b8af75ea9p+11 total=0x1.9e23b8af75ea9p+11',
    ),
    'r71': (
        'job0@10=0x1.9000000000000p+7 job2@13=0x1.9000000000000p+10 job1@19=0x1.9000000000000p+6 total=0x1.db00000000000p+10',
        'job0@10=0x1.9000000000000p+7 job2@18=0x1.2c00000000000p+9 job1@26=0x1.9000000000000p+6 total=0x1.c200000000000p+9',
    ),
    's72': (
        'job0@17=0x1.c75092999998ap+10 total=0x1.c75092999998ap+10',
        'job0@30=0x1.49d3b6a498037p+10 total=0x1.49d3b6a498037p+10',
    ),
    'q73': (
        'infeasible',
        'job2@5=0x1.3d62f655c615ep+8 job4@11=0x1.1e644ca9a2579p+8 job1@12=0x1.eecfea0d84e82p+9 job3@22=0x1.e462e956d3b7ep+8 job0@30=0x1.a50b4709afe87p+9 job5@35=0x1.a4f4f93769762p+7 total=0x1.874b61640b503p+11',
    ),
    'r74': (
        'job0@0=0x1.c78fce66529a0p+8 job1@13=0x1.edee0af4b2433p+9 total=0x1.68daf913edc82p+10',
        'job0@2=0x1.c78fce66529a0p+7 job1@13=0x1.edee0af4b2433p+9 total=0x1.2fe8ff472374ep+10',
    ),
    's75': (
        'job0@20=0x1.f400000000000p+10 job2@25=0x1.f400000000000p+10 job1@29=0x1.f400000000000p+8 total=0x1.1940000000000p+12',
        'job0@27=0x1.e35e48220a0eap+10 job1@32=0x1.32140b2e3ba5ep+8 job2@34=0x1.85defd3104b09p+9 total=0x1.796964c30da83p+11',
    ),
    'q76': (
        'job0@19=0x1.e656fc69c4ac4p+8 total=0x1.e656fc69c4ac4p+8',
        'job0@26=0x1.891fbed255eaap+8 total=0x1.891fbed255eaap+8',
    ),
    'r77': (
        'job0@28=0x1.f400000000000p+8 total=0x1.f400000000000p+8',
        'job0@28=0x1.f400000000000p+8 total=0x1.f400000000000p+8',
    ),
    's78': (
        'job0@5=0x1.db4d62c763926p+11 job1@12=0x1.53661b1739910p+8 job3@13=0x1.3a3ac680ad22ap+10 job2@18=0x1.564afbfcd6814p+10 job4@23=0x1.bcd94c2e8ffc6p+11 total=0x1.42b594e5e724bp+13',
        'job0@10=0x1.a6109013649acp+10 job1@14=0x1.a5279c70d9df1p+8 job2@16=0x1.34e94d01cd681p+10 job3@27=0x1.079fad416b14ep+11 job4@32=0x1.2deb3c967d036p+11 total=0x1.ebd665f84e2acp+12',
    ),
    'q79': (
        'job0@2=0x1.78fdac9db1873p+7 total=0x1.78fdac9db1873p+7',
        'job0@5=0x1.6b88fed30f045p+7 total=0x1.6b88fed30f045p+7',
    ),
    'r80': (
        'job0@7=0x1.15be9ae6a09bcp+11 total=0x1.15be9ae6a09bcp+11',
        'job0@10=0x1.d3c7c1846cd06p+10 total=0x1.d3c7c1846cd06p+10',
    ),
    's81': (
        'job1@8=0x1.5b759d1f284c3p+10 job3@11=0x1.7b4bcada1ff60p+7 job0@18=0x1.f400000000000p+9 job2@25=0x1.7700000000000p+10 total=0x1.fdef8b3d36258p+11',
        'job1@9=0x1.1d156761eef4bp+10 job3@12=0x1.6566666666667p+7 job0@18=0x1.f400000000000p+9 job2@36=0x1.0c0cccccccccdp+9 total=0x1.64e44d4a9113fp+11',
    ),
    'q82': (
        'job0@0=0x1.81dec45328d2dp+11 job2@2=0x1.9876dbed83122p+12 job3@8=0x1.55c8c05f3ae2ap+8 job1@11=0x1.853c90f491defp+11 total=0x1.98b0894baa0c9p+13',
        'job2@5=0x1.49869b15c75aap+12 job3@10=0x1.7569aeac871acp+7 job0@14=0x1.4fb7cb74c3911p+10 job1@21=0x1.f89cee03f1940p+10 total=0x1.13a38b74ac6e6p+13',
    ),
    'r83': (
        'job1@13=0x1.9000000000000p+10 job4@17=0x1.9000000000000p+8 job2@21=0x1.c200000000000p+8 job0@25=0x1.7700000000000p+9 job3@27=0x1.c200000000000p+8 total=0x1.c840000000000p+11',
        'job1@13=0x1.9000000000000p+10 job0@22=0x1.c200000000000p+8 job2@26=0x1.0680000000000p+9 job4@33=0x1.9000000000000p+7 job3@45=0x1.2c00000000000p+8 total=0x1.8060000000000p+11',
    ),
    's84': (
        'job3@7=0x1.805a4ff928592p+11 job2@10=0x1.225eafef12ef6p+10 job0@18=0x1.2644e110594cdp+12 job1@22=0x1.62c924a218eccp+11 job4@26=0x1.47f12520a9ab0p+11 total=0x1.c2336cf509c09p+13',
        'job3@9=0x1.ff208e786a500p+10 job2@12=0x1.d4013550ca565p+9 job0@18=0x1.2644e110594cdp+12 job1@32=0x1.6b24229fe2f3cp+10 job4@36=0x1.d4d36a87c85e6p+9 total=0x1.3af850a8bf7a2p+13',
    ),
    'q85': (
        'job0@7=0x1.9fc21b42f42a6p+11 job3@10=0x1.f9ec82f6bfc61p+9 job1@13=0x1.74acb0185d3c5p+11 job2@24=0x1.b638f74efd40cp+9 total=0x1.001e0a7b302a2p+13',
        'job3@12=0x1.e1ca8b261e495p+8 job0@13=0x1.55604b978df20p+11 job1@16=0x1.262bb3a59c0aep+10 job2@40=0x1.61bcf43c648c3p+9 total=0x1.3e8f59ef1c71dp+12',
    ),
    'r86': (
        'job0@24=0x1.c360c3c18bfaep+10 total=0x1.c360c3c18bfaep+10',
        'job0@27=0x1.9139918f98df0p+9 total=0x1.9139918f98df0p+9',
    ),
    's87': (
        'job0@5=0x1.30598640ffd65p+10 total=0x1.30598640ffd65p+10',
        'job0@10=0x1.2c724a039fe11p+9 total=0x1.2c724a039fe11p+9',
    ),
    'q88': (
        'job0@0=0x1.e2c38134afe34p+10 job2@3=0x1.77ee23f14e2a0p+9 job3@12=0x1.404c84f4b4c29p+11 job5@14=0x1.639371aa38627p+10 job1@16=0x1.e7bbd47c1412dp+10 job4@21=0x1.77e3c79a693b9p+10 total=0x1.3c50d55aeec5dp+13',
        'job0@0=0x1.e2c38134afe34p+10 job2@8=0x1.08b12f5993fecp+9 job3@12=0x1.404c84f4b4c29p+11 job1@15=0x1.146b188015aacp+10 job5@18=0x1.8eab0ab10cfaep+10 job4@21=0x1.77e3c79a693b9p+10 total=0x1.2055e1b2cde92p+13',
    ),
    'r89': (
        'job2@2=0x1.2bfffffffffffp+8 job1@13=0x1.c200000000000p+9 job0@22=0x1.0400000000000p+8 total=0x1.6d00000000000p+10',
        'job2@3=0x1.8fffffffffffep+7 job1@15=0x1.2c00000000000p+9 job0@32=0x1.b800000000000p+7 total=0x1.fe00000000000p+9',
    ),
    's90': (
        'job0@13=0x1.29cf3445b497dp+11 job1@19=0x1.97ee33353a321p+11 total=0x1.60deb3bd7764fp+12',
        'job0@13=0x1.29cf3445b497dp+11 job1@19=0x1.97ee33353a321p+11 total=0x1.60deb3bd7764fp+12',
    ),
    'q91': (
        'job2@6=0x1.19a8fbac4bb44p+9 job1@11=0x1.03f446531035ap+11 job0@26=0x1.ca0b4c18da0aap+10 total=0x1.17b215a548140p+12',
        'job1@24=0x1.8ce364bc00018p+9 job2@26=0x1.9932a0fd6a92ap+8 job0@33=0x1.35b54683db420p+10 total=0x1.3139d0909af3bp+11',
    ),
    'r92': (
        'infeasible',
        'job1@21=0x1.b8f98f1455273p+9 job2@23=0x1.8a3f3f9b1515dp+10 job3@24=0x1.1c36ee2622545p+9 job0@36=0x1.da7934658e752p+10 total=0x1.33d42ca777d22p+12',
    ),
    's93': (
        'job3@5=0x1.f400000000000p+8 job5@8=0x1.32140b2e3ba5ep+9 job4@16=0x1.535999999999bp+10 job1@22=0x1.3880000000000p+11 job0@27=0x1.f400000000000p+10 job2@31=0x1.a0d768aa32491p+8 total=0x1.cda65e56d0ffbp+12',
        'job3@5=0x1.f400000000000p+8 job5@11=0x1.705918a0432e4p+8 job4@16=0x1.535999999999bp+10 job1@22=0x1.3880000000000p+11 job2@34=0x1.bb7df8a96c6fbp+7 job0@35=0x1.85defd3104b08p+9 total=0x1.65f3c75bd692ep+12',
    ),
    'q94': (
        'job4@5=0x1.5e44703ac41d1p+10 job3@10=0x1.6744a4bdf3c6bp+10 job0@14=0x1.0274e695f87c4p+12 job2@26=0x1.57fdfcfa54f38p+10 job1@28=0x1.af00abe8310fep+11 total=0x1.70ab80836a1d0p+13',
        'job3@10=0x1.6744a4bdf3c6bp+10 job0@14=0x1.0274e695f87c4p+12 job4@21=0x1.6cab005362f6cp+9 job2@26=0x1.57fdfcfa54f38p+10 job1@28=0x1.af00abe8310fep+11 total=0x1.5bada28147c8cp+13',
    ),
    'r95': (
        'job1@5=0x1.e000000000000p+8 job3@10=0x1.f400000000000p+8 job0@17=0x1.0aaaaaaaaaaaap+7 job2@20=0x1.0e00000000000p+9 total=0x1.9d55555555555p+10',
        'job1@5=0x1.e000000000000p+8 job3@10=0x1.f400000000000p+8 job2@20=0x1.0e00000000000p+9 job0@31=0x1.8ffffffffffffp+6 total=0x1.9500000000000p+10',
    ),
    's96': (
        'infeasible',
        'job0@6=0x1.6d1c72b271760p+10 job2@10=0x1.101603f7bd722p+10 job1@12=0x1.cf5fd7ebc10a8p+10 total=0x1.132493a57bfcap+12',
    ),
    'q97': (
        'job0@0=0x1.8677d11be0982p+10 job4@4=0x1.4ef39c771d5c2p+11 job1@9=0x1.168d25a349f5fp+11 job2@10=0x1.102d3e5ae1d39p+10 job3@18=0x1.33fc4112e348bp+10 total=0x1.12b45a97ce8b1p+13',
        'job1@6=0x1.8929084788533p+10 job4@7=0x1.0748b505418d6p+11 job0@15=0x1.cd67300428679p+9 job2@19=0x1.3a6545811861ep+9 job3@21=0x1.963a85ef39cfep+9 total=0x1.79af7c03122ebp+12',
    ),
    'r98': (
        'job4@11=0x1.199c3cc879887p+8 job1@13=0x1.bb80aa40d2ee8p+11 job2@14=0x1.56b3ad191afd8p+10 job3@17=0x1.a6d6167e58592p+10 job0@26=0x1.5dd108ebc7de8p+10 total=0x1.03186606dfee8p+13',
        'job2@14=0x1.56b3ad191afd8p+10 job3@19=0x1.19e40efee590cp+9 job4@21=0x1.777afbb5f7609p+6 job1@27=0x1.bb80aa40d2ee8p+9 job0@31=0x1.17da6d896cb20p+10 total=0x1.f85c137ee1b2ap+11',
    ),
    's99': (
        'job1@7=0x1.38af9ed6d7f32p+9 job0@12=0x1.af7348dbeb8c0p+8 job2@20=0x1.3880000000000p+11 total=0x1.bc9a50d1336e4p+11',
        'job1@11=0x1.85defd3104b08p+8 job0@15=0x1.7e3fdfc1aa653p+9 job2@31=0x1.acbfca42c6a8bp+10 total=0x1.66abbcb7ee83cp+11',
    ),
    'q100': (
        'job1@19=0x1.7df3ce4f56bbap+7 job0@23=0x1.1e0e3132075acp+10 job2@27=0x1.8912469d8b8ecp+11 job3@29=0x1.2d7197e38ab98p+11 total=0x1.aeb519ff87b0bp+12',
        'job1@24=0x1.80ec97764adecp+6 job0@32=0x1.f60c2280a7177p+8 job2@41=0x1.ea0d9c2239eaep+9 job3@48=0x1.f4d1b1d494378p+9 total=0x1.4280bc897ac28p+11',
    ),
    'r101': (
        'job0@5=0x1.2c00000000000p+10 total=0x1.2c00000000000p+10',
        'job0@6=0x1.9000000000000p+8 total=0x1.9000000000000p+8',
    ),
    's102': (
        'job0@18=0x1.c64d0e5615670p+11 total=0x1.c64d0e5615670p+11',
        'job0@32=0x1.345586d65435ap+11 total=0x1.345586d65435ap+11',
    ),
    'q103': (
        'job2@8=0x1.711b33f99e088p+11 job0@24=0x1.4a02f3e839d24p+10 job1@28=0x1.8f5c5a9b34347p+9 total=0x1.3cf9e24a43ff6p+12',
        'job2@11=0x1.527b0ee292384p+9 job1@28=0x1.8f5c5a9b34347p+9 job0@35=0x1.0ec8d8b541c6ap+8 total=0x1.b49deaec33a80p+10',
    ),
    'r104': (
        'job1@18=0x1.127012592db30p+10 job0@25=0x1.190e89d654463p+10 total=0x1.15bf4e17c0fcap+11',
        'job1@19=0x1.80368016732dep+9 job0@26=0x1.a595cec17e694p+9 total=0x1.92e6276bf8cb9p+10',
    ),
    's105': (
        'job1@4=0x1.df35da2a8c924p+9 job5@10=0x1.bb7df8a96c6fbp+8 job0@12=0x1.1442d2783262ap+9 job2@27=0x1.e35e48220a0eap+10 job4@32=0x1.7e990df9ca8f5p+10 job3@34=0x1.2c724a039fe11p+9 total=0x1.783313e657c93p+12',
        'job1@8=0x1.ffc67c0f1ebf5p+8 job5@12=0x1.6566666666667p+8 job0@13=0x1.348ba95154a62p+9 job2@29=0x1.95ccb301551dcp+10 job3@34=0x1.2c724a039fe11p+9 job4@39=0x1.7e990df9ca8f5p+10 total=0x1.478bfcd0bece8p+12',
    ),
    'q106': (
        'job2@3=0x1.9313a0a57a8c9p+12 job0@4=0x1.c78554599987ep+10 job1@16=0x1.c1b86495645cep+10 total=0x1.3ab187709d02ep+13',
        'job0@5=0x1.de6d116754ab3p+7 job2@8=0x1.8d21ddac8dabap+10 job1@17=0x1.5033ac7ed6bbcp+10 total=0x1.8c91962c277e6p+11',
    ),
    'r107': (
        'job2@4=0x1.4d55555555554p+7 job4@7=0x1.a0aaaaaaaaaacp+10 job0@18=0x1.2bfffffffffffp+9 job1@21=0x1.f400000000000p+8 job3@23=0x1.2c00000000000p+9 job5@24=0x1.0400000000000p+10 total=0x1.1dd5555555556p+12',
        'job2@4=0x1.4d55555555554p+7 job4@10=0x1.23aaaaaaaaaabp+10 job3@22=0x1.2c00000000000p+9 job0@23=0x1.d2aaaaaaaaaaap+8 job1@29=0x1.2c00000000000p+8 job5@33=0x1.e000000000000p+9 total=0x1.c980000000000p+11',
    ),
    's108': (
        'job0@24=0x1.03e605979d38ap+11 total=0x1.03e605979d38ap+11',
        'job0@30=0x1.6c033c3fa9fb5p+10 total=0x1.6c033c3fa9fb5p+10',
    ),
    'q109': (
        'job2@1=0x1.e65239898f94dp+9 job0@14=0x1.079ca55315b2bp+11 job5@19=0x1.09377cb74481fp+11 job1@23=0x1.f32b0c8756538p+10 job3@24=0x1.734473a494200p+10 job4@29=0x1.39b4b7ac5262ep+11 total=0x1.5dd54a0bc16dap+13',
        'job2@8=0x1.dec4278b20744p+9 job5@15=0x1.46f911f2d3aa9p+10 job1@22=0x1.f425b386c1febp+8 job3@24=0x1.734473a494200p+10 job0@30=0x1.33402d97561c2p+11 job4@40=0x1.080105338cb9fp+10 total=0x1.e54a99a8385dbp+12',
    ),
    'r110': (
        'job2@12=0x1.672c4630a30dfp+10 job3@14=0x1.021ac20e48012p+9 job5@19=0x1.27ef8868dd0c0p+9 job0@24=0x1.22ab08f4a48c2p+11 job1@29=0x1.bcb006932ae56p+10 job4@34=0x1.279c8b36228a2p+11 total=0x1.19ae134a9dd4cp+13',
        'job3@15=0x1.35b9b5aabcce2p+8 job5@19=0x1.27ef8868dd0c0p+9 job2@21=0x1.672c4630a30dfp+9 job0@24=0x1.22ab08f4a48c2p+11 job1@30=0x1.903805ead9ce7p+10 job4@39=0x1.62bbda40f63f6p+10 total=0x1.b35191b32219ap+12',
    ),
    's111': (
        'job0@6=0x1.1eafe7d13fcbep+10 job1@10=0x1.270c0a7a7cb31p+9 job4@13=0x1.9b64e1c1c632dp+9 job3@15=0x1.95ccb301551dcp+9 job2@20=0x1.f400000000000p+8 total=0x1.e3e75bb805e6dp+11',
        'job4@8=0x1.32140b2e3ba5ep+10 job0@10=0x1.24673de4c3846p+9 job1@14=0x1.a0f3895896c1cp+9 job2@18=0x1.f3fffffffffffp+8 job3@28=0x1.c33d0073f593cp+9 total=0x1.f9aff78371c97p+11',
    ),
    'q112': (
        'job1@1=0x1.fa6f9853476b8p+11 job0@27=0x1.9ab1e4393d977p+12 total=0x1.4bf4d83170a6ap+13',
        'job1@6=0x1.69a5df9308f08p+10 job0@30=0x1.4974615fbff7cp+11 total=0x1.fe47512944700p+11',
    ),
    'r113': (
        'job1@20=0x1.2c00000000000p+9 job2@28=0x1.2c00000000000p+8 job0@32=0x1.c200000000000p+9 total=0x1.c200000000000p+10',
        'job1@24=0x1.2c00000000000p+8 job2@33=0x1.9000000000000p+7 job0@38=0x1.9000000000000p+9 total=0x1.4500000000000p+10',
    ),
    's114': (
        'job1@19=0x1.91e84926f2c18p+11 job0@29=0x1.699ea10c80281p+10 total=0x1.235bccd6996acp+12',
        'job1@19=0x1.91e84926f2c18p+11 job0@30=0x1.3ad6845a59da1p+10 total=0x1.17a9c5aa0fd74p+12',
    ),
    'q115': (
        'job1@12=0x1.41e67776e3d36p+9 job0@15=0x1.ba2b77b5f60a8p+11 job3@19=0x1.bf025f9d9b227p+10 job4@24=0x1.95c22dabac246p+11 job2@25=0x1.53728acea78b4p+8 total=0x1.2a95b119ff69ap+13',
        'job1@12=0x1.41e67776e3d36p+9 job0@18=0x1.3cdacb02a4a64p+11 job2@25=0x1.53728acea78b4p+8 job3@33=0x1.181053beaaf37p+10 job4@42=0x1.12966516f7693p+11 total=0x1.ab30a4983fb7cp+12',
    ),
    'r116': (
        'job2@9=0x1.20a341bf6d060p+10 job1@12=0x1.3c80d6fa90ae0p+11 job0@14=0x1.6eeccd44b7b91p+10 job3@24=0x1.2373e2a6e25d5p+11 total=0x1.d3de6091c2b56p+12',
        'job2@9=0x1.20a341bf6d060p+10 job0@15=0x1.e93bbc5b9fa17p+8 job1@19=0x1.0f49dcd6c5277p+10 job3@30=0x1.2373e2a6e25d5p+10 total=0x1.e6d7f829fe398p+11',
    ),
    's117': (
        'job1@11=0x1.1c78d82397f88p+9 job0@15=0x1.56ffd5023886ep+9 total=0x1.39bc5692e83fbp+10',
        'job1@12=0x1.0c0cccccccccdp+9 job0@34=0x1.8965634dfb996p+8 total=0x1.d0bf7e73ca998p+9',
    ),
    'q118': (
        'job0@24=0x1.74c77eaceaf62p+11 total=0x1.74c77eaceaf62p+11',
        'job0@38=0x1.0100b4ebc1e13p+11 total=0x1.0100b4ebc1e13p+11',
    ),
    'r119': (
        'job0@3=0x1.7700000000000p+10 job3@12=0x1.2c00000000000p+10 job4@16=0x1.2c00000000000p+8 job1@19=0x1.9000000000000p+6 job2@29=0x1.7700000000000p+9 total=0x1.e140000000000p+11',
        'job0@7=0x1.f400000000000p+8 job3@12=0x1.2c00000000000p+10 job4@16=0x1.2c00000000000p+8 job1@19=0x1.9000000000000p+6 job2@30=0x1.c200000000000p+8 total=0x1.3ec0000000000p+11',
    ),
    's120': (
        'job1@6=0x1.96ed30e2a468ep+10 job0@8=0x1.935b65bfce4eap+10 job3@17=0x1.4a5357ffb668ap+9 job2@28=0x1.a4732f93cdda5p+10 total=0x1.5cf95c8d86f18p+12',
        'job0@11=0x1.e56ae22000330p+9 job1@13=0x1.6d2eaf1544ba6p+9 job2@31=0x1.12583dbed7667p+10 job3@35=0x1.1fb7ab5604fdcp+8 total=0x1.81c978977d8e4p+11',
    ),
    'q121': (
        'job5@0=0x1.f6d5150faad53p+9 job1@4=0x1.0a9d1cd2df477p+10 job0@6=0x1.220c83e84bf86p+11 job3@19=0x1.3d5eed67d1561p+8 job2@24=0x1.f6d5150faad53p+9 job4@27=0x1.9dbb19ee1fb6ap+9 total=0x1.98f02081098f8p+12',
        'job5@0=0x1.f6d5150faad53p+9 job0@6=0x1.220c83e84bf86p+11 job1@15=0x1.e50d62e6fa9c5p+8 job3@20=0x1.ff0b5573e79d4p+7 job2@25=0x1.5e5f42f7a28f8p+10 job4@39=0x1.1af3c9b8066dbp+6 total=0x1.5a2db554f2fb1p+12',
    ),
    'r122': (
        'job0@14=0x1.5eccbc632c976p+11 job5@16=0x1.7f589d4fbb365p+8 job2@19=0x1.15275dbf49740p+10 job3@24=0x1.425b98fd06febp+11 job1@25=0x1.2dd04c265601ep+10 job4@27=0x1.7ef9d160f9159p+10 total=0x1.2c8309ab5dd0bp+13',
        'job5@16=0x1.7f589d4fbb365p+8 job3@22=0x1.adcf76a6b3fe4p+9 job0@23=0x1.245547a7fa7e2p+11 job1@25=0x1.2dd04c265601ep+10 job2@34=0x1.d5078af4f2758p+9 job4@45=0x1.a1cab5de27004p+9 total=0x1.9a2877a1c8218p+12',
    ),
    's123': (
        'job0@2=0x1.f400000000000p+8 total=0x1.f400000000000p+8',
        'job0@11=0x1.73ff5408e21b8p+7 total=0x1.73ff5408e21b8p+7',
    ),
    'q124': (
        'job0@13=0x1.54a3d6c19f1e3p+10 job2@14=0x1.868096c16ffd0p+10 job1@17=0x1.b6d81b29331f0p+11 job3@28=0x1.0c73b83554ff9p+11 total=0x1.0c37828803eb1p+13',
        'job2@14=0x1.868096c16ffd0p+10 job1@20=0x1.0dd80785dec74p+11 job0@30=0x1.abb580b577f14p+8 job3@38=0x1.17c3234e48a80p+10 total=0x1.49384a52350bfp+12',
    ),
    'r125': (
        'job3@2=0x1.c200000000000p+9 job4@5=0x1.9000000000000p+9 job1@6=0x1.d2aaaaaaaaaaap+7 job2@9=0x1.9c80000000000p+9 job0@26=0x1.1300000000000p+10 total=0x1.e24aaaaaaaaaap+11',
        'job3@3=0x1.5e00000000000p+9 job2@8=0x1.2c00000000000p+9 job4@13=0x1.9000000000000p+8 job1@20=0x1.4d55555555554p+7 job0@29=0x1.c200000000000p+9 total=0x1.59d5555555555p+11',
    ),
    's126': (
        'job1@10=0x1.96802e22a52c7p+9 job0@14=0x1.14d86a8f59ed6p+9 job3@18=0x1.b092968fd829cp+11 job2@23=0x1.51919cb214bf6p+11 total=0x1.d67d2cb73657dp+12',
        'job1@10=0x1.96802e22a52c7p+9 job0@14=0x1.14d86a8f59ed6p+9 job3@18=0x1.b092968fd829cp+11 job2@23=0x1.51919cb214bf6p+11 total=0x1.d67d2cb73657dp+12',
    ),
    'q127': (
        'job2@7=0x1.30508374b168cp+9 job1@19=0x1.6640ca993f8f5p+10 job0@21=0x1.1b748c6e7dd2bp+11 job3@26=0x1.4b66e9acb29efp+9 job4@28=0x1.5084b2807b761p+10 total=0x1.8ae29321da2bap+12',
        'job2@7=0x1.30508374b168cp+9 job0@24=0x1.5f97c87860990p+10 job3@30=0x1.5e9c3dc84418cp+9 job1@38=0x1.92e654ab8d52ap+9 job4@41=0x1.09615411950f8p+10 total=0x1.1e78a9df8dc4ap+12',
    ),
    'r128': (
        'job0@8=0x1.572cfcf61c3a6p+11 total=0x1.572cfcf61c3a6p+11',
        'job0@15=0x1.c991514825a33p+9 total=0x1.c991514825a33p+9',
    ),
    's129': (
        'infeasible',
        'infeasible',
    ),
    'q130': (
        'job4@2=0x1.62d83796abdd4p+11 job1@6=0x1.12763547afc70p+12 job3@9=0x1.9252dc72c09aap+9 job0@16=0x1.1f901895863fep+12 job2@27=0x1.885421ce611b1p+12 total=0x1.278439c15148fp+14',
        'job4@4=0x1.aec6afc7945b8p+10 job1@10=0x1.d599a307fe1e0p+11 job3@14=0x1.8f8cc6d4628ddp+9 job0@23=0x1.8b5228f8d45bbp+11 job2@29=0x1.27ed9266a0e13p+9 total=0x1.398b6e8cd760dp+13',
    ),
    'r131': (
        'infeasible',
        'job1@2=0x1.9000000000000p+6 job0@6=0x1.2c00000000000p+9 job3@14=0x1.2c00000000000p+8 job4@30=0x1.b580000000000p+9 job2@44=0x1.9000000000000p+8 total=0x1.1c60000000000p+11',
    ),
    's132': (
        'job1@23=0x1.75b2b0149f109p+11 job2@25=0x1.329ce46a9d388p+12 job0@26=0x1.0b8c6c33a1051p+12 total=0x1.7c81545446e2ep+13',
        'job2@31=0x1.ff3c5c7777052p+11 job1@32=0x1.fb41f6483a6c8p+10 job0@35=0x1.8a3432462256ep+10 total=0x1.e0fbb85f52b36p+12',
    ),
    'q133': (
        'job0@3=0x1.7085b7d2c0187p+11 job1@29=0x1.54f22b5cbfeebp+11 total=0x1.62bbf197c0039p+12',
        'job0@4=0x1.51e0e89e307a1p+10 job1@42=0x1.239749ba867adp+9 total=0x1.e3ac8d7b73b78p+10',
    ),
    'r134': (
        'infeasible',
        'job3@20=0x1.15396a5abf815p+10 job2@32=0x1.087d406bde76ap+10 job0@36=0x1.20d91e9ac8bacp+10 job1@42=0x1.54852ad58d4ddp+10 total=0x1.24c53d0dbd002p+12',
    ),
    's135': (
        'job2@0=0x1.f400000000000p+9 job0@3=0x1.7700000000000p+10 job4@19=0x1.3880000000000p+11 job1@25=0x1.f400000000000p+9 job3@30=0x1.ca6bb45519248p+10 total=0x1.e99aed1546492p+12',
        'job0@6=0x1.57d0c73fd2db6p+10 job2@11=0x1.705918a0432e4p+8 job4@19=0x1.3880000000000p+11 job1@31=0x1.2014135b498e5p+9 job3@36=0x1.705918a0432e4p+9 total=0x1.5b4768d96a816p+12',
    ),
    'q136': (
        'job1@26=0x1.923e570494aa4p+11 job0@30=0x1.40c94babd337cp+10 total=0x1.19517e6d3f231p+12',
        'job0@29=0x1.59e42c26e7a03p+9 job1@43=0x1.9de0ad17487e8p+11 total=0x1.f459b82102669p+11',
    ),
    'r137': (
        'job2@0=0x1.9000000000000p+7 job0@5=0x1.d4c0000000000p+10 job1@24=0x1.2c00000000000p+7 total=0x1.1620000000000p+11',
        'job2@11=0x1.6800000000000p+7 job1@24=0x1.2c00000000000p+7 job0@26=0x1.57c0000000000p+10 total=0x1.aa40000000000p+10',
    ),
    's138': (
        'job0@4=0x1.d37aa58267159p+10 job1@20=0x1.0fac56620a34fp+12 total=0x1.848affc2a3fa5p+12',
        'job0@11=0x1.5bcd4f1838febp+9 job1@20=0x1.0fac56620a34fp+12 total=0x1.3b2600451154cp+12',
    ),
    'q139': (
        'job0@11=0x1.c3f577af137a3p+9 job3@18=0x1.6af7a8947bbd3p+10 job2@23=0x1.289c199817354p+11 job1@28=0x1.3b9b4ff08ff73p+9 total=0x1.4efe0fe51ef81p+12',
        'job0@16=0x1.13c8c5fba803dp+9 job3@20=0x1.87e932f73406ap+9 job2@24=0x1.33b3ae7c24ee2p+7 job1@37=0x1.bd76d8b263fe0p+8 total=0x1.e3ad28758ba28p+10',
    ),
    'r140': (
        'job4@1=0x1.aa014196d10d8p+9 job0@7=0x1.0ca959939da14p+9 job1@14=0x1.a619a1639d57ap+10 job2@19=0x1.7f05bc4175a17p+10 job5@23=0x1.0209f4ed63ac6p+9 job3@28=0x1.c45bebf3d7db2p+9 total=0x1.78e9e6eaba051p+12',
        'job4@4=0x1.63010bfdae35ep+9 job0@7=0x1.0ca959939da14p+9 job1@16=0x1.a619a1639d57ap+9 job2@19=0x1.7f05bc4175a17p+10 job3@28=0x1.c45bebf3d7db2p+9 job5@40=0x1.197f39bd26ea9p+8 total=0x1.2c9d610947f84p+12',
    ),
    's141': (
        'job2@10=0x1.e756bc7d45dcap+9 job1@20=0x1.f400000000000p+9 job3@21=0x1.7700000000000p+10 job0@26=0x1.f400000000000p+9 total=0x1.17aad78fa8bb9p+12',
        'job2@10=0x1.e756bc7d45dcap+9 job3@20=0x1.7700000000000p+10 job1@33=0x1.10ce7cc2ddb20p+9 job0@35=0x1.705918a0432e4p+8 total=0x1.a794716411496p+11',
    ),
    'q142': (
        'job0@13=0x1.6d3114fe08fe5p+9 total=0x1.6d3114fe08fe5p+9',
        'job0@13=0x1.6d3114fe08fe5p+9 total=0x1.6d3114fe08fe5p+9',
    ),
    'r143': (
        'job1@5=0x1.7700000000000p+10 job0@12=0x1.9000000000000p+10 job3@23=0x1.7700000000000p+9 job2@27=0x1.9000000000000p+8 total=0x1.09a0000000000p+12',
        'job0@14=0x1.9000000000000p+8 job1@15=0x1.b580000000000p+9 job2@26=0x1.4000000000000p+8 job3@38=0x1.c200000000000p+8 total=0x1.ff40000000000p+10',
    ),
    's144': (
        'job1@14=0x1.88e63cb7183f2p+11 job2@19=0x1.bbb0393b2b03ap+9 job0@22=0x1.4fe7719ba160ep+9 total=0x1.25e613b665ac2p+12',
        'job1@14=0x1.88e63cb7183f2p+11 job2@19=0x1.bbb0393b2b03ap+9 job0@30=0x1.d677354ca7c78p+8 total=0x1.195098d7bbfc8p+12',
    ),
    'q145': (
        'job0@8=0x1.9cce509309b65p+10 job4@11=0x1.3b0914bf87597p+9 job1@18=0x1.b9d01c33e28b9p+9 job3@21=0x1.9525846171188p+10 job2@26=0x1.d996d02a6088dp+9 job5@29=0x1.a457364c1847ep+10 total=0x1.cf60c2f3de136p+12',
        'job4@11=0x1.3b0914bf87597p+9 job0@14=0x1.a4af1857f65d5p+8 job1@18=0x1.b9d01c33e28b9p+9 job3@22=0x1.1c05e55ffe37fp+10 job2@27=0x1.bcef74f79c9c1p+8 job5@38=0x1.a838d2f3685a6p+9 total=0x1.10bda2a9d3058p+12',
    ),
    'r146': (
        'job1@0=0x1.ba4c3d6c828b1p+10 job0@5=0x1.ca807340c798cp+11 job2@6=0x1.2cf285354cdd7p+9 total=0x1.797199a22e0adp+12',
        'job0@3=0x1.ca807340c798cp+9 job2@7=0x1.2cf285354cdd6p+9 job1@15=0x1.95708da377aa3p+10 total=0x1.889504ef40f2ap+11',
    ),
    's147': (
        'job0@10=0x1.85defd3104b09p+8 job1@14=0x1.38af9ed6d7f32p+10 job2@18=0x1.76fffffffffffp+10 job3@25=0x1.3880000000000p+11 total=0x1.6089d788c647dp+12',
        'job0@11=0x1.85defd3104b08p+8 job2@15=0x1.9935bb244c8b0p+9 job1@31=0x1.38af9ed6d7f32p+10 job3@35=0x1.cc6f5ec853f9cp+9 total=0x1.a67cf58cb4b0dp+11',
    ),
    'q148': (
        'job1@12=0x1.03d5e235ab07cp+11 job0@17=0x1.75f3803e7205bp+11 job2@22=0x1.5a9f80898b0d3p+10 job3@25=0x1.237101c776c4cp+12 total=0x1.5b7ec991f4076p+13',
        'infeasible',
    ),
    'r149': (
        'job0@12=0x1.4d55555555556p+9 total=0x1.4d55555555556p+9',
        'job0@12=0x1.4d55555555556p+9 total=0x1.4d55555555556p+9',
    ),
    's150': (
        'job3@1=0x1.c7d45ce695146p+9 job4@6=0x1.fac156c3c2a02p+11 job1@7=0x1.8a62f7b17231ep+11 job0@14=0x1.309c8ef7d2832p+11 job2@22=0x1.264997757de64p+11 total=0x1.937fe3070aa02p+13',
        'job3@6=0x1.3f37628abea9ap+9 job1@11=0x1.66dd1ea20156fp+10 job4@12=0x1.6a3a880dfa38fp+10 job0@14=0x1.309c8ef7d2832p+11 job2@34=0x1.d78f86f52cc61p+9 total=0x1.af6d0e57e5938p+12',
    ),
    'q151': (
        'job0@5=0x1.a3f2d87e0f768p+11 job1@9=0x1.0c40a628ec556p+11 total=0x1.5819bf537de5fp+12',
        'job1@16=0x1.469728fd34267p+9 job0@20=0x1.ad4943197fa35p+10 total=0x1.284a6bcc0cdb4p+11',
    ),
    'r152': (
        'job1@9=0x1.4ed5d7bd61388p+10 job0@21=0x1.f1b0645b012aap+10 total=0x1.a0431e0c31319p+11',
        'job1@11=0x1.eb1780af5b63ep+9 job0@21=0x1.f1b0645b012aap+10 total=0x1.739e1259576e4p+11',
    ),
    's153': (
        'job1@7=0x1.7a188121e5f16p+9 job0@9=0x1.35186baebc722p+10 job3@12=0x1.439676a4f0a90p+9 job5@17=0x1.2e1aed1546492p+11 job4@24=0x1.f400000000000p+9 job2@27=0x1.3880000000000p+11 total=0x1.0b64b837968a3p+13',
        'job1@9=0x1.ee8d791793e9ep+8 job0@11=0x1.cc6f5ec853f9cp+9 job3@13=0x1.7fd4dd0b570f7p+9 job5@30=0x1.b5af9ed6d7f32p+10 job4@35=0x1.73ff5408e21b8p+8 job2@38=0x1.86db868c8defep+10 total=0x1.6ed41da5563a4p+12',
    ),
    'q154': (
        'job1@16=0x1.b9bc3ef8ad6fcp+8 job2@19=0x1.7905b034c31e8p+9 job0@22=0x1.ee85b681c6847p+8 total=0x1.a6935578fe8c5p+10',
        'job2@20=0x1.377b7049e0d94p+9 job1@22=0x1.5bcf3c723adf0p+8 job0@26=0x1.a10ebfd41eb7cp+8 total=0x1.5af5373686d25p+10',
    ),
    'r155': (
        'job0@0=0x1.4d55555555555p+8 total=0x1.4d55555555555p+8',
        'job0@4=0x1.2c00000000000p+8 total=0x1.2c00000000000p+8',
    ),
    's156': (
        'job2@2=0x1.2317917598f58p+11 job0@4=0x1.fd46d16ff7e56p+10 job1@10=0x1.9a92117b3455ap+8 total=0x1.2a869e2e7db98p+12',
        'job2@2=0x1.2317917598f58p+11 job0@11=0x1.7ae62e339b686p+9 job1@14=0x1.ed900bc0be0c4p+8 total=0x1.bf831e7a97912p+11',
    ),
    'q157': (
        'job3@4=0x1.ef37134efd34cp+10 job1@16=0x1.05976212314a6p+8 job0@21=0x1.4e3f5c7e59b25p+11 job4@22=0x1.34c941ed74468p+10 job5@27=0x1.54fd0ace03fa9p+9 job2@32=0x1.40ec606baae85p+10 total=0x1.fb53f32417860p+12',
        'job3@8=0x1.1b77278c23f44p+9 job1@16=0x1.05976212314a6p+8 job0@26=0x1.ffaa20893d436p+7 job2@30=0x1.e83c8ad88fce1p+8 job4@38=0x1.58379ce17ed20p+10 job5@46=0x1.34c941ed74468p+9 total=0x1.bde10875116efp+11',
    ),
    'r158': (
        'job0@2=0x1.f47b7d1826224p+10 total=0x1.f47b7d1826224p+10',
        'job0@9=0x1.6bfcb8119018ep+10 total=0x1.6bfcb8119018ep+10',
    ),
    's159': (
        'job0@11=0x1.7b4bcada1ff60p+9 job2@12=0x1.705918a0432e4p+9 job1@25=0x1.f400000000000p+8 total=0x1.f2d271bd31922p+10',
        'job0@12=0x1.6566666666667p+9 job2@13=0x1.9b64e1c1c632dp+9 job1@35=0x1.85defd3104b08p+7 total=0x1.b12183ba36e2bp+10',
    ),
    'q160': (
        'job2@1=0x1.38151730f75b4p+11 job1@5=0x1.24fa2252ddc39p+12 job5@12=0x1.3f5dad7e8520ep+9 job3@15=0x1.d65e80c6bf5a0p+9 job4@18=0x1.dca8a70c56bbep+12 job0@22=0x1.b09f0443b1c82p+10 total=0x1.1b2326f4514bap+14',
        'job2@1=0x1.38151730f75b4p+11 job1@10=0x1.559f2b41bb4adp+11 job5@12=0x1.3f5dad7e8520ep+9 job0@22=0x1.b09f0443b1c82p+10 job4@26=0x1.bed38ff9fcdccp+11 job3@28=0x1.d12e43e3ac57ap+9 total=0x1.7a3e9439c5314p+13',
    ),
    'r161': (
        'job2@14=0x1.3880000000000p+10 job0@23=0x1.7700000000000p+10 job1@27=0x1.2c00000000000p+9 total=0x1.a2c0000000000p+11',
        'job2@21=0x1.1940000000000p+10 job1@33=0x1.9000000000000p+8 job0@36=0x1.23aaaaaaaaaabp+10 total=0x1.5075555555556p+11',
    ),
    's162': (
        'job0@27=0x1.2ef1adf81e78fp+10 total=0x1.2ef1adf81e78fp+10',
        'job0@35=0x1.be5afb213d5c8p+8 total=0x1.be5afb213d5c8p+8',
    ),
    'q163': (
        'job0@18=0x1.5c9b50c2058f6p+9 total=0x1.5c9b50c2058f6p+9',
        'job0@34=0x1.0004b3a39236cp+8 total=0x1.0004b3a39236cp+8',
    ),
    'r164': (
        'job0@13=0x1.b2533b9e436c0p+10 total=0x1.b2533b9e436c0p+10',
        'job0@15=0x1.45be6cb6b2910p+10 total=0x1.45be6cb6b2910p+10',
    ),
    's165': (
        'job0@28=0x1.c33d0073f593cp+8 total=0x1.c33d0073f593cp+8',
        'job0@33=0x1.a504fc75293adp+7 total=0x1.a504fc75293adp+7',
    ),
    'q166': (
        'job1@8=0x1.de808c98496e4p+11 job0@28=0x1.fed742369a2c2p+8 total=0x1.0f2dba6f8e59ep+12',
        'job1@11=0x1.29a4e84459109p+11 job0@38=0x1.0eb91ad9e013fp+8 total=0x1.4b7c0b9f95131p+11',
    ),
    'r167': (
        'job0@21=0x1.2c00000000000p+9 total=0x1.2c00000000000p+9',
        'job0@24=0x1.9000000000000p+7 total=0x1.9000000000000p+7',
    ),
    's168': (
        'job2@0=0x1.b688a379f69a4p+11 job1@11=0x1.06557477f14e7p+11 job0@16=0x1.5296986fbc80cp+10 job3@25=0x1.e0b4cfb5f8052p+11 job4@28=0x1.7ab94fc55897cp+9 total=0x1.696321f445151p+13',
        'job2@0=0x1.b688a379f69a4p+11 job1@11=0x1.06557477f14e7p+11 job0@33=0x1.bae0636fae315p+9 job3@35=0x1.65a4990c181a2p+10 job4@38=0x1.ee3c9497ca64cp+8 total=0x1.070c03f9b633bp+13',
    ),
    'q169': (
        'job0@3=0x1.b555d1ad33796p+8 job1@8=0x1.f59ba63d00554p+9 job2@22=0x1.16ac4d8ee2dacp+11 total=0x1.cabdf153c95f4p+11',
        'job1@10=0x1.925e87cc3e4c6p+9 job0@14=0x1.2e36de00475e8p+8 job2@24=0x1.dc74ed243bd45p+10 total=0x1.7898f44536691p+11',
    ),
    'r170': (
        'job2@1=0x1.8068ffcda9e56p+7 job1@5=0x1.d6a3d549700ccp+9 job0@13=0x1.bece85fa61ba3p+10 job3@16=0x1.eacf35a3643c4p+8 total=0x1.aa70af00d4062p+11',
        'job1@5=0x1.d6a3d549700ccp+9 job2@6=0x1.0045ffde71439p+7 job3@16=0x1.eacf35a3643c4p+8 job0@18=0x1.29df03fc4126cp+10 total=0x1.57f6be02d0325p+11',
    ),
    's171': (
        'infeasible',
        'job1@12=0x1.6566666666667p+7 job3@18=0x1.f3fffffffffffp+8 job2@29=0x1.95ccb301551dcp+9 job0@34=0x1.f4be7b5b5fcc8p+9 job4@39=0x1.95ccb301551dcp+8 total=0x1.6a32c85dbe44ap+11',
    ),
    'q172': (
        'infeasible',
        'job0@10=0x1.b6a287f078855p+8 job4@12=0x1.a6f2e6ee8aba4p+11 job2@16=0x1.50384a5de51bdp+8 job3@20=0x1.4b9dea5486fdcp+9 job1@22=0x1.06bc74e54d5bdp+12 job5@40=0x1.e0d333bdc540ep+9 total=0x1.3818dca1e10d7p+13',
    ),
    'r173': (
        'job0@2=0x1.9000000000000p+10 job1@3=0x1.2c00000000000p+9 job4@11=0x1.2c00000000000p+10 job2@20=0x1.f400000000000p+8 job5@22=0x1.f400000000000p+8 job3@26=0x1.f400000000000p+9 total=0x1.5180000000000p+12',
        'job0@5=0x1.9000000000000p+9 job1@7=0x1.f400000000000p+8 job4@12=0x1.9000000000000p+9 job5@22=0x1.f400000000000p+8 job2@33=0x1.2c00000000000p+8 job3@44=0x1.2c00000000000p+9 total=0x1.b580000000000p+11',
    ),
    's174': (
        'job4@7=0x1.0ecc661635d90p+10 job3@12=0x1.5764b25d3a438p+10 job2@15=0x1.bab277bda421ep+9 job1@17=0x1.989448891b03bp+11 job0@23=0x1.64c2a0b903aecp+11 total=0x1.27c704dacff25p+13',
        'job4@10=0x1.7890ebf8a7bd2p+9 job2@15=0x1.bab277bda421ep+9 job1@17=0x1.989448891b03bp+11 job0@23=0x1.64c2a0b903aecp+11 job3@24=0x1.b4728769ccbb7p+11 total=0x1.5fa692665f997p+13',
    ),
    'q175': (
        'job0@5=0x1.ff8be0c51a1a4p+10 job1@17=0x1.d2bc21e4462e0p+9 job2@22=0x1.798568e804796p+10 total=0x1.189bd6a7d06aap+12',
        'job0@6=0x1.9426d78484997p+10 job1@17=0x1.d2bc21e4462e0p+9 job2@24=0x1.870ea66a5cc4cp+9 total=0x1.a0861dd5eb097p+11',
    ),
    'r176': (
        'job0@22=0x1.de452649b543bp+9 job1@26=0x1.ce9e964630ecdp+10 total=0x1.5ee094b585c75p+11',
        'job0@24=0x1.de452649b543bp+8 job1@26=0x1.ce9e964630ecdp+10 total=0x1.2317efec4f1eep+11',
    ),
    's177': (
        'infeasible',
        'infeasible',
    ),
    'q178': (
        'job2@3=0x1.e953eda98e7f2p+11 job1@10=0x1.a7d8e2f856624p+12 job3@15=0x1.8518c56bb5d86p+11 job0@26=0x1.df7d73b9dd528p+11 total=0x1.13b37d97f9cddp+14',
        'job1@12=0x1.07404913cacb2p+11 job2@16=0x1.fcf64cf946d6ep+10 job3@22=0x1.486cb23dc7722p+10 job0@29=0x1.56ec30cbb0cddp+11 total=0x1.00377e5ec0af5p+13',
    ),
    'r179': (
        'job2@0=0x1.0400000000000p+8 job1@9=0x1.f400000000000p+9 job3@17=0x1.d2aaaaaaaaaaap+7 job0@20=0x1.9000000000000p+10 total=0x1.82aaaaaaaaaaap+11',
        'job2@1=0x1.b800000000000p+7 job1@9=0x1.f400000000000p+9 job3@21=0x1.8ffffffffffffp+7 job0@25=0x1.9000000000000p+8 total=0x1.c700000000000p+10',
    ),
    's180': (
        'job0@20=0x1.9ec3d97566781p+9 total=0x1.9ec3d97566781p+9',
        'job0@32=0x1.a8887480753a8p+8 total=0x1.a8887480753a8p+8',
    ),
    'q181': (
        'job3@22=0x1.d41d7db6c08dap+9 job2@26=0x1.4e8c9fd9146e2p+10 job0@29=0x1.94dae265d124fp+10 job1@34=0x1.860a9f1970ee2p+8 job4@37=0x1.0a3b5a3d32f86p+9 total=0x1.2d05a57fcee47p+12',
        'infeasible',
    ),
    'r182': (
        'job4@3=0x1.ba0d3f722c1abp+10 job2@6=0x1.e8842dee2407ap+10 job0@14=0x1.699f0663e14e3p+10 job3@21=0x1.07c316c54869cp+10 job1@24=0x1.33165dad7dac8p+9 total=0x1.ab5fae580e2c2p+12',
        'job4@10=0x1.ba0d3f722c1abp+9 job2@15=0x1.86d024be83395p+10 job0@21=0x1.d0f10837463ffp+9 job3@27=0x1.07c316c54869cp+9 job1@34=0x1.55354ba452bfap+8 total=0x1.095f89b7bd52ep+12',
    ),
    's183': (
        'job0@22=0x1.f400000000000p+9 total=0x1.f400000000000p+9',
        'job0@22=0x1.f400000000000p+9 total=0x1.f400000000000p+9',
    ),
    'q184': (
        'job1@0=0x1.009cd0f4357e7p+12 job0@23=0x1.effc5a217d7b2p+8 total=0x1.1f9c96964d562p+12',
        'job1@15=0x1.3736b34642827p+11 job0@23=0x1.effc5a217d7b2p+8 total=0x1.75363e8a7231dp+11',
    ),
    'r185': (
        'job5@1=0x1.e000000000000p+9 job4@10=0x1.4d55555555554p+8 job2@15=0x1.2c00000000000p+9 job1@18=0x1.9000000000000p+7 job0@21=0x1.f400000000000p+9 job3@24=0x1.1800000000000p+9 total=0x1.c8aaaaaaaaaaap+11',
        'job5@2=0x1.9000000000000p+9 job4@14=0x1.9000000000000p+7 job1@18=0x1.9000000000000p+7 job0@21=0x1.f400000000000p+9 job3@26=0x1.9000000000000p+8 job2@31=0x1.2c00000000000p+8 total=0x1.6a80000000000p+11',
    ),
    's186': (
        'job2@5=0x1.a39f38a1307e5p+9 job0@13=0x1.4b061bc6c578cp+10 job1@14=0x1.516e6dc295e4ap+10 total=0x1.b72212ecf9ce4p+11',
        'job2@11=0x1.352243a5e5ba8p+8 job1@13=0x1.14db14447ca76p+10 job0@36=0x1.37ea1a3b64b55p+10 total=0x1.4d06dfb4ad65ap+11',
    ),
    'q187': (
        'job2@2=0x1.15505a15c6bccp+11 job0@15=0x1.84d2a1ca4dc28p+10 job3@21=0x1.588a6b6ecd420p+10 job1@29=0x1.91251c0b4e19ap+10 total=0x1.a648b75bfda5ep+12',
        'job2@4=0x1.1a972d9998f9ap+8 job0@24=0x1.5c8d47179e441p+9 job3@26=0x1.27db0d31704b8p+10 job1@34=0x1.3708f008471acp+10 total=0x1.a9e83615f6636p+11',
    ),
    'r188': (
        'job3@5=0x1.724097d18b6fap+10 job4@9=0x1.39734314ae352p+10 job1@17=0x1.5e4273a6df44ap+11 job0@21=0x1.0a37cf290d906p+10 job2@24=0x1.ebe868535798ap+9 total=0x1.da193161ac62bp+12',
        'job3@10=0x1.2833aca7a2bfcp+10 job4@16=0x1.f585382116bb6p+9 job0@22=0x1.0a37cf290d906p+8 job2@26=0x1.548d348877b87p+9 job1@34=0x1.d30344de7f062p+9 total=0x1.fca63c9af6708p+11',
    ),
    's189': (
        'job2@12=0x1.0c0cccccccccdp+9 job1@16=0x1.c33d0073f593cp+10 job0@21=0x1.f400000000000p+8 total=0x1.6321b36d2dfd1p+11',
        'job2@12=0x1.0c0cccccccccdp+9 job0@20=0x1.f400000000000p+8 job1@28=0x1.c33d0073f593cp+10 total=0x1.6321b36d2dfd1p+11',
    ),
    'q190': (
        'job2@7=0x1.cb0b675edf5a2p+9 job1@10=0x1.9cc90dbf833a9p+11 job3@19=0x1.4864dde70a1fdp+11 job0@26=0x1.75be9cb49ce35p+11 total=0x1.336bd88cb8851p+13',
        'job2@10=0x1.bf5e9d58d7a69p+6 job1@15=0x1.a3e28cb254769p+10 job3@27=0x1.00f21b2818bcfp+11 job0@36=0x1.1a6b9da958a7dp+11 total=0x1.7da4fa0ab12eap+12',
    ),
    'r191': (
        'job2@0=0x1.7700000000000p+10 job0@24=0x1.2c00000000000p+10 job1@26=0x1.5e00000000000p+9 total=0x1.a900000000000p+11',
        'job2@4=0x1.9000000000000p+9 job0@28=0x1.2c00000000000p+8 job1@40=0x1.2c00000000000p+8 total=0x1.5e00000000000p+10',
    ),
    's192': (
        'job0@5=0x1.d67282a1c04a0p+11 job2@11=0x1.d75176a377aa1p+10 job1@28=0x1.1c5195d2526b0p+11 total=0x1.ef3669e2e7450p+12',
        'job0@8=0x1.14e37b6334342p+11 job2@11=0x1.d75176a377aa1p+10 job1@35=0x1.a2e9b5550e960p+9 total=0x1.34a3520519d75p+12',
    ),
    'q193': (
        'job5@4=0x1.8ac0f23c36130p+10 job4@14=0x1.b855e4fec5f16p+8 job0@19=0x1.2ba9e25818a02p+11 job1@25=0x1.8c5824ffdca76p+11 job3@28=0x1.fecaea305f808p+8 job2@30=0x1.6b78d95020b5bp+9 total=0x1.13c9342bff4b3p+13',
        'job5@4=0x1.8ac0f23c36130p+10 job4@14=0x1.b855e4fec5f16p+8 job0@20=0x1.7261de513f42dp+9 job1@28=0x1.a54ccc6af19a7p+10 job2@36=0x1.54dec289c27d6p+9 job3@40=0x1.32aeafd5cb0dep+8 total=0x1.539bcd1273336p+12',
    ),
    'r194': (
        'job3@6=0x1.b5baed21e9000p+10 job1@10=0x1.4dd329c75122ep+8 job2@14=0x1.ac5296e536a42p+10 job0@22=0x1.047d4d9a9a939p+9 total=0x1.0df03d51904dbp+12',
        'job3@6=0x1.b5baed21e9000p+10 job1@10=0x1.4dd329c75122ep+8 job2@14=0x1.ac5296e536a42p+10 job0@25=0x1.38965d1fecb12p+8 total=0x1.00e9f9703bc65p+12',
    ),
    's195': (
        'job3@16=0x1.c33d0073f593cp+10 job1@21=0x1.3880000000000p+11 job2@25=0x1.f400000000000p+10 job0@27=0x1.f400000000000p+8 total=0x1.a94f401cfd64fp+12',
        'job3@16=0x1.c33d0073f593cp+10 job1@21=0x1.3880000000000p+11 job2@35=0x1.705918a0432e4p+9 job0@37=0x1.9b64e1c1c632dp+7 total=0x1.47f58a3f13fc5p+12',
    ),
    'q196': (
        'job0@18=0x1.3440749d22de6p+9 total=0x1.3440749d22de6p+9',
        'job0@36=0x1.ef563c8faa037p+7 total=0x1.ef563c8faa037p+7',
    ),
    'r197': (
        'job0@14=0x1.2c00000000000p+8 job1@17=0x1.4500000000000p+9 total=0x1.db00000000000p+9',
        'job1@14=0x1.2c00000000000p+8 job0@25=0x1.2c00000000000p+8 total=0x1.2c00000000000p+9',
    ),
    's198': (
        'job0@21=0x1.d907e6906681cp+11 total=0x1.d907e6906681cp+11',
        'job0@32=0x1.410bc9aaf6edbp+11 total=0x1.410bc9aaf6edbp+11',
    ),
    'q199': (
        'job2@8=0x1.48d1c59715fe7p+11 job1@16=0x1.8df5ef7595340p+10 job0@27=0x1.53080fc15a670p+10 total=0x1.5ca8629946e60p+12',
        'job1@19=0x1.4e8b538b22c24p+10 job2@23=0x1.0e7a05acbd49ep+11 job0@28=0x1.05ec8d00ecf45p+10 total=0x1.1c5afaf962929p+12',
    ),
}

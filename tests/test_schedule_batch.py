"""Vectorized schedule evaluation: exactness, caching, validation."""

import hashlib

import numpy as np
import pytest

from repro.core.errors import (
    ConstraintError,
    ParameterError,
    ValidationError,
)
from repro.core.intensity import CarbonIntensityTrace, solar_diurnal_trace
from repro.engine.cache import EvaluationCache
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
from repro.scheduling.fleet import (
    FleetJob,
    FleetSpec,
    Machine,
    single_machine_fleet,
)
from repro.scheduling.policies import POLICY_NAMES, simulate_fleet
from repro.scheduling.simulator import nightly_batch_workload
from repro.scheduling.sweep import (
    ScheduleSweepSpec,
    build_schedule_batch,
    run_policy_sweep,
)

# Distinct integer intensities: candidate costs never tie, so prefix-sum
# selection and the chronological scalar reference agree exactly.
INT_TRACE = CarbonIntensityTrace(
    "int", (400.0, 300.0, 100.0, 200.0, 500.0, 50.0, 450.0, 350.0)
)
HORIZON = 12


def _jobs(*rows):
    return tuple(
        FleetJob(
            name=f"j{i}",
            arrival_hour=arr,
            duration_hours=dur,
            energy_kwh=energy,
            deadline_hour=deadline,
            preemptible=pre,
            suspend_resume_overhead_kwh=ovh,
        )
        for i, (arr, dur, energy, deadline, pre, ovh) in enumerate(rows)
    )


def reference_scenarios():
    """Every policy, plus preemption, power, and one infeasible row."""
    plain = single_machine_fleet()
    powered = FleetSpec(
        (Machine("p", capacity=2, idle_power_w=200.0, active_power_w=100.0),)
    )
    mixed = _jobs(
        (0, 2.5, 2.0, 8, False, 0.0),
        (1, 1.0, 3.0, 10, False, 0.0),
        (2, 2.0, 1.0, 12, False, 0.0),
    )
    whole = _jobs(
        (0, 2.0, 2.0, 8, False, 0.0),
        (0, 1.0, 4.0, 10, True, 0.5),
        (3, 2.0, 1.0, 12, False, 0.0),
    )
    squeezed = _jobs(
        (0, 2.0, 1.0, 2, False, 0.0),
        (0, 2.0, 1.0, 2, False, 0.0),
        (0, 2.0, 1.0, 2, False, 0.0),
    )
    return (
        ScheduleScenario(0, "fifo", mixed, powered),
        ScheduleScenario(3, "edf", mixed, plain),
        ScheduleScenario(1, "carbon_waiting", mixed, plain),
        ScheduleScenario(2, "carbon_lowest", whole, powered),
        ScheduleScenario(5, "carbon_lowest", whole, plain),
        ScheduleScenario(0, "fifo", squeezed, plain),  # infeasible
    )


@pytest.fixture()
def batch():
    return ScheduleBatch.from_scenarios(
        reference_scenarios(), INT_TRACE, horizon_hours=HORIZON
    )


class TestBatchConstruction:
    def test_row_count_and_jobs(self, batch):
        assert len(batch) == 6
        assert batch.jobs_per_scenario == 3

    def test_columns_are_read_only(self, batch):
        with pytest.raises(ValueError):
            batch.policy_id[0] = 2.0

    def test_row_scenario_round_trip(self, batch):
        scenario = batch.row_scenario(3)
        assert scenario.policy == "carbon_lowest"
        assert scenario.window_offset == 2
        assert scenario.fleet.capacity == 2
        assert scenario.jobs[1].preemptible
        assert scenario.jobs[1].suspend_resume_overhead_kwh == 0.5

    def test_row_scenario_out_of_range(self, batch):
        with pytest.raises(ParameterError):
            batch.row_scenario(6)

    def test_uneven_job_counts_rejected(self):
        plain = single_machine_fleet()
        scenarios = (
            ScheduleScenario(0, "fifo", _jobs((0, 1.0, 1.0, 4, False, 0.0)), plain),
            ScheduleScenario(
                0,
                "fifo",
                _jobs(
                    (0, 1.0, 1.0, 4, False, 0.0),
                    (0, 1.0, 1.0, 4, False, 0.0),
                ),
                plain,
            ),
        )
        with pytest.raises(ParameterError, match="same number of jobs"):
            ScheduleBatch.from_scenarios(
                scenarios, INT_TRACE, horizon_hours=HORIZON
            )

    def test_unknown_policy_rejected(self):
        scenario = ScheduleScenario(
            0, "greedy", _jobs((0, 1.0, 1.0, 4, False, 0.0)),
            single_machine_fleet(),
        )
        with pytest.raises(ParameterError, match="unknown policy"):
            ScheduleBatch.from_scenarios(
                (scenario,), INT_TRACE, horizon_hours=HORIZON
            )

    def test_deadline_beyond_horizon_rejected(self):
        scenario = ScheduleScenario(
            0, "fifo", _jobs((0, 1.0, 1.0, 20, False, 0.0)),
            single_machine_fleet(),
        )
        with pytest.raises(ParameterError, match="horizon"):
            ScheduleBatch.from_scenarios(
                (scenario,), INT_TRACE, horizon_hours=HORIZON
            )

    def test_non_binary_preemptible_rejected(self, batch):
        tampered = {
            name: np.array(getattr(batch, name))
            for name in (
                "window_offset", "policy_id", "capacity", "idle_power_w",
                "active_power_w", "arrival_hour", "duration_hours",
                "energy_kwh", "deadline_hour", "preemptible", "overhead_kwh",
            )
        }
        tampered["preemptible"][0, 0] = 0.5
        with pytest.raises(ParameterError, match="preemptible"):
            ScheduleBatch(
                **tampered,
                trace_g_per_kwh=batch.trace_g_per_kwh,
                horizon_hours=batch.horizon_hours,
            )

    def test_no_scenarios_rejected(self):
        with pytest.raises(ParameterError, match="at least one scenario"):
            ScheduleBatch.from_scenarios(
                (), INT_TRACE, horizon_hours=HORIZON
            )


class TestExactEquivalence:
    def test_matches_scalar_reference_bit_for_bit(self, batch):
        result = evaluate_schedule_batch(batch)
        for row in range(len(batch)):
            scenario = batch.row_scenario(row)
            try:
                reference = simulate_fleet(
                    scenario.jobs,
                    scenario.fleet,
                    INT_TRACE,
                    scenario.policy,
                    horizon_hours=HORIZON,
                    window_offset=scenario.window_offset,
                )
            except ConstraintError:
                assert result.feasible[row] == 0.0
                for name in SCHEDULE_SERIES[:-1]:
                    assert np.isnan(getattr(result, name)[row])
                continue
            assert result.feasible[row] == 1.0
            assert float(result.emissions_g[row]) == reference.total_emissions_g
            assert float(result.energy_kwh[row]) == reference.total_energy_kwh
            assert (
                float(result.mean_wait_hours[row])
                == reference.mean_waiting_hours
            )
            assert (
                float(result.max_wait_hours[row])
                == reference.max_waiting_hours
            )
            assert (
                float(result.preemptions[row])
                == reference.total_preemptions
            )

    def test_matches_pinned_simulator_on_lifted_jobs(self, solar_int=None):
        # The degenerate fleet reproduces the single-machine study's FIFO
        # (pinned by the golden table in test_scheduling.py) on its own
        # workload, through the vectorized path.
        from repro.scheduling.fleet import from_simulator_job
        from repro.scheduling.simulator import schedule_fifo

        trace = CarbonIntensityTrace(
            "i24", tuple(float(100 + 17 * (h % 24)) for h in range(24))
        )
        jobs = tuple(from_simulator_job(j) for j in nightly_batch_workload(4))
        horizon = max(j.deadline_hour for j in jobs)
        scenario = ScheduleScenario(0, "fifo", jobs, single_machine_fleet())
        one = ScheduleBatch.from_scenarios(
            (scenario,), trace, horizon_hours=horizon
        )
        result = evaluate_schedule_batch(one)
        pinned = schedule_fifo(nightly_batch_workload(4), trace)
        assert float(result.emissions_g[0]) == pinned.total_emissions_g

    def test_verify_passes_on_every_row(self, batch):
        assert verify_schedule_batch(batch, sample=len(batch)) == len(batch)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_solar_sweep_agrees_with_scalar_reference_on_every_row(
        self, seed
    ):
        # Regression: prefix-sum start pricing broke exact CI ties
        # differently from the scalar chronological sum, and one
        # different carbon_lowest start cascaded through every later
        # placement of the row.
        from repro.core.intensity import solar_diurnal_trace
        from repro.scheduling.sweep import (
            ScheduleSweepSpec,
            build_schedule_batch,
        )

        spec = ScheduleSweepSpec(
            trace=solar_diurnal_trace(400.0), windows=200, seed=seed
        )
        batch = build_schedule_batch(spec)
        assert verify_schedule_batch(batch, sample=len(batch)) == len(batch)

    def test_verify_detects_corruption(self, batch):
        honest = evaluate_schedule_batch(batch)
        series = {
            name: np.array(getattr(honest, name)) for name in SCHEDULE_SERIES
        }
        series["emissions_g"] = series["emissions_g"] * 1.01
        with pytest.raises(ValidationError):
            verify_schedule_batch(
                batch, ScheduleBatchResult(**series), sample=len(batch)
            )

    @pytest.mark.parametrize("name", SCHEDULE_SERIES[:-1])
    def test_verify_detects_one_ulp_in_any_series(self, batch, name):
        honest = evaluate_schedule_batch(batch)
        series = {
            key: np.array(getattr(honest, key)) for key in SCHEDULE_SERIES
        }
        series[name][0] = np.nextafter(series[name][0], np.inf)
        with pytest.raises(ValidationError) as caught:
            verify_schedule_batch(
                batch, ScheduleBatchResult(**series), sample=len(batch)
            )
        assert caught.value.diagnostics == (
            f"row 0 (fifo): {name} {float(series[name][0])!r} vs scalar "
            f"reference {float(getattr(honest, name)[0])!r}",
        )

    def test_verify_detects_false_feasibility(self, batch):
        honest = evaluate_schedule_batch(batch)
        series = {
            name: np.array(getattr(honest, name)) for name in SCHEDULE_SERIES
        }
        series["feasible"][-1] = 1.0  # the squeezed row is infeasible
        with pytest.raises(ValidationError):
            verify_schedule_batch(
                batch, ScheduleBatchResult(**series), sample=len(batch)
            )


class TestCaching:
    def test_cache_hit_returns_same_object(self, batch):
        cache = EvaluationCache()
        first = evaluate_schedule_cached(batch, cache)
        second = evaluate_schedule_cached(batch, cache)
        assert second is first

    def test_key_tracks_content(self, batch):
        key = schedule_batch_key(batch)
        rebuilt = ScheduleBatch.from_scenarios(
            reference_scenarios(), INT_TRACE, horizon_hours=HORIZON
        )
        assert schedule_batch_key(rebuilt) == key
        shifted = ScheduleBatch.from_scenarios(
            reference_scenarios(),
            INT_TRACE,
            horizon_hours=HORIZON,
            threshold_quantile=0.25,
        )
        assert schedule_batch_key(shifted) != key


class TestSweepBatchPurity:
    def test_slices_match_full_build(self):
        spec = ScheduleSweepSpec(trace=INT_TRACE, windows=10)
        full = build_schedule_batch(spec)
        pieces = [
            build_schedule_batch(spec, start, min(start + 7, spec.rows))
            for start in range(0, spec.rows, 7)
        ]
        for name in (
            "window_offset", "policy_id", "arrival_hour", "duration_hours",
            "energy_kwh", "deadline_hour", "preemptible", "overhead_kwh",
        ):
            merged = np.concatenate(
                [np.atleast_1d(getattr(piece, name)) for piece in pieces]
            )
            np.testing.assert_array_equal(
                merged, getattr(full, name), err_msg=name
            )

    def test_bad_row_range_rejected(self):
        spec = ScheduleSweepSpec(trace=INT_TRACE, windows=2)
        with pytest.raises(ParameterError):
            build_schedule_batch(spec, 5, 3)
        with pytest.raises(ParameterError):
            build_schedule_batch(spec, 0, spec.rows + 1)

    def test_spec_validation(self):
        with pytest.raises(ParameterError, match="unknown policy"):
            ScheduleSweepSpec(trace=INT_TRACE, policies=("fifo", "greedy"))
        with pytest.raises(ParameterError, match="unique"):
            ScheduleSweepSpec(trace=INT_TRACE, policies=("fifo", "fifo"))
        with pytest.raises(ParameterError, match="horizon"):
            ScheduleSweepSpec(trace=INT_TRACE, horizon_hours=10)

    def test_dvfs_cap_stretches_sampled_jobs(self):
        from repro.core.dvfs import DvfsModel

        capped = FleetSpec(
            (Machine("m", dvfs=DvfsModel(), power_cap_w=2.0),)
        )
        plain_spec = ScheduleSweepSpec(
            trace=INT_TRACE, windows=4, horizon_hours=96
        )
        capped_spec = ScheduleSweepSpec(
            trace=INT_TRACE, windows=4, fleet=capped, horizon_hours=96
        )
        plain = build_schedule_batch(plain_spec)
        stretched = build_schedule_batch(capped_spec)
        slowdown = capped.slowdown
        np.testing.assert_allclose(
            stretched.duration_hours, plain.duration_hours * slowdown
        )
        assert np.all(stretched.energy_kwh < plain.energy_kwh)


class TestPolicySweep:
    def test_pareto_front_and_points(self):
        spec = ScheduleSweepSpec(trace=INT_TRACE, windows=30)
        result = run_policy_sweep(spec)
        assert {p.policy for p in result.points} == set(POLICY_NAMES)
        fifo = result.point_for("fifo")
        lowest = result.point_for("carbon_lowest")
        assert fifo.feasible_windows > 0
        assert lowest.mean_emissions_g <= fifo.mean_emissions_g + 1e-9
        assert result.pareto_policies  # non-empty front
        for point in result.pareto:
            assert point.feasible_windows > 0

    def test_point_for_unknown_policy(self):
        spec = ScheduleSweepSpec(trace=INT_TRACE, windows=2)
        result = run_policy_sweep(spec)
        with pytest.raises(ParameterError):
            result.point_for("greedy")

    def test_verify_sample_passes(self):
        spec = ScheduleSweepSpec(trace=INT_TRACE, windows=6)
        result = run_policy_sweep(spec, verify_sample=5)
        assert len(result.series["emissions_g"]) == spec.rows

    def test_policy_ids_follow_canonical_order(self):
        assert list(POLICY_IDS) == list(POLICY_NAMES)
        assert [POLICY_IDS[name] for name in POLICY_NAMES] == [0, 1, 2, 3]


def _series_digest(result):
    """SHA-256 over the ``float.hex`` of every series, in storage order."""
    digest = hashlib.sha256()
    for name in SCHEDULE_SERIES:
        digest.update(name.encode("ascii"))
        for value in getattr(result, name):
            digest.update(float(value).hex().encode("ascii"))
            digest.update(b",")
    return digest.hexdigest()


#: Spec overrides of the pinned sweeps (500 windows on the CLI's default
#: solar grid), and the series digests recorded for them when the
#: evaluator still carried a single-word bitset hour search.
PINNED_CONFIGS = {
    "default": {},
    "preemptible": {"preemptible_fraction": 0.5},
    "nine_jobs": {"jobs_per_window": 9},
}
PINNED_DIGESTS = [
    ("default", 1, "f2f61ef16fbc9a77f4d6c242680a1cfb94312782005b7797719032df1d4eb2b4"),
    ("default", 2, "66cad3a9915a9bb6789b432b4de49191360aaaff9891c04db65a73e880445329"),
    ("default", 3, "c9395891f1bd35fed2910105a4c3645c25c02ddada73b14c4886d16733492059"),
    ("default", 4, "9b8c3feaffcafce01695d1532088fb0f56c1f505acd0f53d514b02b0902fea40"),
    ("default", 5, "9b568e8b1e9a2d9241709087d3035116219b5c03cd169c78c7abbf02a7cfb08d"),
    ("preemptible", 1, "2334a3099b93297ae76ae6013ac0ae9afb13fd075a1cc7dd7f1a4a1327af5744"),
    ("preemptible", 2, "8f17a9afee6919ef66b913c923ce838258b4ef0fa8bd0aea0cb9ca401abc94be"),
    ("preemptible", 3, "e6f79c96a6a2d478338640cb4202147e01614df562bad0b73819e1db3c03cb97"),
    ("preemptible", 4, "48385807d475b0333c6fce7f61b5cdc02acd22f550c61116fd1e070f558eb8f4"),
    ("preemptible", 5, "028c093874f188e1ea5b1471b183e36bd6dce60cb23ba4d9b3401cf7f9f9d5c7"),
    ("nine_jobs", 1, "86e7aa3cd15e3e26a0cb446b6e57f7a303676b8e412765b3617da7412c424686"),
    ("nine_jobs", 2, "4778ee8deb1c9fed86a6425e215cb27a010bf54eff07dd83e511afa47139bf93"),
    ("nine_jobs", 3, "a90d7f6e58dbd57d209fd7f000a88caa6ee4eb3a14cdf92899f3ae90c6c419df"),
    ("nine_jobs", 4, "9605342ee0a7580411cf72dd67839f9aabe5f0ff7bf9608cce45dbc492e7c56f"),
    ("nine_jobs", 5, "d7b15dcdbc3135d5b151283d16ad7bba1b122a25dda9adf7c08b082745ddf9ef"),
]


class TestPinnedSeries:
    @pytest.mark.parametrize("config,seed,expected", PINNED_DIGESTS)
    def test_series_match_pinned_digest(self, config, seed, expected):
        spec = ScheduleSweepSpec(
            trace=solar_diurnal_trace(400.0),
            windows=500,
            seed=seed,
            **PINNED_CONFIGS[config],
        )
        result = evaluate_schedule_batch(build_schedule_batch(spec))
        assert _series_digest(result) == expected


class TestFeasibilityPaths:
    def test_wide_horizon_matches_scalar_reference(self):
        # A 96-hour window plus a 5-slot job spans more than 64 hours:
        # horizons past one machine word stay exact end to end.
        spec = ScheduleSweepSpec(
            trace=INT_TRACE, windows=6, horizon_hours=96, seed=11
        )
        batch = build_schedule_batch(spec)
        assert verify_schedule_batch(batch, sample=len(batch)) == len(batch)

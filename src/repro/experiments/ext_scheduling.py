"""Extension experiment: carbon-aware scheduling on time-varying grids.

Not a paper figure — the appendix notes carbon intensity "can fluctuate
over time" and the Reduce tenet includes renewable-driven hardware.  This
experiment quantifies what a flat-average model (the paper's CI_use) hides:
on a solar-heavy grid, placing deferrable work in the greenest window
saves a measurable factor that shrinks as the window widens.
"""

from __future__ import annotations

from repro.core.intensity import (
    constant_trace,
    scheduling_saving,
    solar_diurnal_trace,
)
from repro.experiments.base import ExperimentResult, check_in_band, check_true
from repro.reporting.figures import FigureData, Series
from repro.scheduling.simulator import (
    nightly_batch_workload,
    schedule_carbon_aware,
    schedule_fifo,
    scheduling_benefit,
)
from repro.scheduling.sweep import ScheduleSweepSpec, run_policy_sweep

EXPERIMENT_ID = "ext-scheduling"
TITLE = "Extension: carbon-aware scheduling vs the flat-average CI model"

_WINDOWS = (1, 2, 4, 8, 12, 24)

#: Windows in the fleet policy sweep — small enough to keep the
#: experiment interactive, large enough that policy means are stable.
_SWEEP_WINDOWS = 200


def run() -> ExperimentResult:
    """Sweep deferrable-job windows over flat and solar-diurnal grids."""
    solar = solar_diurnal_trace(base_ci_g_per_kwh=500.0, solar_share_at_noon=0.7)
    flat = constant_trace(solar.average)
    solar_savings = tuple(scheduling_saving(w, solar) for w in _WINDOWS)
    flat_savings = tuple(scheduling_saving(w, flat) for w in _WINDOWS)

    figures = (
        FigureData(
            title="Daily carbon-intensity profiles",
            x_label="hour",
            y_label="g CO2/kWh",
            series=(
                Series("solar-heavy grid", tuple(range(24)),
                       solar.hourly_g_per_kwh),
                Series("flat average", tuple(range(24)),
                       flat.hourly_g_per_kwh),
            ),
        ),
        FigureData(
            title="Greenest-window saving vs job duration",
            x_label="window (hours)",
            y_label="x vs average placement",
            series=(
                Series("solar-heavy grid", _WINDOWS, solar_savings),
                Series("flat grid", _WINDOWS, flat_savings),
            ),
        ),
    )

    # End-to-end simulation: a nightly batch workload on the solar grid.
    jobs = nightly_batch_workload(4)
    fifo = schedule_fifo(jobs, solar)
    aware = schedule_carbon_aware(jobs, solar)
    simulated_benefit = scheduling_benefit(jobs, solar)
    deadlines_met = all(
        placement.hours[-1] < placement.job.deadline_hour
        for placement in fifo.placements + aware.placements
    )

    # Fleet-scale policy sweep on the vectorized evaluator: every policy
    # schedules the same randomized windows, exposing the emissions /
    # waiting-time trade-off the single-workload simulation cannot show.
    sweep = run_policy_sweep(
        ScheduleSweepSpec(trace=solar, windows=_SWEEP_WINDOWS)
    )
    fifo_point = sweep.point_for("fifo")
    lowest_point = sweep.point_for("carbon_lowest")
    waiting_point = sweep.point_for("carbon_waiting")
    tradeoff_series = tuple(
        Series(
            point.policy,
            (point.mean_wait_hours - fifo_point.mean_wait_hours,),
            (
                100.0
                * (point.mean_emissions_g / fifo_point.mean_emissions_g - 1.0),
            ),
        )
        for point in sweep.points
        if point.policy != "fifo" and point.feasible_windows > 0
    )
    figures = figures + (
        FigureData(
            title=(
                "Policy trade-off vs FIFO: emissions delta against "
                "mean-waiting delta"
            ),
            x_label="Δ mean waiting vs fifo (hours)",
            y_label="Δ mean emissions vs fifo (%)",
            series=tradeoff_series,
        ),
    )
    lowest_saving = (
        1.0 - lowest_point.mean_emissions_g / fifo_point.mean_emissions_g
    )

    shrinking = all(a >= b - 1e-12 for a, b in zip(solar_savings, solar_savings[1:]))
    checks = (
        check_true(
            "the batch-scheduler simulation realizes the opportunity",
            simulated_benefit > 1.2 and deadlines_met,
            f"{simulated_benefit:.2f}x with all deadlines met",
            "> 1.2x emissions saving over run-immediately FIFO",
        ),
        check_in_band(
            "short-job saving on the solar-heavy grid",
            solar_savings[1], 1.15, 2.5,
        ),
        check_true(
            "saving shrinks as the window widens",
            shrinking,
            " -> ".join(f"{s:.2f}" for s in solar_savings),
            "monotone non-increasing",
        ),
        check_true(
            "a 24h job cannot be scheduled around the sun",
            abs(solar_savings[-1] - 1.0) < 1e-9,
            f"{solar_savings[-1]:.3f}x",
            "exactly 1x",
        ),
        check_true(
            "a flat grid offers no scheduling opportunity",
            all(abs(s - 1.0) < 1e-9 for s in flat_savings),
            "all 1.00x",
            "1x at every window",
        ),
        check_true(
            "carbon_lowest cuts fleet emissions vs FIFO on the solar grid",
            lowest_saving >= 0.05,
            f"{lowest_saving:.1%} mean-emission reduction over "
            f"{_SWEEP_WINDOWS} windows",
            ">= 5% below run-immediately FIFO",
        ),
        check_true(
            "the emission cut is paid for in waiting time",
            lowest_point.mean_wait_hours
            >= fifo_point.mean_wait_hours - 1e-9,
            f"{lowest_point.mean_wait_hours:.2f} h vs FIFO's "
            f"{fifo_point.mean_wait_hours:.2f} h mean waiting",
            "carbon_lowest waits at least as long as FIFO",
        ),
        check_true(
            "carbon_waiting never jumps the FIFO queue",
            waiting_point.mean_wait_hours
            >= fifo_point.mean_wait_hours - 1e-9,
            f"{waiting_point.mean_wait_hours:.2f} h vs FIFO's "
            f"{fifo_point.mean_wait_hours:.2f} h mean waiting",
            "deferring can only increase mean waiting",
        ),
        check_true(
            "the Pareto front keeps both extremes",
            "carbon_lowest" in sweep.pareto_policies
            and any(
                p in sweep.pareto_policies for p in ("fifo", "carbon_waiting")
            ),
            ", ".join(sweep.pareto_policies),
            "lowest-emissions and lowest-waiting policies both survive",
        ),
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        figures=figures,
        reference={
            "paper hook": "appendix: average CI values hide fluctuation; "
            "Reduce tenet: renewable-energy-driven hardware",
            "policy sweep": f"{_SWEEP_WINDOWS} windows x "
            f"{len(sweep.spec.policies)} policies on the vectorized "
            "evaluator; Pareto front: "
            + ", ".join(sweep.pareto_policies),
        },
        checks=checks,
    )

"""Command-line interface for the ACT reproduction.

Subcommands::

    act-repro footprint --node 7 --area 100 --dram 8 --ssd 128
        Embodied footprint of an ad-hoc platform, with breakdown.

    act-repro cpa [--mix taiwan_grid] [--abatement 0.97]
        Carbon-per-area across the node ladder (Figure 6 data).

    act-repro experiment fig8            # or: all
        Regenerate a paper table/figure and print data + shape checks.

    act-repro socs
        The mobile SoC catalog with embodied carbon per chipset.

    act-repro export fig12 --format csv
        Dump an experiment's first figure as CSV/JSON for plotting.

    act-repro sensitivity [--top 8] [--draws 2000]
        Tornado ranking + Monte Carlo spread over the Table 1 parameters.

    act-repro montecarlo [--draws 10000] [--seed 2022] [--percentiles 5,50,95]
        Footprint distribution over the Table 1 ranges on the batched engine.
        ``--policy`` runs it through the guarded engine; ``--checkpoint`` /
        ``--resume`` / ``--max-seconds`` make long runs killable+resumable.

    act-repro schedule [--windows 1000] [--policy all] [--workers 4]
        Fleet-scale carbon-aware scheduling policy sweep on the vectorized
        evaluator: per-policy emissions/waiting points and the Pareto
        front.  ``--checkpoint`` / ``--resume`` / ``--max-seconds`` make
        long sweeps killable+resumable, bit-identically.

    act-repro baselines
        ACT vs the prior-work models (GreenChip-style inventory, exergy).

    act-repro profile fig10 [--trace run.jsonl]
        Run an experiment under a live run context and print the span
        tree, the per-span cost table, and the metrics counters.

    act-repro serve [--port 8080] [--max-batch 256] [--rate 100]
        The resilient carbon-query HTTP service: concurrent scalar
        queries micro-batched into one kernel call per tick, with
        admission control, per-request deadlines, a circuit breaker, and
        drain-on-SIGTERM.  ``--port 0`` picks a free port and prints it.

Every subcommand additionally accepts ``--trace FILE`` (write the run's
structured JSONL event stream to FILE) and ``--metrics`` (print the
metrics-registry summary to stderr when the command finishes).  Without
either flag the observability spine stays on its no-op null context.

Errors from the model stack (unknown table entries, validation failures,
checkpoint mismatches, …) exit with code 2 and a one-line message; an
interrupted-but-checkpointed run exits with code 3 and a resume hint.
Pass ``--debug`` to get the full traceback instead.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.components import DramComponent, LogicComponent, SsdComponent
from repro.core.model import Platform
from repro.data.fab_nodes import TSMC_ABATEMENT, node_names
from repro.data.soc_catalog import all_socs
from repro.experiments import EXPERIMENTS, run_all, run_experiment
from repro.experiments.base import result_summary
from repro.fabs.fab import FabScenario
from repro.platforms.mobile import soc_platform
from repro.reporting.serialize import figure_to_csv, figure_to_json
from repro.reporting.tables import ascii_table


def _add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    """The shard-geometry and failure-policy flags shared by the
    parallel-capable subcommands (``montecarlo``/``sensitivity``/
    ``schedule``); ``--workers`` stays per-command (its help text
    differs).  Values are validated by ``ExecutionPolicy`` so bad input
    exits 2 exactly like an invalid ``--workers``."""
    parser.add_argument(
        "--shard-rows",
        type=int,
        default=None,
        metavar="N",
        help="rows per shard (default: 65536; part of the determinism "
        "contract — changing it changes the sharded sample stream)",
    )
    parser.add_argument(
        "--failure-policy",
        choices=("fail_fast", "retry", "degrade"),
        default=None,
        help="what happens when a worker dies or a shard fails "
        "(default: fail_fast; retry = respawn + re-execute under a "
        "bounded budget; degrade = quarantine exhausted shards and "
        "finish with a partial result)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="re-executions granted per shard beyond its first attempt "
        "under retry/degrade (default: 2)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="act-repro",
        description="ACT (ISCA 2022) architectural carbon model — reproduction",
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="re-raise model errors with a full traceback instead of the "
        "one-line exit-code-2 summary",
    )
    # Observability flags shared by every subcommand (a parent parser, so
    # they are accepted *after* the subcommand: ``experiment all --trace f``).
    obs = argparse.ArgumentParser(add_help=False)
    obs.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write the run's structured JSONL event stream to FILE",
    )
    obs.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics-registry summary to stderr on exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    footprint = sub.add_parser(
        "footprint",
        help="embodied footprint of an ad-hoc platform",
        parents=[obs],
    )
    footprint.add_argument(
        "--config", default=None,
        help="JSON platform description (overrides the ad-hoc flags)",
    )
    footprint.add_argument("--node", default="7", help="logic process node")
    footprint.add_argument(
        "--area", type=float, default=100.0, help="SoC die area (mm^2)"
    )
    footprint.add_argument(
        "--dram", type=float, default=0.0, help="DRAM capacity (GB)"
    )
    footprint.add_argument(
        "--dram-tech", default="lpddr4", help="Table 9 DRAM technology"
    )
    footprint.add_argument("--ssd", type=float, default=0.0, help="SSD capacity (GB)")
    footprint.add_argument(
        "--ssd-tech", default="nand_v3_tlc", help="Table 10 SSD technology"
    )
    footprint.add_argument(
        "--mix", default="taiwan_25_renewable", help="fab energy mix"
    )

    cpa = sub.add_parser(
        "cpa", help="carbon-per-area across nodes (Figure 6)", parents=[obs]
    )
    cpa.add_argument("--mix", default="taiwan_25_renewable", help="fab energy mix")
    cpa.add_argument(
        "--abatement", type=float, default=TSMC_ABATEMENT, help="gas abatement"
    )

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure", parents=[obs]
    )
    experiment.add_argument(
        "id",
        help=f"experiment id ({', '.join(EXPERIMENTS)}), an extension id "
        "(ext-*), 'all', or 'extensions'",
    )
    experiment.add_argument(
        "--json",
        action="store_true",
        help="print machine-readable shape-check results instead of text",
    )

    profile = sub.add_parser(
        "profile",
        help="run an experiment under a live run context and print the "
        "span tree + metrics",
        parents=[obs],
    )
    profile.add_argument(
        "id",
        help=f"experiment id ({', '.join(EXPERIMENTS)}), an extension id "
        "(ext-*), or 'all'",
    )

    sub.add_parser(
        "socs",
        help="the mobile SoC catalog with embodied carbon",
        parents=[obs],
    )

    export = sub.add_parser(
        "export", help="dump an experiment's data", parents=[obs]
    )
    export.add_argument("id", help="experiment id")
    export.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    export.add_argument(
        "--panel", type=int, default=0, help="figure panel index to export"
    )

    sensitivity = sub.add_parser(
        "sensitivity",
        help="tornado + Monte Carlo over the ACT parameters",
        parents=[obs],
    )
    sensitivity.add_argument(
        "--top", type=int, default=8, help="parameters to show"
    )
    sensitivity.add_argument(
        "--draws", type=int, default=2000, help="Monte Carlo samples"
    )
    sensitivity.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the Monte Carlo stage (default: 1)",
    )
    _add_parallel_arguments(sensitivity)

    montecarlo = sub.add_parser(
        "montecarlo",
        help="batched Monte Carlo footprint distribution over the Table 1 "
        "parameter ranges",
        parents=[obs],
    )
    montecarlo.add_argument(
        "--draws", type=int, default=10_000, help="Monte Carlo samples"
    )
    montecarlo.add_argument(
        "--seed", type=int, default=2022, help="RNG seed (reproducible)"
    )
    montecarlo.add_argument(
        "--distribution",
        choices=("triangular", "uniform"),
        default="triangular",
        help="per-parameter sampling distribution",
    )
    montecarlo.add_argument(
        "--percentiles",
        default="5,50,95",
        help="comma-separated percentiles to report (0-100)",
    )
    montecarlo.add_argument(
        "--policy",
        choices=("off", "strict"),
        default="off",
        help="strict: validate every draw and cross-check the kernel "
        "(default: off = raw engine)",
    )
    montecarlo.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="checkpoint file for chunked execution (atomic; enables --resume)",
    )
    montecarlo.add_argument(
        "--resume",
        action="store_true",
        help="continue from --checkpoint instead of starting over",
    )
    montecarlo.add_argument(
        "--chunk-rows",
        type=int,
        default=None,
        metavar="N",
        help="draws per chunk: the sample stream's block size and the "
        "checkpoint cadence (default: the shard size, 65536)",
    )
    montecarlo.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes sharding the draws (default: 1; the "
        "samples are bit-identical at any worker count)",
    )
    _add_parallel_arguments(montecarlo)
    montecarlo.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget; the run checkpoints and exits 3 when it "
        "runs out",
    )

    schedule = sub.add_parser(
        "schedule",
        help="fleet-scale carbon-aware scheduling policy sweep with an "
        "emissions-vs-waiting Pareto front",
        parents=[obs],
    )
    schedule.add_argument(
        "--windows",
        type=int,
        default=1000,
        metavar="N",
        help="sampled (trace offset, job set) windows; every policy "
        "schedules each window's identical job set (default: 1000)",
    )
    schedule.add_argument(
        "--policy",
        default="all",
        metavar="NAME",
        help="one scheduling policy (fifo, edf, carbon_waiting, "
        "carbon_lowest) or 'all' to compare every policy per window "
        "(default: all)",
    )
    schedule.add_argument(
        "--jobs", type=int, default=5, metavar="N",
        help="jobs drawn per window (default: 5)",
    )
    schedule.add_argument(
        "--horizon", type=int, default=48, metavar="H",
        help="simulation window length in hours (default: 48)",
    )
    schedule.add_argument(
        "--seed", type=int, default=2022, help="RNG seed (reproducible)"
    )
    schedule.add_argument(
        "--grid",
        choices=("solar", "flat"),
        default="solar",
        help="grid intensity profile the fleet follows (solar = diurnal "
        "dip, flat = constant; default: solar)",
    )
    schedule.add_argument(
        "--base-ci",
        type=float,
        default=400.0,
        metavar="G",
        help="baseline carbon intensity in g CO2/kWh (default: 400)",
    )
    schedule.add_argument(
        "--threshold-quantile",
        type=float,
        default=0.5,
        metavar="Q",
        help="carbon_waiting's green-start CI quantile in [0, 1] "
        "(default: 0.5)",
    )
    schedule.add_argument(
        "--verify-sample",
        type=int,
        default=0,
        metavar="N",
        help="cross-check N evenly spaced rows against the scalar "
        "reference simulator (default: 0 = off)",
    )
    schedule.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="checkpoint file for chunked execution (atomic; enables "
        "--resume)",
    )
    schedule.add_argument(
        "--resume",
        action="store_true",
        help="continue from --checkpoint instead of starting over",
    )
    schedule.add_argument(
        "--chunk-rows",
        type=int,
        default=None,
        metavar="N",
        help="scenario rows evaluated between checkpoint writes "
        "(default: 4096)",
    )
    schedule.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes sharding the sweep rows (results are "
        "bit-identical at any worker count; default: 1)",
    )
    _add_parallel_arguments(schedule)
    schedule.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget; the run checkpoints and exits 3 when it "
        "runs out",
    )

    sub.add_parser(
        "baselines",
        help="compare ACT against prior-work models",
        parents=[obs],
    )

    report = sub.add_parser(
        "report",
        help="generate a product environmental report (Markdown)",
        parents=[obs],
    )
    report.add_argument(
        "--config", required=True, help="JSON platform description"
    )
    report.add_argument("--mass-kg", type=float, default=0.5)
    report.add_argument("--power-w", type=float, default=1.5)
    report.add_argument("--utilization", type=float, default=0.2)
    report.add_argument("--ci", type=float, default=380.0,
                        help="use-phase carbon intensity (g CO2/kWh)")
    report.add_argument("--lifetime-years", type=float, default=3.0)

    sub.add_parser(
        "validate",
        help="run integrity checks over the bundled data tables",
        parents=[obs],
    )

    serve = sub.add_parser(
        "serve",
        help="run the resilient carbon-query HTTP service (micro-batched)",
        parents=[obs],
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port (0 = pick a free port and print it)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=256,
        metavar="N",
        help="most concurrent queries coalesced into one kernel call "
        "(1 disables cross-request batching)",
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        metavar="MS",
        help="longest a query waits for co-travelers before its batch "
        "fires anyway",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=1024,
        metavar="N",
        help="in-flight request bound; above it load is shed with 429",
    )
    serve.add_argument(
        "--deadline-s",
        type=float,
        default=2.0,
        metavar="S",
        help="default per-request deadline when the client names none",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=0.0,
        metavar="R",
        help="per-client token-bucket refill rate, requests/sec "
        "(0 = unlimited)",
    )
    serve.add_argument(
        "--burst",
        type=float,
        default=50.0,
        metavar="B",
        help="per-client token-bucket depth",
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        metavar="N",
        help="consecutive backend failures that trip the circuit breaker "
        "into cache-only serving",
    )
    serve.add_argument(
        "--breaker-cooldown-s",
        type=float,
        default=1.0,
        metavar="S",
        help="seconds the breaker stays open before probing the backend",
    )
    serve.add_argument(
        "--cache-capacity",
        type=int,
        default=4096,
        metavar="N",
        help="entries in the shared evaluation cache",
    )
    serve.add_argument(
        "--drain-timeout-s",
        type=float,
        default=10.0,
        metavar="S",
        help="longest a SIGTERM drain waits for in-flight requests",
    )
    serve.add_argument(
        "--access-log",
        default=None,
        metavar="FILE",
        help="append one JSONL access record per request to FILE",
    )

    torture = sub.add_parser(
        "torture",
        help="crash a checkpointed run at every durability boundary and "
        "prove bit-identical recovery",
        parents=[obs],
    )
    torture.add_argument(
        "--workload",
        default="mc",
        help="workload to torture: mc, sweep, schedule, or all",
    )
    torture.add_argument(
        "--workers", type=int, default=1, help="worker processes per run"
    )
    torture.add_argument(
        "--mode",
        choices=("subprocess", "inprocess"),
        default=None,
        help="subprocess = real SIGKILL (workers=1 only); inprocess = "
        "simulated power loss (default: picked from --workers)",
    )
    torture.add_argument(
        "--kinds",
        default="crash",
        help="comma-separated fault kinds: crash, torn, torn_rename, "
        "drop_fsync, enospc, eio (default: crash)",
    )
    torture.add_argument(
        "--points",
        default=None,
        help="comma-separated crash-point names to restrict the campaign "
        "to (default: every reached point)",
    )
    torture.add_argument(
        "--list-points",
        action="store_true",
        help="list registered crash points and exit",
    )
    torture.add_argument(
        "--json",
        action="store_true",
        help="emit the campaign results as JSON on stdout",
    )
    return parser


def _cmd_footprint(args: argparse.Namespace) -> int:
    if args.config:
        from repro.io.config import load_platform

        platform = load_platform(args.config)
    else:
        fab = FabScenario.for_node(args.node, energy_mix=args.mix)
        components = [LogicComponent("SoC", args.area, fab)]
        if args.dram > 0:
            components.append(
                DramComponent.of("DRAM", args.dram, args.dram_tech)
            )
        if args.ssd > 0:
            components.append(SsdComponent.of("SSD", args.ssd, args.ssd_tech))
        platform = Platform("cli platform", tuple(components))
    report = platform.embodied()
    rows = [
        (item.name, item.category, item.carbon_g / 1000.0) for item in report.items
    ]
    rows.append(("packaging", "packaging", report.packaging_g / 1000.0))
    rows.append(("TOTAL", "", report.total_kg))
    print(ascii_table(("component", "category", "kg CO2e"), rows))
    return 0


def _cmd_cpa(args: argparse.Namespace) -> int:
    rows = []
    for name in node_names():
        fab = FabScenario.for_node(
            name, energy_mix=args.mix, abatement=args.abatement
        )
        params = fab.params_for_area(1.0)
        rows.append(
            (
                name,
                params.epa_kwh_per_cm2,
                params.gpa_g_per_cm2,
                params.fab_yield,
                params.cpa_g_per_cm2(),
            )
        )
    print(
        ascii_table(
            ("node", "EPA kWh/cm2", "GPA g/cm2", "yield", "CPA g/cm2"), rows
        )
    )
    return 0


def _run_experiment_set(experiment_id: str):
    """The results named by an experiment id / 'all' / 'extensions'."""
    key = experiment_id.strip().lower()
    if key == "all":
        return run_all()
    if key == "extensions":
        from repro.experiments import run_all_extensions

        return run_all_extensions()
    return (run_experiment(experiment_id),)


def _workers_policy(args: argparse.Namespace) -> "object | None":
    """Map the parallel-execution flags to an execution policy.

    Always constructs an :class:`~repro.parallel.ExecutionPolicy` so any
    invalid value fails with :class:`~repro.core.errors.ParameterError`
    (exit code 2).  A plain ``--workers 1`` with no other flag resolves
    to ``None``, the plain serial path; results never depend on which.
    """
    from repro.parallel import ExecutionPolicy

    overrides = {
        name: getattr(args, name)
        for name in ("shard_rows", "failure_policy", "max_retries")
        if getattr(args, name) is not None
    }
    policy = ExecutionPolicy(workers=args.workers, **overrides)
    return policy if (policy.parallel or overrides) else None


def _cmd_experiment(args: argparse.Namespace) -> int:
    key = args.id.strip().lower()
    results = _run_experiment_set(args.id)
    failures = [c for r in results for c in r.failed_checks()]
    if args.json:
        from repro.core.errors import finite_json

        payload = {
            "experiments": [result.as_dict() for result in results],
            "all_passed": not failures,
        }
        print(finite_json(payload, "experiment results", indent=2))
        return 1 if failures else 0
    if key in ("all", "extensions"):
        print(result_summary(results))
        for check in failures:
            print(f"FAIL: {check.name} (observed {check.observed}, "
                  f"expected {check.expected})")
        return 1 if failures else 0
    print(results[0].render_text())
    return 1 if failures else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.engine.cache import DEFAULT_CACHE
    from repro.obs.context import current_context
    from repro.obs.trace import span_cost_table

    context = current_context()
    # Scope the process-wide cache's statistics to this profiled run, then
    # mirror them into the event stream so the trace carries hit/miss
    # counts even for experiments that never enter the cached path.
    DEFAULT_CACHE.reset_stats()
    results = _run_experiment_set(args.id)
    stats = DEFAULT_CACHE.stats()
    context.event("cache_stats", **stats.as_dict())
    print(result_summary(results))
    print()
    print("span tree:")
    print(context.tracer.render_tree())
    costs = span_cost_table(context.tracer)
    if len(costs) > 1:
        print()
        print("per-experiment cost:")
        rows = [(name, round(seconds * 1e3, 3)) for name, seconds in costs]
        print(ascii_table(("experiment", "wall ms"), rows))
    print()
    print(context.metrics.render())
    print(
        f"cache: {stats.hits} hits, {stats.misses} misses, "
        f"{stats.evictions} evictions"
    )
    failures = [c for r in results for c in r.failed_checks()]
    return 1 if failures else 0


def _cmd_socs(_: argparse.Namespace) -> int:
    rows = [
        (
            soc.name,
            soc.family,
            soc.year,
            soc.node,
            soc.die_area_mm2,
            soc.tdp_w,
            soc.perf_score,
            soc_platform(soc).embodied_kg(),
        )
        for soc in all_socs()
    ]
    print(
        ascii_table(
            ("SoC", "family", "year", "node", "mm^2", "TDP W", "score",
             "embodied kg"),
            rows,
        )
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    result = run_experiment(args.id)
    if not result.figures:
        print(f"experiment {args.id} has no figure panels", file=sys.stderr)
        return 2
    if not 0 <= args.panel < len(result.figures):
        print(
            f"panel {args.panel} out of range (have {len(result.figures)})",
            file=sys.stderr,
        )
        return 2
    figure = result.figures[args.panel]
    if args.format == "json":
        print(figure_to_json(figure))
    else:
        print(figure_to_csv(figure), end="")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.analysis import ActScenario, run_monte_carlo, tornado

    base = ActScenario()
    records = tornado(base)[: args.top]
    rows = [
        (r.parameter, r.low, r.high, r.response_low / 1000.0,
         r.response_high / 1000.0, r.swing / 1000.0)
        for r in records
    ]
    print(f"Base scenario footprint: {base.total_g() / 1000.0:.2f} kg CO2e")
    print("Tornado (one-at-a-time over Table 1 ranges):")
    print(
        ascii_table(
            ("parameter", "low", "high", "CF@low kg", "CF@high kg", "swing kg"),
            rows,
        )
    )
    result = run_monte_carlo(
        base,
        draws=args.draws,
        policy=_workers_policy(args),
    )
    print()
    print(
        f"Monte Carlo ({args.draws} draws): mean {result.mean / 1000.0:.2f} kg, "
        f"90% interval [{result.p5 / 1000.0:.2f}, {result.p95 / 1000.0:.2f}] kg"
    )
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    import time

    from repro.analysis import ActScenario
    from repro.robustness import CancelToken, run_monte_carlo_chunked

    try:
        percentiles = [
            float(field) for field in args.percentiles.split(",") if field.strip()
        ]
    except ValueError:
        print(f"invalid percentile list: {args.percentiles!r}", file=sys.stderr)
        return 2
    if not percentiles or any(not 0 <= q <= 100 for q in percentiles):
        print("percentiles must be numbers in [0, 100]", file=sys.stderr)
        return 2

    from repro.engine.cache import EvaluationCache

    # A private cache so the printed hit/miss/eviction stats describe this
    # run alone, not whatever the process-wide cache accumulated before.
    cache = EvaluationCache()
    guard = None
    if args.policy != "off":
        from repro.robustness import GuardedEngine

        guard = GuardedEngine(cache=cache)

    base = ActScenario()
    policy = _workers_policy(args)
    cancel = (
        CancelToken(deadline_seconds=args.max_seconds)
        if args.max_seconds is not None
        else None
    )
    started = time.perf_counter()
    result = run_monte_carlo_chunked(
        base,
        draws=args.draws,
        seed=args.seed,
        distribution=args.distribution,
        chunk_rows=args.chunk_rows,
        checkpoint=args.checkpoint,
        resume=args.resume,
        cancel=cancel,
        guard=guard,
        cache=cache,
        policy=policy,
    )
    elapsed = time.perf_counter() - started
    print(
        f"Monte Carlo over the Table 1 ranges — batched engine, "
        f"{args.draws} draws, seed {args.seed}, {args.distribution}"
        + (f", policy={args.policy}" if guard is not None else "")
    )
    partial = getattr(result, "partial", None)
    if partial is not None:
        print(
            f"DEGRADED: quarantined {len(partial.quarantined)} shard(s) "
            f"({partial.rows} draws dropped after retries); statistics "
            f"cover the surviving draws",
            file=sys.stderr,
        )
    print(f"Base scenario footprint: {result.base_response / 1000.0:.2f} kg CO2e")
    print(
        f"mean {result.mean / 1000.0:.2f} kg, std {result.std / 1000.0:.2f} kg"
    )
    rows = [
        (f"p{q:g}", value / 1000.0)
        for q, value in zip(percentiles, result.percentiles(percentiles))
    ]
    print(ascii_table(("percentile", "kg CO2e"), rows))
    rate = args.draws / elapsed if elapsed > 0 else float("inf")
    print(f"throughput: {rate:,.0f} points/sec ({elapsed * 1e3:.1f} ms)")
    stats = cache.stats()
    print(
        f"cache: {stats.hits} hits, {stats.misses} misses, "
        f"{stats.evictions} evictions ({stats.hit_rate:.0%} hit rate, "
        f"{stats.size}/{stats.capacity} entries)"
    )
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    import time

    from repro.core.intensity import constant_trace, solar_diurnal_trace
    from repro.scheduling import (
        POLICY_NAMES,
        ScheduleSweepSpec,
        run_policy_sweep,
    )

    if args.grid == "solar":
        trace = solar_diurnal_trace(args.base_ci)
    else:
        trace = constant_trace(args.base_ci)
    key = args.policy.strip().lower()
    policies = POLICY_NAMES if key == "all" else (key,)
    spec = ScheduleSweepSpec(
        trace=trace,
        windows=args.windows,
        policies=policies,
        jobs_per_window=args.jobs,
        horizon_hours=args.horizon,
        seed=args.seed,
        threshold_quantile=args.threshold_quantile,
    )
    policy = _workers_policy(args)
    cancel = None
    if args.max_seconds is not None:
        from repro.robustness import CancelToken

        cancel = CancelToken(deadline_seconds=args.max_seconds)
    started = time.perf_counter()
    result = run_policy_sweep(
        spec,
        policy=policy,
        chunk_rows=args.chunk_rows,
        checkpoint=args.checkpoint,
        resume=args.resume,
        cancel=cancel,
        verify_sample=args.verify_sample,
    )
    elapsed = time.perf_counter() - started
    print(
        f"Carbon-aware scheduling sweep — {spec.windows} windows x "
        f"{len(spec.policies)} policies ({spec.rows} scenarios), "
        f"{spec.jobs_per_window} jobs/window, {args.grid} grid at "
        f"{args.base_ci:g} g/kWh, seed {spec.seed}"
    )
    rows = [
        (
            point.policy,
            round(point.mean_emissions_g, 1),
            round(point.mean_wait_hours, 3),
            round(point.max_wait_hours, 2),
            round(point.mean_energy_kwh, 3),
            int(point.total_preemptions),
            f"{point.feasible_windows}/{point.windows}",
        )
        for point in result.points
    ]
    print(
        ascii_table(
            (
                "policy",
                "mean g CO2",
                "mean wait h",
                "max wait h",
                "mean kWh",
                "preemptions",
                "feasible",
            ),
            rows,
        )
    )
    print(
        "Pareto front (emissions vs waiting): "
        + ", ".join(result.pareto_policies)
    )
    try:
        fifo = result.point_for("fifo")
    except Exception:
        fifo = None
    if fifo is not None and fifo.mean_emissions_g > 0:
        for point in result.points:
            if point.policy == "fifo" or point.feasible_windows == 0:
                continue
            delta_em = point.mean_emissions_g / fifo.mean_emissions_g - 1.0
            delta_wait = point.mean_wait_hours - fifo.mean_wait_hours
            print(
                f"  {point.policy}: {delta_em:+.1%} emissions vs fifo for "
                f"{delta_wait:+.2f} h mean waiting"
            )
    if args.verify_sample > 0:
        print(
            f"verified {min(args.verify_sample, spec.rows)} rows against "
            "the scalar reference"
        )
    rate = spec.rows / elapsed if elapsed > 0 else float("inf")
    print(f"throughput: {rate:,.0f} scenarios/sec ({elapsed * 1e3:.1f} ms)")
    return 0


def _cmd_baselines(_: argparse.Namespace) -> int:
    from repro.baselines import exergy_blind_spot, greenchip_vs_act

    rows = [
        (
            row.node,
            row.act_cpa_g_per_cm2,
            row.baseline_cpa_g_per_cm2,
            row.act_over_baseline,
            "yes" if row.baseline_extrapolated else "no",
        )
        for row in greenchip_vs_act()
    ]
    print("ACT vs GreenChip-style parametric inventory (g CO2/cm^2):")
    print(
        ascii_table(
            ("node", "ACT", "baseline", "ACT/baseline", "extrapolated?"), rows
        )
    )
    blind = exergy_blind_spot()
    print()
    print("Exergy blind spot (Taiwan-grid vs solar fab, same die):")
    print(f"  ACT separates the scenarios by {blind.act_separation:.2f}x")
    print(f"  exergy scores them identically ({blind.exergy_separation:.2f}x)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.lifecycle import device_lifecycle
    from repro.io.config import load_platform
    from repro.reporting.per import product_environmental_report

    platform = load_platform(args.config)
    lifecycle = device_lifecycle(
        platform,
        mass_kg=args.mass_kg,
        average_power_w=args.power_w,
        utilization=args.utilization,
        ci_use_g_per_kwh=args.ci,
        lifetime_years=args.lifetime_years,
    )
    print(
        product_environmental_report(
            platform,
            lifecycle,
            lifetime_years=args.lifetime_years,
            ci_use_g_per_kwh=args.ci,
        )
    )
    return 0


def _cmd_validate(_: argparse.Namespace) -> int:
    from repro.data.validation import validate_all

    findings = validate_all()
    rows = [
        (f.table, f.check, "pass" if f.passed else "FAIL", f.detail)
        for f in findings
    ]
    print(ascii_table(("table", "check", "status", "detail"), rows))
    failed = [f for f in findings if not f.passed]
    print(f"\n{len(findings) - len(failed)}/{len(findings)} checks passed")
    return 1 if failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.events import JsonlEventSink
    from repro.service.config import ServiceConfig
    from repro.service.http import serve_forever

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        queue_limit=args.queue_limit,
        default_deadline_s=args.deadline_s,
        rate_limit_per_s=args.rate,
        rate_burst=args.burst,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown_s,
        cache_capacity=args.cache_capacity,
        drain_timeout_s=args.drain_timeout_s,
    )
    access_log = (
        JsonlEventSink(args.access_log) if args.access_log else None
    )
    from repro.service.app import CarbonQueryService

    service = CarbonQueryService(config, access_log=access_log)

    def _ready(host: str, port: int) -> None:
        # The bound port goes to stdout so ``--port 0`` harnesses can
        # discover it; flush because a subprocess pipe is block-buffered.
        print(f"listening on http://{host}:{port}", flush=True)

    try:
        return serve_forever(
            service=service, ready=_ready, stream=sys.stderr
        )
    finally:
        if access_log is not None:
            access_log.close()


def _cmd_torture(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.robustness.durability import CRASH_POINTS
    from repro.robustness.torture import (
        ERROR_KINDS,
        KILL_KINDS,
        TORTURE_WORKLOADS,
        run_error_campaign,
        run_kill_campaign,
    )

    if args.list_points:
        for point in sorted(CRASH_POINTS):
            print(f"{point}: {CRASH_POINTS[point]}")
        return 0
    workloads = (
        sorted(TORTURE_WORKLOADS)
        if args.workload == "all"
        else [args.workload]
    )
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    points = (
        tuple(p.strip() for p in args.points.split(",") if p.strip())
        if args.points
        else None
    )
    kill_kinds = tuple(k for k in kinds if k in KILL_KINDS)
    error_kinds = tuple(k for k in kinds if k in ERROR_KINDS)
    unknown = [k for k in kinds if k not in KILL_KINDS and k not in ERROR_KINDS]
    if unknown:
        print(f"error: unknown fault kinds {unknown}", file=sys.stderr)
        return 2
    # Only real-SIGKILL ``crash`` faults can run in subprocess mode; the
    # torn/drop_fsync family needs the in-process power-loss simulation.
    # With no explicit --mode, split the kinds so each runs where it can
    # (crash gets the real kill when workers allow it).
    kill_batches: list[tuple[tuple[str, ...], str | None]] = []
    if args.mode is not None or args.workers != 1:
        if kill_kinds:
            kill_batches.append((kill_kinds, args.mode))
    else:
        crash_kinds = tuple(k for k in kill_kinds if k == "crash")
        sim_kinds = tuple(k for k in kill_kinds if k != "crash")
        if crash_kinds:
            kill_batches.append((crash_kinds, None))
        if sim_kinds:
            kill_batches.append((sim_kinds, "inprocess"))
    results = []
    for workload in workloads:
        for batch_kinds, batch_mode in kill_batches:
            results.append(
                run_kill_campaign(
                    workload,
                    workers=args.workers,
                    mode=batch_mode,
                    kinds=batch_kinds,
                    points=points,
                )
            )
        if error_kinds:
            results.append(
                run_error_campaign(
                    workload,
                    workers=args.workers,
                    kinds=error_kinds,
                    points=points,
                )
            )
    if args.json:
        print(json_module.dumps([r.as_dict() for r in results], indent=2))
    else:
        for campaign in results:
            print(campaign.summary())
            for outcome in campaign.outcomes:
                if not outcome.ok:
                    print(
                        f"  FAIL {outcome.kind}@{outcome.point} "
                        f"[{outcome.phase}]: {outcome.detail}"
                    )
        covered = sorted(
            {p for r in results for p in r.points_covered}
        )
        print(
            f"{len(covered)} distinct crash points exercised across "
            f"{len(results)} campaign(s)"
        )
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "footprint": _cmd_footprint,
    "report": _cmd_report,
    "validate": _cmd_validate,
    "cpa": _cmd_cpa,
    "experiment": _cmd_experiment,
    "profile": _cmd_profile,
    "socs": _cmd_socs,
    "export": _cmd_export,
    "sensitivity": _cmd_sensitivity,
    "montecarlo": _cmd_montecarlo,
    "schedule": _cmd_schedule,
    "baselines": _cmd_baselines,
    "serve": _cmd_serve,
    "torture": _cmd_torture,
}


def _build_context(
    args: argparse.Namespace, argv: Sequence[str] | None
) -> "RunContext | None":
    """An enabled run context when the invocation asked for observability.

    ``--trace``, ``--metrics``, and the ``profile`` subcommand all turn the
    spine on; every other invocation keeps the no-op null context.
    """
    from repro.obs.context import RunContext

    trace_path = getattr(args, "trace", None)
    if trace_path is None and not getattr(args, "metrics", False) and (
        args.command != "profile"
    ):
        return None
    return RunContext.create(
        trace_path=trace_path,
        seed=getattr(args, "seed", None),
        argv=list(argv) if argv is not None else sys.argv[1:],
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Model-stack errors (:class:`~repro.core.errors.ReproError`) become a
    one-line stderr message and exit code 2; an interrupted-but-resumable
    run (:class:`~repro.core.errors.RunInterrupted`) exits 3 with a resume
    hint.  ``--debug`` re-raises for a full traceback.
    """
    from repro.core.errors import ReproError, RunInterrupted
    from repro.obs.context import use_context

    args = _build_parser().parse_args(argv)
    context = _build_context(args, argv)
    try:
        if context is None:
            return _COMMANDS[args.command](args)
        with use_context(context):
            return _COMMANDS[args.command](args)
    except RunInterrupted as error:
        if args.debug:
            raise
        print(f"interrupted: {error}", file=sys.stderr)
        if getattr(error, "checkpoint", None) is not None:
            print(
                "re-run the same command with --resume to continue",
                file=sys.stderr,
            )
        return 3
    except ReproError as error:
        if args.debug:
            raise
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if context is not None:
            if getattr(args, "metrics", False):
                print("== metrics ==", file=sys.stderr)
                print(context.metrics.render(), file=sys.stderr)
            context.close()
            trace_path = getattr(args, "trace", None)
            if trace_path is not None:
                print(
                    f"trace: {context.sink.emitted} events -> {trace_path}",
                    file=sys.stderr,
                )


if __name__ == "__main__":
    sys.exit(main())

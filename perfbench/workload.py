"""Run one benchmark workload in this process and print its result.

Started by ``run.py`` (never directly) from the root of a checkout, with
``src`` on ``PYTHONPATH`` and a private ``PYTHONPYCACHEPREFIX``.  The
last line of standard output is the result JSON; host facts and the
per-metric table go to standard output before it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass

from common import END_TO_END_UNITS, PER_LAYER_UNITS, host_facts

#: The module that implements each workload; only the selected one is
#: imported, so ``import_s`` holds no other workload's imports.
MODULES = {
    "montecarlo": "montecarlo",
    "montecarlo_durable": "montecarlo",
    "sweep": "sweep",
    "schedule": "schedule",
    "serve": "serve",
}


def load_workload(name: str) -> "tuple[type, float]":
    """Import numpy and the workload's module; returns the workload class
    and the seconds the imports took (``import_s``)."""
    started = time.perf_counter()
    import numpy  # noqa: F401 - timed as part of import_s

    module = importlib.import_module(MODULES[name])
    return module.WORKLOADS[name], time.perf_counter() - started


@dataclass
class Context:
    """One run's settings, handed to the workload."""

    seed: int
    seconds: float
    trace: bool
    tiny: bool
    corrupt: bool
    workdir: str


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(MODULES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)

    ctx = Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        tiny=args.tiny,
        corrupt=args.corrupt,
        workdir=args.workdir,
    )
    workload, import_s = load_workload(args.workload)
    os.makedirs(ctx.workdir, exist_ok=True)
    outcome = workload(ctx).run()

    if ctx.trace:
        values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        values.update(outcome.layers)
        values["import_s"] = import_s
        values["failed_fraction"] = outcome.failed / outcome.attempted
        values["latency_samples"] = float(len(outcome.latencies_s))
        values["latency_p99_ms"] = outcome.p99_ms()
        units = PER_LAYER_UNITS
    else:
        values = outcome.end_to_end()
        units = END_TO_END_UNITS
    unknown = set(values) - set(units)
    if unknown:
        raise RuntimeError(f"unnamed metrics {sorted(unknown)}")
    facts = host_facts(ctx.seed, ctx.workdir)
    facts["workload"] = args.workload
    facts["latency_samples"] = len(outcome.latencies_s)
    facts["setup_runs_s"] = [round(value, 4) for value in outcome.setup_s]
    facts.update(outcome.notes)
    print("host " + json.dumps(facts, sort_keys=True))
    for name in units:
        print(f"  {name:<32} {values[name]!r:>24} {units[name]}")
    result = {
        "correct": outcome.incorrect == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

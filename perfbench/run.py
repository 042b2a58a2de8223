"""Benchmark command: run one workload, or all benchmarked ones, and print
the result.

Run from the root of a checkout::

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each workload runs in a child process of its own (``workload.py``) with
``src`` on ``PYTHONPATH`` and a private ``PYTHONPYCACHEPREFIX`` under
``.bench_build/``, so nothing in the source tree is rewritten.  With one
workload the last line of standard output is its result JSON::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  The exit code is 0 only when the run completed and
its outputs were correct.  See ``perfbench/NOTES.md`` for what each
workload measures and why.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
#: The workloads of ``BENCHMARK.json``; ``--workload all`` runs these.
BENCHMARKED = ("montecarlo_durable", "sweep", "serve")
#: Runnable on request but left out of ``BENCHMARK.json``, with the
#: reason ``--workload all`` prints (details in NOTES.md).
DROPPED = {
    "montecarlo": (
        "too noisy to gate on a 2-vCPU host (ten-run spread of latency_p50_ms "
        "up to 0.33 against a 0.25 bound), and a fourth workload would not fit "
        "a full measurement in an hour; its layers (sampler, cache key, batch "
        "build, kernel) are measured on montecarlo_durable"
    ),
    "schedule": (
        "fails its correctness check: the vectorized carbon_lowest policy "
        "disagrees with the scalar simulator (verify_schedule_batch)"
    ),
}
WORKLOADS = BENCHMARKED + tuple(DROPPED)
#: A run must end within 180 s; the child is killed a little earlier.
CHILD_TIMEOUT_S = 170.0
BUILD_DIR = ".bench_build"


def child_environment(root: str) -> dict[str, str]:
    env = {
        name: value
        for name, value in os.environ.items()
        # Process-wide program overrides (backend, planner, ...) would
        # change what is measured.
        if not name.startswith("ACT_REPRO_")
    }
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(root, BUILD_DIR, "pycache")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_workload(root: str, args: argparse.Namespace, workload: str) -> "tuple[int, dict | None]":
    """Run one workload in its own process group; returns ``(exit code,
    result)`` after echoing the child's output."""
    command = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", os.path.join(root, BUILD_DIR, "work"),
    ]
    command += ["--tiny"] if args.tiny else []
    command += ["--corrupt"] if args.corrupt else []
    child = subprocess.Popen(
        command,
        cwd=root,
        env=child_environment(root),
        stdout=subprocess.PIPE,
        start_new_session=True,
        text=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {workload} exceeded {CHILD_TIMEOUT_S:g} s", file=sys.stderr)
        return 3, None
    finally:
        # The child's own subprocesses (the service) share its group.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if child.returncode != 0 or not lines:
        print(f"error: workload {workload} exited with {child.returncode}", file=sys.stderr)
        return 2, None
    return 0, json.loads(lines[-1])


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test switches: a tiny problem size, and a deliberately
    # corrupted answer that the correctness check must catch.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print(
            "error: run from the root of a checkout (src/repro/cli.py not found)",
            file=sys.stderr,
        )
        return 2

    names = BENCHMARKED if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        code, result = run_workload(root, args, name)
        if result is None:
            return code
        results[name] = result
        if len(names) > 1:
            print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
    if len(names) > 1:
        for name, reason in DROPPED.items():
            print(f"{name}: dropped from the benchmark: {reason}")
    final = results[names[0]] if len(names) == 1 else {"workloads": results}
    print(json.dumps(final, allow_nan=False))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

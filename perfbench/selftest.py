"""Self-test of the benchmark harness.  Run from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` at a tiny size, untraced and
traced, and asserts that each run prints exactly the metrics the file
names, every value finite and carrying the file's unit, in JSON that
contains no NaN or Infinity.  Then asserts that a deliberately corrupted
answer trips the correctness check of every workload (``montecarlo``
and ``schedule``, which run outside the benchmark, included), and that
the command refuses to run without the program's sources.  Exits 0 when
every assertion holds.  ``montecarlo`` is also held to the metric checks.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN = os.path.join(HERE, "run.py")
TIMEOUT_S = 170


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def reject_constant(name: str) -> None:
    raise AssertionError(f"result JSON contains {name}")


def run(workload: str, *flags: str, cwd: str = ROOT) -> "tuple[int, list[str]]":
    completed = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--tiny", *flags],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    return completed.returncode, completed.stdout.splitlines()


def result_of(lines: "list[str]") -> dict:
    assert lines, "no output"
    result = json.loads(lines[-1], parse_constant=reject_constant)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    return result


def check_metrics(workload: str, trace: int, spec: dict) -> None:
    code, lines = run(workload, "--trace", str(trace))
    assert code == 0, f"{workload} --trace {trace} exited {code}"
    result = result_of(lines)
    assert result["correct"] is True, f"{workload}: {lines[-2:]}"
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    assert set(metrics) == set(declared), (
        f"{workload} --trace {trace}: missing {sorted(set(declared) - set(metrics))}, "
        f"extra {sorted(set(metrics) - set(declared))}"
    )
    for name, metric in metrics.items():
        assert set(metric) == {"value", "unit"}, (name, metric)
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
        assert metric["unit"] == declared[name] and metric["unit"], (name, metric["unit"])
    if not trace:
        for name, metric in metrics.items():
            assert metric["value"] > 0, f"{workload}: end-to-end {name} is not positive"


def check_corruption_caught(workload: str) -> None:
    code, lines = run(workload, "--trace", "0", "--corrupt")
    assert code != 0, f"{workload}: a corrupted answer still exited 0"
    result = result_of(lines)
    assert result["correct"] is False, f"{workload}: a corrupted answer passed"
    assert result["failed"] >= 1


def check_refuses_without_sources(spec: dict) -> None:
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(
                os.path.join(ROOT, path),
                os.path.join(bare, path),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        workload = spec["workloads"][0]["name"]
        completed = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
        assert completed.returncode != 0, "ran without the program's sources"
        assert not completed.stdout.strip(), "printed a result without the program's sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = load_spec()
    # montecarlo runs outside the benchmark but is held to its metrics.
    workloads = [workload["name"] for workload in spec["workloads"]] + ["montecarlo"]
    for workload in workloads:
        for trace in (0, 1):
            check_metrics(workload, trace, spec)
            print(f"ok   {workload} --trace {trace}: every metric emitted, finite, with its unit")
    for workload in workloads + ["schedule"]:
        check_corruption_caught(workload)
        print(f"ok   {workload}: a corrupted answer trips the correctness check")
    check_refuses_without_sources(spec)
    print("ok   refuses to run without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())

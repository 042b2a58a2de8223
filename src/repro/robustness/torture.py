"""Systematic crash-point torture: kill, salvage, resume, compare bits.

The durability layer (:mod:`repro.robustness.durability`) registers a
named crash point at every filesystem boundary it crosses.  This module
*proves* the crash-consistency contract at each of them, for real
workloads, by construction:

1. **Record** — run the workload under a recording
   :class:`~repro.robustness.faultinject.FaultyIO` and enumerate the
   boundary trace (which points fire, in what order), both for a fresh
   run and for a resume after a clean interrupt.
2. **Torture** — for every reached point, run the workload again with a
   fault armed at that point: a crash (real ``SIGKILL`` in a subprocess,
   or a simulated power loss + :class:`CrashPoint` in-process), a torn
   write, a dropped fsync paired with a later crash, a torn rename, or
   an ``ENOSPC``/``EIO`` error.
3. **Converge** — resume from whatever the crash left behind (salvage
   included) and assert the final result is **bit-identical** to the
   uninterrupted baseline.

Subprocess mode (``SIGKILL``) validates durability against the actual
kernel; it is used at ``workers=1``.  At ``workers=4`` the campaigns run
in-process with simulated power loss instead: the worker pool's
processes are daemonized, so SIGKILLing the parent mid-wave would orphan
them — the simulation covers the same boundaries without leaking
processes.

Driven by ``repro torture`` from the CLI, by the crash-consistency CI
job, and by ``tests/test_torture.py``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.errors import CheckpointError, ParameterError, RunInterrupted
from repro.robustness.durability import (
    CP_COMMITTED,
    CRASH_POINTS,
    atomic_write_json,
    use_durable_io,
)
from repro.robustness.faultinject import (
    IO_FAULT_CRASH,
    IO_FAULT_DROP_FSYNC,
    IO_FAULT_EIO,
    IO_FAULT_ENOSPC,
    IO_FAULT_TORN,
    IO_FAULT_TORN_RENAME,
    CrashPoint,
    FaultyIO,
    IOFault,
)

#: How many salvage/resume rounds a recovery may take before the
#: campaign declares the store non-convergent.
MAX_RESUME_ATTEMPTS = 5

#: Crash kinds exercised by :func:`run_kill_campaign`, with the point
#: suffix each applies to (``None`` = every reached point).
KILL_KINDS: dict[str, "str | None"] = {
    IO_FAULT_CRASH: None,
    IO_FAULT_TORN: ".write",
    IO_FAULT_TORN_RENAME: ".rename",
    IO_FAULT_DROP_FSYNC: ".fsync",
}

#: Error kinds exercised by :func:`run_error_campaign`.
ERROR_KINDS = (IO_FAULT_ENOSPC, IO_FAULT_EIO)


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TortureWorkload:
    """One deterministic checkpointed workload the harness can torture.

    Attributes:
        name: Registry key (``repro torture --workload <name>``).
        description: One-line human description.
        run: ``run(checkpoint, resume, workers, cancel)`` executing the
            workload and returning its result as a name → float64 array
            mapping (the bit-identity comparison unit).
    """

    name: str
    description: str
    run: Callable


def _mc_workload(checkpoint, resume, workers, cancel):
    from repro.analysis.scenario import ActScenario
    from repro.robustness.checkpoint import run_monte_carlo_chunked

    result = run_monte_carlo_chunked(
        ActScenario(),
        draws=600,
        seed=20221,
        chunk_rows=64,
        checkpoint=checkpoint,
        resume=resume,
        policy=workers,
        cancel=cancel,
    )
    return {"samples": result.samples}


def _sweep_workload(checkpoint, resume, workers, cancel):
    # Grid sweeps run in-process at every worker count.
    from repro.analysis.scenario import ActScenario
    from repro.robustness.checkpoint import sweep_grid_batched_chunked

    grids = {
        "fab_yield": [0.6, 0.7, 0.8, 0.9, 1.0],
        "energy_kwh": [float(value) for value in range(1, 9)],
    }
    result = sweep_grid_batched_chunked(
        ActScenario(),
        grids,
        chunk_rows=8,
        checkpoint=checkpoint,
        resume=resume,
        cancel=cancel,
    )
    series = result.result
    return {
        name: getattr(series, name)
        for name in type(series).__dataclass_fields__
    }


def _schedule_workload(checkpoint, resume, workers, cancel):
    from repro.core.intensity import CarbonIntensityTrace
    from repro.robustness.checkpoint import run_schedule_sweep_chunked
    from repro.scheduling.sweep import ScheduleSweepSpec

    spec = ScheduleSweepSpec(
        trace=CarbonIntensityTrace(
            "torture",
            (400.0, 300.0, 100.0, 200.0, 500.0, 50.0, 450.0, 350.0),
        ),
        windows=12,
        jobs_per_window=3,
        slack_hours_max=12,
    )
    series = run_schedule_sweep_chunked(
        spec,
        chunk_rows=8,
        checkpoint_path=checkpoint,
        resume=resume,
        policy=workers,
        cancel=cancel,
    )
    return dict(series)


#: The workload registry, name → :class:`TortureWorkload`.
TORTURE_WORKLOADS: dict[str, TortureWorkload] = {
    "mc": TortureWorkload(
        "mc", "chunked Monte Carlo (600 draws, 64-row chunks)", _mc_workload
    ),
    "sweep": TortureWorkload(
        "sweep", "chunked grid sweep (40 rows, 8-row chunks)", _sweep_workload
    ),
    "schedule": TortureWorkload(
        "schedule",
        "chunked schedule policy sweep (12 windows, 8-row chunks)",
        _schedule_workload,
    ),
}


def _result_digest(result: Mapping[str, np.ndarray]) -> str:
    """SHA-256 over the result arrays — the bit-identity token."""
    digest = hashlib.sha256()
    for name in sorted(result):
        array = np.ascontiguousarray(result[name])
        digest.update(name.encode("utf-8"))
        digest.update(array.dtype.str.encode("ascii"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def _identical(
    left: Mapping[str, np.ndarray], right: Mapping[str, np.ndarray]
) -> bool:
    return _result_digest(left) == _result_digest(right)


def _execute(
    workload: TortureWorkload,
    *,
    checkpoint: "str | None",
    resume: bool,
    workers: int,
    io=None,
    cancel=None,
    events_path: "str | None" = None,
    manifest_path: "str | None" = None,
):
    """Run a workload, optionally under an injected I/O layer.

    ``events_path`` attaches a JSONL event sink (so the ``obs.jsonl.*``
    crash points are exercised); ``manifest_path`` writes a result digest
    via the atomic protocol afterwards (exercising ``atomic.*``).
    """
    from repro.obs.context import RunContext, use_context
    from repro.obs.events import JsonlEventSink

    context = None
    with ExitStack() as stack:
        if events_path is not None:
            context = RunContext(sink=JsonlEventSink(events_path))
            stack.enter_context(use_context(context))
        if io is not None:
            stack.enter_context(use_durable_io(io))
        try:
            result = workload.run(checkpoint, resume, workers, cancel)
            if manifest_path is not None:
                atomic_write_json(
                    manifest_path, {"digest": _result_digest(result)}
                )
        finally:
            # Restore the real I/O layer (ExitStack unwinds on return
            # too, but the sink below must write through clean I/O).
            pass
    if context is not None:
        context.close()
    return result


def _interrupt(
    workload: TortureWorkload, checkpoint: str, workers: int
) -> None:
    """Leave a genuinely partial (but healthy) store at ``checkpoint``."""
    from repro.robustness.checkpoint import CountingCancelToken

    try:
        _execute(
            workload,
            checkpoint=checkpoint,
            resume=False,
            workers=workers,
            cancel=CountingCancelToken(1),
        )
    except RunInterrupted:
        return
    raise ParameterError(
        f"workload {workload.name!r} completed before the interrupt token "
        "fired; shrink chunk_rows or grow the workload"
    )


def _recover(
    workload: TortureWorkload,
    checkpoint: str,
    workers: int,
    events_path: "str | None" = None,
):
    """Resume a (possibly damaged) store to completion, salvaging as needed.

    Returns ``(result, attempts)``.  A store with no committed state
    (reason ``"missing"``) restarts fresh — that is the contract for a
    crash before the first commit.
    """
    import warnings as warnings_module

    attempts = 0
    while attempts < MAX_RESUME_ATTEMPTS:
        attempts += 1
        try:
            with warnings_module.catch_warnings():
                warnings_module.simplefilter("ignore")
                return (
                    _execute(
                        workload,
                        checkpoint=checkpoint,
                        resume=True,
                        workers=workers,
                        events_path=events_path,
                    ),
                    attempts,
                )
        except CheckpointError as error:
            if error.reason != "missing":
                raise
            return (
                _execute(
                    workload,
                    checkpoint=checkpoint,
                    resume=False,
                    workers=workers,
                    events_path=events_path,
                ),
                attempts,
            )
    raise CheckpointError(
        f"store {checkpoint!r} did not converge within "
        f"{MAX_RESUME_ATTEMPTS} resume attempts",
        path=checkpoint,
        reason="corrupt",
    )


# --------------------------------------------------------------------------
# Campaign results
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PointOutcome:
    """What happened when one fault was armed at one crash point.

    Attributes:
        point: The crash-point name the fault was armed at.
        kind: The fault kind (``crash``, ``torn``, ``enospc``, ...).
        phase: ``"fresh"`` (fault during an initial run) or ``"resume"``
            (fault while resuming an interrupted store).
        fired: Whether the fault actually triggered (a point may be
            unreached in a given phase).
        identical: ``True`` when the converged result matched the
            uninterrupted baseline bit-for-bit; ``None`` when the fault
            never fired.
        detail: Failure diagnostics (empty on success).
    """

    point: str
    kind: str
    phase: str
    fired: bool
    identical: "bool | None"
    detail: str = ""

    @property
    def ok(self) -> bool:
        """Whether this outcome upholds the contract."""
        return self.identical is not False and not self.detail


@dataclass
class CampaignResult:
    """The aggregated verdict of one torture campaign.

    Attributes:
        workload: Workload name the campaign ran.
        workers: Worker count used for every run.
        mode: ``"subprocess"`` (real SIGKILL) or ``"inprocess"``
            (simulated power loss).
        outcomes: One :class:`PointOutcome` per armed fault.
    """

    workload: str
    workers: int
    mode: str
    outcomes: list[PointOutcome] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether every fired fault converged bit-identically."""
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def points_covered(self) -> tuple[str, ...]:
        """Distinct crash points at which a fault actually fired."""
        return tuple(
            sorted({o.point for o in self.outcomes if o.fired})
        )

    def summary(self) -> str:
        """One operator-readable line."""
        fired = sum(1 for o in self.outcomes if o.fired)
        failed = [o for o in self.outcomes if not o.ok]
        line = (
            f"{self.workload} (workers={self.workers}, {self.mode}): "
            f"{fired}/{len(self.outcomes)} faults fired across "
            f"{len(self.points_covered)} points"
        )
        if failed:
            worst = ", ".join(
                f"{o.kind}@{o.point}[{o.phase}]" for o in failed[:5]
            )
            return f"{line}; FAILED {len(failed)}: {worst}"
        return f"{line}; all converged bit-identically"

    def as_dict(self) -> dict:
        """JSON-ready rendering (for ``repro torture --json``)."""
        return {
            "workload": self.workload,
            "workers": self.workers,
            "mode": self.mode,
            "passed": self.passed,
            "points_covered": list(self.points_covered),
            "outcomes": [
                {
                    "point": o.point,
                    "kind": o.kind,
                    "phase": o.phase,
                    "fired": o.fired,
                    "identical": o.identical,
                    "detail": o.detail,
                }
                for o in self.outcomes
            ],
        }


# --------------------------------------------------------------------------
# Campaigns
# --------------------------------------------------------------------------


def run_record_campaign(
    workload: str = "mc", *, workers: int = 1
) -> dict[str, tuple[str, ...]]:
    """Enumerate the crash points a workload reaches, per phase.

    Returns ``{"fresh": trace, "resume": trace}`` — the ordered boundary
    traces of an uninterrupted checkpointed run and of a resume after a
    clean interrupt.  The torture campaigns arm faults only at points a
    phase actually reaches.
    """
    spec = _workload(workload)
    with tempfile.TemporaryDirectory(prefix="repro-torture-") as base:
        recorder = FaultyIO()
        _execute(
            spec,
            checkpoint=os.path.join(base, "fresh.ck"),
            resume=False,
            workers=workers,
            io=recorder,
            events_path=os.path.join(base, "fresh.events.jsonl"),
            manifest_path=os.path.join(base, "fresh.json"),
        )
        fresh = tuple(recorder.trace)
        resume_path = os.path.join(base, "resume.ck")
        _interrupt(spec, resume_path, workers)
        resumer = FaultyIO()
        _execute(
            spec,
            checkpoint=resume_path,
            resume=True,
            workers=workers,
            io=resumer,
            events_path=os.path.join(base, "resume.events.jsonl"),
            manifest_path=os.path.join(base, "resume.json"),
        )
        return {"fresh": fresh, "resume": tuple(resumer.trace)}


def _workload(name: str) -> TortureWorkload:
    if name not in TORTURE_WORKLOADS:
        raise ParameterError(
            f"unknown torture workload {name!r} (available: "
            f"{', '.join(sorted(TORTURE_WORKLOADS))})"
        )
    return TORTURE_WORKLOADS[name]


def _unique_in_order(trace: Sequence[str]) -> list[str]:
    seen: set[str] = set()
    ordered = []
    for point in trace:
        if point not in seen:
            seen.add(point)
            ordered.append(point)
    return ordered


def _arm(kind: str, point: str, trace: Sequence[str]) -> "list[IOFault] | None":
    """The fault list for ``kind`` at ``point``, or ``None`` if inapplicable."""
    suffix = KILL_KINDS.get(kind)
    if suffix is not None and not point.endswith(suffix):
        return None
    if kind == IO_FAULT_DROP_FSYNC:
        # Dropping an fsync is only observable if the process dies after
        # the commit that lied about it: pair it with a crash at the
        # next committed-marker occurrence in the recorded trace.
        index = trace.index(point) if point in trace else -1
        if index < 0:
            return None
        commits_before = sum(
            1 for entry in trace[: index + 1] if entry == CP_COMMITTED
        )
        if CP_COMMITTED not in trace[index + 1 :]:
            return None
        return [
            IOFault(IO_FAULT_DROP_FSYNC, point),
            IOFault(IO_FAULT_CRASH, CP_COMMITTED, occurrence=commits_before + 1),
        ]
    return [IOFault(kind, point)]


def run_kill_campaign(
    workload: str = "mc",
    *,
    workers: int = 1,
    mode: "str | None" = None,
    kinds: Sequence[str] = (IO_FAULT_CRASH,),
    points: "Sequence[str] | None" = None,
) -> CampaignResult:
    """Kill the workload at every reached crash point; prove convergence.

    For each fault kind in ``kinds`` (see :data:`KILL_KINDS`), each phase
    (fresh run / resume of an interrupted store), and each applicable
    crash point the phase reaches: arm the fault, let it kill the run
    (real ``SIGKILL`` in ``"subprocess"`` mode, simulated power loss in
    ``"inprocess"`` mode), then resume the survivor and assert the final
    result is bit-identical to the uninterrupted baseline.

    ``mode=None`` picks ``"subprocess"`` at ``workers=1`` and
    ``"inprocess"`` otherwise (SIGKILLing a parent mid-wave would orphan
    its daemonized pool workers).  Subprocess mode supports only the
    ``crash`` kind; the others need the in-process power-loss simulation.
    """
    spec = _workload(workload)
    if mode is None:
        mode = "subprocess" if workers == 1 else "inprocess"
    if mode not in ("subprocess", "inprocess"):
        raise ParameterError(f"unknown torture mode {mode!r}")
    if mode == "subprocess":
        unsupported = [k for k in kinds if k != IO_FAULT_CRASH]
        if unsupported:
            raise ParameterError(
                f"subprocess mode only supports 'crash' faults, got "
                f"{unsupported}"
            )
    for kind in kinds:
        if kind not in KILL_KINDS:
            raise ParameterError(
                f"unknown kill-campaign kind {kind!r} "
                f"(available: {', '.join(KILL_KINDS)})"
            )
    result = CampaignResult(workload=workload, workers=workers, mode=mode)
    traces = run_record_campaign(workload, workers=workers)
    with tempfile.TemporaryDirectory(prefix="repro-torture-") as base:
        baseline = _execute(
            spec, checkpoint=None, resume=False, workers=workers
        )
        iteration = 0
        for kind in kinds:
            for phase in ("fresh", "resume"):
                trace = traces[phase]
                for point in _unique_in_order(trace):
                    if points is not None and point not in points:
                        continue
                    faults = _arm(kind, point, trace)
                    if faults is None:
                        continue
                    iteration += 1
                    result.outcomes.append(
                        _torture_once(
                            spec,
                            baseline,
                            kind=kind,
                            phase=phase,
                            point=point,
                            faults=faults,
                            workers=workers,
                            mode=mode,
                            scratch=os.path.join(base, str(iteration)),
                        )
                    )
    return result


def _torture_once(
    spec: TortureWorkload,
    baseline: Mapping[str, np.ndarray],
    *,
    kind: str,
    phase: str,
    point: str,
    faults: Sequence[IOFault],
    workers: int,
    mode: str,
    scratch: str,
) -> PointOutcome:
    os.makedirs(scratch, exist_ok=True)
    checkpoint = os.path.join(scratch, "run.ck")
    events = os.path.join(scratch, "events.jsonl")
    manifest = os.path.join(scratch, "result.json")
    if phase == "resume":
        _interrupt(spec, checkpoint, workers)
    fired = False
    detail = ""
    if mode == "subprocess":
        code = _run_child(
            spec.name,
            checkpoint=checkpoint,
            events=events,
            manifest=manifest,
            resume=(phase == "resume"),
            workers=workers,
            faults=faults,
        )
        if code == -9:  # killed by the armed SIGKILL
            fired = True
        elif code != 0:
            return PointOutcome(
                point,
                kind,
                phase,
                fired=True,
                identical=False,
                detail=f"child exited with {code} instead of SIGKILL",
            )
    else:
        io = FaultyIO(faults, mode="exception")
        try:
            _execute(
                spec,
                checkpoint=checkpoint,
                resume=(phase == "resume"),
                workers=workers,
                io=io,
                events_path=events,
                manifest_path=manifest,
            )
        except CrashPoint:
            fired = True
    if not fired:
        return PointOutcome(point, kind, phase, fired=False, identical=None)
    try:
        recovered, _ = _recover(spec, checkpoint, workers)
    except Exception as error:  # noqa: BLE001 - verdict, not control flow
        return PointOutcome(
            point,
            kind,
            phase,
            fired=True,
            identical=False,
            detail=f"recovery failed: {type(error).__name__}: {error}",
        )
    identical = _identical(recovered, baseline)
    if not identical:
        detail = "recovered result differs from uninterrupted baseline"
    return PointOutcome(
        point, kind, phase, fired=True, identical=identical, detail=detail
    )


def run_error_campaign(
    workload: str = "mc",
    *,
    workers: int = 1,
    kinds: Sequence[str] = ERROR_KINDS,
    points: "Sequence[str] | None" = None,
) -> CampaignResult:
    """Inject ``ENOSPC``/``EIO`` at every store boundary; prove recovery.

    For each error kind and each ``store.*``/``atomic.*`` point the fresh
    run reaches: arm the error, assert the run fails with a *typed* error
    (:class:`~repro.core.errors.CheckpointError` with reason ``"io"`` from
    the checkpoint layer, or the raw ``OSError`` from the generic atomic
    writer), then resume with the fault cleared and assert bit-identical
    convergence.  Runs in-process (an injected errno needs no subprocess).
    """
    spec = _workload(workload)
    for kind in kinds:
        if kind not in ERROR_KINDS:
            raise ParameterError(
                f"unknown error-campaign kind {kind!r} "
                f"(available: {', '.join(ERROR_KINDS)})"
            )
    result = CampaignResult(
        workload=workload, workers=workers, mode="inprocess"
    )
    traces = run_record_campaign(workload, workers=workers)
    eligible = [
        p
        for p in _unique_in_order(traces["fresh"])
        if p.startswith(("store.", "atomic."))
        and (points is None or p in points)
    ]
    with tempfile.TemporaryDirectory(prefix="repro-torture-") as base:
        baseline = _execute(
            spec, checkpoint=None, resume=False, workers=workers
        )
        for index, (kind, point) in enumerate(
            (kind, point) for kind in kinds for point in eligible
        ):
            scratch = os.path.join(base, str(index))
            os.makedirs(scratch, exist_ok=True)
            checkpoint = os.path.join(scratch, "run.ck")
            manifest = os.path.join(scratch, "result.json")
            io = FaultyIO([IOFault(kind, point)])
            fired = False
            detail = ""
            try:
                _execute(
                    spec,
                    checkpoint=checkpoint,
                    resume=False,
                    workers=workers,
                    io=io,
                    manifest_path=manifest,
                )
            except CheckpointError as error:
                fired = True
                if error.reason != "io":
                    detail = (
                        f"expected reason 'io', got {error.reason!r}: {error}"
                    )
            except OSError as error:
                fired = True
                if not point.startswith("atomic."):
                    detail = f"raw OSError escaped the checkpoint layer: {error}"
            if not fired:
                result.outcomes.append(
                    PointOutcome(point, kind, "fresh", False, None)
                )
                continue
            if detail:
                result.outcomes.append(
                    PointOutcome(point, kind, "fresh", True, False, detail)
                )
                continue
            try:
                recovered, _ = _recover(spec, checkpoint, workers)
            except Exception as error:  # noqa: BLE001 - verdict, not control
                result.outcomes.append(
                    PointOutcome(
                        point,
                        kind,
                        "fresh",
                        True,
                        False,
                        f"recovery failed: {type(error).__name__}: {error}",
                    )
                )
                continue
            identical = _identical(recovered, baseline)
            result.outcomes.append(
                PointOutcome(
                    point,
                    kind,
                    "fresh",
                    True,
                    identical,
                    "" if identical else "recovered result differs",
                )
            )
    return result


# --------------------------------------------------------------------------
# Subprocess child
# --------------------------------------------------------------------------


def _run_child(
    workload: str,
    *,
    checkpoint: str,
    events: str,
    manifest: str,
    resume: bool,
    workers: int,
    faults: Sequence[IOFault],
) -> int:
    """Spawn a child that runs the workload with real-SIGKILL faults armed."""
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable,
        "-m",
        "repro.robustness.torture",
        "--child",
        "--workload",
        workload,
        "--checkpoint",
        checkpoint,
        "--events",
        events,
        "--manifest",
        manifest,
        "--workers",
        str(workers),
    ]
    if resume:
        command.append("--resume")
    for fault in faults:
        command += ["--fault", f"{fault.kind}:{fault.point}:{fault.occurrence}"]
    completed = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=300
    )
    if completed.returncode not in (0, -9):
        sys.stderr.write(completed.stderr[-2000:])
    return completed.returncode


def _child_main(args: "argparse.Namespace") -> int:
    """Torture-child entry: arm real-SIGKILL faults and run the workload."""
    from repro.robustness.durability import install_durable_io

    faults = []
    for token in args.fault or []:
        kind, point, occurrence = token.rsplit(":", 2)
        faults.append(IOFault(kind, point, occurrence=int(occurrence)))
    install_durable_io(FaultyIO(faults, mode="sigkill"))
    spec = _workload(args.workload)
    _execute(
        spec,
        checkpoint=args.checkpoint,
        resume=args.resume,
        workers=args.workers,
        events_path=args.events,
        manifest_path=args.manifest,
    )
    return 0


def main(argv: "Sequence[str] | None" = None) -> int:
    """``python -m repro.robustness.torture`` — the subprocess child."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", action="store_true")
    parser.add_argument("--workload", default="mc")
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--events", default=None)
    parser.add_argument("--manifest", default=None)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--fault", action="append", default=[])
    args = parser.parse_args(argv)
    if not args.child:
        parser.error("this entry point is the torture child; use `repro torture`")
    return _child_main(args)


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())

"""Fault-tolerant parallel execution: liveness, retry, and degradation.

Process-level chaos (SIGKILL a worker mid-shard, stall it past its
deadline, drop its result message) is injected through :class:`~repro.robustness.faultinject.ProcessFaultPlan`
and every recovery path is asserted against the determinism contract: a
retried shard re-derives the same rows from the same SeedSequence child
stream, so recovery is **bit-identical** to the unfaulted run — never
merely "close".
"""

import os
import re
import signal
import subprocess
import sys
import textwrap
import time
import warnings

import numpy as np
import pytest

from repro.analysis.montecarlo import ShardColumnSource, run_monte_carlo
from repro.analysis.scenario import ActScenario
from repro.core.errors import (
    ParameterError,
    ShardFailedError,
    ValidationError,
    WorkerError,
)
from repro.engine.batch import ScenarioBatch
from repro.engine.kernels import evaluate_batch
from repro.obs.context import RunContext, use_context
from repro.parallel import (
    DEGRADE,
    FAIL_FAST,
    RETRY,
    ExecutionPolicy,
    ParallelRunner,
    PartialResult,
    WorkerPool,
)
from repro.parallel.supervisor import RetryLedger
from repro.robustness.checkpoint import run_monte_carlo_chunked
from repro.robustness.faultinject import (
    PROCESS_FAULTS,
    ProcessFault,
    ProcessFaultPlan,
    ResultDropped,
    apply_process_faults,
)
from repro.robustness.guard import GuardedEngine, RobustnessWarning

BASE = ActScenario()

#: A fast supervised policy for tests: tiny backoff, prompt liveness.
def fast_policy(**overrides):
    defaults = dict(
        workers=2,
        shard_rows=128,
        failure_policy=RETRY,
        max_retries=2,
        backoff_seconds=0.01,
    )
    defaults.update(overrides)
    return ExecutionPolicy(**defaults)


def mc_source(draws=600, seed=7, shard_rows=128):
    """The Monte Carlo draw stream the supervised runs evaluate."""
    return ShardColumnSource.create(
        BASE, draws=draws, seed=seed, shard_rows=shard_rows
    )


def reference_samples(draws=600, seed=7, shard_rows=128):
    """The unfaulted in-process run every recovery must match bit-for-bit."""
    source = mc_source(draws, seed, shard_rows)
    return evaluate_batch(
        ScenarioBatch.from_columns(BASE, draws, source.columns())
    ).total_g


# --- module-level worker functions (pickled by reference) -----------------


def _die_if_marked(payload):
    if payload == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return payload


def _ignore_sigterm_and_sleep(payload):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(30.0)
    return payload


# --- satellite 1: the parent-hang bug ------------------------------------


class TestPoolLiveness:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_dead_worker_raises_worker_error_not_deadlock(
        self, tmp_path, workers
    ):
        """A worker SIGKILLed mid-shard under fail_fast surfaces fast as a
        WorkerError chained to the exit code."""
        plan = ProcessFaultPlan.create(
            tmp_path, [ProcessFault("kill", shard=0, times=1)]
        )
        policy = ExecutionPolicy(workers=workers, shard_rows=128)
        started = time.monotonic()
        with ParallelRunner(policy, fault_plan=plan) as runner:
            with pytest.raises(WorkerError, match="died") as info:
                runner.evaluate_source(mc_source())
        assert time.monotonic() - started < 10.0
        assert isinstance(info.value, ShardFailedError)
        assert (info.value.shard, info.value.cause) == (0, "worker-death")
        assert type(info.value.__cause__) is WorkerError
        assert info.value.__cause__.original == f"exit code {-signal.SIGKILL}"

    def test_todays_blocking_get_would_hang(self):
        """Demonstrate the bug the liveness loop fixes: after the kill,
        the result queue never yields — a bare ``_results.get()`` (the
        pre-supervision implementation) would have blocked forever."""
        pool = WorkerPool(1)
        try:
            run_id = pool.begin_run()
            pool.submit(run_id, 0, _die_if_marked, "die")
            deadline = time.monotonic() + 10.0
            while not pool.dead_workers() and time.monotonic() < deadline:
                time.sleep(0.01)
            dead = pool.dead_workers()
            assert dead, "worker should have died"
            # The task is outstanding, its worker is a corpse, and no
            # result will ever arrive: blocking would hang the parent.
            assert pool.poll(1.0) is None
            worker_id, exitcode, claimed = dead[0]
            assert exitcode == -signal.SIGKILL
            assert claimed == 0
        finally:
            pool.close()

    def test_pool_reusable_after_worker_death(self, tmp_path):
        plan = ProcessFaultPlan.create(
            tmp_path, [ProcessFault("kill", shard=1, times=1)]
        )
        policy = ExecutionPolicy(workers=2, shard_rows=128)
        with ParallelRunner(policy, fault_plan=plan) as runner:
            with pytest.raises(WorkerError):
                runner.evaluate_source(mc_source())
            out = runner.evaluate_source(mc_source())
            assert runner._pool.respawns >= 1
        np.testing.assert_array_equal(
            reference_samples(), out.series["total_g"]
        )

    @pytest.mark.parametrize("times", [1, 3])
    def test_fail_fast_dropped_result_ends_within_the_stall_window(
        self, tmp_path, times
    ):
        """A result message lost under fail_fast goes through the stall
        backstop like every other policy: one free resubmission, then a
        ShardFailedError — never a wait for a message that cannot come.
        Run in a child process so a hang fails the test instead of the
        session."""
        script = textwrap.dedent(
            f"""
            import signal, sys, time
            signal.signal(signal.SIGALRM, lambda *_: sys.exit("hung"))
            signal.alarm(30)
            from repro.analysis.montecarlo import ShardColumnSource
            from repro.analysis.scenario import ActScenario
            from repro.core.errors import ShardFailedError
            from repro.engine.batch import ScenarioBatch
            from repro.engine.kernels import evaluate_batch
            from repro.parallel import ExecutionPolicy, ParallelRunner
            from repro.robustness.faultinject import (
                ProcessFault, ProcessFaultPlan,
            )
            source = ShardColumnSource.create(
                ActScenario(), draws=600, seed=7, shard_rows=128
            )
            plan = ProcessFaultPlan.create(
                {str(tmp_path)!r},
                [ProcessFault("drop_result", shard=1, times={times})],
            )
            policy = ExecutionPolicy(workers=2, shard_rows=128)
            started = time.monotonic()
            try:
                with ParallelRunner(policy, fault_plan=plan) as runner:
                    out = runner.evaluate_source(source)
            except ShardFailedError as error:
                outcome = f"raised {{error.cause}} {{error.shard}}"
            else:
                reference = evaluate_batch(ScenarioBatch.from_columns(
                    ActScenario(), 600, source.columns()
                )).total_g
                same = (out.series["total_g"] == reference).all()
                outcome = f"returned {{same}} {{out.partial}}"
            print(outcome, round(time.monotonic() - started))
            """
        )
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert child.returncode == 0, child.stderr
        *outcome, seconds = child.stdout.split()
        expected = "returned True None" if times == 1 else "raised lost 1"
        assert outcome == expected.split()
        # One stall window (>= 1 s) per lost message, and no more.
        assert int(seconds) < 10


# --- satellite 2: close() hardening ---------------------------------------


class TestCloseEscalation:
    def test_close_escalates_terminate_to_kill(self):
        """A worker masking SIGTERM must still die — via kill() — within
        the pool's timeouts."""
        pool = WorkerPool(1, join_timeout=0.2, term_timeout=0.3)
        run_id = pool.begin_run()
        pool.submit(run_id, 0, _ignore_sigterm_and_sleep, None)
        deadline = time.monotonic() + 5.0
        while pool.claimed_task(0) is None and time.monotonic() < deadline:
            time.sleep(0.01)
        started = time.monotonic()
        pool.close()
        assert time.monotonic() - started < 5.0


# --- process-fault plans ---------------------------------------------------


class TestProcessFaultPlan:
    def test_token_budget_is_exact(self, tmp_path):
        plan = ProcessFaultPlan.create(
            tmp_path, [ProcessFault("kill", shard=1, times=2)]
        )
        assert plan.remaining(0) == 2
        spec = plan.spec()
        task = {}
        # drop_result fires at finish, kill at start; consume via a safe
        # kind by checking token files directly.
        for token in spec["faults"][0]["tokens"]:
            os.remove(token)
        assert plan.remaining(0) == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError, match="unknown process fault"):
            ProcessFault("segfault")
        with pytest.raises(ParameterError, match="at least once"):
            ProcessFault("kill", times=0)

    def test_spec_is_picklable_and_complete(self, tmp_path):
        import pickle

        plan = ProcessFaultPlan.create(
            tmp_path,
            [ProcessFault(kind, shard=0) for kind in PROCESS_FAULTS],
        )
        spec = pickle.loads(pickle.dumps(plan.spec()))
        assert [fault["kind"] for fault in spec["faults"]] == list(
            PROCESS_FAULTS
        )

    def test_drop_result_raises_at_finish_only(self, tmp_path):
        plan = ProcessFaultPlan.create(
            tmp_path, [ProcessFault("drop_result", shard=0)]
        )
        apply_process_faults(plan.spec(), 0, "start")  # no-op
        assert plan.remaining(0) == 1
        with pytest.raises(ResultDropped):
            apply_process_faults(plan.spec(), 0, "finish")

    def test_result_dropped_bypasses_except_exception(self):
        assert ResultDropped("x").repro_dropped_result is True
        assert not isinstance(ResultDropped("x"), Exception)
        assert isinstance(ResultDropped("x"), BaseException)


# --- tentpole: recovery paths, each bit-identical --------------------------


class TestRetryRecovery:
    def test_sigkill_mid_run_recovers_bit_identically(self, tmp_path):
        reference = reference_samples()
        plan = ProcessFaultPlan.create(
            tmp_path, [ProcessFault("kill", shard=1, times=1)]
        )
        with ParallelRunner(fast_policy(), fault_plan=plan) as runner:
            out = runner.evaluate_source(mc_source())
        assert plan.remaining(0) == 0, "the kill must actually have fired"
        np.testing.assert_array_equal(
            reference, out.series["total_g"]
        )
        assert out.partial is None
        assert out.supervision.retries >= 1
        assert out.supervision.respawns >= 1
        causes = {failure.cause for failure in out.supervision.failures}
        assert "worker-death" in causes

    def test_stalled_shard_hits_deadline_and_recovers(self, tmp_path):
        reference = reference_samples()
        plan = ProcessFaultPlan.create(
            tmp_path,
            [ProcessFault("stall", shard=1, times=1, stall_seconds=30.0)],
        )
        policy = fast_policy(shard_deadline_seconds=0.4)
        with ParallelRunner(policy, fault_plan=plan) as runner:
            out = runner.evaluate_source(mc_source())
        np.testing.assert_array_equal(
            reference, out.series["total_g"]
        )
        causes = {failure.cause for failure in out.supervision.failures}
        assert "deadline" in causes
        assert out.supervision.respawns >= 1

    def test_dropped_result_is_resubmitted(self, tmp_path):
        reference = reference_samples()
        plan = ProcessFaultPlan.create(
            tmp_path, [ProcessFault("drop_result", shard=1, times=1)]
        )
        with ParallelRunner(fast_policy(), fault_plan=plan) as runner:
            out = runner.evaluate_source(mc_source())
        assert plan.remaining(0) == 0
        np.testing.assert_array_equal(
            reference, out.series["total_g"]
        )
        assert out.partial is None

    def test_model_errors_are_never_retried(self, tmp_path):
        """A strict-guard ValidationError is deterministic: the supervisor
        must re-raise it immediately instead of burning the retry budget
        re-failing identically."""
        context = RunContext.create(describe_git=False)
        guard = GuardedEngine(policy="strict")
        # Energies past Table 1's 40 kWh fail strict validation in every
        # shard (a negative range is refused before any draw).
        source = ShardColumnSource.create(
            BASE,
            draws=600,
            seed=7,
            shard_rows=128,
            ranges={"energy_kwh": (50.0, 60.0)},
        )
        with use_context(context):
            with ParallelRunner(fast_policy()) as runner:
                with pytest.raises(ValidationError):
                    runner.evaluate_source(source, guard=guard)
        assert context.sink.of_type("shard_retry") == []

    def test_exhausted_budget_raises_shard_failed(self, tmp_path):
        plan = ProcessFaultPlan.create(
            tmp_path, [ProcessFault("kill", shard=1, times=10)]
        )
        policy = fast_policy(max_retries=1)
        with ParallelRunner(policy, fault_plan=plan) as runner:
            with pytest.raises(ShardFailedError) as info:
                runner.evaluate_source(mc_source())
        assert info.value.shard == 1
        assert info.value.attempts == 2  # first try + max_retries
        assert info.value.cause == "worker-death"


class TestDegradeRecovery:
    def test_quarantine_names_exactly_the_dead_shard(self, tmp_path):
        reference = reference_samples()
        plan = ProcessFaultPlan.create(
            tmp_path, [ProcessFault("kill", shard=2, times=5)]
        )
        # Only the killed shard may fail: a deadline far above the run
        # time also lifts the stall backstop, so a slow worker respawn on
        # a loaded host cannot get healthy shards resubmitted or lost.
        policy = fast_policy(
            failure_policy=DEGRADE, max_retries=2, shard_deadline_seconds=600.0
        )
        with pytest.warns(RobustnessWarning, match="quarantined"):
            with ParallelRunner(policy, fault_plan=plan) as runner:
                out = runner.evaluate_source(mc_source())
        assert isinstance(out.partial, PartialResult)
        assert out.partial.quarantined == (2,)
        assert out.partial.ranges == ((256, 384),)
        assert out.partial.causes() == {2: "worker-death"}
        # Quarantined rows are flagged NaN, never silently zero or stale,
        # and they are the only NaN rows.
        lost = np.isnan(out.series["total_g"])
        assert np.flatnonzero(lost).tolist() == list(range(256, 384))
        assert out.partial.rows == 128
        # Every surviving row is bit-identical to the unfaulted run.
        np.testing.assert_array_equal(
            reference[~lost], out.series["total_g"][~lost]
        )

    def test_degraded_monte_carlo_result_carries_partial(self, tmp_path):
        plan = ProcessFaultPlan.create(
            tmp_path, [ProcessFault("kill", shard=0, times=5)]
        )
        # run_monte_carlo builds its own runner; arm chaos via a manual
        # runner to keep the public API surface unchanged.
        policy = fast_policy(failure_policy=DEGRADE, max_retries=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RobustnessWarning)
            with ParallelRunner(policy, fault_plan=plan) as runner:
                evaluation = runner.evaluate_source(mc_source())
        assert evaluation.partial.rows == 128
        assert evaluation.supervision.quarantined == (0,)

    def test_workers_1_degrade_quarantines_on_a_one_worker_pool(
        self, tmp_path
    ):
        """workers=1 is a one-worker pool under the same failure policy:
        its worker is respawned and the shard retried, then
        quarantined."""
        plan = ProcessFaultPlan.create(
            tmp_path, [ProcessFault("kill", shard=1, times=2)]
        )
        policy = fast_policy(
            workers=1, failure_policy=DEGRADE, max_retries=1
        )
        with pytest.warns(RobustnessWarning, match="quarantined"):
            with ParallelRunner(policy, fault_plan=plan) as runner:
                out = runner.evaluate_source(mc_source())
        assert plan.remaining() == 0
        assert out.partial.quarantined == (1,)
        assert out.partial.ranges == ((128, 256),)
        assert out.supervision.respawns == 2
        assert np.isnan(out.series["total_g"][128:256]).all()


# --- one retry decision ----------------------------------------------------


class TestRetryLedger:
    def test_budget_backoff_and_events(self):
        """Retries back off exponentially, then the policy decides."""
        policy = fast_policy(
            failure_policy=DEGRADE, max_retries=2, backoff_seconds=0.5
        )
        context = RunContext.create(describe_git=False)
        with use_context(context):
            ledger = RetryLedger(policy)
            assert ledger.fail(3, "error", "boom", 0) == 0.5
            assert ledger.fail(3, "error", "boom", 0) == 1.0
            assert ledger.fail(3, "error", "boom", 0) is None
        report = ledger.report()
        assert report.retries == 2
        assert report.backoff_seconds == 1.5
        assert report.quarantined == (3,)
        assert [failure.attempt for failure in report.failures] == [1, 2, 3]
        assert [
            event["attempt"] for event in context.sink.of_type("shard_retry")
        ] == [2, 3]
        assert [
            event["attempts"]
            for event in context.sink.of_type("shard_quarantined")
        ] == [3]

    def test_exhausted_retry_budget_raises_chained(self):
        ledger = RetryLedger(fast_policy(max_retries=0))
        cause = OSError("dangling handle")
        with pytest.raises(ShardFailedError) as info:
            ledger.fail(1, "error", repr(cause), 0, cause)
        assert info.value.shard == 1
        assert info.value.attempts == 1
        assert info.value.__cause__ is cause

    def test_fail_fast_is_a_zero_budget(self):
        ledger = RetryLedger(fast_policy(failure_policy=FAIL_FAST))
        assert ledger.budget == 0
        with pytest.raises(ShardFailedError) as info:
            ledger.fail(2, "error", "boom", 0)
        assert info.value.attempts == 1
        assert ledger.report().retries == 0

    def test_one_worker_pool_spends_the_same_budget(self, tmp_path):
        """workers=1 under "retry": a fault that outlives the budget
        raises the same ShardFailedError two workers would."""
        plan = ProcessFaultPlan.create(
            tmp_path, [ProcessFault("kill", shard=1, times=3)]
        )
        policy = fast_policy(workers=1, max_retries=1)
        with ParallelRunner(policy, fault_plan=plan) as runner:
            with pytest.raises(ShardFailedError) as info:
                runner.evaluate_source(mc_source())
        assert info.value.shard == 1
        assert info.value.attempts == 2
        assert info.value.cause == "worker-death"
        assert type(info.value.__cause__) is WorkerError


# --- observability ---------------------------------------------------------


class TestSupervisionObservability:
    def test_retry_respawn_and_quarantine_are_reported(self, tmp_path):
        plan = ProcessFaultPlan.create(
            tmp_path, [ProcessFault("kill", shard=2, times=5)]
        )
        # As in TestDegradeRecovery: only the killed shard may fail.
        policy = fast_policy(
            failure_policy=DEGRADE, max_retries=1, shard_deadline_seconds=600.0
        )
        context = RunContext.create(describe_git=False)
        with use_context(context):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RobustnessWarning)
                with ParallelRunner(policy, fault_plan=plan) as runner:
                    runner.evaluate_source(mc_source())
        retries = context.sink.of_type("shard_retry")
        respawns = context.sink.of_type("worker_respawn")
        quarantines = context.sink.of_type("shard_quarantined")
        assert retries and respawns
        assert [event["shard"] for event in quarantines] == [2]
        rendered = context.metrics.render()
        assert "parallel.retries" in rendered
        assert "parallel.respawns" in rendered
        assert "parallel.quarantined" in rendered


# --- checkpoint resume composes with partial results -----------------------


class TestCheckpointPartialResume:
    def _chunked(self, tmp_path, checkpoint, *, fault_plan=None, resume=False):
        policy = fast_policy(
            failure_policy=DEGRADE, max_retries=0, backoff_seconds=0.0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RobustnessWarning)
            return run_monte_carlo_chunked(
                BASE,
                draws=768,
                seed=11,
                chunk_rows=128,
                checkpoint=checkpoint,
                resume=resume,
                policy=policy,
                fault_plan=fault_plan,
            )

    def test_resume_reattempts_only_quarantined_rows(self, tmp_path):
        checkpoint = tmp_path / "mc.npz"
        reference = self._chunked(tmp_path, None)
        assert reference.partial is None

        plan = ProcessFaultPlan.create(
            tmp_path / "faults", [ProcessFault("kill", shard=1, times=1)]
        )
        partial = self._chunked(tmp_path, checkpoint, fault_plan=plan)
        assert partial.partial is not None
        assert partial.partial.ranges == ((128, 256),)
        assert len(partial.samples) == 768 - 128

        # Resume with the fault cleared: only the quarantined range is
        # re-attempted — no chunk re-evaluates — and the result converges
        # bit-identically to the never-faulted run.
        context = RunContext.create(describe_git=False)
        with use_context(context):
            resumed = self._chunked(tmp_path, checkpoint, resume=True)
        assert resumed.partial is None
        np.testing.assert_array_equal(reference.samples, resumed.samples)
        retry_events = context.sink.of_type("quarantine_retry")
        assert [
            (event["start"], event["stop"]) for event in retry_events
        ] == [(128, 256)]
        assert all(event["healed"] for event in retry_events)
        # The completed prefix rode along from the checkpoint: the resume
        # evaluated zero regular chunks.
        assert context.sink.of_type("chunk") == []

    def test_still_faulty_resume_stays_partial(self, tmp_path):
        checkpoint = tmp_path / "mc.npz"
        plan = ProcessFaultPlan.create(
            tmp_path / "faults", [ProcessFault("kill", shard=1, times=1)]
        )
        self._chunked(tmp_path, checkpoint, fault_plan=plan)
        # Shards keep their run-wide chunk numbers in every wave, so the
        # re-attempt of chunk 1 is shard 1 again.
        still_faulty = ProcessFaultPlan.create(
            tmp_path / "faults2", [ProcessFault("kill", shard=1, times=1)]
        )
        resumed = self._chunked(
            tmp_path, checkpoint, fault_plan=still_faulty, resume=True
        )
        assert resumed.partial is not None
        assert resumed.partial.ranges == ((128, 256),)
        # And a second resume with the fault gone converges fully.
        final = self._chunked(tmp_path, checkpoint, resume=True)
        assert final.partial is None
        assert len(final.samples) == 768


# --- CLI flags (satellite 3) ----------------------------------------------


class TestCliParallelFlags:
    def _run(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_shard_rows_accepted(self, capsys):
        code, out, _ = self._run(
            capsys,
            "montecarlo",
            "--draws", "400",
            "--workers", "2",
            "--shard-rows", "100",
        )
        assert code == 0
        assert "mean" in out

    def test_workers_and_checkpoint_print_identical_statistics(
        self, capsys, tmp_path
    ):
        """One draw stream: the worker count and a checkpoint change how
        the run executes, never the printed mean, std or percentiles."""

        def statistics(*extra):
            code, out, _ = self._run(
                capsys, "montecarlo", "--draws", "70000", "--seed", "7", *extra
            )
            assert code == 0
            return [
                line
                for line in out.splitlines()
                if line.startswith("mean ") or re.match(r"p\d", line)
            ]

        serial = statistics("--workers", "1")
        assert len(serial) == 4  # the mean/std line and p5, p50, p95
        assert statistics("--workers", "2") == serial
        assert statistics("--checkpoint", str(tmp_path / "mc.ckpt")) == serial

    def test_invalid_shard_rows_exits_2(self, capsys):
        code, _, err = self._run(
            capsys, "montecarlo", "--draws", "100", "--shard-rows", "-5"
        )
        assert code == 2
        assert "shard_rows" in err

    def test_invalid_transport_exits_2(self, capsys):
        # Tasks and results are always pickled: there is no --transport,
        # so every value of it is invalid.
        for transport in ("shm", "pickle", "carrier-pigeon"):
            with pytest.raises(SystemExit) as info:
                self._run(
                    capsys, "montecarlo", "--draws", "100",
                    "--transport", transport,
                )
            assert info.value.code == 2

    def test_invalid_max_retries_exits_2(self, capsys):
        code, _, err = self._run(
            capsys,
            "montecarlo", "--draws", "100",
            "--failure-policy", "retry", "--max-retries", "-1",
        )
        assert code == 2
        assert "max_retries" in err

    def test_sensitivity_accepts_parallel_flags(self, capsys):
        code, out, _ = self._run(
            capsys,
            "sensitivity",
            "--draws", "300",
            "--workers", "2",
            "--shard-rows", "100",
            "--failure-policy", "retry",
        )
        assert code == 0
        assert "Monte Carlo" in out

    @pytest.mark.parametrize(
        "flag",
        [
            ("--workers", "2"),
            ("--shard-rows", "100"),
            ("--failure-policy", "retry"),
            ("--max-retries", "1"),
        ],
        ids=lambda flag: flag[0],
    )
    def test_experiment_rejects_parallel_flags(self, capsys, flag):
        # Experiments run their sweeps in-process: no parallel flag
        # changes what they compute or how long they take.
        with pytest.raises(SystemExit) as info:
            self._run(capsys, "experiment", "fig14", *flag)
        assert info.value.code == 2


# --- policy validation -----------------------------------------------------


class TestFailurePolicyValidation:
    def test_unknown_failure_policy_rejected(self):
        with pytest.raises(ParameterError, match="failure policy"):
            ExecutionPolicy(failure_policy="pray")

    def test_negative_retries_rejected(self):
        with pytest.raises(ParameterError, match="max_retries"):
            ExecutionPolicy(max_retries=-1)

    def test_bad_deadline_rejected(self):
        with pytest.raises(ParameterError, match="shard_deadline"):
            ExecutionPolicy(shard_deadline_seconds=0.0)

    def test_fail_fast_stays_the_default(self):
        assert ExecutionPolicy().failure_policy == FAIL_FAST

    def test_one_shot_monte_carlo_threads_partial(self):
        """run_monte_carlo's parallel path forwards partial=None for a
        healthy run (the field exists for degraded ones)."""
        result = run_monte_carlo(
            BASE,
            draws=400,
            seed=3,
            policy=ExecutionPolicy(workers=2, shard_rows=100),
        )
        assert result.partial is None

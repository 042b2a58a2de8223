"""A small persistent worker-process pool with faithful error transport.

``multiprocessing.Pool`` would almost fit, but the chunked driver needs
three things it does not give cleanly: a pool that survives across many
waves without re-importing numpy (persistent daemon workers fed
through queues), per-task knowledge of *which worker* ran it (so the
parent can tag observability counters per worker), and loss-free
exception propagation (``Pool`` re-raises whatever survives pickling and
hangs or obscures what does not).

:class:`WorkerPool` dispatches nothing on its own: it exposes the
primitives :class:`~repro.parallel.supervisor.ShardSupervisor`, the one
loop that submits shards and reads results, is built from — per-run
epochs, task submission, a result poll that never blocks past its
timeout, per-worker heartbeats and task claims, targeted termination,
and respawn.  Together they make a lost shard attributable and a dead
worker replaceable without tearing the pool down.  A worker exception
travels back pickled when it round-trips, or as its text and traceback
when it does not.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import time
import traceback
from typing import Any, Callable

from repro.core.errors import ParameterError

#: BLAS thread-pool pins applied before workers start: each worker runs
#: single-threaded kernels so speedups are attributable to the pool (and
#: W workers × T BLAS threads cannot oversubscribe the machine).
BLAS_ENV_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: How long a blocking result-queue read waits before the parent checks
#: worker liveness.  Small enough that a dead worker is noticed promptly,
#: large enough that a healthy run never spins.
DEFAULT_POLL_SECONDS = 0.05

#: Claim-array sentinel: this worker holds no task.
_IDLE = -1


def default_start_method() -> str:
    """The preferred multiprocessing start method on this platform.

    ``fork`` (cheap, shares the already-imported numpy) when the platform
    offers it, ``spawn`` otherwise.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def pin_blas_threads() -> None:
    """Pin BLAS/OpenMP thread pools to 1 (existing settings win)."""
    for key, value in BLAS_ENV_PINS.items():
        os.environ.setdefault(key, value)


def _encode_error(exc: BaseException) -> tuple[str, Any]:
    """Encode an exception for the result queue.

    Returns ``("exc", exception)`` when the exception survives a pickle
    round trip, else ``("text", (repr, traceback))``.
    """
    try:
        if pickle.loads(pickle.dumps(exc)) is not None:
            return ("exc", exc)
    except Exception:
        pass
    return ("text", (repr(exc), traceback.format_exc()))


def _worker_loop(
    worker_id: int,
    tasks: Any,
    results: Any,
    results_lock: Any,
    heartbeats: Any,
    claim_tasks: Any,
    claim_runs: Any,
) -> None:
    """Worker main: drain the task queue until the ``None`` sentinel.

    Before executing a task the worker *claims* it — records the task
    index and run epoch in the shared claim arrays, and stamps its
    heartbeat — so the parent can attribute a lost shard to the worker
    that died holding it, and can spot a worker stalled past its shard
    deadline (the heartbeat only advances between tasks).

    Results are written to the result pipe synchronously, before the
    next task is taken: a worker killed mid-task loses only the task it
    was running, never an earlier result still buffered for a background
    writer (nor that writer's lock, which every other worker shares).
    """
    pin_blas_threads()

    def send(message: tuple) -> None:
        with results_lock:
            results.send(message)

    for item in iter(tasks.get, None):
        run_id, index, fn, payload = item
        claim_tasks[worker_id] = index
        claim_runs[worker_id] = run_id
        heartbeats[worker_id] = time.monotonic()
        try:
            out = fn(payload)
        except BaseException as exc:  # noqa: BLE001 - transported to parent
            # A chaos-injected dropped result: the work happened but the
            # message never reaches the parent (see robustness.faultinject).
            if not getattr(exc, "repro_dropped_result", False):
                send((run_id, index, worker_id, False, _encode_error(exc)))
        else:
            send((run_id, index, worker_id, True, out))
        finally:
            claim_tasks[worker_id] = _IDLE
            heartbeats[worker_id] = time.monotonic()


class WorkerPool:
    """A persistent pool of daemon worker processes fed through queues.

    Start is lazy — processes launch on the first :meth:`begin_run` —
    and the pool is reusable across runs until :meth:`close`.  Tasks name
    their function by reference (it must be importable module-level,
    picklable under both ``fork`` and ``spawn``).  Workers found dead at
    the start of a run are respawned automatically.
    """

    def __init__(
        self,
        workers: int,
        *,
        join_timeout: float = 10.0,
        term_timeout: float = 5.0,
        poll_seconds: float = DEFAULT_POLL_SECONDS,
    ):
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.join_timeout = float(join_timeout)
        self.term_timeout = float(term_timeout)
        self.poll_seconds = float(poll_seconds)
        self._context = multiprocessing.get_context(default_start_method())
        self._processes: list[multiprocessing.process.BaseProcess] = []
        self._tasks: Any = None
        self._results: Any = None
        self._results_writer: Any = None
        self._results_lock: Any = None
        self._heartbeats: Any = None
        self._claim_tasks: Any = None
        self._claim_runs: Any = None
        self._run_id = 0
        self._respawns = 0
        self._closed = False

    @property
    def running(self) -> bool:
        return bool(self._processes)

    @property
    def respawns(self) -> int:
        """Workers respawned over the pool's lifetime."""
        return self._respawns

    # --- process lifecycle ----------------------------------------------

    def _spawn(self, worker_id: int) -> multiprocessing.process.BaseProcess:
        self._claim_tasks[worker_id] = _IDLE
        self._claim_runs[worker_id] = _IDLE
        self._heartbeats[worker_id] = time.monotonic()
        process = self._context.Process(
            target=_worker_loop,
            args=(
                worker_id,
                self._tasks,
                self._results_writer,
                self._results_lock,
                self._heartbeats,
                self._claim_tasks,
                self._claim_runs,
            ),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        return process

    def _ensure_started(self) -> None:
        if self._closed:
            raise ParameterError("worker pool is closed")
        if self._processes:
            # Replace any worker that died since the last run so a crashed
            # batch does not permanently shrink the pool.
            for worker_id, process in enumerate(self._processes):
                if process.exitcode is not None:
                    self.respawn(worker_id)
            return
        # Pin in the parent before forking/spawning so children inherit
        # the single-threaded BLAS configuration from their environment.
        pin_blas_threads()
        # A full Queue for tasks: its feeder thread makes put()
        # non-blocking, so submitting every task before draining results
        # cannot deadlock on a full pipe when payloads are large.  Results
        # go through a plain pipe that workers write synchronously under
        # one lock (see _worker_loop); the parent is its only reader.
        self._tasks = self._context.Queue()
        self._results, self._results_writer = self._context.Pipe(duplex=False)
        self._results_lock = self._context.Lock()
        # Lock-free shared scalars: each slot has exactly one writer (its
        # worker) and one reader (the parent); aligned word-sized loads
        # and stores need no lock.
        self._heartbeats = self._context.Array("d", self.workers, lock=False)
        self._claim_tasks = self._context.Array("q", self.workers, lock=False)
        self._claim_runs = self._context.Array("q", self.workers, lock=False)
        for worker_id in range(self.workers):
            self._processes.append(self._spawn(worker_id))

    def respawn(self, worker_id: int) -> None:
        """Replace one (dead) worker process with a fresh one."""
        process = self._processes[worker_id]
        if process.is_alive():  # pragma: no cover - defensive
            self.terminate_worker(worker_id)
            process = self._processes[worker_id]
        process.join(timeout=0)
        self._processes[worker_id] = self._spawn(worker_id)
        self._respawns += 1

    def terminate_worker(self, worker_id: int) -> None:
        """Forcibly stop one worker: ``terminate()``, escalate to ``kill()``.

        Used by the supervisor on workers hung past their shard deadline.
        The worker's slot stays dead until :meth:`respawn`.
        """
        process = self._processes[worker_id]
        if not process.is_alive():
            return
        process.terminate()
        process.join(timeout=self.term_timeout)
        if process.is_alive():  # pragma: no cover - SIGTERM ignored
            process.kill()
            process.join(timeout=self.term_timeout)

    # --- supervised-run primitives --------------------------------------

    def begin_run(self) -> int:
        """Open a new run epoch and discard any stale queued tasks.

        Results tagged with an older epoch (stragglers from an aborted
        batch) are dropped by :meth:`poll`; draining the task queue here
        keeps surviving workers from wasting time on them.
        """
        self._ensure_started()
        self._run_id += 1
        try:
            while True:
                self._tasks.get_nowait()
        except queue.Empty:
            pass
        return self._run_id

    def submit(
        self, run_id: int, index: int, fn: Callable[[Any], Any], payload: Any
    ) -> None:
        """Enqueue one task for the given run epoch."""
        self._tasks.put((run_id, index, fn, payload))

    def poll(self, timeout: float) -> tuple[int, int, bool, Any] | None:
        """One ``(index, worker_id, ok, out)`` result, or ``None`` on timeout.

        Results from earlier run epochs are silently discarded (their
        shard data is idempotent and already abandoned).
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            if not self._results.poll(remaining):
                return None
            run_id, index, worker_id, ok, out = self._results.recv()
            if run_id == self._run_id:
                return (index, worker_id, ok, out)

    def dead_workers(self) -> list[tuple[int, int, int | None]]:
        """``(worker_id, exitcode, claimed_task)`` for every dead worker.

        ``claimed_task`` is the task index the worker held when it died
        (this run epoch only), or ``None`` if it died idle — the tiny
        window between dequeuing a task and claiming it also reads as
        idle, which the supervisor covers with its lost-task backstop.
        """
        found = []
        for worker_id, process in enumerate(self._processes):
            if process.exitcode is None:
                continue
            claimed: int | None = None
            if (
                self._claim_runs[worker_id] == self._run_id
                and self._claim_tasks[worker_id] != _IDLE
            ):
                claimed = int(self._claim_tasks[worker_id])
            found.append((worker_id, int(process.exitcode), claimed))
        return found

    def claimed_task(self, worker_id: int) -> int | None:
        """The task index this worker currently claims (this run), if any."""
        if not self._processes or self._processes[worker_id].exitcode is not None:
            return None
        if (
            self._claim_runs[worker_id] == self._run_id
            and self._claim_tasks[worker_id] != _IDLE
        ):
            return int(self._claim_tasks[worker_id])
        return None

    def heartbeat_age(self, worker_id: int) -> float:
        """Seconds since this worker last stamped its heartbeat.

        The heartbeat advances at task boundaries only, so for a worker
        holding a claim this is (slightly more than) the current task's
        age — the signal the shard-deadline watch runs on.
        """
        return time.monotonic() - self._heartbeats[worker_id]

    # --- shutdown --------------------------------------------------------

    def close(self) -> None:
        """Shut the workers down (idempotent).

        Cooperative first — a ``None`` sentinel per worker, then a join
        bounded by ``join_timeout`` — escalating per survivor to
        ``terminate()`` and, should a worker outlive even SIGTERM (masked
        signals, stuck in uninterruptible I/O), to ``kill()``.
        """
        if self._closed:
            return
        self._closed = True
        if self._processes:
            for _ in self._processes:
                self._tasks.put(None)
            for process in self._processes:
                process.join(timeout=self.join_timeout)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=self.term_timeout)
                if process.is_alive():  # pragma: no cover - SIGTERM masked
                    process.kill()
                    process.join(timeout=self.term_timeout)
            self._processes.clear()
            self._tasks.close()
            # The feeder thread may still hold buffered sentinels for
            # workers that already exited; never block shutdown on it.
            self._tasks.cancel_join_thread()
            self._results.close()
            self._results_writer.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

"""The ``serve`` workload: ``act-repro serve --port 0`` in a subprocess,
driven over at most two HTTP connections.

Requests are ``/v1/footprint`` bodies: one in four drawn from 64 hot
scenarios (answered from the service cache after the warm-up) and three
in four unique (micro-batcher + kernel).  Two phases:

* open loop (half of the run): Poisson arrivals at a fixed rate
  (about an eighth of the one-client capacity measured on a 2-core host,
  so that a host slowdown does not push the service into a growing
  backlog) from two senders, each request timed from its due time, so a
  stall is charged to every request queued behind it.  Gives
  ``latency_p50_ms`` / ``latency_p99_ms``; the generator reports how
  late it ran (``loadgen.lag_ms``).
* closed loop (the rest): one connection back to back.  Gives
  ``items_per_s``.

Every 2xx ``total_g`` must equal the direct engine result for the same
body, computed in this process before the phases start.  Refusals,
transport errors and responses over the latency limit count as failed.
"""

from __future__ import annotations

import gc
import http.client
import json
import select
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np

from repro.analysis.scenario import PARAMETER_RANGES, ActScenario
from repro.engine.batch import ScenarioBatch
from repro.engine.kernels import evaluate_batch
from repro.service import CarbonQueryService, ServiceConfig

from common import (
    SETUP_REPEATS,
    Outcome,
    median,
    op_seed,
    percentile,
    process_peak_rss_mb,
)

PATH = "/v1/footprint"
BASE = ActScenario()
#: Fields each request overrides (the rest keep their defaults).
FIELDS = (
    "energy_kwh",
    "ci_use_g_per_kwh",
    "soc_area_cm2",
    "ci_fab_g_per_kwh",
    "dram_gb",
    "ssd_gb",
)
HOT = 64
#: One block of the request mix (True = hot).  One in four is hot rather
#: than one in two so that the median request lies inside the unique
#: (batched) mode: with an even split the median falls on the gap between
#: the cache-hit and batched modes and jumps between them from run to run.
MIX = (True, False, False, False)
#: Open-loop senders.  The closed loop uses one connection, so that the
#: client and the service each have a vCPU of a 2-vCPU host.
CONNECTIONS = 2
#: Open-loop arrival rate (requests/s) and the latency limit a request
#: must meet, timed from its due time.
RATE = 100.0
#: Share of the run spent in the open loop: 16 s of a 32-second run give
#: ~1600 requests, enough for a p99 with ten samples beyond it.
OPEN_SHARE = 0.5
LATENCY_LIMIT_S = 1.0
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


class Bodies:
    """Seeded request bodies with their expected ``total_g``."""

    def __init__(self, seed: int, count: int):
        rng = np.random.default_rng(seed)
        columns = {
            name: rng.uniform(*PARAMETER_RANGES[name], count) for name in FIELDS
        }
        self.payloads = [
            json.dumps(
                {"params": {name: float(columns[name][i]) for name in FIELDS}}
            ).encode()
            for i in range(count)
        ]
        self.expected = evaluate_batch(
            ScenarioBatch.from_columns(BASE, count, columns)
        ).total_g.tolist()

    def __len__(self) -> int:
        return len(self.payloads)


class Server:
    """``python -m repro.cli serve --port 0`` as a subprocess."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + READY_TIMEOUT_S
        line = b""
        while not line.startswith(b"listening on http://"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.process.stdout], [], [], max(0.0, remaining))
            if not ready or self.process.poll() is not None:
                self.stop()
                raise RuntimeError("the service did not report a listening port")
            line = self.process.stdout.readline()
        address = line.decode().strip().rsplit("/", 1)[-1]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        # Keep reading stdout so the service can never block on a full pipe.
        self._drain = threading.Thread(target=self.process.stdout.read, daemon=True)
        self._drain.start()

    def connect(self) -> http.client.HTTPConnection:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
        connection.connect()
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection

    def statz(self) -> dict:
        connection = self.connect()
        try:
            connection.request("GET", "/statz")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Record:
    """One request's outcome (times are ``perf_counter`` seconds)."""

    __slots__ = ("kind", "body", "due", "sent", "done", "status", "payload")

    def __init__(self, kind: str, body: int, due: float):
        self.kind, self.body, self.due = kind, body, due
        self.sent = self.done = 0.0
        self.status = 0
        self.payload = b""


def send(connection, server: Server, record: Record, payload: bytes):
    """Send one request; returns the (possibly replaced) connection."""
    record.sent = time.perf_counter()
    try:
        connection.request(
            "POST", PATH, body=payload, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        record.payload = response.read()
        record.status = response.status
    except (OSError, http.client.HTTPException):
        record.status = -1
        connection.close()
        try:
            connection = server.connect()
        except OSError:
            pass
    record.done = time.perf_counter()
    return connection


class Traffic:
    """The seeded request mix: every block of :data:`MIX` holds one hot
    and three unique (never repeated) requests, in seeded order."""

    def __init__(self, seed: int, hot: Bodies, unique: Bodies):
        self.rng = np.random.default_rng(seed)
        self.hot, self.unique = hot, unique
        self.next_unique = 0
        self.kinds: list[bool] = []
        self.lock = threading.Lock()

    def draw(self, due: float = 0.0) -> "Record | None":
        """The next request, or ``None`` once the unique bodies run out."""
        with self.lock:
            if not self.kinds:
                self.kinds = list(self.rng.permutation(MIX))
            if self.kinds.pop():
                return Record("hot", int(self.rng.integers(HOT)), due)
            if self.next_unique == len(self.unique):
                return None
            self.next_unique += 1
            return Record("unique", self.next_unique - 1, due)

    def payload(self, record: Record) -> bytes:
        return (self.hot if record.kind == "hot" else self.unique).payloads[record.body]

    def expected(self, record: Record) -> float:
        return (self.hot if record.kind == "hot" else self.unique).expected[record.body]


def open_loop(server: Server, traffic: Traffic, seconds: float, seed: int) -> list[Record]:
    """Poisson arrivals at :data:`RATE` over ``seconds``, two senders."""
    rng = np.random.default_rng(seed)
    offsets = np.cumsum(rng.exponential(1.0 / RATE, int(RATE * seconds * 1.5) + 16))
    planned = []
    for offset in offsets[offsets < seconds]:
        record = traffic.draw(float(offset))
        if record is None:
            break
        planned.append(record)
    start = time.perf_counter() + 0.005
    for record in planned:
        record.due += start
    cursor = iter(planned)
    lock = threading.Lock()

    def sender() -> None:
        connection = server.connect()
        try:
            while True:
                with lock:
                    record = next(cursor, None)
                if record is None:
                    return
                wait = record.due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                connection = send(connection, server, record, traffic.payload(record))
        finally:
            connection.close()

    _run_threads(sender)
    return planned


def closed_loop(server: Server, traffic: Traffic, seconds: float) -> tuple[list[Record], float]:
    """One connection back to back for ``seconds``; returns the records
    and the phase's wall time."""
    records: list[Record] = []
    started = time.perf_counter()
    deadline = started + seconds
    connection = server.connect()
    try:
        while time.perf_counter() < deadline:
            record = traffic.draw()
            if record is None:
                break
            connection = send(connection, server, record, traffic.payload(record))
            records.append(record)
    finally:
        connection.close()
    return records, time.perf_counter() - started


def _run_threads(target) -> None:
    threads = [threading.Thread(target=target) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class Serve:
    name = "serve"

    def __init__(self, ctx):
        self.ctx = ctx
        self.pool = 2048 if ctx.tiny else 32768
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.rejected = 0
        self.failures: list[str] = []

    def judge(
        self, records: "list[Record]", traffic: Traffic, *, from_due: bool, limit: bool = True
    ) -> list[dict]:
        """Count failures among ``records``; returns the decoded 2xx bodies
        (``None`` for the others).  Latency runs from the due time or the
        send time; ``limit`` applies :data:`LATENCY_LIMIT_S` to it."""
        decoded = []
        for record in records:
            self.attempted += 1
            if not 200 <= record.status < 300:
                self.failed += 1
                if record.status in (429, 503, 504):
                    self.rejected += 1
                decoded.append(None)
                continue
            body = json.loads(record.payload)
            expected = traffic.expected(record)
            if self.ctx.corrupt:
                expected *= 1.0 + 1e-6
            latency = record.done - (record.due if from_due else record.sent)
            if body.get("total_g") != expected:
                self.failed += 1
                self.incorrect += 1
                if len(self.failures) < 5:
                    self.failures.append(
                        f"{record.kind} body {record.body}: total_g "
                        f"{body.get('total_g')!r} vs direct engine {expected!r}"
                    )
            elif limit and latency > LATENCY_LIMIT_S:
                self.failed += 1
            decoded.append(body)
        return decoded

    def setup(self, repeat: int) -> tuple[Server, Traffic]:
        """Input generation, server start until ready, and a warm-up
        pass that sends every hot body once (so they are cached) plus 16
        unique ones, all checked."""
        seed = self.ctx.seed
        hot = Bodies(op_seed(seed, 1), HOT)
        unique = Bodies(op_seed(seed, 2), self.pool)
        warm = Bodies(op_seed(seed, 3, repeat), 16)
        server = Server()
        try:
            warm_traffic = Traffic(0, hot, warm)
            records = [Record("hot", i, 0.0) for i in range(HOT)]
            records += [Record("unique", i, 0.0) for i in range(len(warm))]
            connection = server.connect()
            try:
                for record in records:
                    connection = send(connection, server, record, warm_traffic.payload(record))
            finally:
                connection.close()
            self.judge(records, warm_traffic, from_due=False, limit=False)
        except BaseException:
            server.stop()
            raise
        return server, Traffic(op_seed(seed, 4), hot, unique)

    def run(self) -> Outcome:
        ctx = self.ctx
        outcome = Outcome()
        server = None
        try:
            for repeat in range(SETUP_REPEATS):
                if server is not None:
                    server.stop()
                started = time.perf_counter()
                server, traffic = self.setup(repeat)
                outcome.setup_s.append(time.perf_counter() - started)
            # The open loop always gets OPEN_SHARE of the run, so a traced
            # run has as many latency samples for its p99; a traced run
            # splits the rest between two closed loops and the in-process
            # handle timing.
            phase = ctx.seconds * (1.0 - OPEN_SHARE) / (3 if ctx.trace else 1)
            statz_before = server.statz() if ctx.trace else None
            # The generator's own collector pauses would read as service
            # latency.
            gc.disable()
            opened = open_loop(server, traffic, ctx.seconds * OPEN_SHARE, op_seed(ctx.seed, 5))
            closed, closed_elapsed = closed_loop(server, traffic, phase)
            if ctx.trace:
                traced_closed, traced_elapsed = closed_loop(server, traffic, phase)
                statz_after = server.statz()
            outcome.peak_rss_mb = server.peak_rss_mb()
        finally:
            gc.enable()
            if server is not None:
                server.stop()

        open_bodies = self.judge(opened, traffic, from_due=True)
        closed_bodies = self.judge(closed, traffic, from_due=False)
        served = [r for r, b in zip(opened, open_bodies) if b is not None]
        outcome.latencies_s = [r.done - r.due for r in served]
        outcome.latency_clock_s = [r.due for r in served]
        completed = sum(1 for body in closed_bodies if body is not None)
        outcome.items_per_s = completed / closed_elapsed
        outcome.notes["open_loop_rate"] = RATE
        outcome.notes["latency_limit_ms"] = LATENCY_LIMIT_S * 1e3
        outcome.notes["unique_bodies_used"] = traffic.next_unique
        if ctx.trace:
            traced_bodies = self.judge(traced_closed, traffic, from_due=False)
            traced_done = sum(1 for body in traced_bodies if body is not None)
            outcome.layers = self._layers(
                opened,
                open_bodies,
                closed + traced_closed,
                closed_bodies + traced_bodies,
                statz_before,
                statz_after,
                traffic,
                phase,
            )
            outcome.layers["tracing_overhead_fraction"] = (
                outcome.items_per_s / (traced_done / traced_elapsed) - 1.0
            )
        outcome.attempted = self.attempted
        outcome.failed = self.failed
        outcome.incorrect = self.incorrect
        outcome.notes["failures"] = self.failures
        return outcome

    def _layers(self, opened, open_bodies, closed, closed_bodies, before, after, traffic, seconds):
        served = [b for b in open_bodies + closed_bodies if b is not None]
        cache_hits = sum(1 for b in served if b.get("served_from") == "cache")
        batched = [b["batch_rows"] for b in served if b.get("served_from") != "cache"]
        by_source: dict[str, list[float]] = {"cache": [], "batch": []}
        lags = []
        for record, body in zip(opened, open_bodies):
            lags.append((record.sent - record.due) * 1e3)
            if body is not None:
                source = "cache" if body.get("served_from") == "cache" else "batch"
                by_source[source].append((record.done - record.due) * 1e3)
        closed_latency = float(
            np.mean([r.done - r.sent for r, b in zip(closed, closed_bodies) if b is not None])
        )
        handle = self._handle_in_process(traffic, seconds)
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        return {
            "service.handle_s": handle,
            "service.transport_s": closed_latency - handle,
            "service.cache_hit_ratio": cache_hits / len(served),
            "service.batch_rows_mean": float(np.mean(batched)) if batched else 0.0,
            "service.latency_p50_ms.cache": median(by_source["cache"]),
            "service.latency_p50_ms.batch": median(by_source["batch"]),
            "service.rejected": float(self.rejected),
            "loadgen.lag_ms": percentile(lags, 99.0),
            "engine.cache_hit_ratio": hits / max(1, hits + misses),
            # Transport is what no measured stage explains: the
            # in-process handle time is the only stage timed directly.
            "unattributed_fraction": (closed_latency - handle) / closed_latency,
        }

    def _handle_in_process(self, traffic: Traffic, seconds: float) -> float:
        """Mean ``CarbonQueryService.handle`` time over the same mix, in
        this process (the server is stopped by now).  Means, not medians,
        so that handle + transport adds up to the closed-loop latency."""
        service = CarbonQueryService(ServiceConfig())
        local = Traffic(op_seed(self.ctx.seed, 6), traffic.hot, traffic.unique)
        try:
            for body in traffic.hot.payloads:
                service.handle("POST", PATH, body)
            times = []
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                record = local.draw()
                if record is None:
                    break
                started = time.perf_counter()
                response = service.handle("POST", PATH, local.payload(record))
                times.append(time.perf_counter() - started)
                if response.status != 200 or response.payload["total_g"] != local.expected(record):
                    self.failed += 1
                    self.incorrect += 1
                self.attempted += 1
        finally:
            service.close()
        return float(np.mean(times))


WORKLOADS = {Serve.name: Serve}

"""Chaos tests: the service under backend failures, worker kills, SIGTERM.

The invariant under every injected fault: a request resolves to a
*correct* answer or an *explicit* rejection (429/503/504/5xx) — never a
silently wrong number.  ``LoadReport.incorrect`` is the counter that
must stay zero.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.analysis import ActScenario
from repro.engine.kernels import evaluate_batch
from repro.robustness.checkpoint import run_monte_carlo_chunked
from repro.robustness.faultinject import ProcessFault, ProcessFaultPlan
from repro.service import CarbonQueryService, ServiceConfig
from repro.service.batcher import single_row_batch

BASE = ActScenario()
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FlakyKernel:
    """Wraps ``evaluate_batch``; fails every call while ``broken`` is set."""

    def __init__(self):
        self.broken = threading.Event()
        self.calls = 0

    def __call__(self, batch):
        self.calls += 1
        if self.broken.is_set():
            raise RuntimeError("injected backend outage")
        return evaluate_batch(batch)


class TestFlakyBackend:
    def test_outage_trips_breaker_then_recovers(self, monkeypatch):
        """Mixed traffic across an injected outage: correct answers or
        explicit rejections throughout, breaker trips during the outage
        and recovers after it."""
        import repro.service.batcher as batcher_module

        kernel = FlakyKernel()
        monkeypatch.setattr(batcher_module, "evaluate_batch", kernel)
        svc = CarbonQueryService(
            ServiceConfig(
                max_wait_s=0.001,
                breaker_threshold=2,
                breaker_cooldown_s=0.05,
            )
        )
        try:
            hot = {"params": {"energy_kwh": 5.0}}
            cold = lambda i: {"params": {"energy_kwh": 1000.0 + i}}
            expected_hot = float(
                evaluate_batch(
                    single_row_batch(BASE.replace(energy_kwh=5.0))
                ).total_g[0]
            )
            # Warm the cache so degraded mode has something to serve.
            warm = svc.handle("POST", "/v1/footprint", json.dumps(hot).encode())
            assert warm.status == 200

            outcomes = {"ok": 0, "rejected": 0, "incorrect": 0, "other": 0}
            lock = threading.Lock()

            def traffic(thread_index):
                for step in range(30):
                    body = hot if step % 2 == 0 else cold(
                        thread_index * 100 + step
                    )
                    response = svc.handle(
                        "POST",
                        "/v1/footprint",
                        json.dumps(body).encode(),
                        f"chaos-{thread_index}",
                    )
                    with lock:
                        if response.status == 200:
                            if (
                                body is hot
                                and response.payload["total_g"]
                                != expected_hot
                            ):
                                outcomes["incorrect"] += 1
                            else:
                                outcomes["ok"] += 1
                        elif response.status in (429, 500, 503, 504):
                            outcomes["rejected"] += 1
                        else:
                            outcomes["other"] += 1
                    time.sleep(0.001)

            threads = [
                threading.Thread(target=traffic, args=(i,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.02)
            kernel.broken.set()  # outage begins mid-traffic
            time.sleep(0.08)
            kernel.broken.clear()  # backend heals
            for thread in threads:
                thread.join()

            assert outcomes["incorrect"] == 0
            assert outcomes["other"] == 0
            assert outcomes["ok"] > 0
            assert svc.breaker.trips >= 1

            # After the outage + cooldown, fresh queries succeed again
            # (the breaker may need one probe to close).
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                response = svc.handle(
                    "POST",
                    "/v1/footprint",
                    json.dumps(cold(999_999)).encode(),
                )
                if response.status == 200:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("service never recovered after the outage")
            assert svc.breaker.state == "closed"
        finally:
            svc.drain(5.0)

    def test_outage_serves_cached_queries_degraded(self, monkeypatch):
        import repro.service.batcher as batcher_module

        kernel = FlakyKernel()
        monkeypatch.setattr(batcher_module, "evaluate_batch", kernel)
        svc = CarbonQueryService(
            ServiceConfig(
                max_wait_s=0.001,
                breaker_threshold=1,
                breaker_cooldown_s=30.0,
            )
        )
        try:
            body = json.dumps({"params": {"energy_kwh": 2.5}}).encode()
            healthy = svc.handle("POST", "/v1/footprint", body)
            assert healthy.status == 200
            kernel.broken.set()
            # Trip the breaker with an uncached query.
            tripping = svc.handle(
                "POST",
                "/v1/footprint",
                json.dumps({"params": {"energy_kwh": 777.0}}).encode(),
            )
            assert tripping.status == 500
            assert svc.breaker.state == "open"
            # The cached query is still answered, flagged degraded, and
            # numerically identical to the healthy answer.
            degraded = svc.handle("POST", "/v1/footprint", body)
            assert degraded.status == 200
            assert degraded.payload["degraded"] is True
            assert degraded.payload["total_g"] == healthy.payload["total_g"]
            # The uncached query is an explicit 503, not a wrong number.
            missing = svc.handle(
                "POST",
                "/v1/footprint",
                json.dumps({"params": {"energy_kwh": 888.0}}).encode(),
            )
            assert missing.status == 503
        finally:
            svc.drain(5.0)


class TestWorkerKill:
    def test_killed_worker_mid_montecarlo_is_retried_bit_identically(
        self, tmp_path
    ):
        """SIGKILL a parallel worker mid-run through the service: the
        retry policy re-executes the lost shard and the response matches
        the fault-free run exactly."""
        plan = ProcessFaultPlan.create(
            tmp_path / "faults", [ProcessFault("kill", shard=1, times=1)]
        )
        svc = CarbonQueryService(
            ServiceConfig(mc_chunk_rows=128, max_deadline_s=120.0),
            fault_plan=plan,
        )
        try:
            body = json.dumps(
                {
                    "draws": 1024,
                    "seed": 11,
                    "workers": 2,
                    "deadline_ms": 110_000,
                }
            ).encode()
            response = svc.handle("POST", "/v1/montecarlo", body)
            assert response.status == 200
            assert plan.remaining(0) == 0, "the kill must actually have fired"
            reference = run_monte_carlo_chunked(
                BASE, draws=1024, seed=11, chunk_rows=128, policy=1
            )
            assert response.payload["mean_g"] == reference.mean
            assert response.payload["std_g"] == reference.std
        finally:
            svc.drain(5.0)


class TestSigterm:
    def _spawn(self, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--max-wait-ms",
                "1",
                *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        line = proc.stdout.readline()
        match = re.search(r":(\d+)\s*$", line)
        if match is None:
            proc.kill()
            pytest.fail(f"no bound-port line, got {line!r}")
        return proc, int(match.group(1))

    def test_port_zero_prints_bound_port_and_serves(self):
        import http.client

        proc, port = self._spawn()
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            conn.request("GET", "/healthz")
            assert conn.getresponse().status == 200
            conn.close()
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0

    def test_sigterm_mid_load_drains_cleanly(self):
        """SIGTERM while traffic is in flight: exit code 0, every issued
        request accounted for, zero incorrect answers."""
        from repro.service.loadgen import run_load

        proc, port = self._spawn()
        report_holder = {}

        def load():
            report_holder["report"] = run_load(
                "127.0.0.1",
                port,
                clients=8,
                requests_per_client=40,
                timeout_s=15.0,
            )

        thread = threading.Thread(target=load)
        thread.start()
        time.sleep(0.3)  # let traffic build up
        proc.send_signal(signal.SIGTERM)
        exit_code = proc.wait(timeout=30)
        thread.join(timeout=30)
        stderr = proc.stderr.read()
        report = report_holder["report"]
        assert exit_code == 0, stderr
        assert "drain complete" in stderr
        assert report.incorrect == 0
        assert report.accounted == report.requests
        assert report.completed > 0

"""Workload ``service_roundtrip``: one closed-loop client against a real
``repro serve`` + ``repro worker --watch`` pair.

The server and one daemon run as subprocesses with their default poll
settings, on a fresh queue and store.  The client submits a seeded
20-point ``table_density`` sweep, waits for it, fetches the result and
checks its content hash against the same sweep run in process, then
submits the next; it polls the job's status from 50 ms on.  ``pass_s`` is
the median job round trip.  It is not adjusted for host speed: the round
trip is mostly the daemon's poll sleeps, not computation.  One job in four
repeats a grid submitted earlier in the run, so the daemon serves its
points from its store.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from typing import Any

from . import common
from .layers import TARGETS, layer_report
from .tracer import Recorder, instrument

EXPERIMENT = "table_density"
POINTS_PER_JOB = 20
REPEAT_EVERY = 4  # every fourth job repeats an earlier grid
START_TIMEOUT = 60.0
# The client's first status poll comes after 50 ms (its default is 200 ms),
# so the round trip shows the server and daemon side rather than the
# client's own back-off.
CLIENT_POLL_S = 0.05


@dataclass
class Service:
    server: subprocess.Popen
    worker: subprocess.Popen
    url: str
    directory: str
    logs: list

    def peak_rss_mb(self) -> float:
        return common.proc_peak_rss_mb(self.server.pid) + common.proc_peak_rss_mb(self.worker.pid)

    def stop(self) -> None:
        for process in (self.worker, self.server):
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        for process in (self.worker, self.server):
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=15)
        for handle in self.logs:
            handle.close()
        common.remove_tree(self.directory)


def _read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as handle:
        return handle.read()


def _healthy(url: str) -> bool:
    try:
        with urllib.request.urlopen(f"{url}/health", timeout=2.0) as response:
            return response.status == 200
    except OSError:
        return False


def start_service() -> tuple[Service, float]:
    """Start server + daemon on a fresh queue; returns it and its set-up time.

    Set-up ends when the server answers ``/health`` and the daemon has
    reported that it is watching the queue.
    """
    directory = common.scratch_dir("service-")
    queue = os.path.join(directory, "queue")
    server_log = os.path.join(directory, "server.log")
    worker_log = os.path.join(directory, "worker.log")
    logs = [open(server_log, "w"), open(worker_log, "w")]
    start = time.perf_counter()
    command = [sys.executable, "-m", "repro"]
    server = subprocess.Popen(
        [*command, "serve", queue, "--port", "0"],
        cwd=common.ROOT, env=common.child_env(),
        stdout=subprocess.DEVNULL, stderr=logs[0],
    )
    worker = subprocess.Popen(
        [*command, "worker", "--watch", queue],
        cwd=common.ROOT, env=common.child_env(),
        stdout=subprocess.DEVNULL, stderr=logs[1],
    )
    service = Service(server, worker, "", directory, logs)
    try:
        url = None
        watching = False
        while True:
            if url is None:
                match = re.search(r" at (http://\S+)", _read(server_log))
                url = match.group(1) if match else None
            watching = watching or "watching" in _read(worker_log)
            if url is not None and watching and _healthy(url):
                break
            if server.poll() is not None or worker.poll() is not None:
                raise RuntimeError(
                    "service exited during start-up:\n"
                    + _read(server_log)[-2000:] + _read(worker_log)[-2000:]
                )
            if time.perf_counter() - start > START_TIMEOUT:
                raise RuntimeError("service did not start within %.0f s" % START_TIMEOUT)
            time.sleep(0.005)
    except BaseException:
        service.stop()
        raise
    service.url = url
    return service, time.perf_counter() - start


class JobStream:
    """The seeded job sequence: new grids, with every fourth an earlier one."""

    def __init__(self, seed: int, points: int = POINTS_PER_JOB) -> None:
        self._rng = random.Random(seed)
        self._points = points
        self._history: list[Any] = []

    def next(self) -> Any:
        """The next job's :class:`~repro.api.SweepSpec`."""
        from repro.api import SweepSpec

        if self._history and (len(self._history) + 1) % REPEAT_EVERY == 0:
            sweep = self._rng.choice(self._history)
        else:
            values = sorted(round(self._rng.uniform(0.1, 1000.0), 6) for _ in range(self._points))
            sweep = SweepSpec.grid(length_um=values)
        self._history.append(sweep)
        return sweep


def _run_job(client, sweep, outcome, samples, recorder=None) -> None:
    """Submit, wait for and fetch one job; appends its timing sample."""
    outcome.attempted += 1
    polls_before = client.polls
    start = time.perf_counter()
    try:
        if recorder is None:
            sample = _round_trip(client, sweep)
        else:
            with recorder.span("bench.job", experiment=EXPERIMENT):
                sample = _round_trip(client, sweep)
    except Exception as exc:
        outcome.fail(f"job: {type(exc).__name__}: {exc}")
        return
    sample["latency_s"] = time.perf_counter() - start
    sample["polls"] = client.polls - polls_before
    sample["sweep"] = sweep
    samples.append(sample)


def _round_trip(client, sweep) -> dict[str, Any]:
    t0 = time.perf_counter()
    job_id = client.submit_sweep(EXPERIMENT, sweep)
    t1 = time.perf_counter()
    status = client.wait(job_id, timeout=120, poll_interval=CLIENT_POLL_S)
    noticed = time.time()
    t2 = time.perf_counter()
    result = client.fetch_results(job_id)
    t3 = time.perf_counter()
    completed = float(status["completed_at"])
    execute = float(status["wall_time_s"])
    return {
        "submit_s": t1 - t0,
        "fetch_s": t3 - t2,
        "execute_s": execute,
        "queue_wait_s": completed - execute - float(status["submitted_at"]),
        "notice_lag_s": noticed - completed,
        "content_hash": result.content_hash,
    }


def check_results(samples, outcome) -> None:
    """Each fetched result must hash like the same sweep run in process."""
    from repro.api import Engine

    engine = Engine()
    for sample in samples:
        if sample["content_hash"] != engine.sweep(EXPERIMENT, sample["sweep"]).content_hash:
            outcome.fail("fetched result's content hash differs from the in-process sweep")


def _client(url: str):
    """A service client counting its status polls (``client.polls``)."""
    from repro.service import ServiceClient

    class CountingClient(ServiceClient):
        polls = 0

        def status(self, job_id: str) -> dict[str, Any]:
            self.polls += 1
            return super().status(job_id)

    return CountingClient(url)


def http_metrics(url: str) -> dict[str, float]:
    """Request count and median request latency from the server's ``/metrics``."""
    with urllib.request.urlopen(f"{url}/metrics", timeout=10) as response:
        text = response.read().decode()
    requests = 0.0
    buckets: dict[float, float] = {}
    for line in text.splitlines():
        if line.startswith("repro_http_requests_total"):
            requests += float(line.rsplit(" ", 1)[1])
        elif line.startswith("repro_http_request_seconds_bucket"):
            edge = re.search(r'le="([^"]+)"', line).group(1)
            bound = float("inf") if edge == "+Inf" else float(edge)
            buckets[bound] = buckets.get(bound, 0.0) + float(line.rsplit(" ", 1)[1])
    return {"service.http.requests": requests, "service.http.p50_ms": _bucket_median(buckets) * 1e3}


def _bucket_median(cumulative: dict[float, float]) -> float:
    """Median from cumulative histogram buckets, interpolated within a bucket."""
    edges = sorted(cumulative)
    if not edges or cumulative[edges[-1]] == 0:
        return 0.0
    half = cumulative[edges[-1]] / 2.0
    lower_edge, lower_count = 0.0, 0.0
    for edge in edges:
        count = cumulative[edge]
        if count >= half:
            if edge == float("inf"):
                return lower_edge
            return lower_edge + (edge - lower_edge) * (half - lower_count) / (count - lower_count)
        lower_edge, lower_count = edge, count
    return lower_edge


def run(
    seed: int,
    seconds: float,
    trace: bool,
    points: int = POINTS_PER_JOB,
    setup_repeats: int = 3,
    spans_path: str | None = None,
) -> common.Outcome:
    outcome = common.Outcome()
    setups = []
    for _ in range(setup_repeats - 1):
        service, elapsed = start_service()
        service.stop()
        setups.append(elapsed)
    service, elapsed = start_service()
    setups.append(elapsed)
    try:
        stream = JobStream(seed, points)
        client = _client(service.url)
        warmup: list[dict[str, Any]] = []
        _run_job(client, stream.next(), outcome, warmup)  # the daemon's first-job imports
        samples: list[dict[str, Any]] = []
        budget = seconds / 2 if trace else seconds
        started = time.perf_counter()
        jobs = 0
        while not jobs or time.perf_counter() - started < budget:
            _run_job(client, stream.next(), outcome, samples)
            jobs += 1
        latencies = [sample["latency_s"] for sample in samples] or [float("nan")]
        outcome.end_to_end = {
            "setup_s": common.median(setups),
            "pass_s": common.median(latencies),
            "peak_rss_mb": service.peak_rss_mb(),
        }
        if not trace:
            check_results(warmup + samples, outcome)
            return outcome

        # The traced half runs as many jobs again, continuing the stream,
        # so the daemon's idle back-off sees the same gaps between jobs.
        layer = http_metrics(service.url)
        traced_samples: list[dict[str, Any]] = []
        recorder = Recorder()
        swaps = instrument(recorder, TARGETS)
        try:
            for _ in samples:
                _run_job(client, stream.next(), outcome, traced_samples, recorder)
        finally:
            swaps.restore()
    finally:
        service.stop()
    check_results(warmup + samples + traced_samples, outcome)
    traced_wall = sum(sample["latency_s"] for sample in traced_samples)

    spans = recorder.to_dicts(epoch=False)
    layer.update(layer_report(spans, traced_wall))
    layer["obs.trace_overhead_ratio"] = traced_wall / sum(latencies)
    for key in ("submit_s", "queue_wait_s", "execute_s", "notice_lag_s", "fetch_s"):
        layer[f"service.{key}"] = common.median([sample[key] for sample in samples])
    layer["pass_wall_s"] = outcome.end_to_end["pass_s"]
    layer["host.loop_ms"] = common.time_loop() * 1e3
    layer["service.polls_per_job"] = sum(s["polls"] for s in samples) / max(len(samples), 1)
    layer["service.jobs"] = float(len(samples))
    layer["job_p50_s"] = common.median(latencies)
    layer["job_p90_s"] = common.percentile(latencies, 90)
    tail = common.tail_percentile(len(latencies))
    layer["job_tail_pct"] = tail or 0.0
    layer["job_tail_s"] = common.percentile(latencies, tail) if tail else 0.0
    layer["jobs_per_s"] = len(latencies) / sum(latencies)
    layer["failed_ratio"] = outcome.failed_ratio
    if spans_path is not None:
        recorder.write_jsonl(spans_path)
    outcome.per_layer = layer
    return outcome

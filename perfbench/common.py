"""Shared pieces of the benchmark: statistics, metric names, environment,
set-up timing, and the result record every workload returns."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """Letters, digits, ``_``, ``.`` and ``-``; starts alphanumeric; <= 64."""
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def tail_percentile(n: int, beyond: int = 10) -> float | None:
    """Highest percentile (0-100, whole number) with >= ``beyond`` samples above it.

    A percentile q is reported only when ``n * (1 - q/100) >= beyond``;
    ``None`` when even the median lacks that many samples past it.
    """
    if n <= 0:
        return None
    for q in range(99, 49, -1):
        if n * (100 - q) >= beyond * 100:
            return float(q)
    return None


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (q in 0-100) of a non-empty sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


# --- host speed --------------------------------------------------------------

# The CPU speed of a shared host drifts by up to a third over tens of
# seconds, which swamps most program changes in a raw wall time.  So while
# a CPU-bound workload runs, a thread times a fixed pure-Python loop every
# SAMPLE_PERIOD_S, and each unit of work's wall time is scaled by
# REFERENCE_LOOP_S over the loop's mean time during that unit: the result
# estimates the unit's wall time on a host where the loop takes
# REFERENCE_LOOP_S (the 2-CPU host the benchmark was defined on).  The loop
# is short enough (about 1 ms) to run within one interpreter switch
# interval, so it does not wait for the main thread mid-measurement.
LOOP_ITERATIONS = 12000
REFERENCE_LOOP_S = 1.0e-3
SAMPLE_PERIOD_S = 0.1


def time_loop() -> float:
    """Seconds the calibration loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class SpeedSampler:
    """Samples :func:`time_loop` from a daemon thread while it is entered."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, loop seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            elapsed = time_loop()
            self.samples.append((time.perf_counter(), elapsed))

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Reference over measured speed during ``[start, end]`` (perf_counter).

        A wall time in that interval times this factor estimates it at the
        reference speed.  Uses the samples within two sampling periods of
        the interval, so even a unit shorter than a period has some.
        """
        window = [
            elapsed
            for at, elapsed in list(self.samples)
            if start - 2 * SAMPLE_PERIOD_S <= at <= end + 2 * SAMPLE_PERIOD_S
        ]
        if not window:
            window = [time_loop()]
        return REFERENCE_LOOP_S * len(window) / sum(window)

    def loop_ms(self) -> float:
        """Median loop time over every sample so far, in ms."""
        return median([elapsed for _, elapsed in self.samples] or [time_loop()]) * 1e3


# --- environment -----------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, via its own C entry point."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = [line.split()[-1] for line in handle if len(line.split()) >= 6]
        libraries = {path for path in paths if "openblas" in path.lower() and ".so" in path}
    except OSError:
        return None
    for path in sorted(libraries):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def environment(load_start: Sequence[float]) -> dict[str, Any]:
    """Record of the host a run measured on, so a noisy run can be spotted."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
    }


# --- processes and scratch space -------------------------------------------


def child_env() -> dict[str, str]:
    """Environment for benchmark subprocesses: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_setups(snippet: str, repeats: int, *args: str) -> list[float]:
    """Run a set-up snippet in ``repeats`` fresh interpreters.

    The snippet measures itself and prints its elapsed seconds as the last
    line of stdout; interpreter start-up is outside the measurement.
    ``args`` reach the snippet as ``sys.argv[1:]``.
    """
    times = []
    for _ in range(repeats):
        completed = subprocess.run(
            [sys.executable, "-c", snippet, *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"set-up failed: {completed.stderr.strip()[-2000:]}")
        times.append(float(completed.stdout.strip().splitlines()[-1]))
    return times


def scratch_dir(prefix: str) -> str:
    """A fresh directory inside the checkout (the benchmark writes nowhere else)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR)


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process in MB (VmHWM)."""
    return proc_peak_rss_mb(os.getpid())


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# --- results ---------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run measured.

    ``end_to_end`` holds the untraced numbers every run reports;
    ``per_layer`` the traced-mode numbers.  ``errors`` lists each failed or
    mismatching operation (they count in ``failed``).
    """

    attempted: int = 0
    failed: int = 0
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def load_benchmark_spec() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def metric_units(section: str) -> dict[str, str]:
    """``name -> unit`` for one section of ``BENCHMARK.json``."""
    return {entry["name"]: entry["unit"] for entry in load_benchmark_spec()[section]}

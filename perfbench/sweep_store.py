"""Workload ``sweep_store``: seeded grids of cheap compact-model points run
through the serial engine into fresh result stores, cold and then warm.

A pass runs every grid of the seeded set twice over: cold into a fresh
directory store and replayed warm from it, then the same into a fresh
``sqlite:///`` store.  Half the grids sweep ``table_density`` (4 records
a point), half ``fig9`` (85 records a point).  Each cold run and each warm
replay must have the content hash of a no-cache serial run of the grid.
``pass_s`` is the median over passes of the pass's wall time adjusted to
the reference host speed (see ``common.SpeedSampler``).
"""

from __future__ import annotations

import os
import random
import time
from typing import Any

from . import common
from .layers import TARGETS, cache_metrics, layer_report
from .tracer import Recorder, instrument

SETUP = """
import os, sys, time
t0 = time.perf_counter()
from repro.api import Engine, ensure_registered
ensure_registered()
Engine(store=os.path.join(sys.argv[1], "dir"))
Engine(store="sqlite:///" + os.path.join(sys.argv[1], "store.db"))
print(time.perf_counter() - t0)
"""

N_GRIDS = 6
TABLE_POINTS = 40
FIG9_POINTS = 8


def make_grids(seed: int, n_grids: int = N_GRIDS, scale: float = 1.0) -> list[tuple[str, Any]]:
    """The seeded grid set: ``(experiment, SweepSpec)`` pairs."""
    from repro.api import SweepSpec

    rng = random.Random(seed)
    grids = []
    for index in range(n_grids):
        if index % 2 == 0:
            n = max(1, round(TABLE_POINTS * scale))
            values = sorted(round(rng.uniform(0.1, 1000.0), 6) for _ in range(n))
            grids.append(("table_density", SweepSpec.grid(length_um=values)))
        else:
            n = max(1, round(FIG9_POINTS * scale))
            values = sorted(round(rng.uniform(0.6, 3.0), 6) for _ in range(n))
            grids.append(("fig9", SweepSpec.grid(swcnt_diameter_nm=values)))
    return grids


def _setups(repeats: int) -> list[float]:
    """Set-up times, each opening fresh stores in its own scratch directory."""
    times = []
    for _ in range(repeats):
        directory = common.scratch_dir("setup-")
        try:
            times.extend(common.timed_setups(SETUP, 1, directory))
        finally:
            common.remove_tree(directory)
    return times


def _one_pass(grids, expected, outcome, engines, recorder=None) -> dict[str, float]:
    """Cold then warm through each store; returns the pass's timings."""
    from repro.api import Engine

    totals = {"cold_s": 0.0, "warm_s": 0.0, "cold_points": 0, "warm_points": 0}
    directory = common.scratch_dir("pass-")
    try:
        for backend, spec in (
            ("dir", os.path.join(directory, "dir")),
            ("sqlite", "sqlite:///" + os.path.join(directory, "store.db")),
        ):
            engine = Engine(store=spec, executor="serial")
            engines.append(engine)
            for index, (name, sweep) in enumerate(grids):
                for phase in ("cold", "warm"):
                    outcome.attempted += 1
                    start = time.perf_counter()
                    try:
                        if recorder is None:
                            result = engine.sweep(name, sweep)
                        else:
                            with recorder.span(f"bench.{phase}", backend=backend, experiment=name):
                                result = engine.sweep(name, sweep)
                    except Exception as exc:
                        outcome.fail(f"{backend} {phase} grid {index}: {type(exc).__name__}: {exc}")
                        continue
                    totals[f"{phase}_s"] += time.perf_counter() - start
                    totals[f"{phase}_points"] += len(sweep)
                    if result.content_hash != expected[index]:
                        outcome.fail(f"{backend} {phase} grid {index} ({name}): content hash differs")
    finally:
        common.remove_tree(directory)
    return totals


def run(
    seed: int,
    seconds: float,
    trace: bool,
    n_grids: int = N_GRIDS,
    scale: float = 1.0,
    setup_repeats: int = 3,
    spans_path: str | None = None,
) -> common.Outcome:
    from repro.api import Engine

    outcome = common.Outcome()
    setups = _setups(setup_repeats)
    grids = make_grids(seed, n_grids, scale)
    reference = Engine()
    expected = [reference.sweep(name, sweep).content_hash for name, sweep in grids]

    engines: list[Any] = []
    _one_pass(grids, expected, common.Outcome(), engines)  # warm-up: lazy imports, first-call costs
    engines.clear()
    passes, traced = [], []
    recorder = Recorder()
    with common.SpeedSampler() as sampler:
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < seconds:
            start = time.perf_counter()
            timings = _one_pass(grids, expected, outcome, [])
            timings["window"] = (start, time.perf_counter())
            passes.append(timings)
            if trace:
                # Traced and untraced passes alternate, so both see the same machine.
                swaps = instrument(recorder, TARGETS)
                try:
                    traced.append(_one_pass(grids, expected, outcome, engines, recorder))
                finally:
                    swaps.restore()
    adjusted = [(p["cold_s"] + p["warm_s"]) * sampler.factor(*p["window"]) for p in passes]

    outcome.end_to_end = {
        "setup_s": common.median(setups),
        "pass_s": common.median(adjusted),
        "peak_rss_mb": common.self_peak_rss_mb(),
    }
    if not trace:
        return outcome

    traced_wall = sum(p["cold_s"] + p["warm_s"] for p in traced)
    spans = recorder.to_dicts(epoch=False)
    layer = layer_report(spans, traced_wall)
    layer["obs.trace_overhead_ratio"] = traced_wall / sum(p["cold_s"] + p["warm_s"] for p in passes)
    layer["pass_wall_s"] = common.median([p["cold_s"] + p["warm_s"] for p in passes])
    layer["host.loop_ms"] = sampler.loop_ms()
    layer["cold_point_ms"] = common.median([p["cold_s"] / p["cold_points"] * 1e3 for p in passes])
    layer["warm_point_ms"] = common.median([p["warm_s"] / p["warm_points"] * 1e3 for p in passes])
    layer.update(
        cache_metrics(
            layer,
            sum(engine.cache_hits for engine in engines),
            sum(engine.cache_misses for engine in engines),
        )
    )
    layer["failed_ratio"] = outcome.failed_ratio
    if spans_path is not None:
        recorder.write_jsonl(spans_path)
    outcome.per_layer = layer
    return outcome

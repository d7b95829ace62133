"""Workload ``paper_defaults``: every registered experiment and study at its
default parameters, serially, with the cache off.

One pass runs all of them once, in an order the seed permutes; a run makes
whole passes until ``--seconds`` have gone by (at least one).  ``pass_s``
is the pass's wall time adjusted to the reference host speed, item by item
(see ``common.SpeedSampler``).  Every result is compared with the reference
records in ``reference/``.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from . import common
from .layers import TARGETS, cache_metrics, layer_report
from .tracer import Recorder, instrument

REFERENCE = os.path.join(common.HERE, "reference", "paper_defaults.json")

# Relative tolerance of the record comparison, scaled per column by its
# largest magnitude: loose enough for solver drift at the 1e-11 level,
# tight enough that any change of model or parameters shows.
REL_TOL = 1e-7

SETUP = """
import time
t0 = time.perf_counter()
from repro.api import Engine, ensure_registered, list_experiments, list_studies
ensure_registered()
list_experiments(); list_studies()
Engine()
print(time.perf_counter() - t0)
"""


def items(only: Sequence[str] | None = None) -> list[tuple[str, str]]:
    """``(kind, name)`` of every registered experiment and study."""
    from repro.api import list_experiments, list_studies

    found = [("experiment", e.name) for e in list_experiments()]
    found += [("study", s.name) for s in list_studies()]
    if only is not None:
        found = [item for item in found if item[1] in only]
    return found


def run_item(engine: Any, kind: str, name: str) -> Any:
    if kind == "study":
        return engine.run_study(name)
    return engine.run(name)


def load_reference() -> dict[str, Any]:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def _numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_records(
    actual: Sequence[dict[str, Any]], expected: Sequence[dict[str, Any]], rel_tol: float = REL_TOL
) -> str | None:
    """``None`` when the records agree, else a one-line reason."""
    if len(actual) != len(expected):
        return f"{len(actual)} records, expected {len(expected)}"
    scale: dict[str, float] = {}
    for record in expected:
        for key, value in record.items():
            if _numeric(value) and value == value:
                scale[key] = max(scale.get(key, 0.0), abs(float(value)))
    for index, (got, want) in enumerate(zip(actual, expected)):
        if set(got) != set(want):
            return f"record {index}: columns {sorted(got)} != {sorted(want)}"
        for key, value in want.items():
            other = got[key]
            if _numeric(value) and _numeric(other):
                a, b = float(other), float(value)
                if a != a or b != b:
                    if (a != a) != (b != b):
                        return f"record {index} {key}: {other!r} != {value!r}"
                    continue
                if abs(a - b) > rel_tol * max(abs(a), abs(b), scale.get(key, 0.0)):
                    return f"record {index} {key}: {other!r} != {value!r}"
            elif isinstance(value, list) and isinstance(other, list):
                reason = compare_records(
                    [{"v": x} for x in other], [{"v": x} for x in value], rel_tol
                )
                if reason is not None:
                    return f"record {index} {key}: {reason}"
            elif other != value:
                return f"record {index} {key}: {other!r} != {value!r}"
    return None


def check(name: str, result: Any, reference: dict[str, Any]) -> str | None:
    expected = reference.get(name)
    if expected is None:
        return f"{name}: no reference records"
    if result.content_hash == expected["content_hash"]:
        return None
    # JSON round trip, so tuples and floats compare as the reference stored them.
    records = json.loads(json.dumps(result.to_records(), default=str))
    reason = compare_records(records, expected["records"])
    return None if reason is None else f"{name}: {reason}"


@dataclass
class Pass:
    """One pass's timings: wall time and ``(start, end)`` of every item."""

    wall: float = 0.0
    windows: dict[str, tuple[float, float]] = field(default_factory=dict)

    def item_wall(self, name: str) -> float:
        start, end = self.windows.get(name, (0.0, 0.0))
        return end - start


def _one_pass(engine, order, reference, outcome, recorder=None) -> Pass:
    timings = Pass()
    for kind, name in order:
        outcome.attempted += 1
        result, error = None, None
        start = time.perf_counter()
        try:
            if recorder is None:
                result = run_item(engine, kind, name)
            else:
                with recorder.span(f"bench.{kind}", name=name):
                    result = run_item(engine, kind, name)
        except Exception as exc:  # a failed experiment is a counted failure
            error = f"{name}: {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        timings.windows[name] = (start, end)
        timings.wall += end - start
        if error is None:
            error = check(name, result, reference)
        if error is not None:
            outcome.fail(error)
    return timings


def run(
    seed: int,
    seconds: float,
    trace: bool,
    only: Sequence[str] | None = None,
    setup_repeats: int = 3,
    spans_path: str | None = None,
) -> common.Outcome:
    from repro.api import Engine

    outcome = common.Outcome()
    setups = common.timed_setups(SETUP, setup_repeats)
    reference = load_reference()
    work = items(only)
    rng = random.Random(seed)
    engine = Engine()

    passes: list[Pass] = []
    with common.SpeedSampler() as sampler:
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < seconds:
            order = rng.sample(work, len(work))
            passes.append(_one_pass(engine, order, reference, outcome))
            if trace:
                break  # the traced mode compares one untraced pass with one traced pass
    adjusted = [
        sum((end - start) * sampler.factor(start, end) for start, end in p.windows.values())
        for p in passes
    ]

    outcome.end_to_end = {
        "setup_s": common.median(setups),
        "pass_s": common.median(adjusted),
        "peak_rss_mb": common.self_peak_rss_mb(),
    }
    if not trace:
        return outcome

    hits, misses = engine.cache_hits, engine.cache_misses
    recorder = Recorder()
    swaps = instrument(recorder, TARGETS)
    try:
        traced_wall = _one_pass(engine, order, reference, outcome, recorder).wall
    finally:
        swaps.restore()
    spans = recorder.to_dicts(epoch=False)
    layer = layer_report(spans, traced_wall)
    layer["obs.trace_overhead_ratio"] = traced_wall / passes[-1].wall
    layer["pass_wall_s"] = common.median([p.wall for p in passes])
    layer["host.loop_ms"] = sampler.loop_ms()
    for kind, name in items():
        layer[f"analysis.{name}.wall_s"] = common.median([p.item_wall(name) for p in passes])
    layer["fig12_s"] = common.median([p.item_wall("fig12") for p in passes])
    layer.update(cache_metrics(layer, engine.cache_hits - hits, engine.cache_misses - misses))
    layer["failed_ratio"] = outcome.failed_ratio
    if spans_path is not None:
        recorder.write_jsonl(spans_path)
    outcome.per_layer = layer
    return outcome

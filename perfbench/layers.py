"""The layer taxonomy: which public functions are timed, and the report.

Each layer is a subpackage of ``repro``; a span's layer is the first part
of its name.  ``bench.*`` spans are the benchmark's own units of work;
their self time is the traced wall not attributed to any layer.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

from .tracer import Target, layer_of, outermost, self_times

LAYERS = ("circuit", "atomistic", "tcad", "analysis", "api", "dist", "service")


def _experiment_attrs(experiment: Any, *args: Any, **kwargs: Any) -> dict[str, Any]:
    return {"experiment": experiment.name}


def _laplace_attrs(grid: Any, *args: Any, **kwargs: Any) -> dict[str, Any]:
    mask = kwargs.get("domain_mask", args[2] if len(args) > 2 else None)
    unknowns = int(mask.sum()) if mask is not None else math.prod(grid.shape)
    return {"unknowns": unknowns}


TARGETS = (
    # circuit: delay measurement -> transient -> Newton -> assembly
    Target("repro.circuit.delay", "measure_inverter_line_delay", "circuit.delay"),
    Target("repro.circuit.delay", "measure_inverter_line_delay_batch", "circuit.delay"),
    Target("repro.circuit.transient", "transient_analysis", "circuit.transient"),
    Target("repro.circuit.batched", "batched_transient_analysis", "circuit.transient"),
    Target("repro.circuit.mna", "newton_solve", "circuit.newton"),
    Target("repro.circuit.compiled:CompiledMNA", "solve_step", "circuit.newton"),
    Target("repro.circuit.mna:MNAAssembler", "assemble", "circuit.assemble"),
    Target("repro.circuit.compiled:CompiledMNA", "assemble", "circuit.assemble"),
    # atomistic
    Target("repro.atomistic.transmission", "thermally_averaged_transmission", "atomistic.transmission"),
    Target("repro.atomistic.transmission", "transmission_function", "atomistic.transmission"),
    Target("repro.atomistic.bandstructure", "compute_band_structure", "atomistic.bandstructure"),
    # tcad: extraction -> field solve
    Target("repro.tcad.capacitance", "capacitance_matrix", "tcad.extract"),
    Target("repro.tcad.resistance", "extract_resistance", "tcad.extract"),
    Target("repro.tcad.laplace", "solve_laplace", "tcad.laplace", _laplace_attrs),
    # analysis: the experiment bodies
    Target("repro.api.experiment:Experiment", "run_with_inputs", "analysis.run", _experiment_attrs),
    Target("repro.api.experiment:Experiment", "run_batch", "analysis.run", _experiment_attrs),
    # api: engine dispatch and cache keys
    Target("repro.api.engine:Engine", "run", "api.engine"),
    Target("repro.api.engine:Engine", "run_study", "api.engine"),
    Target("repro.api.engine:Engine", "sweep", "api.engine"),
    Target("repro.api.engine", "cache_key", "api.cache_key"),
    # dist: store publish/load
    Target("repro.dist.store:SharedStore", "publish", "dist.dir.publish"),
    Target("repro.dist.store:ResultStore", "load", "dist.dir.load"),
    Target("repro.dist.sqlstore:SqliteStore", "publish", "dist.sqlite.publish"),
    Target("repro.dist.sqlstore:SqliteStore", "load", "dist.sqlite.load"),
    # service: the client's HTTP calls
    Target("repro.service.client:ServiceClient", "submit_sweep", "service.submit"),
    Target("repro.service.client:ServiceClient", "status", "service.status"),
    Target("repro.service.client:ServiceClient", "wait", "service.wait"),
    Target("repro.service.client:ServiceClient", "fetch_results", "service.fetch"),
)

# Span names whose calls are counted.
CALLS = (
    "circuit.delay",
    "circuit.transient",
    "circuit.newton",
    "circuit.assemble",
    "atomistic.transmission",
    "atomistic.bandstructure",
    "tcad.laplace",
    "api.cache_key",
    "dist.dir.publish",
    "dist.dir.load",
    "dist.sqlite.publish",
    "dist.sqlite.load",
)
BUSY = (
    "circuit.transient",
    "atomistic.transmission",
    "atomistic.bandstructure",
    "tcad.laplace",
    "api.cache_key",
    "dist.dir.publish",
    "dist.dir.load",
    "dist.sqlite.publish",
    "dist.sqlite.load",
)
SELF = ("circuit.assemble", "api.engine")


def layer_report(spans: Sequence[Mapping[str, Any]], traced_wall: float) -> dict[str, float]:
    """Per-layer counts, busy and self times, and shares of the traced wall.

    ``unattributed_s`` is the traced wall minus every layer's self time, so
    the layer self times and it add up to ``traced_wall_s`` exactly.
    """
    own = self_times(spans)
    metrics: dict[str, float] = {"obs.spans": float(len(spans)), "traced_wall_s": traced_wall}
    for name in CALLS:
        metrics[f"{name}.calls"] = float(sum(1 for span in spans if span["name"] == name))
    for name in BUSY:
        metrics[f"{name}.busy_s"] = sum(spans[i]["wall_s"] for i in outermost(spans, {name}))
    for name in SELF:
        metrics[f"{name}.self_s"] = sum(t for span, t in zip(spans, own) if span["name"] == name)
    metrics["tcad.laplace.unknowns"] = float(
        sum(span["attrs"].get("unknowns", 0) for span in spans if span["name"] == "tcad.laplace")
    )
    attributed = 0.0
    for layer in LAYERS:
        total = sum(t for span, t in zip(spans, own) if layer_of(span["name"]) == layer)
        metrics[f"{layer}.self_s"] = total
        metrics[f"{layer}.share"] = total / traced_wall if traced_wall > 0 else 0.0
        attributed += total
    metrics["unattributed_s"] = traced_wall - attributed
    return metrics


def cache_metrics(layer: Mapping[str, float], hits: int, misses: int) -> dict[str, float]:
    """Engine cache counters of the traced phase, and engine self time per point."""
    points = hits + misses
    return {
        "api.cache.hits": float(hits),
        "api.cache.misses": float(misses),
        "api.cache.hit_ratio": hits / points if points else 0.0,
        "api.engine.us_per_point": layer["api.engine.self_s"] / points * 1e6 if points else 0.0,
    }


def render(metrics: Mapping[str, float], units: Mapping[str, str]) -> str:
    """A two-column text table of metrics with their units."""
    width = max((len(name) for name in metrics), default=10)
    lines = []
    for name in sorted(metrics):
        value = metrics[name]
        lines.append(f"  {name:<{width}}  {value:>14.6g}  {units.get(name, '')}")
    return "\n".join(lines)

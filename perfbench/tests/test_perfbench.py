"""Tests of the benchmark's own code: span arithmetic, naming and
percentile rules, failure accounting, and tiny runs of each workload.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import common, layers, paper_defaults, service_roundtrip, sweep_store  # noqa: E402
from perfbench import run as bench_run  # noqa: E402
from perfbench.tracer import Recorder, Target, instrument, outermost, self_times  # noqa: E402


def span(span_id, parent, start, wall, name="x.op"):
    return {"name": name, "span_id": span_id, "parent_id": parent, "t_start": start,
            "wall_s": wall, "attrs": {}}


# --- self-time arithmetic --------------------------------------------------


def test_self_time_nested_spans():
    spans = [
        span("a", None, 0.0, 10.0),
        span("b", "a", 1.0, 2.0),
        span("d", "b", 1.5, 0.5),
    ]
    assert self_times(spans) == pytest.approx([8.0, 1.5, 0.5])


def test_self_time_back_to_back_children():
    spans = [
        span("a", None, 0.0, 10.0),
        span("b", "a", 1.0, 2.0),
        span("c", "a", 3.0, 3.0),
        span("e", None, 10.0, 1.0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_self_time_overlapping_children_counted_once():
    spans = [span("a", None, 0.0, 4.0), span("b", "a", 1.0, 2.0), span("c", "a", 2.0, 1.5)]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_busy_time_skips_nested_calls_of_the_same_group():
    spans = [
        span("a", None, 0.0, 4.0, "circuit.transient"),
        span("b", "a", 1.0, 2.0, "circuit.transient"),
        span("c", None, 5.0, 1.0, "circuit.transient"),
    ]
    assert outermost(spans, {"circuit.transient"}) == [0, 2]


def test_layer_report_adds_up_to_traced_wall():
    spans = [
        span("r", None, 0.0, 10.0, "bench.item"),
        span("e", "r", 0.5, 9.0, "api.engine"),
        span("x", "e", 1.0, 6.0, "analysis.run"),
        span("t", "x", 2.0, 4.0, "circuit.transient"),
        span("n", "t", 2.5, 1.0, "circuit.newton"),
    ]
    report = layers.layer_report(spans, 10.0)
    assert report["circuit.self_s"] == pytest.approx(4.0)
    assert report["analysis.self_s"] == pytest.approx(2.0)
    assert report["api.self_s"] == pytest.approx(3.0)
    total = sum(report[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert total + report["unattributed_s"] == pytest.approx(report["traced_wall_s"])
    assert report["circuit.share"] == pytest.approx(0.4)


def test_recorder_times_aliases_and_restores():
    import repro.circuit.mna as mna
    import repro.circuit.transient as transient

    original = mna.newton_solve
    recorder = Recorder()
    swaps = instrument(recorder, [Target("repro.circuit.mna", "newton_solve", "circuit.newton")])
    try:
        assert transient.newton_solve is mna.newton_solve is not original
    finally:
        swaps.restore()
    assert transient.newton_solve is original and mna.newton_solve is original


# --- naming and percentile rules -------------------------------------------


@pytest.mark.parametrize("name", ["setup_s", "circuit.delay.calls", "a-b_c.1", "9lives", "x" * 64])
def test_valid_metric_names(name):
    assert common.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", ".x", "_x", "a b", "a/b", "x" * 65, "é"])
def test_invalid_metric_names(name):
    assert not common.valid_metric_name(name)


def test_benchmark_json_names_follow_the_rule():
    spec = common.load_benchmark_spec()
    names = [entry["name"] for section in ("end_to_end", "per_layer") for entry in spec[section]]
    names += [entry["name"] for entry in spec["workloads"]]
    assert all(common.valid_metric_name(name) for name in names)
    assert len(names) == len(set(names))


@pytest.mark.parametrize(
    "n, expected", [(0, None), (10, None), (19, None), (20, 50.0), (40, 75.0), (100, 90.0),
                    (101, 90.0), (1000, 99.0), (5000, 99.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert common.tail_percentile(n) == expected


def test_percentile_interpolates():
    assert common.percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
    assert common.percentile([5.0], 90) == 5.0


def test_bucket_median_interpolates_within_bucket():
    cumulative = {0.001: 2.0, 0.005: 10.0, float("inf"): 10.0}
    # half = 5 observations: 3 of the 8 in (1 ms, 5 ms]
    assert service_roundtrip._bucket_median(cumulative) == pytest.approx(0.001 + 0.004 * 3 / 8)


def test_speed_factor_uses_samples_around_the_interval():
    sampler = common.SpeedSampler()
    reference = common.REFERENCE_LOOP_S
    sampler.samples = [(1.0, 2 * reference), (5.0, 4 * reference), (9.0, reference)]
    assert sampler.factor(4.9, 5.05) == pytest.approx(0.25)
    assert sampler.factor(0.9, 5.0) == pytest.approx(2 / 6)
    assert sampler.loop_ms() == pytest.approx(2 * reference * 1e3)


# --- failure accounting ----------------------------------------------------


@pytest.fixture
def failing_experiment():
    from repro.api import register_experiment, unregister_experiment

    @register_experiment("perfbench_failure_probe", replace=True)
    def probe():
        raise RuntimeError("injected failure")

    yield "perfbench_failure_probe"
    unregister_experiment("perfbench_failure_probe")


def test_injected_failure_shows_in_failed_ratio(failing_experiment):
    outcome = paper_defaults.run(
        seed=0, seconds=0, trace=True, only=[failing_experiment, "table_density"], setup_repeats=1
    )
    assert outcome.attempted == 4  # two items, untraced and traced
    assert outcome.failed == 2
    assert outcome.per_layer["failed_ratio"] == pytest.approx(0.5)
    line = bench_run.result_line(outcome, trace=False)
    assert line["correct"] is False and line["failed"] == 2


def test_record_mismatch_is_a_failure():
    expected = [{"x": 1.0, "label": "a"}, {"x": 1e-18, "label": "b"}]
    assert paper_defaults.compare_records(expected, expected) is None
    assert paper_defaults.compare_records([{"x": 1.0 + 1e-12, "label": "a"}, expected[1]], expected) is None
    assert paper_defaults.compare_records([{"x": 1.01, "label": "a"}, expected[1]], expected)
    assert paper_defaults.compare_records([expected[0], {"x": 1e-18, "label": "c"}], expected)
    assert paper_defaults.compare_records(expected[:1], expected)


# --- tiny runs of each workload --------------------------------------------


def _names(section):
    return {entry["name"] for entry in common.load_benchmark_spec()[section]}


def _check_full_result(outcome, trace):
    line = bench_run.result_line(outcome, trace)
    assert line["correct"] is True, outcome.errors
    assert line["failed"] == 0 and line["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert set(line["metrics"]) == _names(section)
    for name, entry in line["metrics"].items():
        assert isinstance(entry["value"], float) and entry["unit"]
    if not trace:
        assert set(outcome.end_to_end) == _names("end_to_end")
        assert all(value > 0 for value in outcome.end_to_end.values())
    return line


def _check_spans(path, outcome):
    from repro.obs.inspect import load_spans, render_summary

    spans = load_spans(path)
    assert len(spans) == outcome.per_layer["obs.spans"]
    assert render_summary(spans)
    total = sum(outcome.per_layer[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert total + outcome.per_layer["unattributed_s"] == pytest.approx(
        outcome.per_layer["traced_wall_s"]
    )


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_paper_defaults(trace, tmp_path):
    path = str(tmp_path / "paper.jsonl") if trace else None
    outcome = paper_defaults.run(
        seed=3, seconds=0, trace=trace, setup_repeats=1, spans_path=path,
        only=["table_density", "fig9", "fig10_capacitance", "growth_to_wafer"],
    )
    _check_full_result(outcome, trace)
    if trace:
        _check_spans(path, outcome)
        assert outcome.per_layer["tcad.laplace.calls"] > 0
        assert outcome.per_layer["tcad.share"] > 0
        assert outcome.per_layer["analysis.growth_to_wafer.wall_s"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_sweep_store(trace, tmp_path):
    path = str(tmp_path / "sweep.jsonl") if trace else None
    outcome = sweep_store.run(
        seed=4, seconds=0, trace=trace, n_grids=2, scale=0.1, setup_repeats=1, spans_path=path
    )
    _check_full_result(outcome, trace)
    if trace:
        _check_spans(path, outcome)
        layer = outcome.per_layer
        assert layer["dist.dir.publish.calls"] == layer["dist.sqlite.publish.calls"] > 0
        assert layer["api.cache.hit_ratio"] == pytest.approx(0.5)
        assert layer["circuit.share"] == 0.0


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_service_roundtrip(trace, tmp_path):
    path = str(tmp_path / "service.jsonl") if trace else None
    outcome = service_roundtrip.run(
        seed=5, seconds=0, trace=trace, points=3, setup_repeats=1, spans_path=path
    )
    _check_full_result(outcome, trace)
    if trace:
        _check_spans(path, outcome)
        assert outcome.per_layer["service.jobs"] >= 1
        assert outcome.per_layer["service.http.requests"] > 0

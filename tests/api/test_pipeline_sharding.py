"""SweepSpec.refine + ShardPlan under pipelines: refined downstream sweeps
keep their points on their shard and reuse upstream-stage cache entries."""

import os

import pytest

from repro.api import (
    Consumes,
    Engine,
    ParamSpec,
    SweepSpec,
    register_experiment,
    unregister_experiment,
)
from repro.dist import ShardPlan, merge_results, shard_of

CALLS = {"upstream": 0, "downstream": 0}


@pytest.fixture
def sharded_pipeline():
    for key in CALLS:
        CALLS[key] = 0

    @register_experiment(
        "shardpipe_up",
        params=(ParamSpec("gain", "float", 2.0),),
        replace=True,
    )
    def upstream(gain):
        CALLS["upstream"] += 1
        return [{"gain": gain}]

    @register_experiment(
        "shardpipe_down",
        params=(ParamSpec("x", "float", 1.0), ParamSpec("gain", "float", 2.0)),
        consumes=(Consumes("shardpipe_up", inject="up", bind={"gain": "gain"}),),
        replace=True,
    )
    def downstream(up, x, gain):
        CALLS["downstream"] += 1
        return [{"x": x, "y": x * up.column("gain")[0]}]

    yield
    unregister_experiment("shardpipe_up")
    unregister_experiment("shardpipe_down")


def test_refined_points_stay_on_their_shard():
    """Refinement only *adds* points: every original point keeps its shard."""
    spec = SweepSpec.grid(x=[1.0, 4.0, 16.0])
    refined = spec.refine("x", factor=2)
    original_points = {tuple(p.items()) for p in spec.points()}
    assert original_points <= {tuple(p.items()) for p in refined.points()}
    for point in spec.points():
        assert shard_of(point, 2) == shard_of(point, 2)  # deterministic
        # The identical dict read back from the refined spec hashes the same.
        match = next(p for p in refined.points() if p == point)
        assert shard_of(match, 2) == shard_of(point, 2)


def test_refined_sharded_pipeline_reuses_caches(sharded_pipeline, tmp_path):
    cache = str(tmp_path)
    spec = SweepSpec.grid(x=[1.0, 2.0, 3.0])

    for plan in ShardPlan.partition(2):
        Engine(store=cache).sweep("shardpipe_down", spec, shard=plan)
    downstream_after_coarse = CALLS["downstream"]
    assert downstream_after_coarse == 3
    # One shared upstream invocation, computed by the first shard engine
    # and served from cache to the second.
    assert CALLS["upstream"] == 1

    refined = spec.refine("x", factor=2)  # x = 1, 1.5, 2, 2.5, 3
    parts = []
    for plan in ShardPlan.partition(2):
        engine = Engine(store=cache)
        parts.append(engine.sweep("shardpipe_down", refined, shard=plan))
    # Only the two *new* midpoints executed; the coarse points -- still on
    # their original shards -- replayed from cache, as did the upstream.
    assert CALLS["downstream"] == downstream_after_coarse + 2
    assert CALLS["upstream"] == 1

    merged = merge_results(parts)
    serial = Engine(store=cache).sweep("shardpipe_down", refined)
    assert merged.content_hash == serial.content_hash
    assert merged == serial


def test_upstream_entries_are_shared_between_shards(sharded_pipeline, tmp_path):
    """Both shards key the upstream stage identically (same chained entry)."""
    cache = str(tmp_path)
    spec = SweepSpec.grid(x=[1.0, 2.0, 3.0, 4.0])
    for plan in ShardPlan.partition(2):
        Engine(store=cache).sweep("shardpipe_down", spec, shard=plan)
    upstream_entries = [
        name for name in os.listdir(cache) if name.startswith("shardpipe_up-")
    ]
    assert len(upstream_entries) == 1
    assert CALLS["upstream"] == 1


def test_sharded_composite_sweep_with_swept_bound_param(sharded_pipeline, tmp_path):
    """Sweeping a bound param fans the upstream out; shards still merge clean."""
    cache = str(tmp_path)
    spec = SweepSpec.grid(x=[1.0, 2.0], gain=[2.0, 3.0])
    parts = [
        Engine(store=cache).sweep("shardpipe_down", spec, shard=plan)
        for plan in ShardPlan.partition(3)
    ]
    merged = merge_results(parts)
    serial = Engine().sweep("shardpipe_down", spec)
    assert merged.content_hash == serial.content_hash
    # Two distinct gains -> exactly two upstream entries, shard-independent.
    upstream_entries = [
        name for name in os.listdir(cache) if name.startswith("shardpipe_up-")
    ]
    assert len(upstream_entries) == 2

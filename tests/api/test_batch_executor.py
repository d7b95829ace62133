"""Tests for the engine's ``batch`` executor and experiment ``batch_fn``.

The batch executor stacks same-experiment sweep points into one
``Experiment.run_batch`` call.  Its contract: results, streaming
behaviour, cache entries and content hashes are indistinguishable from
the serial executor -- batching is purely a wall-clock optimisation.
"""

import pytest

from repro.api import Engine, ParamSpec, SweepSpec, register_experiment, unregister_experiment
from repro.api.experiment import Consumes, PipelineError, get_experiment

BATCH_CALLS = {"batched": 0, "single": 0}


@pytest.fixture
def batched_experiment():
    """A registered experiment with a counting ``batch_fn``."""
    BATCH_CALLS["batched"] = 0
    BATCH_CALLS["single"] = 0

    def single(x: float, n: int):
        BATCH_CALLS["single"] += 1
        return [{"x": x, "i": i, "y": x * i} for i in range(n)]

    def batched(param_dicts):
        BATCH_CALLS["batched"] += 1
        return [single(**params) for params in param_dicts]

    register_experiment(
        "api_test_batched",
        params=(ParamSpec("x", "float", 1.0), ParamSpec("n", "int", 3)),
        batch_fn=batched,
        replace=True,
    )(single)
    yield "api_test_batched"
    unregister_experiment("api_test_batched")


class TestBatchExecutor:
    def test_matches_serial_records_and_hash(self, batched_experiment):
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0, 4.0])
        serial = Engine().sweep(batched_experiment, spec)
        batch = Engine(executor="batch").sweep(batched_experiment, spec)
        assert batch.to_records() == serial.to_records()
        assert batch.content_hash == serial.content_hash

    def test_points_are_stacked(self, batched_experiment):
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0])
        Engine(executor="batch").sweep(batched_experiment, spec)
        assert BATCH_CALLS["batched"] == 1

    def test_chunk_size_caps_stacks(self, batched_experiment):
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0, 4.0, 5.0])
        Engine(executor="batch", chunk_size=2).sweep(batched_experiment, spec)
        assert BATCH_CALLS["batched"] == 3

    def test_streaming_one_point_per_sweep_point(self, batched_experiment):
        seen = []
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0])
        Engine(executor="batch").sweep(
            batched_experiment, spec, on_result=lambda point: seen.append(point)
        )
        assert sorted(point.index for point in seen) == [0, 1, 2]
        assert all(point.error is None for point in seen)

    def test_cache_shared_with_serial(self, batched_experiment, tmp_path):
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0])
        batch_engine = Engine(executor="batch", store=str(tmp_path))
        batch_engine.sweep(batched_experiment, spec)
        single_calls = BATCH_CALLS["single"]
        serial_engine = Engine(store=str(tmp_path))
        again = serial_engine.sweep(batched_experiment, spec)
        assert BATCH_CALLS["single"] == single_calls  # all cache hits
        assert sorted(record["x"] for record in again.to_records() if record["i"] == 0) == [
            1.0,
            2.0,
            3.0,
        ]

    def test_experiment_without_batch_fn_runs_serially(self, batched_experiment):
        def plain(x: float):
            return [{"x": x}]

        register_experiment(
            "api_test_plain", params=(ParamSpec("x", "float", 1.0),), replace=True
        )(plain)
        try:
            spec = SweepSpec.grid(x=[1.0, 2.0])
            result = Engine(executor="batch").sweep("api_test_plain", spec)
            assert sorted(record["x"] for record in result.to_records()) == [1.0, 2.0]
        finally:
            unregister_experiment("api_test_plain")

    def test_failing_batch_fn_falls_back_to_serial(self):
        def single(x: float):
            return [{"x": x}]

        def exploding(param_dicts):
            raise RuntimeError("batch path is broken")

        register_experiment(
            "api_test_exploding_batch",
            params=(ParamSpec("x", "float", 1.0),),
            batch_fn=exploding,
            replace=True,
        )(single)
        try:
            spec = SweepSpec.grid(x=[1.0, 2.0])
            result = Engine(executor="batch").sweep("api_test_exploding_batch", spec)
            assert sorted(record["x"] for record in result.to_records()) == [1.0, 2.0]
        finally:
            unregister_experiment("api_test_exploding_batch")

    def test_registry_circuit_sweep_hash_identity(self):
        """A real physics sweep: batch executor must be hash-identical."""
        spec = SweepSpec.grid(lengths_um=[(10.0,), (50.0,)])
        base = {
            "diameters_nm": (10.0,),
            "channel_counts": (2.0, 6.0),
            "n_segments": 6,
        }
        serial = Engine().sweep("fig12", spec, base_params=base)
        batch = Engine(executor="batch").sweep("fig12", spec, base_params=base)
        assert batch.content_hash == serial.content_hash


class TestBatchContract:
    def test_batch_fn_with_consumes_rejected(self):
        with pytest.raises(ValueError):
            register_experiment(
                "api_test_bad_batch",
                params=(ParamSpec("x", "float", 1.0),),
                consumes=(Consumes(experiment="fig12", inject="upstream"),),
                batch_fn=lambda dicts: [[] for _ in dicts],
                replace=True,
            )(lambda x, upstream: [{"x": x}])

    def test_run_batch_without_batch_fn_raises(self, batched_experiment):
        register_experiment(
            "api_test_nobatch", params=(ParamSpec("x", "float", 1.0),), replace=True
        )(lambda x: [{"x": x}])
        try:
            with pytest.raises(PipelineError):
                get_experiment("api_test_nobatch").run_batch([{"x": 1.0}])
        finally:
            unregister_experiment("api_test_nobatch")

    def test_run_batch_length_mismatch_raises(self):
        register_experiment(
            "api_test_shortbatch",
            params=(ParamSpec("x", "float", 1.0),),
            batch_fn=lambda dicts: [[{"x": 0.0}]],  # always one result
            replace=True,
        )(lambda x: [{"x": x}])
        try:
            with pytest.raises(PipelineError):
                get_experiment("api_test_shortbatch").run_batch([{"x": 1.0}, {"x": 2.0}])
        finally:
            unregister_experiment("api_test_shortbatch")


class TestProfileAndLifecycle:
    def test_profile_meta(self, batched_experiment):
        result = Engine(executor="batch", profile=True).sweep(
            batched_experiment, SweepSpec.grid(x=[1.0, 2.0])
        )
        profile = result.meta["profile"]
        assert profile["points_profiled"] == 2
        assert profile["wall_s"] >= 0.0

    def test_profile_never_perturbs_hash(self, batched_experiment):
        spec = SweepSpec.grid(x=[1.0, 2.0])
        plain = Engine(executor="batch").sweep(batched_experiment, spec)
        profiled = Engine(executor="batch", profile=True).sweep(batched_experiment, spec)
        assert profiled.content_hash == plain.content_hash

    def test_chunk_size_validation(self):
        Engine(chunk_size="auto")
        Engine(chunk_size=None)
        Engine(chunk_size=4)
        with pytest.raises(ValueError):
            Engine(chunk_size="huge")
        with pytest.raises(ValueError):
            Engine(chunk_size=0)

    def test_close_and_context_manager(self, batched_experiment):
        with Engine(executor="batch") as engine:
            engine.sweep(batched_experiment, SweepSpec.grid(x=[1.0]))
        engine.close()  # idempotent

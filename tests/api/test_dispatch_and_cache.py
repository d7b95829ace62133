"""Engine dispatch granularity and cache-write crash safety."""

import os

import pytest

from repro.api import Engine, SweepSpec
from repro.api.engine import cache_key
from repro.api.experiment import Experiment, ParamSpec
from repro.dist.store import LOCK_FILENAME


def _experiment() -> Experiment:
    return Experiment(
        name="adhoc_dispatch",
        fn=lambda x=1.0: [{"x": x, "y": 2.0 * x}],
        params=(ParamSpec("x", "float", 1.0, "input"),),
        description="test experiment",
    )


class TestDispatchGranularity:
    def test_default_is_one_future_per_point(self):
        engine = Engine(executor="thread", max_workers=2)
        assert engine._chunks(list(range(64))) == [[i] for i in range(64)]

    def test_explicit_chunk_size_batches(self):
        engine = Engine(executor="thread", chunk_size=8)
        chunks = engine._chunks(list(range(20)))
        assert [len(chunk) for chunk in chunks] == [8, 8, 4]
        assert [i for chunk in chunks for i in chunk] == list(range(20))

    @pytest.mark.parametrize("chunk_size", [None, 3])
    def test_pooled_sweep_matches_serial(self, chunk_size):
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        serial = Engine().sweep(_experiment(), spec)
        pooled = Engine(executor="thread", max_workers=3, chunk_size=chunk_size).sweep(
            _experiment(), spec
        )
        assert pooled == serial

    def test_streamed_points_arrive_individually(self):
        """Every uncached point must surface as its own SweepPoint."""
        engine = Engine(executor="thread", max_workers=2)
        spec = SweepSpec.grid(x=[float(i) for i in range(12)])
        points = list(engine.iter_sweep(_experiment(), spec))
        assert sorted(p.index for p in points) == list(range(12))
        assert all(p.ok and not p.cache_hit for p in points)


class TestCacheCrashSafety:
    def _engine_and_paths(self, tmp_path):
        engine = Engine(store=str(tmp_path / "cache"))
        experiment = _experiment()
        result = engine.run(experiment, x=3.0)
        path = engine._cache_path(experiment, experiment.resolve_params({"x": 3.0}))
        return engine, experiment, result, path

    def test_crash_during_replace_leaves_no_debris(self, tmp_path, monkeypatch):
        engine, experiment, result, path = self._engine_and_paths(tmp_path)
        os.unlink(path)

        def exploding_replace(src, dst):
            raise OSError("simulated crash between write and publish")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            engine._cache_store(path, result)
        monkeypatch.undo()
        # No temp files and no (possibly partial) final entry survive; only
        # the store's advisory lock file remains.
        assert os.listdir(engine.store.directory) == [LOCK_FILENAME]
        assert engine._cache_load(path) is None

    def test_crash_never_corrupts_existing_entry(self, tmp_path, monkeypatch):
        """A crashed re-write must leave the previous good entry readable."""
        engine, experiment, result, path = self._engine_and_paths(tmp_path)
        good = engine._cache_load(path)
        assert good is not None

        monkeypatch.setattr(
            os, "replace", lambda src, dst: (_ for _ in ()).throw(OSError("crash"))
        )
        with pytest.raises(OSError):
            engine._cache_store(path, result)
        monkeypatch.undo()
        reloaded = engine._cache_load(path)
        assert reloaded is not None
        assert reloaded.to_records() == good.to_records()

    def test_corrupt_entry_is_recomputed(self, tmp_path):
        engine, experiment, result, path = self._engine_and_paths(tmp_path)
        with open(path, "w") as handle:
            handle.write('{"truncated": ')
        assert engine._cache_load(path) is None
        fresh = engine.run(experiment, x=3.0)  # silently recomputes + rewrites
        assert fresh.to_records() == result.to_records()
        assert engine._cache_load(path) is not None

    def test_cache_key_stability(self):
        key = cache_key("exp", "1", {"b": 2, "a": 1})
        assert key == cache_key("exp", "1", {"a": 1, "b": 2})

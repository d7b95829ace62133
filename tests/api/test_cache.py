"""Tests for cache inspection and eviction (repro.api.cache)."""

import os
import time

import pytest

from repro.api import Engine, ParamSpec, register_experiment, unregister_experiment
from repro.api.cache import cache_stats, clear_cache, parse_age, prune_cache
from repro.dist import SharedStore


def scan(directory, read_meta=True):
    return SharedStore(directory).entries(read_meta=read_meta)


@pytest.fixture
def populated_cache(tmp_path):
    """A cache directory holding entries of two experiments plus a foreign file."""

    @register_experiment(
        "api_test_cache_a", params=(ParamSpec("x", "float", 1.0),), replace=True
    )
    def experiment_a(x: float):
        return [{"x": x}]

    @register_experiment(
        "api_test_cache_b", params=(ParamSpec("x", "float", 1.0),), replace=True
    )
    def experiment_b(x: float):
        return [{"x": x * 2}]

    engine = Engine(store=str(tmp_path))
    engine.run("api_test_cache_a", x=1.0)
    engine.run("api_test_cache_a", x=2.0)
    engine.run("api_test_cache_b", x=1.0)
    (tmp_path / "exported_results.json").write_text("{}")

    yield str(tmp_path)
    unregister_experiment("api_test_cache_a")
    unregister_experiment("api_test_cache_b")


class TestScanAndStats:
    def test_scan_lists_entries_with_provenance(self, populated_cache):
        entries = scan(populated_cache)
        assert len(entries) == 3
        assert {entry.experiment for entry in entries} == {
            "api_test_cache_a",
            "api_test_cache_b",
        }
        for entry in entries:
            assert entry.version == "1"
            assert "x" in entry.params
            assert entry.size_bytes > 0
            assert entry.age_seconds() >= 0.0

    def test_scan_ignores_foreign_files(self, populated_cache):
        assert all("exported" not in e.path for e in scan(populated_cache))

    def test_scan_without_meta_skips_payload_parsing(self, populated_cache):
        entries = scan(populated_cache, read_meta=False)
        assert len(entries) == 3
        assert all(e.version is None and e.params is None for e in entries)
        assert {e.experiment for e in entries} == {
            "api_test_cache_a",
            "api_test_cache_b",
        }

    def test_scan_missing_dir_is_empty(self, tmp_path):
        assert scan(str(tmp_path / "nope")) == []
        assert cache_stats(str(tmp_path / "nope")).n_entries == 0
        assert not (tmp_path / "nope").exists()

    def test_stats_aggregates(self, populated_cache):
        stats = cache_stats(populated_cache)
        assert stats.n_entries == 3
        assert stats.total_bytes == sum(e.size_bytes for e in stats.entries)
        assert stats.experiments() == ["api_test_cache_a", "api_test_cache_b"]
        groups = stats.by_experiment()
        assert len(groups["api_test_cache_a"]) == 2
        assert len(groups["api_test_cache_b"]) == 1

    def test_corrupt_entry_still_listed(self, populated_cache):
        entries = scan(populated_cache)
        with open(entries[0].path, "w") as handle:
            handle.write("{not json")
        rescanned = scan(populated_cache)
        assert len(rescanned) == 3
        corrupt = [e for e in rescanned if e.path == entries[0].path]
        assert corrupt[0].version is None and corrupt[0].params is None


class TestClear:
    def test_clear_removes_entries_only(self, populated_cache):
        assert clear_cache(populated_cache) == 3
        assert scan(populated_cache) == []
        assert os.path.exists(os.path.join(populated_cache, "exported_results.json"))

    def test_clear_missing_dir(self, tmp_path):
        assert clear_cache(str(tmp_path / "nope")) == 0
        assert prune_cache(str(tmp_path / "nope"), older_than=0.0) == []
        assert not (tmp_path / "nope").exists()  # maintenance creates nothing


class TestPrune:
    def test_prune_by_experiment_only_removes_matching(self, populated_cache):
        removed = prune_cache(populated_cache, experiment="api_test_cache_a")
        assert len(removed) == 2
        remaining = scan(populated_cache)
        assert [entry.experiment for entry in remaining] == ["api_test_cache_b"]

    def test_prune_by_version(self, populated_cache):
        assert prune_cache(populated_cache, version="99") == []

        # Re-register experiment_b at version 2 and run it: one new entry.
        @register_experiment(
            "api_test_cache_b",
            params=(ParamSpec("x", "float", 1.0),),
            version="2",
            replace=True,
        )
        def experiment_b_v2(x: float):
            return [{"x": x * 3}]

        Engine(store=populated_cache).run("api_test_cache_b", x=1.0)
        removed = prune_cache(populated_cache, experiment="api_test_cache_b", version="1")
        assert len(removed) == 1
        versions = {
            e.version for e in scan(populated_cache) if e.experiment == "api_test_cache_b"
        }
        assert versions == {"2"}

    def test_prune_by_age(self, populated_cache):
        entries = scan(populated_cache)
        old = entries[0]
        past = time.time() - 3600.0
        os.utime(old.path, (past, past))
        removed = prune_cache(populated_cache, older_than=1800.0)
        assert [entry.path for entry in removed] == [old.path]
        assert len(scan(populated_cache)) == 2

    def test_prune_dry_run_removes_nothing(self, populated_cache):
        matched = prune_cache(
            populated_cache, experiment="api_test_cache_a", dry_run=True
        )
        assert len(matched) == 2
        assert len(scan(populated_cache)) == 3

    def test_prune_criteria_combine_with_and(self, populated_cache):
        matched = prune_cache(
            populated_cache,
            experiment="api_test_cache_a",
            older_than=3600.0,
            dry_run=True,
        )
        assert matched == []  # entries are fresh, so the age filter excludes them

    def test_prune_requires_a_criterion(self, populated_cache):
        with pytest.raises(ValueError, match="at least one"):
            prune_cache(populated_cache)

    def test_pruned_entries_recompute_on_next_run(self, populated_cache):
        prune_cache(populated_cache, experiment="api_test_cache_a")
        engine = Engine(store=populated_cache)
        result = engine.run("api_test_cache_a", x=1.0)
        assert engine.cache_misses == 1 and "cache_hit" not in result.meta


class TestParseAge:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("45s", 45.0),
            ("30m", 1800.0),
            ("12h", 43200.0),
            ("7d", 604800.0),
            ("2w", 1209600.0),
            ("90", 90.0),
            ("1.5h", 5400.0),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_age(text) == expected

    @pytest.mark.parametrize("text", ["", "banana", "7y", "-3s", "nan", "inf", "nand"])
    def test_invalid(self, text):
        # NaN in particular must be rejected: age < NaN is always False, so a
        # NaN older_than would turn prune into an unintended full clear.
        with pytest.raises(ValueError):
            parse_age(text)

    def test_prune_rejects_non_finite_age(self, populated_cache):
        with pytest.raises(ValueError, match="finite"):
            prune_cache(populated_cache, older_than=float("nan"))
        assert len(scan(populated_cache)) == 3

"""The query plane: predicates, metadata queries, exports, and the CLI."""

import json
import os
import time

import pytest

from repro.api import Engine, ParamSpec, ResultSet, register_experiment, unregister_experiment
from repro.api.cli import main
from repro.api.query import (
    Predicate,
    coerce_value,
    export_results,
    parse_predicate,
    query_entries,
)
from repro.dist import SharedStore, SqliteStore


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def query_experiment():
    @register_experiment(
        "query_exp",
        params=(ParamSpec("n_segments", "int", 10), ParamSpec("kind", "str", "Cu")),
        replace=True,
    )
    def query_exp(n_segments, kind):
        return [{"n_segments": n_segments, "kind": kind, "r": 3.0 * n_segments}]

    yield "query_exp"
    unregister_experiment("query_exp")


def _populated_store(tmp_path, query_experiment):
    store = SqliteStore(str(tmp_path / "catalog.db"))
    engine = Engine(store=store)
    for n in (10, 40, 80):
        engine.run(query_experiment, n_segments=n)
    return store


class TestPredicateParsing:
    def test_operators_and_coercion(self):
        assert parse_predicate("n_segments>50") == Predicate("n_segments", ">", 50)
        assert parse_predicate("x >= 1.5") == Predicate("x", ">=", 1.5)
        assert parse_predicate("kind==Cu") == Predicate("kind", "==", "Cu")
        assert parse_predicate("kind=Cu") == Predicate("kind", "==", "Cu")
        assert parse_predicate("flag!=true") == Predicate("flag", "!=", True)
        assert parse_predicate("x<=2") == Predicate("x", "<=", 2)
        assert parse_predicate("x<2") == Predicate("x", "<", 2)

    def test_quoted_values_stay_strings(self):
        assert parse_predicate("kind=='42'") == Predicate("kind", "==", "42")
        assert coerce_value('"true"') == "true"

    @pytest.mark.parametrize("bad", ["", "n_segments", ">50", "x>", "==3"])
    def test_malformed_predicates_raise(self, bad):
        with pytest.raises(ValueError, match="predicate"):
            parse_predicate(bad)

    def test_matching_is_type_tolerant(self):
        predicate = parse_predicate("n_segments>50")
        assert predicate.matches({"n_segments": 80}) is True
        assert predicate.matches({"n_segments": 10}) is False
        assert predicate.matches({"n_segments": "copper"}) is False  # not an error
        assert predicate.matches({"other": 80}) is False
        assert predicate.matches(None) is False


class TestQueryEntries:
    def test_where_filters_on_params(self, query_experiment, tmp_path):
        store = _populated_store(tmp_path, query_experiment)
        hits = query_entries(store, where=[parse_predicate("n_segments>50")])
        assert [entry.params["n_segments"] for entry in hits] == [80]
        both = query_entries(store, where=[parse_predicate("n_segments>20")])
        assert {entry.params["n_segments"] for entry in both} == {40, 80}

    def test_experiment_filter_and_sort(self, query_experiment, tmp_path):
        store = _populated_store(tmp_path, query_experiment)
        assert query_entries(store, experiment="nope") == []
        newest_first = query_entries(
            store, experiment="query_exp", sort="timestamp", descending=True
        )
        stamps = [entry.mtime for entry in newest_first]
        assert stamps == sorted(stamps, reverse=True)
        by_size = query_entries(store, sort="size")
        assert [e.size_bytes for e in by_size] == sorted(e.size_bytes for e in by_size)

    def test_limit_and_validation(self, query_experiment, tmp_path):
        store = _populated_store(tmp_path, query_experiment)
        assert len(query_entries(store, limit=2)) == 2
        assert query_entries(store, limit=0) == []
        with pytest.raises(ValueError, match="sort"):
            query_entries(store, sort="colour")
        with pytest.raises(ValueError, match="limit"):
            query_entries(store, limit=-1)

    def test_age_window(self, query_experiment, tmp_path):
        store = _populated_store(tmp_path, query_experiment)
        now = time.time()
        assert len(query_entries(store, newer_than=3600.0, now=now)) == 3
        assert query_entries(store, older_than=3600.0, now=now) == []
        assert len(query_entries(store, older_than=3600.0, now=now + 7200.0)) == 3

    def test_works_on_directory_stores_too(self, query_experiment, tmp_path):
        cache_dir = str(tmp_path / "cache")
        engine = Engine(store=cache_dir)
        for n in (10, 80):
            engine.run(query_experiment, n_segments=n)
        hits = query_entries(
            SharedStore(cache_dir), where=[parse_predicate("n_segments>50")]
        )
        assert [entry.params["n_segments"] for entry in hits] == [80]


class TestExportResults:
    def test_export_tags_records_with_provenance(self, query_experiment, tmp_path):
        store = _populated_store(tmp_path, query_experiment)
        entries = query_entries(store, where=[parse_predicate("n_segments>20")])
        merged = export_results(store, entries, query={"where": ["n_segments>20"]})
        assert merged.meta["executor"] == "query"
        assert merged.meta["n_entries"] == 2
        assert merged.meta["n_skipped"] == 0
        assert merged.meta["query"] == {"where": ["n_segments>20"]}
        records = merged.to_records()
        assert len(records) == 2
        assert {record["experiment"] for record in records} == {"query_exp"}
        assert all(record["entry_key"] for record in records)
        # Sweep-style parameter tagging: the record's own column survives,
        # the parameter lands under the usual prefix on collision.
        assert {record["param_n_segments"] for record in records} == {40, 80}

    def test_export_from_directory_path(self, query_experiment, tmp_path):
        """A directory path exports the same rows as the store object."""
        directory = str(tmp_path / "cache")
        engine = Engine(store=directory)
        for n in (10, 40, 80):
            engine.run(query_experiment, n_segments=n)
        by_path = export_results(directory, query_entries(directory))
        by_store = export_results(SharedStore(directory), query_entries(directory))
        assert by_path.meta["n_entries"] == 3
        assert by_path.meta["n_skipped"] == 0
        assert by_path.to_records() == by_store.to_records()
        assert len(by_path) == 3

    def test_vanished_entries_are_counted_skipped(self, query_experiment, tmp_path):
        store = _populated_store(tmp_path, query_experiment)
        entries = query_entries(store)
        store.remove_entries([entries[0].path])
        merged = export_results(store, entries)
        assert merged.meta["n_entries"] == 2
        assert merged.meta["n_skipped"] == 1


class TestQueryCli:
    def test_query_table_and_filters(self, query_experiment, tmp_path, capsys):
        store = _populated_store(tmp_path, query_experiment)
        spec = "sqlite:///" + str(tmp_path / "catalog.db")
        code, out, _ = run_cli(
            capsys,
            "query",
            "--store",
            spec,
            "--where",
            "n_segments>50",
            "--sort",
            "timestamp",
            "--desc",
        )
        assert code == 0
        assert "query_exp" in out
        assert "n_segments=80" in out
        assert "n_segments=10" not in out

    def test_query_export_and_csv(self, query_experiment, tmp_path, capsys):
        _populated_store(tmp_path, query_experiment)
        spec = "sqlite:///" + str(tmp_path / "catalog.db")
        export = str(tmp_path / "out.json")
        csv_path = str(tmp_path / "out.csv")
        code, out, _ = run_cli(
            capsys, "query", "--store", spec, "--where", "n_segments>20",
            "--export", export, "--csv", csv_path,
        )
        assert code == 0
        merged = ResultSet.from_json(export)
        assert len(merged) == 2
        assert os.path.getsize(csv_path) > 0

    def test_query_rejects_bad_predicate(self, tmp_path, capsys):
        spec = "sqlite:///" + str(tmp_path / "catalog.db")
        code, _, err = run_cli(capsys, "query", "--store", spec, "--where", "oops")
        assert code == 2
        assert "predicate" in err

    def test_migrate_then_query_cli(self, query_experiment, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        engine = Engine(store=cache_dir)
        for n in (10, 80):
            engine.run(query_experiment, n_segments=n)
        spec = "sqlite:///" + str(tmp_path / "migrated.db")

        code, out, _ = run_cli(capsys, "migrate", cache_dir, spec)
        assert code == 0
        assert "migrated 2 entries" in out

        code, out, _ = run_cli(
            capsys, "query", "--store", spec, "--where", "n_segments>50"
        )
        assert code == 0
        assert "n_segments=80" in out

    def test_run_with_store_spec(self, query_experiment, tmp_path, capsys):
        spec = "sqlite:///" + str(tmp_path / "run.db")
        code, _, _ = run_cli(capsys, "run", query_experiment, "--store", spec)
        assert code == 0
        store = SqliteStore(str(tmp_path / "run.db"))
        assert len(store.entries()) == 1

    def test_store_and_cache_dir_are_exclusive(self, query_experiment, tmp_path, capsys):
        # --cache-dir is a second spelling of --store: giving both is a usage error.
        with pytest.raises(SystemExit) as exit_info:
            run_cli(
                capsys,
                "run",
                query_experiment,
                "--store",
                "sqlite:///" + str(tmp_path / "x.db"),
                "--cache-dir",
                str(tmp_path / "cache"),
            )
        assert exit_info.value.code == 2
        assert "not allowed with argument --store" in capsys.readouterr().err

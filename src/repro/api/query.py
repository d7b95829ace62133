"""Cross-sweep result catalog: predicate queries over any result store.

``python -m repro query`` answers questions like *"all delay results where
``n_segments > 50``, any sweep, newest first"* across every experiment a
store holds.  The query plane works on entry **metadata** only -- the
experiment name, version, cache key, stored parameters, timestamp and size
that :meth:`~repro.dist.store.ResultStore.entries` exposes -- so against a
:class:`~repro.dist.sqlstore.SqliteStore` a query is an indexed column scan
and the (potentially huge) payload blobs are never read.  Only an explicit
export (:func:`export_results`) loads the payloads of the matching entries
and merges them into one parameter-tagged :class:`ResultSet`.

* :func:`parse_predicate` -- ``"n_segments>50"`` into a typed
  :class:`Predicate` (operators ``== != >= <= > <``; values are coerced to
  int/float/bool when they parse as one),
* :func:`query_entries` -- filter (experiment, predicates, age window),
  sort and limit a store's entries,
* :func:`export_results` -- load the matching payloads and merge them into
  one :class:`~repro.api.results.ResultSet` with query provenance metadata.

Quick start::

    from repro.api.query import parse_predicate, query_entries
    from repro.dist import resolve_store

    store = resolve_store("sqlite:///sweeps.db")
    entries = query_entries(
        store,
        where=[parse_predicate("n_segments>50")],
        sort="timestamp",
        descending=True,
    )
    for entry in entries:
        print(entry.experiment, entry.params)

Existing directory stores join the catalog via ``python -m repro migrate
CACHE_DIR sqlite:///sweeps.db`` (see :func:`repro.dist.sqlstore.migrate_store`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.api.cache import CacheEntry
from repro.api.results import ResultSet
from repro.dist.sqlstore import resolve_store

# Longest spellings first so "<=" is not parsed as "<" + "=value".
_OPERATORS = ("<=", ">=", "!=", "==", "=", "<", ">")

_SORT_KEYS = {
    "timestamp": lambda entry: (entry.mtime, entry.path),
    "experiment": lambda entry: (entry.experiment, entry.mtime, entry.path),
    "size": lambda entry: (entry.size_bytes, entry.path),
    "version": lambda entry: (entry.experiment, str(entry.version), entry.path),
}


@dataclass(frozen=True)
class Predicate:
    """One typed comparison against an entry's stored parameters."""

    key: str
    op: str
    value: Any

    def matches(self, params: Mapping[str, Any] | None) -> bool:
        """Whether an entry's parameter dict satisfies this comparison.

        Entries without the key (or with unreadable metadata) never match;
        comparisons between incomparable types (``"copper" > 3``) are False
        rather than an error, so one odd entry cannot abort a catalog query.
        """
        if params is None or self.key not in params:
            return False
        actual = params[self.key]
        try:
            if self.op == "==":
                return actual == self.value
            if self.op == "!=":
                return actual != self.value
            if self.op == ">":
                return actual > self.value
            if self.op == ">=":
                return actual >= self.value
            if self.op == "<":
                return actual < self.value
            return actual <= self.value
        except TypeError:
            return False

    def describe(self) -> str:
        return f"{self.key}{self.op}{self.value!r}"


def coerce_value(text: str) -> Any:
    """``"50"`` -> 50, ``"1.5"`` -> 1.5, ``"true"`` -> True, else the string
    (surrounding quotes stripped, so ``kind=='Cu'`` reads naturally)."""
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_predicate(text: str) -> Predicate:
    """Parse one ``--where`` expression (``"n_segments>50"``, ``"kind==Cu"``)."""
    stripped = text.strip()
    for op in _OPERATORS:
        index = stripped.find(op)
        if index > 0:
            key = stripped[:index].strip()
            value = stripped[index + len(op) :].strip()
            if not key or not value:
                break
            return Predicate(
                key=key, op="==" if op == "=" else op, value=coerce_value(value)
            )
    raise ValueError(
        f"malformed predicate {text!r}; expected KEY OP VALUE with OP one of "
        + " ".join(_OPERATORS)
    )


def query_entries(
    store: Any,
    experiment: str | None = None,
    where: Sequence[Predicate] = (),
    newer_than: float | None = None,
    older_than: float | None = None,
    sort: str = "timestamp",
    descending: bool = False,
    limit: int | None = None,
    now: float | None = None,
) -> list[CacheEntry]:
    """Filter, sort and limit a store's entries by metadata only.

    Parameters
    ----------
    store:
        Any :class:`~repro.dist.store.ResultStore`, or its ``--store``
        spelling (a directory path or ``sqlite:///path.db``).
    experiment:
        Keep only entries of this experiment name.
    where:
        Predicates over the stored parameters; *all* must match
        (:func:`parse_predicate` builds them from CLI text).
    newer_than / older_than:
        Age window in seconds (see :func:`repro.api.cache.parse_age` for
        the ``30s`` / ``12h`` / ``7d`` CLI spelling).
    sort:
        ``timestamp`` (default), ``experiment``, ``size`` or ``version``.
    descending:
        Reverse the sort (``--desc``: newest/biggest first).
    limit:
        Keep at most this many entries *after* sorting.
    """
    if sort not in _SORT_KEYS:
        raise ValueError(
            f"unknown sort key {sort!r}; use one of {sorted(_SORT_KEYS)}"
        )
    if limit is not None and limit < 0:
        raise ValueError("limit must be non-negative")
    timestamp = time.time() if now is None else now
    matched = []
    for entry in resolve_store(store).entries(read_meta=True):
        if experiment is not None and entry.experiment != experiment:
            continue
        age = entry.age_seconds(timestamp)
        if newer_than is not None and age > newer_than:
            continue
        if older_than is not None and age < older_than:
            continue
        if not all(predicate.matches(entry.params) for predicate in where):
            continue
        matched.append(entry)
    matched.sort(key=_SORT_KEYS[sort], reverse=descending)
    return matched if limit is None else matched[:limit]


def export_results(
    store: Any,
    entries: Iterable[CacheEntry],
    query: Mapping[str, Any] | None = None,
) -> ResultSet:
    """Load the payloads of ``entries`` and merge them into one ResultSet.

    Each entry's records are tagged with its stored parameters (colliding
    names get the engine's usual ``param_`` prefix) plus ``experiment`` and
    ``entry_key`` provenance columns, so records from different experiments
    stay distinguishable after the merge.  Entries that vanished or fail to
    parse since the query are skipped and counted in the result metadata.
    ``store`` is resolved like :func:`query_entries`'s.
    """
    from repro.api.engine import _tag_record

    store = resolve_store(store)
    records: list[dict[str, Any]] = []
    exported = 0
    skipped = 0
    for entry in entries:
        result = store.load(entry.path)
        if result is None:
            skipped += 1
            continue
        exported += 1
        tags = dict(entry.params or {})
        tags["experiment"] = entry.experiment
        tags["entry_key"] = entry.key
        for record in result.to_records():
            records.append(_tag_record(record, tags))
    meta = {
        "executor": "query",
        "n_entries": exported,
        "n_skipped": skipped,
    }
    if query:
        meta["query"] = dict(query)
    return ResultSet.from_records(records, meta=meta)

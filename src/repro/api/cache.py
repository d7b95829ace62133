"""Inspection and eviction of the engine's result cache.

:class:`~repro.api.engine.Engine` memoises experiment results in a result
store (:mod:`repro.dist.store`): one ``<experiment>-<key16>.json`` entry per
content-addressed invocation.  This module is the maintenance policy over
any store:

* :func:`cache_stats` -- per-experiment aggregates (entries, bytes, ages),
* :func:`clear_cache` -- delete every entry,
* :func:`prune_cache` -- delete entries matching an experiment name, an
  experiment version and/or a minimum age (useful after bumping an
  experiment's ``version``, which orphans the old entries forever),
* :func:`parse_age` -- the CLI's ``30s`` / ``12h`` / ``7d`` age spelling.

Every function accepts a directory path, a ``sqlite:`` URL or a
:class:`~repro.dist.store.ResultStore` instance, resolved once through
:func:`repro.dist.sqlstore.resolve_store`; the work goes through the store
seam (``entries`` / ``remove_entries`` / ``lock``), so a
:class:`~repro.dist.sqlstore.SqliteStore` is inspected and pruned with
exactly the same calls.  Listing entries is ``store.entries()`` and
collecting crashed-worker residue (tombstones, orphaned leases) is
``store.collect_garbage()``.  For directories, only files matching the
engine's own naming pattern are ever touched, so a cache directory that
also holds exported results is safe, and maintenance of a directory that
does not exist creates nothing.  Destructive operations (``clear`` /
``prune``) run under the store's maintenance lock, so evicting entries from
a store that live workers are publishing into cannot interleave with a
publish or with claim-lease bookkeeping; each removed entry's stale
``.lease`` file (if any) is disposed of along with it.  The same operations
are exposed on the shell as ``python -m repro cache {stats,clear,prune}``.

Quick start::

    import tempfile

    from repro.api import Engine
    from repro.api.cache import cache_stats, prune_cache

    store = tempfile.mkdtemp()
    Engine(store=store).run("table_density")

    stats = cache_stats(store)
    print(stats.n_entries, stats.experiments())

    removed = prune_cache(store, experiment="table_density")
    print(len(removed))
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any

# Accepted --older-than suffixes, in seconds.
_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


@dataclass(frozen=True)
class CacheEntry:
    """One memoised result file with its provenance.

    ``version`` and ``params`` come from the entry's embedded metadata and
    are ``None`` for unreadable (corrupt) entries -- those still count as
    entries so that ``clear`` / ``prune`` can dispose of them.
    """

    path: str
    experiment: str
    key: str
    version: str | None
    params: dict[str, Any] | None
    size_bytes: int
    mtime: float

    def age_seconds(self, now: float | None = None) -> float:
        """Seconds since the entry was written (non-negative)."""
        return max(0.0, (time.time() if now is None else now) - self.mtime)


@dataclass(frozen=True)
class CacheStats:
    """Aggregate view over a store's entries."""

    directory: str
    entries: tuple[CacheEntry, ...]

    @property
    def n_entries(self) -> int:
        return len(self.entries)

    @property
    def total_bytes(self) -> int:
        return sum(entry.size_bytes for entry in self.entries)

    def experiments(self) -> list[str]:
        """Distinct experiment names with cached entries, sorted."""
        return sorted({entry.experiment for entry in self.entries})

    def by_experiment(self) -> dict[str, list[CacheEntry]]:
        """Entries grouped by experiment name (sorted by name)."""
        groups: dict[str, list[CacheEntry]] = {}
        for entry in sorted(self.entries, key=lambda e: (e.experiment, e.path)):
            groups.setdefault(entry.experiment, []).append(entry)
        return groups


def cache_stats(target: Any) -> CacheStats:
    """Aggregate statistics over a store (or its path / URL)."""
    # repro.dist is imported on use: `import repro.api` stays free of it.
    from repro.dist.sqlstore import resolve_store

    store = resolve_store(target)
    return CacheStats(directory=store.directory, entries=tuple(store.entries()))


def clear_cache(target: Any) -> int:
    """Delete every cache entry; returns the number of entries removed.

    Holds the store's maintenance lock for the scan + removal, so concurrent
    writers (distributed workers publishing into a shared store) are never
    interleaved with the eviction.
    """
    from repro.dist.sqlstore import resolve_store

    store = resolve_store(target)
    if not store.entries(read_meta=False):
        return 0  # nothing to evict: take no lock, so a missing directory stays missing
    with store.lock():
        return store.remove_entries(
            [entry.path for entry in store.entries(read_meta=False)]
        )


def prune_cache(
    target: Any,
    experiment: str | None = None,
    version: str | None = None,
    older_than: float | None = None,
    now: float | None = None,
    dry_run: bool = False,
) -> list[CacheEntry]:
    """Delete the cache entries matching *all* given criteria.

    Parameters
    ----------
    experiment:
        Only entries of this experiment name.
    version:
        Only entries whose stored experiment version equals this (corrupt
        entries with unknown version match any ``version`` filter, so they
        are always eligible for disposal).
    older_than:
        Only entries at least this many seconds old (see :func:`parse_age`
        for the CLI's ``30s`` / ``12h`` / ``7d`` spelling).
    now:
        Reference timestamp for the age comparison (default: current time).
    dry_run:
        Report what would be removed without deleting anything.

    Returns the matched entries (removed unless ``dry_run``).  At least one
    criterion is required -- an unconditional prune is spelled
    :func:`clear_cache`.  Unless ``dry_run``, the scan and the removal
    happen under the store lock, so pruning a live shared store never
    interleaves with a worker's publish.
    """
    if experiment is None and version is None and older_than is None:
        raise ValueError(
            "prune_cache needs at least one of experiment/version/older_than; "
            "use clear_cache() to remove everything"
        )
    if older_than is not None and (not math.isfinite(older_than) or older_than < 0):
        # NaN must not slip through: every `age < NaN` comparison is False,
        # which would silently match (and delete) every entry.
        raise ValueError("older_than must be finite and non-negative")
    from repro.dist.sqlstore import resolve_store

    store = resolve_store(target)

    def match() -> list[CacheEntry]:
        matched = []
        # Only the version filter consults the entry metadata; experiment
        # comes from the filename and age from mtime, so skip the
        # (potentially large) payload parse unless it is actually needed.
        for entry in store.entries(read_meta=version is not None):
            if experiment is not None and entry.experiment != experiment:
                continue
            if (
                version is not None
                and entry.version is not None
                and str(entry.version) != str(version)
            ):
                continue
            if older_than is not None and entry.age_seconds(now) < older_than:
                continue
            matched.append(entry)
        return matched

    matched = match()
    if dry_run or not matched:
        return matched  # nothing to evict: a missing directory stays missing
    with store.lock():
        matched = match()
        store.remove_entries([entry.path for entry in matched])
    return matched


def parse_age(text: str) -> float:
    """Parse a human age spec (``"45s"``, ``"30m"``, ``"12h"``, ``"7d"``,
    ``"2w"``, or a plain number of seconds) into seconds."""
    text = text.strip().lower()
    if not text:
        raise ValueError("empty age; use e.g. 30s, 45m, 12h, 7d or plain seconds")
    unit = _AGE_UNITS.get(text[-1])
    magnitude = text[:-1] if unit is not None else text
    try:
        seconds = float(magnitude) * (unit if unit is not None else 1.0)
    except ValueError:
        raise ValueError(
            f"malformed age {text!r}; use e.g. 30s, 45m, 12h, 7d or plain seconds"
        ) from None
    # Reject NaN/inf explicitly: a NaN age makes every `age < older_than`
    # comparison False and would turn prune into an unintended full clear.
    if not math.isfinite(seconds) or seconds < 0:
        raise ValueError(f"age must be finite and non-negative, got {text!r}")
    return seconds

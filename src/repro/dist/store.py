"""Result stores: the engine's cache layout, safe to share between machines.

The engine memoises experiment results as ``<experiment>-<key16>.json``
files in one directory.  This module owns that layout and turns the
directory into a *store* the execution layer is pointed at:

* :class:`ResultStore` -- the layout itself: entry naming
  (:data:`ENTRY_PATTERN`), tolerant lock-free loads and the directory walk
  behind :meth:`~ResultStore.entries`.  The coordinating half of the store
  contract (``publish``, ``claim``/``claim_many``, ``release``, ``renew``,
  ``record_failure``, ``lock``, ``collect_garbage``) belongs to the
  concrete stores.
* :class:`SharedStore` -- *the* directory store, whether one process or N
  machines (through a shared filesystem) use it: atomic publish (tmp file
  + fsync + ``os.replace``) under an advisory store lock, and lease-based
  point claims (:meth:`~SharedStore.claim`) with stale-lease recovery, so
  N workers partition a sweep dynamically without duplicating or
  clobbering each other's work.  ``Engine(store=path)`` and every
  directory path the CLI accepts open one.

Claims are leases, not hard locks: ``claim(path, worker_id, ttl)`` grants the
point to one worker for ``ttl`` seconds.  A worker that dies mid-point simply
stops existing -- once its lease expires, any other worker's ``claim`` takes
the point over.  Publishing a result is atomic and removes the lease, and
``claim`` reports ``"done"`` once a result exists, so late workers skip
straight past completed points.  The ``ttl`` must exceed the longest single
point's wall time; a slower-than-ttl (but alive) worker can be
double-executed -- results are content-addressed, so that race wastes work
but never corrupts the store.

Locking is advisory (``flock`` where available, a lock-directory spin
otherwise), scoped to one lock file per store (:data:`LOCK_FILENAME`), and
granular: reads never lock (publishes are atomic renames); only the
claim/publish/release bookkeeping and store maintenance serialise on it.
:func:`store_lock` is the maintenance entry point ``cache clear`` / ``cache
prune`` use so that evicting entries from a live shared store cannot
interleave with a worker's publish.
"""

from __future__ import annotations

import json
import os
import re
import socket
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, ContextManager, Iterator

from repro.api.cache import CacheEntry
from repro.api.results import ResultSet
from repro.obs.trace import current_carrier

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

ENTRY_PATTERN = re.compile(r"(?P<experiment>.+)-(?P<key>[0-9a-f]{16})\.json$")
"""Name of one result entry: ``<experiment>-<first 16 hex of key>.json``."""

LOCK_FILENAME = ".repro-store.lock"
"""Name of the advisory lock file inside a store directory."""

POLL_INTERVAL = 0.05
"""Seconds between retries of a blocked store-lock acquisition."""

LEASE_SUFFIX = ".lease"
"""Appended to an entry path to form its claim-lease file."""

FAILED_SUFFIX = ".failed"
"""Appended to an entry path to form its failure-tombstone file.

A worker whose point raises releases the lease *and* records the failure as
a tombstone, so operators can see what failed (and why) after every worker
has exited.  Tombstones are diagnostic residue, not state: claims ignore
them, a later successful publish removes them, and ``python -m repro cache
prune --gc`` (:meth:`SharedStore.collect_garbage`) garbage-collects them."""

DEFAULT_LEASE_TTL = 300.0
"""Default claim lease in seconds; must exceed the slowest single point."""

# Claim outcomes (see SharedStore.claim / SharedStore.claim_many).
CLAIM_ACQUIRED = "acquired"
CLAIM_DONE = "done"
CLAIM_BUSY = "busy"
CLAIM_SKIPPED = "skipped"
"""``claim_many`` only: the path was not examined because ``max_acquire``
leases were already granted in this call.  The point is neither done nor
busy as far as the caller knows -- retry it on a later round trip."""


class StoreLockTimeout(TimeoutError):
    """The store lock could not be acquired within the requested timeout."""


def default_worker_id() -> str:
    """A worker identity unique per process: ``<hostname>-<pid>``."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _flock_acquire(handle, path: str, timeout: float | None) -> None:
    if timeout is None:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        return
    deadline = time.monotonic() + timeout
    while True:
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            return
        except OSError:
            if time.monotonic() >= deadline:
                raise StoreLockTimeout(
                    f"store lock {path} not acquired within {timeout:.3f} s"
                ) from None
            time.sleep(POLL_INTERVAL)


STALE_LOCKDIR_SECONDS = 300.0
"""Age after which the mkdir-fallback lock of a crashed holder is broken.

``flock`` locks die with their process; a lock *directory* does not, so the
fallback needs explicit stale-lock recovery or one crashed holder would
deadlock every worker and all cache maintenance forever.  Must comfortably
exceed the longest critical section (they are all O(one file write))."""


def _lockdir_acquire(path: str, timeout: float | None) -> None:
    # Portable fallback: mkdir is atomic on every filesystem worth using.
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        try:
            os.mkdir(path)
            return
        except FileExistsError:
            try:
                if time.time() - os.stat(path).st_mtime > STALE_LOCKDIR_SECONDS:
                    # Crashed holder: break the lock.  A racing breaker just
                    # sees the rmdir fail / mkdir race and keeps looping.
                    os.rmdir(path)
                    continue
            except OSError:
                pass  # removed concurrently: loop and try mkdir again
            if deadline is not None and time.monotonic() >= deadline:
                raise StoreLockTimeout(
                    f"store lock {path} not acquired within {timeout:.3f} s"
                ) from None
            time.sleep(POLL_INTERVAL)


@contextmanager
def store_lock(directory: str, timeout: float | None = None) -> Iterator[None]:
    """Exclusive advisory lock over a store directory.

    Serialises claim/publish bookkeeping and maintenance (``cache clear`` /
    ``cache prune``) across processes and machines sharing the directory.
    ``timeout=None`` blocks until acquired; otherwise
    :class:`StoreLockTimeout` is raised after ``timeout`` seconds.  The lock
    is *not* reentrant -- do not nest.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, LOCK_FILENAME)
    if fcntl is not None:
        handle = open(path, "a+")
        try:
            _flock_acquire(handle, path, timeout)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            handle.close()
    else:  # pragma: no cover - exercised only on platforms without fcntl
        lockdir = path + ".d"
        _lockdir_acquire(lockdir, timeout)
        try:
            yield
        finally:
            try:
                os.rmdir(lockdir)
            except OSError:
                pass


def _atomic_write(directory: str, path: str, text: str, fsync: bool = False) -> None:
    """Write ``text`` to ``path`` atomically (tmp file + ``os.replace``).

    The final name only ever points at a fully written file; ``fsync``
    additionally forces the data to disk before the rename publishes it.
    A failed write cleans its temp file up and re-raises.
    """
    handle = tempfile.NamedTemporaryFile("w", dir=directory, suffix=".tmp", delete=False)
    try:
        handle.write(text)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
        handle.close()
        os.replace(handle.name, path)
    except BaseException:
        handle.close()
        if os.path.exists(handle.name):
            os.unlink(handle.name)
        raise


@dataclass(frozen=True)
class Lease:
    """One worker's temporary claim on a pending store entry.

    ``trace`` optionally carries the claiming worker's tracing carrier
    (see :func:`repro.obs.current_carrier`), so a crashed worker's lease
    still names the trace its point belonged to.
    """

    path: str
    worker: str
    claimed_at: float
    expires_at: float
    pid: int | None = None
    trace: dict[str, Any] | None = None

    def expired(self, now: float | None = None) -> bool:
        """Whether the lease has lapsed (its point is claimable again)."""
        return (time.time() if now is None else now) >= self.expires_at

    @property
    def entry_path(self) -> str:
        """Path of the result entry this lease guards."""
        return self.path[: -len(LEASE_SUFFIX)]


class ResultStore:
    """The engine's result layout: entry naming and lock-free reads.

    A store is rooted at ``directory`` (for
    :class:`~repro.dist.sqlstore.SqliteStore`, the database file) and names
    each entry by :data:`ENTRY_PATTERN`.  The base class implements the
    read side over a directory; the concrete stores -- :class:`SharedStore`
    and :class:`~repro.dist.sqlstore.SqliteStore` -- add ``publish`` and the
    coordination the engine, workers and daemons execute through:
    ``claim`` / ``claim_many`` (lease a pending entry), ``release``,
    ``renew`` (heartbeat), ``record_failure`` (tombstone), ``lock``
    (maintenance) and ``collect_garbage``.
    """

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.directory!r})"

    # --- layout -----------------------------------------------------------

    def entry_path(self, experiment: str, key: str) -> str:
        """Path of the entry for one content-addressed cache key."""
        return os.path.join(self.directory, f"{experiment}-{key[:16]}.json")

    # --- result I/O -------------------------------------------------------

    def load(self, path: str) -> ResultSet | None:
        """Read one entry; ``None`` for missing or corrupt files.

        Reads never lock: publishes are atomic renames, so a reader only
        ever sees a complete entry or none at all.
        """
        if not os.path.exists(path):
            return None
        try:
            return ResultSet.from_json(path)
        except (ValueError, KeyError, json.JSONDecodeError):
            return None  # corrupt entry: callers recompute and overwrite

    # --- maintenance / inspection -------------------------------------------
    #
    # The maintenance surface (``cache stats/clear/prune``, queries, queue
    # GC) talks to these methods instead of walking the directory itself, so
    # backends with a different physical layout (:class:`SqliteStore`)
    # inherit every maintenance tool for free.

    def exists(self, path: str) -> bool:
        """Whether an entry or bookkeeping document exists at ``path``."""
        return os.path.exists(path)

    def entries(self, read_meta: bool = True) -> list[CacheEntry]:
        """This store's entries, sorted by path.

        A missing directory has no entries.  Files not named like an entry
        are ignored; entries whose JSON cannot be read still appear, with
        ``version``/``params`` of ``None``.  ``read_meta=False`` skips
        parsing the payloads (they can be large) for callers that only need
        the inventory.
        """
        if not os.path.isdir(self.directory):
            return []
        found: list[CacheEntry] = []
        for filename in sorted(os.listdir(self.directory)):
            match = ENTRY_PATTERN.fullmatch(filename)
            if match is None:
                continue
            path = os.path.join(self.directory, filename)
            try:
                stat = os.stat(path)
            except OSError:
                continue  # deleted concurrently
            version: str | None = None
            params: dict[str, Any] | None = None
            if read_meta:
                try:
                    with open(path) as handle:
                        meta = json.load(handle).get("meta", {})
                    version = meta.get("version")
                    params = meta.get("params")
                except (OSError, json.JSONDecodeError, AttributeError):
                    pass  # corrupt entry: keep it listed so prune/clear can remove it
            found.append(
                CacheEntry(
                    path=path,
                    experiment=match.group("experiment"),
                    key=match.group("key"),
                    version=version,
                    params=params,
                    size_bytes=stat.st_size,
                    mtime=stat.st_mtime,
                )
            )
        return found

    def remove_entries(self, paths: list[str]) -> int:
        """Delete entries plus their lease/tombstone bookkeeping.

        Returns the number of entries actually removed.  A leftover lease
        would make an evicted point look claimed; a leftover tombstone would
        report a failure for a point that no longer exists -- both die with
        the entry.
        """
        removed = 0
        for path in paths:
            try:
                os.unlink(path)
                removed += 1
            except FileNotFoundError:
                pass  # deleted concurrently: already gone is fine
            for suffix in (LEASE_SUFFIX, FAILED_SUFFIX):
                try:
                    os.unlink(path + suffix)
                except FileNotFoundError:
                    pass
        return removed


class SharedStore(ResultStore):
    """The directory store, race-safe for any number of workers.

    Adds to the :class:`ResultStore` layout:

    * an advisory store lock (:meth:`lock`) serialising all bookkeeping,
    * lease-based claims: :meth:`claim` grants a point to one worker for
      ``ttl`` seconds, recorded in an ``<entry>.json.lease`` file written
      atomically under the lock.  Expired leases (dead workers) are taken
      over transparently; re-claiming one's own lease renews it.
    * locked publish: the atomic result write and the lease removal happen
      under the store lock, so maintenance (``cache prune``) never observes
      half-updated bookkeeping.
    """

    def lock(self, timeout: float | None = None) -> ContextManager[None]:
        """Maintenance lock over the whole store (see :func:`store_lock`)."""
        return store_lock(self.directory, timeout=timeout)

    # --- leases -----------------------------------------------------------

    def _lease_path(self, path: str) -> str:
        return path + LEASE_SUFFIX

    def read_lease(self, path: str) -> Lease | None:
        """The current lease of an entry, or ``None`` (corrupt counts as none)."""
        lease_path = self._lease_path(path)
        try:
            with open(lease_path) as handle:
                payload = json.load(handle)
            trace = payload.get("trace")
            return Lease(
                path=lease_path,
                worker=str(payload["worker"]),
                claimed_at=float(payload["claimed_at"]),
                expires_at=float(payload["expires_at"]),
                pid=payload.get("pid"),
                trace=trace if isinstance(trace, dict) else None,
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None  # missing or corrupt lease: the point is claimable

    def _write_lease(self, path: str, worker_id: str, now: float, ttl: float) -> None:
        payload: dict[str, Any] = {
            "worker": worker_id,
            "claimed_at": now,
            "expires_at": now + ttl,
            "pid": os.getpid(),
        }
        carrier = current_carrier()
        if carrier is not None:
            # Lease metadata never feeds cache keys or content hashes, so
            # the trace context is free to ride along with the claim.
            payload["trace"] = carrier
        _atomic_write(self.directory, self._lease_path(path), json.dumps(payload))

    def _unlink_lease(self, path: str) -> None:
        try:
            os.unlink(self._lease_path(path))
        except FileNotFoundError:
            pass

    def leases(self, now: float | None = None) -> list[Lease]:
        """All current lease files, sorted by path (expired ones included)."""
        if not os.path.isdir(self.directory):
            return []
        found = []
        for filename in sorted(os.listdir(self.directory)):
            if not filename.endswith(".json" + LEASE_SUFFIX):
                continue
            lease = self.read_lease(
                os.path.join(self.directory, filename[: -len(LEASE_SUFFIX)])
            )
            if lease is not None:
                found.append(lease)
        return found

    # --- coordination -----------------------------------------------------

    def claim(self, path: str, worker_id: str, ttl: float = DEFAULT_LEASE_TTL) -> str:
        """Try to claim one pending entry for execution.

        Returns :data:`CLAIM_DONE` when a *loadable* result already exists
        (a corrupt entry counts as absent, so it gets recomputed instead of
        being skipped forever), :data:`CLAIM_ACQUIRED` when the caller
        should execute the point, or :data:`CLAIM_BUSY` when another live
        worker holds the lease.
        """
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        while True:
            with self.lock():
                if not os.path.exists(path):
                    lease = self.read_lease(path)
                    now = time.time()
                    if (
                        lease is not None
                        and lease.worker != worker_id
                        and not lease.expired(now)
                    ):
                        return CLAIM_BUSY
                    # Fresh point, our own lease (renewal), or a stale lease
                    # left by a dead worker: take (over) the point.
                    self._write_lease(path, worker_id, now, ttl)
                    return CLAIM_ACQUIRED
            # An entry exists.  Validate it *outside* the lock -- published
            # entries are immutable, so a successful parse at any time means
            # done, and N workers must not serialise on JSON parsing.
            if self.load(path) is not None:
                return CLAIM_DONE
            # Corrupt entry: dispose of it and loop back to take the lease.
            # Re-validate under the lock so a concurrent publish that just
            # replaced the torn file with a good one is never deleted.
            with self.lock():
                if os.path.exists(path) and self.load(path) is None:
                    os.unlink(path)

    def claim_many(
        self,
        paths: list[str],
        worker_id: str,
        ttl: float = DEFAULT_LEASE_TTL,
        max_acquire: int | None = None,
    ) -> list[str]:
        """Batch claim under a *single* lock acquisition per pass.

        Returns one claim outcome per path, in order: the :meth:`claim`
        statuses plus :data:`CLAIM_SKIPPED` for paths not examined because
        ``max_acquire`` leases were already granted.  The per-path
        decisions are identical to :meth:`claim`; what changes
        is the cost model -- N pending points are leased with one
        lock/unlock round trip instead of N, which is what makes worker
        dispatch overhead independent of sweep size.  Entry validation
        still happens outside the lock (published entries are immutable,
        and N workers must not serialise on JSON parsing); corrupt entries
        are disposed of and re-examined on a follow-up pass, exactly like
        the single-point loop.
        """
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        statuses: list[str | None] = [None] * len(paths)
        pending = list(range(len(paths)))
        acquired = 0
        while pending:
            revisit: list[int] = []  # entries on disk: validate outside the lock
            with self.lock():
                now = time.time()
                for index in pending:
                    path = paths[index]
                    if max_acquire is not None and acquired >= max_acquire:
                        statuses[index] = CLAIM_SKIPPED
                        continue
                    if os.path.exists(path):
                        revisit.append(index)
                        continue
                    lease = self.read_lease(path)
                    if (
                        lease is not None
                        and lease.worker != worker_id
                        and not lease.expired(now)
                    ):
                        statuses[index] = CLAIM_BUSY
                        continue
                    self._write_lease(path, worker_id, now, ttl)
                    statuses[index] = CLAIM_ACQUIRED
                    acquired += 1
            corrupt: list[int] = []
            for index in revisit:
                if self.load(paths[index]) is not None:
                    statuses[index] = CLAIM_DONE
                else:
                    corrupt.append(index)
            if corrupt:
                # Dispose of torn entries under the lock (re-validated there,
                # so a concurrent good publish is never deleted), then loop
                # back to lease them.
                with self.lock():
                    for index in corrupt:
                        path = paths[index]
                        if os.path.exists(path) and self.load(path) is None:
                            os.unlink(path)
            pending = corrupt
        return [status for status in statuses if status is not None]

    def publish(self, path: str, result: ResultSet) -> None:
        """Atomically write one entry and clear its lease and tombstone.

        A crashed publish never leaves a truncated or corrupt entry behind:
        the final name only ever points at a fully written, synced file.
        """
        self._publish_text(path, result.to_json())

    def _publish_text(self, path: str, text: str) -> None:
        with self.lock():
            _atomic_write(self.directory, path, text, fsync=True)
            self._unlink_lease(path)
            # A successful result supersedes any earlier failure of the point.
            try:
                os.unlink(path + FAILED_SUFFIX)
            except FileNotFoundError:
                pass

    def release(self, path: str, worker_id: str) -> None:
        with self.lock():
            lease = self.read_lease(path)
            if lease is not None and lease.worker == worker_id:
                self._unlink_lease(path)

    def renew(self, path: str, worker_id: str, ttl: float = DEFAULT_LEASE_TTL) -> bool:
        """Heartbeat: push one's own lease expiry ``ttl`` seconds out.

        Returns False -- without touching anything -- when the lease is gone
        or owned by another worker (the point was published, pruned, or taken
        over after an expiry); the caller should treat its execution as
        potentially duplicated but must not extend a foreign lease.
        """
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        with self.lock():
            lease = self.read_lease(path)
            if lease is None or lease.worker != worker_id or os.path.exists(path):
                return False
            self._write_lease(path, worker_id, time.time(), ttl)
            return True

    def record_failure(self, path: str, worker_id: str, error: str) -> None:
        """Write the failure tombstone of a pending entry (atomic, locked)."""
        payload = {
            "worker": worker_id,
            "error": str(error),
            "failed_at": time.time(),
        }
        with self.lock():
            if os.path.exists(path):
                return  # someone published a good result meanwhile
            _atomic_write(self.directory, path + FAILED_SUFFIX, json.dumps(payload))

    def failures(self) -> list[dict]:
        """All failure tombstones (path, worker, error, failed_at), by path."""
        if not os.path.isdir(self.directory):
            return []
        found = []
        for filename in sorted(os.listdir(self.directory)):
            if not filename.endswith(".json" + FAILED_SUFFIX):
                continue
            tombstone = os.path.join(self.directory, filename)
            try:
                with open(tombstone) as handle:
                    payload = json.load(handle)
            except (OSError, ValueError):
                continue  # torn or concurrently removed: nothing to report
            payload["path"] = tombstone
            found.append(payload)
        return found

    def collect_garbage(
        self,
        now: float | None = None,
        dry_run: bool = False,
        keep_pending_failures: bool = False,
    ) -> list[str]:
        """Collect crashed-worker residue; returns the disposed paths.

        Removes failure tombstones and the claim leases that are expired
        (their worker died mid-point), corrupt, or attached to an entry that
        already exists.  Live, unexpired leases of pending entries are never
        touched, so GC is safe against running workers.  With
        ``keep_pending_failures`` a tombstone whose entry is still absent is
        preserved -- :class:`repro.service.queue.SpecQueue` uses that mode
        because its tombstones *are* the failed-job state.
        """
        if not os.path.isdir(self.directory):
            return []
        timestamp = time.time() if now is None else now

        def collect() -> list[str]:
            stale: list[str] = []
            for filename in sorted(os.listdir(self.directory)):
                path = os.path.join(self.directory, filename)
                if filename.endswith(".json" + FAILED_SUFFIX):
                    entry_path = path[: -len(FAILED_SUFFIX)]
                    if not keep_pending_failures or os.path.exists(entry_path):
                        stale.append(path)
                    continue
                if not filename.endswith(".json" + LEASE_SUFFIX):
                    continue
                entry_path = path[: -len(LEASE_SUFFIX)]
                lease = self.read_lease(entry_path)
                if (
                    lease is None  # corrupt lease: the point is claimable anyway
                    or lease.expired(timestamp)
                    or os.path.exists(entry_path)  # published: lease is vestigial
                ):
                    stale.append(path)
            return stale

        if dry_run:
            return collect()
        with self.lock():
            stale = collect()
            for path in stale:
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass  # removed concurrently: already gone is fine
        return stale

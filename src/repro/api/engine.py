"""Execution engine: serial / pooled experiment runs with on-disk memoisation.

The :class:`Engine` is the single entry point that turns a registered
:class:`~repro.api.experiment.Experiment` plus parameters into a
:class:`~repro.api.results.ResultSet`:

* ``run(name, **params)`` -- one experiment execution,
* ``sweep(name, spec)`` -- fan a :class:`~repro.api.sweep.SweepSpec` out over
  the experiment, serially, through a ``concurrent.futures`` thread/process
  pool with per-point future submission (optionally chunked), or through the
  ``batch`` executor, which hands all pending points of an experiment that
  declares a ``batch_fn`` to one stacked evaluation
  (:meth:`~repro.api.experiment.Experiment.run_batch`) and falls back to
  point-by-point execution otherwise,
* ``iter_sweep(name, spec)`` -- the streaming form of ``sweep``: a generator
  yielding one :class:`SweepPoint` per sweep point *as it completes* (cache
  hits first, then executed points in completion order), so callers can
  render progress or consume partial results while the sweep is running.

``sweep`` is built on ``iter_sweep`` and accepts an ``on_result`` callback
invoked once per completed point.  A point whose experiment raises no longer
aborts the whole fan-out: the remaining points still execute, completed
points stay cached, and ``sweep`` raises :class:`SweepError` carrying the
partial :class:`ResultSet`.

``run``, ``iter_sweep`` and every upstream stage share one memoised
invocation path, :meth:`Engine._stage`: look the invocation up in the
call's memo and then in the store, execute what is left through the
configured executor, publish and memoise.  A ``run`` is a stage of one
invocation, executed inline.  The distributed worker
(:func:`repro.dist.worker.run_worker`) executes and publishes the points
it leased through the same tail, :meth:`Engine._execute_and_publish`.

Composite experiments (a non-empty ``consumes`` declaration, see
:mod:`repro.api.study`) execute as *staged pipelines*: the engine first runs
the distinct upstream invocations the stage needs (deduplicated through the
parameter bindings, fanned out through the same executor), then injects the
upstream ResultSets into the downstream calls.  ``run_study`` executes a
registered :class:`~repro.api.study.Study` the same way.

Caching is content-addressed: the key is a SHA-256 over (experiment name,
experiment version, canonicalised parameters), so identical invocations are
served from disk regardless of execution mode.  For composite experiments
the key additionally chains the *content hashes* of the consumed upstream
ResultSets, so changing an upstream parameter invalidates exactly the
dependent downstream entries while downstream-only changes replay every
upstream stage from cache.  Result I/O goes through a
pluggable :class:`~repro.dist.store.ResultStore` -- ``store=`` takes a
directory path (a :class:`~repro.dist.store.SharedStore`, safe to share
between machines; see :mod:`repro.dist`), a ``sqlite:///path.db`` URL or a
store instance.  All cache I/O happens in the coordinating process -- pool
workers only compute.  Cache inspection and eviction live in
:mod:`repro.api.cache` (``python -m repro cache`` on the shell).

Sweeps can additionally be statically partitioned across machines with a
:class:`~repro.dist.shards.ShardPlan` (``sweep(..., shard=plan)`` runs only
the plan's slice); :func:`repro.dist.shards.merge_results` reassembles the
partial ResultSets.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

from repro.api.experiment import Experiment, ensure_registered, get_experiment
from repro.api.results import ResultSet
from repro.api.sweep import SweepSpec
from repro.obs import metrics
from repro.obs.trace import activate_carrier, current_carrier, trace_span

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.api.study import Study
    from repro.dist.shards import ShardPlan
    from repro.dist.store import ResultStore

EXECUTORS = ("serial", "thread", "process", "batch")

TARGET_CHUNK_SECONDS = 0.25
"""Per-pool-task compute budget ``chunk_size="auto"`` aims for.

Large enough that a chunk's pickling/dispatch overhead (sub-millisecond) is
noise, small enough that streaming consumers still see results at a useful
cadence and the pool stays load-balanced."""

# Per-stage parameter overrides, keyed by experiment name (a Study's params).
StageParams = Mapping[str, Mapping[str, Any]]


def cache_key(
    name: str,
    version: str,
    params: Mapping[str, Any],
    upstream: Mapping[str, str] | None = None,
) -> str:
    """Content-addressed key of one experiment invocation.

    ``upstream`` maps each consumed artifact's inject name to the *content
    hash* of the upstream ResultSet it was produced from; including it chains
    invalidation through the pipeline.  An empty/absent mapping keeps the key
    byte-identical to the historical three-field key, so caches written
    before pipelines existed stay valid.
    """
    body: dict[str, Any] = {"experiment": name, "version": version, "params": params}
    if upstream:
        body["upstream"] = dict(upstream)
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# A failed invocation's error: the exception itself when it ran in this
# process (so ``run`` re-raises it unchanged), its ``"Type: message"`` text
# when it ran in a process-pool worker (exceptions need not pickle).
_Error = BaseException | str

# One executed invocation: (records, error, wall time, profile block or
# None).  ``records`` is None exactly when ``error`` is set.  The profile
# block (``profile=True`` engines only) carries the invocation's
# ``wall_s`` / ``solve_s`` / ``dispatch_s`` split.
_Outcome = tuple[list[dict[str, Any]] | None, _Error | None, float, dict[str, float] | None]

# One executable unit: (resolved params, injected upstream artifacts).
_Task = tuple[dict[str, Any], dict[str, Any]]

# An in-run memo: invocation digest -> its ResultSet or its failure.
_Memo = dict[str, "ResultSet | _Error"]


def _error_text(error: _Error) -> str:
    """The ``"ExceptionType: message"`` text a failure is reported with."""
    return error if isinstance(error, str) else f"{type(error).__name__}: {error}"


def _as_exception(error: _Error) -> BaseException:
    """The exception to raise for a failure (text becomes :class:`UpstreamFailure`)."""
    return error if isinstance(error, BaseException) else UpstreamFailure(error)


def _solve_profile(profile: bool) -> Any:
    """``profiled_solves()`` when profiling, else a no-op yielding None."""
    if not profile:
        return nullcontext()
    from repro.circuit.compiled import profiled_solves

    return profiled_solves()


def _run_outcomes(
    experiment: Experiment,
    tasks: list[_Task],
    profile: bool = False,
    carrier: Mapping[str, Any] | None = None,
) -> list[_Outcome]:
    """Run tasks one by one, capturing per-task failures.

    An exception in one point must not poison its siblings (that is the
    partial-failure guarantee of ``sweep``), so each point's exception is
    caught and returned as data rather than raised.  With ``profile=True``
    each execution is wrapped in
    :func:`repro.circuit.compiled.profiled_solves` so the outcome carries
    the point's solver wall time.

    ``carrier`` is the tracing context of the submitting process
    (:func:`repro.obs.current_carrier`): contextvars do not cross pool
    boundaries -- thread or process -- so the span ancestry rides along
    in the call instead, and each point records an ``engine.point`` span
    under the submitter's span.
    """
    outcomes: list[_Outcome] = []
    with activate_carrier(carrier):
        for params, inputs in tasks:
            start = time.perf_counter()
            with trace_span("engine.point", experiment=experiment.name) as span:
                try:
                    with _solve_profile(profile) as accumulator:
                        records = experiment.run_with_inputs(inputs, params)
                except Exception as error:
                    span.set("error", _error_text(error))
                    outcomes.append((None, error, time.perf_counter() - start, None))
                else:
                    prof = None if accumulator is None else dict(accumulator)
                    outcomes.append((records, None, time.perf_counter() - start, prof))
    return outcomes


def _execute_chunk(
    name: str,
    tasks: list[_Task],
    profile: bool = False,
    carrier: Mapping[str, Any] | None = None,
) -> list[_Outcome]:
    """Run a chunk of sweep tasks in one pool task (amortises dispatch cost).

    Importable (not a closure) so process pools can pickle it; the worker
    rebuilds the registry by name via :func:`ensure_registered`.  Injected
    upstream ResultSets travel inside the task tuples (they pickle as plain
    columns + meta), so pool workers never touch the cache.  Errors come
    back as their ``"Type: message"`` text, which always pickles.
    """
    ensure_registered()
    outcomes = _run_outcomes(get_experiment(name), tasks, profile, carrier)
    return [
        (records, None if error is None else _error_text(error), elapsed, prof)
        for records, error, elapsed, prof in outcomes
    ]


@dataclass(frozen=True)
class SweepPoint:
    """One sweep point's outcome, yielded by :meth:`Engine.iter_sweep`.

    Attributes
    ----------
    index:
        Position of the point in ``spec.points()`` order (the order the
        combined ResultSet is assembled in, regardless of completion order).
    point:
        The sweep-axis overrides of this point (what tags its records).
    params:
        The fully resolved parameter dict the experiment ran with.
    result:
        The point's :class:`ResultSet`, or ``None`` if the point failed.
    error:
        ``"ExceptionType: message"`` when the experiment raised, else ``None``.
    cache_hit:
        True when the result was served from the on-disk cache.
    """

    index: int
    point: dict[str, Any]
    params: dict[str, Any]
    result: ResultSet | None
    error: str | None = None
    cache_hit: bool = False

    @property
    def ok(self) -> bool:
        """Whether the point completed without error."""
        return self.error is None


class UpstreamFailure(RuntimeError):
    """A memoised failure that reached this process only as text.

    A failed invocation is memoised so every dependent downstream point
    reports the error *without re-executing* the doomed stage.  In-process
    failures keep their exception, which is re-raised as is; a failure
    computed in a process-pool worker is known only by its
    ``ExceptionType: message`` text, and raises as this type carrying it.
    """


class SweepError(RuntimeError):
    """One or more sweep points failed; the completed points are preserved.

    Attributes
    ----------
    partial:
        :class:`ResultSet` of every *completed* point, assembled exactly as
        the successful return value would have been (completed points are
        also already in the cache, so a re-run pays only for the failures).
    failures:
        The failed :class:`SweepPoint` objects, in sweep order.
    """

    def __init__(self, message: str, partial: ResultSet, failures: list[SweepPoint]):
        super().__init__(message)
        self.partial = partial
        self.failures = failures


class Engine:
    """Executes experiments and sweeps, with optional memoisation.

    Parameters
    ----------
    store:
        The result store to memoise through; ``None`` (default) disables
        caching.  A string is resolved like the CLI's ``--store`` option
        (:func:`~repro.dist.sqlstore.resolve_store`): a directory path
        opens a :class:`~repro.dist.store.SharedStore` (created on first
        write, safe to share with distributed workers writing into it
        concurrently), ``"sqlite:///cache.db"`` a
        :class:`~repro.dist.sqlstore.SqliteStore`.  A
        :class:`~repro.dist.store.ResultStore` instance is used as is.
    executor:
        ``"serial"`` (default), ``"thread"``, ``"process"`` or ``"batch"``
        -- how sweep points are fanned out.  ``"batch"`` executes in the
        coordinating process like ``"serial"``, but routes every pending
        point of an experiment that declares a ``batch_fn`` through one
        stacked :meth:`~repro.api.experiment.Experiment.run_batch` call
        (points of experiments without one, and points needing injected
        upstream artifacts, run point by point).  Single ``run`` calls
        always execute inline (under ``"batch"``, as a batch of one).
    max_workers:
        Pool size for the parallel executors (default: ``os.cpu_count()``).
    chunk_size:
        Sweep points per pool task.  ``None`` (default) submits one future
        per point, which is what lets :meth:`iter_sweep` stream
        point-granularly under the pooled executors (the process pool
        pre-imports the registry through a worker initializer, so the
        per-task dispatch cost stays small).  Set a larger value to batch
        very cheap points and amortise pickling overhead, or ``"auto"`` to
        size chunks from the measured per-point cost (targeting
        :data:`TARGET_CHUNK_SECONDS` of compute per pool task, capped so
        every worker still gets several chunks).  Under the ``batch``
        executor ``None``/``"auto"`` stack *all* pending batchable points
        into one evaluation and an integer caps the stack size.
    profile:
        When True, every executed invocation's ResultSet -- a ``run``, a
        sweep point or an upstream stage of either -- records a
        ``meta["profile"]`` block splitting its cost into ``wall_s``
        (experiment execution), ``solve_s`` (time inside the compiled MNA
        solver; in-process executors only) and ``dispatch_s`` (executor
        queueing/dispatch overhead share), and ``sweep`` adds an aggregated
        block to the combined ResultSet's meta.  Profile blocks live in
        meta, so content hashes and cache keys are unaffected.

    ``run`` and ``sweep`` share one memoised invocation path: each stage of
    invocations is served from the call's memo, then from the store, and
    only the rest executes (through the executor; a ``run`` inline) and is
    published.  Cache counters, the ``repro_points_executed_total`` metric
    and profile blocks therefore mean the same thing for both.

    Pools are kept warm: consecutive sweeps through one engine reuse the
    executor pool instead of re-spawning workers per call.  ``close()``
    (or using the engine as a context manager) shuts the pools down.
    """

    def __init__(
        self,
        store: "ResultStore | str | None" = None,
        executor: str = "serial",
        max_workers: int | None = None,
        chunk_size: int | str | None = None,
        profile: bool = False,
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(f"unknown executor {executor!r}; use one of {EXECUTORS}")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive")
        if isinstance(chunk_size, str):
            if chunk_size != "auto":
                raise ValueError(
                    f"chunk_size must be a positive int, None or 'auto', got {chunk_size!r}"
                )
        elif chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if store is not None:
            from repro.dist.sqlstore import resolve_store

            store = resolve_store(store)
        self.store = store
        self.executor = executor
        self.max_workers = max_workers or os.cpu_count() or 1
        self.chunk_size = chunk_size
        self.profile = profile
        self.cache_hits = 0
        self.cache_misses = 0
        # Warm executor pools, keyed by kind ("thread"/"process"), with the
        # worker count they were created at; see _get_pool.
        self._pools: dict[str, tuple[Any, int]] = {}
        # Exponential moving average of the per-point wall time, feeding
        # chunk_size="auto".
        self._point_cost_ema: float | None = None

    # --- pool lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Shut down any warm executor pools (idempotent)."""
        pools, self._pools = self._pools, {}
        for pool, _ in pools.values():
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            for pool, _ in self._pools.values():
                pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def _get_pool(self, workers: int) -> Any:
        """The warm pool for the current executor, (re)built when too small.

        Re-dispatching through one long-lived pool is what removes the
        per-sweep worker spawn cost (process fork + registry import) that
        used to make many small ``iter_sweep`` calls slower than serial
        execution.  A cached pool is reused whenever it has at least the
        requested worker count; a too-small one is replaced.
        """
        cached = self._pools.get(self.executor)
        if cached is not None and cached[1] >= workers:
            return cached[0]
        if cached is not None:
            cached[0].shutdown(wait=False, cancel_futures=True)
        if self.executor == "thread":
            pool: Any = ThreadPoolExecutor(max_workers=workers)
        else:
            # Import the registry once per worker at startup instead of per
            # submitted task -- with per-point futures the task count equals
            # the point count, so per-task work must stay minimal.
            pool = ProcessPoolExecutor(max_workers=workers, initializer=ensure_registered)
        self._pools[self.executor] = (pool, workers)
        return pool

    def _observe_point_cost(self, elapsed: float) -> None:
        """Feed one executed point's wall time into the auto-chunk EMA."""
        if self._point_cost_ema is None:
            self._point_cost_ema = elapsed
        else:
            self._point_cost_ema = 0.5 * self._point_cost_ema + 0.5 * elapsed

    def _finalize_outcome(self, outcome: _Outcome, dispatch_s: float) -> _Outcome:
        """Account one executed invocation; attach its profile block if profiling.

        Every executed invocation -- sweep point, ``run`` or upstream stage,
        under every executor -- passes through here exactly once.
        """
        records, error, elapsed, prof = outcome
        self._observe_point_cost(elapsed)
        metrics.counter("repro_points_executed_total", executor=self.executor).inc()
        metrics.histogram("repro_point_wall_seconds").observe(elapsed)
        if not self.profile:
            return (records, error, elapsed, None)
        profile = {
            "wall_s": elapsed,
            "solve_s": (prof or {}).get("solve_s", 0.0),
            "dispatch_s": dispatch_s,
        }
        return (records, error, elapsed, profile)

    # --- cache ------------------------------------------------------------

    def _count_cache(self, outcome: str, n: int = 1) -> None:
        """Bump both the engine's own counters and the shared cache metric."""
        if outcome == "hit":
            self.cache_hits += n
        else:
            self.cache_misses += n
        metrics.counter("repro_cache_events_total", outcome=outcome).inc(n)

    def _cache_path(
        self,
        experiment: Experiment,
        params: Mapping[str, Any],
        upstream: Mapping[str, str] | None = None,
        key: str | None = None,
    ) -> str | None:
        """Store entry of one invocation (None without a store).

        ``key`` is the invocation's upstream-free digest when the caller
        already has it: for a self-contained invocation it *is* the cache
        key, so it is not hashed twice.
        """
        if self.store is None:
            return None
        if upstream or key is None:
            key = cache_key(experiment.name, experiment.version, params, upstream)
        return self.store.entry_path(experiment.name, key)

    def _cache_load(self, path: str | None) -> ResultSet | None:
        if path is None:
            return None
        result = self.store.load(path)
        if result is None:
            return None  # missing or corrupt entry: recompute and overwrite
        result.meta["cache_hit"] = True
        return result

    def _cache_store(self, path: str | None, result: ResultSet) -> None:
        if path is None:
            return
        # The store publishes atomically (tmp file + fsync + os.replace, or
        # one sqlite transaction), so a crashed run never leaves a truncated
        # or corrupt entry behind, and clears any claim lease on the entry.
        self.store.publish(path, result)

    def clear_cache(self) -> int:
        """Delete all cache entries; returns the number of files removed.

        Only files matching the engine's own ``<experiment>-<hash16>.json``
        naming are touched, so pointing ``store`` at a directory that
        also holds exported results cannot destroy them.  Finer-grained
        eviction (by experiment, version or age) lives in
        :func:`repro.api.cache.prune_cache`.
        """
        if self.store is None:
            return 0
        from repro.api.cache import clear_cache

        return clear_cache(self.store)

    # --- execution --------------------------------------------------------

    def run(
        self,
        name: str | Experiment,
        params: Mapping[str, Any] | None = None,
        use_cache: bool = True,
        stage_params: StageParams | None = None,
        **param_kwargs: Any,
    ) -> ResultSet:
        """Execute one experiment and return its :class:`ResultSet`.

        Parameters can be passed as a mapping, as keywords, or both
        (keywords win).  With a cache directory configured, a repeated
        invocation is served from disk (``meta["cache_hit"]`` is then True).
        A run is a stage of one invocation (see :meth:`_stage`), executed
        inline; an exception raised by the experiment, or by any upstream
        stage it needs, propagates unchanged.

        A composite experiment (non-empty ``consumes``) has its upstream
        dependencies resolved first -- recursively, memoised and cached like
        the run itself -- and their ResultSets injected into the call.
        ``stage_params`` carries per-experiment parameter overrides for the
        upstream stages (a study's ``params``); overrides for upstream
        parameters that are *bound* to this experiment's parameters are
        ignored in favour of the bound values.
        """
        experiment = name if isinstance(name, Experiment) else get_experiment(name)
        resolved = experiment.resolve_params({**(params or {}), **param_kwargs})
        with trace_span("engine.run", experiment=experiment.name):
            for _, result, error, _ in self._stage(
                experiment, [resolved], use_cache, stage_params, {}
            ):
                if error is not None:
                    raise _as_exception(error)
        return result

    def _stage(
        self,
        experiment: Experiment,
        invocations: list[dict[str, Any]],
        use_cache: bool,
        stage_params: StageParams | None,
        memo: _Memo,
    ) -> Iterator[tuple[int, ResultSet | None, _Error | None, bool]]:
        """Serve one stage of resolved invocations of ``experiment``.

        The one memoised invocation path behind :meth:`run`,
        :meth:`iter_sweep` and every upstream stage:

        1. for each dependency, the distinct bound upstream invocations of
           the not-yet-memoised ``invocations`` are staged first, through
           this same method -- so the deepest stage runs first and a pooled
           executor parallelises every stage, not just the last one;
        2. each remaining invocation is served from the store when it holds
           the entry, or executed through :meth:`_execute_pending`;
        3. every result and failure lands in ``memo`` (keyed by the
           upstream-free :func:`cache_key` digest), so an invocation shared
           by several downstream points -- a doomed one included -- executes
           once per engine call, with or without a store.

        Yields ``(slot, result, error, upstream_failed)`` for each
        invocation not already in ``memo`` -- cache hits and upstream
        failures first, in slot order, then executed invocations in
        completion order.  ``slot`` indexes ``invocations``;
        ``upstream_failed`` marks an error raised by an upstream stage (or
        by binding its parameters) rather than by ``experiment`` itself.
        """
        keys = [
            cache_key(experiment.name, experiment.version, params)
            for params in invocations
        ]
        todo = [slot for slot, key in enumerate(keys) if key not in memo]
        inputs, failures = self._stage_upstreams(
            experiment, [invocations[slot] for slot in todo], use_cache, stage_params, memo
        )

        pending: list[int] = []
        tasks: dict[int, _Task] = {}
        paths: dict[int, str | None] = {}
        upstream: dict[int, dict[str, str]] = {}
        for slot, slot_inputs, failure in zip(todo, inputs, failures):
            if failure is not None:
                memo[keys[slot]] = failure
                yield slot, None, failure, True
                continue
            hashes = {inject: result.content_hash for inject, result in slot_inputs.items()}
            path = (
                self._cache_path(experiment, invocations[slot], hashes, keys[slot])
                if use_cache
                else None
            )
            cached = self._cache_load(path)
            if cached is not None:
                self._count_cache("hit")
                memo[keys[slot]] = cached
                yield slot, cached, None, False
                continue
            pending.append(slot)
            tasks[slot] = (invocations[slot], slot_inputs)
            paths[slot] = path
            upstream[slot] = hashes
        if pending:
            self._count_cache("miss", len(pending))

        for slot, result, error in self._execute_and_publish(
            experiment, tasks, pending, paths, upstream
        ):
            memo[keys[slot]] = result if error is None else error
            yield slot, result, error, False

    def _execute_and_publish(
        self,
        experiment: Experiment,
        tasks: dict[int, _Task],
        pending: list[int],
        paths: Mapping[int, str | None],
        upstream: Mapping[int, Mapping[str, str]],
    ) -> Iterator[tuple[int, ResultSet | None, _Error | None]]:
        """Execute pending invocations, build their meta and publish them.

        The tail shared by :meth:`_stage` and the distributed worker
        (:func:`repro.dist.worker.run_worker`, which executes the points it
        leased through here): ``tasks`` maps each pending slot to its
        ``(resolved params, injected inputs)`` pair, ``paths`` to its store
        entry (None: do not publish) and ``upstream`` to the content hashes
        of its injected inputs.  Yields ``(slot, result, error)`` in
        completion order; exactly one of ``result`` and ``error`` is set.
        """
        for slot, (records, error, elapsed, prof) in self._execute_pending(
            experiment, tasks, pending
        ):
            if error is not None:
                yield slot, None, error
                continue
            meta = self._meta(experiment, tasks[slot][0], elapsed, upstream[slot])
            if prof is not None:
                meta["profile"] = prof
            result = ResultSet.from_records(records, meta=meta)
            self._cache_store(paths[slot], result)
            yield slot, result, None

    def _stage_upstreams(
        self,
        experiment: Experiment,
        invocations: list[dict[str, Any]],
        use_cache: bool,
        stage_params: StageParams | None,
        memo: _Memo,
    ) -> tuple[list[dict[str, ResultSet]], list[_Error | None]]:
        """Stage every dependency of ``experiment`` for ``invocations``.

        Returns, per invocation, the upstream ResultSets to inject (keyed by
        each dependency's ``inject`` name) and the first failure among its
        dependencies (declaration order), or None.  An upstream invocation's
        parameters are its defaults, overridden by ``stage_params`` for that
        experiment, overridden by the values bound from the invocation.
        Each dependency's bound invocations are deduplicated and staged
        through :meth:`_stage` before the next dependency.
        """
        inputs: list[dict[str, ResultSet]] = [{} for _ in invocations]
        failures: list[_Error | None] = [None] * len(invocations)
        for dep in experiment.consumes:
            upstream = get_experiment(dep.experiment)
            overrides = (stage_params or {}).get(dep.experiment, {})
            bound: dict[int, str] = {}
            distinct: dict[str, dict[str, Any]] = {}
            for slot, params in enumerate(invocations):
                try:
                    up_params = upstream.resolve_params(
                        {**overrides, **{up: params[down] for up, down in dep.bind.items()}}
                    )
                except Exception as error:
                    if failures[slot] is None:
                        failures[slot] = error
                    continue
                key = cache_key(upstream.name, upstream.version, up_params)
                bound[slot] = key
                distinct.setdefault(key, up_params)
            for _ in self._stage(
                upstream, list(distinct.values()), use_cache, stage_params, memo
            ):
                pass  # the stage memoises every outcome
            for slot, key in bound.items():
                outcome = memo[key]
                if isinstance(outcome, ResultSet):
                    inputs[slot][dep.inject] = outcome
                elif failures[slot] is None:
                    failures[slot] = outcome
        return inputs, failures

    def run_study(
        self,
        study: "Study | str",
        stage_params: StageParams | None = None,
        sweep: SweepSpec | None = None,
        shard: "ShardPlan | None" = None,
        use_cache: bool = True,
        on_result: Callable[[SweepPoint], None] | None = None,
    ) -> ResultSet:
        """Execute a registered :class:`~repro.api.study.Study` end to end.

        Resolves (and validates) the study's pipeline, then runs the target
        experiment -- as the study's default sweep (or an explicit ``sweep``
        override) when one is declared, as a single invocation otherwise.
        Upstream stages execute first, stage by stage, exactly as
        :meth:`run` / :meth:`sweep` do for any composite experiment.
        ``stage_params`` merges over the study's own per-stage overrides.
        ``shard`` restricts a swept study to one
        :class:`~repro.dist.shards.ShardPlan` slice; the partial results
        merge through :func:`repro.dist.shards.merge_results` bit-identically
        to a serial study run.
        """
        from repro.api.study import get_study, resolve_pipeline

        if isinstance(study, str):
            study = get_study(study)

        merged: dict[str, dict[str, Any]] = {
            name: dict(values) for name, values in study.params.items()
        }
        for name, values in (stage_params or {}).items():
            merged.setdefault(name, {}).update(values)
        # Resolving with the *merged* overrides validates both the stage
        # names and every override's parameter name up front, so a typo
        # fails here instead of failing every sweep point downstream.
        pipeline = resolve_pipeline(study.target, merged)
        base = merged.get(study.target, {})

        study_meta = {
            "name": study.name,
            "target": study.target,
            "stages": pipeline.stage_names,
            "stage_params": {k: v for k, v in merged.items() if v},
        }
        spec = sweep if sweep is not None else study.sweep
        if spec is None:
            if shard is not None:
                raise ValueError(
                    f"study {study.name!r} declares no sweep; sharding needs one "
                    "(pass sweep=... or register the study with a sweep)"
                )
            result = self.run(
                study.target, params=base, use_cache=use_cache, stage_params=merged
            )
        else:
            try:
                result = self.sweep(
                    study.target,
                    spec,
                    base_params=base,
                    use_cache=use_cache,
                    on_result=on_result,
                    shard=shard,
                    stage_params=merged,
                )
            except SweepError as error:
                # Partial study results keep their provenance too.
                error.partial.meta["study"] = study_meta
                raise
        result.meta["study"] = study_meta
        return result

    def sweep(
        self,
        name: str | Experiment,
        spec: SweepSpec,
        base_params: Mapping[str, Any] | None = None,
        use_cache: bool = True,
        on_result: Callable[[SweepPoint], None] | None = None,
        shard: "ShardPlan | None" = None,
        stage_params: StageParams | None = None,
    ) -> ResultSet:
        """Fan an experiment out over every point of a sweep.

        Each sweep point is one experiment invocation with the point's
        values overriding ``base_params``; its records are tagged with the
        swept parameter values (columns named after the axes) so the
        combined ResultSet can be grouped and filtered by sweep point.
        The combined ResultSet follows ``spec.points()`` order regardless of
        executor, so serial and parallel sweeps return identical ResultSets.

        ``on_result`` is called once per sweep point *as it completes*
        (completion order, which may differ from sweep order under the
        parallel executors) -- the hook the CLI uses to render progressive
        per-point progress.  If any point fails, the remaining points still
        execute and :class:`SweepError` is raised at the end; its ``partial``
        attribute holds the ResultSet of the completed points, which are also
        already cached, so a re-run pays only for the failures.

        ``shard`` restricts the run to one deterministic slice of the sweep
        (see :class:`repro.dist.shards.ShardPlan`); the partial ResultSet
        then records the slice under ``meta["shard"]`` and
        :func:`repro.dist.shards.merge_results` reassembles all slices into
        the full-sweep ResultSet.
        """
        experiment = name if isinstance(name, Experiment) else get_experiment(name)
        points = spec.points()
        start = time.perf_counter()
        completed: dict[int, SweepPoint] = {}
        # The span wraps the consuming loop (not the generator body), so the
        # trace context never leaks across generator suspensions; every
        # engine.point span -- serial or pooled -- nests under it.
        with trace_span(
            "engine.sweep",
            experiment=experiment.name,
            executor=self.executor,
            n_points=len(points),
        ):
            for sweep_point in self.iter_sweep(
                experiment,
                spec,
                base_params=base_params,
                use_cache=use_cache,
                shard=shard,
                stage_params=stage_params,
            ):
                completed[sweep_point.index] = sweep_point
                if on_result is not None:
                    on_result(sweep_point)
        elapsed = time.perf_counter() - start
        # iter_sweep yields exactly the selected slice, so the slice (in
        # sweep order) is the sorted key set -- no second hashing pass.
        selected = sorted(completed)

        tagged: list[dict[str, Any]] = []
        failures: list[SweepPoint] = []
        for index in selected:
            sweep_point = completed[index]  # iter_sweep yields every selected point
            if not sweep_point.ok:
                failures.append(sweep_point)
                continue
            for record in sweep_point.result.to_records():
                tagged.append(_tag_record(record, sweep_point.point))

        meta = self._meta(experiment, dict(base_params or {}), elapsed)
        meta["sweep"] = spec.to_meta()
        if self.profile:
            blocks = [
                completed[index].result.meta["profile"]
                for index in selected
                if completed[index].ok
                and not completed[index].cache_hit
                and completed[index].result is not None
                and "profile" in completed[index].result.meta
            ]
            meta["profile"] = {
                "points_profiled": len(blocks),
                "wall_s": sum(block.get("wall_s", 0.0) for block in blocks),
                "solve_s": sum(block.get("solve_s", 0.0) for block in blocks),
                "dispatch_s": sum(block.get("dispatch_s", 0.0) for block in blocks),
            }
        if shard is not None:
            meta["shard"] = {
                "n_shards": shard.n_shards,
                "shard_index": shard.shard_index,
                "n_points": len(selected),
                "point_indices": selected,
            }
        result = ResultSet.from_records(tagged, meta=meta)
        if failures:
            raise SweepError(
                f"{len(failures)} of {len(selected)} sweep points failed; "
                f"first failure at point {failures[0].index} "
                f"({failures[0].point}): {failures[0].error}",
                partial=result,
                failures=failures,
            )
        return result

    def iter_sweep(
        self,
        name: str | Experiment,
        spec: SweepSpec,
        base_params: Mapping[str, Any] | None = None,
        use_cache: bool = True,
        shard: "ShardPlan | None" = None,
        stage_params: StageParams | None = None,
    ) -> Iterator[SweepPoint]:
        """Stream a sweep: yield one :class:`SweepPoint` per point as it lands.

        Cache hits are yielded first (in sweep order, they are free), then
        executed points in completion order -- under the thread and process
        executors a fast point is yielded while slower ones are still
        running.  A failed point is yielded with ``error`` set instead of
        aborting the generator, so consumers always see every point exactly
        once; ``SweepPoint.index`` maps it back to ``spec.points()`` order.
        With ``shard`` set, only the shard's slice of the sweep is streamed
        (indices still refer to the full ``spec.points()`` order).

        A composite experiment's sweep executes stage by stage: the distinct
        upstream invocations the selected points need (after parameter
        binding and deduplication) run first, fanned out through the same
        executor, then the downstream points run with their upstream
        ResultSets injected.  An upstream failure fails exactly the dependent
        downstream points, never the whole sweep.

        Unlike :meth:`sweep`, nothing is raised for failed points: streaming
        consumers decide themselves how to react.  Parameter errors (unknown
        axis names, un-coercible values) raise here, at the call site --
        every point is resolved before the stream is handed back, so the
        generator itself only ever yields.
        """
        experiment = name if isinstance(name, Experiment) else get_experiment(name)
        points = spec.points()
        selected = list(range(len(points))) if shard is None else shard.indices(points)
        # Resolve only the selected slice: a 1-of-N shard of a large sweep
        # must not pay parameter resolution for all N slices.
        invocations = [
            experiment.resolve_params({**(base_params or {}), **points[index]})
            for index in selected
        ]
        stream = self._stage(experiment, invocations, use_cache, stage_params, {})
        return (
            SweepPoint(
                index=selected[slot],
                point=points[selected[slot]],
                params=invocations[slot],
                result=result,
                error=None
                if error is None
                else ("upstream: " if upstream_failed else "") + _error_text(error),
                cache_hit=result is not None and bool(result.meta.get("cache_hit")),
            )
            for slot, result, error, upstream_failed in stream
        )

    # --- helpers ----------------------------------------------------------

    def _auto_chunk_size(self, n_pending: int) -> int:
        """Chunk size targeting :data:`TARGET_CHUNK_SECONDS` per pool task.

        Derived from the measured per-point cost EMA (1 until anything has
        been measured), and capped so every worker still receives at least
        two chunks -- a single giant chunk would serialise the sweep behind
        one worker no matter how cheap the points are.
        """
        cost = self._point_cost_ema
        if cost is None or cost <= 0.0:
            return 1
        by_cost = int(TARGET_CHUNK_SECONDS / cost)
        balance_cap = n_pending // (2 * self.max_workers)
        return max(1, min(by_cost, max(1, balance_cap)))

    def _chunks(self, pending: list[int]) -> list[list[int]]:
        """Split pending point indices into pool tasks.

        With ``chunk_size=None`` every point is its own task: a fast point's
        result streams back the moment it finishes instead of waiting for
        chunk-mates, which is the point-granular latency :meth:`iter_sweep`
        promises.  An explicit ``chunk_size`` restores batched submission
        for workloads whose per-point cost is dwarfed by dispatch overhead;
        ``"auto"`` picks that size from the measured point cost.
        """
        if self.chunk_size is None:
            return [[index] for index in pending]
        size = (
            self._auto_chunk_size(len(pending))
            if self.chunk_size == "auto"
            else self.chunk_size
        )
        return [pending[i : i + size] for i in range(0, len(pending), size)]

    def _execute_pending(
        self,
        experiment: Experiment,
        tasks: dict[int, _Task],
        pending: list[int],
    ) -> Iterator[tuple[int, _Outcome]]:
        """Yield ``(slot, outcome)`` for every pending invocation of a stage.

        ``tasks`` maps each pending slot to its ``(resolved params,
        injected inputs)`` pair -- inputs are empty for self-contained
        experiments.  A single pending invocation always runs in this
        process.  Serial execution yields in slot order; the pooled
        executors submit one future per point by default (see
        :meth:`_chunks`) and yield each future's points as it completes,
        which is what makes :meth:`iter_sweep` stream point-granularly under
        parallel execution.
        """
        if not pending:
            return
        if self.executor == "batch":
            yield from self._execute_batched(experiment, tasks, pending)
            return
        if self.executor == "serial" or len(pending) == 1:
            for index in pending:
                yield index, self._run_inline(experiment, tasks[index])
            return

        if self.executor == "process":
            # Process workers rebuild the registry by name; an instance that
            # is not the registered one would silently execute the wrong
            # function (and poison the cache), so refuse early.
            ensure_registered()
            from repro.api.experiment import _REGISTRY

            if _REGISTRY.get(experiment.name) is not experiment:
                raise ValueError(
                    f"the process executor needs a registered experiment; "
                    f"{experiment.name!r} is not the registered instance "
                    "(use executor='thread'/'serial' for ad-hoc experiments)"
                )

        chunks = self._chunks(pending)
        pool = self._get_pool(min(self.max_workers, len(chunks)))
        # Pool workers (threads included) start with an empty contextvars
        # context, so the trace ancestry rides along explicitly.  The
        # profile flag rides the same way: pool-side execution is where
        # solve_s accrues, so dropping it there zeroed every pooled
        # point's solver share.
        carrier = current_carrier()
        # Threads share the interpreter: they execute through the instance
        # (ad-hoc experiments included), with no registry round-trip.
        target, which = (
            (_run_outcomes, experiment)
            if self.executor == "thread"
            else (_execute_chunk, experiment.name)
        )

        future_to_chunk: dict[Any, list[int]] = {}
        submitted_at: dict[Any, float] = {}
        for chunk in chunks:
            start = time.perf_counter()
            future = pool.submit(
                target, which, [tasks[i] for i in chunk], self.profile, carrier
            )
            future_to_chunk[future] = chunk
            submitted_at[future] = start
        try:
            for future in as_completed(future_to_chunk):
                chunk = future_to_chunk[future]
                outcomes = future.result()
                # ``received`` is taken *after* result(): everything between
                # this chunk's own submission and holding its results that
                # was not experiment compute -- pickling, queueing behind
                # other chunks, result transfer/retrieval -- is dispatch
                # overhead, shared evenly across the chunk's points, so
                # wall_s + dispatch_s approximates the point's true cost.
                received = time.perf_counter()
                compute = sum(outcome[2] for outcome in outcomes)
                dispatch = max(0.0, received - submitted_at[future] - compute) / len(
                    chunk
                )
                metrics.counter(
                    "repro_dispatch_overhead_seconds_total", executor=self.executor
                ).inc(dispatch * len(chunk))
                for index, outcome in zip(chunk, outcomes):
                    yield index, self._finalize_outcome(outcome, dispatch)
        finally:
            # A streaming consumer may abandon the generator mid-sweep
            # (GeneratorExit lands here); cancel the queued chunks so the
            # warm pool stops computing the rest of the sweep for nobody.
            # The pool itself stays alive for the next sweep (see close()).
            for future in future_to_chunk:
                future.cancel()

    def _execute_batched(
        self,
        experiment: Experiment,
        tasks: dict[int, _Task],
        pending: list[int],
    ) -> Iterator[tuple[int, _Outcome]]:
        """The ``batch`` executor: stacked evaluation of batchable points.

        Points of an experiment with a ``batch_fn`` and no injected inputs
        are stacked into :meth:`Experiment.run_batch` calls (all pending
        points at once for ``chunk_size=None``/``"auto"``, capped stacks for
        an integer ``chunk_size``); everything else runs point by point like
        the serial executor.  A failing batch falls back to per-point
        execution, so each point's error is attributed individually and a
        buggy batch function can never change sweep results.
        """
        batchable = (
            [index for index in pending if not tasks[index][1]]
            if experiment.batch_fn is not None
            else []
        )
        batch_set = set(batchable)
        for index in pending:
            if index not in batch_set:
                yield index, self._run_inline(experiment, tasks[index])

        if isinstance(self.chunk_size, int):
            chunks = [
                batchable[i : i + self.chunk_size]
                for i in range(0, len(batchable), self.chunk_size)
            ]
        else:
            chunks = [batchable] if batchable else []
        for chunk in chunks:
            start = time.perf_counter()
            try:
                with trace_span(
                    "engine.batch", experiment=experiment.name, n_points=len(chunk)
                ), _solve_profile(self.profile) as accumulator:
                    records_list = experiment.run_batch(
                        [tasks[index][0] for index in chunk]
                    )
            except Exception:
                for index in chunk:
                    yield index, self._run_inline(experiment, tasks[index])
                continue
            elapsed = (time.perf_counter() - start) / len(chunk)
            prof = (
                None
                if accumulator is None
                else {"solve_s": accumulator["solve_s"] / len(chunk)}
            )
            for index, records in zip(chunk, records_list):
                yield index, self._finalize_outcome((records, None, elapsed, prof), 0.0)

    def _run_inline(self, experiment: Experiment, task: _Task) -> _Outcome:
        """Execute one task in this process, through the instance itself.

        Ad-hoc (unregistered) Experiment objects therefore run exactly like
        registered ones, and a failure keeps its exception object.
        """
        outcome = _run_outcomes(experiment, [task], self.profile)[0]
        return self._finalize_outcome(outcome, 0.0)

    def _meta(
        self,
        experiment: Experiment,
        params: Mapping[str, Any],
        elapsed: float | None,
        upstream: Mapping[str, str] | None = None,
    ) -> dict[str, Any]:
        meta: dict[str, Any] = {
            "experiment": experiment.name,
            "version": experiment.version,
            "params": dict(params),
            "executor": self.executor,
        }
        if elapsed is not None:
            meta["wall_time_s"] = elapsed
        if upstream:
            # Provenance of consumed artifacts: which upstream experiment fed
            # each inject, pinned by the content hash the cache key chained.
            by_inject = {dep.inject: dep.experiment for dep in experiment.consumes}
            meta["upstream"] = {
                inject: {"experiment": by_inject[inject], "content_hash": digest}
                for inject, digest in upstream.items()
            }
        return meta


def _tag_record(record: dict[str, Any], point: Mapping[str, Any]) -> dict[str, Any]:
    """Prepend the sweep-point values as columns of the record.

    A sweep axis whose name collides with an output column of the record is
    stored under a ``param_`` prefix instead, so experiment output is never
    silently overwritten.
    """
    tags = {}
    for name, value in point.items():
        tags[f"param_{name}" if name in record else name] = value
    return {**tags, **record}

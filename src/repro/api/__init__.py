"""Unified experiment engine: registry, sweeps, columnar results, execution.

This subpackage is the public API for reproducing the paper's experiments
programmatically::

    import tempfile

    from repro.api import Engine, SweepSpec

    engine = Engine(store=tempfile.mkdtemp())
    table = engine.run("table_density")             # one experiment, memoised
    print(table.column("density_per_nm2"))

    spec = SweepSpec.grid(length_um=[1.0, 10.0])    # declarative fan-out
    for point in engine.iter_sweep("table_density", spec):
        print(point.index, point.cache_hit, len(point.result))

``Engine.sweep`` gathers a whole sweep into one tagged
:class:`~repro.api.results.ResultSet`; ``Engine.iter_sweep`` streams one
:class:`~repro.api.engine.SweepPoint` per sweep point as it completes, and a
failed point keeps its completed siblings (``SweepError.partial``).  The
result store (``store=``: a directory or ``sqlite:///path.db``) is managed
through :mod:`repro.api.cache`.

Experiments compose into pipelines: a ``consumes=`` declaration names the
upstream experiments whose ResultSets are injected into the call, with
typed ``outputs=`` schemas on the artifacts; :mod:`repro.api.study`
registers named composite studies and ``Engine.run_study`` executes the
resolved DAG stage by stage with content-hash-chained caching.

The same surface is exposed on the shell as ``python -m repro``
(``list`` / ``describe`` / ``run`` / ``sweep`` / ``worker`` / ``study`` /
``merge`` / ``cache`` / ``perf-report`` / ``docs``).  Distributed
execution -- shared result stores, lease-claiming workers, deterministic
sharding -- lives in :mod:`repro.dist`.
Experiment definitions live in :mod:`repro.analysis.experiments` (paper
figures and tables) and :mod:`repro.analysis.studies` (extension studies);
the registry imports them on first use, so no explicit setup call is
needed.  The generated experiment catalog is ``docs/EXPERIMENTS.md``.
"""

from repro.api.experiment import (
    Consumes,
    DuplicateExperimentError,
    Experiment,
    ExperimentError,
    ExperimentNotFoundError,
    OutputSchemaError,
    OutputSpec,
    ParameterError,
    ParamSpec,
    PipelineError,
    ensure_registered,
    get_experiment,
    list_experiments,
    normalize_records,
    register_experiment,
    unregister_experiment,
    validate_records,
)
from repro.api.results import MissingColumnsError, ResultSet, content_hash
from repro.api.sweep import SweepSpec
from repro.api.engine import Engine, SweepError, SweepPoint, cache_key
from repro.api.study import (
    DuplicateStudyError,
    Pipeline,
    Stage,
    Study,
    StudyNotFoundError,
    get_study,
    list_studies,
    register_study,
    resolve_pipeline,
    unregister_study,
)
from repro.api.cache import (
    CacheEntry,
    CacheStats,
    cache_stats,
    clear_cache,
    prune_cache,
)

__all__ = [
    "CacheEntry",
    "CacheStats",
    "Consumes",
    "DuplicateExperimentError",
    "DuplicateStudyError",
    "Engine",
    "Experiment",
    "ExperimentError",
    "ExperimentNotFoundError",
    "MissingColumnsError",
    "OutputSchemaError",
    "OutputSpec",
    "ParamSpec",
    "ParameterError",
    "Pipeline",
    "PipelineError",
    "ResultSet",
    "Stage",
    "Study",
    "StudyNotFoundError",
    "SweepError",
    "SweepPoint",
    "SweepSpec",
    "cache_key",
    "cache_stats",
    "clear_cache",
    "content_hash",
    "prune_cache",
    "ensure_registered",
    "get_experiment",
    "get_study",
    "list_experiments",
    "list_studies",
    "normalize_records",
    "register_experiment",
    "register_study",
    "resolve_pipeline",
    "unregister_experiment",
    "unregister_study",
    "validate_records",
]

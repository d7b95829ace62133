"""Batched transient evaluation of same-topology circuits.

Sweep points over one interconnect topology differ only in element *values*
(resistances, capacitances, source waveforms, MOSFET parameters) -- the MNA
pattern, node numbering and step count are identical.  This module groups
such jobs and runs each group through :func:`repro.circuit.transient.simulate`,
which compiles the topology once for the whole group and marches every member
in lockstep: one stacked dense solve per Newton iteration, a per-job
convergence mask, and only the genuinely scalar work (MOSFET linearisation,
source waveforms) left per job.

**Bitwise identity is a hard contract.**  A stacked ``np.linalg.solve`` is
bitwise-identical to per-slice solves and every Newton decision is taken per
job, so batched results carry the same content hashes as one
:func:`~repro.circuit.transient.transient_analysis` per job -- the engine's
cache and the CI identity checks rely on it.

Jobs are grouped by :func:`topology_signature`; circuits at ``splu`` sizes
(:data:`~repro.circuit.compiled.SPARSE_SIZE_THRESHOLD` unknowns or more) run
one per group, and any group that raises is rerun job by job, so batching can
change performance but never results or errors.
"""

from __future__ import annotations

from repro.circuit.compiled import SPARSE_SIZE_THRESHOLD, circuit_topology
from repro.circuit.mna import MNAAssembler
from repro.circuit.transient import (
    TransientJob,
    TransientResult,
    simulate,
    transient_analysis,
)
from repro.obs import metrics

__all__ = ["TransientJob", "batched_transient_analysis", "topology_signature"]


def topology_signature(job: TransientJob, assembler: MNAAssembler) -> tuple:
    """Structural key deciding which jobs may share a compiled system.

    Two jobs with equal signatures stamp the same matrix coordinates in the
    same order for the same number of steps -- only values differ, which is
    exactly what the compiled solver vectorises over.
    """
    return (
        job.n_steps,
        job.method,
        job.use_dc_start,
        job.max_newton_iterations,
        circuit_topology(job.circuit, assembler),
    )


def _run_alone(job: TransientJob) -> TransientResult:
    return transient_analysis(
        job.circuit,
        job.stop_time,
        job.time_step,
        method=job.method,
        use_dc_start=job.use_dc_start,
        max_newton_iterations=job.max_newton_iterations,
    )


def batched_transient_analysis(jobs: list[TransientJob]) -> list[TransientResult]:
    """Evaluate transient jobs, batching same-topology groups.

    Results are returned in job order and are bitwise-identical to calling
    :func:`~repro.circuit.transient.transient_analysis` per job (see module
    docstring).  A group whose batched run raises is rerun job by job, so a
    failing job raises the error it raises alone.
    """
    groups: dict[tuple, list[int]] = {}
    for position, job in enumerate(jobs):
        job.validate()
        assembler = MNAAssembler(job.circuit)
        if assembler.size >= SPARSE_SIZE_THRESHOLD:
            key: tuple = ("alone", position)
        else:
            key = topology_signature(job, assembler)
        groups.setdefault(key, []).append(position)

    results: list[TransientResult | None] = [None] * len(jobs)
    for indices in groups.values():
        group = [jobs[i] for i in indices]
        if len(group) == 1:
            metrics.counter("repro_batch_groups_total", mode="serial").inc()
            group_results = simulate(group)
        else:
            try:
                group_results = simulate(group)
                metrics.counter("repro_batch_groups_total", mode="stacked").inc()
                metrics.histogram("repro_batch_group_points").observe(len(group))
            except Exception:
                metrics.counter("repro_batch_groups_total", mode="fallback").inc()
                group_results = [_run_alone(job) for job in group]
        for index, result in zip(indices, group_results):
            results[index] = result
    return results  # type: ignore[return-value]

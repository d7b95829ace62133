"""Transient analysis with trapezoidal or backward-Euler integration.

The solver marches the circuit from a consistent starting point (by default
the DC operating point at ``t = 0``) with a fixed time step, solving the
nonlinear MNA system by Newton iteration at every step.  Results are exposed
as numpy arrays per node, which is what the delay-measurement helpers of
:mod:`repro.circuit.delay` operate on.

:func:`simulate` is the one step loop: it marches a group of same-topology
jobs in lockstep on one :class:`~repro.circuit.compiled.CompiledMNA`, and
:func:`transient_analysis` is a group of one.  Every step is recorded into
one preallocated ``(jobs, n_steps + 1, size)`` trace array; the per-node
waveform dicts are cut from it once at the end.

:func:`reference_transient_analysis` keeps the original dense re-stamping
loop (:class:`~repro.circuit.mna.MNAAssembler` +
:func:`~repro.circuit.mna.newton_solve`) as the parity reference the tests
and the perf harness compare against; no production path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.compiled import CompiledMNA, SolverOptions
from repro.circuit.dc import operating_points
from repro.circuit.mna import CompanionState, MNAAssembler, newton_solve
from repro.circuit.netlist import Circuit, is_ground
from repro.obs.metrics import record_solver_stats
from repro.obs.trace import trace_span


@dataclass(frozen=True)
class TransientResult:
    """Waveforms produced by a transient analysis.

    Attributes
    ----------
    times:
        1-D array of time points in second.
    node_voltages:
        Mapping from node name to a 1-D voltage array (same length as
        ``times``).
    source_currents:
        Mapping from voltage-source name to a 1-D branch-current array.
    """

    times: np.ndarray
    node_voltages: dict[str, np.ndarray]
    source_currents: dict[str, np.ndarray]

    def voltage(self, node: str) -> np.ndarray:
        """Voltage waveform of a node (zeros for ground)."""
        if node in self.node_voltages:
            return self.node_voltages[node]
        if is_ground(node):
            return np.zeros_like(self.times)
        raise KeyError(f"unknown node {node!r}")

    def current(self, source_name: str) -> np.ndarray:
        """Branch-current waveform of a voltage source."""
        return self.source_currents[source_name]

    def final_voltage(self, node: str) -> float:
        """Last computed voltage of a node in volt."""
        return float(self.voltage(node)[-1])

    @property
    def n_points(self) -> int:
        """Number of stored time points."""
        return int(self.times.size)


@dataclass(frozen=True)
class TransientJob:
    """One transient analysis, as :func:`transient_analysis` takes it.

    Jobs whose circuits share a topology and whose step count, method, DC
    start and Newton budget match can be simulated together.
    """

    circuit: Circuit
    stop_time: float
    time_step: float
    method: str = "trapezoidal"
    use_dc_start: bool = True
    max_newton_iterations: int = 60

    @property
    def n_steps(self) -> int:
        return int(round(self.stop_time / self.time_step))

    def validate(self) -> None:
        """The argument checks every transient entry point applies."""
        if self.stop_time <= 0 or self.time_step <= 0:
            raise ValueError("stop time and time step must be positive")
        if self.time_step > self.stop_time:
            raise ValueError("time step cannot exceed the stop time")
        if self.method not in ("trapezoidal", "backward_euler"):
            raise ValueError(f"unknown integration method {self.method!r}")


def transient_analysis(
    circuit: Circuit,
    stop_time: float,
    time_step: float,
    method: str = "trapezoidal",
    use_dc_start: bool = True,
    max_newton_iterations: int = 60,
    solver_opts: SolverOptions | None = None,
) -> TransientResult:
    """Run a fixed-step transient analysis.

    Parameters
    ----------
    circuit:
        The circuit to simulate.
    stop_time:
        Final simulation time in second.
    time_step:
        Fixed step size in second.
    method:
        ``"trapezoidal"`` (default) or ``"backward_euler"``.
    use_dc_start:
        When True the initial condition is the DC operating point with the
        sources at their ``t = 0`` values; when False all node voltages start
        at 0 V and capacitor initial voltages are honoured.
    max_newton_iterations:
        Per-step Newton cap.
    solver_opts:
        Newton policy at ``splu`` sizes
        (:class:`repro.circuit.compiled.SolverOptions`); ``None`` picks up
        any active :func:`repro.circuit.compiled.solver_options` override,
        else exact mode.  Smaller circuits always run exact Newton.

    Returns
    -------
    TransientResult
    """
    job = TransientJob(
        circuit, stop_time, time_step, method, use_dc_start, max_newton_iterations
    )
    job.validate()
    return simulate([job], solver_opts)[0]


def simulate(
    jobs: list[TransientJob], solver_opts: SolverOptions | None = None
) -> list[TransientResult]:
    """March same-topology jobs in lockstep on one compiled system.

    The jobs must share a circuit topology
    (:func:`repro.circuit.compiled.circuit_topology`), step count, method,
    DC start and Newton budget; their element values and time steps may
    differ.  Each job's waveforms are bitwise-identical to simulating it
    alone.
    """
    first = jobs[0]
    settings = {
        (job.n_steps, job.method, job.use_dc_start, job.max_newton_iterations)
        for job in jobs
    }
    if len(settings) > 1:
        raise ValueError("jobs simulated together need equal steps, method and Newton settings")
    n_steps = first.n_steps
    circuits = [job.circuit for job in jobs]
    times = np.array(
        [np.linspace(0.0, n_steps * job.time_step, n_steps + 1) for job in jobs]
    )
    compiled = CompiledMNA(
        circuits, dt=[job.time_step for job in jobs], method=first.method
    )
    size = compiled.size

    solution = np.zeros((len(jobs), size))
    state = compiled.initial_state()
    if first.use_dc_start and size > 0:
        solution = operating_points(circuits, time=0.0)
        state = compiled.initial_state(solution)

    trace = np.empty((len(jobs), n_steps + 1, size))
    trace[:, 0] = solution

    with trace_span(
        "circuit.transient",
        factorization="splu" if compiled.sparse else "dense",
        size=size,
        n_jobs=len(jobs),
        n_steps=n_steps,
    ) as span:
        for step in range(1, n_steps + 1):
            solution = compiled.solve_step(
                times[:, step],
                solution,
                state,
                max_iterations=first.max_newton_iterations,
                options=solver_opts,
            )
            state = compiled.update_state(solution, state)
            trace[:, step] = solution
        # One sync per group: the solver's counters feed the shared
        # registry (and the open span) without per-step overhead.
        record_solver_stats(compiled.stats)
        span.set("solver", compiled.stats.as_dict())

    n_nodes = compiled.base.n_nodes
    return [
        TransientResult(
            times=times[k],
            node_voltages={
                name: np.ascontiguousarray(trace[k, :, i])
                for i, name in enumerate(job.circuit.nodes())
            },
            source_currents={
                source.name: np.ascontiguousarray(trace[k, :, n_nodes + position])
                for position, source in enumerate(job.circuit.voltage_sources)
            },
        )
        for k, job in enumerate(jobs)
    ]


def reference_transient_analysis(
    circuit: Circuit,
    stop_time: float,
    time_step: float,
    method: str = "trapezoidal",
    use_dc_start: bool = True,
    max_newton_iterations: int = 60,
) -> TransientResult:
    """The dense re-stamping transient loop, kept as the parity reference.

    Same arguments and results as :func:`transient_analysis`, computed the
    original way: :class:`MNAAssembler` re-stamps a dense matrix on every
    Newton iteration and :func:`newton_solve` solves it with LAPACK,
    starting from a dense DC operating point.  Below
    :data:`~repro.circuit.compiled.SPARSE_SIZE_THRESHOLD` unknowns the
    production solver must match it bit for bit, at ``splu`` sizes to 1e-9.
    """
    TransientJob(circuit, stop_time, time_step, method).validate()
    assembler = MNAAssembler(circuit)
    n_steps = int(round(stop_time / time_step))
    times = np.linspace(0.0, n_steps * time_step, n_steps + 1)

    solution = np.zeros(assembler.size)
    state = CompanionState.initial(circuit)

    if use_dc_start and assembler.size > 0:
        # Supply-aware start: every node halfway to the largest source level.
        guess = np.zeros(assembler.size)
        supply_levels = [abs(v.value(0.0)) for v in circuit.voltage_sources]
        if supply_levels:
            guess[: assembler.n_nodes] = 0.5 * max(supply_levels)
        solution = newton_solve(
            assembler, 0.0, guess, capacitors_open=True, max_iterations=200
        )
        # Capacitors start charged to their DC voltages.
        state = CompanionState(
            capacitor_voltages={
                c.name: assembler.node_voltage(solution, c.a)
                - assembler.node_voltage(solution, c.b)
                for c in circuit.capacitors
            },
            capacitor_currents={c.name: 0.0 for c in circuit.capacitors},
            inductor_currents={l.name: 0.0 for l in circuit.inductors},
            inductor_voltages={l.name: 0.0 for l in circuit.inductors},
        )

    trace = np.empty((n_steps + 1, assembler.size))
    trace[0] = solution
    for step in range(1, n_steps + 1):
        time = times[step]
        solution = newton_solve(
            assembler,
            time,
            solution,
            state=state,
            dt=time_step,
            method=method,
            max_iterations=max_newton_iterations,
        )
        state = assembler.update_state(solution, state, time_step, method=method)
        trace[step] = solution

    voltages = {
        name: np.ascontiguousarray(trace[:, assembler.node_index(name)])
        for name in assembler.node_names
    }
    currents = {
        source.name: np.ascontiguousarray(trace[:, assembler.vsource_index(position)])
        for position, source in enumerate(circuit.voltage_sources)
    }
    return TransientResult(times=times, node_voltages=voltages, source_currents=currents)

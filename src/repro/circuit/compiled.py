"""Compiled MNA: the one solver behind every transient and DC analysis.

The dense :class:`~repro.circuit.mna.MNAAssembler` re-stamps a full
``np.zeros((size, size))`` matrix element-by-element in Python on every
Newton iteration.  It stays in the package as the parity reference
(:func:`repro.circuit.transient.reference_transient_analysis`); no
production path calls it.  This module splits the work the way production
SPICE engines do:

*compile* (once per topology and time step)
    Walk the netlist a single time and record, for every stamp the
    reference assembler would make, its matrix coordinate -- in the
    reference's statement order -- and its value for each of the ``K``
    same-topology circuits compiled together.  For a fixed time step the
    companion-model conductances of capacitors and inductors are as static
    as the resistors, so the only *dynamic* matrix entries left are the
    MOSFET linearisations.  The right-hand side gets the same treatment: an
    ordered list of ``(row, term, sign)`` contributions.

*update* (per time step / Newton iteration)
    Companion currents and source values enter the right-hand side through
    one ordered scatter; MOSFET ``gm``/``gds`` stamps are added on top of the
    static values.  Every matrix and right-hand-side entry accumulates its
    contributions in exactly the order ``MNAAssembler.assemble`` does -- no
    Python loop over the topology, no re-stamping.

*solve* (per time step / Newton iteration)
    The factorization is a size policy, with no option to set it:

    below :data:`SPARSE_SIZE_THRESHOLD` unknowns
        One stacked ``np.linalg.solve`` over the ``K`` dense matrices.  The
        stacked solve is bitwise-identical to per-matrix solves, so every
        job's result equals the reference's bit for bit -- and equals a run
        of that job alone, which is what makes a single run a batch of one.
    at or above it
        A CSR pattern compiled once, with a CSC twin (the CSR->CSC data
        permutation is recorded at compile time) for
        ``scipy.sparse.linalg.splu``; one circuit per system.  A linear
        circuit factorizes once and reuses the LU for every step.  A
        nonlinear one follows the :class:`SolverOptions` policy:

        ``newton="exact"`` (default)
            Refactorize every iteration.
        ``newton="freeze"``
            Modified Newton: one LU is reused across iterations *and* steps
            as the update ``delta = LU^-1 (b(x) - A(x) x)``.  The fixed point
            of that update satisfies ``A(x) x = b(x)`` exactly, so a stale
            Jacobian can only slow convergence, never bend the answer; slow
            contraction (or an iteration budget) restarts the step with
            exact Newton, whose last LU is frozen for the steps that follow.

        Either way results agree with the reference to <= 1e-9.

:meth:`CompiledMNA.solve_step` holds the package's one Newton loop (the
reference :func:`~repro.circuit.mna.newton_solve` aside), with a per-job
convergence mask: a converged job stops iterating while the rest of its
batch continues.  :func:`solver_options` overrides the Newton policy for a
whole call stack (``transient_analysis`` -> ``measure_inverter_line_delay``
-> registry experiments) without threading it through every signature.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.circuit.mna import GMIN, CompanionState, MNAAssembler
from repro.circuit.netlist import Circuit

SPARSE_SIZE_THRESHOLD = 64
"""Number of MNA unknowns at which :class:`CompiledMNA` factorizes through
``splu`` instead of stacked dense solves.

Below this, a dense LAPACK solve on a contiguous array beats the sparse
setup cost; above it, dense LU loses badly to the compiled CSR update plus
factorization reuse.  The crossover was measured with ``benchmarks/perf``
(see docs/PERFORMANCE.md)."""


NEWTON_MODES = ("exact", "freeze")


@dataclass(frozen=True)
class SolverOptions:
    """Newton policy of the ``splu`` factorization (see module docstring).

    ``newton="exact"`` refactorizes every iteration; ``newton="freeze"``
    reuses one numeric factorization across iterations and steps (modified
    Newton) and refreshes it when the per-iteration contraction of
    ``max|delta|`` is slower than ``refresh_contraction`` or a single step
    spends more than ``max_frozen_iterations`` iterations on the same
    factorization.  Systems below :data:`SPARSE_SIZE_THRESHOLD` unknowns
    always run exact Newton.
    """

    newton: str = "exact"
    refresh_contraction: float = 0.25
    max_frozen_iterations: int = 10

    def __post_init__(self) -> None:
        if self.newton not in NEWTON_MODES:
            raise ValueError(
                f"unknown newton mode {self.newton!r}; use one of {NEWTON_MODES}"
            )
        if not 0.0 < self.refresh_contraction < 1.0:
            raise ValueError("refresh_contraction must be in (0, 1)")
        if self.max_frozen_iterations < 1:
            raise ValueError("max_frozen_iterations must be >= 1")


DEFAULT_SOLVER_OPTIONS = SolverOptions()

_SOLVER_OPTIONS_OVERRIDE: SolverOptions | None = None


def resolve_solver_options(options: SolverOptions | None = None) -> SolverOptions:
    """Pick the Newton policy: explicit argument, then any active
    :func:`solver_options` override, then the exact-mode default."""
    if options is not None:
        return options
    if _SOLVER_OPTIONS_OVERRIDE is not None:
        return _SOLVER_OPTIONS_OVERRIDE
    return DEFAULT_SOLVER_OPTIONS


@contextmanager
def solver_options(options: SolverOptions | None) -> Iterator[None]:
    """Force every compiled solve in the block onto one Newton policy.

    Call sites that pass ``solver_opts=None`` (the default everywhere) pick
    up the override, so a whole experiment stack can be flipped to freeze
    mode without changing any signature::

        with solver_options(SolverOptions(newton="freeze")):
            fast = measure_inverter_line_delay(line)
    """
    global _SOLVER_OPTIONS_OVERRIDE
    previous = _SOLVER_OPTIONS_OVERRIDE
    _SOLVER_OPTIONS_OVERRIDE = options
    try:
        yield
    finally:
        _SOLVER_OPTIONS_OVERRIDE = previous


@dataclass
class SolverStats:
    """Counters a :class:`CompiledMNA` accumulates across solve calls.

    ``factorizations`` counts numeric LU factorizations (one per matrix of
    a stacked dense solve), ``iterations`` Newton iterations (one per pass
    over the batch), ``steps`` calls to :meth:`CompiledMNA.solve_step` and
    ``refreshes`` freeze-mode refactorizations triggered by slow contraction
    or the per-step iteration budget.  The reuse tests and the
    ``newton_reuse`` perf case assert against these.
    """

    factorizations: int = 0
    iterations: int = 0
    steps: int = 0
    refreshes: int = 0

    def as_dict(self) -> dict[str, int]:
        """Counter snapshot (feeds the ``repro.obs`` solver metrics and spans)."""
        return {
            "factorizations": self.factorizations,
            "iterations": self.iterations,
            "steps": self.steps,
            "refreshes": self.refreshes,
        }


# Context-local so concurrently profiled blocks (one per thread-pool worker
# under Engine(executor="thread", profile=True)) each accumulate their own
# solver time instead of clobbering a shared module global.
_PROFILE_ACCUMULATOR: ContextVar[dict[str, float] | None] = ContextVar(
    "repro_profile_accumulator", default=None
)


@contextmanager
def profiled_solves() -> Iterator[dict[str, float]]:
    """Accumulate compiled-solver wall time for the duration of the block.

    Yields a dict whose ``"solve_s"`` entry collects the wall-clock seconds
    spent inside :meth:`CompiledMNA.solve_step` (assembly, factorization and
    triangular solves) while the block is active.  Every transient and DC
    solve runs through it, so the engine's ``profile`` mode can split a
    sweep point's wall time into solver vs. everything-else.  The
    accumulator is context-local (see above), so profiled blocks running
    concurrently in pool threads stay independent.
    """
    token = _PROFILE_ACCUMULATOR.set({"solve_s": 0.0})
    try:
        yield _PROFILE_ACCUMULATOR.get()
    finally:
        _PROFILE_ACCUMULATOR.reset(token)


def _with_ground(solution: np.ndarray) -> np.ndarray:
    """``(K, size + 1)`` copy of solutions whose extra last column -- the
    index compiled for ground -- reads 0 V."""
    padded = np.zeros((len(solution), solution.shape[1] + 1))
    padded[:, :-1] = solution
    return padded


def circuit_topology(circuit: Circuit, index: MNAAssembler) -> tuple:
    """Structural key of a circuit under its MNA numbering ``index``.

    Circuits with equal keys stamp the same matrix coordinates in the same
    order -- only values differ -- so they can be compiled together.
    """
    node = index.node_index
    return (
        index.size,
        index.n_nodes,
        tuple((node(r.a), node(r.b)) for r in circuit.resistors),
        tuple((node(c.a), node(c.b), c.capacitance == 0.0) for c in circuit.capacitors),
        tuple((node(l.a), node(l.b)) for l in circuit.inductors),
        tuple((node(s.positive), node(s.negative)) for s in circuit.current_sources),
        tuple((node(s.positive), node(s.negative)) for s in circuit.voltage_sources),
        tuple((node(m.drain), node(m.gate), node(m.source)) for m in circuit.mosfets),
    )


@dataclass
class ArrayState:
    """Vectorised companion-model state (array twin of :class:`CompanionState`).

    Arrays are aligned with ``circuit.capacitors`` / ``circuit.inductors``
    order, with a leading job axis when several circuits are compiled
    together, which lets the per-step state update run as a few numpy
    expressions instead of a Python loop over element dicts.
    """

    capacitor_voltages: np.ndarray
    capacitor_currents: np.ndarray
    inductor_currents: np.ndarray
    inductor_voltages: np.ndarray

    @classmethod
    def zeros(cls, circuit: Circuit) -> "ArrayState":
        """All-zero state (DC solves and cold transient starts)."""
        n_cap = len(circuit.capacitors)
        n_ind = len(circuit.inductors)
        return cls(
            capacitor_voltages=np.zeros(n_cap),
            capacitor_currents=np.zeros(n_cap),
            inductor_currents=np.zeros(n_ind),
            inductor_voltages=np.zeros(n_ind),
        )

    @classmethod
    def from_companion(cls, state: CompanionState, circuit: Circuit) -> "ArrayState":
        """Pack a dict-based :class:`CompanionState` into aligned arrays."""
        return cls(
            capacitor_voltages=np.array(
                [state.capacitor_voltages[c.name] for c in circuit.capacitors]
            ),
            capacitor_currents=np.array(
                [state.capacitor_currents[c.name] for c in circuit.capacitors]
            ),
            inductor_currents=np.array(
                [state.inductor_currents[l.name] for l in circuit.inductors]
            ),
            inductor_voltages=np.array(
                [state.inductor_voltages[l.name] for l in circuit.inductors]
            ),
        )

    def to_companion(self, circuit: Circuit) -> CompanionState:
        """Unpack a single circuit's state into the dict-based form."""
        return CompanionState(
            capacitor_voltages={
                c.name: float(v) for c, v in zip(circuit.capacitors, self.capacitor_voltages)
            },
            capacitor_currents={
                c.name: float(i) for c, i in zip(circuit.capacitors, self.capacitor_currents)
            },
            inductor_currents={
                l.name: float(i) for l, i in zip(circuit.inductors, self.inductor_currents)
            },
            inductor_voltages={
                l.name: float(v) for l, v in zip(circuit.inductors, self.inductor_voltages)
            },
        )


class CompiledMNA:
    """MNA systems of ``K`` same-topology circuits compiled at a fixed step.

    Parameters
    ----------
    circuits:
        One circuit, or a sequence of circuits sharing one topology
        (:func:`circuit_topology`); they differ only in element values and
        source waveforms.  Circuits of :data:`SPARSE_SIZE_THRESHOLD` unknowns
        or more compile one at a time.
    dt:
        Fixed transient time-step size in second, one for all circuits or
        one per circuit (companion conductances are baked into the static
        values, which is what makes the per-step update cheap).  ``None`` is
        allowed only with ``capacitors_open``.
    method:
        ``"trapezoidal"`` or ``"backward_euler"``, matching
        :meth:`MNAAssembler.assemble`.
    capacitors_open:
        DC mode, mirroring ``MNAAssembler.assemble(capacitors_open=True)``:
        capacitors are removed, inductors become shorts (large
        conductances), no companion models are stamped.  The compiled
        system then solves the operating point
        (:func:`repro.circuit.dc.operating_points`); :meth:`update_state` is
        transient-only and raises.

    Solutions, guesses and :class:`ArrayState` arrays carry a leading job
    axis of length ``K``; with a single circuit, 1-D arrays are accepted
    and returned as well.
    """

    def __init__(
        self,
        circuits: Circuit | Sequence[Circuit],
        dt: float | Sequence[float] | None,
        method: str = "trapezoidal",
        capacitors_open: bool = False,
    ):
        self.circuits = [circuits] if isinstance(circuits, Circuit) else list(circuits)
        if not self.circuits:
            raise ValueError("CompiledMNA needs at least one circuit")
        if method not in ("trapezoidal", "backward_euler"):
            raise ValueError(f"unknown integration method {method!r}")
        self.n_jobs = n_jobs = len(self.circuits)
        if dt is not None:
            dt = np.broadcast_to(np.asarray(dt, dtype=float), (n_jobs,))[:, None]
        if not capacitors_open and (dt is None or np.any(dt <= 0)):
            raise ValueError("compiled transient assembly needs a positive dt")
        circuit = self.circuits[0]
        self.base = MNAAssembler(circuit)
        topology = circuit_topology(circuit, self.base)
        for other in self.circuits[1:]:
            if circuit_topology(other, MNAAssembler(other)) != topology:
                raise ValueError("circuits compiled together must share one topology")
        self.size = self.base.size
        self.sparse = self.size >= SPARSE_SIZE_THRESHOLD
        if self.sparse and n_jobs > 1:
            raise ValueError(
                f"systems of {SPARSE_SIZE_THRESHOLD} unknowns or more compile one circuit at a time"
            )
        self.capacitors_open = capacitors_open
        self._trapezoidal = method == "trapezoidal"
        self.nonlinear = bool(circuit.mosfets)
        self._lu = None  # latest splu factorization (reused: linear / freeze mode)
        self.stats = SolverStats()

        index = self.base.node_index
        rows: list[int] = []
        cols: list[int] = []
        vals: list[np.ndarray | float] = []  # per stamp: (K,) values or one for all
        rhs_plan: list[tuple[int, int, float]] = []  # (row, term, sign)
        n_terms = 0

        def stamp(row: int, col: int, value: np.ndarray | float) -> None:
            rows.append(row), cols.append(col), vals.append(value)

        def stamp_conductance(a: int | None, b: int | None, g: np.ndarray | float) -> None:
            if a is not None:
                stamp(a, a, g)
            if b is not None:
                stamp(b, b, g)
            if a is not None and b is not None:
                stamp(a, b, -g)
                stamp(b, a, -g)

        def stamp_current(a: int | None, b: int | None) -> None:
            """Term ``n_terms`` pushes current from node ``a`` into node ``b``."""
            if a is not None:
                rhs_plan.append((a, n_terms, -1.0))
            if b is not None:
                rhs_plan.append((b, n_terms, 1.0))

        def node_column(elements: str, terminal: str) -> np.ndarray:
            """Node index of one terminal of every element; ground reads the
            zero column :func:`_with_ground` appends."""
            found = (index(getattr(e, terminal)) for e in getattr(circuit, elements))
            return np.array([self.size if i is None else i for i in found], dtype=np.intp)

        # Static stamps, in MNAAssembler.assemble statement order.
        for i in range(self.base.n_nodes):
            stamp(i, i, GMIN)

        resistances = self._values("resistors", "resistance")
        for position, resistor in enumerate(circuit.resistors):
            stamp_conductance(
                index(resistor.a), index(resistor.b), 1.0 / resistances[:, position]
            )

        # Companion conductances are static for a fixed dt; the companion
        # currents (right-hand-side terms) change per step.  DC opens the
        # capacitors and shorts the inductors with a large conductance,
        # exactly like the reference; zero capacitances are skipped as there.
        capacitances = self._values("capacitors", "capacitance")
        self._cap_a = node_column("capacitors", "a")
        self._cap_b = node_column("capacitors", "b")
        inductances = self._values("inductors", "inductance")
        self._ind_a = node_column("inductors", "a")
        self._ind_b = node_column("inductors", "b")
        cap_active: list[int] = []
        if capacitors_open:
            for inductor in circuit.inductors:
                stamp_conductance(index(inductor.a), index(inductor.b), 1.0e9)
        else:
            # The same expressions (and so the same bits) as the reference's
            # companion conductances; update_state reuses them.
            if self._trapezoidal:
                self._cap_geq = 2.0 * capacitances / dt
                self._ind_geq = dt / (2.0 * inductances)
            else:
                self._cap_geq = capacitances / dt
                self._ind_geq = dt / inductances
            for position, capacitor in enumerate(circuit.capacitors):
                if capacitor.capacitance == 0.0:
                    continue
                a, b = index(capacitor.a), index(capacitor.b)
                stamp_conductance(a, b, self._cap_geq[:, position])
                stamp_current(b, a)
                n_terms += 1
                cap_active.append(position)
            for position, inductor in enumerate(circuit.inductors):
                a, b = index(inductor.a), index(inductor.b)
                stamp_conductance(a, b, self._ind_geq[:, position])
                stamp_current(a, b)
                n_terms += 1
        # A basic slice when every capacitor is active keeps the per-step
        # gather a view.
        self._cap_active = (
            slice(None)
            if len(cap_active) == len(circuit.capacitors)
            else np.asarray(cap_active, dtype=np.intp)
        )

        for source in circuit.current_sources:
            stamp_current(index(source.positive), index(source.negative))
            n_terms += 1

        for position, source in enumerate(circuit.voltage_sources):
            row = self.base.vsource_index(position)
            p = index(source.positive)
            n = index(source.negative)
            if p is not None:
                stamp(p, row, 1.0)
                stamp(row, p, 1.0)
            if n is not None:
                stamp(n, row, -1.0)
                stamp(row, n, -1.0)
            rhs_plan.append((row, n_terms, 1.0))
            n_terms += 1

        self._sources = [c.current_sources + c.voltage_sources for c in self.circuits]
        rhs_rows, self._rhs_terms, self._rhs_signs = _plan_arrays(rhs_plan)
        # Flat (job, row) bins of every contribution, job-major: bincount
        # then sums each entry's contributions in plan order.
        self._rhs_bins = (rhs_rows + self.size * np.arange(n_jobs)[:, None]).ravel()

        # MOSFET stamps form the dynamic tail; each slot remembers its device
        # and which linearised coefficient fills it per Newton iteration
        # (codes 0-5: +gm, +gds, -(gm+gds), -gm, -gds, +(gm+gds), in
        # reference order), and each device's i_eq pushes current from drain
        # into source.
        n_static = len(vals)
        slot_devices: list[int] = []
        slot_codes: list[int] = []
        mos_plan: list[tuple[int, int, float]] = []
        for position, mosfet in enumerate(circuit.mosfets):
            d, g, s = index(mosfet.drain), index(mosfet.gate), index(mosfet.source)

            def stamp_mosfet(row: int, col: int, code: int) -> None:
                stamp(row, col, 0.0)
                slot_devices.append(position)
                slot_codes.append(code)

            if d is not None:
                if g is not None:
                    stamp_mosfet(d, g, 0)
                stamp_mosfet(d, d, 1)
                if s is not None:
                    stamp_mosfet(d, s, 2)
            if s is not None:
                if g is not None:
                    stamp_mosfet(s, g, 3)
                if d is not None:
                    stamp_mosfet(s, d, 4)
                stamp_mosfet(s, s, 5)
            if d is not None:
                mos_plan.append((d, position, -1.0))
            if s is not None:
                mos_plan.append((s, position, 1.0))
        self._mos_terminals = np.array(
            [node_column("mosfets", terminal) for terminal in ("drain", "gate", "source")],
            dtype=np.intp,
        ).reshape(3, len(circuit.mosfets))
        # Per iteration, :meth:`assemble` builds the table [gm | gds |
        # gm + gds | i_eq] (one column per device in each block); every
        # matrix slot and then every rhs contribution reads one column of it,
        # times a sign: codes 0-5 are +gm, +gds, -(gm+gds), -gm, -gds,
        # +(gm+gds).
        n_mos = len(circuit.mosfets)
        block = np.array([0, 1, 2, 0, 1, 2])[np.asarray(slot_codes, dtype=np.intp)]
        code_signs = np.array([1.0, 1.0, -1.0, -1.0, -1.0, 1.0])[
            np.asarray(slot_codes, dtype=np.intp)
        ]
        self._mos_rows, mos_terms, mos_signs = _plan_arrays(mos_plan)
        self._mos_columns = np.concatenate(
            (block * n_mos + np.asarray(slot_devices, dtype=np.intp), 3 * n_mos + mos_terms)
        ).astype(np.intp)
        self._mos_signs = np.concatenate((code_signs, mos_signs))
        self._n_dynamic = len(slot_codes)

        row_array = np.asarray(rows, dtype=np.intp)
        col_array = np.asarray(cols, dtype=np.intp)
        static_values = np.empty((n_static, n_jobs))
        for slot, value in enumerate(vals[:n_static]):
            static_values[slot] = value

        if not self.sparse:
            # Dense stack, stamped in order: np.add.at accumulates repeated
            # coordinates sequentially, so each entry sums exactly as the
            # reference's ``matrix[r, c] += value`` statements do.
            self._static = np.zeros((n_jobs, self.size, self.size))
            np.add.at(
                self._static.transpose(1, 2, 0),
                (row_array[:n_static], col_array[:n_static]),
                static_values,
            )
            self._dyn_rows = row_array[n_static:]
            self._dyn_cols = col_array[n_static:]
            return

        # Sparse: collapse duplicate coordinates into the canonical CSR
        # pattern once; ``_slot_to_csr`` maps every stamp slot to its data
        # position, so the per-iteration refresh is one ordered scatter.
        linear = row_array * self.size + col_array
        unique, slot_to_csr = np.unique(linear, return_inverse=True)
        nnz = unique.size
        self._csr = sp.csr_matrix(
            (np.zeros(nnz), (unique // self.size, unique % self.size)),
            shape=(self.size, self.size),
        )
        self._csr.sort_indices()
        if self._csr.nnz != nnz:  # pragma: no cover - structural invariant
            raise AssertionError("CSR pattern lost entries during compilation")
        self._static_data = np.zeros(nnz)
        np.add.at(self._static_data, slot_to_csr[:n_static], static_values[:, 0])
        self._csr.data[:] = self._static_data
        self._dyn_slots = slot_to_csr[n_static:]

        # The factorization wants CSC.  The pattern is static, so convert
        # once and record the CSR->CSC data permutation: refreshing the CSC
        # values is then a single gather, bitwise-identical to (and much
        # cheaper than) calling ``tocsc()`` per factorization.  The marker
        # matrix carries data *positions* through the conversion; with no
        # duplicate coordinates left, its converted data IS the permutation.
        marker = sp.csr_matrix(
            (np.arange(nnz, dtype=np.intp), self._csr.indices, self._csr.indptr),
            shape=(self.size, self.size),
        ).tocsc()
        self._csr_to_csc = marker.data.astype(np.intp)
        self._csc = self._csr.tocsc()

    # --- per-step update --------------------------------------------------

    def step_rhs(self, time: float | np.ndarray, state: ArrayState | None) -> np.ndarray:
        """``(K, size)`` right-hand sides without the MOSFET terms.

        Companion currents from ``state`` (unused in DC mode) and source
        values at ``time`` -- one time for all circuits or one per circuit.
        """
        times = time if np.ndim(time) else [time] * self.n_jobs
        terms = []
        if not self.capacitors_open:
            active = self._cap_active
            cap_v = np.atleast_2d(state.capacitor_voltages)[:, active]
            cap_i = np.atleast_2d(state.capacitor_currents)[:, active]
            ind_i = np.atleast_2d(state.inductor_currents)
            ind_v = np.atleast_2d(state.inductor_voltages)
            if self._trapezoidal:
                terms += [self._cap_geq[:, active] * cap_v + cap_i, ind_i + self._ind_geq * ind_v]
            else:
                terms += [self._cap_geq[:, active] * cap_v, ind_i]
        terms.append(
            np.array(
                [[s.value(t) for s in sources] for sources, t in zip(self._sources, times)],
                dtype=float,
            ).reshape(self.n_jobs, len(self._sources[0]))
        )
        contributions = np.concatenate(terms, axis=1)[:, self._rhs_terms] * self._rhs_signs
        return np.bincount(
            self._rhs_bins, contributions.ravel(), minlength=self.n_jobs * self.size
        ).reshape(self.n_jobs, self.size)

    def assemble(
        self, rhs: np.ndarray, guess: np.ndarray, active: np.ndarray | None = None
    ) -> tuple[np.ndarray | sp.csr_matrix, np.ndarray]:
        """The linearised systems ``(A, b)`` of the ``active`` jobs at ``guess``.

        ``rhs`` is the :meth:`step_rhs` of those jobs and ``guess`` their
        ``(len(active), size)`` Newton estimates (``active=None`` means every
        job).  MOSFETs linearised at ``guess`` stamp on top of the static
        values and of ``rhs``.  Below the threshold ``A`` is a
        ``(len(active), size, size)`` dense stack; at ``splu`` sizes it is
        the cached CSR instance -- solve before the next call.
        """
        jobs = np.arange(self.n_jobs) if active is None else active
        if not self.nonlinear:
            return (self._csr if self.sparse else self._static[jobs]), rhs
        v_d, v_g, v_s = _with_ground(guess)[:, self._mos_terminals].transpose(1, 0, 2)
        v_gs = v_g - v_s
        v_ds = v_d - v_s
        # The device model is scalar: evaluate it per job and device with
        # exactly the reference's arguments, then stamp vectorised.
        i_ds, gm, gds = np.array(
            [
                [
                    mosfet.evaluate(gate, drain)
                    for mosfet, gate, drain in zip(self.circuits[job].mosfets, row_gs, row_ds)
                ]
                for job, row_gs, row_ds in zip(jobs, v_gs, v_ds)
            ]
        ).transpose(2, 0, 1)
        i_eq = i_ds - gm * v_gs - gds * v_ds
        values = (
            np.concatenate((gm, gds, gm + gds, i_eq), axis=1)[:, self._mos_columns]
            * self._mos_signs
        )
        tail = values[:, : self._n_dynamic]
        rhs = rhs.copy()
        np.add.at(rhs.T, self._mos_rows, values[:, self._n_dynamic :].T)
        if self.sparse:
            self._csr.data[:] = self._static_data
            np.add.at(self._csr.data, self._dyn_slots, tail[0])
            return self._csr, rhs
        matrices = self._static[jobs]
        np.add.at(matrices.transpose(1, 2, 0), (self._dyn_rows, self._dyn_cols), tail.T)
        return matrices, rhs

    # --- solve ------------------------------------------------------------

    def _solve(self, matrix, rhs: np.ndarray, time: float, refactorize: bool) -> np.ndarray:
        """Solutions of the assembled systems; ``splu`` reuses the cached LU
        unless ``refactorize``."""
        if not self.sparse:
            self.stats.factorizations += len(rhs)
            try:
                return np.linalg.solve(matrix, rhs[..., None])[..., 0]
            except np.linalg.LinAlgError as error:
                raise RuntimeError(f"singular MNA matrix at t={time}: {error}") from error
        if refactorize or self._lu is None:
            self._csc.data[:] = matrix.data[self._csr_to_csc]
            try:
                self._lu = spla.splu(self._csc)
            except RuntimeError as error:
                raise RuntimeError(f"singular MNA matrix at t={time}: {error}") from error
            self.stats.factorizations += 1
        return self._lu.solve(rhs[0])[None]

    def solve_step(
        self,
        time: float | np.ndarray,
        initial_guess: np.ndarray,
        state: ArrayState | None,
        max_iterations: int = 60,
        tolerance: float = 1.0e-9,
        damping_limit: float = 1.0,
        options: SolverOptions | None = None,
    ) -> np.ndarray:
        """Solve one step of every compiled circuit.

        Linear circuits take one solve (through the cached LU at ``splu``
        sizes).  Nonlinear ones run Newton with the reference's damping and
        convergence test -- under the resolved :class:`SolverOptions` at
        ``splu`` sizes, exact Newton below them.  ``time`` is one time for
        all circuits or one per circuit.
        """
        accumulator = _PROFILE_ACCUMULATOR.get()
        start = perf_counter()
        try:
            self.stats.steps += 1
            times = time if np.ndim(time) else np.full(self.n_jobs, time)
            guess = np.atleast_2d(np.asarray(initial_guess, dtype=float))
            rhs = self.step_rhs(times, state)
            if not self.nonlinear:
                matrix, rhs = self.assemble(rhs, guess)
                solution = self._solve(matrix, rhs, times[0], refactorize=False)
            else:
                opts = resolve_solver_options(options)
                solution = None
                if self.sparse and opts.newton == "freeze" and self._lu is not None:
                    solution = self._newton(
                        times, rhs, guess, opts.max_frozen_iterations, tolerance,
                        damping_limit, frozen=opts,
                    )
                    if solution is None:
                        self.stats.refreshes += 1
                if solution is None:
                    solution = self._newton(
                        times, rhs, guess, max_iterations, tolerance, damping_limit
                    )
            return solution if np.ndim(initial_guess) == 2 else solution[0]
        finally:
            if accumulator is not None:
                accumulator["solve_s"] += perf_counter() - start

    def _newton(
        self,
        times: np.ndarray,
        rhs: np.ndarray,
        guess: np.ndarray,
        budget: int,
        tolerance: float,
        damping_limit: float,
        frozen: SolverOptions | None = None,
    ) -> np.ndarray | None:
        """The Newton loop, over every job until each one converges.

        Exact iterations solve the linearised systems (refactorizing).  With
        ``frozen`` options the loop instead runs the residual update through
        the cached LU and returns ``None`` when contraction stalls or the
        ``budget`` runs out; the caller then restarts the step with exact
        iterations, which keeps the refresh inside exact Newton's damping
        basin.
        """
        solution = guess.copy()
        active = np.arange(self.n_jobs)
        current, active_rhs, previous = guess, rhs, None
        for _ in range(budget):
            self.stats.iterations += 1
            matrix, system_rhs = self.assemble(active_rhs, current, active)
            if frozen is not None:
                delta = self._lu.solve(system_rhs[0] - matrix @ current[0])[None]
                proposed = current + delta
            else:
                proposed = self._solve(matrix, system_rhs, times[active[0]], refactorize=True)
                delta = proposed - current
            max_delta = np.abs(delta).max(axis=1)
            # Per-job decisions with the reference's scalar comparisons.
            deltas = max_delta.tolist()
            damped = [d > damping_limit for d in deltas]
            if any(damped):
                scale = damping_limit / np.where(damped, max_delta, 1.0)
                proposed = np.where(
                    np.array(damped)[:, None], current + delta * scale[:, None], proposed
                )
            current = proposed
            pending = [not d < tolerance for d in deltas]
            if frozen is not None and previous is not None and any(
                p and d > frozen.refresh_contraction * q
                for p, d, q in zip(pending, deltas, previous)
            ):
                return None  # stalled: the frozen Jacobian is too stale
            if all(pending):
                previous = deltas
                continue
            solution[active] = current
            if not any(pending):
                return solution
            keep = np.flatnonzero(pending)
            active, current, active_rhs = active[keep], current[keep], active_rhs[keep]
            previous = [d for d, p in zip(deltas, pending) if p]
        if frozen is not None:
            return None
        raise RuntimeError(
            f"Newton iteration did not converge at t={times[active[0]]} "
            f"after {budget} iterations"
        )

    # --- dynamic state ----------------------------------------------------

    def initial_state(self, operating_point: np.ndarray | None = None) -> ArrayState:
        """Companion state before the first step, with a leading job axis.

        Without an operating point: the element initial conditions.  With
        one (``(K, size)`` DC solutions): capacitors charged to it, every
        current and inductor voltage zero -- the reference's DC start.
        """
        caps = np.zeros((self.n_jobs, self._cap_a.size))
        inductors = np.zeros((self.n_jobs, self._ind_a.size))
        if operating_point is None:
            return ArrayState(
                capacitor_voltages=self._values("capacitors", "initial_voltage"),
                capacitor_currents=caps,
                inductor_currents=self._values("inductors", "initial_current"),
                inductor_voltages=inductors,
            )
        x = _with_ground(operating_point)
        return ArrayState(
            capacitor_voltages=x[:, self._cap_a] - x[:, self._cap_b],
            capacitor_currents=caps,
            inductor_currents=inductors,
            inductor_voltages=inductors,
        )

    def _values(self, elements: str, attribute: str) -> np.ndarray:
        count = len(getattr(self.circuits[0], elements))
        return np.array(
            [[getattr(e, attribute) for e in getattr(c, elements)] for c in self.circuits],
            dtype=float,
        ).reshape(self.n_jobs, count)

    def update_state(self, solution: np.ndarray, state: ArrayState) -> ArrayState:
        """Vectorised twin of :meth:`MNAAssembler.update_state`."""
        if self.capacitors_open:
            raise RuntimeError(
                "update_state needs companion models; a DC-compiled system "
                "(capacitors_open=True) has none"
            )
        x = _with_ground(np.atleast_2d(solution))
        cap_v = np.atleast_2d(state.capacitor_voltages)
        cap_i = np.atleast_2d(state.capacitor_currents)
        ind_i = np.atleast_2d(state.inductor_currents)
        ind_v = np.atleast_2d(state.inductor_voltages)

        # The companion conductances are the reference's 2C/dt (C/dt) and
        # dt/2L (dt/L) factors, evaluated once at compile time.
        v_now_cap = x[:, self._cap_a] - x[:, self._cap_b]
        if self._trapezoidal:
            i_now_cap = self._cap_geq * (v_now_cap - cap_v) - cap_i
        else:
            i_now_cap = self._cap_geq * (v_now_cap - cap_v)

        v_now_ind = x[:, self._ind_a] - x[:, self._ind_b]
        if self._trapezoidal:
            i_now_ind = ind_i + self._ind_geq * (v_now_ind + ind_v)
        else:
            i_now_ind = ind_i + self._ind_geq * v_now_ind

        arrays = (v_now_cap, i_now_cap, i_now_ind, v_now_ind)
        if np.ndim(solution) == 1:
            arrays = tuple(array[0] for array in arrays)
        return ArrayState(*arrays)


def _plan_arrays(plan: list[tuple[int, int, float]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split an ordered ``(row, term, sign)`` scatter plan into index arrays."""
    rows = np.array([row for row, _, _ in plan], dtype=np.intp)
    terms = np.array([term for _, term, _ in plan], dtype=np.intp)
    signs = np.array([sign for _, _, sign in plan], dtype=float)
    return rows, terms, signs

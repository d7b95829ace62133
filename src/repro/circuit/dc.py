"""DC operating-point analysis.

Capacitors are opened, inductors are shorted, sources are evaluated at a
given time (default 0) and the nonlinear system is solved by Newton
iteration.  The result seeds transient analyses so that simulations start
from a consistent bias point.

The solve runs on :class:`~repro.circuit.compiled.CompiledMNA` compiled in
DC mode.  :func:`operating_points` solves a batch of same-topology circuits
together -- the DC start of :func:`repro.circuit.transient.simulate` -- and
:func:`dc_operating_point` is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.circuit.compiled import CompiledMNA
from repro.circuit.netlist import Circuit


@dataclass(frozen=True)
class DCResult:
    """Result of a DC operating-point analysis.

    Attributes
    ----------
    node_voltages:
        Mapping from node name to voltage in volt (ground excluded).
    source_currents:
        Mapping from voltage-source name to branch current in ampere.
    """

    node_voltages: dict[str, float]
    source_currents: dict[str, float]

    def voltage(self, node: str) -> float:
        """Voltage of a node (0 for ground)."""
        if node in self.node_voltages:
            return self.node_voltages[node]
        from repro.circuit.netlist import is_ground

        if is_ground(node):
            return 0.0
        raise KeyError(f"unknown node {node!r}")

    def current(self, source_name: str) -> float:
        """Branch current of a voltage source in ampere."""
        return self.source_currents[source_name]


def operating_points(
    circuits: Sequence[Circuit],
    time: float = 0.0,
    max_iterations: int = 200,
    tolerance: float = 1.0e-9,
) -> np.ndarray:
    """DC solution vectors, ``(len(circuits), size)``, of same-topology circuits.

    Newton starts from a supply-aware guess -- every node halfway to the
    circuit's largest DC source magnitude -- which speeds up and stabilises
    CMOS circuits.
    """
    compiled = CompiledMNA(circuits, dt=None, capacitors_open=True)
    guess = np.zeros((compiled.n_jobs, compiled.size))
    for row, circuit in zip(guess, compiled.circuits):
        supply_levels = [abs(v.value(time)) for v in circuit.voltage_sources]
        if supply_levels:
            row[: compiled.base.n_nodes] = 0.5 * max(supply_levels)
    return compiled.solve_step(
        time, guess, None, max_iterations=max_iterations, tolerance=tolerance
    )


def dc_operating_point(
    circuit: Circuit,
    time: float = 0.0,
    max_iterations: int = 200,
    tolerance: float = 1.0e-9,
) -> DCResult:
    """Solve the DC operating point of a circuit.

    Parameters
    ----------
    circuit:
        The circuit to solve.
    time:
        Time at which source waveforms are evaluated (waveform-driven inputs
        take their ``t = time`` value as a DC level).
    max_iterations:
        Newton iteration cap.
    tolerance:
        Convergence threshold in volt.

    Returns
    -------
    DCResult
    """
    nodes = circuit.nodes()
    if not nodes and not circuit.voltage_sources:
        return DCResult(node_voltages={}, source_currents={})
    solution = operating_points([circuit], time, max_iterations, tolerance)[0]
    return DCResult(
        node_voltages={name: float(solution[i]) for i, name in enumerate(nodes)},
        source_currents={
            source.name: float(solution[len(nodes) + position])
            for position, source in enumerate(circuit.voltage_sources)
        },
    )

"""Compiled MNA: structure, reference parity and factorization policy.

The production solver must reproduce the dense reference
(:class:`MNAAssembler` + ``newton_solve``, driven by
``reference_transient_analysis``): identical matrices and right-hand sides
for identical inputs, and waveforms that are bitwise-identical below
``SPARSE_SIZE_THRESHOLD`` unknowns and within 1e-9 at ``splu`` sizes.
"""

import numpy as np
import pytest

from repro.circuit import (
    Circuit,
    SPARSE_SIZE_THRESHOLD,
    Step,
    transient_analysis,
)
from repro.circuit.compiled import ArrayState, CompiledMNA
from repro.circuit.inverter import Inverter, add_supply
from repro.circuit.mna import CompanionState, MNAAssembler
from repro.circuit.transient import reference_transient_analysis
from repro.circuit.rcline import add_rc_ladder
from repro.circuit.technology import NODE_45NM
from repro.core.line import DistributedRC

PARITY_RTOL = 1.0e-9


def _rc_ladder_circuit(n_segments: int = 30) -> Circuit:
    circuit = Circuit("rc ladder")
    circuit.add_voltage_source("vin", "a", "0", Step(0.0, 1.0, delay=1e-12, rise_time=5e-12))
    circuit.add_resistor("rdrv", "a", "n0", 1e3)
    ladder = DistributedRC(
        total_resistance=2e4,
        total_capacitance=5e-14,
        contact_resistance=4e3,
        n_segments=n_segments,
    )
    add_rc_ladder(circuit, ladder, "n0", "far", name_prefix="dut")
    circuit.add_capacitor("cl", "far", "0", 2e-15)
    return circuit


def _rlc_circuit() -> Circuit:
    circuit = Circuit("rlc")
    circuit.add_voltage_source("vin", "a", "0", Step(0.0, 1.0, rise_time=1e-12))
    circuit.add_resistor("r1", "a", "b", 50.0)
    circuit.add_inductor("l1", "b", "c", 1e-9)
    circuit.add_capacitor("c1", "c", "0", 1e-12)
    return circuit


def _inverter_line_circuit(n_segments: int = 12) -> Circuit:
    circuit = Circuit("inverter line")
    add_supply(circuit, NODE_45NM)
    v_dd = NODE_45NM.supply_voltage
    circuit.add_voltage_source("vin", "in", "0", Step(0.0, v_dd, delay=2e-12, rise_time=4e-12))
    Inverter("drv", "in", "near", technology=NODE_45NM).add_to(circuit)
    ladder = DistributedRC(
        total_resistance=1e4, total_capacitance=2e-14, contact_resistance=2e3, n_segments=n_segments
    )
    add_rc_ladder(circuit, ladder, "near", "far", name_prefix="dut")
    Inverter("rcv", "far", "out", technology=NODE_45NM).add_to(circuit)
    return circuit


def _large_inverter_line_circuit() -> Circuit:
    return _inverter_line_circuit(n_segments=80)


def _large_rc_ladder_circuit() -> Circuit:
    return _rc_ladder_circuit(n_segments=80)


def _resistor_chain(size: int) -> Circuit:
    """A source driving a resistor chain: exactly ``size`` MNA unknowns."""
    circuit = Circuit("chain")
    circuit.add_voltage_source("vin", "n0", "0", 1.0)
    for i in range(1, size - 1):
        circuit.add_resistor(f"r{i}", f"n{i - 1}", f"n{i}", 1e3)
    circuit.add_resistor("rload", f"n{size - 2}", "0", 1e3)
    return circuit


def _max_relative_error(a, b) -> float:
    scale = max(
        max(np.max(np.abs(w)) for w in a.node_voltages.values()), 1e-30
    )
    return max(
        float(np.max(np.abs(a.voltage(n) - b.voltage(n)))) for n in a.node_voltages
    ) / scale


def _assert_bitwise(reference, production) -> None:
    assert np.array_equal(reference.times, production.times)
    assert reference.node_voltages.keys() == production.node_voltages.keys()
    for node in reference.node_voltages:
        assert np.array_equal(reference.voltage(node), production.voltage(node)), node
    for source in reference.source_currents:
        assert np.array_equal(reference.current(source), production.current(source)), source


def _dense(matrix) -> np.ndarray:
    return matrix.toarray() if hasattr(matrix, "toarray") else matrix[0]


class TestBackendSelection:
    """The factorization policy follows the system size, with no override."""

    def test_small_circuits_stay_dense(self):
        circuit = _resistor_chain(SPARSE_SIZE_THRESHOLD - 1)
        assert MNAAssembler(circuit).size == SPARSE_SIZE_THRESHOLD - 1
        assert not CompiledMNA(circuit, dt=1e-12).sparse

    def test_large_circuits_go_sparse(self):
        circuit = _resistor_chain(SPARSE_SIZE_THRESHOLD)
        assert MNAAssembler(circuit).size == SPARSE_SIZE_THRESHOLD
        assert CompiledMNA(circuit, dt=1e-12).sparse

    def test_large_circuits_compile_one_at_a_time(self):
        circuit = _resistor_chain(SPARSE_SIZE_THRESHOLD)
        with pytest.raises(ValueError, match="one circuit at a time"):
            CompiledMNA([circuit, _resistor_chain(SPARSE_SIZE_THRESHOLD)], dt=1e-12)

    def test_batch_needs_one_topology(self):
        with pytest.raises(ValueError, match="one topology"):
            CompiledMNA([_rc_ladder_circuit(4), _rc_ladder_circuit(5)], dt=1e-12)


class TestCompiledAssembly:
    """The compiled system must match the dense assembler bit for bit."""

    @pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
    @pytest.mark.parametrize(
        "builder",
        [
            _rc_ladder_circuit,
            _rlc_circuit,
            _inverter_line_circuit,
            _large_rc_ladder_circuit,
            _large_inverter_line_circuit,
        ],
    )
    def test_matrix_and_rhs_match_dense(self, builder, method):
        circuit = builder()
        dt = 1e-12
        assembler = MNAAssembler(circuit)
        compiled = CompiledMNA(circuit, dt=dt, method=method)

        rng = np.random.default_rng(7)
        guess = rng.normal(scale=0.4, size=assembler.size)
        state = CompanionState.initial(circuit)
        dense_matrix, dense_rhs = assembler.assemble(
            3e-12, guess, state=state, dt=dt, method=method
        )
        matrix, rhs = compiled.assemble(
            compiled.step_rhs(3e-12, ArrayState.from_companion(state, circuit)), guess[None]
        )
        assert np.array_equal(_dense(matrix), dense_matrix)
        assert np.array_equal(rhs[0], dense_rhs)

    @pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
    def test_update_state_matches_dense(self, method):
        circuit = _rlc_circuit()
        dt = 2e-12
        assembler = MNAAssembler(circuit)
        compiled = CompiledMNA(circuit, dt=dt, method=method)
        rng = np.random.default_rng(11)
        solution = rng.normal(size=assembler.size)

        state = CompanionState.initial(circuit)
        dense_next = assembler.update_state(solution, state, dt, method=method)
        array_next = compiled.update_state(
            solution, ArrayState.from_companion(state, circuit)
        ).to_companion(circuit)
        assert array_next == dense_next

    def test_validation(self):
        circuit = _rc_ladder_circuit(4)
        with pytest.raises(ValueError):
            CompiledMNA(circuit, dt=1e-12, method="euler")
        with pytest.raises(ValueError):
            CompiledMNA(circuit, dt=0.0)


class TestTransientParity:
    @pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
    def test_linear_ladder_waveforms_match(self, method):
        circuit = _rc_ladder_circuit()
        reference = reference_transient_analysis(circuit, 1e-9, 4e-12, method=method)
        production = transient_analysis(circuit, 1e-9, 4e-12, method=method)
        _assert_bitwise(reference, production)

    def test_rlc_waveforms_match(self):
        circuit = _rlc_circuit()
        reference = reference_transient_analysis(circuit, 2e-10, 5e-13)
        _assert_bitwise(reference, transient_analysis(circuit, 2e-10, 5e-13))

    def test_nonlinear_waveforms_match(self):
        circuit = _inverter_line_circuit()
        reference = reference_transient_analysis(circuit, 3e-10, 1e-12)
        _assert_bitwise(reference, transient_analysis(circuit, 3e-10, 1e-12))

    def test_no_dc_start_honours_initial_conditions(self):
        circuit = Circuit("ic")
        circuit.add_voltage_source("vin", "a", "0", 1.0)
        circuit.add_resistor("r1", "a", "b", 1e3)
        circuit.add_capacitor("c1", "b", "0", 1e-12, initial_voltage=0.25)
        reference = reference_transient_analysis(circuit, 1e-9, 2e-12, use_dc_start=False)
        production = transient_analysis(circuit, 1e-9, 2e-12, use_dc_start=False)
        _assert_bitwise(reference, production)
        assert production.voltage("b")[0] == pytest.approx(0.0)

    def test_sparse_default_for_large_circuit(self):
        """Large circuits take the splu policy and match the reference to 1e-9."""
        circuit = _rc_ladder_circuit(n_segments=80)
        assert MNAAssembler(circuit).size >= SPARSE_SIZE_THRESHOLD
        reference = reference_transient_analysis(circuit, 4e-10, 4e-12)
        production = transient_analysis(circuit, 4e-10, 4e-12)
        assert _max_relative_error(reference, production) < PARITY_RTOL

    def test_large_nonlinear_waveforms_match(self):
        circuit = _large_inverter_line_circuit()
        assert MNAAssembler(circuit).size >= SPARSE_SIZE_THRESHOLD
        reference = reference_transient_analysis(circuit, 3e-10, 1e-12)
        production = transient_analysis(circuit, 3e-10, 1e-12)
        assert _max_relative_error(reference, production) < PARITY_RTOL

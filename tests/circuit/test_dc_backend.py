"""DC operating point on the compiled solver, against the dense reference.

The reference operating point is the first sample of
``reference_transient_analysis`` (its DC start runs the dense
``newton_solve``).  Below ``SPARSE_SIZE_THRESHOLD`` unknowns production must
match it bit for bit, at ``splu`` sizes to 1e-9.
"""

import numpy as np
import pytest

from repro.circuit import (
    SPARSE_SIZE_THRESHOLD,
    Circuit,
    CompiledMNA,
    dc_operating_point,
)
from repro.circuit import compiled as compiled_module
from repro.circuit.compiled import ArrayState
from repro.circuit.dc import DCResult
from repro.circuit.inverter import Inverter, add_supply
from repro.circuit.mna import MNAAssembler
from repro.circuit.rcline import add_rc_ladder
from repro.circuit.transient import reference_transient_analysis
from repro.core.line import DistributedRC


def _large_ladder(n_segments: int = 120) -> Circuit:
    circuit = Circuit("dc ladder")
    circuit.add_voltage_source("vin", "a", "0", 1.0)
    circuit.add_resistor("rdrv", "a", "n0", 1.0e3)
    ladder = DistributedRC(
        total_resistance=5.0e4,
        total_capacitance=2.0e-13,
        contact_resistance=6.0e3,
        n_segments=n_segments,
    )
    add_rc_ladder(circuit, ladder, "n0", "far", name_prefix="dut")
    circuit.add_capacitor("cl", "far", "0", 5.0e-15)
    circuit.add_resistor("rload", "far", "0", 1.0e6)
    return circuit


def _nonlinear_line(n_segments: int = 100) -> Circuit:
    circuit = Circuit("dc inverter line")
    add_supply(circuit)
    circuit.add_voltage_source("vin", "in", "0", 0.4)
    Inverter("drv", "in", "near").add_to(circuit)
    ladder = DistributedRC(
        total_resistance=5.0e4,
        total_capacitance=2.0e-13,
        contact_resistance=6.0e3,
        n_segments=n_segments,
    )
    add_rc_ladder(circuit, ladder, "near", "far", name_prefix="dut")
    Inverter("rcv", "far", "out").add_to(circuit)
    return circuit


def _reference_dc(circuit: Circuit) -> DCResult:
    start = reference_transient_analysis(circuit, 1e-12, 1e-12)
    return DCResult(
        node_voltages={name: float(v[0]) for name, v in start.node_voltages.items()},
        source_currents={name: float(i[0]) for name, i in start.source_currents.items()},
    )


def _divider() -> Circuit:
    small = Circuit("divider")
    small.add_voltage_source("v1", "a", "0", 2.0)
    small.add_resistor("r1", "a", "b", 1.0e3)
    small.add_resistor("r2", "b", "0", 1.0e3)
    return small


def _worst_delta(a, b) -> float:
    node = max(abs(a.node_voltages[n] - b.node_voltages[n]) for n in a.node_voltages)
    current = max(abs(a.source_currents[s] - b.source_currents[s]) for s in a.source_currents)
    return max(node, current)


class TestDCParity:
    def test_large_linear_ladder(self):
        circuit = _large_ladder()
        assert MNAAssembler(circuit).size >= SPARSE_SIZE_THRESHOLD
        production = dc_operating_point(circuit)
        assert _worst_delta(_reference_dc(circuit), production) <= 1.0e-9
        # Sanity: the ladder actually divides the supply.
        assert 0.9 < production.voltage("far") < 1.0

    def test_large_nonlinear_line(self):
        circuit = _nonlinear_line()
        assert MNAAssembler(circuit).size >= SPARSE_SIZE_THRESHOLD
        production = dc_operating_point(circuit)
        assert _worst_delta(_reference_dc(circuit), production) <= 1.0e-9

    def test_auto_routing_follows_threshold(self):
        """Large circuits factorize through splu (1e-9 of the reference),
        small ones through dense LAPACK (bitwise equal to it)."""
        large = _large_ladder()
        assert CompiledMNA(large, dt=None, capacitors_open=True).sparse
        assert _worst_delta(_reference_dc(large), dc_operating_point(large)) <= 1.0e-9

        small = _divider()
        assert MNAAssembler(small).size < SPARSE_SIZE_THRESHOLD
        assert not CompiledMNA(small, dt=None, capacitors_open=True).sparse
        assert dc_operating_point(small) == _reference_dc(small)
        small_nonlinear = _nonlinear_line(n_segments=10)
        assert MNAAssembler(small_nonlinear).size < SPARSE_SIZE_THRESHOLD
        assert dc_operating_point(small_nonlinear) == _reference_dc(small_nonlinear)
        assert dc_operating_point(small).voltage("b") == pytest.approx(1.0, rel=1e-9)

    def test_small_circuit_explicit_sparse_works(self, monkeypatch):
        monkeypatch.setattr(compiled_module, "SPARSE_SIZE_THRESHOLD", 0)
        small = _divider()
        assert CompiledMNA(small, dt=None, capacitors_open=True).sparse
        sparse = dc_operating_point(small)
        assert sparse.voltage("b") == pytest.approx(1.0, rel=1e-9)


class TestDCCompiledSystem:
    def test_dc_compile_requires_no_dt(self):
        circuit = _large_ladder(n_segments=4)
        compiled = CompiledMNA(circuit, dt=None, capacitors_open=True)
        assert compiled.capacitors_open
        with pytest.raises(ValueError, match="positive dt"):
            CompiledMNA(circuit, dt=None)

    def test_update_state_is_transient_only(self):
        circuit = _large_ladder(n_segments=4)
        compiled = CompiledMNA(circuit, dt=None, capacitors_open=True)
        solution = compiled.solve_step(0.0, np.zeros(compiled.size), ArrayState.zeros(circuit))
        with pytest.raises(RuntimeError, match="companion models"):
            compiled.update_state(solution, ArrayState.zeros(circuit))

    def test_inductor_becomes_short_at_dc(self):
        circuit = Circuit("rl")
        circuit.add_voltage_source("v1", "a", "0", 1.0)
        circuit.add_resistor("r1", "a", "b", 1.0e3)
        circuit.add_inductor("l1", "b", "c", 1.0e-9)
        circuit.add_resistor("r2", "c", "0", 1.0e3)
        production = dc_operating_point(circuit)
        assert production == _reference_dc(circuit)
        assert production.voltage("b") == pytest.approx(production.voltage("c"), abs=1e-6)

"""Batched transient evaluation: bitwise identity with the reference.

``batched_transient_analysis`` compiles same-topology transients into one
system and marches them in lockstep.  The contract these tests pin is
*bitwise* identity below ``SPARSE_SIZE_THRESHOLD`` unknowns: every float a
batched run produces must equal what the dense reference
(``reference_transient_analysis``) produces for the same job, so batching
can never perturb a result, a content hash, or a cache key.
"""

import numpy as np
import pytest

import repro.circuit.batched as batched
import repro.circuit.delay as delay_module
from repro.circuit import SPARSE_SIZE_THRESHOLD, Circuit, Step
from repro.circuit.batched import (
    TransientJob,
    batched_transient_analysis,
    topology_signature,
)
from repro.circuit.delay import (
    measure_inverter_line_delay,
    measure_inverter_line_delay_batch,
)
from repro.circuit.inverter import Inverter, add_supply
from repro.circuit.mna import MNAAssembler
from repro.circuit.transient import reference_transient_analysis
from repro.circuit.rcline import add_rc_ladder
from repro.circuit.technology import NODE_45NM
from repro.core.line import DistributedRC


def _line(contact_resistance: float, n_segments: int = 8) -> DistributedRC:
    return DistributedRC(
        total_resistance=1e4,
        total_capacitance=4e-14,
        contact_resistance=contact_resistance,
        n_segments=n_segments,
    )


def _inverter_circuit(contact_resistance: float, n_segments: int = 8) -> Circuit:
    circuit = Circuit("batched probe")
    add_supply(circuit, NODE_45NM)
    circuit.add_voltage_source(
        "vin", "in", "0", Step(0.0, NODE_45NM.supply_voltage, rise_time=5e-12)
    )
    Inverter("drv", "in", "near", technology=NODE_45NM).add_to(circuit)
    add_rc_ladder(
        circuit, _line(contact_resistance, n_segments), "near", "far", name_prefix="line"
    )
    circuit.add_capacitor("cl", "far", "0", 2e-15)
    return circuit


def _jobs(contacts, n_segments: int = 8) -> list:
    return [
        TransientJob(_inverter_circuit(contact, n_segments), 2e-10, 1e-12)
        for contact in contacts
    ]


def _reference(job: TransientJob):
    return reference_transient_analysis(
        job.circuit,
        job.stop_time,
        job.time_step,
        method=job.method,
        use_dc_start=job.use_dc_start,
        max_newton_iterations=job.max_newton_iterations,
    )


def _use_reference(monkeypatch) -> None:
    """Route ``repro.circuit.delay`` through the dense reference solver."""
    monkeypatch.setattr(
        delay_module, "batched_transient_analysis", lambda jobs: [_reference(j) for j in jobs]
    )


def _assert_results_identical(batched, serial):
    assert len(batched) == len(serial)
    for got, want in zip(batched, serial):
        assert np.array_equal(got.times, want.times)
        assert set(got.node_voltages) == set(want.node_voltages)
        for node in want.node_voltages:
            assert np.array_equal(got.voltage(node), want.voltage(node)), node
        for source in want.source_currents:
            assert np.array_equal(got.current(source), want.current(source)), source


class TestBatchedTransient:
    def test_bitwise_identical_to_serial(self):
        contacts = [1e3, 5e3, 2e4, 1e5]
        batched = batched_transient_analysis(_jobs(contacts))
        _assert_results_identical(batched, [_reference(job) for job in _jobs(contacts)])

    def test_mixed_topologies_grouped_independently(self):
        """Different segment counts land in different stacks, same answers."""
        jobs = _jobs([1e3, 1e4], n_segments=6) + _jobs([1e3, 1e4], n_segments=10)
        batched = batched_transient_analysis(jobs)
        _assert_results_identical(batched, [_reference(job) for job in jobs])

    def test_singleton_batch(self):
        jobs = _jobs([7e3])
        batched = batched_transient_analysis(jobs)
        _assert_results_identical(batched, [_reference(jobs[0])])

    def test_empty_batch(self):
        assert batched_transient_analysis([]) == []

    def test_topology_signature_groups_same_structure(self):
        a = TransientJob(_inverter_circuit(1e3), 2e-10, 1e-12)
        b = TransientJob(_inverter_circuit(9e4), 2e-10, 1e-12)
        c = TransientJob(_inverter_circuit(1e3, n_segments=10), 2e-10, 1e-12)
        sig_a = topology_signature(a, MNAAssembler(a.circuit))
        sig_b = topology_signature(b, MNAAssembler(b.circuit))
        sig_c = topology_signature(c, MNAAssembler(c.circuit))
        assert sig_a == sig_b
        assert sig_a != sig_c

    def test_large_circuits_run_alone_within_tolerance(self):
        """At splu sizes each job compiles alone and matches to 1e-9."""
        jobs = _jobs([1e3, 1e4], n_segments=70)
        assert MNAAssembler(jobs[0].circuit).size >= SPARSE_SIZE_THRESHOLD
        for got, job in zip(batched_transient_analysis(jobs), jobs):
            want = _reference(job)
            for node in want.node_voltages:
                assert np.max(np.abs(got.voltage(node) - want.voltage(node))) < 1e-9

    def test_failed_group_reruns_job_by_job(self, monkeypatch):
        simulate = batched.simulate

        def fail_groups(jobs, *args):
            if len(jobs) > 1:
                raise RuntimeError("injected group failure")
            return simulate(jobs, *args)

        monkeypatch.setattr(batched, "simulate", fail_groups)
        jobs = _jobs([1e3, 1e4])
        _assert_results_identical(
            batched_transient_analysis(jobs), [_reference(job) for job in jobs]
        )

    def test_failing_jobs_raise_their_own_error(self):
        jobs = [
            TransientJob(job.circuit, job.stop_time, job.time_step, max_newton_iterations=1)
            for job in _jobs([1e3, 1e4])
        ]
        with pytest.raises(RuntimeError, match="did not converge"):
            batched_transient_analysis(jobs)


class TestBatchedDelay:
    def test_delay_batch_identical_to_serial(self, monkeypatch):
        lines = [_line(1e5 + 2.5e4 * index) for index in range(4)]
        batched = measure_inverter_line_delay_batch(lines, n_time_steps=150)
        _use_reference(monkeypatch)
        serial = [measure_inverter_line_delay(line, n_time_steps=150) for line in lines]
        for got, want in zip(batched, serial):
            assert got.propagation_delay == want.propagation_delay
            assert got.receiver_output_delay == want.receiver_output_delay
            assert got.far_end_rise_time == want.far_end_rise_time

    def test_fig12_records_batch_identical(self, monkeypatch):
        from repro.analysis.fig12_delay_ratio import (
            DelayRatioStudy,
            fig12_records,
            fig12_records_batch,
        )

        studies = [
            DelayRatioStudy(
                diameters_nm=(10.0,),
                lengths_um=(10.0, 50.0),
                channel_counts=(2.0, 8.0),
                n_segments=6,
            ),
            DelayRatioStudy(
                diameters_nm=(14.0,),
                lengths_um=(10.0,),
                channel_counts=(2.0, 4.0),
                n_segments=6,
            ),
        ]
        batched = fig12_records_batch(studies)
        _use_reference(monkeypatch)
        serial = [fig12_records(study) for study in studies]
        assert batched == serial

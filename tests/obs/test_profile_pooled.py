"""Profile blocks for pooled executors: solve_s accrues, dispatch_s is sane.

Regression coverage for three profiling defects: the profile flag was
never forwarded into pool workers (so every pooled point reported
``solve_s = 0``), ``dispatch_s`` ignored the result-retrieval wait, so
``wall_s`` could exceed ``solve_s + dispatch_s`` by the whole transfer
time, and paper-size circuits solved outside the metered compiled solver
(so a Fig. 12 sweep reported ``solve_s = 0``).
"""

import pytest

from repro.api import Engine, SweepSpec
from repro.api.experiment import Experiment, ParamSpec
from repro.circuit import Circuit, Step, transient_analysis


def _rc_transient(tau_scale: float = 1.0) -> list[dict]:
    circuit = Circuit("rc")
    circuit.add_voltage_source(
        "vin", "in", "0", Step(0.0, 1.0, delay=1e-12, rise_time=2e-12)
    )
    circuit.add_resistor("r", "in", "out", 1e3 * tau_scale)
    circuit.add_capacitor("c", "out", "0", 1e-13)
    result = transient_analysis(circuit, stop_time=2e-10, time_step=1e-12)
    return [{"tau_scale": tau_scale, "v_out": result.final_voltage("out")}]


def _experiment() -> Experiment:
    return Experiment(
        name="adhoc_profiled_rc",
        fn=_rc_transient,
        params=(ParamSpec("tau_scale", "float", 1.0, "R multiplier"),),
        description="tiny transient for profiling tests",
    )


SPEC = SweepSpec.grid(tau_scale=[1.0, 2.0, 3.0])


class TestPooledProfile:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_solve_time_accrues_per_point(self, executor):
        with Engine(executor=executor, max_workers=2, profile=True) as engine:
            result = engine.sweep(_experiment(), SPEC, use_cache=False)
        aggregate = result.meta["profile"]
        assert aggregate["points_profiled"] == len(SPEC)
        assert aggregate["solve_s"] > 0.0
        assert aggregate["dispatch_s"] >= 0.0
        assert aggregate["wall_s"] >= aggregate["solve_s"]

    def test_pooled_point_blocks_split_wall_into_solve_and_dispatch(self):
        with Engine(executor="thread", max_workers=2, profile=True) as engine:
            points = list(engine.iter_sweep(_experiment(), SPEC, use_cache=False))
        for point in points:
            block = point.result.meta["profile"]
            assert block["solve_s"] > 0.0
            assert block["dispatch_s"] >= 0.0
            assert block["wall_s"] >= block["solve_s"]

    def test_profile_rides_outside_the_content_hash(self):
        plain = Engine().sweep(_experiment(), SPEC, use_cache=False)
        with Engine(executor="thread", max_workers=2, profile=True) as engine:
            profiled = engine.sweep(_experiment(), SPEC, use_cache=False)
        assert profiled.content_hash == plain.content_hash


def test_paper_size_fig12_point_reports_solver_time():
    """A Fig. 12 sweep at the paper's 20-segment lines meters its solves."""
    spec = SweepSpec.grid(contact_resistance=[100e3, 250e3])
    base = {"diameters_nm": (10.0,), "lengths_um": (50.0,), "channel_counts": (2.0, 6.0)}
    with Engine(profile=True) as engine:
        result = engine.sweep("fig12", spec, base_params=base, use_cache=False)
    aggregate = result.meta["profile"]
    assert aggregate["points_profiled"] == len(spec)
    assert aggregate["solve_s"] > 0.0
    assert aggregate["wall_s"] >= aggregate["solve_s"]

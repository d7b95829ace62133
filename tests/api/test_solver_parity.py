"""Reference-vs-production MNA parity for every registered circuit-backed experiment.

Any experiment tagged ``"circuit"`` ultimately runs through the MNA solver.
The reference run rebinds the transient entry points in every loaded
``repro`` module to the dense re-stamping reference
(``reference_transient_analysis``), the way ``perfbench/tracer.py`` swaps
functions; the production run uses the compiled solver.  Every experiment's
fast parameters stay below ``SPARSE_SIZE_THRESHOLD`` unknowns, where the two
must agree bit for bit (the ``splu`` side is covered by
``tests/circuit/test_compiled_mna.py``).  The parametrisation discovers the
circuit-backed experiments from the registry, so a future PR that registers
a new one is automatically pulled in (and reminded, via the failure
message, to provide fast parameters here).
"""

import math
import sys

import pytest

import repro.circuit.batched as batched
import repro.circuit.mna as mna
import repro.circuit.transient as transient
from repro.api import Engine
from repro.api.experiment import ensure_registered, list_experiments
from repro.circuit.compiled import SolverOptions, solver_options
from repro.circuit.transient import reference_transient_analysis

# Small-but-representative parameters per circuit-backed experiment: the
# parity property does not depend on problem size, so keep the test fast.
FAST_PARAMS = {
    "fig12": {
        "diameters_nm": (10.0,),
        "lengths_um": (50.0,),
        "channel_counts": (2.0, 6.0),
        "n_segments": 8,
        "use_transient": True,
    },
    "crosstalk": {
        "n_segments": 5,
        "n_time_steps": 150,
        "resolution": 2,
        "line_length_um": 20.0,
    },
    "energy": {
        "lengths_um": (100.0, 500.0),
    },
    # Composite experiment: the engine resolves the upstream `variability`
    # stage (pure Monte Carlo, no MNA) and injects it; only the downstream
    # delay corners exercise the solver.
    "variability_delay": {
        "length_um": 5.0,
        "n_segments": 4,
        "n_time_steps": 120,
    },
}


def _circuit_experiment_names() -> list[str]:
    ensure_registered()
    return [experiment.name for experiment in list_experiments(tag="circuit")]


def _records_equal(reference: list[dict], production: list[dict]) -> None:
    assert len(reference) == len(production)
    for row_reference, row_production in zip(reference, production):
        assert row_reference.keys() == row_production.keys()
        for key, value in row_reference.items():
            other = row_production[key]
            if isinstance(value, float) and math.isnan(value):
                assert isinstance(other, float) and math.isnan(other), key
            else:
                assert other == value, key


def _reference_batch(jobs):
    return [
        reference_transient_analysis(
            job.circuit,
            job.stop_time,
            job.time_step,
            method=job.method,
            use_dc_start=job.use_dc_start,
            max_newton_iterations=job.max_newton_iterations,
        )
        for job in jobs
    ]


def _reference_single(*args, solver_opts=None, **kwargs):
    return reference_transient_analysis(*args, **kwargs)


def _use_reference(monkeypatch) -> None:
    """Rebind every loaded ``repro`` module's transient entry points to the
    dense reference (which has no Newton policy to take)."""
    swaps = (
        (transient.transient_analysis, _reference_single),
        (batched.batched_transient_analysis, _reference_batch),
    )
    modules = [m for n, m in sys.modules.items() if n == "repro" or n.startswith("repro.")]
    for module in modules:
        for attribute, value in list(vars(module).items()):
            for original, replacement in swaps:
                if value is original:
                    monkeypatch.setattr(module, attribute, replacement)


def _fast_params(name: str) -> dict:
    if name not in FAST_PARAMS:
        pytest.fail(
            f"experiment {name!r} is tagged 'circuit' but has no fast parameters "
            "in FAST_PARAMS; add a small configuration so its reference parity "
            "is covered"
        )
    return FAST_PARAMS[name]


def _reference_run(name: str, params: dict):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _use_reference(monkeypatch)
        return Engine().run(name, **params)


@pytest.mark.parametrize("name", _circuit_experiment_names())
def test_dense_and_sparse_backends_agree(name):
    """The dense reference and the production solver: bitwise equal records."""
    params = _fast_params(name)
    reference = _reference_run(name, params)
    production = Engine().run(name, **params)
    _records_equal(reference.to_records(), production.to_records())
    assert production.content_hash == reference.content_hash


@pytest.mark.parametrize("name", _circuit_experiment_names())
def test_frozen_newton_agrees_with_dense(name):
    """Jacobian-freeze mode through whole experiments.

    The freeze policy reuses LU factorizations at ``splu`` sizes only (see
    ``tests/circuit/test_solver_reuse.py`` for its mechanics and its 1e-9
    parity); below the threshold, where every fast configuration here sits,
    switching it on must leave every record bitwise unchanged.
    """
    params = _fast_params(name)
    reference = _reference_run(name, params)
    with solver_options(SolverOptions(newton="freeze")):
        frozen = Engine().run(name, **params)
    _records_equal(reference.to_records(), frozen.to_records())


@pytest.mark.parametrize("name", _circuit_experiment_names())
def test_production_never_calls_the_reference(name, monkeypatch):
    """No production path re-stamps through ``MNAAssembler.assemble`` or
    solves through ``newton_solve``: the dense reference is test-only."""
    calls = {"assemble": 0, "newton_solve": 0}
    assemble = mna.MNAAssembler.assemble
    newton_solve = mna.newton_solve

    def counted_assemble(self, *args, **kwargs):
        calls["assemble"] += 1
        return assemble(self, *args, **kwargs)

    def counted_newton_solve(*args, **kwargs):
        calls["newton_solve"] += 1
        return newton_solve(*args, **kwargs)

    monkeypatch.setattr(mna.MNAAssembler, "assemble", counted_assemble)
    for module in (mna, transient):
        monkeypatch.setattr(module, "newton_solve", counted_newton_solve)
    Engine().run(name, **_fast_params(name))
    assert calls == {"assemble": 0, "newton_solve": 0}


def test_registry_has_circuit_backed_experiments():
    """The parametrisation above must never silently become empty."""
    assert set(_circuit_experiment_names()) >= {"fig12", "crosstalk", "energy"}

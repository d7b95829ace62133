"""Mode counting from sorted band edges against the per-band sign-change loop.

``reference_crossings`` is the original kernel of
``repro.atomistic.transmission._crossings_per_energy``: for every band it
builds the ``(n_energies, n_k)`` sign matrix of ``E_band(k) - E`` (an exact
hit counting as positive) and counts sign changes along ``k``.  Production
counts the same crossings with two searches in the sorted band-segment
edges; the two must agree integer for integer, including at probes that sit
exactly on a band value.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.atomistic import Chirality, channels_at_energy, compute_band_structure
from repro.atomistic.transmission import _crossings_per_energy

DEGENERACY_TOL_EV = 1.0e-6


def reference_crossings(energies: np.ndarray, energy: np.ndarray) -> np.ndarray:
    """Per-band sign-change count of ``E_band(k) - E`` for every probe energy."""
    counts = np.zeros(energy.shape[0], dtype=int)
    for band in energies:
        signs = np.sign(band[None, :] - energy[:, None])
        signs[signs == 0] = 1
        counts += (np.diff(signs, axis=1) != 0).sum(axis=1)
    return counts


def reference_channels(energies: np.ndarray, energy: np.ndarray) -> np.ndarray:
    """Channel count probed a hair above and below, as ``channels_at_energy`` does."""
    upper = reference_crossings(energies, energy + DEGENERACY_TOL_EV)
    lower = reference_crossings(energies, energy - DEGENERACY_TOL_EV)
    return np.maximum(upper, lower) // 2


@st.composite
def tube_and_probes(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, n))
    n_k = 2 * draw(st.integers(1, 150)) + 1
    bands = compute_band_structure(Chirality(n, m), n_k=n_k)
    values = bands.energies.ravel()
    picks = values[draw(st.lists(st.integers(0, values.size - 1), min_size=1, max_size=12))]
    lo, hi = bands.energy_window()
    probes = np.concatenate(
        [
            picks,
            picks + DEGENERACY_TOL_EV,
            picks - DEGENERACY_TOL_EV,
            np.linspace(lo - 0.5, hi + 0.5, draw(st.integers(2, 41))),
        ]
    )
    return bands, probes


@settings(max_examples=60, deadline=None)
@given(tube_and_probes())
def test_sorted_edge_count_matches_sign_change_loop(case):
    bands, probes = case
    assert np.array_equal(
        _crossings_per_energy(bands.energies, probes), reference_crossings(bands.energies, probes)
    )
    assert np.array_equal(
        channels_at_energy(bands, probes, DEGENERACY_TOL_EV),
        reference_channels(bands.energies, probes),
    )


def test_exact_band_values_and_touching_extrema():
    # (7,7) touches zero at its Fermi points and every band has flat extrema
    # at the zone edges: the tie rule is exercised at every band value.
    bands = compute_band_structure(Chirality(7, 7), n_k=101)
    probes = np.unique(bands.energies)
    assert np.array_equal(
        _crossings_per_energy(bands.energies, probes), reference_crossings(bands.energies, probes)
    )


def test_shaped_probes_keep_their_shape():
    bands = compute_band_structure(Chirality(7, 7), n_k=51)
    grid = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    counts = channels_at_energy(bands, grid)
    assert counts.shape == (2, 3)
    assert np.array_equal(counts.ravel(), reference_channels(bands.energies, grid.ravel()))

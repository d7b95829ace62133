"""Every paper item at its defaults is pinned to the golden records.

``perfbench/reference/paper_defaults.json`` holds the content hash of every
registered experiment and study at its defaults.  Each one must reproduce
its hash bit for bit, both computed cold into a fresh cache and replayed
warm from it.
"""

import json
from pathlib import Path

import pytest

from repro.api import Engine, ensure_registered, list_experiments, list_studies

REFERENCE_PATH = (
    Path(__file__).resolve().parents[2] / "perfbench" / "reference" / "paper_defaults.json"
)
with open(REFERENCE_PATH, encoding="utf-8") as _handle:
    REFERENCE = json.load(_handle)


def _run_item(engine, name):
    if REFERENCE[name]["kind"] == "study":
        return engine.run_study(name)
    return engine.run(name)


def test_reference_covers_every_registered_item():
    ensure_registered()
    # Other test modules register throwaway experiments; count only the package's.
    registered = {e.name for e in list_experiments() if e.fn.__module__.startswith("repro.")}
    registered |= {s.name for s in list_studies() if s.target in registered}
    assert registered == set(REFERENCE)


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_content_hash_matches_reference(name, tmp_path):
    expected = REFERENCE[name]["content_hash"]
    cold = _run_item(Engine(store=str(tmp_path)), name)
    assert cold.content_hash == expected

    warm_engine = Engine(store=str(tmp_path))
    warm = _run_item(warm_engine, name)
    assert warm.content_hash == expected
    assert warm_engine.cache_misses == 0 and warm_engine.cache_hits > 0
    if REFERENCE[name]["kind"] == "experiment":
        assert warm.meta["cache_hit"] is True

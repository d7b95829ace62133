"""The atomistic and TCAD paper figures at their defaults are pinned to the golden records.

``perfbench/reference/paper_defaults.json`` holds the content hash of every
registered experiment at its defaults.  The mode-counting kernel (Fig. 8) and
the Laplace extraction (Fig. 10) must reproduce those hashes bit for bit.
"""

import json
from pathlib import Path

import pytest

from repro.api import Engine

REFERENCE = Path(__file__).resolve().parents[2] / "perfbench" / "reference" / "paper_defaults.json"


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize(
    "name", ["fig8a", "fig8c", "fig10_capacitance", "fig10_m1_m2", "fig10_resistance"]
)
def test_content_hash_matches_reference(name, reference):
    assert Engine().run(name).content_hash == reference[name]["content_hash"]

"""Write ``reference/paper_defaults.json``: the records of every registered
experiment and study at its defaults, which ``paper_defaults`` checks
every run against.

Run it from the repository root on the commit whose behaviour is the
reference, and commit the file it writes::

    python3 perfbench/capture_reference.py
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import paper_defaults  # noqa: E402


def main() -> int:
    from repro.api import Engine

    engine = Engine()
    reference = {}
    for kind, name in paper_defaults.items():
        result = paper_defaults.run_item(engine, kind, name)
        reference[name] = {
            "kind": kind,
            "content_hash": result.content_hash,
            "records": json.loads(json.dumps(result.to_records(), default=str)),
        }
        print(f"{kind} {name}: {len(result)} records {result.content_hash[:16]}", file=sys.stderr)
    os.makedirs(os.path.dirname(paper_defaults.REFERENCE), exist_ok=True)
    with open(paper_defaults.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate ``tests/golden_manifest.json``, the pinned hashes of the golden corpus.

Usage: ``PYTHONPATH=src python scripts/golden_manifest.py``

The manifest is the determinism contract made executable: ``tests/test_golden.py``
fails whenever a change alters a learned model or its log.  Only a change
that means to alter learned models may run this script, and it must say so
in CHANGES.md, naming the cases whose hashes moved.  A refactor or a speed-up
never regenerates the manifest.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"
sys.path.insert(0, str(TESTS))

from golden import MANIFEST, cases, digests  # noqa: E402


def main() -> None:
    manifest = {name: digests(name) for name in sorted(cases())}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(manifest)} cases to {MANIFEST}")


if __name__ == "__main__":
    main()

"""Regenerate or check ``tests/golden_manifest.json``, the pinned hashes of the golden corpus.

Usage:
    python scripts/golden_manifest.py            # rewrite the manifest
    python scripts/golden_manifest.py --check    # compare, never write

The manifest is the determinism contract made executable: ``tests/test_golden.py``
fails whenever a change alters a learned model or its log.  Only a change
that means to alter learned models may regenerate it, and it must say so
in CHANGES.md, naming the cases whose hashes moved.  A refactor or a speed-up
never regenerates the manifest.

``--check`` recomputes every case, and the pinned CLI outputs of
``tests/golden.py`` (``generate`` and the serving commands), prints the name
of each case or output whose hash differs from its pin, and exits 1 if any
do, 0 otherwise.  It needs only the standard library and the package, so
it can be run under any supported CPython, with or without the test
extras, to check that the interpreter writes the same bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from golden import (  # noqa: E402
    GENERATE_GOLDEN,
    MANIFEST,
    SERVING_GOLDEN,
    cases,
    digests,
    generated_words,
    load_manifest,
    serving_outputs,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate or check the golden manifest.")
    parser.add_argument("--check", action="store_true",
                        help="compare every case with the manifest and write nothing")
    args = parser.parse_args(argv)
    manifest = {name: digests(name) for name in sorted(cases())}
    if not args.check:
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(manifest)} cases to {MANIFEST}")
        return 0
    pinned = load_manifest()
    differ = sorted(n for n in manifest.keys() | pinned.keys() if manifest.get(n) != pinned.get(n))
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {**generated_words(Path(tmp)), **serving_outputs(Path(tmp))}
    pinned_outputs = {**GENERATE_GOLDEN, **SERVING_GOLDEN}
    differ += sorted(n for n in pinned_outputs if outputs[n] != pinned_outputs[n])
    for name in differ:
        print(name)
    print(f"{len(differ)} of {len(manifest) + len(pinned_outputs)} cases differ from "
          f"{MANIFEST.name} and the pinned CLI outputs (Python {sys.version.split()[0]})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

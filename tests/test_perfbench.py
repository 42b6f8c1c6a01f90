"""Smoke test: the learn-and-serve benchmark still runs against this source tree."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_dfa_edsm_run_is_clean():
    # --trace 1 wraps the package's public calls from outside; a renamed or
    # reshaped call (MergeArena.run_merge's (outcome, frame), the learner's
    # event tuples, ...) shows up here as a failure or a zero count.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dfa-edsm",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["failed"] == 0, proc.stdout
    assert report["metrics"]["merging.trials"]["value"] > 0

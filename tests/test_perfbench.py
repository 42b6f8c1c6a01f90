"""Smoke test: the learn-and-serve benchmark still runs against this source tree."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# The count that shows each workload did its work.
WORK = {
    "dfa-edsm": "merging.trials",
    "walk-alergia": "merging.trials",
    "series-mse": "merging.trials",
    "serve": "predict.predict_calls",
}


@pytest.mark.parametrize("workload", list(WORK))
def test_traced_run_is_clean(workload):
    # --trace 1 wraps the package's public calls from outside; a renamed or
    # reshaped call (MergeArena.run_merge's (outcome, frame), the learner's
    # event tuples, ...) shows up here as a failure or a zero count.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["failed"] == 0, proc.stdout
    assert report["metrics"][WORK[workload]]["value"] > 0
    if workload == "serve":
        # queries read the loaded model's pooled target totals; no more than
        # one global_target_mean call per eval or predict job
        assert report["metrics"]["predict.global_mean_calls"]["value"] <= 3

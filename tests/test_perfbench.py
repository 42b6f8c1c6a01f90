"""Smoke test: the learn-and-serve benchmark still runs against this source tree."""

import functools
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


# The first seed-1 instance's counts on each learn workload.  A change to
# how learning runs that keeps the models and logs keeps the merges,
# promotions and final states; the trial, fold, conflict and score counts
# move only with the trials that `learn` decides to run, and the fold count
# also with where a trial stops once its heuristic refuses a pair, so a
# change that skips trials or folds must name each pin it moves.  Arena
# builds and rollbacks are left out: they count how trials are undone, not
# which run.
PINNED = {
    "dfa-edsm": (2030, 19377, 489, 2030, 49, 15, 16),
    "walk-alergia": (228, 21652, 0, 228, 11, 4, 5),
    "series-mse": (42829, 73096, 0, 42829, 33, 102, 103),
}
PINNED_NAMES = (
    "merging.trials", "merging.pairs_folded", "merging.conflicts", "heuristics.scores",
    "learner.merges", "learner.promotions", "learner.final_states",
)


@functools.cache
def traced_run(workload):
    """The stdout of a one-second traced seed-1 run (it always completes one instance)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("workload", list(WORK))
def test_traced_run_is_clean(workload):
    # --trace 1 wraps the package's public calls from outside; a renamed or
    # reshaped call (MergeArena.run_merge's (outcome, frame), the learner's
    # event tuples, ...) shows up here as a failure or a zero count.
    stdout = traced_run(workload)
    report = json.loads(stdout.splitlines()[-1])
    assert report["failed"] == 0, stdout
    assert report["metrics"][WORK[workload]]["value"] > 0
    if workload == "serve":
        # queries read the loaded model's pooled target totals; no more than
        # one global_target_mean call per eval or predict job
        assert report["metrics"]["predict.global_mean_calls"]["value"] <= 3


@pytest.mark.parametrize("workload", list(PINNED))
def test_counts_are_pinned(workload):
    metrics = json.loads(traced_run(workload).splitlines()[-1])["metrics"]
    got = {name: metrics[name]["value"] for name in PINNED_NAMES}
    assert got == dict(zip(PINNED_NAMES, PINNED[workload]))

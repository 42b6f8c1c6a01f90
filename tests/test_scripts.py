"""The example scripts run on the bundled data and print what they promise.

Each script runs as a subprocess from a temporary directory, so it must find
the package and the bundled data on its own.  ``golden_manifest.py`` runs
only with ``--check``; without it, it rewrites the checked-in manifest.
"""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, cwd: Path, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_compare_heuristics_prints_one_row_per_heuristic(tmp_path):
    lines = run_script("compare_heuristics.py", tmp_path).splitlines()
    header = next(i for i, ln in enumerate(lines) if ln.startswith("heuristic"))
    rows = {ln.split()[0]: ln.split() for ln in lines[header + 1:]}
    assert len(lines) == header + 1 + len(rows)
    assert sorted(rows) == ["alergia", "edsm", "mse"]
    # EDSM never merges against a label, so its model fits the whole sample.
    assert rows["edsm"][-1] == "True"


def test_regression_demo_reports_both_errors(tmp_path):
    out = run_script("regression_demo.py", tmp_path)
    assert "model MSE" in out
    assert "baseline MSE" in out


def test_golden_manifest_check_matches_and_writes_nothing(tmp_path):
    manifest = SCRIPTS.parent / "tests" / "golden_manifest.json"
    before = manifest.read_bytes()
    out = run_script("golden_manifest.py", tmp_path, "--check")
    assert out.startswith("0 of ")
    assert manifest.read_bytes() == before


def test_learn_cases_prints_the_same_hashes_twice(tmp_path):
    runs = [run_script("learn_cases.py", tmp_path, "--small").splitlines() for _ in range(2)]
    rows = [[ln.split() for ln in lines[1:]] for lines in runs]
    assert [r[0] for r in rows[0]] == ["edsm", "mse", "alergia", "alergia-labeled"]
    # case, CPU seconds, run_merge calls, folded pairs, kept merges, SHA-256
    assert [(r[0], *r[2:]) for r in rows[0]] == [(r[0], *r[2:]) for r in rows[1]]
    assert all(int(r[3]) > 0 and int(r[4]) > 0 and len(r[5]) == 64 for r in rows[0])

#!/usr/bin/env python3
"""Time library ``learn`` on the EDSM, MSE and ALERGIA cases that ROADMAP.md quotes.

Usage:
    python3 scripts/learn_cases.py [--small]

The cases:

- ``edsm``: 2 000 labeled words, lengths 0..20, of a 64-state, 4-symbol
  ``tests/gen.TargetDfa`` drawn from seed 0, learned with EDSM;
- ``mse``: ``perfbench/gen.step_series`` seeds 1-6 (1 200 values, three
  levels held 100 steps, noise 1.0), discretized into 4 uniform bins with
  window 5, learned with MSE;
- ``alergia``: 600 walks (at most 40 symbols) of the ``walk-alergia``
  machine, seeds 1-6, learned with ALERGIA at alpha 0.05;
- ``alergia-labeled``: ``data/reference_sample.txt`` and 10 labeled samples
  of random binary ``tests/gen.TargetDfa``s with 8-16 states, seeds 1-10
  (``tests/gen.labeled_sample``, 600 words of length up to 12), each learned
  with ALERGIA at alpha 0.05 and then at 0.5: 22 learns.

Each case runs twice.  The first run is timed with ``time.process_time``
around ``learn`` alone.  The second counts ``MergeArena.run_merge`` calls
and the pairs they fold (the length of each returned frame's pair list),
and must learn the same bytes as the first.  One row per case gives the
CPU seconds, the ``run_merge`` calls, the folded pairs, the kept merges and
the SHA-256 of every model and log in order.  Two checkouts learn the same machines iff
their hashes agree, so running this from each, alternately, gives paired
CPU figures.  ``--small`` shrinks every case, for a quick check.
"""

import argparse
import hashlib
import importlib.util
import random
import sys
import time
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from gen import TargetDfa, labeled_sample  # noqa: E402

# perfbench/gen.py is loaded from its file: its module name is taken by tests/gen.py.
_spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
perfbench_gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_gen)

from flexautomata import (  # noqa: E402
    Alergia,
    DiscretizationSpec,
    Edsm,
    LearnerConfig,
    Mse,
    discretize,
    learn,
    parse_abbadingo,
    parse_augmented,
    save_model,
)
from flexautomata.merging import MergeArena  # noqa: E402


def edsm_samples(small: bool):
    rng = random.Random(0)
    dfa = TargetDfa(rng, 64, 4)
    yield labeled_sample(rng, dfa, 300 if small else 2000, 20)


def mse_samples(small: bool):
    spec = DiscretizationSpec(bins=4, window=5)
    for seed in (1,) if small else range(1, 7):
        text = perfbench_gen.step_series(random.Random(seed), 300 if small else 1200, 3, 100, 1.0)
        yield discretize([float(v) for v in text.split()], spec)


def alergia_samples(small: bool):
    machine = perfbench_gen.walk_model(random.Random(7), 6, 3, 0.12)
    for seed in (1,) if small else range(1, 7):
        yield parse_augmented(perfbench_gen.walk_traces(random.Random(seed), machine, 600, 40))


def labeled_samples(small: bool):
    yield parse_abbadingo((ROOT / "data" / "reference_sample.txt").read_text(encoding="utf-8"))
    for seed in range(1, 3 if small else 11):
        rng = random.Random(seed)
        dfa = TargetDfa(rng, rng.randint(8, 16), 2)
        yield labeled_sample(rng, dfa, 200 if small else 600, 12)


# Each case learns every sample under each heuristic in turn.
CASES = [
    ("edsm", [Edsm()], edsm_samples),
    ("mse", [Mse()], mse_samples),
    ("alergia", [Alergia(alpha=0.05)], alergia_samples),
    ("alergia-labeled", [Alergia(alpha=0.05), Alergia(alpha=0.5)], labeled_samples),
]


def run_case(heuristics, samples) -> tuple[float, int, str]:
    """CPU seconds in ``learn``, kept merges, and the digest of every model and log."""
    cpu, merges, digest = 0.0, 0, hashlib.sha256()
    for cfg, sample in product(map(LearnerConfig, heuristics), samples):
        t0 = time.process_time()
        model, log = learn(sample, cfg)
        cpu += time.process_time() - t0
        merges += sum(e[0] == "MERGE" for e in log.events)
        digest.update(save_model(model).encode("utf-8"))
        digest.update(log.text().encode("utf-8"))
    return cpu, merges, digest.hexdigest()


def count_run_merges(heuristics, samples) -> tuple[int, int, str]:
    """``run_merge`` calls, the pairs they folded, and the digest of every model and log."""
    calls = pairs = 0
    run_merge = MergeArena.run_merge

    def counting(arena, q1, q2):
        nonlocal calls, pairs
        outcome, frame = run_merge(arena, q1, q2)
        calls += 1
        pairs += len(frame.pairs)
        return outcome, frame

    MergeArena.run_merge = counting
    try:
        _cpu, _merges, digest = run_case(heuristics, samples)
    finally:
        MergeArena.run_merge = run_merge
    return calls, pairs, digest


def main() -> int:
    parser = argparse.ArgumentParser(description="Time library learn on the ROADMAP cases.")
    parser.add_argument("--small", action="store_true", help="shrink every case")
    args = parser.parse_args()
    print(f"{'case':<15} {'cpu_s':>7} {'run_merge':>9} {'pairs':>9} {'merges':>6} sha256")
    for name, heuristics, samples in CASES:
        cpu, merges, digest = run_case(heuristics, list(samples(args.small)))
        calls, pairs, again = count_run_merges(heuristics, list(samples(args.small)))
        if again != digest:
            print(f"{name}: a second run learned different bytes", file=sys.stderr)
            return 1
        print(f"{name:<15} {cpu:>7.3f} {calls:>9} {pairs:>9} {merges:>6} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

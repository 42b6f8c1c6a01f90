#!/usr/bin/env python3
"""Learn one trace file with each stock heuristic and compare the results.

Usage:
    python3 scripts/compare_heuristics.py [trace_file]

Defaults to the bundled 13-trace example.  Prints one row per heuristic:
state count, loop iterations, wall time, and whether the model classifies
the whole training sample correctly.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flexautomata import (
    Alergia,
    Edsm,
    LearnerConfig,
    Mse,
    build_apta,
    evaluate,
    learn,
    parse_augmented,
)


def consistent(model, sample) -> bool:
    report = evaluate(model, sample)
    return report.pos_accepted == report.pos_total and report.neg_rejected == report.neg_total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "trace_file",
        nargs="?",
        default=str(Path(__file__).resolve().parent.parent / "data" / "reference_sample.txt"),
    )
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--penalty", type=float, default=0.0)
    args = parser.parse_args()

    sample = parse_augmented(Path(args.trace_file).read_text())
    tree = build_apta(sample)
    print(f"{len(sample.traces)} traces, prefix tree has {tree.state_count} states")
    print(f"{'heuristic':<10} {'states':>6} {'iters':>6} {'ms':>8} consistent")

    for heuristic in (Edsm(), Alergia(alpha=args.alpha), Mse(penalty=args.penalty)):
        t0 = time.perf_counter()
        model, log = learn(sample, LearnerConfig(heuristic=heuristic))
        ms = (time.perf_counter() - t0) * 1000
        name = type(heuristic).__name__.lower()
        print(
            f"{name:<10} {model.state_count:>6} {log.iterations:>6} "
            f"{ms:>8.1f} {consistent(model, sample)}"
        )


if __name__ == "__main__":
    main()

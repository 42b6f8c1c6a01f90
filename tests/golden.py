"""The seeded golden corpus: learn cases whose model and log bytes are pinned.

Each case generates its sample from a seed, renders it with
:func:`write_sample` and reads it back through the parser before learning,
so the pinned hashes cover parsing, the prefix tree, the learner and
:func:`save_model` together.  ``golden_manifest.json`` next to this file
holds the SHA-256 of ``save_model(model)`` and of ``log.text()`` per case;
``scripts/golden_manifest.py`` regenerates it.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Callable

from flexautomata import (
    Alergia,
    DiscretizationSpec,
    LearnerConfig,
    Mse,
    Sample,
    SymbolInstance,
    Trace,
    TraceLabel,
    discretize,
    learn,
    parse_abbadingo,
    parse_augmented,
    save_model,
    write_sample,
)
from gen import TargetDfa, labeled_sample

MANIFEST = Path(__file__).resolve().parent / "golden_manifest.json"


def _dfa_words(seed: int, n: int = 200, with_targets: bool = False) -> Sample:
    rng = random.Random(seed)
    dfa = TargetDfa(rng, rng.randint(4, 8), rng.randint(2, 3))
    return labeled_sample(rng, dfa, n, 10, with_targets=with_targets)


def _walks(seed: int) -> Sample:
    """Unlabeled stopping random walks of a small stochastic machine."""
    rng = random.Random(seed)
    n_states, n_syms = 4, 3
    delta = [[rng.randrange(n_states) for _ in range(n_syms)] for _ in range(n_states)]
    weights = [[rng.uniform(0.2, 1.0) for _ in range(n_syms)] for _ in range(n_states)]
    traces = []
    for _ in range(400):
        q, word = 0, []
        while len(word) < 10 and rng.random() >= 0.2:
            sym = rng.choices(range(n_syms), weights=weights[q])[0]
            word.append(SymbolInstance(sym))
            q = delta[q][sym]
        traces.append(Trace(TraceLabel.UNLABELED, tuple(word)))
    return Sample(tuple(traces), tuple(str(i) for i in range(n_syms)))


def _annotated(seed: int) -> Sample:
    """DFA words whose symbols all carry two attributes and a target."""
    rng = random.Random(seed)
    plain = _dfa_words(seed)
    traces = tuple(
        Trace(t.label, tuple(
            SymbolInstance(s.symbol, (rng.uniform(-1, 1), float(rng.randint(0, 3))),
                           s.symbol + rng.choice((0.0, 0.5)))
            for s in t.symbols
        ))
        for t in plain.traces
    )
    return Sample(traces, plain.alphabet, 2)


def _steps(seed: int) -> Sample:
    """A discretized noisy step series, the next delta as each trace's target."""
    rng = random.Random(seed)
    values, level = [], 0.0
    for i in range(300):
        if i % 20 == 0:
            level = rng.choice([0.0, 4.0, 8.0])
        values.append(level + rng.gauss(0.0, 0.4))
    return discretize(values, DiscretizationSpec(bins=4, window=3))


def cases() -> dict[str, tuple[Callable[[], Sample], LearnerConfig]]:
    """Every golden case by name: a sample factory and the learner config."""
    out: dict[str, tuple[Callable[[], Sample], LearnerConfig]] = {}
    for seed in range(10):
        out[f"edsm-dfa-{seed}"] = (lambda s=seed: _dfa_words(s), LearnerConfig())
    for seed in range(3):
        out[f"edsm-dfa-targets-{seed}"] = (
            lambda s=seed: _dfa_words(100 + s, with_targets=True), LearnerConfig()
        )
    for alpha in (0.05, 0.5):
        for seed in range(6):
            out[f"alergia-{alpha}-walks-{seed}"] = (
                lambda s=seed: _walks(s), LearnerConfig(heuristic=Alergia(alpha))
            )
    for penalty in (0.0, 0.3):
        for seed in range(6):
            out[f"mse-{penalty}-steps-{seed}"] = (
                lambda s=seed: _steps(s), LearnerConfig(heuristic=Mse(penalty))
            )
    for seed in range(2):
        out[f"edsm-annotated-{seed}"] = (lambda s=seed: _annotated(300 + s), LearnerConfig())
    out["edsm-dfa-any-evidence"] = (
        lambda: _dfa_words(200), LearnerConfig(min_evidence=float("-inf"))
    )
    return out


def reparsed(sample: Sample) -> Sample:
    """``sample`` written out and read back through the matching parser."""
    text = write_sample(sample)
    plain = all(
        t.label is not TraceLabel.UNLABELED
        and all(not s.attributes and s.target is None for s in t.symbols)
        for t in sample.traces
    )
    return parse_abbadingo(text) if plain else parse_augmented(text)


def digests(name: str) -> dict[str, str]:
    """The model and log SHA-256 of one case, learned from its reparsed sample."""
    factory, cfg = cases()[name]
    model, log = learn(reparsed(factory()), cfg)
    return {
        "model": hashlib.sha256(save_model(model).encode("utf-8")).hexdigest(),
        "log": hashlib.sha256(log.text().encode("utf-8")).hexdigest(),
    }


def load_manifest() -> dict[str, dict[str, str]]:
    return json.loads(MANIFEST.read_text())

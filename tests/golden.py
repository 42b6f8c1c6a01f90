"""The seeded golden corpus: learn cases whose model and log bytes are pinned.

Each case generates its sample from a seed, renders it with
:func:`write_sample` and reads it back through the parser before learning,
so the pinned hashes cover parsing, the prefix tree, the learner and
:func:`save_model` together.  ``golden_manifest.json`` next to this file
holds the SHA-256 of ``save_model(model)`` and of ``log.text()`` per case;
``scripts/golden_manifest.py`` regenerates it.

Two CLI pipelines, :func:`generated_words` and :func:`serving_outputs`,
hash the stdout of ``generate`` and of the serving commands.  Their pinned
digests are the constants below, which nothing regenerates: both
``tests/test_cli.py`` and ``scripts/golden_manifest.py --check`` compare
with them, the latter with no test extras installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
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
from flexautomata.cli import run
from gen import TargetDfa, labeled_sample

MANIFEST = Path(__file__).resolve().parent / "golden_manifest.json"
REFERENCE_SAMPLE = Path(__file__).resolve().parent.parent / "data" / "reference_sample.txt"

# SHA-256 of the stdout of ``generate -n 200 --max-len 20``, pinned from
# the sampler that rebuilt each state's options and called Random.choices
# at every step.
GENERATE_GOLDEN = {
    "generate reference": "a920118db11062241fa54f60260a295211fcd7604237adc4a86a3e82b2f86852",
    "generate dfa": "21d39c1a15c61cf51109ccab759f426efcf18dfbafad0f7e0926b5ec2d4ce952",
}

# SHA-256 of the stdout of each serving command, pinned from the
# implementation that pooled the global target mean on every query.
SERVING_GOLDEN = {
    "predict --fallback mean": "64e125bea57b65cd9c4b2a875429fba72a3ef7ea4ddaca22bda560876aff25ee",
    "predict --fallback last": "dfdd85722a0df573dd56b4003c60e93863a43c85be2465bfe91b6e36abc5cb78",
    "eval": "58fc1849438f71af016a0039223ea7e719b046f54a21277fc8f225a0792773ca",
}


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


def _stdout(argv: list[str]) -> str:
    """What one CLI run writes to stdout; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    if code != 0:
        raise RuntimeError(f"exit {code} from {argv}")
    return out.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def generated_words(tmp: Path) -> dict[str, str]:
    """The digests of :data:`GENERATE_GOLDEN`, recomputed with scratch files in ``tmp``.

    ``generate`` runs on the EDSM model of the reference sample and on that of
    300 words of a random 12-state DFA.
    """
    ref_model = tmp / "model.txt"
    _stdout(["learn", "--input", str(REFERENCE_SAMPLE), "--output", str(ref_model)])
    rng = random.Random(17)
    dfa = TargetDfa(rng, 12, 3)
    data = tmp / "dfa.txt"
    data.write_text(write_sample(labeled_sample(rng, dfa, 300, 14)))
    dfa_model = tmp / "dfa-model.txt"
    _stdout(["learn", "--input", str(data), "--output", str(dfa_model)])
    return {
        name: _sha256(_stdout(["generate", "--model", str(path), "-n", "200", "--seed", seed,
                               "--max-len", "20"]))
        for name, path, seed in [("generate reference", ref_model, "5"),
                                 ("generate dfa", dfa_model, "3")]
    }


def serving_outputs(tmp: Path) -> dict[str, str]:
    """The digests of :data:`SERVING_GOLDEN`, recomputed with scratch files in ``tmp``.

    An MSE model of a discretized step series answers held-out traces and
    words that leave it at depths 0 to 3, where the fallbacks differ.
    """
    rng = random.Random(41)

    def step_series(n):
        values, level = [], 0.0
        for i in range(n):
            if i % 40 == 0:
                level = rng.choice([0.0, 5.0, 10.0])
            values.append(level + rng.gauss(0.0, 0.3))
        return values

    series = tmp / "train.csv"
    series.write_text("".join(f"{v!r}\n" for v in step_series(400)))
    traces = tmp / "train.txt"
    traces.write_text(_stdout(["discretize", "--input", str(series), "--bins", "4",
                               "--window", "3"]))
    model = tmp / "series-model.txt"
    _stdout(["learn", "--input", str(traces), "--heuristic", "mse", "--output", str(model)])
    held_out = discretize(step_series(200), DiscretizationSpec(bins=4, window=3)).traces
    # symbol 9 is outside the 4-bin alphabet
    off = tuple(
        Trace(TraceLabel.UNLABELED,
              tuple(SymbolInstance(s) for s in (0, 1, 2)[:depth])
              + (SymbolInstance(9, (), float(depth)),))
        for depth in range(4)
    )
    queries = tmp / "queries.txt"
    queries.write_text(write_sample(Sample(held_out + off, tuple(map(str, range(10))))))
    return {
        command: _sha256(_stdout([command.split()[0], "--model", str(model),
                                  "--input", str(queries), *command.split()[1:]]))
        for command in SERVING_GOLDEN
    }

"""Seeded input generators for the benchmark workloads.

Each generator takes a ``random.Random`` and returns the text of the files
the program is given, so that the same seed always yields the same bytes.
The text is written here directly rather than through the library's
writers, and nothing is shared with the test helpers, so that neither a
test edit nor a change to the program can alter a workload.
"""

from __future__ import annotations

import random


def random_dfa(rng: random.Random, n_states: int, n_syms: int):
    """A complete random DFA: (transition table, accepting set), start 0."""
    delta = [[rng.randrange(n_states) for _ in range(n_syms)] for _ in range(n_states)]
    accepting = {q for q in range(n_states) if rng.random() < 0.5}
    return delta, accepting


def _end_state(delta, word) -> int:
    q = 0
    for sym in word:
        q = delta[q][sym]
    return q


def _random_word(rng: random.Random, n_syms: int, max_len: int) -> list[int]:
    return [rng.randrange(n_syms) for _ in range(rng.randint(0, max_len))]


def _classic_line(label: str, word) -> str:
    return " ".join([label, str(len(word)), *map(str, word)])


def labeled_traces(rng: random.Random, dfa, n_syms: int, n: int, max_len: int) -> str:
    """``n`` random words labeled by membership, in the classic format."""
    delta, accepting = dfa
    lines = [f"{n} {n_syms}"]
    for _ in range(n):
        word = _random_word(rng, n_syms, max_len)
        lines.append(_classic_line("1" if _end_state(delta, word) in accepting else "0", word))
    return "\n".join(lines) + "\n"


def walk_model(rng: random.Random, n_states: int, n_syms: int, stop: float):
    """A small stochastic machine: symbol weights per state, one stop chance."""
    delta = [[rng.randrange(n_states) for _ in range(n_syms)] for _ in range(n_states)]
    weights = [[rng.uniform(0.2, 1.0) for _ in range(n_syms)] for _ in range(n_states)]
    return delta, weights, stop


def walk_traces(rng: random.Random, machine, n: int, max_len: int) -> str:
    """``n`` unlabeled stopping random walks, in the extended format."""
    delta, weights, stop = machine
    syms = range(len(weights[0]))
    lines = []
    for _ in range(n):
        q, word = 0, []
        while len(word) < max_len and rng.random() >= stop:
            sym = rng.choices(syms, weights=weights[q])[0]
            word.append(sym)
            q = delta[q][sym]
        lines.append(_classic_line("?", word))
    return "\n".join(lines) + "\n"


def step_series(rng: random.Random, length: int, levels: int, hold: int, sigma: float) -> str:
    """A noisy piecewise-constant series, one value per line.

    Every ``hold`` steps the level moves to the next of ``levels`` evenly
    spaced values, cycling through them in order; Gaussian noise of width
    ``sigma`` is added.  Only the noise is drawn from ``rng``: with a random
    level order the learn time varied 1.4 times as much between instances.
    """
    out = []
    for i in range(length):
        level = 5.0 * ((i // hold) % levels)
        out.append(repr(round(level + rng.gauss(0.0, sigma), 6)))
    return "\n".join(out) + "\n"


def _target_line(label: str, word, targets) -> str:
    tokens = [f"{s}/{t!r}" for s, t in zip(word, targets)]
    return " ".join([label, str(len(word)), *tokens])


def serve_inputs(rng: random.Random, n_syms: int, n_train: int, n_queries: int,
                 max_len: int, off_share: float) -> tuple[str, str]:
    """Training traces and queries, both labeled and carrying targets.

    Labels come from a random 16-state DFA and every symbol's target is the
    reached state's value plus noise, so the prefix tree built from the
    training traces has targets at every non-root state.  A share
    ``1 - off_share`` of the queries are prefixes of training words (in the
    model's domain); the rest are fresh random words, most of which leave it.
    """
    dfa = random_dfa(rng, 16, n_syms)
    delta, accepting = dfa
    value = [rng.uniform(-5.0, 5.0) for _ in delta]

    def line(word) -> str:
        label = "1" if _end_state(delta, word) in accepting else "0"
        targets, q = [], 0
        for sym in word:
            q = delta[q][sym]
            targets.append(round(value[q] + rng.gauss(0.0, 0.5), 4))
        return _target_line(label, word, targets)

    words = [_random_word(rng, n_syms, max_len) for _ in range(n_train)]
    train = [line(w) for w in words]
    queries = []
    for _ in range(n_queries):
        if rng.random() < off_share:
            queries.append(line(_random_word(rng, n_syms, max_len)))
        else:
            w = rng.choice(words)
            queries.append(line(w[:rng.randint(1, len(w))] if w else w))
    return "\n".join(train) + "\n", "\n".join(queries) + "\n"

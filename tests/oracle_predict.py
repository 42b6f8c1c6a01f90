"""Reference copy of the package's earlier, slower word sampler.

``sample_words`` and ``_one_walk`` are the sampler as it was before each
state's options and cumulative weights were built once per call: it built
the option and weight lists at every step and drew with
``Random.choices``.  The bodies are kept verbatim.  ``test_predict`` checks
that the package's sampler returns the same words, or raises the same
:class:`GenerationError`, for the same model, count, seed and bound.
"""

from __future__ import annotations

import random

from flexautomata.automaton import Automaton, Word
from flexautomata.errors import GenerationError
from flexautomata.predict import shortest_accepted_length


def sample_words(a: Automaton, n: int, seed: int, max_len: int) -> list[Word]:
    """Draw ``n`` accepted words of length <= max_len, reproducibly.

    The walk leaves each state along its transitions with probability
    proportional to their occurrence counts, plus a stop option at accepting
    states weighted by the state's end count; every option gets add-one
    smoothing so unseen but structurally possible choices stay reachable.
    Walks that run past ``max_len`` or into a dead end restart.  Same seed,
    same words.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    shortest = shortest_accepted_length(a)
    if shortest is None or shortest > max_len:
        raise GenerationError(f"model accepts no word of length <= {max_len}")
    rng = random.Random(seed)
    words: list[Word] = []
    restarts_left = 100_000 * (n + 1)
    while len(words) < n:
        word = _one_walk(a, rng, max_len)
        if word is None:
            restarts_left -= 1
            if restarts_left <= 0:
                raise GenerationError("sampling failed to terminate")
        else:
            words.append(word)
    return words


def _one_walk(a: Automaton, rng: random.Random, max_len: int) -> Word | None:
    """One weighted walk; None when it dead-ends or overruns max_len."""
    cur = a.start
    word: list[int] = []
    while True:
        options: list[int | None] = []  # None is the stop option
        weights: list[int] = []
        agg = a.states[cur]
        if cur in a.accepting:
            options.append(None)
            weights.append(agg.end_count + 1)
        for sym, _ in a.out_edges(cur):
            options.append(sym)
            weights.append(agg.out_counts.get(sym, 0) + 1)
        if not options:
            return None
        pick = rng.choices(options, weights=weights)[0]
        if pick is None:
            return tuple(word)
        if len(word) == max_len:
            return None
        word.append(pick)
        cur = a.transitions[(cur, pick)]

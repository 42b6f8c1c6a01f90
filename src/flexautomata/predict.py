"""Using a learned machine: numeric prediction, sampling, and discretization.

Prediction walks a word through the automaton and reports the mean target of
the end state.  Words that fall off the transition structure are handled by
a configurable fallback: the global target mean, the mean at the deepest
state actually reached, or a hard error.  The global mean comes from
:attr:`Automaton.target_totals`, pooled once per model and kept because
models are immutable, so a query costs its word length, not the model size.

Sampling draws words from the machine by a weighted random walk over the
recorded transition counts (with an extra stop option at accepting states),
so frequent patterns in the training data are frequent in the output.

Discretization turns a real-valued series into trace data: the value range
is split into bins, each sliding window becomes one unlabeled trace of bin
symbols, and the symbol closing a window carries the next step of the series
as its regression target.
"""

from __future__ import annotations

import enum
import math
import random
import statistics
import warnings
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .automaton import Automaton, StateId, Word
from .errors import GenerationError, PredictionError
from .sample_io import MAX_ALPHABET_SIZE, Sample, SymbolInstance, Trace, TraceLabel


class Fallback(enum.Enum):
    GLOBAL_MEAN = "mean"
    LAST_STATE = "last"
    ERROR = "error"


@dataclass(frozen=True)
class PredictionConfig:
    fallback: Fallback = Fallback.GLOBAL_MEAN


def _walk(a: Automaton, word: Word) -> tuple[list[StateId], bool]:
    """Follow ``word`` as far as the transitions allow.

    Symbols outside the alphabet count as missing transitions here, unlike
    in :func:`flexautomata.automaton.compute`: a prediction query should
    degrade to its fallback, not blow up.
    """
    path = [a.start]
    cur = a.start
    for sym in word:
        nxt = a.transitions.get((cur, sym))
        if nxt is None:
            return path, False
        cur = nxt
        path.append(cur)
    return path, True


def global_target_mean(a: Automaton) -> float:
    count, total = a.target_totals
    if count == 0:
        raise PredictionError("model carries no target data")
    return total / count


def predict_value(a: Automaton, word: Word, cfg: PredictionConfig = PredictionConfig()) -> float:
    """Predict the target value for ``word``.

    In-domain words (full path exists and the end state saw targets) return
    the end state's target mean exactly.  Anything else resolves per
    ``cfg.fallback``; LAST_STATE uses the deepest reached state that carries
    targets and falls back to the global mean when the whole path is bare.
    A model with no target data at all is an error under every policy.
    """
    path, complete = _walk(a, word)
    return _resolve(a, word, path, complete, cfg.fallback)


def _resolve(a: Automaton, word: Word, path: list[StateId], complete: bool,
             fallback: Fallback) -> float:
    """The prediction for ``word`` from its walk, as :func:`predict_value` defines it."""
    count, total = a.target_totals
    if count == 0:
        raise PredictionError("model carries no target data")
    end = a.states[path[-1]]
    if complete and end.target_count > 0:
        return end.target_sum / end.target_count
    if fallback is Fallback.ERROR:
        raise PredictionError(f"word {word} leaves the model's domain")
    if fallback is Fallback.LAST_STATE:
        for q in reversed(path):
            agg = a.states[q]
            if agg.target_count > 0:
                return agg.target_sum / agg.target_count
    return total / count


def shortest_accepted_length(a: Automaton) -> int | None:
    """Length of the shortest accepted word, None when nothing is accepted."""
    if a.start in a.accepting:
        return 0
    seen = {a.start}
    queue = deque([(a.start, 0)])
    while queue:
        q, depth = queue.popleft()
        for _, dst in a.out_edges(q):
            if dst in seen:
                continue
            if dst in a.accepting:
                return depth + 1
            seen.add(dst)
            queue.append((dst, depth + 1))
    return None


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


# ---------------------------------------------------------------------------
# Series discretization


class BinMethod(enum.Enum):
    UNIFORM = "uniform"
    QUANTILE = "quantile"


class TargetKind(enum.Enum):
    NEXT_DELTA = "delta"
    NEXT_VALUE = "value"


@dataclass(frozen=True)
class DiscretizationSpec:
    bins: int
    method: BinMethod = BinMethod.UNIFORM
    window: int = 1
    target: TargetKind = TargetKind.NEXT_DELTA

    def __post_init__(self):
        if not 1 <= self.bins <= MAX_ALPHABET_SIZE:
            raise ValueError(f"bins must be in 1..{MAX_ALPHABET_SIZE}, got {self.bins}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")


def bin_cuts(series: Sequence[float], spec: DiscretizationSpec) -> list[float]:
    """The interior cut points separating the bins, ascending.

    Uniform binning splits [min, max] into ``bins`` equal widths.  Quantile
    binning puts the cuts at the i/bins quantiles (linear interpolation);
    duplicate cuts from heavy ties are collapsed with a warning, shrinking
    the alphabet.
    """
    if spec.bins == 1:
        return []
    lo, hi = min(series), max(series)
    if spec.method is BinMethod.UNIFORM:
        return [lo + (hi - lo) * i / spec.bins for i in range(1, spec.bins)]
    cuts = statistics.quantiles(series, n=spec.bins, method="inclusive")
    unique = sorted(set(cuts))
    if len(unique) < len(cuts):
        warnings.warn(
            f"quantile cuts collapsed from {len(cuts)} to {len(unique)}; "
            f"alphabet shrinks to {len(unique) + 1} bins",
            stacklevel=2,
        )
    return unique


def _bin_names(cuts: list[float], lo: float, hi: float) -> tuple[str, ...]:
    if not cuts:
        return (f"[{lo:.6g},{hi:.6g}]",)
    names = [f"[{lo:.6g},{cuts[0]:.6g}]"]
    for left, right in zip(cuts, cuts[1:]):
        names.append(f"({left:.6g},{right:.6g}]")
    names.append(f"({cuts[-1]:.6g},{hi:.6g}]")
    return tuple(names)


def discretize(series: Sequence[float], spec: DiscretizationSpec) -> Sample:
    """Turn a real-valued series into windowed traces over bin symbols.

    Each of the ``len(series) - window`` sliding windows with a successor
    value becomes one unlabeled trace; its last symbol carries the successor
    (NEXT_VALUE) or the step toward it (NEXT_DELTA) as target.  Values
    sitting exactly on a cut go to the lower bin.
    """
    series = [float(v) for v in series]
    if any(not math.isfinite(v) for v in series):
        raise ValueError("series contains non-finite values")
    if len(series) <= spec.window:
        raise ValueError(
            f"series of length {len(series)} too short for window {spec.window}"
        )
    cuts = bin_cuts(series, spec)
    lo, hi = min(series), max(series)
    names = _bin_names(cuts, lo, hi)
    symbols = [bisect_left(cuts, v) for v in series]

    traces = []
    w = spec.window
    for i in range(len(series) - w):
        if spec.target is TargetKind.NEXT_DELTA:
            target = series[i + w] - series[i + w - 1]
        else:
            target = series[i + w]
        insts = [SymbolInstance(symbols[j]) for j in range(i, i + w - 1)]
        insts.append(SymbolInstance(symbols[i + w - 1], (), target))
        traces.append(Trace(TraceLabel.UNLABELED, tuple(insts)))
    return Sample(tuple(traces), names, 0)


# ---------------------------------------------------------------------------
# Whole-sample assessment


@dataclass(frozen=True)
class EvalReport:
    traces: int
    accepted: int
    rejected: int
    pos_total: int
    pos_accepted: int
    neg_total: int
    neg_rejected: int
    accuracy: float | None
    mse: float | None
    mse_count: int


def evaluate(a: Automaton, sample: Sample) -> EvalReport:
    """Replay a sample through the machine and summarize the outcome.

    Accuracy covers labeled traces only.  The squared error covers traces
    whose last symbol carries a target, predicted with the global-mean
    fallback so every trace gets a number.
    """
    accepted = 0
    pos_total = pos_acc = neg_total = neg_rej = 0
    sq_err = 0.0
    n_t = 0
    for trace in sample.traces:
        word = trace.word
        path, complete = _walk(a, word)
        ok = complete and path[-1] in a.accepting
        accepted += ok
        if trace.label is TraceLabel.POSITIVE:
            pos_total += 1
            pos_acc += ok
        elif trace.label is TraceLabel.NEGATIVE:
            neg_total += 1
            neg_rej += not ok
        target = trace.symbols[-1].target if trace.symbols else None
        if target is not None:
            err = _resolve(a, word, path, complete, Fallback.GLOBAL_MEAN) - target
            sq_err += err * err
            n_t += 1
    labeled = pos_total + neg_total
    return EvalReport(
        traces=len(sample.traces),
        accepted=accepted,
        rejected=len(sample.traces) - accepted,
        pos_total=pos_total,
        pos_accepted=pos_acc,
        neg_total=neg_total,
        neg_rejected=neg_rej,
        accuracy=(pos_acc + neg_rej) / labeled if labeled else None,
        mse=sq_err / n_t if n_t else None,
        mse_count=n_t,
    )

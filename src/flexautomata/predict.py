"""Using a learned machine: numeric prediction, sampling, and discretization.

Prediction walks a word through the automaton and reports the mean target of
the end state.  Words that fall off the transition structure are handled by
a configurable fallback: the global target mean, the mean at the deepest
state actually reached, or a hard error.  The global mean comes from
:attr:`Automaton.target_totals`, and each step from the model's successor
table (state -> ``{symbol: target}``, built in one pass over its
transitions); both are made once per model and kept because models are
immutable.  So a query costs one table step per symbol, not the model
size, and builds nothing but its answer, save the path that the LAST_STATE
fallback reads.

Sampling draws words from the machine by a weighted random walk over the
recorded transition counts (with an extra stop option at accepting states),
so frequent patterns in the training data are frequent in the output.  A
state's options come from its own row of the successor table, so they cost
its out-degree, not the alphabet size.

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
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

from .automaton import Automaton, StateId, Symbol, Word, walk
from .errors import GenerationError, PredictionError
from .sample_io import MAX_ALPHABET_SIZE, Sample, SymbolInstance, Trace, TraceLabel


class Fallback(enum.Enum):
    GLOBAL_MEAN = "mean"
    LAST_STATE = "last"
    ERROR = "error"


# Bound once: reading a member off its enum class costs about ten times a
# global read on CPython 3.11, which every query and evaluated trace would pay.
_GLOBAL_MEAN, _LAST_STATE, _ERROR = Fallback.GLOBAL_MEAN, Fallback.LAST_STATE, Fallback.ERROR
_POSITIVE, _NEGATIVE = TraceLabel.POSITIVE, TraceLabel.NEGATIVE


@dataclass(frozen=True)
class PredictionConfig:
    fallback: Fallback = Fallback.GLOBAL_MEAN


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
    A symbol outside the alphabet is a missing transition here, unlike in
    :func:`~flexautomata.automaton.compute`: a query degrades to its
    fallback.  A model with no target data at all is an error under every
    policy.

    Only LAST_STATE reads the states walked, so only it builds the path;
    under the other policies the walk keeps just its current state.  Every
    answer comes from :func:`_resolve`.
    """
    fallback = cfg.fallback
    if fallback is _LAST_STATE:
        path, complete = walk(a, word)
        return _resolve(a, path[-1], complete, fallback, word, path)
    table = a._successors
    cur = a.start
    for sym in word:
        nxt = table[cur].get(sym)
        if nxt is None:
            return _resolve(a, cur, False, fallback, word)
        cur = nxt
    return _resolve(a, cur, True, fallback, word)


def _resolve(a: Automaton, end: StateId, complete: bool, fallback: Fallback,
             word: Word = (), path: Sequence[StateId] = ()) -> float:
    """The prediction from a walk that stopped at ``end``, as :func:`predict_value` defines it.

    ``word`` is read only for the error under ERROR, ``path``, the states
    walked, only under LAST_STATE.
    """
    count, total = a.target_totals
    if count == 0:
        raise PredictionError("model carries no target data")
    agg = a.states[end]
    if complete and agg.target_count > 0:
        return agg.target_sum / agg.target_count
    if fallback is _ERROR:
        raise PredictionError(f"word {word} leaves the model's domain")
    if fallback is _LAST_STATE:
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

    A state's options and their cumulative weights are tabled on its first
    visit in the call, so a step costs one uniform draw and one bisect.  The
    step is the draw ``Random.choices(options, weights)`` makes: one
    ``random()`` call, scaled by the same float total ``cum[-1] + 0.0``, then
    ``bisect_right(cum, ..., 0, len(options) - 1)``.  The generator's stream
    and every word therefore equal a per-step ``choices`` call (its code is
    the same on CPython 3.10 to 3.13).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    shortest = shortest_accepted_length(a)
    if shortest is None or shortest > max_len:
        raise GenerationError(f"model accepts no word of length <= {max_len}")
    draw = random.Random(seed).random
    tables: dict[StateId, _Table] = {}
    words: list[Word] = []
    restarts_left = 100_000 * (n + 1)
    while len(words) < n:
        word = _one_walk(a, tables, draw, max_len)
        if word is None:
            restarts_left -= 1
            if restarts_left <= 0:
                raise GenerationError("sampling failed to terminate")
        else:
            words.append(word)
    return words


# A state's step table: its options (None is the stop option, first when the
# state accepts; then the out-edge symbols, ascending), each option's
# destination, their cumulative add-one weights, the float total of the
# weights, and the highest option index.  A dead end has no options.
_Table = tuple[list, list, list[int], float, int]
_DEAD_END: _Table = ([], [], [], 0.0, -1)


def _step_table(a: Automaton, q: StateId) -> _Table:
    agg = a.states[q]
    options: list[Symbol | None] = []
    dests: list[StateId | None] = []
    weights: list[int] = []
    if q in a.accepting:
        options.append(None)
        dests.append(None)
        weights.append(agg.end_count + 1)
    counts = agg.out_counts
    for sym, dst in a.out_edges(q):
        options.append(sym)
        dests.append(dst)
        weights.append(counts.get(sym, 0) + 1)
    if not options:
        return _DEAD_END
    cum = list(accumulate(weights))
    return options, dests, cum, cum[-1] + 0.0, len(options) - 1


def _one_walk(a: Automaton, tables: dict[StateId, _Table], draw: Callable[[], float],
              max_len: int) -> Word | None:
    """One weighted walk; None when it dead-ends or overruns max_len."""
    cur = a.start
    word: list[int] = []
    while True:
        table = tables.get(cur)
        if table is None:
            table = tables[cur] = _step_table(a, cur)
        options, dests, cum, total, hi = table
        if hi < 0:
            return None
        i = bisect_right(cum, draw() * total, 0, hi)
        pick = options[i]
        if pick is None:
            return tuple(word)
        if len(word) == max_len:
            return None
        word.append(pick)
        cur = dests[i]


# ---------------------------------------------------------------------------
# Series discretization


class BinMethod(enum.Enum):
    UNIFORM = "uniform"
    QUANTILE = "quantile"


class TargetKind(enum.Enum):
    NEXT_DELTA = "delta"
    NEXT_VALUE = "value"


# Bound once, as the fallbacks above are: ``discretize`` reads them per window.
_NEXT_DELTA, _UNLABELED = TargetKind.NEXT_DELTA, TraceLabel.UNLABELED


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
    the alphabet.  Every cut of a finite series is finite: where a sum or
    product inside either formula overflows near the float limits, the
    same formula runs on the series scaled down by a power of two, and its
    cuts are scaled back.  A one-value series is a constant one: ``bins - 1``
    cuts at its value, which quantile binning collapses to one.  An empty
    series raises :class:`ValueError`.
    """
    if not series:
        raise ValueError("cannot bin an empty series")
    bins = spec.bins
    if bins == 1:
        return []
    cuts = _cuts(series, bins, spec.method)
    if not all(map(math.isfinite, cuts)):
        # 2**k > 2 * bins keeps every product and sum of either formula in range.
        k = bins.bit_length() + 1
        scaled = _cuts([math.ldexp(v, -k) for v in series], bins, spec.method)
        cuts = [math.ldexp(c, k) for c in scaled]
    if spec.method is BinMethod.UNIFORM:
        return cuts
    unique = sorted(set(cuts))
    if len(unique) < len(cuts):
        warnings.warn(
            f"quantile cuts collapsed from {len(cuts)} to {len(unique)}; "
            f"alphabet shrinks to {len(unique) + 1} bins",
            stacklevel=2,
        )
    return unique


def _cuts(series: Sequence[float], bins: int, method: BinMethod) -> list[float]:
    if method is BinMethod.UNIFORM:
        lo, hi = min(series), max(series)
        return [lo + (hi - lo) * i / bins for i in range(1, bins)]
    if len(series) == 1:  # statistics.quantiles refuses one value before CPython 3.13
        return [series[0]] * (bins - 1)
    return statistics.quantiles(series, n=bins, method="inclusive")


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
    sitting exactly on a cut go to the lower bin.  A step that overflows to
    an infinite target raises :class:`ValueError` naming its two positions,
    since no trace file could carry it.
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
    # One shared instance per bin, for every symbol but the target's.
    shared = {s: SymbolInstance(s) for s in set(symbols)}
    bare = [shared[s] for s in symbols]

    traces = []
    w = spec.window
    for i in range(len(series) - w):
        if spec.target is _NEXT_DELTA:
            target = series[i + w] - series[i + w - 1]
            if not math.isfinite(target):
                raise ValueError(
                    f"step from series[{i + w - 1}] to series[{i + w}] overflows: "
                    f"{series[i + w]!r} - {series[i + w - 1]!r} is {target!r}"
                )
        else:
            target = series[i + w]
        last = SymbolInstance(symbols[i + w - 1], (), target)
        traces.append(Trace(_UNLABELED, (*bare[i:i + w - 1], last)))
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
    whose last symbol carries a target, predicted as :func:`predict_value`
    does with the global-mean fallback, so every trace gets a number.  Each
    trace's symbols are walked once, in place: one transition lookup per
    symbol, with no word tuple and no path built.  The walk reads
    ``transitions`` itself, not the successor table the queries step
    through: an evaluation makes one pass over its sample, usually on a
    freshly loaded model, and on a model with more transitions than the
    sample has symbols the table's build would cost more than it saves.
    """
    transitions, accepting, start = a.transitions, a.accepting, a.start
    accepted = 0
    pos_total = pos_acc = neg_total = neg_rej = 0
    sq_err = 0.0
    n_t = 0
    for trace in sample.traces:
        symbols = trace.symbols
        cur = start
        for inst in symbols:
            nxt = transitions.get((cur, inst.symbol))
            if nxt is None:
                complete = False
                break
            cur = nxt
        else:
            complete = True
        ok = complete and cur in accepting
        accepted += ok
        if trace.label is _POSITIVE:
            pos_total += 1
            pos_acc += ok
        elif trace.label is _NEGATIVE:
            neg_total += 1
            neg_rej += not ok
        target = symbols[-1].target if symbols else None
        if target is not None:
            err = _resolve(a, cur, complete, _GLOBAL_MEAN) - target
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

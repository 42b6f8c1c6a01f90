"""Seeded random targets, samples and automata shared by the test modules."""

from __future__ import annotations

import random

from flexautomata import Automaton, Sample, StateAggregate, SymbolInstance, Trace, TraceLabel


class TargetDfa:
    """A complete random DFA used as a ground-truth language."""

    def __init__(self, rng: random.Random, n_states: int, n_syms: int):
        self.n_states = n_states
        self.n_syms = n_syms
        self.delta = {
            (q, s): rng.randrange(n_states)
            for q in range(n_states)
            for s in range(n_syms)
        }
        k = rng.randint(1, n_states - 1)
        self.accepting = set(rng.sample(range(n_states), k))

    def accepts(self, word) -> bool:
        cur = 0
        for sym in word:
            cur = self.delta[(cur, sym)]
        return cur in self.accepting


def even_ones_dfa() -> TargetDfa:
    """The 2-state binary-language machine accepting words with evenly many 1s."""
    dfa = TargetDfa.__new__(TargetDfa)
    dfa.n_states = 2
    dfa.n_syms = 2
    dfa.delta = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    dfa.accepting = {0}
    return dfa


def complete_sample(dfa: TargetDfa, max_len: int, with_targets: bool = False) -> Sample:
    """Every word up to ``max_len``, labeled by ``dfa`` membership."""
    from itertools import product

    traces = []
    target = 0.0 if with_targets else None
    for length in range(max_len + 1):
        for word in product(range(dfa.n_syms), repeat=length):
            label = TraceLabel.POSITIVE if dfa.accepts(word) else TraceLabel.NEGATIVE
            traces.append(Trace(label, tuple(SymbolInstance(s, (), target) for s in word)))
    return Sample(tuple(traces), tuple(str(i) for i in range(dfa.n_syms)))


def labeled_sample(
    rng: random.Random,
    dfa: TargetDfa,
    n_traces: int,
    max_len: int,
    with_targets: bool = False,
) -> Sample:
    """Random words labeled by ``dfa`` membership.

    Labels come from a function of the word, so the sample can never be
    contradictory.  With ``with_targets`` every symbol carries target 0.0,
    which makes the sample usable by target-driven heuristics without
    changing its classification content.
    """
    traces = []
    target = 0.0 if with_targets else None
    for _ in range(n_traces):
        length = rng.randint(0, max_len)
        word = tuple(rng.randrange(dfa.n_syms) for _ in range(length))
        label = TraceLabel.POSITIVE if dfa.accepts(word) else TraceLabel.NEGATIVE
        traces.append(Trace(label, tuple(SymbolInstance(s, (), target) for s in word)))
    return Sample(tuple(traces), tuple(str(i) for i in range(dfa.n_syms)))


def random_automaton(rng: random.Random, max_states: int = 30, n_syms: int = 2) -> Automaton:
    """An arbitrary partial automaton with filled-in aggregates.

    Shapes are unconstrained (cycles, unreachable parts, any labeling), which
    is exactly what the merge engine must cope with.
    """
    n = rng.randint(2, max_states)
    states = {}
    accepting = set()
    rejecting = set()
    transitions = {}
    for q in range(n):
        out_counts = {}
        for sym in range(n_syms):
            if rng.random() < 0.8:
                transitions[(q, sym)] = rng.randrange(n)
                out_counts[sym] = rng.randint(1, 20)
        roll = rng.random()
        if roll < 0.35:
            accepting.add(q)
        elif roll < 0.7:
            rejecting.add(q)
        total = sum(out_counts.values()) + rng.randint(0, 10)
        tcount = rng.randint(0, min(total, 5))
        # Pooled left to right from int 0, as Automaton.target_totals pools:
        # sum() of floats compensates its rounding since CPython 3.12.
        tsum = tsumsq = 0
        for _ in range(tcount):
            v = rng.uniform(-2.0, 2.0)
            tsum += v
            tsumsq += v * v
        # Labeled ends are a share of the trace ends, as check_integrity requires.
        ends = total - sum(out_counts.values())
        end_pos = min(rng.randint(0, 3), ends)
        end_neg = min(rng.randint(0, 3), ends - end_pos)
        states[q] = StateAggregate(
            total_count=total,
            end_pos_count=end_pos,
            end_neg_count=end_neg,
            out_counts=out_counts,
            target_count=tcount,
            target_sum=tsum,
            target_sumsq=tsumsq,
        )
    return Automaton(
        alphabet=tuple(str(i) for i in range(n_syms)),
        states=states,
        accepting=frozenset(accepting),
        rejecting=frozenset(rejecting),
        transitions=transitions,
        start=0,
        next_id=n,
    )

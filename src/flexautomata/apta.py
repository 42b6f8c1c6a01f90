"""Build the augmented prefix tree acceptor that seeds every learning run.

The tree has one state per distinct prefix in the sample.  A state is
accepting iff some positive trace ends there and rejecting iff some negative
trace ends there; a word occurring with both labels is a hard error.  All
occurrence aggregates are filled in the same single pass over the traces,
with symbol attributes and targets credited to the state the symbol leads
to.  Ids are assigned breadth-first, children visited in ascending symbol
order, so the root is always state 0.
"""

from __future__ import annotations

from collections import deque

from .automaton import Automaton, StateAggregate, StateId, Symbol, _make_aggregate
from .errors import InconsistentSampleError, SampleFormatError
from .sample_io import Sample, TraceLabel

# Merging sums squared targets and attributes over states, and a saved model
# holds only finite sums.  Capping the sample-wide total far below the float
# range keeps every partial sum finite, in any summation order.
_MAX_POOLED_MAGNITUDE = 1e300


class _Node:
    __slots__ = (
        "children", "total", "end_pos", "end_neg", "out",
        "tcount", "tsum", "tsumsq", "attrs",
    )

    def __init__(self, arity: int):
        self.children: dict[Symbol, _Node] = {}
        self.total = 0
        self.end_pos = 0
        self.end_neg = 0
        self.out: dict[Symbol, int] = {}
        self.tcount = 0
        self.tsum = 0.0
        self.tsumsq = 0.0
        self.attrs = [0.0] * arity


def build_apta(sample: Sample) -> Automaton:
    """Construct the prefix tree acceptor for ``sample``.

    Duplicate traces are allowed and add up in the aggregates.  Empty traces
    end at the root, so the root can itself be accepting or rejecting.
    Raises :class:`InconsistentSampleError` when one word is both positive
    and negative, and :class:`SampleFormatError` when targets or attributes
    are so large that pooling them could overflow.
    """
    arity = sample.attribute_arity
    root = _Node(arity)
    magnitude = 0.0  # sum of squared targets and of absolute attribute values
    for n, trace in enumerate(sample.traces, 1):
        node = root
        node.total += 1
        for inst in trace.symbols:
            if inst.symbol >= len(sample.alphabet):
                raise ValueError(
                    f"symbol {inst.symbol} outside alphabet of size {len(sample.alphabet)}"
                )
            node.out[inst.symbol] = node.out.get(inst.symbol, 0) + 1
            child = node.children.get(inst.symbol)
            if child is None:
                child = _Node(arity)
                node.children[inst.symbol] = child
            node = child
            node.total += 1
            if inst.target is not None:
                node.tcount += 1
                node.tsum += inst.target
                square = inst.target * inst.target
                node.tsumsq += square
                magnitude += square
            for i, v in enumerate(inst.attributes):
                node.attrs[i] += v
                magnitude += abs(v)
        if not magnitude < _MAX_POOLED_MAGNITUDE:
            raise SampleFormatError(f"trace {n}: target or attribute values too large to pool")
        if trace.label is TraceLabel.POSITIVE:
            node.end_pos += 1
        elif trace.label is TraceLabel.NEGATIVE:
            node.end_neg += 1
        if node.end_pos and node.end_neg:
            raise InconsistentSampleError(
                f"word {trace.word} occurs with both labels"
            )

    states: dict[StateId, StateAggregate] = {}
    accepting: set[StateId] = set()
    rejecting: set[StateId] = set()
    transitions: dict[tuple[StateId, Symbol], StateId] = {}
    queue: deque[tuple[StateId, _Node]] = deque([(0, root)])
    next_id = 1
    while queue:
        q, node = queue.popleft()
        states[q] = _make_aggregate(node.total, node.end_pos, node.end_neg, dict(node.out),
                                    node.tcount, node.tsum, node.tsumsq, tuple(node.attrs))
        if node.end_pos:
            accepting.add(q)
        if node.end_neg:
            rejecting.add(q)
        for sym in sorted(node.children):
            transitions[(q, sym)] = next_id
            queue.append((next_id, node.children[sym]))
            next_id += 1
    return Automaton(
        alphabet=sample.alphabet,
        states=states,
        accepting=frozenset(accepting),
        rejecting=frozenset(rejecting),
        transitions=transitions,
        start=0,
        next_id=next_id,
        attribute_arity=arity,
    )

"""Build the augmented prefix tree acceptor that seeds every learning run.

The tree has one state per distinct prefix in the sample.  A state is
accepting iff some positive trace ends there and rejecting iff some negative
trace ends there; a word occurring with both labels is a hard error.  All
occurrence aggregates are filled in the same single pass over the traces,
with symbol attributes and targets credited to the state the symbol leads
to, each sum taken in trace order.  Ids are assigned breadth-first, children
visited in ascending symbol order, so the root is always state 0.  Every
trace that leaves a state along a symbol visits that child, so each out
count is the child's total.

A build costs one pass over the symbols plus one aggregate per prefix.  The
pass keeps the tree in flat lists indexed by the order its nodes are made,
so it builds no object per prefix; the aggregates are made once, in id order.
"""

from __future__ import annotations

from .automaton import Automaton, StateAggregate, StateId, Symbol
from .errors import InconsistentSampleError, SampleFormatError
from .sample_io import Sample, Trace, TraceLabel

# Merging sums squared targets and attributes over states, and a saved model
# holds only finite sums.  Capping the sample-wide total far below the float
# range keeps every partial sum finite, in any summation order.
_MAX_POOLED_MAGNITUDE = 1e300

# Bound once: reading a member off its enum class costs about ten times a
# global read on CPython 3.11, which every trace would pay.
_POSITIVE, _NEGATIVE = TraceLabel.POSITIVE, TraceLabel.NEGATIVE


def _both_labels(sample: Sample, n: int, trace: Trace) -> InconsistentSampleError:
    """The error for trace ``n``, which gave its word its second label.  It names
    the first earlier trace with the other label, found by a scan made only
    here, so a build that raises nothing does no extra work."""
    word = trace.word
    other = _NEGATIVE if trace.label is _POSITIVE else _POSITIVE
    m = next(i for i, t in enumerate(sample.traces[:n - 1], 1)
             if t.label is other and t.word == word)
    return InconsistentSampleError(
        f"trace {n}: word {word} occurs with both labels (trace {m} has the other)")


def build_apta(sample: Sample) -> Automaton:
    """Construct the prefix tree acceptor for ``sample``.

    Duplicate traces are allowed and add up in the aggregates.  Empty traces
    end at the root, so the root can itself be accepting or rejecting.
    Raises :class:`InconsistentSampleError` when one word is both positive
    and negative, naming the trace that gave it its second label and the
    first earlier one with the other; :class:`SampleFormatError` when
    targets or attributes are so large that pooling them could overflow;
    and ValueError for a symbol
    outside the alphabet, a negative one included.  At
    ``sample.attribute_arity`` above 0, a symbol may carry no attributes or
    exactly that many; any other count is a ValueError naming the trace and
    the symbol's position in it.  At arity 0, attributes are ignored.

    Cost: one pass over the symbols, then one aggregate per prefix.  The pass
    keeps each node's fields in flat lists indexed by the order the nodes
    are made, so a new prefix appends to each list instead of building an
    object, and a symbol already seen at its node costs one dict lookup and
    its counter updates.  Only a new child is checked against the alphabet,
    ``0 <= sym < size``, since every existing one passed that check, and a
    sample without attributes skips their loop.
    """
    arity = sample.attribute_arity
    size = len(sample.alphabet)
    # Per node, by creation order: child per symbol, visits, labeled ends,
    # target count, sum and sum of squares, and attribute sums (at arity > 0).
    children: list[dict[Symbol, int]] = [{}]
    total = [0]
    end_pos = [0]
    end_neg = [0]
    tcount = [0]
    tsum = [0.0]
    tsumsq = [0.0]
    attrs = [[0.0] * arity]
    magnitude = 0.0  # sum of squared targets and of absolute attribute values
    for n, trace in enumerate(sample.traces, 1):
        node = 0
        total[0] += 1
        for inst in trace.symbols:
            sym = inst.symbol
            kids = children[node]
            node = kids.get(sym)
            if node is None:
                if not 0 <= sym < size:
                    raise ValueError(f"symbol {sym} outside alphabet of size {size}")
                node = kids[sym] = len(total)
                children.append({})
                total.append(1)
                end_pos.append(0)
                end_neg.append(0)
                tcount.append(0)
                tsum.append(0.0)
                tsumsq.append(0.0)
                if arity:
                    attrs.append([0.0] * arity)
            else:
                total[node] += 1
            target = inst.target
            if target is not None:
                tcount[node] += 1
                tsum[node] += target
                square = target * target
                tsumsq[node] += square
                magnitude += square
            if arity:
                attributes = inst.attributes
                if attributes and len(attributes) != arity:
                    # An equal symbol earlier in the trace would have raised already.
                    raise ValueError(
                        f"trace {n}: symbol at position {trace.symbols.index(inst) + 1} "
                        f"has {len(attributes)} attributes, expected {arity}"
                    )
                sums = attrs[node]
                for i, v in enumerate(attributes):
                    sums[i] += v
                    magnitude += abs(v)
        if not magnitude < _MAX_POOLED_MAGNITUDE:
            raise SampleFormatError(f"trace {n}: target or attribute values too large to pool")
        if trace.label is _POSITIVE:
            end_pos[node] += 1
        elif trace.label is _NEGATIVE:
            end_neg[node] += 1
        if end_pos[node] and end_neg[node]:
            raise _both_labels(sample, n, trace)

    states: dict[StateId, StateAggregate] = {}
    accepting: list[StateId] = []
    rejecting: list[StateId] = []
    transitions: dict[tuple[StateId, Symbol], StateId] = {}
    order = [0]  # nodes by state id, appended while iterated: breadth-first
    for q, node in enumerate(order):
        kids = children[node]
        out = {}
        if kids:
            for sym in sorted(kids) if len(kids) > 1 else kids:
                child = kids[sym]
                out[sym] = total[child]
                transitions[(q, sym)] = len(order)
                order.append(child)
        pos, neg = end_pos[node], end_neg[node]
        states[q] = StateAggregate(total[node], pos, neg, out, tcount[node], tsum[node],
                                   tsumsq[node], tuple(attrs[node]) if arity else ())
        if pos:
            accepting.append(q)
        if neg:
            rejecting.append(q)
    return Automaton(
        alphabet=sample.alphabet,
        states=states,
        accepting=frozenset(accepting),
        rejecting=frozenset(rejecting),
        transitions=transitions,
        start=0,
        next_id=len(order),
        attribute_arity=arity,
    )

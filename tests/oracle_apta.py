"""Naive reference prefix tree, used as a test oracle only.

Deliberately coded nothing like ``build_apta``: every prefix of every trace
is a key of one dict, holding that prefix's counts and sums as they are
added up in trace order.  Ids come last, from sorting the prefixes by length
and then symbol by symbol, which for a prefix-closed set is the breadth-first
order with children in ascending symbol order.  Errors are raised at the
same points and with the same messages as ``build_apta`` raises them: a
symbol outside the alphabet at that symbol, a symbol with attributes but
not ``attribute_arity`` of them (at an arity above 0) at that symbol, and a
word with both labels at the end of the trace that gives it its second
label, naming the first trace that gave it the other one (each prefix
records it as the labeled traces arrive).  At arity 0, attributes are
ignored.  Values too large to pool are not refused here; the tests that use
it draw none.
"""

from __future__ import annotations

from flexautomata import (
    Automaton,
    InconsistentSampleError,
    Sample,
    StateAggregate,
    TraceLabel,
)


def reference_apta(sample: Sample) -> Automaton:
    size, arity = len(sample.alphabet), sample.attribute_arity

    def fresh():
        return {"total": 0, "pos": 0, "neg": 0, "tcount": 0,
                "tsum": 0.0, "tsumsq": 0.0, "attrs": [0.0] * arity, "first": {}}

    nodes = {(): fresh()}
    for n, trace in enumerate(sample.traces, 1):
        prefix = ()
        nodes[prefix]["total"] += 1
        for pos, inst in enumerate(trace.symbols, 1):
            if inst.symbol >= size:
                raise ValueError(f"symbol {inst.symbol} outside alphabet of size {size}")
            if arity and inst.attributes and len(inst.attributes) != arity:
                raise ValueError(f"trace {n}: symbol at position {pos} has "
                                 f"{len(inst.attributes)} attributes, expected {arity}")
            prefix += (inst.symbol,)
            node = nodes.setdefault(prefix, fresh())
            node["total"] += 1
            if inst.target is not None:
                node["tcount"] += 1
                node["tsum"] += inst.target
                node["tsumsq"] += inst.target * inst.target
            for i, v in enumerate(inst.attributes if arity else ()):
                node["attrs"][i] += v
        end = nodes[prefix]
        if trace.label is TraceLabel.POSITIVE:
            end["pos"] += 1
        elif trace.label is TraceLabel.NEGATIVE:
            end["neg"] += 1
        if trace.label is not TraceLabel.UNLABELED:
            end["first"].setdefault(trace.label, n)
        if end["pos"] and end["neg"]:
            other = (TraceLabel.NEGATIVE if trace.label is TraceLabel.POSITIVE
                     else TraceLabel.POSITIVE)
            raise InconsistentSampleError(f"trace {n}: word {trace.word} occurs with both "
                                          f"labels (trace {end['first'][other]} has the other)")

    ids = {p: q for q, p in enumerate(sorted(nodes, key=lambda p: (len(p), p)))}
    states = {}
    for p, node in nodes.items():
        out = {c[-1]: nodes[c]["total"] for c in nodes if c and c[:-1] == p}
        states[ids[p]] = StateAggregate(
            node["total"], node["pos"], node["neg"], out, node["tcount"],
            node["tsum"], node["tsumsq"], tuple(node["attrs"]))
    return Automaton(
        alphabet=sample.alphabet,
        states=states,
        accepting=frozenset(ids[p] for p, node in nodes.items() if node["pos"]),
        rejecting=frozenset(ids[p] for p, node in nodes.items() if node["neg"]),
        transitions={(ids[c[:-1]], c[-1]): ids[c] for c in nodes if c},
        start=0,
        next_id=len(nodes),
        attribute_arity=arity,
    )

"""Small-bound oracles on an automaton's shape and language, for tests only.

``check_integrity`` is the package's integrity check as it was before its
per-state pass tested a healthy state with one combined condition and built
messages only for a state that fails it.  Its body is kept verbatim.
"""

from __future__ import annotations

import math
import sys
from collections import deque

from flexautomata.automaton import MAX_COUNT, Automaton, StateId

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


def language_upto(a, max_len):
    """All accepted words of length <= max_len, shortest first, ties lexicographic.

    Walks the transition structure breadth-first, so only words with a live
    path are ever visited.  The number of paths grows quickly with cyclic
    automata and large bounds, so keep ``max_len`` small.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    accepted = []
    queue = deque([(a.start, ())])
    while queue:
        q, word = queue.popleft()
        if q in a.accepting:
            accepted.append(word)
        if len(word) < max_len:
            for sym, dst in a.out_edges(q):
                queue.append((dst, word + (sym,)))
    return accepted


def structural_tree_check(a):
    """True iff ``a`` is a tree rooted at the start state.

    Every non-start state must have exactly one incoming transition and the
    start state none; a self-loop therefore disqualifies.
    """
    incoming = {q: 0 for q in a.states}
    for dst in a.transitions.values():
        if dst not in incoming:
            return False
        incoming[dst] += 1
    if incoming.get(a.start, 1) != 0:
        return False
    return all(n == 1 for q, n in incoming.items() if q != a.start)


def check_integrity(a: Automaton) -> list[str]:
    """Structural and aggregate sanity violations, as plain strings.

    Returns an empty list for a healthy automaton.  Violations are data, not
    exceptions, so loaders and tests can report all of them at once.  The
    order is fixed: the start state, the label sets, then the transitions
    by ``(source, symbol)`` and the states by id.  Only offenders are
    sorted, so a healthy automaton costs one unsorted pass over its
    transitions and states.
    """
    out: list[str] = []
    if a.start not in a.states:
        out.append(f"start state {a.start} not in state set")
    both = set(a.accepting) & set(a.rejecting)
    for q in sorted(both):
        out.append(f"state {q} is both accepting and rejecting")
    for q in sorted(set(a.accepting) - set(a.states)):
        out.append(f"accepting state {q} not in state set")
    for q in sorted(set(a.rejecting) - set(a.states)):
        out.append(f"rejecting state {q} not in state set")
    size = len(a.alphabet)
    states, transitions = a.states, a.transitions
    bad_transitions = [
        (src, sym, dst)
        for (src, sym), dst in transitions.items()
        if src not in states or dst not in states or not 0 <= sym < size
    ]
    for src, sym, dst in sorted(bad_transitions):
        if src not in states:
            out.append(f"transition source {src} not in state set")
        if dst not in states:
            out.append(f"transition target {dst} not in state set")
        if not 0 <= sym < size:
            out.append(f"transition ({src},{sym}) uses symbol outside alphabet")
    next_id, arity = a.next_id, a.attribute_arity
    by_state: dict[StateId, list[str]] = {}
    for q, agg in states.items():
        found: list[str] = []
        total = agg.total_count
        if q >= next_id:
            found.append(f"state {q} not below next_id {next_id}")
        if min(total, agg.end_pos_count, agg.end_neg_count, agg.target_count) < 0:
            found.append(f"state {q} has a negative count")
        ends = total - sum(agg.out_counts.values())
        if ends < 0:
            found.append(f"state {q} out_counts exceed total_count")
        if agg.end_pos_count + agg.end_neg_count > ends:
            found.append(f"state {q} labeled end counts exceed its trace ends")
        if agg.target_count > total:
            found.append(f"state {q} target_count exceeds total_count")
        bad_counts = []
        for sym, c in agg.out_counts.items():
            if c < 0 or (c > 0 and (q, sym) not in transitions):
                bad_counts.append((sym, c))
        for sym, c in sorted(bad_counts):
            if c < 0:
                found.append(f"state {q} negative out count on symbol {sym}")
            else:
                found.append(f"state {q} counts symbol {sym} but has no such transition")
        for v in (agg.target_sum, agg.target_sumsq, *agg.attribute_sums):
            if not math.isfinite(v):
                found.append(f"state {q} has a non-finite aggregate value")
                break
        else:  # finite target sums: the values they were summed from must exist
            count, total, sumsq = agg.target_count, agg.target_sum, agg.target_sumsq
            if sumsq < 0.0:
                found.append(f"state {q} has a negative target sum of squares")
            elif 0 < count <= MAX_COUNT and sumsq - total * (total / count) < -count * (
                    4 * _EPS * sumsq + _TINY):
                found.append(f"state {q} has target sums with a negative squared error")
            if count == 0 and (total != 0.0 or sumsq != 0.0):
                found.append(f"state {q} has target sums but no targets")
        if len(agg.attribute_sums) not in (0, arity):
            found.append(f"state {q} attribute arity {len(agg.attribute_sums)} != {arity}")
        if found:
            by_state[q] = found
    for q in sorted(by_state):
        out.extend(by_state[q])
    return out

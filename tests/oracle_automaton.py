"""Small-bound oracles on an automaton's shape and language, for tests only."""

from __future__ import annotations

from collections import deque


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

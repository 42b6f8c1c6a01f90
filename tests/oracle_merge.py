"""Brute-force reference for state merging, used as a test oracle only.

Deliberately coded nothing like the production engine: the merge closure is
computed as a partition fixpoint over plain dicts, with no union-find, no
queue discipline and no rollback.  Merging q1 and q2 succeeds iff the
smallest congruence containing them (targets of equal symbols from merged
states merged too) puts no accepting state together with a rejecting one;
the result is read off the quotient.

:func:`reference_score` is the matching oracle for heuristic scores: it
replays a merge's pairs over fully pooled aggregates and applies each stock
heuristic's rule to them directly.  Its frequency test is
:func:`hoeffding_compatible`, written here apart from ``Alergia.fold``;
:func:`fold_refuses` asks ``fold`` itself whether it refuses a pair.
:func:`reference_first_failure` finds where a merge first fails, pair by
pair in fold order: the pair a trial merge must stop at.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import product

from flexautomata import (
    FAIL_DISTRIBUTION,
    FAIL_LABEL_CONFLICT,
    FAIL_NO_TARGETS,
    Alergia,
    Edsm,
    EvidenceScore,
    Mse,
    merge_aggregates,
)


def _hoeffding_scale(alpha: float) -> float:
    """The alpha-only factor of every Hoeffding bound; alpha must lie in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return math.sqrt(0.5 * math.log(2.0 / alpha))


def hoeffding_bound(n1: int, n2: int, alpha: float) -> float:
    """Hoeffding deviation bound for comparing two frequencies.

    Two observed frequencies f1/n1 and f2/n2 are deemed compatible when
    their difference stays within sqrt(ln(2/alpha)/2) * (1/sqrt(n1) +
    1/sqrt(n2)).
    """
    if n1 <= 0 or n2 <= 0:
        raise ValueError("counts must be positive")
    return _hoeffding_scale(alpha) * (1.0 / math.sqrt(n1) + 1.0 / math.sqrt(n2))


def hoeffding_compatible(f1: int, n1: int, f2: int, n2: int, alpha: float) -> bool:
    """True iff the two frequencies pass the Hoeffding test at level alpha.

    Vacuously true when either count is zero: no data, no contradiction.
    ``alpha`` must lie in (0, 1) either way.
    """
    if n1 == 0 or n2 == 0:
        _hoeffding_scale(alpha)
        return True
    return abs(f1 / n1 - f2 / n2) <= hoeffding_bound(n1, n2, alpha)


def reference_merge(a, q1, q2):
    """Return (ok, merged_pair_count, quotient) for merging q1 and q2 of ``a``.

    ``merged_pair_count`` is the number of two-into-one joins performed,
    i.e. original state count minus quotient class count.  ``quotient`` is
    None on failure, else a dict with keys start/delta/accepting usable by
    :func:`reference_accepts`, plus ``sums``: the sorted list of
    :func:`integer_sums` of every class, each summed over its members.
    """
    rep = {q: q for q in a.states}

    def classes():
        by_rep = {}
        for q, r in rep.items():
            by_rep.setdefault(r, set()).add(q)
        return by_rep

    def union(x, y):
        rx, ry = rep[x], rep[y]
        if rx == ry:
            return False
        for q in rep:
            if rep[q] == ry:
                rep[q] = rx
        return True

    union(q1, q2)
    changed = True
    while changed:
        changed = False
        for members in list(classes().values()):
            for sym in range(len(a.alphabet)):
                targets = {
                    rep[a.transitions[(q, sym)]]
                    for q in members
                    if (q, sym) in a.transitions
                }
                targets = list(targets)
                for other in targets[1:]:
                    if union(targets[0], other):
                        changed = True

    by_rep = classes()
    for members in by_rep.values():
        if members & set(a.accepting) and members & set(a.rejecting):
            return False, None, None

    pair_count = len(a.states) - len(by_rep)
    delta = {}
    for r, members in by_rep.items():
        for sym in range(len(a.alphabet)):
            for q in members:
                dst = a.transitions.get((q, sym))
                if dst is not None:
                    delta[(r, sym)] = rep[dst]
                    break
    sums = []
    for members in by_rep.values():
        scalars = [0, 0, 0, 0]
        counts = {}
        for q in members:
            *fields, out_counts = integer_sums(a.states[q])
            scalars = [s + f for s, f in zip(scalars, fields)]
            for sym, c in out_counts:
                counts[sym] = counts.get(sym, 0) + c
        sums.append((*scalars, tuple(sorted(counts.items()))))
    quotient = {
        "start": rep[a.start],
        "delta": delta,
        "accepting": {r for r, members in by_rep.items() if members & set(a.accepting)},
        "sums": sorted(sums),
    }
    return True, pair_count, quotient


def integer_sums(agg):
    """The integer fields of an aggregate, which pooling must simply add up."""
    return (
        agg.total_count,
        agg.end_pos_count,
        agg.end_neg_count,
        agg.target_count,
        tuple(sorted(agg.out_counts.items())),
    )


def reference_accepts(quotient, word):
    cur = quotient["start"]
    for sym in word:
        cur = quotient["delta"].get((cur, sym))
        if cur is None:
            return False
    return cur in quotient["accepting"]


def reference_language(quotient, n_syms, max_len):
    """All accepted words up to max_len, by exhaustive enumeration."""
    out = set()
    for length in range(max_len + 1):
        for word in product(range(n_syms), repeat=length):
            if reference_accepts(quotient, word):
                out.add(word)
    return out


def reference_score(a, merged_pairs, heuristic):
    """Score a merge of ``a`` under a stock heuristic from fully pooled aggregates.

    ``merged_pairs`` is the merge's pair list in fold order (None when the
    merge hit a label conflict); pair ``i`` forms the fresh class
    ``a.next_id + i``.  Every pair pools complete aggregates with
    ``merge_aggregates``, and the heuristic's rule is applied to them here,
    not through its ``score``.
    """
    if merged_pairs is None:
        return EvidenceScore.fail(FAIL_LABEL_CONFLICT)
    aggs = dict(a.states)
    accepting, rejecting = set(a.accepting), set(a.rejecting)
    matches = 0
    rejected = False
    sse_delta = 0.0
    touched = False
    for i, (x, y) in enumerate(merged_pairs):
        gx, gy = aggs[x], aggs[y]
        z = a.next_id + i
        aggs[z] = gz = merge_aggregates(gx, gy)
        if {x, y} <= accepting or {x, y} <= rejecting:
            matches += 1
        if x in accepting or y in accepting:
            accepting.add(z)
        if x in rejecting or y in rejecting:
            rejecting.add(z)
        if isinstance(heuristic, Alergia) and alergia_refuses(heuristic.alpha)(gx, gy):
            rejected = True
        sse_delta += max(gz.sse() - gx.sse() - gy.sse(), 0.0)
        touched = touched or gz.target_count > 0
    if isinstance(heuristic, Edsm):
        return EvidenceScore(float(matches))
    if isinstance(heuristic, Alergia):
        if rejected:
            return EvidenceScore.fail(FAIL_DISTRIBUTION)
        return EvidenceScore(float(len(merged_pairs)))
    assert isinstance(heuristic, Mse)
    if not touched:
        return EvidenceScore.fail(FAIL_NO_TARGETS)
    return EvidenceScore(-sse_delta + heuristic.penalty * len(merged_pairs))


def alergia_refuses(alpha: float):
    """ALERGIA's refusal of one pair of fully pooled aggregates, by :func:`hoeffding_compatible`."""

    def refuses(gx, gy) -> bool:
        n1, n2 = gx.total_count, gy.total_count
        events = [(gx.end_count, gy.end_count)] + [
            (gx.out_counts.get(s, 0), gy.out_counts.get(s, 0))
            for s in gx.out_counts.keys() | gy.out_counts.keys()
        ]
        return not all(hoeffding_compatible(f1, n1, f2, n2, alpha) for f1, f2 in events)

    return refuses


def fold_refuses(heuristic, f1, f2) -> bool:
    """Whether ``heuristic.fold`` refuses the pair of statistics ``f1`` and ``f2``
    (ALERGIA's Hoeffding test, for :class:`Alergia`)."""
    return heuristic.fold(None, f1, f2) is None


def reference_first_failure(a, q1, q2, refuses=None):
    """How merging q1 and q2 of ``a`` ends, and the pairs it folds until then.

    Returns ``(end, pairs)``, ``end`` being "ok", "conflict" or "refused".
    Pairs are taken from a ``deque`` drained from the left, seeded with
    ``(q1, q2)``; each fold forms the class ``a.next_id + i`` and queues the
    target pairs of the symbols both its classes leave on, in ascending
    symbol order.  A pair fails if its classes carry opposite labels, else
    if ``refuses(gx, gy)`` holds for their fully pooled aggregates.  The
    first failing pair ends the merge, and ``pairs`` lists those before it.
    """
    parent: dict = {}

    def find(s):
        while s in parent:
            s = parent[s]
        return s

    out = {q: {} for q in a.states}
    for (src, sym), dst in a.transitions.items():
        out[src][sym] = dst
    labels = {**{q: True for q in a.accepting}, **{q: False for q in a.rejecting}}
    aggs = dict(a.states)
    pairs = []
    queue = deque([(q1, q2)])
    while queue:
        x, y = map(find, queue.popleft())
        if x == y:
            continue
        lx, ly = labels.get(x), labels.get(y)
        if None not in (lx, ly) and lx != ly:
            return "conflict", pairs
        if refuses is not None and refuses(aggs[x], aggs[y]):
            return "refused", pairs
        z = a.next_id + len(pairs)
        queue.extend((out[x][sym], out[y][sym]) for sym in sorted(out[x].keys() & out[y].keys()))
        out[z] = {**out[y], **out[x]}
        labels[z] = ly if lx is None else lx
        aggs[z] = merge_aggregates(aggs[x], aggs[y])
        parent[x] = parent[y] = z
        pairs.append((x, y))
    return "ok", pairs


def reference_caller_error(a) -> str | None:
    """The ValueError text ``merge`` gives for ``a``'s first broken structural rule, or None.

    Checked one rule at a time, in the priority ``merge`` keeps: the start
    state, a state in both label sets, a labeled state, then among the
    transitions a dangling source or target before any symbol outside the
    alphabet, the smallest ``(source, symbol)`` first within each.
    """
    states = a.states
    if a.start not in states:
        return f"start state {a.start} not in state set"
    if a.accepting & a.rejecting:
        return f"state {min(a.accepting & a.rejecting)} is both accepting and rejecting"
    for kind, labeled in (("accepting", a.accepting), ("rejecting", a.rejecting)):
        if set(labeled) - set(states):
            return f"{kind} state {min(set(labeled) - set(states))} not in state set"
    for (src, sym), dst in sorted(a.transitions.items()):
        if src not in states:
            return f"transition source {src} not in state set"
        if dst not in states:
            return f"transition target {dst} not in state set"
    for (src, sym) in sorted(a.transitions):
        if not 0 <= sym < len(a.alphabet):
            return f"transition ({src},{sym}) uses symbol outside alphabet"
    return None

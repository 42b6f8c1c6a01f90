"""State merging with determinization, the one operation learning relies on.

Merging two states replaces them with a fresh state that takes over both
label sets, both aggregates, and both transition sets.  When the two states
leave on the same symbol toward different targets, those targets are merged
too, and so on until the machine is deterministic again; the work queue is
seeded in ascending symbol order and drained breadth-first, so the sequence
of merged pairs is reproducible.  A merge fails iff any pair along the way
puts an accepting and a rejecting state together.  The input automaton is
never modified.

Every merge runs through one fold path, in :class:`MergeArena`: a merge
folds labels and transitions, plus only the per-class statistic that the
arena's heuristic reads, and can be rolled back.  The full aggregates of
the merged classes are pooled afterwards, by :meth:`MergeArena.pool`, for a
merge that is kept.  The learner builds one arena per run: it scores many
candidate merges this way without copying the machine, commits each kept
one in place and extracts once.  The module-level :func:`merge` is the pure
public form of a kept merge: one run, pool and extract.

A fold does only the work its result reads.  The arena keeps each class's
parent, out-map, label and statistic in lists indexed by class id, takes
every original state's statistic once, and lets a class whose second half
adds no symbol share the first half's out-map instead of copying it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .automaton import Automaton, StateAggregate, StateId, Symbol, _make_aggregate

if TYPE_CHECKING:
    from .heuristics import HeuristicId


def merge_aggregates(x: StateAggregate, y: StateAggregate) -> StateAggregate:
    """Field-wise sum of two aggregates.

    The all-zero aggregate is the identity.  Mixing two non-empty attribute
    vectors of different lengths is an error.
    """
    if x.attribute_sums and y.attribute_sums and len(x.attribute_sums) != len(y.attribute_sums):
        raise ValueError(
            f"attribute arity mismatch: {len(x.attribute_sums)} vs {len(y.attribute_sums)}"
        )
    if not x.attribute_sums:
        attrs = y.attribute_sums
    elif not y.attribute_sums:
        attrs = x.attribute_sums
    else:
        attrs = tuple(u + v for u, v in zip(x.attribute_sums, y.attribute_sums))
    out = dict(x.out_counts)
    for sym, c in y.out_counts.items():
        out[sym] = out.get(sym, 0) + c
    return _make_aggregate(
        x.total_count + y.total_count,
        x.end_pos_count + y.end_pos_count,
        x.end_neg_count + y.end_neg_count,
        out,
        x.target_count + y.target_count,
        x.target_sum + y.target_sum,
        x.target_sumsq + y.target_sumsq,
        attrs,
    )


@dataclass(frozen=True)
class MergeOutcome:
    """What one merge did.

    On failure (``label_conflict`` True) the remaining fields carry no
    information.  On success ``result`` is the new automaton (None for
    trial runs, which skip extraction), ``merged_pairs`` lists every pair
    folded together in determinization order, and ``label_matches`` counts
    the pairs whose states agreed on a label (both accepting or both
    rejecting).

    ``evidence`` is the record the arena's heuristic made with its
    ``evidence`` factory and wrote through its ``fold``, one call per merged
    pair.  It is None on failure, and for a heuristic that folds nothing.
    """

    result: Automaton | None
    merged_pairs: tuple[tuple[StateId, StateId], ...] = ()
    label_matches: int = 0
    label_conflict: bool = False
    evidence: object = None

    @property
    def failed(self) -> bool:
        return self.label_conflict


# Every failed merge reports exactly this, so a conflict builds no outcome.
_CONFLICT = MergeOutcome(result=None, label_conflict=True)


class _TrialFrame:
    """Undo information for one merge, failed or not: each fresh class and the two it joined."""

    __slots__ = ("created", "next_id_before")

    def __init__(self, next_id_before: int):
        self.created: list[tuple[StateId, StateId, StateId]] = []
        self.next_id_before = next_id_before


class MergeArena:
    """Mutable union-find view of an automaton supporting merge and rollback.

    Every class of merged original states is named by a public id: either the
    original state id, or the fresh id minted when the class was formed.
    ``parent``, ``out``, ``label`` and ``stats`` are lists indexed by that id,
    with one entry per id below ``next_id``: the class's parent (-1 for a
    root), its symbol → target map, its label (True accepting, False
    rejecting, None unlabeled) and its statistic.  An out-map or statistic of
    None marks an id with no live class: a hole in the automaton's ids, or a
    class that a kept merge joined to another.  Memory follows ``next_id``,
    so :func:`merge` renumbers a model's sparse ids first.  A fresh class
    appends one entry to each list and points the two classes it joins at
    itself; :meth:`rollback` makes those two roots again and truncates the
    lists to the ``next_id`` the trial began at.
    No out-map is written after it is made, so a fresh class whose second
    half adds no symbol holds its first half's map rather than a copy.
    Transition targets may go stale as classes merge; ``find`` resolves them.

    The heuristic decides what a merge pools besides labels and transitions:
    ``heuristic.statistic`` takes it from a state's aggregate, once per
    original state when the arena is built, and ``heuristic.fold`` pools one
    pair of them while writing that pair's evidence into the merge's record,
    made by ``heuristic.evidence``.  Without a heuristic, or with one whose
    ``fold`` is None, a merge pools labels alone, makes no record and leaves
    ``stats`` empty.  The fresh classes get their full aggregates, in the
    ``agg`` dict, only from :meth:`pool`, called once for a merge that is
    kept; it also drops the dead halves and leaves every parent a root.
    State ids must be non-negative, and the two label sets disjoint, as
    :func:`~flexautomata.automaton.check_integrity` requires of the latter.
    """

    def __init__(self, a: Automaton, heuristic: HeuristicId | None = None):
        if not a.accepting.isdisjoint(a.rejecting):
            raise ValueError("a state is both accepting and rejecting")
        if min(a.states, default=0) < 0:
            raise ValueError(f"negative state id {min(a.states)}")
        self.base = a
        n = self.next_id = a.next_id
        self.statistic = heuristic.statistic if heuristic is not None else None
        self.fold = heuristic.fold if heuristic is not None else None
        self.evidence = heuristic.evidence if heuristic is not None else None
        self.parent: list[StateId] = [-1] * n
        out: list[dict[Symbol, StateId] | None] = [None] * n
        for q in a.states:
            out[q] = {}
        for (src, sym), dst in a.transitions.items():
            out[src][sym] = dst
        label: list[bool | None] = [None] * n
        for q in a.accepting:
            label[q] = True
        for q in a.rejecting:
            label[q] = False
        self.out, self.label = out, label
        self.stats: list = []  # every class's statistic, when the heuristic folds one
        if self.fold is not None:
            self.stats = [None] * n
            for q, g in a.states.items():
                self.stats[q] = self.statistic(g)
        self.agg: dict[StateId, StateAggregate] = dict(a.states)

    def find(self, s: StateId) -> StateId:
        parent = self.parent
        while parent[s] >= 0:
            s = parent[s]
        return s

    def run_merge(self, q1: StateId, q2: StateId) -> tuple[MergeOutcome, _TrialFrame]:
        """Merge the classes of q1 and q2, cascading until deterministic.

        Returns the outcome (without extraction) plus the undo frame.  On
        label conflict the arena keeps the classes created before it, as a
        trial that succeeded does: :meth:`rollback` undoes either one.
        """
        frame = _TrialFrame(self.next_id)
        created = frame.created
        parent, out, label, stats, fold = self.parent, self.out, self.label, self.stats, self.fold
        evidence = self.evidence() if fold is not None else None
        label_matches = 0
        z = self.next_id
        queue: deque[tuple[StateId, StateId]] = deque([(q1, q2)])
        while queue:
            x, y = queue.popleft()
            while parent[x] >= 0:
                x = parent[x]
            while parent[y] >= 0:
                y = parent[y]
            if x == y:
                continue
            lz = label[x]  # x's label, then the merged class's
            ly = label[y]
            if lz is None:
                lz = ly
            elif ly is not None:
                if lz is not ly:
                    return _CONFLICT, frame
                label_matches += 1
            if fold is not None:
                stats.append(fold(evidence, x, stats[x], y, stats[y]))
            ox = oz = out[x]
            oy = out[y]
            if oy:
                for sym in sorted(oy) if len(oy) > 1 else oy:
                    if sym in ox:
                        queue.append((ox[sym], oy[sym]))
                    else:
                        if oz is ox:
                            oz = dict(ox)
                        oz[sym] = oy[sym]
            out.append(oz)
            label.append(lz)
            parent.append(-1)
            parent[x] = z
            parent[y] = z
            created.append((z, x, y))
            z += 1
        self.next_id = z
        outcome = MergeOutcome(
            result=None,
            merged_pairs=tuple([(x, y) for _, x, y in created]),
            label_matches=label_matches,
            evidence=evidence,
        )
        return outcome, frame

    def rollback(self, frame: _TrialFrame) -> None:
        """Undo a trial merge: make each folded pair roots again, cut every list back.

        A merge given its aggregates by :meth:`pool` is kept, never rolled back.
        """
        parent = self.parent
        for _, x, y in frame.created:
            parent[x] = parent[y] = -1
        n = self.next_id = frame.next_id_before
        del parent[n:], self.out[n:], self.label[n:], self.stats[n:]

    def pool(self, frame: _TrialFrame) -> None:
        """Keep a trial merge: pool its aggregates, drop its dead halves, flatten parents.

        Replays the frame's folds in creation order, so each class pools the
        aggregates its two parts had when they were folded; the parts'
        aggregates, out-maps and statistics go, since no joined class is read
        again.  Then every class points straight at its root, so ``find``
        stays one step long: a fresh class has a larger id than both classes
        it joins, so one descending pass over the ids finds each parent flat.
        """
        agg, out, stats, parent = self.agg, self.out, self.stats, self.parent
        for z, x, y in frame.created:
            agg[z] = merge_aggregates(agg.pop(x), agg.pop(y))
            out[x] = out[y] = None
            if stats:
                stats[x] = stats[y] = None
        for c in range(len(parent) - 1, -1, -1):
            p = parent[c]
            if p >= 0 and parent[p] >= 0:
                parent[c] = parent[p]

    def extract(self) -> Automaton:
        """The automaton of the current classes; every fresh one must be pooled."""
        parent, out, label, agg = self.parent, self.out, self.label, self.agg
        live = [c for c in range(self.next_id) if parent[c] < 0 and out[c] is not None]
        transitions = {}
        for c in live:
            for sym, t in out[c].items():
                while parent[t] >= 0:
                    t = parent[t]
                transitions[(c, sym)] = t
        return Automaton(
            alphabet=self.base.alphabet,
            states={c: agg[c] for c in live},
            accepting=frozenset(c for c in live if label[c] is True),
            rejecting=frozenset(c for c in live if label[c] is False),
            transitions=transitions,
            start=self.find(self.base.start),
            next_id=self.next_id,
            attribute_arity=self.base.attribute_arity,
        )


def _renamed(a: Automaton, f, next_id: int) -> Automaton:
    """``a`` with every state id ``q`` renamed ``f(q)`` and the given ``next_id``."""
    return replace(
        a,
        states={f(q): g for q, g in a.states.items()},
        accepting=frozenset(map(f, a.accepting)),
        rejecting=frozenset(map(f, a.rejecting)),
        transitions={(f(src), sym): f(dst) for (src, sym), dst in a.transitions.items()},
        start=f(a.start),
        next_id=next_id,
    )


def merge(a: Automaton, q1: StateId, q2: StateId) -> MergeOutcome:
    """Merge states ``q1`` and ``q2`` of ``a`` into a fresh state.

    Pure: ``a`` is left untouched and the result, when the merge succeeds, is
    a new automaton whose state count dropped by exactly the number of merged
    pairs, with the merged classes' aggregates pooled; its fresh ids start at
    ``a.next_id``.  Fails (rather than raising) iff determinization runs into
    a pair with conflicting labels.  Unknown or identical state ids, or a
    state id not below ``a.next_id``, are caller errors and raise ValueError.

    The arena runs over a copy with the states renumbered 0..n-1 in ascending
    order, so the cost follows the state count, not the size of the ids.
    """
    if q1 not in a.states or q2 not in a.states:
        raise ValueError(f"unknown state id in merge request ({q1}, {q2})")
    if q1 == q2:
        raise ValueError(f"cannot merge state {q1} with itself")
    ids = sorted(a.states)
    if ids[-1] >= a.next_id:
        raise ValueError(f"state {ids[-1]} not below next_id {a.next_id}")
    dense = {q: i for i, q in enumerate(ids)}
    arena = MergeArena(_renamed(a, dense.__getitem__, len(ids)))
    outcome, frame = arena.run_merge(dense[q1], dense[q2])
    if outcome.label_conflict:
        return outcome
    arena.pool(frame)
    # Dense fresh ids n, n+1, ... name the ids a.next_id, a.next_id+1, ...
    next_id = a.next_id + len(frame.created)
    ids.extend(range(a.next_id, next_id))
    back = ids.__getitem__
    return replace(
        outcome,
        result=_renamed(arena.extract(), back, next_id),
        merged_pairs=tuple((back(x), back(y)) for x, y in outcome.merged_pairs),
    )

"""State merging with determinization, the one operation learning relies on.

Merging two states replaces them with a fresh state that takes over both
label sets, both aggregates, and both transition sets.  When the two states
leave on the same symbol toward different targets, those targets are merged
too, and so on until the machine is deterministic again.  The work queue is
a list iterated while it grows, so it drains breadth-first, and each fold
queues its target pairs in ascending symbol order, fixing the order of the
merged pairs.  A merge fails iff any pair along the way puts an accepting
and a rejecting state together.  The input automaton is never modified.

Every merge runs through one fold path, in :class:`MergeArena`: a merge
folds labels and transitions, plus only the per-class statistic that the
arena's heuristic reads, and can be rolled back.  The heuristic may also
refuse a pair, which fails the merge as a label conflict does.  The full
aggregates are pooled afterwards, by :meth:`MergeArena.pool`, for a merge
that is kept, and only for the classes it leaves standing.  The learner builds
one arena per run: it scores many candidate merges this way without
copying the machine, commits each kept one in place and extracts once.
The module-level :func:`merge` is the pure public form of a kept merge:
one run, pool and extract, in an arena under EDSM, whose merges fold
labels alone.

A fold does only the work its result reads.  The arena keeps each class's
parent, out-map, label and statistic in lists indexed by class id, takes
every original state's statistic once, and lets a class whose second half
adds no symbol share the first half's out-map instead of copying it.  The
lists are sized once, when the arena is built, for every id a run can
mint, so a fold writes its fresh class in place and undoing a trial resets
only the parents the trial set.  A kept merge, likewise, costs what it
changes: each root made by a kept merge lists the ids below it, and
pooling re-points only the ids of the classes the merge leaves standing,
not every id in the arena.  It builds one aggregate per such class, none
for a class the same merge joins again: integer counts are summed over the
pre-merge classes it absorbed, and the float sums follow the fold tree, so
each equals :func:`merge_aggregates` applied pair by pair.
"""

from __future__ import annotations

from dataclasses import replace

from .automaton import Automaton, StateAggregate, StateId, Symbol, _record, _violations
from .heuristics import Edsm, HeuristicId


def merge_aggregates(x: StateAggregate, y: StateAggregate) -> StateAggregate:
    """Field-wise sum of two aggregates.

    The all-zero aggregate is the identity.  Mixing two non-empty attribute
    vectors of different lengths is an error.
    """
    attrs = _pooled_attributes(x.attribute_sums, y.attribute_sums)
    out = dict(x.out_counts)
    for sym, c in y.out_counts.items():
        out[sym] = out.get(sym, 0) + c
    return StateAggregate(
        x.total_count + y.total_count,
        x.end_pos_count + y.end_pos_count,
        x.end_neg_count + y.end_neg_count,
        out,
        x.target_count + y.target_count,
        x.target_sum + y.target_sum,
        x.target_sumsq + y.target_sumsq,
        attrs,
    )


def _pooled_attributes(ax: tuple[float, ...], ay: tuple[float, ...]) -> tuple[float, ...]:
    """Two attribute-sum vectors added up; the empty one is the identity."""
    if not ax:
        return ay
    if not ay:
        return ax
    if len(ax) != len(ay):
        raise ValueError(f"attribute arity mismatch: {len(ax)} vs {len(ay)}")
    return tuple(u + v for u, v in zip(ax, ay))


@_record
class MergeOutcome:
    """What one merge did.

    A merge fails on a label conflict (``label_conflict`` True) or when the
    heuristic's ``fold`` refused one of its pairs (``refused`` True); a
    failed outcome carries no other information.  On success ``result`` is
    the new automaton (None for trial runs, which skip extraction),
    ``merged_pairs`` lists every pair folded together in determinization
    order, and ``label_matches`` counts the pairs whose states agreed on a
    label (both accepting or both rejecting).

    ``evidence`` is the record the arena's heuristic made with its
    ``evidence`` factory and wrote through its ``fold``, one call per merged
    pair.  It is None on failure, and for a heuristic without a factory.
    """

    result: Automaton | None
    merged_pairs: tuple[tuple[StateId, StateId], ...] = ()
    label_matches: int = 0
    label_conflict: bool = False
    evidence: object = None
    refused: bool = False

    @property
    def failed(self) -> bool:
        return self.label_conflict or self.refused


# Every failed merge reports exactly one of these, so a failure builds no outcome.
_CONFLICT = MergeOutcome(result=None, label_conflict=True)
_REFUSED = MergeOutcome(result=None, refused=True)


class _TrialFrame:
    """Undo information for one merge, failed or not: the pairs it folded, in fold order."""

    __slots__ = ("pairs", "next_id_before")

    def __init__(self, next_id_before: int):
        self.pairs: list[tuple[StateId, StateId]] = []
        self.next_id_before = next_id_before

    @property
    def created(self) -> list[tuple[StateId, StateId, StateId]]:
        """Each fresh class ``z``, the i-th from ``next_id_before``, with the pair it joined."""
        return [(z, x, y) for z, (x, y) in enumerate(self.pairs, self.next_id_before)]


class MergeArena:
    """Mutable union-find view of an automaton supporting merge and rollback.

    Every class of merged original states is named by a public id: either the
    original state id, or the fresh id minted when the class was formed.
    ``parent``, ``out``, ``label`` and ``stats`` are lists indexed by that id:
    the class's parent (-1 for a root), its symbol → target map, its label
    (True accepting, False rejecting, None unlabeled) and its statistic.
    They are sized once, when the arena is built, at twice the base's
    ``next_id``, and never resized.  No run mints more ids than that: each
    fold joins two roots into one, and the arena starts with at most
    ``next_id`` roots.  The entries below ``next_id`` are the classes; those
    at or above it are scratch that nothing reads, left by trials that were
    rolled back, and every parent there is -1.  An out-map or
    statistic of None marks an id with no live class: a hole in the
    automaton's ids, or a class that a kept merge joined to another.  Memory
    follows ``next_id``, so :func:`merge` renumbers a model's sparse ids
    first.  A fresh class ``z`` writes its entries at index ``z`` and points
    the two classes it joins at itself; the frame records the pair once, its
    fresh id being the frame's ``next_id_before`` plus the pair's index.
    :meth:`rollback` makes each recorded class a root again and resets
    ``next_id``.  No out-map is written after it is made, so a fresh class
    whose second half adds no symbol holds its first half's map rather than
    a copy.  Transition targets may go stale as classes merge; ``find``
    resolves them.

    Every arena takes a heuristic, which decides what a merge pools besides
    labels and transitions: ``heuristic.statistic`` takes it from a state's
    aggregate, once per original state when the arena is built, and
    ``heuristic.fold`` pools one pair of them, or refuses the pair by
    returning None, which fails the merge.  A merge makes a record of its
    evidence only when the heuristic has an ``evidence`` factory, as
    :class:`Mse` does; each fold then writes its pair's evidence into it.
    With a heuristic whose ``fold`` is None, such as :class:`Edsm`, a merge
    pools labels alone and leaves ``stats`` empty.  The classes a kept merge
    leaves standing get their full aggregates, one each, in the ``agg``
    dict, only from :meth:`pool`, called once for a merge that is kept; it
    also drops the dead halves and leaves every parent a root.  For that,
    ``members`` maps each root that a kept merge made to the ids below it;
    trials and :meth:`rollback` never touch it.
    An automaton that breaks a structural rule (``automaton._violations``)
    raises :func:`merge`'s ValueError, and so does a negative state id.
    """

    def __init__(self, a: Automaton, heuristic: HeuristicId):
        # A target above the states would read a scratch entry, not fail.
        _refuse_malformed(a)
        if min(a.states, default=0) < 0:
            raise ValueError(f"negative state id {min(a.states)}")
        self.base = a
        self.next_id = a.next_id
        # Each fold joins two roots, and the arena starts with at most
        # next_id of them, so no run mints more than next_id fresh ids.
        n = 2 * a.next_id
        statistic = heuristic.statistic
        self.fold = heuristic.fold
        self.evidence = getattr(heuristic, "evidence", None)
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
                self.stats[q] = statistic(g)
        self.agg: dict[StateId, StateAggregate] = dict(a.states)
        self.members: dict[StateId, list[StateId]] = {}

    def find(self, s: StateId) -> StateId:
        parent = self.parent
        while parent[s] >= 0:
            s = parent[s]
        return s

    def run_merge(self, q1: StateId, q2: StateId) -> tuple[MergeOutcome, _TrialFrame]:
        """Merge the classes of q1 and q2, cascading until deterministic.

        Returns the outcome (without extraction) plus the undo frame.  A
        merge that fails keeps the classes it created, as one that succeeded
        does, and ``next_id`` counts them: :meth:`rollback` undoes either.
        Each fold writes its fresh class into the lists at its id, which the
        arena sized for it, so a merge allocates no list entry.

        A merge fails at its first failing pair in fold order: one whose
        labels conflict, or one whose statistics the heuristic's ``fold``
        refuses.  It returns the one shared outcome of that failure there,
        so a refusal can hide a label conflict further on, and the frame
        lists only the pairs folded before the failing one.
        """
        frame = _TrialFrame(self.next_id)
        pairs = frame.pairs
        parent, out, label, stats, fold = self.parent, self.out, self.label, self.stats, self.fold
        evidence = self.evidence() if self.evidence is not None else None
        label_matches = 0
        z = self.next_id
        queue = [(q1, q2)]
        for x, y in queue:
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
                    self.next_id = z
                    return _CONFLICT, frame
                label_matches += 1
            if fold is not None:
                st = fold(evidence, stats[x], stats[y])
                if st is None:
                    self.next_id = z
                    return _REFUSED, frame
                stats[z] = st
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
            out[z] = oz
            label[z] = lz
            parent[x] = z
            parent[y] = z
            pairs.append((x, y))
            z += 1
        self.next_id = z
        return MergeOutcome(None, tuple(pairs), label_matches, False, evidence), frame

    def rollback(self, frame: _TrialFrame) -> None:
        """Undo a trial merge: make each folded pair roots again, reset ``next_id``.

        It costs one write per class the trial joined, plus one.  The trial's
        fresh ids become scratch: their entries stay until a later fold
        overwrites them, and their parents are -1 again, since a fresh class
        the trial joined is in its pairs and the others were never pointed
        anywhere.  A merge given its aggregates by :meth:`pool` is kept,
        never rolled back.
        """
        parent = self.parent
        for x, y in frame.pairs:
            parent[x] = parent[y] = -1
        self.next_id = frame.next_id_before

    def pool(self, frame: _TrialFrame) -> None:
        """Keep a trial merge: pool its aggregates, drop its dead halves, flatten parents.

        Replays the frame's pairs in fold order, the i-th making the class
        ``next_id_before + i``; the parts' out-maps and statistics go, since
        no joined class is read again.  Only the classes the merge leaves
        standing get an aggregate, one each.  Its counts are sums of
        integers, so they are taken once, over the aggregates of the
        pre-merge classes it absorbed, in fold order.  Its float sums are
        carried along the fold tree instead, each fold adding its first
        part's to its second's, so every class pools exactly the sums that
        :func:`merge_aggregates` gives, and mixing non-empty attribute
        vectors of two lengths raises its ValueError.  Each fold also joins
        its parts' member lists (an original state has none), the longer
        taking the shorter, and adds the two parts themselves.  Then each
        class the merge leaves standing points its members straight at
        itself, so ``find`` stays one step long, and no other id is visited.
        """
        agg, out, stats, parent, members = self.agg, self.out, self.stats, self.parent, self.members
        first = frame.next_id_before
        # Each class made so far and not yet joined: the pre-merge aggregates
        # below it, in fold order, and its target sum, sum of squares and
        # attribute sums.
        made: dict[StateId, tuple[list[StateAggregate], float, float, tuple[float, ...]]] = {}
        for z, (x, y) in enumerate(frame.pairs, first):
            if x < first:
                g = agg.pop(x)
                leaves, tsum, tsumsq, attrs = [g], g.target_sum, g.target_sumsq, g.attribute_sums
            else:
                leaves, tsum, tsumsq, attrs = made.pop(x)
            if y < first:
                g = agg.pop(y)
                leaves.append(g)
                tsum += g.target_sum
                tsumsq += g.target_sumsq
                ay = g.attribute_sums
            else:
                more, ty, tsqy, ay = made.pop(y)
                leaves += more
                tsum += ty
                tsumsq += tsqy
            if ay:
                attrs = _pooled_attributes(attrs, ay)
            made[z] = leaves, tsum, tsumsq, attrs
            out[x] = out[y] = None
            if stats:
                stats[x] = stats[y] = None
            joined = members.pop(x, None)
            other = members.pop(y, None)
            if joined is None or (other is not None and len(joined) < len(other)):
                joined, other = other, joined
            if joined is None:
                joined = [x, y]
            else:
                if other is not None:
                    joined += other
                joined += (x, y)
            members[z] = joined
        # Every class left in ``made`` is one the merge leaves standing.
        for z, (leaves, tsum, tsumsq, attrs) in made.items():
            total = end_pos = end_neg = tcount = 0
            counts: dict[Symbol, int] = {}
            for g in leaves:
                total += g.total_count
                end_pos += g.end_pos_count
                end_neg += g.end_neg_count
                tcount += g.target_count
                for sym, c in g.out_counts.items():
                    counts[sym] = counts.get(sym, 0) + c
            agg[z] = StateAggregate(total, end_pos, end_neg, counts, tcount, tsum, tsumsq, attrs)
            for c in members[z]:
                parent[c] = z

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


def _refuse_malformed(a: Automaton) -> None:
    """Raise ``a``'s first structural violation, any dangling endpoint before a bad symbol."""
    found = _violations(a, per_state=False)
    if found:
        raise ValueError(min(found, key=lambda v: v[1].endswith("outside alphabet"))[1])


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
    a pair with conflicting labels.  Unknown or identical state ids, a state
    id not below ``a.next_id``, and a broken structural rule of
    :func:`~flexautomata.automaton.check_integrity` (``automaton._violations``)
    are caller errors and raise ValueError: the first rule broken, in its
    words and order, but a dangling endpoint before any symbol outside the
    alphabet.  Unhealthy aggregates alone are no caller error.

    The arena runs over a copy with the states renumbered 0..n-1 in ascending
    order, so the cost follows the state count, not the size of the ids.
    The arena's own check is the only structural pass a healthy ``a``
    gets.  Only when the renaming meets an id outside the states, or the
    arena refuses the copy, is ``a`` checked again, for a message in its
    own ids.
    """
    if q1 not in a.states or q2 not in a.states:
        raise ValueError(f"unknown state id in merge request ({q1}, {q2})")
    if q1 == q2:
        raise ValueError(f"cannot merge state {q1} with itself")
    ids = sorted(a.states)
    if ids[-1] >= a.next_id:
        raise ValueError(f"state {ids[-1]} not below next_id {a.next_id}")
    dense = {q: i for i, q in enumerate(ids)}
    try:
        arena = MergeArena(_renamed(a, dense.__getitem__, len(ids)), Edsm())
    except (KeyError, ValueError):  # a dangling id, or another broken rule
        _refuse_malformed(a)  # in the caller's ids
        raise
    outcome, frame = arena.run_merge(dense[q1], dense[q2])
    if outcome.label_conflict:
        return outcome
    arena.pool(frame)
    # Dense fresh ids n, n+1, ... name the ids a.next_id, a.next_id+1, ...
    next_id = a.next_id + len(frame.pairs)
    ids.extend(range(a.next_id, next_id))
    back = ids.__getitem__
    return replace(
        outcome,
        result=_renamed(arena.extract(), back, next_id),
        merged_pairs=tuple((back(x), back(y)) for x, y in outcome.merged_pairs),
    )

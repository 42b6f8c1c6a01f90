"""The red-blue merging loop that turns a prefix tree into a small machine.

The start state begins red (accepted into the model core) and its children
blue (candidates).  Every red × blue pair is scored by a trial merge,
rolled back, in one :class:`~flexautomata.merging.MergeArena` kept for the
whole run.  A blue state none of whose merges survive the heuristic, or
whose scores all fall below the evidence cutoff, is promoted to red;
otherwise the single highest-evidence merge is committed in the arena, its
fresh state becomes red, and the blue frontier is recomputed as the
non-red children of red states.  The run ends when the frontier is empty;
the machine is then extracted from the arena, once.

Each blue state keeps its best passing score over the reds it has been
tried against.  A promotion only recolors, so those scores stay valid, and
the next iteration tries only the new pairs: the new red against each
remaining blue, and each new blue against every red.  A kept merge can
change any score, so it drops them all but the known label conflicts.
Every decision then reads one entry per blue state.

A label conflict is kept because no later merge can undo it.  Merges only
coarsen the partition of the prefix tree's states.  If closing a partition
P under the merge of classes r and b put an accepting and a rejecting state
together, then closing any coarser P' under the merge of classes R ⊇ r and
B ⊇ b puts them together too.  So the learner keeps, for each class, the
classes it is known to conflict with, hands them on to the class that
absorbs it in a kept merge, and never tries such a pair: the trial would
fail.  Only a label conflict, ``MergeOutcome.label_conflict``, counts.
The other failures can change as classes grow, so they are never kept:
a pair that the heuristic's fold refused (``MergeOutcome.refused``, from
ALERGIA's frequency test) and MSE's missing targets.  A trial stops at
its first failing pair, so a refusal can hide a conflict further on, and
the memo does not hold it.  The pair is then tried again after the next
kept merge, and fails again, since the hidden conflict survives the merge:
the memo only saves trials, it never changes a decision.

Determinism: blue states are visited in ascending id order, score ties are
broken toward the smallest (red id, blue id) pair, and merged states take
fresh increasing ids, so identical inputs yield byte-identical models.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable
from dataclasses import dataclass, field

from .apta import build_apta
from .automaton import Automaton, StateId
from .heuristics import Edsm, HeuristicId, score_outcome
from .merging import MergeArena
from .sample_io import Sample


@dataclass(frozen=True)
class LearnerConfig:
    heuristic: HeuristicId = field(default_factory=Edsm)
    min_evidence: float = 0.0

    def __post_init__(self):
        if math.isnan(self.min_evidence):
            raise ValueError("min_evidence must not be nan")


@dataclass
class LearnLog:
    """Line-oriented record of what the learner did.

    ``events`` holds one tuple per loop iteration: ``("PROMOTE", id)`` or
    ``("MERGE", red, blue, score)``.  :meth:`text` is what ``learn --trace``
    writes to stderr once learning ends.  No state is ever dropped: merging
    states of an automaton whose states are all reachable leaves every
    class reachable.
    """

    events: list[tuple] = field(default_factory=list)
    initial_states: int = 0
    final_states: int = 0

    @property
    def iterations(self) -> int:
        return len(self.events)

    def lines(self) -> list[str]:
        return [_event_line(e) for e in self.events]

    def text(self) -> str:
        return "\n".join(self.lines()) + ("\n" if self.events else "")


def _event_line(e: tuple) -> str:
    if e[0] == "MERGE":
        return f"MERGE {e[1]} {e[2]} {e[3]!r}"
    return " ".join(str(x) for x in e)


def _children(arena: MergeArena, src: Iterable[StateId], red: Collection[StateId]) -> set[StateId]:
    """The classes that transitions from ``src`` lead to, less the ``red`` ones."""
    find, out = arena.find, arena.out
    return {c for q in src for t in out[q].values() if (c := find(t)) not in red}


def _carry_conflicts(conflicts: dict[StateId, set[StateId]], created, parent) -> None:
    """Hand the conflict partners of each class a kept merge retired on to its root.

    ``conflicts`` is symmetric: ``q in conflicts[p]`` iff ``p in conflicts[q]``,
    and it names only roots.  ``created`` lists each fresh class ``z`` with
    the two classes ``x``, ``y`` it joined.  ``parent`` is the arena's list
    as the merge's :meth:`~flexautomata.merging.MergeArena.pool` left it,
    flat, so a retired class's parent is its final root.  Each class that
    was a root before the merge and is retired by it hands its partner set
    to its root, every partner written as its own root.  A partner that
    survived swaps the retired class for that root in its own set; a
    partner that the same merge retired into another class gets the root
    when its own set is handed on.  So each entry held before the merge is
    rewritten once.  Two classes that a kept merge joins are never partners,
    since the merge would have failed, so no root becomes its own partner.
    """
    for _z, x, y in created:
        for c in (x, y):
            partners = conflicts.pop(c, None)
            if partners is None:
                continue
            root = parent[c]
            mine = conflicts.setdefault(root, set())
            for p in partners:
                q = parent[p]
                if q < 0:
                    theirs = conflicts[p]
                    theirs.discard(c)
                    theirs.add(root)
                    mine.add(p)
                else:
                    mine.add(q)


def learn(sample: Sample, cfg: LearnerConfig = LearnerConfig()) -> tuple[Automaton, LearnLog]:
    """Learn an automaton from a sample by greedy evidence-driven merging.

    Returns the final machine and the log of every promotion and merge.
    Raises on contradictory samples (via the prefix tree build).  The loop
    always ends: ``2 * states - red`` is never negative and falls by at least
    one per iteration (a promotion adds a red state, a merge removes at least
    one state), so there are at most ``2 * initial_states - 1`` iterations.

    Cost: each red × blue pair is tried at most once between kept merges,
    and never again once it is known to end in a label conflict, since a
    conflict outlives every later merge.  An iteration after a promotion
    tries only the pairs the promotion made, and its decision reads one best
    score per blue state.  A trial costs its folds and little else: the
    arena's lists are sized once for the run, so each fold writes its class
    in place and the rollback resets only the parents the trial set; the
    loop binds the trial, rollback and score calls once per run; and a
    failed trial's score is one record shared by every failure of its kind,
    so it builds none.  A kept merge's own bookkeeping follows the
    classes it retires: the arena re-points only the ids of the classes
    left standing, and each conflict entry held by a retired class is
    rewritten once.
    """
    a = build_apta(sample)
    log = LearnLog(initial_states=a.state_count)
    heuristic, min_evidence = cfg.heuristic, cfg.min_evidence
    arena = MergeArena(a, heuristic)
    red = (a.start,)
    blue = tuple(sorted(_children(arena, red, red)))
    # Each blue state's best passing (value, red) over the reds it has been
    # tried against, None if none passed.  A blue state in ``best`` lacks only
    # ``new_red``, the red promoted last; a kept merge clears ``best``.
    best: dict[StateId, tuple[float, StateId] | None] = {}
    # Each class's known label-conflict partners, kept across kept merges.
    conflicts: dict[StateId, set[StateId]] = {}
    new_red: tuple[StateId, ...] = ()
    events = log.events
    run_merge, rollback, score = arena.run_merge, arena.rollback, score_outcome

    while blue:
        # Every pair is scored before anything is decided: the first blue with
        # no taker is promoted, else the best (value, red, blue) is merged.
        promoted = None
        top: tuple[float, StateId, StateId] | None = None
        for b in blue:
            if b in best:
                taker, untried = best[b], new_red
            else:
                taker, untried = None, red
            known = conflicts.get(b)
            for r in untried:
                if known is not None and r in known:
                    continue
                outcome, frame = run_merge(r, b)
                rollback(frame)
                value = score(outcome, heuristic).value
                if value is None:
                    if outcome.label_conflict:
                        if known is None:
                            known = conflicts[b] = set()
                        known.add(r)
                        conflicts.setdefault(r, set()).add(b)
                    continue
                if value < min_evidence:
                    continue
                if taker is None or value > taker[0] or (value == taker[0] and r < taker[1]):
                    taker = (value, r)
            best[b] = taker
            if taker is None:
                if promoted is None:
                    promoted = b
            # Blue states come in ascending order, so a tie on (value, red)
            # keeps the smaller blue.
            elif top is None or taker[0] > top[0] or (taker[0] == top[0] and taker[1] < top[1]):
                top = (*taker, b)
        if promoted is not None:
            red = tuple(sorted((*red, promoted)))
            blue = tuple(sorted(set(blue).union(_children(arena, (promoted,), red)) - {promoted}))
            del best[promoted]
            new_red = (promoted,)
            events.append(("PROMOTE", promoted))
            continue
        assert top is not None  # no promotion means every blue has a taker
        value, r, b = top
        _outcome, frame = run_merge(r, b)
        arena.pool(frame)
        _carry_conflicts(conflicts, frame.created, arena.parent)
        red = tuple(sorted({arena.find(q) for q in red}))
        blue = tuple(sorted(_children(arena, red, set(red))))
        events.append(("MERGE", r, b, value))
        best.clear()

    a = arena.extract()
    log.final_states = a.state_count
    return a, log

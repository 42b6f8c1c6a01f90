"""The red-blue merging loop that turns a prefix tree into a small machine.

The start state begins red (accepted into the model core) and its children
blue (candidates).  Each round, every blue state is scored against every red
state by a trial merge, rolled back, in one
:class:`~flexautomata.merging.MergeArena` kept for the whole run.  A blue
state none of whose merges survive the heuristic, or whose scores all fall
below the evidence cutoff, is promoted to red; otherwise the single
highest-evidence merge is committed in the arena, its fresh state becomes
red, and the blue frontier is recomputed as the non-red children of red
states.  The run ends when the frontier is empty; the machine is then
extracted from the arena, once.

Determinism: blue states are visited in ascending id order, score ties are
broken toward the smallest (red id, blue id) pair, and merged states take
fresh increasing ids, so identical inputs yield byte-identical models.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Collection, Iterable
from dataclasses import dataclass, field

from .apta import build_apta
from .automaton import Automaton, StateId
from .heuristics import Edsm, EvidenceScore, HeuristicId, score_outcome
from .merging import MergeArena
from .sample_io import Sample


@dataclass(frozen=True)
class LearnerConfig:
    heuristic: HeuristicId = field(default_factory=Edsm)
    min_evidence: float = 0.0
    debug_trace: bool = False

    def __post_init__(self):
        if math.isnan(self.min_evidence):
            raise ValueError("min_evidence must not be nan")


@dataclass
class LearnLog:
    """Line-oriented record of what the learner did.

    ``events`` holds one tuple per loop iteration: ``("PROMOTE", id)`` or
    ``("MERGE", red, blue, score)``.  No state is ever dropped: merging
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


def trial_score(
    arena: MergeArena, r: StateId, b: StateId, heuristic: HeuristicId
) -> EvidenceScore:
    """Score merging ``r`` and ``b`` by a trial merge that ``arena`` undoes."""
    outcome, frame = arena.run_merge(r, b)
    if not outcome.label_conflict:
        arena.rollback(frame)
    return score_outcome(outcome, heuristic)


def learn(sample: Sample, cfg: LearnerConfig = LearnerConfig()) -> tuple[Automaton, LearnLog]:
    """Learn an automaton from a sample by greedy evidence-driven merging.

    Returns the final machine and the log of every promotion and merge.
    Raises on contradictory samples (via the prefix tree build).  The loop
    always ends: ``2 * states - red`` is never negative and falls by at least
    one per iteration (a promotion adds a red state, a merge removes at least
    one state), so there are at most ``2 * initial_states - 1`` iterations.
    """
    a = build_apta(sample)
    log = LearnLog(initial_states=a.state_count)
    arena = MergeArena(a, cfg.heuristic)
    red = (a.start,)
    blue = tuple(sorted(_children(arena, red, red)))
    # A score stays valid until a merge is kept; promotions only recolor, so
    # the cache survives them.
    scores: dict[tuple[StateId, StateId], EvidenceScore] = {}

    def emit(event: tuple) -> None:
        log.events.append(event)
        if cfg.debug_trace:
            print(_event_line(event), file=sys.stderr)

    while blue:
        for b in blue:
            for r in red:
                if (r, b) in scores:
                    continue
                scores[(r, b)] = trial_score(arena, r, b, cfg.heuristic)

        promoted = None
        for b in blue:
            if all(
                scores[(r, b)].failed or scores[(r, b)].value < cfg.min_evidence
                for r in red
            ):
                promoted = b
                break
        if promoted is not None:
            red = tuple(sorted((*red, promoted)))
            blue = tuple(sorted(set(blue).union(_children(arena, (promoted,), red)) - {promoted}))
            emit(("PROMOTE", promoted))
            continue

        best: tuple[float, StateId, StateId] | None = None
        for r in red:
            for b in blue:
                s = scores[(r, b)]
                if s.failed or s.value < cfg.min_evidence:
                    continue
                if best is None or s.value > best[0] or (s.value == best[0] and (r, b) < best[1:]):
                    best = (s.value, r, b)
        assert best is not None  # no promotion means every blue has a taker
        value, r, b = best
        _outcome, frame = arena.run_merge(r, b)
        arena.pool(frame)
        red = tuple(sorted({arena.find(q) for q in red}))
        blue = tuple(sorted(_children(arena, red, set(red))))
        emit(("MERGE", r, b, value))
        scores.clear()

    a = arena.extract()
    log.final_states = a.state_count
    return a, log

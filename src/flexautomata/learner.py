"""The red-blue merging loop that turns a prefix tree into a small machine.

The start state begins red (accepted into the model core) and its children
blue (candidates).  Each round, every blue state is scored against every red
state.  A blue state none of whose merges survive the heuristic, or whose
scores all fall below the evidence cutoff, is promoted to red; otherwise the
single highest-evidence merge is executed, its fresh state becomes red, and
the blue frontier is recomputed as the non-red children of red states.  The
run ends when the frontier is empty.

Determinism: blue states are visited in ascending id order, score ties are
broken toward the smallest (red id, blue id) pair, and merged states take
fresh increasing ids, so identical inputs yield byte-identical models.
"""

from __future__ import annotations

import math
import sys
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


@dataclass(frozen=True)
class LearnerState:
    """The coloring at one point of the loop, both sets in ascending order."""

    red: tuple[StateId, ...]
    blue: tuple[StateId, ...]


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


def promote(state: LearnerState, b: StateId, a: Automaton) -> LearnerState:
    """Move blue state ``b`` to red and add its non-red children to blue."""
    if b not in state.blue:
        raise ValueError(f"state {b} is not blue")
    red = tuple(sorted(set(state.red) | {b}))
    blue = set(state.blue)
    blue.discard(b)
    blue.update(c for c in a.children(b) if c not in red)
    return LearnerState(red=red, blue=tuple(sorted(blue)))


def _frontier(a: Automaton, red: set[StateId]) -> tuple[StateId, ...]:
    blue = set()
    for r in red:
        blue.update(c for c in a.children(r) if c not in red)
    return tuple(sorted(blue))


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
    state = LearnerState(red=(a.start,), blue=_frontier(a, {a.start}))
    # Scores stay valid until the automaton itself changes; promotions only
    # recolor, so the cache survives them.
    scores: dict[tuple[StateId, StateId], EvidenceScore] = {}

    def emit(event: tuple) -> None:
        log.events.append(event)
        if cfg.debug_trace:
            print(_event_line(event), file=sys.stderr)

    while state.blue:
        for b in state.blue:
            for r in state.red:
                if (r, b) in scores:
                    continue
                scores[(r, b)] = trial_score(arena, r, b, cfg.heuristic)

        promoted = None
        for b in state.blue:
            if all(
                scores[(r, b)].failed or scores[(r, b)].value < cfg.min_evidence
                for r in state.red
            ):
                promoted = b
                break
        if promoted is not None:
            state = promote(state, promoted, a)
            emit(("PROMOTE", promoted))
            continue

        best: tuple[float, StateId, StateId] | None = None
        for r in state.red:
            for b in state.blue:
                s = scores[(r, b)]
                if s.failed or s.value < cfg.min_evidence:
                    continue
                if best is None or s.value > best[0] or (s.value == best[0] and (r, b) < best[1:]):
                    best = (s.value, r, b)
        assert best is not None  # no promotion means every blue has a taker
        value, r, b = best
        _outcome, frame = arena.run_merge(r, b)
        arena.pool(frame)
        a = arena.extract()
        red = {arena.find(s) for s in state.red}
        emit(("MERGE", r, b, value))
        arena = MergeArena(a, cfg.heuristic)
        scores.clear()
        state = LearnerState(red=tuple(sorted(red)), blue=_frontier(a, red))

    log.final_states = a.state_count
    return a, log

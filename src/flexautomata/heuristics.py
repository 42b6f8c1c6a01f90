"""Evidence heuristics: how promising is a candidate merge?

Every heuristic turns the statistics of a trial merge into a single
comparable score, or a failure when the merge should not be taken at all.
Three stock heuristics are provided:

* :class:`Edsm` counts the merged pairs whose labels agree; more agreement
  means more evidence.
* :class:`Alergia` runs a Hoeffding compatibility test on the outgoing
  frequency of every symbol (plus the implicit "end here" event) of every
  merged pair, and fails the merge when any test rejects; the score is the
  number of compatible pairs.  A pair whose bound is 1 or more passes
  without a count being read, since no two frequencies differ by more.  The
  first rejecting pair is refused, so the trial pools no more frequencies.
  Its ``fold`` tests a pair and pools the pair's frequencies in one body,
  unpacking them once.
* :class:`Mse` scores the (negated) growth in squared target error caused by
  pooling, plus a configurable reward per merged pair; it fails distinctly
  when the trial touched no target data at all, since the score would be
  meaningless.

A heuristic owns its evidence through its members (see
:class:`~flexautomata.merging.MergeArena`): ``statistic`` reads what a
trial merge must pool from a state's aggregate, once per original state of
an arena; ``fold`` pools one merged pair's statistics, or refuses the pair
by returning None; and ``score`` reads the outcome.  A refusal ends the
trial at that pair, as a label conflict does, and the outcome says which
of the two came first, ``label_conflict`` or ``refused``.  A heuristic that
sums evidence over the pairs also has an ``evidence`` factory, which makes
an empty record for each trial; ``fold`` writes each pair's evidence into
it, and ``score`` reads it as ``outcome.evidence``.  The record is the
heuristic's own small mutable dataclass, such as :class:`MseEvidence`; the
merge engine only passes it along.  ALERGIA has no factory, since its
refusal is its whole verdict, and its fold is passed None.  A statistic
also carries what every fold of it would otherwise re-derive: ALERGIA's
holds the end count, MSE's the squared error, each computed by the same
expression on the same operands as a fold would use, so every test and
every float sum comes out the same.  EDSM reads labels alone, so its
``statistic``, ``evidence`` and ``fold`` are None.  This module reads
:class:`~flexautomata.merging.MergeOutcome` in annotations only, so it does
not import the merge engine at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from .automaton import StateAggregate, Symbol, _record

if TYPE_CHECKING:
    from .merging import MergeOutcome

FAIL_LABEL_CONFLICT = "label_conflict"
FAIL_DISTRIBUTION = "distribution_reject"
FAIL_NO_TARGETS = "no_targets"

Frequencies = tuple[int, Mapping[Symbol, int], int]  # visits, per-symbol counts, ends
TargetStats = tuple[int, float, float, float]  # target count, sum, sum of squares, squared error


@dataclass(frozen=True)
class Edsm:
    """Label-agreement evidence."""

    # Every fold counts label matches, so a trial pools nothing more.
    statistic = None
    evidence = None
    fold = None

    def score(self, outcome: MergeOutcome) -> EvidenceScore:
        if outcome.label_conflict:
            return _LABEL_CONFLICT
        return EvidenceScore(float(outcome.label_matches))


@dataclass(frozen=True)
class Alergia:
    """Frequency-compatibility evidence with rejection level ``alpha``."""

    alpha: float = 0.05

    def __post_init__(self):
        alpha = self.alpha
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        # The alpha-only factor of every Hoeffding bound, taken once.
        object.__setattr__(self, "_bound_scale", math.sqrt(0.5 * math.log(2.0 / alpha)))

    def statistic(self, agg: StateAggregate) -> Frequencies:
        """Visit count, per-symbol counts and trace ends: every count the test reads."""
        return (agg.total_count, agg.out_counts, agg.end_count)

    def fold(self, ev: None, fx: Frequencies, fy: Frequencies) -> Frequencies | None:
        """Test one pair's frequencies and pool them, or refuse the pair if the test rejects it.

        The Hoeffding test rejects iff the stop frequency or some symbol's
        frequency differs beyond the bound; it passes vacuously when either
        state was never visited.  It also passes, before any count is read,
        when the bound is at least 1.  Each compared count is at most its
        state's visit count, as in every aggregate ``build_apta`` makes,
        ``check_integrity`` accepts and pooling keeps, so each frequency is a
        float in [0, 1] and no difference of two exceeds 1.0.

        ALERGIA keeps no record, so ``ev`` is None.  A refused pair fails the
        trial, so no fold of it follows and no pair after it is tested.
        """
        n1, out1, end1 = fx
        n2, out2, end2 = fy
        if n1 and n2:
            bound = self._bound_scale * (1.0 / math.sqrt(n1) + 1.0 / math.sqrt(n2))
            if bound < 1.0:
                if abs(end1 / n1 - end2 / n2) > bound:
                    return None
                for sym, c1 in out1.items():
                    if abs(c1 / n1 - out2.get(sym, 0) / n2) > bound:
                        return None
                # A symbol only out2 has differs by c2 / n2, the float abs(0 / n1 - c2 / n2).
                for sym, c2 in out2.items():
                    if sym not in out1 and c2 / n2 > bound:
                        return None
        # Count maps are never written once made, so an empty side shares the other's map.
        out = out1 or out2
        if out1 and out2:
            out = dict(out1)
            for sym, c in out2.items():
                out[sym] = out.get(sym, 0) + c
        return (n1 + n2, out, end1 + end2)

    def score(self, outcome: MergeOutcome) -> EvidenceScore:
        if outcome.label_conflict:
            return _LABEL_CONFLICT
        if outcome.refused:
            return _DISTRIBUTION_REJECT
        return EvidenceScore(float(len(outcome.merged_pairs)))


@dataclass(slots=True)
class MseEvidence:
    """Pooled-minus-separate squared target error summed over the merged pairs."""

    sse_delta: float = 0.0
    targets_touched: bool = False  # whether any merged class holds a target


@dataclass(frozen=True)
class Mse:
    """Squared-error evidence with a ``penalty`` reward per merged pair."""

    penalty: float = 0.0

    evidence = MseEvidence

    def __post_init__(self):
        if self.penalty < 0.0 or not math.isfinite(self.penalty):
            raise ValueError(f"penalty must be finite and >= 0, got {self.penalty}")

    @staticmethod
    def statistic(agg: StateAggregate) -> TargetStats:
        """Target count, sum and sum of squares, plus the squared error they make.

        Carrying the squared error lets each fold compute only the pooled
        class's, not both halves' again.
        """
        return (agg.target_count, agg.target_sum, agg.target_sumsq, agg.sse())

    def fold(self, ev: MseEvidence, tx: TargetStats, ty: TargetStats) -> TargetStats:
        """Pool one pair's target statistics, carrying the pooled squared error.

        Each statistic is unpacked once, and the pooled squared error is
        :func:`~flexautomata.automaton.squared_error`'s own expression,
        written inline, so it is the same float.  Pooling a partition cannot
        reduce squared error, so the growth is clamped at 0 to absorb
        roundoff, by the test that ``max(d, 0.0)`` makes: a nan or a -0.0
        growth passes through as it is.
        """
        cx, sx, qx, ex = tx
        cy, sy, qy, ey = ty
        count = cx + cy
        total = sx + sy
        sumsq = qx + qy
        if count:
            sse = sumsq - total * total / count
            ev.targets_touched = True
        else:
            sse = 0.0
        d = sse - ex - ey
        ev.sse_delta += 0.0 if d < 0.0 else d
        return (count, total, sumsq, sse)

    def score(self, outcome: MergeOutcome) -> EvidenceScore:
        if outcome.label_conflict:
            return _LABEL_CONFLICT
        ev = outcome.evidence
        if not ev.targets_touched:
            return _NO_TARGETS
        return EvidenceScore(-ev.sse_delta + self.penalty * len(outcome.merged_pairs))


HeuristicId = Edsm | Alergia | Mse


@_record
class EvidenceScore:
    """A merge score: a real value, or a failure with a reason.

    The stock heuristics return one shared score per failure reason, so a
    failed trial builds none.
    """

    value: float | None
    reason: str = ""

    @property
    def failed(self) -> bool:
        return self.value is None

    @classmethod
    def fail(cls, reason: str) -> "EvidenceScore":
        return cls(None, reason)


# Every failed score is one of these, so a failed trial builds no score.
_LABEL_CONFLICT = EvidenceScore.fail(FAIL_LABEL_CONFLICT)
_DISTRIBUTION_REJECT = EvidenceScore.fail(FAIL_DISTRIBUTION)
_NO_TARGETS = EvidenceScore.fail(FAIL_NO_TARGETS)


def score_outcome(outcome: MergeOutcome, heuristic: HeuristicId) -> EvidenceScore:
    """Score an already-computed merge outcome under ``heuristic``."""
    return heuristic.score(outcome)


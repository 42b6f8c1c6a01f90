"""Merge scoring: label agreement, frequency compatibility, squared error."""

import dataclasses
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flexautomata import (
    FAIL_DISTRIBUTION,
    FAIL_LABEL_CONFLICT,
    FAIL_NO_TARGETS,
    Alergia,
    Edsm,
    EvidenceScore,
    Mse,
    build_apta,
    merge,
    merge_aggregates,
    parse_abbadingo,
    parse_augmented,
)
from flexautomata.automaton import squared_error
from flexautomata.heuristics import MseEvidence
from flexautomata.merging import MergeArena
from gen import random_automaton
from oracle_merge import fold_refuses


def trial_score(arena, q1, q2, h):
    """Score merging q1 and q2 under ``h`` as ``learn`` does, by a trial ``arena`` undoes."""
    outcome, frame = arena.run_merge(q1, q2)
    arena.rollback(frame)
    return h.score(outcome)


def trial(h, a, q1, q2):
    """Score merging q1 and q2 of ``a`` under heuristic ``h`` in a fresh arena."""
    return trial_score(MergeArena(a, h), q1, q2, h)


def bound(n1, n2, alpha):
    """The Hoeffding bound ``Alergia.fold`` tests a pair against."""
    return Alergia(alpha)._bound_scale * (1.0 / math.sqrt(n1) + 1.0 / math.sqrt(n2))


def rejects(f1, n1, f2, n2, alpha):
    """Whether ALERGIA's test rejects end frequencies f1/n1 and f2/n2 of two symbol-free states."""
    return fold_refuses(Alergia(alpha), (n1, {}, f1), (n2, {}, f2))


class TestConfigs:
    def test_alpha_must_be_a_probability(self):
        Alergia(alpha=0.5)
        for bad in (0.0, 1.0, -0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                Alergia(alpha=bad)

    def test_penalty_must_be_finite_nonnegative(self):
        Mse(penalty=0.0)
        Mse(penalty=2.5)
        for bad in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                Mse(penalty=bad)

    def test_score_carries_failure_reason(self):
        s = EvidenceScore.fail(FAIL_DISTRIBUTION)
        assert s.failed
        assert s.value is None
        assert s.reason == FAIL_DISTRIBUTION
        ok = EvidenceScore(3.0, None)
        assert not ok.failed


class TestHoeffding:
    """ALERGIA's own test, on states that only end: the frequency compared is the end count's."""

    def test_spot_check_10_vs_0(self):
        # frequencies 10/10 vs 0/10 at alpha 0.05: gap 1.0 exceeds the bound
        assert bound(10, 10, 0.05) == pytest.approx(0.8589388166934752, abs=1e-12)
        assert rejects(10, 10, 0, 10, 0.05)

    def test_bound_formula(self):
        for n1, n2, alpha in ((5, 7, 0.1), (100, 3, 0.01), (1, 1, 0.5)):
            expect = math.sqrt(0.5 * math.log(2.0 / alpha)) * (
                1.0 / math.sqrt(n1) + 1.0 / math.sqrt(n2)
            )
            assert bound(n1, n2, alpha) == pytest.approx(expect, rel=1e-15)

    def test_identical_frequencies_compatible(self):
        assert not rejects(3, 10, 3, 10, 0.05)
        assert not rejects(0, 10, 0, 10, 0.05)

    def test_zero_observations_always_compatible(self):
        assert not rejects(0, 0, 10, 10, 0.05)
        assert not rejects(10, 10, 0, 0, 0.05)
        assert not rejects(0, 0, 0, 0, 0.05)

    @given(
        st.lists(st.integers(0, 3), max_size=40),
        st.lists(st.integers(0, 3), max_size=40),
        st.floats(0.001, 0.999),
    )
    # A single visit against 20 makes a bound of about 0.95 at alpha 0.6,
    # below 1, and the end frequencies 1 and 0 differ by more.
    @example([3], [0] * 20, 0.6)
    @settings(max_examples=300, deadline=None)
    def test_compatibility_matches_direct_evaluation(self, visits1, visits2, alpha):
        # Each visit either ends (3) or leaves on symbol 0, 1 or 2, so a
        # state's end count and per-symbol counts sum to its visit count.
        def frequencies(visits):
            out = Counter(visits)
            return (len(visits), out, out.pop(3, 0))

        (n1, out1, end1), (n2, out2, end2) = f1, f2 = frequencies(visits1), frequencies(visits2)
        if n1 == 0 or n2 == 0:
            direct = False
        else:
            bound = math.sqrt(0.5 * math.log(2.0 / alpha)) * (
                1.0 / math.sqrt(n1) + 1.0 / math.sqrt(n2)
            )
            gaps = [abs(end1 / n1 - end2 / n2)] + [
                abs(out1.get(sym, 0) / n1 - out2.get(sym, 0) / n2) for sym in (0, 1, 2)
            ]
            direct = max(gaps) > bound
        assert fold_refuses(Alergia(alpha), f1, f2) == direct

    def test_larger_samples_tighten_the_bound(self):
        assert bound(100, 100, 0.05) < bound(10, 10, 0.05)

    def test_smaller_alpha_loosens_the_bound(self):
        assert bound(10, 10, 0.01) > bound(10, 10, 0.05)

    @pytest.mark.parametrize("alpha", [0.0, 3.0, -1.0, float("nan"), 2.0])
    def test_alpha_outside_the_unit_interval_rejected(self, alpha):
        # at 0 the bound divided by zero, at 3 and -1 it took a negative log,
        # and at nan and 2 it quietly gave a verdict
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            Alergia(alpha=alpha)


class TestEdsm:
    def test_counts_agreeing_pairs(self):
        # chain tree: root merge folds three pairs, one with matching labels
        a = build_apta(parse_abbadingo("1 2 0 0\n1 4 0 0 0 0\n"))
        s = trial(Edsm(), a, 0, 2)
        assert s.value == 1.0

    def test_conflict_reported(self):
        a = build_apta(parse_abbadingo("1 1 0\n0 2 0 0\n"))
        s = trial(Edsm(), a, 0, a.transitions[(0, 0)])
        assert s.failed
        assert s.reason == FAIL_LABEL_CONFLICT

    def test_no_labels_no_evidence(self):
        a = build_apta(parse_augmented("? 2 0 0\n"))
        s = trial(Edsm(), a, 0, 1)
        assert not s.failed
        assert s.value == 0.0

    def test_two_accepting_pairs(self):
        a = build_apta(parse_abbadingo("1 1 0\n1 2 0 0\n1 3 0 0 0\n"))
        # chain of accepting states under an unlabeled root: folding the
        # whole chain onto the root makes three pairs, two of them
        # accepting-accepting; the root pair has only one labeled side
        s = trial(Edsm(), a, 0, 1)
        assert s.value == 2.0


class TestAlergia:
    def test_compatible_when_frequencies_agree(self):
        # two sibling subtrees with identical outgoing statistics
        lines = "".join("1 2 0 0\n1 2 1 0\n" for _ in range(10))
        a = build_apta(parse_abbadingo(lines))
        s = trial(Alergia(alpha=0.05), a, a.transitions[(0, 0)], a.transitions[(0, 1)])
        assert not s.failed
        assert s.value == 2.0

    def test_incompatible_when_stop_behavior_differs(self):
        # root always continues, child always stops, 40 traces each way
        lines = "".join("1 2 0 1\n" for _ in range(40))
        a = build_apta(parse_abbadingo(lines))
        child = a.transitions[(0, 0)]
        s = trial(Alergia(alpha=0.05), a, 0, child)
        assert s.failed
        assert s.reason == FAIL_DISTRIBUTION

    def test_tiny_counts_are_vacuous(self):
        a = build_apta(parse_abbadingo("1 2 0 1\n"))
        child = a.transitions[(0, 0)]
        s = trial(Alergia(alpha=0.05), a, 0, child)
        assert not s.failed

    def test_label_conflict_beats_distribution(self):
        a = build_apta(parse_abbadingo("1 1 0\n0 2 0 0\n"))
        s = trial(Alergia(alpha=0.05), a, 0, a.transitions[(0, 0)])
        assert s.failed
        assert s.reason == FAIL_LABEL_CONFLICT

    def test_value_is_pair_count(self):
        a = build_apta(parse_abbadingo("1 2 0 0\n1 4 0 0 0 0\n"))
        s = trial(Alergia(alpha=0.05), a, 0, 2)
        assert not s.failed
        assert s.value == 3.0

    def test_alpha_controls_strictness(self):
        # a moderate mismatch passes a tiny alpha but not a big one
        lines = "".join("1 2 0 1\n" for _ in range(8)) + "".join(
            "1 1 0\n" for _ in range(4)
        )
        a = build_apta(parse_abbadingo(lines))
        child = a.transitions[(0, 0)]
        loose = trial(Alergia(alpha=1e-6), a, 0, child)
        strict = trial(Alergia(alpha=0.999), a, 0, child)
        assert not loose.failed
        assert strict.failed


def refused_before_a_conflict(positive: str, negative: str):
    """A sample whose prefix tree's merge of states 1 and 2 is refused one pair before a conflict.

    Merging the states after symbols 0 and 1 folds them (1, 2), whose
    frequencies agree; then their children (3, 4), 80 visits each, the first
    always leaving on symbol 0 and the second half the time on symbol 1,
    which the Hoeffding test rejects; then the grandchildren (5, 6), where
    the traces labeled ``positive`` and ``negative`` end.
    """
    text = (f"{positive} 3 0 0 0\n" * 80 + f"{negative} 3 1 0 0\n" * 40
            + f"{negative} 3 1 0 1\n" * 40)
    return parse_augmented(text)


class TestRefusal:
    """ALERGIA's fold refuses the first pair its test rejects, and the trial ends there."""

    # ("1", "0") has both labels, and its conflict at (5, 6) comes after the refusal.
    @pytest.mark.parametrize("positive, negative", [("?", "?"), ("1", "?"), ("0", "0"), ("1", "0")])
    def test_the_trial_stops_at_the_refused_pair(self, positive, negative):
        a = build_apta(refused_before_a_conflict(positive, negative))
        arena = MergeArena(a, Alergia(0.05))
        outcome, frame = arena.run_merge(1, 2)
        assert not outcome.label_conflict
        assert outcome.refused and outcome.failed
        assert frame.pairs == [(1, 2)]
        arena.rollback(frame)
        assert Alergia(0.05).score(outcome).reason == FAIL_DISTRIBUTION

    @given(
        st.integers(0, 10_000_000),
        st.sampled_from(["accepting", "rejecting", "both"]),
        st.sampled_from([0.05, 0.6]),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_refused_trial_lists_the_pairs_before_the_first_rejected_one(
            self, seed, dropped, alpha):
        rng = random.Random(seed)
        a = random_automaton(rng, max_states=12, n_syms=rng.choice((1, 2, 3)))
        for labels in ("accepting", "rejecting") if dropped == "both" else (dropped,):
            a = dataclasses.replace(a, **{labels: frozenset()})
        h = Alergia(alpha)
        arena = MergeArena(a, h)
        ids = sorted(a.states)
        pairs = [(r, b) for r in ids for b in ids if r != b]
        for r, b in rng.sample(pairs, min(len(pairs), 6)):
            full = merge(a, r, b).merged_pairs  # no conflict: a lacks a label
            aggs = dict(a.states)
            refused_at = None
            for i, (x, y) in enumerate(full):
                gx, gy = aggs[x], aggs[y]
                aggs[a.next_id + i] = merge_aggregates(gx, gy)
                if fold_refuses(h, (gx.total_count, gx.out_counts, gx.end_count),
                                (gy.total_count, gy.out_counts, gy.end_count)):
                    refused_at = i
                    break
            outcome, frame = arena.run_merge(r, b)
            arena.rollback(frame)
            assert not outcome.label_conflict
            assert outcome.refused is outcome.failed is (refused_at is not None)
            assert frame.pairs == list(full[:refused_at])
            if refused_at is None:
                assert outcome.merged_pairs == full


def squared_error_fold(ev, tx, ty):
    """``Mse.fold`` written with ``squared_error`` and ``max(d, 0.0)``, as the arena first used it."""
    count, total, sumsq = tx[0] + ty[0], tx[1] + ty[1], tx[2] + ty[2]
    sse = squared_error(count, total, sumsq)
    ev.sse_delta += max(sse - tx[3] - ty[3], 0.0)
    if count:
        ev.targets_touched = True
    return (count, total, sumsq, sse)


# Sums whose float results depend on rounding and sign: 1e16 + 0.1 rounds the
# 0.1 away, 0.0 - 0.0 and -0.0 - 0.0 differ in sign, and a non-finite value
# makes the growth nan or infinite.
MSE_VALUES = st.sampled_from(
    (0.0, -0.0, 1e16, -1e16, 0.1, -0.1, 1.0, 2.5, math.inf, -math.inf, math.nan)
) | st.floats(allow_nan=True, allow_infinity=True)
TARGET_STATS = st.tuples(st.integers(0, 4), MSE_VALUES, MSE_VALUES, MSE_VALUES)


class TestMse:
    @given(TARGET_STATS, TARGET_STATS, MSE_VALUES, st.booleans())
    @settings(max_examples=1000, deadline=None)
    @example((1, 0.0, -0.0, 0.0), (0, 0.0, -0.0, 0.0), -0.0, False)  # growth -0.0
    @example((1, 1e16, 1e32, 0.0), (1, 0.1, 0.01, 0.0), 0.0, False)
    @example((2, 1.0, math.nan, 0.0), (0, 0.0, 0.0, 0.0), -0.0, True)
    def test_fold_matches_the_squared_error_form(self, tx, ty, start, touched):
        got_ev, want_ev = MseEvidence(start, touched), MseEvidence(start, touched)
        got = Mse().fold(got_ev, tx, ty)
        want = squared_error_fold(want_ev, tx, ty)
        assert repr(got) == repr(want)
        assert repr(got_ev.sse_delta) == repr(want_ev.sse_delta)
        assert got_ev.targets_touched is want_ev.targets_touched

    def test_identical_targets_score_zero_delta(self):
        a = build_apta(parse_augmented("? 1 0/2.0\n? 2 0/2.0 0/2.0\n"))
        child = a.transitions[(0, 0)]
        grand = a.transitions[(child, 0)]
        s = trial(Mse(penalty=0.0), a, child, grand)
        assert not s.failed
        assert s.value == pytest.approx(0.0)

    def test_spread_targets_score_negative(self):
        a = build_apta(parse_augmented("? 1 0/0.0\n? 1 0/0.0\n? 2 0/4.0 0/4.0\n? 2 0/4.0 0/4.0\n"))
        child = a.transitions[(0, 0)]
        grand = a.transitions[(child, 0)]
        s = trial(Mse(penalty=0.0), a, child, grand)
        assert not s.failed
        assert s.value is not None and s.value < 0.0

    def test_penalty_rewards_pair_count(self):
        a = build_apta(parse_augmented("? 1 0/2.0\n? 2 0/2.0 0/2.0\n"))
        child = a.transitions[(0, 0)]
        grand = a.transitions[(child, 0)]
        plain = trial(Mse(penalty=0.0), a, child, grand)
        boosted = trial(Mse(penalty=1.0), a, child, grand)
        assert boosted.value == pytest.approx(plain.value + 1.0 * 1)

    def test_no_targets_rejected_distinctly(self):
        a = build_apta(parse_abbadingo("1 2 0 0\n1 4 0 0 0 0\n"))
        s = trial(Mse(penalty=0.0), a, 0, 2)
        assert s.failed
        assert s.reason == FAIL_NO_TARGETS

    def test_label_conflict_still_wins(self):
        a = build_apta(parse_abbadingo("1 1 0\n0 2 0 0\n"))
        s = trial(Mse(penalty=0.0), a, 0, a.transitions[(0, 0)])
        assert s.failed
        assert s.reason == FAIL_LABEL_CONFLICT

    def test_delta_matches_direct_sse_computation(self):
        # targets {0,0} on one state, {2,2} on the other: pooled squared
        # error of {0,0,2,2} around mean 1 is 4, both halves alone are 0
        a = build_apta(parse_augmented("? 2 0/0.0 0/2.0\n? 2 0/0.0 0/2.0\n"))
        child = a.transitions[(0, 0)]
        grand = a.transitions[(child, 0)]
        s = trial(Mse(penalty=0.0), a, child, grand)
        assert s.value == pytest.approx(-4.0)

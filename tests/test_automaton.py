"""Core automaton semantics: computations, language enumeration, integrity."""

import dataclasses
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexautomata import (
    Automaton,
    LearnerConfig,
    Mse,
    Outcome,
    Sample,
    StateAggregate,
    StateLabel,
    SymbolInstance,
    Trace,
    TraceLabel,
    build_apta,
    check_integrity,
    compute,
    learn,
    parse_abbadingo,
)
from gen import complete_sample, even_ones_dfa, labeled_sample
from oracle_automaton import language_upto
import random


def small_apta(text):
    return build_apta(parse_abbadingo(text))


class TestCompute:
    def test_accepts_positive_word(self):
        a = small_apta("1 2 0 1\n")
        res = compute(a, (0, 1))
        assert res.outcome is Outcome.ACCEPT
        assert res.accepted
        assert res.end_label is StateLabel.ACCEPTING

    def test_unlabeled_end_rejects_with_flag(self):
        a = small_apta("1 2 0 1\n")
        res = compute(a, (0,))
        assert res.outcome is Outcome.REJECT_BY_LABEL
        assert res.end_label is StateLabel.UNLABELED

    def test_rejecting_end_rejects_with_flag(self):
        a = small_apta("0 1 0\n")
        res = compute(a, (0,))
        assert res.outcome is Outcome.REJECT_BY_LABEL
        assert res.end_label is StateLabel.REJECTING

    def test_missing_transition_reports_position(self):
        a = small_apta("1 2\n1 2 0 0\n")
        res = compute(a, (0, 1))
        assert res.outcome is Outcome.REJECT_NO_TRANSITION
        assert res.missing_at == 1
        assert res.end_label is None

    def test_path_has_one_more_state_than_consumed_symbols(self):
        a = small_apta("1 2\n1 3 0 0 0\n")
        assert len(compute(a, (0, 0, 0)).path) == 4
        res = compute(a, (0, 1, 0))
        assert res.missing_at == 1
        assert len(res.path) == 2  # consumed just the first symbol

    def test_empty_word_ends_at_start(self):
        a = small_apta("1 0\n")
        res = compute(a, ())
        assert res.accepted
        assert res.path == (a.start,)

    def test_symbol_out_of_range_is_an_error(self):
        a = small_apta("1 1 0\n")
        with pytest.raises(ValueError):
            compute(a, (7,))

    def test_path_states_all_exist(self):
        rng = random.Random(11)
        sample = labeled_sample(rng, even_ones_dfa(), 30, 6)
        a, _ = learn(sample)
        for trace in sample.traces:
            res = compute(a, trace.word)
            assert all(q in a.states for q in res.path)


class TestLanguageUpto:
    def test_orders_by_length_then_lexicographic(self):
        a = small_apta("1 0\n1 1 1\n1 2 0 1\n1 2 1 0\n")
        words = language_upto(a, 2)
        assert words == [(), (1,), (0, 1), (1, 0)]

    def test_learned_even_ones_machine_matches_direct_enumeration(self):
        # Ground truth: binary words with an even number of 1s.  The sample
        # is complete to length 6, so any machine consistent with it must
        # agree with the target on every word up to that bound.
        target = even_ones_dfa()
        sample = complete_sample(target, 6)
        a, _ = learn(sample)
        got = set(language_upto(a, 6))
        expected = {
            w for n in range(7) for w in product((0, 1), repeat=n)
            if w.count(1) % 2 == 0
        }
        assert got == expected

    def test_negative_bound_rejected(self):
        a = small_apta("1 1 0\n")
        with pytest.raises(ValueError):
            language_upto(a, -1)

    @given(st.integers(0, 5), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_bound(self, bound, rng):
        sample = labeled_sample(rng, even_ones_dfa(), 40, 5)
        a = build_apta(sample)
        shorter = language_upto(a, bound)
        longer = language_upto(a, bound + 1)
        assert longer[: len(shorter)] == shorter
        assert set(shorter) <= set(longer)


class TestCheckIntegrity:
    def test_healthy_apta_has_no_violations(self, ref_apta):
        assert check_integrity(ref_apta) == []

    def test_state_in_both_label_sets_is_reported(self, ref_apta):
        q = next(iter(ref_apta.accepting))
        bad = dataclasses.replace(ref_apta, rejecting=ref_apta.rejecting | {q})
        assert any("both accepting and rejecting" in v for v in check_integrity(bad))

    def test_dangling_transition_is_reported(self, ref_apta):
        bad = dataclasses.replace(
            ref_apta, transitions={**ref_apta.transitions, (0, 1): 10_000}
        )
        assert any("not in state set" in v for v in check_integrity(bad))

    def test_missing_start_is_reported(self):
        a = Automaton(
            alphabet=("0",),
            states={0: StateAggregate()},
            accepting=frozenset(),
            rejecting=frozenset(),
            transitions={},
            start=5,
            next_id=1,
        )
        assert any("start state" in v for v in check_integrity(a))

    def test_overdrawn_out_counts_are_reported(self):
        a = Automaton(
            alphabet=("0",),
            states={
                0: StateAggregate(total_count=1, out_counts={0: 5}),
                1: StateAggregate(total_count=5),
            },
            accepting=frozenset(),
            rejecting=frozenset(),
            transitions={(0, 0): 1},
            start=0,
            next_id=2,
        )
        assert any("exceed total_count" in v for v in check_integrity(a))

    def test_counts_beyond_the_float_range_are_not_an_error(self):
        huge = StateAggregate(total_count=10**400, target_count=10**400,
                              target_sum=1.0, target_sumsq=1.0)
        a = Automaton(alphabet=(), states={0: huge}, accepting=frozenset(),
                      rejecting=frozenset(), transitions={}, start=0, next_id=1)
        assert check_integrity(a) == []

    @staticmethod
    @st.composite
    def target_samples(draw):
        """Unlabeled traces whose targets share one magnitude, often in equal runs."""
        scale = 10.0 ** draw(st.integers(-200, 140))
        pool = draw(st.lists(st.floats(-10.0, 10.0).map(lambda m: m * scale),
                             min_size=1, max_size=3))
        target = st.one_of(st.none(), st.sampled_from(pool))
        words = draw(st.lists(st.lists(st.tuples(st.integers(0, 2), target), max_size=6),
                              min_size=1, max_size=40))
        traces = tuple(
            Trace(TraceLabel.UNLABELED, tuple(SymbolInstance(s, (), t) for s, t in word))
            for word in words
        )
        return Sample(traces, ("0", "1", "2"))

    @given(target_samples())
    @settings(max_examples=150, deadline=None)
    def test_aptas_and_mse_models_pass(self, sample):
        assert check_integrity(build_apta(sample)) == []
        model, _ = learn(sample, LearnerConfig(heuristic=Mse()))
        assert check_integrity(model) == []

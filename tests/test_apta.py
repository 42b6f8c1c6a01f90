"""Prefix tree construction: shape, ids, labels, counts, targets."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexautomata import (
    InconsistentSampleError,
    Sample,
    SymbolInstance,
    Trace,
    TraceLabel,
    build_apta,
    check_integrity,
    compute,
    parse_abbadingo,
    parse_augmented,
    save_model,
)
from flexautomata.automaton import Outcome
from gen import TargetDfa, labeled_sample
from oracle_apta import reference_apta
from oracle_automaton import language_upto, structural_tree_check


def words_of(sample, label):
    return sorted(
        {t.word for t in sample.traces if t.label.name == label},
        key=lambda w: (len(w), w),
    )


def assert_out_counts_recount(sample):
    """Every state's out counts are the traces that continue its prefix, per symbol.

    Each count is recounted from the traces, and every out count has a
    transition: the counts name exactly the symbols the state leaves along.
    """
    a = build_apta(sample)
    continuing: dict[tuple, Counter] = {}
    for t in sample.traces:
        w = t.word
        for i, sym in enumerate(w):
            continuing.setdefault(w[:i], Counter())[sym] += 1
    prefix_of = {a.start: ()}
    for (src, sym), dst in sorted(a.transitions.items()):
        prefix_of[dst] = prefix_of[src] + (sym,)
    assert sorted(prefix_of) == sorted(a.states)
    for q, agg in a.states.items():
        assert dict(agg.out_counts) == dict(continuing.get(prefix_of[q], {}))
        assert sorted(agg.out_counts) == sorted(sym for (src, sym) in a.transitions if src == q)


class TestShape:
    def test_two_word_tree(self):
        a = build_apta(parse_abbadingo("1 2 0 0\n1 4 0 0 0 0\n"))
        # path 0 -0-> 1 -0-> 2 -0-> 3 -0-> 4, accepting at depths 2 and 4
        assert a.state_count == 5
        assert a.start == 0
        assert a.transitions == {(0, 0): 1, (1, 0): 2, (2, 0): 3, (3, 0): 4}
        assert a.accepting == frozenset({2, 4})
        assert a.rejecting == frozenset()

    def test_breadth_first_ids_follow_symbol_order(self):
        a = build_apta(parse_abbadingo("1 2 1 1\n1 2 0 0\n"))
        # level 1 gets ids in ascending symbol order regardless of insert order
        assert a.transitions[(0, 0)] == 1
        assert a.transitions[(0, 1)] == 2
        assert a.transitions[(1, 0)] == 3
        assert a.transitions[(2, 1)] == 4

    def test_empty_sample_is_lone_root(self):
        a = build_apta(parse_abbadingo(""))
        assert a.state_count == 1
        assert a.transitions == {}
        assert a.label(0).name == "UNLABELED"

    def test_empty_word_labels_the_root(self):
        a = build_apta(parse_abbadingo("1 0\n"))
        assert a.accepting == frozenset({0})

    def test_is_always_a_tree(self, ref_apta):
        assert structural_tree_check(ref_apta)
        assert check_integrity(ref_apta) == []

    def test_reference_sample_size(self, ref_apta):
        assert ref_apta.state_count == 71

    def test_state_count_equals_distinct_prefixes(self, ref_sample, ref_apta):
        prefixes = {()}
        for t in ref_sample.traces:
            for i in range(1, len(t.word) + 1):
                prefixes.add(t.word[:i])
        assert ref_apta.state_count == len(prefixes)


class TestLabels:
    def test_language_is_exactly_the_positive_words(self, ref_sample, ref_apta):
        longest = max(len(t.word) for t in ref_sample.traces)
        assert language_upto(ref_apta, longest) == words_of(ref_sample, "POSITIVE")

    def test_negative_words_rejected_with_label(self, ref_sample, ref_apta):
        for w in words_of(ref_sample, "NEGATIVE"):
            assert compute(ref_apta, w).outcome is Outcome.REJECT_BY_LABEL

    def test_contradictory_traces_rejected(self):
        with pytest.raises(InconsistentSampleError):
            build_apta(parse_abbadingo("1 2 0 1\n0 2 0 1\n"))

    def test_conflict_message_names_the_word(self):
        with pytest.raises(InconsistentSampleError) as err:
            build_apta(parse_abbadingo("1 2 0 1\n0 2 0 1\n"))
        assert "(0, 1)" in str(err.value)

    def test_duplicate_same_label_is_fine(self):
        a = build_apta(parse_abbadingo("1 1 0\n1 1 0\n"))
        assert a.accepting == frozenset({1})
        assert a.states[1].total_count == 2

    def test_unlabeled_traces_add_counts_but_no_labels(self):
        a = build_apta(parse_augmented("? 1 0\n"))
        assert a.accepting == frozenset()
        assert a.rejecting == frozenset()
        assert a.states[1].total_count == 1


class TestAggregates:
    def test_root_total_is_trace_count(self, ref_sample, ref_apta):
        assert ref_apta.states[0].total_count == len(ref_sample.traces)

    def test_out_counts_split_the_passing_traces(self, ref_sample, ref_apta):
        root = ref_apta.states[0]
        starts_0 = sum(1 for t in ref_sample.traces if t.word[:1] == (0,))
        starts_1 = sum(1 for t in ref_sample.traces if t.word[:1] == (1,))
        assert root.out_counts.get(0, 0) == starts_0
        assert root.out_counts.get(1, 0) == starts_1

    def test_out_counts_recount_the_traces(self, ref_sample):
        assert_out_counts_recount(ref_sample)

    def test_end_counts_by_polarity(self):
        # tree states see one word each, so polarities land on separate states
        a = build_apta(parse_abbadingo("1 1 0\n1 1 0\n0 1 1\n"))
        pos_state = a.transitions[(0, 0)]
        neg_state = a.transitions[(0, 1)]
        assert a.states[pos_state].end_pos_count == 2
        assert a.states[pos_state].end_neg_count == 0
        assert a.states[pos_state].end_count == 2
        assert a.states[neg_state].end_neg_count == 1
        assert a.states[neg_state].end_count == 1

    def test_end_count_is_total_minus_outgoing(self, ref_apta):
        for q, agg in ref_apta.states.items():
            assert agg.end_count == agg.total_count - sum(agg.out_counts.values())
            assert agg.end_count >= 0

    def test_targets_credited_to_destination_state(self):
        a = build_apta(parse_augmented("? 2 0/1.0 1/5.0\n? 1 0/3.0\n"))
        after_0 = a.transitions[(0, 0)]
        after_01 = a.transitions[(after_0, 1)]
        assert a.states[after_0].target_count == 2
        assert a.states[after_0].target_sum == pytest.approx(4.0)
        assert a.states[after_0].target_sumsq == pytest.approx(10.0)
        assert a.states[after_01].target_sum == pytest.approx(5.0)
        assert a.states[0].target_count == 0

    def test_attributes_summed_per_state(self):
        a = build_apta(parse_augmented("? 1 0:2.0,3.0\n? 1 0:4.0,5.0\n"))
        assert a.states[a.transitions[(0, 0)]].attribute_sums == (6.0, 8.0)
        assert a.attribute_arity == 2

    def test_totals_conserved_level_by_level(self, ref_sample, ref_apta):
        # every trace passing through a state continues or ends there
        by_depth = {0: [0]}
        depth_of = {0: 0}
        order = [0]
        for q in order:
            for _, child in ref_apta.out_edges(q):
                depth_of[child] = depth_of[q] + 1
                by_depth.setdefault(depth_of[child], []).append(child)
                order.append(child)
        for depth, states in by_depth.items():
            passing = sum(
                1 for t in ref_sample.traces if len(t.word) >= depth
            )
            assert sum(ref_apta.states[q].total_count for q in states) == passing


class TestAgainstRandomSamples:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_language_matches_positives(self, seed):
        rng = random.Random(seed)
        dfa = TargetDfa(rng, rng.randint(2, 5), rng.choice((2, 3)))
        sample = labeled_sample(rng, dfa, rng.randint(10, 80), 8)
        a = build_apta(sample)
        assert structural_tree_check(a)
        assert check_integrity(a) == []
        longest = max((len(t.word) for t in sample.traces), default=0)
        assert language_upto(a, longest) == sorted(
            set(sample.positive_words), key=lambda w: (len(w), w)
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_out_counts_recount_mixed_traces(self, seed):
        # labeled, unlabeled and annotated traces in one sample, duplicates included
        rng = random.Random(seed)
        dfa = TargetDfa(rng, rng.randint(2, 5), rng.choice((1, 2, 3)))
        traces = []
        for _ in range(rng.randint(0, 60)):
            word = tuple(rng.randrange(dfa.n_syms) for _ in range(rng.randint(0, 6)))
            if rng.random() < 0.3:
                label = TraceLabel.UNLABELED
            else:
                label = TraceLabel.POSITIVE if dfa.accepts(word) else TraceLabel.NEGATIVE
            annotated = rng.random() < 0.5
            traces.append(Trace(label, tuple(
                SymbolInstance(sym, (rng.uniform(-1, 1), 1.0), rng.uniform(-3, 3))
                if annotated else SymbolInstance(sym)
                for sym in word
            )))
        assert_out_counts_recount(Sample(tuple(traces), tuple(map(str, range(dfa.n_syms))), 2))


# Values whose float sums depend on the order they are added in: 1e16 + 0.1
# rounds the 0.1 away, -1e16 + 1e16 does not.
ORDER_SENSITIVE = (1e16, -1e16, 0.1, 1.0)


@st.composite
def samples(draw):
    """Samples with ``1``/``0``/``?`` labels, repeated and empty words, and order-sensitive sums.

    Words come from a small pool, so repeats are common, and a word may be
    drawn with both labels, making some samples contradictory.  Each symbol
    may carry a target and, at arity 2, two attributes.
    """
    size = draw(st.integers(1, 3))
    arity = draw(st.sampled_from((0, 2)))
    pool = draw(st.lists(st.lists(st.integers(0, size - 1), max_size=5).map(tuple),
                         min_size=1, max_size=6))
    value = st.sampled_from(ORDER_SENSITIVE)
    traces = []
    for _ in range(draw(st.integers(0, 25))):
        word = draw(st.sampled_from(pool))
        label = draw(st.sampled_from(
            (TraceLabel.POSITIVE, TraceLabel.NEGATIVE, TraceLabel.UNLABELED, TraceLabel.UNLABELED)))
        symbols = []
        for sym in word:
            target = draw(st.none() | value)
            attrs = tuple(draw(value) for _ in range(arity)) if draw(st.booleans()) else ()
            symbols.append(SymbolInstance(sym, attrs, target))
        traces.append(Trace(label, tuple(symbols)))
    return Sample(tuple(traces), tuple(f"s{i}" for i in range(size)), arity)


def built(build, sample):
    """What ``build`` makes of ``sample``: the automaton, or the error's type and message."""
    try:
        return build(sample)
    except (InconsistentSampleError, ValueError) as err:
        return type(err), str(err)


class TestAgainstReference:
    @given(samples())
    @settings(max_examples=300, deadline=None)
    def test_same_tree_and_bytes_as_the_naive_builder(self, sample):
        got, want = built(build_apta, sample), built(reference_apta, sample)
        assert got == want
        if not isinstance(want, tuple):
            assert save_model(got) == save_model(want)

    def test_both_labels_message(self):
        sample = parse_abbadingo("1 2 0 1\n1 1 1\n0 2 0 1\n")
        with pytest.raises(InconsistentSampleError) as err:
            build_apta(sample)
        assert str(err.value) == "word (0, 1) occurs with both labels"
        assert built(reference_apta, sample) == (InconsistentSampleError, str(err.value))

    def test_symbol_outside_the_alphabet_message(self):
        # the first such symbol is named, even below an existing prefix
        trace = Trace(TraceLabel.POSITIVE, (SymbolInstance(0), SymbolInstance(4), SymbolInstance(2)))
        sample = Sample((trace,), ("a", "b"))
        with pytest.raises(ValueError) as err:
            build_apta(sample)
        assert str(err.value) == "symbol 4 outside alphabet of size 2"
        assert built(reference_apta, sample) == (ValueError, str(err.value))


class TestAttributeCounts:
    """At an arity above 0, a symbol carries no attributes or exactly that many."""

    @staticmethod
    def sample(arity, *attribute_lists):
        """One positive trace of symbol 0, the i-th instance carrying ``attribute_lists[i]``."""
        symbols = tuple(SymbolInstance(0, tuple(attrs)) for attrs in attribute_lists)
        other = Trace(TraceLabel.POSITIVE, (SymbolInstance(0, (1.0, 1.0)),))
        return Sample((other, Trace(TraceLabel.POSITIVE, symbols)), ("a",), arity)

    def test_more_attributes_than_the_arity_are_refused(self):
        sample = self.sample(2, (1.0, 2.0), (), (1.0, 2.0, 3.0))
        with pytest.raises(ValueError) as err:
            build_apta(sample)
        assert str(err.value) == "trace 2: symbol at position 3 has 3 attributes, expected 2"
        assert built(reference_apta, sample) == (ValueError, str(err.value))

    def test_fewer_attributes_than_the_arity_are_refused(self):
        sample = self.sample(2, (1.0, 2.0), (5.0,))
        with pytest.raises(ValueError) as err:
            build_apta(sample)
        assert str(err.value) == "trace 2: symbol at position 2 has 1 attributes, expected 2"
        assert built(reference_apta, sample) == (ValueError, str(err.value))

    def test_a_symbol_without_attributes_adds_none(self):
        a = build_apta(self.sample(2, (1.0, 2.0), ()))
        assert a.states[1].attribute_sums == (2.0, 3.0)
        assert a.states[2].attribute_sums == (0.0, 0.0)
        assert a == reference_apta(self.sample(2, (1.0, 2.0), ()))

    def test_attributes_are_ignored_at_arity_0(self):
        sample = self.sample(0, (1.0, 2.0, 3.0), (4.0,))
        a = build_apta(sample)
        assert a.attribute_arity == 0
        assert {g.attribute_sums for g in a.states.values()} == {()}
        assert a == reference_apta(sample)

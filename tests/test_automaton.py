"""Core automaton semantics: computations, language enumeration, integrity."""

import dataclasses
import inspect
import math
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
from flexautomata import automaton, sample_io
from gen import complete_sample, even_ones_dfa, labeled_sample, random_automaton
from oracle_automaton import language_upto
import oracle_automaton
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


# Values that sit on or past the edges check_integrity tests: signs, the
# 2**53 count bound, float overflow, subnormals and non-finite values.
_INTS = [-1, 0, 1, 2, 3, 2**53 - 1, 2**53, 2**53 + 1, 10**400]
_FLOATS = [0.0, -0.0, 1.0, -2.5, 4.0, 9.0, 1e308, -1e308, 1e-310, 5e-324,
           math.inf, -math.inf, math.nan]
_COUNT_FIELDS = ["total_count", "end_pos_count", "end_neg_count", "target_count"]
_SUM_FIELDS = ["target_sum", "target_sumsq"]


@st.composite
def _mutated_automata(draw):
    """Automata built directly, with aggregates, transitions and ``next_id`` mutated.

    Many of them hold what no loaded model can: a state at or above
    ``next_id``, out-counts that are negative or have no transition, the
    wrong attribute arity, non-finite attributes, counts at and above 2**53.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    a = random_automaton(rng, 6, 2)
    arity = draw(st.integers(0, 2))
    states = {q: dataclasses.replace(agg, attribute_sums=tuple(
        rng.uniform(-3.0, 3.0) for _ in range(arity))) for q, agg in a.states.items()}
    transitions = dict(a.transitions)
    for _ in range(draw(st.integers(0, 4))):
        q = draw(st.sampled_from(sorted(states)))
        kind = draw(st.sampled_from(
            _COUNT_FIELDS + _SUM_FIELDS + ["attribute_sums", "out_counts", "transition"]))
        if kind == "transition":
            transitions.pop((q, draw(st.integers(0, 1))), None)
            continue
        if kind in _COUNT_FIELDS:
            value = draw(st.sampled_from(_INTS))
        elif kind in _SUM_FIELDS:
            value = draw(st.sampled_from(_FLOATS))
        elif kind == "attribute_sums":
            value = tuple(draw(st.lists(st.sampled_from(_FLOATS), max_size=3)))
        else:
            sym = draw(st.integers(0, 2))
            value = {**states[q].out_counts, sym: draw(st.sampled_from(_INTS))}
        states[q] = dataclasses.replace(states[q], **{kind: value})
    next_id = draw(st.sampled_from([a.next_id, a.next_id + 3, a.next_id - 1, 1]))
    return dataclasses.replace(a, states=states, transitions=transitions, next_id=next_id,
                               attribute_arity=arity)


def _with_state_zero(**fields):
    """A one-state-plus-sink automaton whose state 0 has ``fields`` changed."""
    healthy = StateAggregate(total_count=3, end_pos_count=1, out_counts={0: 2},
                             target_count=2, target_sum=1.0, target_sumsq=1.0,
                             attribute_sums=(0.5,))
    return Automaton(
        alphabet=("0", "1"),
        states={0: dataclasses.replace(healthy, **fields),
                1: StateAggregate(total_count=2, end_pos_count=2, attribute_sums=(1.0,))},
        accepting=frozenset([0, 1]), rejecting=frozenset(), transitions={(0, 0): 1},
        start=0, next_id=2, attribute_arity=1,
    )


class TestCheckIntegrityAgainstOracle:
    """``check_integrity`` against its reference copy in ``oracle_automaton``."""

    @given(_mutated_automata())
    @settings(max_examples=500, deadline=None)
    def test_same_violations_as_the_reference(self, a):
        assert check_integrity(a) == oracle_automaton.check_integrity(a)

    @pytest.mark.parametrize("a, message", [
        (dataclasses.replace(_with_state_zero(), next_id=1),
         "state 1 not below next_id 1"),
        (_with_state_zero(out_counts={0: 2, 1: 0}), None),
        (_with_state_zero(total_count=4, out_counts={0: 2, 1: 1}),
         "state 0 counts symbol 1 but has no such transition"),
        (_with_state_zero(out_counts={0: 2, 1: -1}),
         "state 0 negative out count on symbol 1"),
        (_with_state_zero(attribute_sums=(0.5, 0.5)), "state 0 attribute arity 2 != 1"),
        (_with_state_zero(attribute_sums=(math.inf,)),
         "state 0 has a non-finite aggregate value"),
        (_with_state_zero(attribute_sums=(math.nan,)),
         "state 0 has a non-finite aggregate value"),
        (_with_state_zero(total_count=2**53 + 2, target_count=2**53, target_sum=9.0), None),
        (_with_state_zero(total_count=2**53 + 2, target_count=2**53, target_sum=2.0**60),
         "state 0 has target sums with a negative squared error"),
        (_with_state_zero(total_count=2**53 + 2, target_count=2**53 + 1, target_sum=2.0**60),
         None),
        (_with_state_zero(target_count=0), "state 0 has target sums but no targets"),
    ])
    def test_cases_no_model_text_reaches(self, a, message):
        got = check_integrity(a)
        assert got == oracle_automaton.check_integrity(a)
        assert got == ([] if message is None else [message])


# The records a load or a parse makes, with the private maker each uses.
_MAKERS = [
    (StateAggregate, automaton._make_aggregate),
    (SymbolInstance, sample_io._make_symbol),
    (Trace, sample_io._make_trace),
]
_reals = st.floats(allow_nan=True, allow_infinity=True)
_symbols = st.builds(SymbolInstance, st.integers(0, 9),
                     st.lists(_reals, max_size=2).map(tuple), st.none() | _reals)
_FIELD_VALUES = {
    StateAggregate: st.tuples(
        st.integers(), st.integers(), st.integers(),
        st.dictionaries(st.integers(0, 3), st.integers()), st.integers(),
        _reals, _reals, st.lists(_reals, max_size=3).map(tuple)),
    SymbolInstance: st.tuples(st.integers(), st.lists(_reals, max_size=3).map(tuple),
                              st.none() | _reals),
    Trace: st.tuples(st.sampled_from(TraceLabel), st.lists(_symbols, max_size=4).map(tuple)),
}


class TestRecordMaker:
    """The private makers give the records the dataclass constructors give."""

    @pytest.mark.parametrize("cls, make", _MAKERS, ids=lambda v: getattr(v, "__name__", ""))
    def test_maker_sets_exactly_what_the_constructor_takes(self, cls, make):
        names = [f.name for f in dataclasses.fields(cls)]
        assert not hasattr(cls, "__post_init__")
        assert all(f.init for f in dataclasses.fields(cls))
        assert list(inspect.signature(cls).parameters) == names
        assert list(inspect.signature(make).parameters) == names

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_made_records_equal_constructed_ones(self, data):
        cls, make = data.draw(st.sampled_from(_MAKERS))
        values = data.draw(_FIELD_VALUES[cls])
        made, built = make(*values), cls(*values)
        assert type(made) is cls
        assert made == built and repr(made) == repr(built)
        assert list(vars(made).items()) == list(vars(built).items())
        try:
            want = hash(built)
        except TypeError:
            with pytest.raises(TypeError):
                hash(made)
        else:
            assert hash(made) == want
        with pytest.raises(dataclasses.FrozenInstanceError):
            made.__setattr__(dataclasses.fields(cls)[0].name, None)
        other = data.draw(_FIELD_VALUES[cls])
        name = data.draw(st.sampled_from([f.name for f in dataclasses.fields(cls)]))
        i = [f.name for f in dataclasses.fields(cls)].index(name)
        assert dataclasses.replace(made) == built
        assert (dataclasses.replace(made, **{name: other[i]})
                == dataclasses.replace(built, **{name: other[i]}))

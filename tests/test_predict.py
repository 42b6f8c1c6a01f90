"""Target prediction, word sampling, series discretization, evaluation."""

import dataclasses
import math
import random
import statistics
import warnings
from collections import Counter
from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexautomata import (
    BinMethod,
    ComputationResult,
    DiscretizationSpec,
    EvalReport,
    Fallback,
    GenerationError,
    PredictionConfig,
    PredictionError,
    Sample,
    SymbolInstance,
    TargetKind,
    Trace,
    TraceLabel,
    bin_cuts,
    build_apta,
    check_integrity,
    compute,
    discretize,
    evaluate,
    global_target_mean,
    learn,
    parse_abbadingo,
    parse_augmented,
    predict_value,
    sample_words,
    shortest_accepted_length,
    write_sample,
)
from flexautomata.automaton import Outcome, walk
from gen import complete_sample, even_ones_dfa, random_automaton
import oracle_automaton
import oracle_predict


class TestPredictValue:
    @pytest.fixture()
    def model(self):
        # after "0": targets {2, 4}; after "00": {6}
        return build_apta(parse_augmented("? 1 0/2.0\n? 2 0/4.0 0/6.0\n"))

    def test_in_domain_word_returns_state_mean(self, model):
        assert predict_value(model, (0,)) == pytest.approx(3.0)
        assert predict_value(model, (0, 0)) == pytest.approx(6.0)

    def test_global_mean(self, model):
        assert global_target_mean(model) == pytest.approx(4.0)

    def test_missing_transition_falls_back_to_global_mean(self, model):
        cfg = PredictionConfig(Fallback.GLOBAL_MEAN)
        assert predict_value(model, (0, 0, 0), cfg) == pytest.approx(4.0)

    def test_out_of_alphabet_symbol_is_a_missing_transition(self, model):
        cfg = PredictionConfig(Fallback.GLOBAL_MEAN)
        assert predict_value(model, (7,), cfg) == pytest.approx(4.0)

    def test_last_state_fallback_walks_back(self, model):
        cfg = PredictionConfig(Fallback.LAST_STATE)
        # walk on (0,0,0) dies at the deepest state, which holds {6}
        assert predict_value(model, (0, 0, 0), cfg) == pytest.approx(6.0)

    def test_last_state_falls_back_to_global_mean_on_bare_path(self):
        a = build_apta(parse_augmented("? 2 0 1/8.0\n"))
        cfg = PredictionConfig(Fallback.LAST_STATE)
        # path along (0,0...) never sees targets: global mean saves it
        assert predict_value(a, (0, 0, 0), cfg) == pytest.approx(8.0)

    def test_error_fallback_raises(self, model):
        cfg = PredictionConfig(Fallback.ERROR)
        with pytest.raises(PredictionError):
            predict_value(model, (0, 0, 0), cfg)

    def test_targetless_model_always_raises(self):
        bare = build_apta(parse_abbadingo("1 1 0\n"))
        for fb in Fallback:
            with pytest.raises(PredictionError):
                predict_value(bare, (0,), PredictionConfig(fb))
        with pytest.raises(PredictionError):
            global_target_mean(bare)

    def test_empty_word_uses_root_state(self):
        a = build_apta(parse_augmented("? 1 0/2.0\n"))
        # root has no targets: fallback; with targets at root, exact
        assert predict_value(a, ()) == pytest.approx(2.0)


def _reference_walk(a, word):
    path = [a.start]
    for sym in word:
        nxt = a.transitions.get((path[-1], sym))
        if nxt is None:
            return path, False
        path.append(nxt)
    return path, True


def _reference_predict(a, word, fallback):
    """predict_value as it was before the totals were cached: a pass per call.

    The target sums are pooled left to right, as ``target_totals`` pools them.
    """
    total, target_sum = 0, 0
    for s in a.states.values():
        total += s.target_count
        target_sum += s.target_sum
    if total == 0:
        raise PredictionError("model carries no target data")
    mean = target_sum / total
    path, complete = _reference_walk(a, word)
    end = a.states[path[-1]]
    if complete and end.target_count > 0:
        return end.target_sum / end.target_count
    if fallback is Fallback.ERROR:
        raise PredictionError(f"word {word} leaves the model's domain")
    if fallback is Fallback.LAST_STATE:
        for q in reversed(path):
            if a.states[q].target_count > 0:
                return a.states[q].target_sum / a.states[q].target_count
    return mean


def _reference_evaluate(a, sample):
    """evaluate as a walk and a prediction per trace, each through the references above."""
    accepted, sq_err, n_t = 0, 0.0, 0
    pos_total = pos_accepted = neg_total = neg_rejected = 0
    for trace in sample.traces:
        path, complete = _reference_walk(a, trace.word)
        ok = complete and path[-1] in a.accepting
        accepted += ok
        if trace.label is TraceLabel.POSITIVE:
            pos_total += 1
            pos_accepted += ok
        elif trace.label is TraceLabel.NEGATIVE:
            neg_total += 1
            neg_rejected += not ok
        target = trace.symbols[-1].target if trace.symbols else None
        if target is not None:
            err = _reference_predict(a, trace.word, Fallback.GLOBAL_MEAN) - target
            sq_err += err * err
            n_t += 1
    labeled = pos_total + neg_total
    return EvalReport(
        traces=len(sample.traces),
        accepted=accepted,
        rejected=len(sample.traces) - accepted,
        pos_total=pos_total,
        pos_accepted=pos_accepted,
        neg_total=neg_total,
        neg_rejected=neg_rejected,
        accuracy=(pos_accepted + neg_rejected) / labeled if labeled else None,
        mse=sq_err / n_t if n_t else None,
        mse_count=n_t,
    )


def _outcome(fn, *args):
    """The call's result, or the message of the PredictionError it raised."""
    try:
        return fn(*args)
    except PredictionError as exc:
        return str(exc)


def _result_or_error(fn, *args):
    """The call's result, or the type and message of any exception it raised.

    For comparing a walk with its reference on broken automata, where both
    may fail in the same way: a state outside ``states`` is a KeyError.
    """
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


class _Counting(Mapping):
    """A mapping that counts full passes over it and reads of each key, hit or miss."""

    def __init__(self, items):
        self._items = dict(items)
        self.passes = 0
        self.reads = Counter()

    def __getitem__(self, key):
        self.reads[key] += 1
        return self._items[key]

    def __iter__(self):
        self.passes += 1
        return iter(self._items)

    def __len__(self):
        return len(self._items)


class TestTargetTotals:
    @given(
        st.integers(0, 10_000_000),
        st.lists(
            st.tuples(
                st.sampled_from(TraceLabel),
                st.lists(st.integers(0, 2), max_size=6),
                st.floats(-3.0, 3.0) | st.none(),
                st.floats(-3.0, 3.0) | st.none(),
            ),
            min_size=1, max_size=12,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_cached_totals_match_a_pass_per_call(self, seed, drawn):
        # symbol 2 is outside the 2-symbol alphabet: a missing transition
        a = random_automaton(random.Random(seed), max_states=12)
        for _, word, _, _ in drawn:
            for fb in Fallback:
                want = _outcome(_reference_predict, a, tuple(word), fb)
                assert _outcome(predict_value, a, tuple(word), PredictionConfig(fb)) == want
        # Each trace's last symbol carries ``target``; the first symbol of a
        # longer one carries ``inner``, which is not scored.
        traces = tuple(
            Trace(label, tuple(SymbolInstance(s, (), inner if i == 0 else None)
                               for i, s in enumerate(w[:-1]))
                  + tuple(SymbolInstance(s, (), target) for s in w[-1:]))
            for label, w, target, inner in drawn
        )
        sample = Sample(traces, a.alphabet)
        want = _outcome(_reference_evaluate, a, sample)
        report = _outcome(evaluate, a, sample)
        assert report == want
        assert repr(report) == repr(want)  # every float to the bit

    def test_replaced_states_get_fresh_totals(self):
        a = build_apta(parse_augmented("? 1 0/2.0\n? 2 0/4.0 0/6.0\n"))
        assert global_target_mean(a) == 4.0
        doubled = {
            q: dataclasses.replace(agg, target_sum=2 * agg.target_sum)
            for q, agg in a.states.items()
        }
        b = dataclasses.replace(a, states=doubled)
        assert global_target_mean(b) == 8.0
        assert predict_value(b, (0, 0, 0)) == 8.0
        assert global_target_mean(a) == 4.0

    def test_state_passes_do_not_grow_with_queries(self):
        base = build_apta(parse_augmented("? 1 0/2.0\n? 2 0/4.0 0/6.0\n"))
        states = _Counting(base.states)
        a = dataclasses.replace(base, states=states)
        sample = parse_augmented("? 1 1/1.0\n? 2 0 0/1.0\n")
        predict_value(a, (1,))
        evaluate(a, sample)
        first = states.passes
        for fb in Fallback:
            for word in [(0,), (0, 0), (1,), (0, 0, 0)] * 25:
                _outcome(predict_value, a, word, PredictionConfig(fb))
        for _ in range(25):
            evaluate(a, sample)
        assert states.passes == first


@st.composite
def _walkable_automata(draw):
    """Automata from ``random_automaton``, some of them broken in ways a walk still takes.

    A break moves the start, or a transition's target, to a state outside
    ``states``; gives that state transitions of its own; or adds a
    transition on a symbol outside the alphabet.  Each fails
    ``check_integrity``, and each step must still be
    ``transitions.get((state, symbol))``.  The transitions come in a
    shuffled order, so no row of the successor table is built in symbol
    order.  Some carry no target data, which every prediction must report
    before it reads a state.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    a = random_automaton(rng, 8, draw(st.integers(1, 3)))
    if draw(st.booleans()):
        a = dataclasses.replace(a, states={
            q: dataclasses.replace(agg, target_count=0, target_sum=0.0, target_sumsq=0.0)
            for q, agg in a.states.items()})
    size, ghost = len(a.alphabet), a.next_id + 2
    start, transitions = a.start, dict(a.transitions)
    anywhere = st.sampled_from([*a.states, ghost])
    broken = False
    for kind in draw(st.lists(st.sampled_from(["start", "target", "ghost", "symbol"]),
                              max_size=3)):
        if kind == "start":
            start = ghost
        elif kind == "target":
            if not transitions:
                continue
            transitions[draw(st.sampled_from(sorted(transitions)))] = ghost
        elif kind == "ghost":
            transitions[(ghost, draw(st.integers(0, size - 1)))] = draw(anywhere)
        else:
            transitions[(draw(anywhere), draw(st.sampled_from([-1, size, size + 3])))] = (
                draw(anywhere))
        broken = True
    items = list(transitions.items())
    rng.shuffle(items)
    b = dataclasses.replace(a, start=start, transitions=dict(items))
    assert bool(check_integrity(b)) == broken
    return b


class TestSuccessorTable:
    """Every walk through the successor table against a scan of ``transitions``."""

    @given(
        _walkable_automata(),
        st.lists(
            st.tuples(
                st.sampled_from(TraceLabel),
                st.lists(st.integers(-1, 6), max_size=6),
                st.floats(-3.0, 3.0) | st.none(),
            ),
            min_size=1, max_size=8,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_table_paths_match_the_references(self, a, drawn):
        size = len(a.alphabet)
        for _, word, _ in drawn:
            word = tuple(word)
            path, complete = _reference_walk(a, word)
            assert walk(a, word) == (path, complete)
            got = _result_or_error(compute, a, word)
            if all(0 <= sym < size for sym in word[:len(path) - 1]):
                assert got == _result_or_error(oracle_automaton.compute, a, word)
            elif isinstance(got, ComputationResult):
                # The oracle refuses a symbol outside the alphabet before it
                # looks for a transition; the walk follows one where it exists.
                assert got.path == tuple(path)
                assert got.accepted == (complete and path[-1] in a.accepting)
            else:
                assert not complete and not 0 <= word[len(path) - 1] < size
            for fb in Fallback:
                want = _result_or_error(_reference_predict, a, word, fb)
                assert _result_or_error(predict_value, a, word, PredictionConfig(fb)) == want
        ends = {src for src, _ in a.transitions} | set(a.transitions.values())
        for q in sorted(ends | set(a.states) | {a.start}):
            want = sorted((sym, dst) for (src, sym), dst in a.transitions.items()
                          if src == q and 0 <= sym < size)
            assert list(a.out_edges(q)) == want
        traces = tuple(
            Trace(label, tuple(SymbolInstance(s, (), None) for s in w[:-1])
                  + tuple(SymbolInstance(s, (), target) for s in w[-1:]))
            for label, w, target in drawn
        )
        sample = Sample(traces, a.alphabet)
        want = _result_or_error(_reference_evaluate, a, sample)
        assert _result_or_error(evaluate, a, sample) == want

    def test_replaced_transitions_get_a_fresh_table(self):
        # states: 0 root, 1 after "0" (targets 2, 4), 2 after "0 1" (target 6)
        a = build_apta(parse_augmented("? 1 0/2.0\n? 2 0/4.0 1/6.0\n"))
        sample = parse_augmented("? 1 1/6.0\n")
        assert predict_value(a, (0, 1)) == 6.0
        assert evaluate(a, sample).mse == 4.0  # (1,) leaves the model: global mean 4
        b = dataclasses.replace(a, transitions={(0, 1): 2, (2, 0): 1})
        assert walk(b, (1, 0)) == ([0, 2, 1], True)
        assert compute(b, (0,)).outcome is Outcome.REJECT_NO_TRANSITION
        assert predict_value(b, (1,)) == 6.0
        assert list(b.out_edges(0)) == [(1, 2)]
        assert evaluate(b, sample).mse == 0.0
        assert walk(a, (1,)) == ([0], False)
        assert list(a.out_edges(0)) == [(0, 1)]


class TestWideAlphabet:
    """Generation over a 65 536-symbol alphabet costs out-degree, not alphabet size."""

    WIDE = (5, 30_000, 65_535)  # where the narrow model's symbols 0, 1, 2 go

    def test_each_transition_is_read_once(self):
        narrow = random_automaton(random.Random(6), 20, len(self.WIDE))  # 20 states
        wide = dataclasses.replace(
            narrow,
            alphabet=tuple(str(i) for i in range(65_536)),
            states={q: dataclasses.replace(
                agg, out_counts={self.WIDE[s]: c for s, c in agg.out_counts.items()})
                for q, agg in narrow.states.items()},
            transitions={(q, self.WIDE[s]): dst for (q, s), dst in narrow.transitions.items()},
        )
        assert check_integrity(wide) == []
        counted = _Counting(wide.transitions)
        wide = dataclasses.replace(wide, transitions=counted)
        assert shortest_accepted_length(wide) == shortest_accepted_length(narrow) == 2
        assert set(counted.reads) == set(counted._items)  # no key outside it is tried
        assert set(counted.reads.values()) == {1}
        assert counted.passes == 1
        words = sample_words(wide, 50, seed=1, max_len=12)
        # An order-keeping relabelling of the symbols draws the same words.
        assert words == [tuple(self.WIDE[s] for s in w) for w in sample_words(narrow, 50, 1, 12)]
        assert sum(map(len, words)) > 50
        assert counted.passes == 1
        assert set(counted.reads.values()) == {1}


class TestSampleWords:
    @pytest.fixture()
    def model(self):
        model, _ = learn(complete_sample(even_ones_dfa(), 7))
        return model

    def test_words_are_accepted_and_bounded(self, model):
        words = sample_words(model, 50, seed=3, max_len=10)
        assert len(words) == 50
        for w in words:
            assert len(w) <= 10
            assert compute(model, w).outcome is Outcome.ACCEPT

    def test_same_seed_same_words(self, model):
        a = sample_words(model, 30, seed=11, max_len=12)
        b = sample_words(model, 30, seed=11, max_len=12)
        assert a == b

    def test_different_seeds_differ(self, model):
        a = sample_words(model, 30, seed=1, max_len=12)
        b = sample_words(model, 30, seed=2, max_len=12)
        assert a != b

    def test_unreachable_acceptance_raises(self):
        model, _ = learn(parse_abbadingo("0 1 0\n"))
        with pytest.raises(GenerationError):
            sample_words(model, 5, seed=0, max_len=8)

    def test_max_len_below_shortest_accepted_raises(self, model):
        # even-ones machine accepts nothing shorter than... length 0 is fine
        assert shortest_accepted_length(model) == 0
        rejecting_start, _ = learn(parse_abbadingo("1 2 0 0\n0 1 0\n0 0\n"))
        min_len = shortest_accepted_length(rejecting_start)
        assert min_len == 2
        with pytest.raises(GenerationError):
            sample_words(rejecting_start, 3, seed=0, max_len=min_len - 1)

    def test_empty_request_is_empty(self, model):
        assert sample_words(model, 0, seed=0, max_len=5) == []

    @staticmethod
    def _words(sampler, a, n, seed, max_len):
        try:
            return sampler(a, n, seed, max_len)
        except GenerationError as exc:
            return str(exc)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(0, 8))
    @settings(max_examples=300, deadline=None)
    def test_words_equal_the_per_step_sampler(self, seed, n, max_len):
        rng = random.Random(seed)
        a = random_automaton(rng, 10, rng.randint(1, 4))
        want = self._words(oracle_predict.sample_words, a, n, seed, max_len)
        assert self._words(sample_words, a, n, seed, max_len) == want

    def test_each_state_is_read_once_per_call(self, model):
        states = _Counting(model.states)
        a = dataclasses.replace(model, states=states)
        words = sample_words(a, 200, seed=5, max_len=12)
        assert words == oracle_predict.sample_words(model, 200, 5, 12)
        assert sum(map(len, words)) > 10 * len(model.states)
        assert set(states.reads.values()) == {1}


class TestShortestAccepted:
    def test_no_accepting_state(self):
        a = build_apta(parse_abbadingo("0 1 0\n"))
        assert shortest_accepted_length(a) is None

    def test_depth_two(self):
        a = build_apta(parse_abbadingo("1 2 0 0\n"))
        assert shortest_accepted_length(a) == 2


class TestBinCuts:
    def test_uniform_cuts_are_equal_width(self):
        cuts = bin_cuts(list(range(10)), DiscretizationSpec(bins=3))
        assert cuts == pytest.approx([3.0, 6.0])

    def test_single_bin_has_no_cuts(self):
        assert bin_cuts([1.0, 2.0], DiscretizationSpec(bins=1)) == []

    def test_two_bins_cut_at_midpoint(self):
        cuts = bin_cuts([0.0, 9.0], DiscretizationSpec(bins=2))
        assert cuts == pytest.approx([4.5])

    def test_quantile_cuts_match_numpy(self):
        numpy = pytest.importorskip("numpy")
        rng = random.Random(5)
        series = [rng.gauss(0, 1) for _ in range(400)]
        spec = DiscretizationSpec(bins=4, method=BinMethod.QUANTILE)
        expect = numpy.quantile(series, [0.25, 0.5, 0.75], method="linear")
        assert bin_cuts(series, spec) == pytest.approx(list(expect), rel=1e-12)

    def test_heavy_ties_collapse_with_warning(self):
        series = [1.0] * 50 + [2.0]
        spec = DiscretizationSpec(bins=4, method=BinMethod.QUANTILE)
        with pytest.warns(UserWarning, match="collapsed"):
            cuts = bin_cuts(series, spec)
        assert len(cuts) < 3

    def test_constant_series_uniform(self):
        cuts = bin_cuts([5.0, 5.0, 5.0], DiscretizationSpec(bins=3))
        assert cuts == pytest.approx([5.0, 5.0])

    @pytest.mark.parametrize("method", list(BinMethod))
    @pytest.mark.parametrize("bins", [2, 3, 5])
    def test_one_value_is_a_constant_series(self, method, bins):
        # statistics.quantiles refuses a single value before CPython 3.13 and
        # repeats it from 3.13 on; either way the answer is the constant one's.
        spec = DiscretizationSpec(bins, method)
        answers = []
        for series in ([2.5], [2.5, 2.5, 2.5]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                answers.append((bin_cuts(series, spec), [str(w.message) for w in caught]))
        assert answers[0] == answers[1]
        if method is BinMethod.UNIFORM or bins == 2:
            assert answers[0] == ([2.5] * (bins - 1), [])
        else:
            assert answers[0] == ([2.5], [
                f"quantile cuts collapsed from {bins - 1} to 1; alphabet shrinks to 2 bins"])

    @pytest.mark.parametrize("method", list(BinMethod))
    @pytest.mark.parametrize("bins", [1, 2, 4])
    def test_empty_series_is_refused(self, method, bins):
        with pytest.raises(ValueError) as err:
            bin_cuts([], DiscretizationSpec(bins, method))
        assert type(err.value) is ValueError
        assert str(err.value) == "cannot bin an empty series"

    def test_cuts_near_the_float_limits_stay_finite(self):
        # hi - lo overflows in the uniform formula, and data * 3 in the quantile one
        assert bin_cuts([-1e308, 0.0, 1e308, 0.5], DiscretizationSpec(bins=4)) == [
            -5e307, 0.0, 5e307]
        spec = DiscretizationSpec(bins=3, method=BinMethod.QUANTILE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # two distinct cuts collapse nothing
            cuts = bin_cuts([1.7e308, 1.6e308, 1.75e308, 1.79e308], spec)
        assert cuts == pytest.approx([1.7e308, 1.75e308], rel=1e-15)

    @pytest.mark.parametrize("method", list(BinMethod))
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=8),
           st.integers(2, 8))
    @settings(max_examples=200, deadline=None)
    def test_cuts_of_a_finite_series_are_finite(self, method, series, bins):
        lo, hi = min(series), max(series)
        if method is BinMethod.UNIFORM:
            plain = [lo + (hi - lo) * i / bins for i in range(1, bins)]
        else:
            plain = sorted(set(statistics.quantiles(series, n=bins, method="inclusive")))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cuts = bin_cuts(series, DiscretizationSpec(bins=bins, method=method))
        assert all(map(math.isfinite, cuts))
        assert cuts == sorted(cuts)
        # Where the plain formula stays in range, its cuts are kept to the bit.
        if all(map(math.isfinite, plain)):
            assert cuts == plain


class TestDiscretize:
    def test_ramp_with_two_bins(self):
        series = [float(v) for v in range(10)]
        sample = discretize(series, DiscretizationSpec(bins=2, window=3))
        # cut at 4.5: symbols 0000011111
        assert len(sample.alphabet) == 2
        assert len(sample.traces) == 7
        syms = [s.symbol for s in sample.traces[0].symbols]
        assert syms == [0, 0, 0]
        syms_last = [s.symbol for s in sample.traces[-1].symbols]
        assert syms_last == [1, 1, 1]

    def test_boundary_value_goes_to_lower_bin(self):
        series = [0.0, 3.0, 6.0, 1.0, 5.0]
        sample = discretize(series, DiscretizationSpec(bins=2, window=1))
        # cut at 3.0; the 3.0 itself maps to bin 0
        assert sample.traces[1].symbols[0].symbol == 0

    def test_delta_targets(self):
        series = [1.0, 2.0, 4.0, 8.0]
        sample = discretize(series, DiscretizationSpec(bins=1, window=2))
        targets = [t.symbols[-1].target for t in sample.traces]
        assert targets == pytest.approx([2.0, 4.0])

    def test_value_targets(self):
        series = [1.0, 2.0, 4.0, 8.0]
        spec = DiscretizationSpec(bins=1, window=2, target=TargetKind.NEXT_VALUE)
        sample = discretize(series, spec)
        targets = [t.symbols[-1].target for t in sample.traces]
        assert targets == pytest.approx([4.0, 8.0])

    def test_only_last_symbol_carries_the_target(self):
        series = [float(v) for v in range(8)]
        sample = discretize(series, DiscretizationSpec(bins=2, window=4))
        for t in sample.traces:
            assert all(s.target is None for s in t.symbols[:-1])
            assert t.symbols[-1].target is not None

    def test_traces_are_unlabeled(self):
        sample = discretize([0.0, 1.0, 2.0], DiscretizationSpec(bins=1, window=1))
        assert all(t.label.name == "UNLABELED" for t in sample.traces)

    def test_alphabet_names_are_intervals_without_whitespace(self):
        sample = discretize(list(range(10)), DiscretizationSpec(bins=3, window=1))
        for name in sample.alphabet:
            assert " " not in name
            assert name[0] in "([" and name[-1] == "]"

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError):
            discretize([1.0, 2.0], DiscretizationSpec(bins=2, window=2))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            discretize([1.0, float("nan"), 2.0], DiscretizationSpec(bins=2, window=1))

    def test_overflowing_step_rejected(self):
        # 1e308 to -1e308 is a step of -inf, which no trace file can carry
        series = [1.0, 2.0, 1e308, -1e308, 5.0]
        with pytest.raises(ValueError, match=r"series\[2\] to series\[3\] overflows"):
            discretize(series, DiscretizationSpec(bins=1, window=1))
        spec = DiscretizationSpec(bins=1, window=1, target=TargetKind.NEXT_VALUE)
        assert len(discretize(series, spec).traces) == 4
        # A step inside the first window is no target, so it may overflow.
        sample = discretize([1e308, -1e308, 0.0, 1.0], DiscretizationSpec(bins=1, window=2))
        assert [t.symbols[-1].target for t in sample.traces] == [1e308, 1.0]

    def test_series_near_the_float_limits_reads_back(self):
        sample = discretize([-1e308, 0.0, 1e308, 0.5], DiscretizationSpec(bins=4, window=1))
        assert not any("inf" in name for name in sample.alphabet)
        assert parse_augmented(write_sample(sample)).traces == sample.traces

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DiscretizationSpec(bins=0)
        with pytest.raises(ValueError):
            DiscretizationSpec(bins=2, window=0)

    def test_bins_are_bounded(self):
        from flexautomata.sample_io import MAX_ALPHABET_SIZE

        assert DiscretizationSpec(bins=MAX_ALPHABET_SIZE).bins == MAX_ALPHABET_SIZE
        with pytest.raises(ValueError):
            DiscretizationSpec(bins=MAX_ALPHABET_SIZE + 1)


class TestEvaluate:
    def test_counts_on_reference_sample(self, ref_sample):
        model, _ = learn(ref_sample)
        report = evaluate(model, ref_sample)
        assert report.traces == 13
        assert report.pos_total == 8
        assert report.neg_total == 5
        assert report.pos_accepted == 8
        assert report.neg_rejected == 5
        assert report.accuracy == pytest.approx(1.0)
        assert report.mse is None

    def test_mse_beats_or_ties_global_mean(self):
        rng = random.Random(13)
        series = []
        level = 0.0
        for i in range(400):
            if i % 80 == 0:
                level = rng.choice([0.0, 5.0, 10.0])
            series.append(level + rng.gauss(0, 0.1))
        spec = DiscretizationSpec(bins=3, window=3, target=TargetKind.NEXT_VALUE)
        sample = discretize(series, spec)
        model, _ = learn(sample)
        report = evaluate(model, sample)
        mean = global_target_mean(model)
        targets = [t.symbols[-1].target for t in sample.traces]
        baseline = sum((t - mean) ** 2 for t in targets) / len(targets)
        assert report.mse is not None
        assert report.mse <= baseline + 1e-12

    def test_unlabeled_traces_have_no_accuracy(self):
        sample = parse_augmented("? 1 0\n")
        model, _ = learn(parse_abbadingo("1 1 0\n"))
        report = evaluate(model, sample)
        assert report.accuracy is None
        assert report.traces == 1

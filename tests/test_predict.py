"""Target prediction, word sampling, series discretization, evaluation."""

import dataclasses
import math
import random
import warnings
from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexautomata import (
    BinMethod,
    DiscretizationSpec,
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
)
from flexautomata.automaton import Outcome
from gen import complete_sample, even_ones_dfa, random_automaton


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
    """predict_value as it was before the totals were cached: a pass per call."""
    total = sum(s.target_count for s in a.states.values())
    if total == 0:
        raise PredictionError("model carries no target data")
    mean = sum(s.target_sum for s in a.states.values()) / total
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


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PredictionError as exc:
        return str(exc)


class _CountingStates(Mapping):
    """A state table that counts full passes over it."""

    def __init__(self, states):
        self._states = dict(states)
        self.passes = 0

    def __getitem__(self, q):
        return self._states[q]

    def __iter__(self):
        self.passes += 1
        return iter(self._states)

    def __len__(self):
        return len(self._states)


class TestTargetTotals:
    @given(
        st.integers(0, 10_000_000),
        st.lists(st.lists(st.integers(0, 2), max_size=6), min_size=1, max_size=12),
        st.lists(st.floats(-3.0, 3.0) | st.none(), min_size=1, max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_cached_totals_match_a_pass_per_call(self, seed, words, targets):
        # symbol 2 is outside the 2-symbol alphabet: a missing transition
        a = random_automaton(random.Random(seed), max_states=12)
        for word in words:
            for fb in Fallback:
                want = _outcome(_reference_predict, a, tuple(word), fb)
                assert _outcome(predict_value, a, tuple(word), PredictionConfig(fb)) == want
        traces = tuple(
            Trace(TraceLabel.UNLABELED,
                  tuple(SymbolInstance(s) for s in w[:-1])
                  + tuple(SymbolInstance(s, (), t) for s in w[-1:]))
            for w, t in zip(words, targets)
        )
        sample = Sample(traces, a.alphabet)
        accepted, sq_err, n_t = 0, 0.0, 0
        for trace in traces:
            path, complete = _reference_walk(a, trace.word)
            accepted += complete and path[-1] in a.accepting
            target = trace.symbols[-1].target if trace.symbols else None
            if target is not None:
                got = _outcome(_reference_predict, a, trace.word, Fallback.GLOBAL_MEAN)
                if isinstance(got, str):
                    assert _outcome(evaluate, a, sample) == got
                    return
                err = got - target
                sq_err += err * err
                n_t += 1
        report = evaluate(a, sample)
        assert report.accepted == accepted
        assert report.mse == (sq_err / n_t if n_t else None)
        assert report.mse_count == n_t

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
        states = _CountingStates(base.states)
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

"""The red-blue loop: consistency, determinism, promotion, the run log."""

import hashlib
import random
from collections import Counter, deque
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexautomata import (
    FAIL_LABEL_CONFLICT,
    Alergia,
    Edsm,
    EvidenceScore,
    LearnLog,
    LearnerConfig,
    Mse,
    Outcome,
    Sample,
    SymbolInstance,
    Trace,
    TraceLabel,
    build_apta,
    check_integrity,
    compute,
    language_upto,
    learn,
    merge,
    merge_aggregates,
    parse_abbadingo,
    save_model,
)
from flexautomata.learner import trial_score
from flexautomata.merging import MergeArena
from gen import TargetDfa, complete_sample, even_ones_dfa, labeled_sample, random_automaton
from oracle_learner import oracle_learn


def consistent(model, sample) -> bool:
    for w in sample.positive_words:
        if compute(model, w).outcome is not Outcome.ACCEPT:
            return False
    for w in sample.negative_words:
        if compute(model, w).outcome is Outcome.ACCEPT:
            return False
    return True


class TestBasics:
    def test_empty_sample_is_one_silent_state(self):
        model, log = learn(parse_abbadingo(""))
        assert model.state_count == 1
        assert log.iterations == 0
        assert model.accepting == frozenset()

    def test_single_empty_word(self):
        model, log = learn(parse_abbadingo("1 0\n"))
        assert model.state_count == 1
        assert model.start in model.accepting

    def test_reference_sample_learns_consistently(self, ref_sample, ref_apta):
        model, log = learn(ref_sample)
        assert consistent(model, ref_sample)
        assert model.state_count < ref_apta.state_count
        assert check_integrity(model) == []
        assert log.initial_states == ref_apta.state_count
        assert log.final_states == model.state_count

    def test_all_heuristics_stay_consistent(self, ref_sample):
        for heuristic in (Edsm(), Alergia(alpha=0.05), Mse(penalty=0.0)):
            model, _ = learn(ref_sample, LearnerConfig(heuristic=heuristic))
            assert consistent(model, ref_sample)

    def test_positive_only_sample_collapses_far(self):
        # same-label everywhere, EDSM merges freely
        model, _ = learn(parse_abbadingo("1 1 0\n1 2 0 0\n1 3 0 0 0\n"))
        assert model.state_count <= 2


class TestPromotion:
    def test_conflicting_pair_forces_promotion(self):
        # "" accepting, "0" rejecting: root and child can never merge
        model, log = learn(parse_abbadingo("1 0\n0 1 0\n"))
        assert model.state_count == 2
        assert any(e[0] == "PROMOTE" for e in log.events)

    def test_min_evidence_blocks_weak_merges(self, ref_sample):
        free, _ = learn(ref_sample, LearnerConfig(min_evidence=0.0))
        picky, _ = learn(ref_sample, LearnerConfig(min_evidence=1e9))
        # an impossible cutoff promotes everything: the model is the tree
        assert picky.state_count >= free.state_count
        assert picky.state_count == build_apta(ref_sample).state_count

    def test_nan_min_evidence_rejected(self):
        # every comparison with nan is false, so it would silently disable the cutoff
        with pytest.raises(ValueError):
            LearnerConfig(min_evidence=float("nan"))


class TestDeterminism:
    def test_two_runs_are_byte_identical(self, ref_sample):
        m1, l1 = learn(ref_sample)
        m2, l2 = learn(ref_sample)
        assert save_model(m1) == save_model(m2)
        assert l1.text() == l2.text()

    def test_log_lines_use_stable_float_text(self, ref_sample):
        _, log = learn(ref_sample)
        for line in log.lines():
            if line.startswith("MERGE"):
                parts = line.split()
                assert len(parts) == 4
                float(parts[3])  # parses back

    # save_model(learn(reference sample)) per heuristic, pinned from the
    # learner before trial merges stopped pooling full aggregates.
    GOLDEN = {
        "Edsm": "cec2ccc7fe97f76ebc82305db1ba6c159ed267d7db0ab1d2fccf71b2bf0080f0",
        "Alergia": "e51ea40eedc5943ffa8811bdf510a02a0bb4faccaa6845738f4519ffc5034510",
        "Mse": "463fc36e8f1bf212657dc0e8ea3e88fff23258c984e639b9c2206bcd09e1d1f6",
    }

    @pytest.mark.parametrize(
        "heuristic", [Edsm(), Alergia(), Mse()], ids=lambda h: type(h).__name__
    )
    def test_reference_models_are_pinned(self, ref_sample, heuristic):
        model, _ = learn(ref_sample, LearnerConfig(heuristic=heuristic))
        digest = hashlib.sha256(save_model(model).encode("utf-8")).hexdigest()
        assert digest == self.GOLDEN[type(heuristic).__name__]

    def test_random_samples_learn_identically(self):
        rng = random.Random(7)
        dfa = TargetDfa(rng, 4, 2)
        sample = labeled_sample(rng, dfa, 120, 8)
        runs = {save_model(learn(sample)[0]) for _ in range(3)}
        assert len(runs) == 1


class TestTermination:
    @given(
        st.integers(0, 10_000),
        st.sampled_from([Edsm(), Alergia(alpha=0.05), Alergia(alpha=0.5), Mse(), Mse(penalty=1.0)]),
        st.sampled_from([0.0, 1.0, float("-inf")]),
    )
    @settings(max_examples=60, deadline=None)
    def test_iterations_are_bounded_by_the_prefix_tree(self, seed, heuristic, min_evidence):
        # 2 * states - red starts at 2n - 1, never goes below 0, and every
        # promotion or merge lowers it, so no cap on the loop is needed.
        rng = random.Random(seed)
        dfa = TargetDfa(rng, rng.randint(2, 4), 2)
        sample = labeled_sample(rng, dfa, rng.randint(5, 80), 7, with_targets=True)
        _, log = learn(sample, LearnerConfig(heuristic=heuristic, min_evidence=min_evidence))
        assert log.iterations <= 2 * log.initial_states - 1


class TestRecovery:
    def test_even_ones_recovered_from_complete_sample(self):
        target = even_ones_dfa()
        sample = complete_sample(target, 7)
        model, _ = learn(sample)
        assert model.state_count == 2
        words = language_upto(model, 12)
        for w in words:
            assert target.accepts(w)
        from itertools import product
        expect = [
            w
            for length in range(13)
            for w in product(range(2), repeat=length)
            if target.accepts(w)
        ]
        assert words == sorted(expect, key=lambda w: (len(w), w))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_targets_yield_consistent_models(self, seed):
        rng = random.Random(seed)
        dfa = TargetDfa(rng, rng.randint(2, 4), 2)
        sample = labeled_sample(rng, dfa, rng.randint(30, 120), 8)
        model, log = learn(sample)
        assert consistent(model, sample)
        assert check_integrity(model) == []
        assert log.final_states == model.state_count


def reachable(model) -> set:
    seen = {model.start}
    queue = deque([model.start])
    while queue:
        for _sym, dst in model.out_edges(queue.popleft()):
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    return seen


class TestReachability:
    @given(
        st.integers(0, 10_000),
        st.sampled_from([Edsm(), Alergia(alpha=0.05), Alergia(alpha=0.5), Mse(), Mse(penalty=1.0)]),
        st.sampled_from([0.0, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_learned_state_is_reachable(self, seed, heuristic, min_evidence):
        rng = random.Random(seed)
        dfa = TargetDfa(rng, rng.randint(2, 4), 2)
        sample = labeled_sample(rng, dfa, rng.randint(20, 80), 7, with_targets=True)
        model, _ = learn(sample, LearnerConfig(heuristic=heuristic, min_evidence=min_evidence))
        assert reachable(model) == set(model.states)


class TestColoring:
    """What ``learn``'s log shows of the red set: promoted states stay red."""

    @given(
        st.integers(0, 10_000),
        st.sampled_from([Edsm(), Alergia(alpha=0.05), Alergia(alpha=0.5), Mse(), Mse(penalty=1.0)]),
        st.sampled_from([0.0, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_promoted_states_stay_red(self, seed, heuristic, min_evidence):
        rng = random.Random(seed)
        dfa = TargetDfa(rng, rng.randint(2, 4), 2)
        sample = labeled_sample(rng, dfa, rng.randint(20, 80), 7, with_targets=True)
        apta = build_apta(sample)
        _, log = learn(sample, LearnerConfig(heuristic=heuristic, min_evidence=min_evidence))
        promoted = set()
        for event in log.events:
            if event[0] == "PROMOTE":
                assert event[1] not in promoted
                promoted.add(event[1])
            else:
                _, r, b, _ = event
                assert b not in promoted
                # a red state is the start, a promoted state or a merged class
                assert r == apta.start or r in promoted or r >= apta.next_id


class TestOneArena:
    """``learn`` builds one merge arena and extracts one machine, however many merges it keeps."""

    @pytest.mark.parametrize("which", ["reference", "64-state target"])
    def test_one_build_and_one_extract_per_learn(self, monkeypatch, ref_sample, which):
        if which == "reference":
            sample = ref_sample
        else:
            rng = random.Random(5)
            sample = labeled_sample(rng, TargetDfa(rng, 64, 4), 300, 12)
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(MergeArena, "__init__", counted("build", MergeArena.__init__))
        monkeypatch.setattr(MergeArena, "extract", counted("extract", MergeArena.extract))
        _, log = learn(sample)
        assert sum(e[0] == "MERGE" for e in log.events) > 1
        assert calls == {"build": 1, "extract": 1}


class TestLog:
    def test_event_stream_shape(self, ref_sample):
        _, log = learn(ref_sample)
        assert log.iterations == sum(
            1 for e in log.events if e[0] in ("PROMOTE", "MERGE")
        )
        for e in log.events:
            assert e[0] in ("PROMOTE", "MERGE")

    def test_text_round_trips_lines(self, ref_sample):
        _, log = learn(ref_sample)
        assert log.text().splitlines() == log.lines()

    def test_debug_trace_goes_to_stderr(self, ref_sample, capsys):
        _, log = learn(ref_sample, LearnerConfig(debug_trace=True))
        err = capsys.readouterr().err
        assert "MERGE" in err or "PROMOTE" in err
        assert err.splitlines() == log.lines()


def small_sample(rng: random.Random) -> Sample:
    """A few short words of a random DFA, some unlabeled, each symbol with a target."""
    dfa = TargetDfa(rng, rng.randint(2, 4), rng.randint(1, 3))
    traces = []
    for _ in range(rng.randint(0, 20)):
        word = tuple(rng.randrange(dfa.n_syms) for _ in range(rng.randint(0, 6)))
        if rng.random() < 0.3:
            label = TraceLabel.UNLABELED
        else:
            label = TraceLabel.POSITIVE if dfa.accepts(word) else TraceLabel.NEGATIVE
        symbols = tuple(SymbolInstance(s, (), rng.uniform(-2.0, 2.0)) for s in word)
        traces.append(Trace(label, symbols))
    return Sample(tuple(traces), tuple(str(i) for i in range(dfa.n_syms)))


def assert_learns_like_the_oracle(sample, heuristic, min_evidence, **oracle_kwargs):
    model, log = learn(sample, LearnerConfig(heuristic=heuristic, min_evidence=min_evidence))
    want_model, want_log = oracle_learn(sample, heuristic, min_evidence, **oracle_kwargs)
    assert save_model(model) == save_model(want_model)
    assert log.text() == want_log.text()
    assert (log.initial_states, log.final_states) == (want_log.initial_states,
                                                      want_log.final_states)
    return model


class TestAgainstOracle:
    """The learner against a naive loop that rescores every pair each iteration."""

    @given(
        st.integers(0, 10_000_000),
        st.sampled_from([Edsm(), Alergia(0.05), Alergia(0.5), Mse(), Mse(1.0)]),
        st.sampled_from([float("-inf"), 0.0, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_learn_matches_the_naive_loop(self, seed, heuristic, min_evidence):
        assert_learns_like_the_oracle(small_sample(random.Random(seed)), heuristic, min_evidence)

    def test_reference_sample_matches(self, ref_sample):
        for heuristic in (Edsm(), Alergia(), Mse()):
            assert_learns_like_the_oracle(ref_sample, heuristic, 0.0)


@dataclass(slots=True)
class SharedVisits:
    total: int = 0


@dataclass(frozen=True)
class MinVisits:
    """A heuristic known to the tests alone: the visits each merged pair shares, summed."""

    evidence = SharedVisits

    @staticmethod
    def statistic(agg):
        return agg.total_count

    @staticmethod
    def fold(ev, x, nx, y, ny):
        ev.total += min(nx, ny)
        return nx + ny

    def score(self, outcome):
        if outcome.label_conflict:
            return EvidenceScore.fail(FAIL_LABEL_CONFLICT)
        return EvidenceScore(float(outcome.evidence.total))


def reference_min_visits(a, merged_pairs, heuristic):
    """MinVisits's score from fully pooled aggregates, replayed pair by pair."""
    if merged_pairs is None:
        return EvidenceScore.fail(FAIL_LABEL_CONFLICT)
    aggs = dict(a.states)
    total = 0
    for i, (x, y) in enumerate(merged_pairs):
        gx, gy = aggs[x], aggs[y]
        aggs[a.next_id + i] = merge_aggregates(gx, gy)
        total += min(gx.total_count, gy.total_count)
    return EvidenceScore(float(total))


class TestHeuristicProtocol:
    """A heuristic defined outside the package runs through the merge engine and learner."""

    @given(st.integers(0, 10_000_000))
    @settings(max_examples=100, deadline=None)
    def test_trial_scores_match_the_reference(self, seed):
        rng = random.Random(seed)
        a = random_automaton(rng, max_states=12, n_syms=rng.choice((1, 2, 3)))
        ids = sorted(a.states)
        arena = MergeArena(a, MinVisits())
        pairs = [(r, b) for r in ids for b in ids if r != b]
        for r, b in rng.sample(pairs, min(len(pairs), 12)):
            out = merge(a, r, b)
            expected = reference_min_visits(a, None if out.failed else out.merged_pairs, None)
            assert trial_score(arena, r, b, MinVisits()) == expected

    @given(st.integers(0, 10_000_000), st.sampled_from([float("-inf"), 0.0, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_learn_runs_it_like_the_naive_loop(self, seed, min_evidence):
        sample = small_sample(random.Random(seed))
        model = assert_learns_like_the_oracle(sample, MinVisits(), min_evidence,
                                              score=reference_min_visits)
        assert consistent(model, sample)
        assert check_integrity(model) == []

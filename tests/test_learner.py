"""The red-blue loop: consistency, determinism, promotion, the run log."""

import hashlib
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexautomata import (
    Alergia,
    Edsm,
    IterationLimitError,
    LearnLog,
    LearnerConfig,
    LearnerState,
    Mse,
    Outcome,
    build_apta,
    check_integrity,
    compute,
    language_upto,
    learn,
    parse_abbadingo,
    promote,
    save_model,
)
from gen import TargetDfa, complete_sample, even_ones_dfa, labeled_sample


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
    def test_promote_moves_blue_to_red(self, ref_apta):
        state = LearnerState(red=(0,), blue=(1, 2))
        after = promote(state, 1, ref_apta)
        assert 1 in after.red
        assert 1 not in after.blue
        assert set(after.blue) >= set(ref_apta.children(1)) - set(after.red)

    def test_promote_requires_a_blue_state(self, ref_apta):
        with pytest.raises(ValueError):
            promote(LearnerState(red=(0,), blue=(1,)), 2, ref_apta)

    def test_sets_stay_sorted(self, ref_apta):
        after = promote(LearnerState(red=(0,), blue=(1, 2)), 2, ref_apta)
        assert after.red == tuple(sorted(after.red))
        assert after.blue == tuple(sorted(after.blue))

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


class TestIterationCap:
    def test_cap_raises(self, ref_sample):
        with pytest.raises(IterationLimitError):
            learn(ref_sample, LearnerConfig(max_iterations=1))

    def test_generous_cap_is_silent(self, ref_sample):
        model, log = learn(ref_sample, LearnerConfig(max_iterations=10_000))
        assert log.iterations <= 10_000

    def test_zero_cap_rejected(self):
        with pytest.raises(ValueError):
            LearnerConfig(max_iterations=0)


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
        for dst in model.children(queue.popleft()):
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

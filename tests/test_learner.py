"""The red-blue loop: consistency, determinism, promotion, the run log."""

import dataclasses
import hashlib
import random
from collections import Counter, deque
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexautomata import (
    FAIL_LABEL_CONFLICT,
    Alergia,
    DiscretizationSpec,
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
    discretize,
    learn,
    merge,
    merge_aggregates,
    parse_abbadingo,
    save_model,
)
from flexautomata import learner
from flexautomata.cli import run
from flexautomata.learner import _carry_conflicts
from flexautomata.merging import MergeArena, _TrialFrame
from gen import TargetDfa, complete_sample, even_ones_dfa, labeled_sample, random_automaton
from golden import cases as golden_cases
from golden import reparsed
from oracle_automaton import language_upto
from oracle_learner import oracle_learn
from oracle_merge import alergia_refuses, reference_first_failure, reference_score
from test_heuristics import refused_before_a_conflict, trial_score
from test_merging import relabel, sparse_names


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

    def test_debug_trace_goes_to_stderr(self, ref_sample, ref_text, tmp_path, capsys):
        # The library writes nothing; `learn --trace` writes the log it returns.
        _, log = learn(ref_sample)
        assert capsys.readouterr().err == ""
        path = tmp_path / "traces.txt"
        path.write_text(ref_text)
        assert run(["learn", "--input", str(path), "--trace"]) == 0
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
    return model, log


def step_series(seed: int, n: int, sigma: float) -> Sample:
    """A noisy three-level step series that holds each level 50 steps, discretized."""
    rng = random.Random(seed)
    values = [5.0 * ((i // 50) % 3) + rng.gauss(0.0, sigma) for i in range(n)]
    return discretize(values, DiscretizationSpec(bins=3, window=5))


def event_counts(log: LearnLog) -> tuple[int, int]:
    """The promotions and the merges in ``log``."""
    promotions = sum(e[0] == "PROMOTE" for e in log.events)
    return promotions, log.iterations - promotions


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

    def test_promotion_heavy_series_matches(self):
        # Most iterations promote, so most decisions read scores that earlier
        # iterations took, and each promoted red must still meet every blue.
        _, log = assert_learns_like_the_oracle(step_series(2, 120, 2.0), Mse(), 0.0)
        promotions, merges = event_counts(log)
        assert merges >= 5 and promotions >= 3 * merges

    @pytest.mark.parametrize("seed", [0, 1, 3, 4])
    def test_tied_scores_go_to_the_smallest_red_then_blue(self, seed):
        # Every target is 0.0, so every MSE merge that passes scores 0.0 at
        # penalty 0: the (red, blue) tie-break alone picks each merge.
        rng = random.Random(seed)
        sample = labeled_sample(rng, TargetDfa(rng, 4, 2), 40, 6, with_targets=True)
        _, log = assert_learns_like_the_oracle(sample, Mse(0.0), 0.0)
        merged = [e[3] for e in log.events if e[0] == "MERGE"]
        assert len(merged) >= 3 and set(merged) == {0.0}


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
    def fold(ev, nx, ny):
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
        model, _ = assert_learns_like_the_oracle(sample, MinVisits(), min_evidence,
                                                 score=reference_min_visits)
        assert consistent(model, sample)
        assert check_integrity(model) == []


@dataclass(frozen=True)
class VisitCap:
    """A heuristic known to the tests alone that refuses, and keeps no record.

    Its fold refuses a pair whose pooled class is visited more than ``cap``
    times; its score is the merged pair count.
    """

    cap: int = 6
    evidence = None

    @staticmethod
    def statistic(agg):
        return agg.total_count

    def fold(self, ev, nx, ny):
        n = nx + ny
        return n if n <= self.cap else None

    def score(self, outcome):
        if outcome.label_conflict:
            return EvidenceScore.fail(FAIL_LABEL_CONFLICT)
        if outcome.refused:
            return EvidenceScore.fail("over_cap")
        return EvidenceScore(float(len(outcome.merged_pairs)))


def reference_visit_cap(a, merged_pairs, heuristic):
    """VisitCap's score from every pair of the full merge: a conflict first, then the cap."""
    if merged_pairs is None:
        return EvidenceScore.fail(FAIL_LABEL_CONFLICT)
    aggs = dict(a.states)
    for i, (x, y) in enumerate(merged_pairs):
        pooled = aggs[a.next_id + i] = merge_aggregates(aggs[x], aggs[y])
        if pooled.total_count > heuristic.cap:
            return EvidenceScore.fail("over_cap")
    return EvidenceScore(float(len(merged_pairs)))


def reference_refusal(heuristic):
    """``heuristic``'s refusal of a pair of fully pooled aggregates, or None if it never refuses."""
    if isinstance(heuristic, Alergia):
        return alergia_refuses(heuristic.alpha)
    if isinstance(heuristic, VisitCap):
        return lambda gx, gy: gx.total_count + gy.total_count > heuristic.cap
    return None


def unlabeled(sample: Sample) -> Sample:
    """``sample`` with every trace's label dropped, as ``?`` lines read."""
    traces = tuple(Trace(TraceLabel.UNLABELED, t.symbols) for t in sample.traces)
    return Sample(traces, sample.alphabet)


class TestRefusingHeuristic:
    """A heuristic whose fold refuses, with no record to note it in, learns like the naive loop."""

    @pytest.mark.parametrize("label", [lambda s: s, unlabeled], ids=["labeled", "unlabeled"])
    def test_learn_runs_it_like_the_naive_loop(self, label, monkeypatch):
        ends = Counter()
        run_merge = MergeArena.run_merge

        def counting(arena, q1, q2):
            outcome, frame = run_merge(arena, q1, q2)
            assert outcome.evidence is None
            ends[outcome.label_conflict, outcome.refused] += 1
            return outcome, frame

        monkeypatch.setattr(MergeArena, "run_merge", counting)
        for seed in range(40):
            sample = label(small_sample(random.Random(seed)))
            for heuristic in (VisitCap(), VisitCap(cap=3)):
                model, _ = assert_learns_like_the_oracle(sample, heuristic, 0.0,
                                                         score=reference_visit_cap)
                assert consistent(model, sample)
        # some trials pass and some are refused; on labeled samples, some conflict
        assert ends[False, False] and ends[False, True]
        if label is not unlabeled:
            assert ends[True, False]


class BlindPairCount:
    """A heuristic known to the tests alone whose score reads no failure: every
    outcome, failed or not, scores its merged pair count."""

    statistic = evidence = fold = None

    def score(self, outcome):
        return EvidenceScore(float(len(outcome.merged_pairs)))


def reference_pair_count(a, merged_pairs, heuristic):
    """BlindPairCount's score, as ``learn`` must read it: a failed merge fails."""
    if merged_pairs is None:
        return EvidenceScore.fail(FAIL_LABEL_CONFLICT)
    return EvidenceScore(float(len(merged_pairs)))


class TestFailedOutcomes:
    """``learn`` keeps no failed trial, whatever the heuristic's score says of it."""

    def test_the_model_reaches_every_state_and_fits_its_sample(self, ref_sample):
        model, _ = learn(ref_sample, LearnerConfig(heuristic=BlindPairCount()))
        assert reachable(model) == set(model.states)
        assert consistent(model, ref_sample)

    def test_it_learns_like_the_naive_loop(self):
        for seed in range(40):
            sample = small_sample(random.Random(seed))
            model, _ = assert_learns_like_the_oracle(sample, BlindPairCount(), 0.0,
                                                     score=reference_pair_count)
            assert consistent(model, sample)

    def test_a_conflict_is_never_tried_again(self, ref_sample, monkeypatch):
        # the pair's ids stay roots, and conflicting, until a kept merge retires one
        conflicted, repeats = set(), []
        run_merge = MergeArena.run_merge

        def watching(arena, q1, q2):
            outcome, frame = run_merge(arena, q1, q2)
            if (q1, q2) in conflicted:
                repeats.append((q1, q2))
            if outcome.label_conflict:
                conflicted.add((q1, q2))
            return outcome, frame

        monkeypatch.setattr(MergeArena, "run_merge", watching)
        learn(ref_sample, LearnerConfig(heuristic=BlindPairCount()))
        assert conflicted and repeats == []


CAPACITY_HEURISTICS = [Edsm(), Alergia(0.05), Alergia(0.5), Mse(), Mse(1.0), VisitCap(), VisitCap(cap=3)]


class TestArenaCapacity:
    """An arena sizes its per-class lists once, at twice its base's ``next_id``.

    Each fold joins two roots, and an arena starts with at most ``next_id``
    of them, so no mix of trials and kept merges mints more ids than that.
    """

    @given(st.integers(0, 10_000_000), st.sampled_from(CAPACITY_HEURISTICS), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_random_merges_down_to_one_class_stay_inside(self, seed, heuristic, labeled):
        rng = random.Random(seed)
        a = random_automaton(rng, max_states=12, n_syms=rng.choice((1, 2, 3)))
        if not labeled:
            a = dataclasses.replace(a, accepting=frozenset(), rejecting=frozenset())
        if rng.random() < 0.5:  # ids with holes
            f, top = sparse_names(rng, a.next_id, 3 * a.next_id)
            a = relabel(a, f, top)
        arena = MergeArena(a, heuristic)
        cap = len(arena.parent)
        assert cap == 2 * a.next_id
        model, failed = a, set()  # the pure merges kept so far; the pairs failed since
        while True:
            live = sorted(model.states)
            pairs = [(p, q) for p in live for q in live if p != q and (p, q) not in failed]
            if not pairs:
                break
            r, b = rng.choice(pairs)
            outcome, frame = arena.run_merge(r, b)
            assert arena.next_id <= cap
            assert len(arena.parent) == len(arena.out) == len(arena.label) == cap
            # the trial stops at the first failing pair, with its reason
            end, folded = reference_first_failure(model, r, b, reference_refusal(heuristic))
            assert outcome.label_conflict is (end == "conflict")
            assert outcome.refused is (end == "refused")
            assert frame.pairs == folded
            if outcome.failed or rng.random() < 0.3:
                arena.rollback(frame)
                if outcome.failed:
                    failed.add((r, b))
                assert arena.parent[arena.next_id:] == [-1] * (cap - arena.next_id)
                continue
            arena.pool(frame)
            model, failed = merge(model, r, b).result, set()
            assert arena.extract() == model
        # every pair left fails; with no labels and no refusal, none is left
        if not labeled and isinstance(heuristic, (Edsm, Mse)):
            assert len(live) == 1
        assert arena.extract() == model

    @given(st.integers(0, 10_000_000), st.sampled_from(CAPACITY_HEURISTICS))
    @settings(max_examples=100, deadline=None)
    def test_learn_stays_inside_and_matches_the_oracle(self, seed, heuristic):
        run_merge = MergeArena.run_merge

        def checked(arena, q1, q2):
            result = run_merge(arena, q1, q2)
            assert arena.next_id <= len(arena.parent) == 2 * arena.base.next_id
            return result

        score = reference_visit_cap if isinstance(heuristic, VisitCap) else reference_score
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MergeArena, "run_merge", checked)
            assert_learns_like_the_oracle(small_sample(random.Random(seed)), heuristic, 0.0,
                                          score=score)


class CountedScore:
    """An evidence score that counts each read of ``value`` and ``failed``."""

    __slots__ = ("_score", "_reads")

    def __init__(self, score: EvidenceScore, reads: Counter):
        self._score, self._reads = score, reads

    @property
    def value(self):
        self._reads["reads"] += 1
        return self._score.value

    @property
    def failed(self):
        self._reads["reads"] += 1
        return self._score.failed


@dataclass(frozen=True)
class ReadCountingMse(Mse):
    """Mse, with scores that count how often the learner reads them."""

    reads: Counter = field(default_factory=Counter, compare=False)

    def score(self, outcome):
        self.reads["trials"] += 1
        return CountedScore(super().score(outcome), self.reads)


class TestCost:
    """What a run costs, counted in the learner's reads of its scores."""

    def test_each_score_is_read_a_bounded_number_of_times(self):
        # A loop that rescans every red x blue score each iteration reads a
        # score once per iteration it survives, and a promotion-heavy run
        # keeps most scores across many iterations.
        heuristic = ReadCountingMse()
        sample = step_series(2, 300, 2.0)
        _, log = learn(sample, LearnerConfig(heuristic=heuristic))
        promotions, merges = event_counts(log)
        assert promotions >= 3 * merges
        assert heuristic.reads["trials"] > 0
        assert heuristic.reads["reads"] <= 3 * heuristic.reads["trials"]

    @pytest.mark.parametrize("heuristic", [Edsm(), Alergia(0.05)], ids=repr)
    def test_no_known_conflict_is_retried(self, monkeypatch, ref_sample, heuristic):
        # Merges only coarsen the partition, so once merging the classes of
        # q1 and q2 hits a label conflict, merging the classes that later
        # absorb them must too: no merge is run on such a pair again.
        known: list[tuple] = []
        retried: list[tuple] = []
        run_merge = MergeArena.run_merge

        def recording(arena, q1, q2):
            for r, b in known:
                if {arena.find(r), arena.find(b)} == {q1, q2}:
                    retried.append((r, b, q1, q2))
            outcome, frame = run_merge(arena, q1, q2)
            if outcome.label_conflict:
                known.append((q1, q2))
            return outcome, frame

        monkeypatch.setattr(MergeArena, "run_merge", recording)
        learn(ref_sample, LearnerConfig(heuristic=heuristic))
        assert known
        assert retried == []


class TestCarriedConflicts:
    """The label conflicts a kept merge hands on to the classes that absorb their pairs."""

    def test_partner_retired_into_another_class(self):
        # Roots 0-5 before the merge.  It folds 0+1 into 6, 2+3 into 7, and
        # 6+4 into 8: 0's partner 2 is retired too, into 7, not into 8.
        frame = _TrialFrame(6)
        frame.pairs += [(0, 1), (2, 3), (6, 4)]
        parent = [8, 8, 7, 7, 8, -1, 8, -1, -1]  # as pool leaves it: flat
        conflicts = {0: {2, 5}, 2: {0}, 5: {0, 3}, 3: {5}}
        _carry_conflicts(conflicts, frame.created, parent)
        assert conflicts == {8: {5, 7}, 7: {5, 8}, 5: {7, 8}}

    def test_map_is_every_known_conflict_between_current_classes(self, monkeypatch, ref_sample):
        # After each kept merge the carried map must be exactly the conflicting
        # trial pairs seen so far, each side mapped to its current class:
        # symmetric, and naming no class that a merge retired.
        known: list[tuple] = []
        arenas: list[MergeArena] = []
        checked = {"merges": 0, "entries": 0, "retired partners": 0}
        run_merge = MergeArena.run_merge

        def recording(arena, q1, q2):
            arenas[:] = [arena]
            outcome, frame = run_merge(arena, q1, q2)
            if outcome.label_conflict:
                known.append((q1, q2))
            return outcome, frame

        def checking(conflicts, created, parent):
            retired = {c for _z, x, y in created for c in (x, y)}
            checked["retired partners"] += sum(
                p in retired for c in retired for p in conflicts.get(c, ()))
            _carry_conflicts(conflicts, created, parent)
            find = arenas[0].find
            want: dict = {}
            for q1, q2 in known:
                r1, r2 = find(q1), find(q2)
                want.setdefault(r1, set()).add(r2)
                want.setdefault(r2, set()).add(r1)
            assert conflicts == want
            assert all(parent[c] == -1 for c in conflicts)
            checked["merges"] += 1
            checked["entries"] += sum(map(len, conflicts.values()))

        monkeypatch.setattr(MergeArena, "run_merge", recording)
        monkeypatch.setattr(learner, "_carry_conflicts", checking)
        samples = [ref_sample] + [small_sample(random.Random(seed)) for seed in range(40)]
        for sample in samples:
            for heuristic in (Edsm(), Alergia(0.05), Mse()):
                known.clear()
                learn(sample, LearnerConfig(heuristic=heuristic))
        assert checked["merges"] and checked["entries"] and checked["retired partners"]

    def test_a_conflict_hidden_by_a_refusal_is_not_kept(self, monkeypatch):
        # ALERGIA refuses the merge of prefix-tree states 1 and 2 at its second
        # pair, one pair before their labels conflict.  The trial ends at the
        # refusal, so the memo never holds (1, 2): after the kept merge it
        # holds just the conflicts that trials returned, each side mapped to
        # its current class, and learning matches the naive loop.
        sample = refused_before_a_conflict("1", "0")
        ends: dict = {}
        conflicting: list[tuple] = []
        arenas: list[MergeArena] = []
        carried = []
        run_merge = MergeArena.run_merge

        def recording(arena, q1, q2):
            arenas[:] = [arena]
            outcome, frame = run_merge(arena, q1, q2)
            ends.setdefault((q1, q2), []).append(
                "conflict" if outcome.label_conflict else "refused" if outcome.refused else "ok")
            if outcome.label_conflict:
                conflicting.append((q1, q2))
            return outcome, frame

        def checking(conflicts, created, parent):
            _carry_conflicts(conflicts, created, parent)
            find = arenas[0].find
            want: dict = {}
            for q1, q2 in conflicting:
                want.setdefault(find(q1), set()).add(find(q2))
                want.setdefault(find(q2), set()).add(find(q1))
            assert conflicts == want
            carried.append(want)

        monkeypatch.setattr(MergeArena, "run_merge", recording)
        monkeypatch.setattr(learner, "_carry_conflicts", checking)
        learn(sample, LearnerConfig(heuristic=Alergia(0.05)))
        monkeypatch.undo()  # the oracle's pure merges run through the arena too
        _, log = assert_learns_like_the_oracle(sample, Alergia(0.05), 0.0)
        assert log.lines()[:2] == ["PROMOTE 1", "PROMOTE 2"]
        assert ends[1, 2] == ["refused"]
        assert conflicting and (1, 2) not in conflicting
        assert carried and carried[-1]


def blue_trees(arena, red) -> dict:
    """Each blue class mapped to its tree: the classes reached from it through ``out`` and ``find``.

    Asserts the tree shape: no tree reaches a red class, and no class is
    reached twice, whether within one blue's tree or from two blues.
    """
    find, out = arena.find, arena.out
    blue = {c for q in red for t in out[q].values() if (c := find(t)) not in red}
    reached: set = set()
    trees = {}
    for b in sorted(blue):
        tree, stack = set(), [b]
        while stack:
            c = stack.pop()
            assert c not in red, f"blue {b}'s tree reaches red class {c}"
            assert c not in reached, f"class {c} is reached twice"
            reached.add(c)
            tree.add(c)
            stack.extend(find(t) for t in out[c].values())
        trees[b] = tree
    return trees


class TestStructuralInvariants:
    """Facts about red-blue merging, checked at every step of ``learn``.

    Tree shape: each blue class, with the classes reached from it, forms a
    tree of non-red classes, and no class is in two blues' trees.  Fresh
    second class: in every merge ``run_merge(r, b)``, trial or kept, each
    folded pair's second class is a class of b's tree before the merge, and
    none is folded twice, so a merge folds at most one pair per class of
    b's tree.  Dependencies: a trial's verdict depends only on the classes
    it folded that existed before it, so it holds as long as they do.
    """

    @staticmethod
    def step(monkeypatch, runs):
        """Learn each (sample, config) in ``runs``, checking the first two facts at every step.

        Returns the frontiers, merges and pairs folded that were checked.
        """
        step: dict = {}
        checked = Counter()
        children, run_merge = learner._children, MergeArena.run_merge

        def stepping_children(arena, src, red):
            # ``red`` is the red set after each promotion or kept merge
            step["red"], step["trees"] = set(red), blue_trees(arena, red)
            checked["frontiers"] += 1
            return children(arena, src, red)

        def stepping_run_merge(arena, r, b):
            assert r in step["red"]
            tree = step["trees"][b]
            outcome, frame = run_merge(arena, r, b)
            folded = set()
            for x, y in frame.pairs:
                assert y in tree and y not in folded
                folded.update((x, y))
            checked["merges"] += 1
            checked["pairs"] += len(frame.pairs)
            return outcome, frame

        monkeypatch.setattr(learner, "_children", stepping_children)
        monkeypatch.setattr(MergeArena, "run_merge", stepping_run_merge)
        for sample, cfg in runs:
            learn(sample, cfg)
        return checked

    @pytest.mark.parametrize("heuristic", [Edsm(), Alergia(0.05), Mse(), MinVisits()], ids=repr)
    def test_blue_trees_and_fresh_second_classes(self, monkeypatch, ref_sample, heuristic):
        rng = random.Random(5)
        samples = [ref_sample, refused_before_a_conflict("1", "0"), step_series(2, 120, 2.0),
                   labeled_sample(rng, TargetDfa(rng, 8, 2), 150, 10, with_targets=True)]
        samples += [small_sample(random.Random(seed)) for seed in range(30)]
        cfg = LearnerConfig(heuristic=heuristic)
        checked = self.step(monkeypatch, [(sample, cfg) for sample in samples])
        assert checked["merges"] > checked["frontiers"] > 30 and checked["pairs"]

    # One golden case per family: EDSM words with and without targets,
    # annotated words, ALERGIA walks at both levels, and MSE steps.
    @pytest.mark.parametrize("name", [
        "edsm-dfa-0", "edsm-dfa-targets-0", "edsm-annotated-0",
        "alergia-0.05-walks-0", "alergia-0.5-walks-0", "mse-0.0-steps-0",
    ])
    def test_golden_cases(self, monkeypatch, name):
        factory, cfg = golden_cases()[name]
        checked = self.step(monkeypatch, [(reparsed(factory()), cfg)])
        assert checked["merges"] > checked["frontiers"] > 1 and checked["pairs"]

    @pytest.mark.parametrize("heuristic", [Edsm(), Alergia(0.05), Alergia(0.5), Mse(), Mse(1.0)],
                             ids=repr)
    def test_a_verdict_holds_while_its_classes_stand(self, monkeypatch, ref_sample, heuristic):
        # After each kept merge, every pair whose last trial passed and folded
        # only classes that are still roots runs again: the same pairs (fresh
        # ids counted from the trial's first), evidence and score.
        arenas: list[MergeArena] = []
        last: dict = {}  # (r, b) -> what its last trial gave, if it passed
        checked = Counter()
        run_merge = MergeArena.run_merge

        def verdict(arena, r, b):
            outcome, frame = run_merge(arena, r, b)
            first = frame.next_id_before
            fresh = [tuple(c if c < first else ("fresh", c - first) for c in pair)
                     for pair in frame.pairs]
            return outcome, frame, (fresh, outcome.label_matches, repr(outcome.evidence),
                                    repr(heuristic.score(outcome)))

        def recording(arena, r, b):
            arenas[:] = [arena]
            outcome, frame, seen = verdict(arena, r, b)
            if outcome.failed:
                last.pop((r, b), None)
            else:
                before = {c for pair in frame.pairs for c in pair if c < frame.next_id_before}
                last[r, b] = before, seen
            return outcome, frame

        def rerunning(conflicts, created, parent):
            _carry_conflicts(conflicts, created, parent)
            arena = arenas[0]
            for (r, b), (before, seen) in list(last.items()):
                if any(parent[c] >= 0 for c in before):
                    del last[r, b]
                    checked["retired"] += parent[r] < 0 and parent[b] < 0
                    continue
                _outcome, frame, again = verdict(arena, r, b)
                arena.rollback(frame)
                assert again == seen, (r, b)
                checked["rerun"] += 1

        monkeypatch.setattr(MergeArena, "run_merge", recording)
        monkeypatch.setattr(learner, "_carry_conflicts", rerunning)
        rng = random.Random(5)
        samples = [ref_sample, step_series(2, 120, 2.0), reparsed(golden_cases()["edsm-dfa-0"][0]()),
                   labeled_sample(rng, TargetDfa(rng, 8, 2), 150, 10, with_targets=True)]
        samples += [small_sample(random.Random(seed)) for seed in range(40)]
        samples += [unlabeled(s) for s in samples[3:]]
        for sample in samples:
            last.clear()
            learn(sample, LearnerConfig(heuristic=heuristic))
        # some verdicts ran again, and some were dropped for a retired class
        # deeper than the pair itself
        assert checked["rerun"] and checked["retired"]

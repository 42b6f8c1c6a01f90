"""Merge-with-determinization engine against a brute-force reference."""

import copy
import dataclasses
import random
import tracemalloc
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexautomata import (
    FAIL_DISTRIBUTION,
    FAIL_LABEL_CONFLICT,
    Alergia,
    Automaton,
    Edsm,
    EvidenceScore,
    Mse,
    StateAggregate,
    build_apta,
    check_integrity,
    learn,
    merge,
    merge_aggregates,
    parse_abbadingo,
    parse_augmented,
    save_model,
)
from flexautomata.merging import MergeArena
from gen import TargetDfa, labeled_sample, random_automaton
from oracle_automaton import language_upto
from oracle_merge import (
    alergia_refuses,
    integer_sums,
    reference_first_failure,
    reference_language,
    reference_merge,
    reference_score,
)
from test_heuristics import trial, trial_score


class TestMergeAggregates:
    def test_fields_add_up(self):
        a = StateAggregate(
            total_count=5, end_pos_count=1, end_neg_count=0,
            out_counts={0: 3, 1: 1}, target_count=2,
            target_sum=4.0, target_sumsq=10.0, attribute_sums=(1.0,),
        )
        b = StateAggregate(
            total_count=3, end_pos_count=0, end_neg_count=2,
            out_counts={1: 1}, target_count=1,
            target_sum=2.0, target_sumsq=4.0, attribute_sums=(0.5,),
        )
        c = merge_aggregates(a, b)
        assert c.total_count == 8
        assert c.end_pos_count == 1
        assert c.end_neg_count == 2
        assert c.out_counts == {0: 3, 1: 2}
        assert c.target_count == 3
        assert c.target_sum == pytest.approx(6.0)
        assert c.target_sumsq == pytest.approx(14.0)
        assert c.attribute_sums == (1.5,)

    def test_empty_is_identity(self):
        a = StateAggregate(
            total_count=4, end_pos_count=1, end_neg_count=1,
            out_counts={0: 2}, target_count=0,
            target_sum=0.0, target_sumsq=0.0, attribute_sums=(),
        )
        assert merge_aggregates(a, StateAggregate()) == a
        assert merge_aggregates(StateAggregate(), a) == a

    def test_arity_mismatch_is_an_error(self):
        a = StateAggregate(attribute_sums=(1.0,))
        b = StateAggregate(attribute_sums=(1.0, 2.0))
        with pytest.raises(ValueError):
            merge_aggregates(a, b)

    def test_sse_of_merged_targets(self):
        # targets {0, 0} and {2, 2}: pooled mean 1, squared error 4
        a = StateAggregate(target_count=2, target_sum=0.0, target_sumsq=0.0)
        b = StateAggregate(target_count=2, target_sum=4.0, target_sumsq=8.0)
        assert merge_aggregates(a, b).sse() == pytest.approx(4.0)
        assert a.sse() == pytest.approx(0.0)
        assert b.sse() == pytest.approx(0.0)


class TestCascade:
    """Root merged with its grandchild in a two-word chain tree."""

    @pytest.fixture()
    def chain(self):
        return build_apta(parse_abbadingo("1 2 0 0\n1 4 0 0 0 0\n"))

    def test_cascade_folds_the_chain(self, chain):
        out = merge(chain, 0, 2)
        assert not out.failed
        assert out.merged_pairs == ((0, 2), (1, 3), (5, 4))
        assert out.label_matches == 1
        assert out.label_conflict is False

    def test_cascade_result_language(self, chain):
        out = merge(chain, 0, 2)
        assert out.result.state_count == 2
        assert out.result.start in out.result.accepting
        assert language_upto(out.result, 8) == [
            (), (0, 0), (0, 0, 0, 0), (0, 0, 0, 0, 0, 0), (0,) * 8,
        ]

    def test_cascade_conserves_totals(self, chain):
        out = merge(chain, 0, 2)
        before = sum(s.total_count for s in chain.states.values())
        after = sum(s.total_count for s in out.result.states.values())
        assert after == before
        assert check_integrity(out.result) == []

    def test_single_pair_merge(self):
        a = build_apta(parse_abbadingo("1 0\n1 1 0\n"))
        out = merge(a, 0, 1)
        assert out.merged_pairs == ((0, 1),)
        assert out.result.state_count == 1
        assert language_upto(out.result, 4) == [(), (0,), (0, 0), (0, 0, 0), (0, 0, 0, 0)]

    def test_fresh_ids_do_not_reuse_old_ones(self, chain):
        out = merge(chain, 0, 2)
        assert all(q >= chain.next_id for q in out.result.states)
        assert out.result.next_id > chain.next_id


class TestConflicts:
    def test_label_conflict_fails_the_merge(self):
        a = build_apta(parse_abbadingo("1 1 0\n0 2 0 0\n"))
        # merging 0 with child-of-0 forces accepting state onto rejecting one
        out = merge(a, 0, a.transitions[(0, 0)])
        assert out.failed
        assert out.result is None
        assert out.label_conflict is True

    def test_direct_conflict(self):
        a = build_apta(parse_abbadingo("1 1 0\n0 1 1\n"))
        out = merge(a, a.transitions[(0, 0)], a.transitions[(0, 1)])
        assert out.failed
        assert out.label_conflict is True

    def test_failed_merge_reports_nothing_else(self):
        a = build_apta(parse_abbadingo("1 1 0\n0 2 0 0\n"))
        out = merge(a, 0, a.transitions[(0, 0)])
        assert out.merged_pairs == ()
        assert out.evidence is None

    def test_merge_of_agreeing_labels_counts_matches(self):
        a = build_apta(parse_abbadingo("1 1 0\n1 1 1\n"))
        out = merge(a, a.transitions[(0, 0)], a.transitions[(0, 1)])
        assert not out.failed
        assert out.label_matches == 1


class TestCallerErrors:
    def test_state_at_next_id_is_refused(self, ref_sample):
        model, _ = learn(ref_sample)
        top = max(model.states)
        stale = dataclasses.replace(model, next_id=top)
        with pytest.raises(ValueError) as err:
            merge(stale, min(model.states), top)
        assert str(err.value) == f"state {top} not below next_id {top}"

    @staticmethod
    def two_states(**changes):
        """A 2-state automaton, 0 -a-> 1, with ``changes`` replacing its fields."""
        a = Automaton(
            alphabet=("a",),
            states={0: StateAggregate(1, out_counts={0: 1}), 1: StateAggregate(1)},
            accepting=frozenset(),
            rejecting=frozenset(),
            transitions={(0, 0): 1},
            start=0,
            next_id=2,
        )
        return dataclasses.replace(a, **changes)

    @pytest.mark.parametrize("changes, message", [
        ({"start": 7}, "start state 7 not in state set"),
        ({"accepting": frozenset({1, 9})}, "accepting state 9 not in state set"),
        ({"rejecting": frozenset({8})}, "rejecting state 8 not in state set"),
        ({"transitions": {(0, 0): 5}}, "transition target 5 not in state set"),
        ({"transitions": {(0, 0): 1, (4, 0): 1}}, "transition source 4 not in state set"),
    ], ids=["start", "accepting", "rejecting", "target", "source"])
    def test_dangling_state_ids_are_refused(self, changes, message):
        # each is a caller error, worded as check_integrity words it
        a = self.two_states(**changes)
        assert message in check_integrity(a)
        with pytest.raises(ValueError) as err:
            merge(a, 0, 1)
        assert str(err.value) == message

    @pytest.mark.parametrize("transitions, message", [
        ({(0, 0): 1, (1, 5): 0}, "transition (1,5) uses symbol outside alphabet"),
        ({(0, 0): 1, (1, -1): 0, (0, 3): 1}, "transition (0,3) uses symbol outside alphabet"),
        ({(0, 5): 1, (1, 0): 9}, "transition target 9 not in state set"),
    ], ids=["one", "smallest-source-first", "endpoint-first"])
    def test_symbols_outside_the_alphabet_are_refused(self, transitions, message):
        # worded as check_integrity words it; a dangling endpoint is named
        # first, then the smallest (source, symbol)
        a = self.two_states(transitions=transitions)
        assert message in check_integrity(a)
        with pytest.raises(ValueError) as err:
            merge(a, 0, 1)
        assert str(err.value) == message


class TestPurity:
    def test_input_untouched_on_success(self, ref_apta):
        snapshot = save_model(ref_apta)
        merge(ref_apta, 0, 1)
        assert save_model(ref_apta) == snapshot

    def test_input_untouched_on_failure(self):
        a = build_apta(parse_abbadingo("1 1 0\n0 2 0 0\n"))
        snapshot = save_model(a)
        out = merge(a, 0, a.transitions[(0, 0)])
        assert out.failed
        assert save_model(a) == snapshot

    def test_repeat_calls_are_identical(self, ref_apta):
        first = merge(ref_apta, 0, 1)
        second = merge(ref_apta, 0, 1)
        assert first.merged_pairs == second.merged_pairs
        if first.result is not None:
            assert save_model(first.result) == save_model(second.result)

    def test_state_in_both_label_sets_rejected(self):
        a = build_apta(parse_abbadingo("1 1 0\n0 1 1\n"))
        both = dataclasses.replace(a, rejecting=a.rejecting | a.accepting)
        with pytest.raises(ValueError, match="both accepting and rejecting"):
            merge(both, 0, 1)

    def test_unknown_state_ids_rejected(self, ref_apta):
        with pytest.raises(ValueError):
            merge(ref_apta, 0, 99999)
        with pytest.raises(ValueError):
            merge(ref_apta, -1, 0)
        with pytest.raises(ValueError):
            merge(ref_apta, 3, 3)


class TestTargetsThroughMerges:
    def test_target_stats_pool(self):
        a = build_apta(parse_augmented("? 1 0/2.0\n? 2 0/4.0 0/6.0\n"))
        # states after one 0 and after two 0s hold targets {2,4} and {6}
        out = merge(a, a.transitions[(0, 0)], a.transitions[(a.transitions[(0, 0)], 0)])
        assert not out.failed
        merged = out.result
        pooled = [
            s for s in merged.states.values() if s.target_count == 3
        ]
        assert len(pooled) == 1
        assert pooled[0].target_sum == pytest.approx(12.0)

    def test_sse_delta_nonnegative(self):
        a = build_apta(parse_augmented("? 1 0/0.0\n? 2 0/0.0 0/2.0\n? 3 0/2.0 0/2.0 0/2.0\n"))
        child = a.transitions[(0, 0)]
        score = trial(Mse(), a, child, a.transitions[(child, 0)])
        assert not score.failed
        assert score.value <= 0.0


class TestAgainstReference:
    """Brute-force quotient construction must agree with the engine."""

    @given(st.integers(0, 10_000_000))
    @settings(max_examples=300, deadline=None)
    def test_equivalence_on_random_automata(self, seed):
        rng = random.Random(seed)
        a = random_automaton(rng, max_states=12, n_syms=rng.choice((1, 2, 3)))
        ids = sorted(a.states)
        if len(ids) < 2:
            return
        q1, q2 = rng.sample(ids, 2)
        expected_ok, expected_pairs, quotient = reference_merge(a, q1, q2)
        out = merge(a, q1, q2)
        assert out.failed != expected_ok
        if expected_ok:
            assert len(out.merged_pairs) == expected_pairs
            assert out.result.state_count == a.state_count - expected_pairs
            oracle_words = sorted(
                reference_language(quotient, len(a.alphabet), 8),
                key=lambda w: (len(w), w),
            )
            assert language_upto(out.result, 8) == oracle_words
            assert check_integrity(out.result) == []
            # merge() pools every class's aggregates: the integer fields add up
            assert sorted(integer_sums(g) for g in out.result.states.values()) == quotient["sums"]

    def test_reference_oracle_sanity(self):
        # the oracle itself on the chain example
        a = build_apta(parse_abbadingo("1 2 0 0\n1 4 0 0 0 0\n"))
        ok, pairs, quotient = reference_merge(a, 0, 2)
        assert ok
        assert pairs == 3
        assert reference_language(quotient, 1, 8) == {
            (), (0, 0), (0, 0, 0, 0), (0, 0, 0, 0, 0, 0), (0,) * 8,
        }


class TestTrialPath:
    """Trials pool only what their heuristic reads, yet stop and score like fully pooled merges.

    A trial ends at its first failing pair in fold order, a label conflict or
    a pair its heuristic refuses, and fails with that pair's reason; a trial
    that passes scores as the merge of fully pooled aggregates does.
    """

    @given(
        st.integers(0, 10_000_000),
        st.sampled_from([Edsm(), Alergia(alpha=0.05), Alergia(alpha=0.6), Mse(), Mse(penalty=0.5)]),
    )
    @settings(max_examples=150, deadline=None)
    def test_trial_scores_match_fully_pooled_merges(self, seed, heuristic):
        rng = random.Random(seed)
        a = random_automaton(rng, max_states=12, n_syms=rng.choice((1, 2, 3)))
        ids = sorted(a.states)
        arena = MergeArena(a, heuristic)
        refuses = alergia_refuses(heuristic.alpha) if isinstance(heuristic, Alergia) else None
        pairs = [(r, b) for r in ids for b in ids if r != b]
        for r, b in rng.sample(pairs, min(len(pairs), 12)):
            end, folded = reference_first_failure(a, r, b, refuses)
            outcome, frame = arena.run_merge(r, b)
            arena.rollback(frame)
            assert frame.pairs == folded
            if end == "conflict":
                expected = EvidenceScore.fail(FAIL_LABEL_CONFLICT)
            elif end == "refused":
                expected = EvidenceScore.fail(FAIL_DISTRIBUTION)
            else:
                assert folded == list(merge(a, r, b).merged_pairs)
                expected = reference_score(a, folded, heuristic)
            assert heuristic.score(outcome) == expected


class TestTrialsLeaveNoTrace:
    """Trial merges undo every write; kept merges carry exact statistics, flat and pruned.

    Out-maps and ALERGIA's count maps are shared between classes rather than
    copied, which is sound only if nothing writes to them after they are
    made; the snapshots below are deep copies, so a write through a shared
    map would show.  The per-class lists are sized once, at twice the base's
    ``next_id``; the entries from ``next_id`` up are scratch that nothing
    reads, but every parent there is a root, so a trial that left a class
    pointing at a fresh id would show there.
    """

    @staticmethod
    def snapshot(arena):
        n = arena.next_id
        return copy.deepcopy((
            arena.parent[:n], arena.out[:n], arena.label[:n], arena.stats[:n],
            arena.agg, arena.members, n,
        ))

    @staticmethod
    def assert_sized_once(arena):
        n, cap = arena.next_id, 2 * arena.base.next_id
        assert len(arena.parent) == len(arena.out) == len(arena.label) == cap
        assert len(arena.stats) == (cap if arena.fold is not None else 0)
        assert n <= cap
        assert arena.parent[n:] == [-1] * (cap - n)

    @staticmethod
    def assert_flat_and_pruned(arena):
        """A kept merge leaves every class one step from its root, and no dead class state."""
        parent = arena.parent
        for c in range(arena.next_id):
            if parent[c] >= 0:
                assert parent[parent[c]] == -1
                assert c not in arena.agg and arena.out[c] is None
                assert not arena.stats or arena.stats[c] is None
            elif arena.out[c] is not None:
                assert c in arena.agg
        assert all(parent[c] == -1 for c in arena.agg)

    @given(
        st.integers(0, 10_000_000),
        st.sampled_from([Edsm(), Alergia(alpha=0.05), Alergia(alpha=0.6), Mse(), Mse(penalty=0.5)]),
    )
    @settings(max_examples=150, deadline=None)
    def test_trials_restore_the_arena(self, seed, heuristic):
        rng = random.Random(seed)
        a = random_automaton(rng, max_states=12, n_syms=rng.choice((1, 2, 3)))
        base = copy.deepcopy(a)
        arena = MergeArena(a, heuristic)
        for _ in range(3):
            live = [c for c in range(arena.next_id)
                    if arena.parent[c] == -1 and arena.out[c] is not None]
            if len(live) < 2:
                break
            before = self.snapshot(arena)
            for _ in range(8):
                trial_score(arena, *rng.sample(live, 2), heuristic)
                self.assert_sized_once(arena)
                assert self.snapshot(arena) == before
            outcome, frame = arena.run_merge(*rng.sample(live, 2))
            # a merge that failed, by a label conflict or a refused pair, is rolled back
            if outcome.failed:
                arena.rollback(frame)
                self.assert_sized_once(arena)
                assert self.snapshot(arena) == before
                continue
            self.assert_sized_once(arena)
            # every class the merge made, intermediate ones included, carries
            # the statistic of its pooled aggregate
            agg = dict(arena.agg)
            for z, x, y in frame.created:
                agg[z] = merge_aggregates(agg[x], agg[y])
                if arena.fold is not None:
                    assert arena.stats[z] == heuristic.statistic(agg[z])
            arena.pool(frame)
            self.assert_sized_once(arena)
            self.assert_flat_and_pruned(arena)
            assert arena.agg == {c: agg[c] for c in arena.agg}
            assert check_integrity(arena.extract()) == []
        assert arena.base is a and a == base

    @staticmethod
    def with_order_sensitive_sums(rng, a):
        """``a`` with arity-2 attributes, and target and attribute sums of order-sensitive values.

        Adding 1e16, -1e16 and 0.1 in different orders gives different
        floats, so a pool that summed them in any order but the fold tree's
        would show.
        """
        values = (1e16, -1e16, 0.1, 1.0)
        states = {}
        for q, g in a.states.items():
            tsum = tsumsq = 0.0
            for _ in range(g.target_count):
                v = rng.choice(values)
                tsum += v
                tsumsq += v * v
            attrs = (rng.choice(values), rng.choice(values)) if rng.random() < 0.8 else ()
            states[q] = dataclasses.replace(
                g, target_sum=tsum, target_sumsq=tsumsq, attribute_sums=attrs)
        return dataclasses.replace(a, states=states, attribute_arity=2)

    @pytest.mark.parametrize("heuristic", [Edsm(), Alergia(alpha=0.05), Mse()], ids=repr)
    def test_kept_merges_pool_floats_along_the_fold_tree(self, heuristic):
        # every class a kept merge leaves standing holds, to the last bit and
        # in its out counts' key order, what merge_aggregates gives replayed
        # over the merge's fold tree
        kept = 0
        for seed in range(300):
            rng = random.Random(seed)
            a = self.with_order_sensitive_sums(
                rng, random_automaton(rng, max_states=12, n_syms=rng.choice((1, 2, 3))))
            arena = MergeArena(a, heuristic)
            for _ in range(10):
                live = [c for c in range(arena.next_id)
                        if arena.parent[c] == -1 and arena.out[c] is not None]
                if len(live) < 2:
                    break
                outcome, frame = arena.run_merge(*rng.sample(live, 2))
                if outcome.failed:
                    arena.rollback(frame)
                    continue
                agg = dict(arena.agg)
                for z, x, y in frame.created:
                    agg[z] = merge_aggregates(agg[x], agg[y])
                arena.pool(frame)
                kept += 1
                assert {c: repr(g) for c, g in arena.agg.items()} == {
                    c: repr(agg[c]) for c in arena.agg}
            assert check_integrity(arena.extract()) == []
        assert kept >= 300

    def test_kept_merge_of_two_attribute_arities_is_refused(self):
        one = StateAggregate(1, attribute_sums=(1.0,))
        two = StateAggregate(1, attribute_sums=(1.0, 2.0))
        with pytest.raises(ValueError) as want:
            merge_aggregates(one, two)
        a = Automaton(alphabet=("a",), states={0: one, 1: two}, accepting=frozenset(),
                      rejecting=frozenset(), transitions={}, start=0, next_id=2)
        arena = MergeArena(a, Edsm())
        outcome, frame = arena.run_merge(0, 1)
        assert not outcome.failed
        with pytest.raises(ValueError) as got:
            arena.pool(frame)
        assert str(got.value) == str(want.value) == "attribute arity mismatch: 1 vs 2"
        with pytest.raises(ValueError) as got:
            merge(a, 0, 1)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("heuristic", [Edsm(), Alergia(alpha=0.05), Mse()], ids=repr)
    @pytest.mark.parametrize("seed", range(4))
    def test_many_kept_merges_point_every_id_at_its_root(self, seed, heuristic):
        # ``pool`` re-points only the members of the classes a merge leaves
        # standing.  A member list that missed an id would leave that id two
        # steps from its root, which a handful of merges may never show.
        rng = random.Random(seed)
        sample = labeled_sample(rng, TargetDfa(rng, 6, 2), 80, 10, with_targets=True)
        arena = MergeArena(build_apta(sample), heuristic)
        kept = 0
        while kept < 35:
            live = [c for c in range(arena.next_id)
                    if arena.parent[c] == -1 and arena.out[c] is not None]
            if len(live) < 2:
                break
            outcome, frame = arena.run_merge(*rng.sample(live, 2))
            if outcome.label_conflict:
                arena.rollback(frame)
                continue
            before = list(arena.parent)
            arena.pool(frame)
            kept += 1
            for c in range(arena.next_id):
                root = c
                while before[root] >= 0:
                    root = before[root]
                assert arena.parent[c] == (-1 if root == c else root)
            self.assert_flat_and_pruned(arena)
        assert kept >= 30
        assert check_integrity(arena.extract()) == []


class TestFrameContract:
    """A trial's frame lists each folded pair once, in breadth-first fold order.

    The i-th pair's fresh class is ``next_id_before + i``, the ``(z, x, y)``
    view that a kept merge reads is derived from the pairs, and the order is
    that of a fold whose work queue is a ``deque`` drained from the left,
    seeded with the requested pair and fed each fold's target pairs in
    ascending symbol order.  The first pair whose labels conflict, or whose
    statistics the heuristic's fold refuses, ends the fold there.  Whatever
    the end, the arena has minted one id per folded pair, and a record is
    made only by a heuristic with an ``evidence`` factory.
    """

    @staticmethod
    def deque_fold(arena, heuristic, q1, q2):
        """How merging q1 and q2 ends ("ok", "refused" or "conflict"), and the pairs folded until then."""
        parent, label = list(arena.parent), list(arena.label)
        out = [None if m is None else dict(m) for m in arena.out]
        stats, fold = list(arena.stats), heuristic.fold
        make = getattr(heuristic, "evidence", None)
        evidence = make() if make is not None else None

        def find(s):
            while parent[s] >= 0:
                s = parent[s]
            return s

        pairs = []
        queue = deque([(q1, q2)])
        while queue:
            x, y = queue.popleft()
            x, y = find(x), find(y)
            if x == y:
                continue
            if None not in (label[x], label[y]) and label[x] != label[y]:
                return "conflict", pairs
            if fold is not None:
                pooled = fold(evidence, stats[x], stats[y])
                if pooled is None:
                    return "refused", pairs
                stats[arena.next_id + len(pairs)] = pooled
            merged = dict(out[x])
            for sym in sorted(out[y]):
                if sym in out[x]:
                    queue.append((out[x][sym], out[y][sym]))
                else:
                    merged[sym] = out[y][sym]
            z = arena.next_id + len(pairs)
            parent[x] = parent[y] = z
            out[z] = merged
            label[z] = label[y] if label[x] is None else label[x]
            pairs.append((x, y))
        return "ok", pairs

    @pytest.mark.parametrize("heuristic", [Edsm(), Alergia(alpha=0.05), Mse()])
    def test_frame_pairs_fresh_ids_and_order(self, heuristic):
        ends = Counter()
        for seed in range(60):
            rng = random.Random(seed)
            a = random_automaton(rng, max_states=12, n_syms=rng.choice((1, 2, 3)))
            arena = MergeArena(a, heuristic)
            for _ in range(12):
                live = [c for c in range(arena.next_id)
                        if arena.parent[c] == -1 and arena.out[c] is not None]
                if len(live) < 2:
                    break
                q1, q2 = rng.sample(live, 2)
                end, want = self.deque_fold(arena, heuristic, q1, q2)
                start = arena.next_id
                outcome, frame = arena.run_merge(q1, q2)
                assert frame.next_id_before == start
                assert outcome.label_conflict is (end == "conflict")
                assert outcome.refused is (end == "refused")
                assert outcome.failed is (end != "ok")
                assert frame.pairs == want
                # the arena minted one id per pair, from next_id_before up,
                # inside the lists it sized once
                assert arena.next_id == start + len(want) <= len(arena.parent)
                assert len(arena.parent) == 2 * a.next_id
                ends[end] += 1
                if end != "ok":  # fails its score, and is never pooled
                    assert heuristic.score(outcome).failed
                    arena.rollback(frame)
                    continue
                assert list(outcome.merged_pairs) == want
                assert (outcome.evidence is None) is (getattr(heuristic, "evidence", None) is None)
                assert frame.created == [
                    (frame.next_id_before + i, x, y)
                    for i, (x, y) in enumerate(outcome.merged_pairs)
                ]
                for z, x, y in frame.created:
                    assert arena.parent[x] == arena.parent[y] == z
                if rng.random() < 0.3:
                    arena.pool(frame)
                else:
                    arena.rollback(frame)
        assert ends["ok"] and ends["conflict"]
        if isinstance(heuristic, Alergia):
            assert ends["refused"]


def relabel(a, f, next_id):
    """``a`` with every state id ``q`` renamed ``f(q)`` and the given ``next_id``."""
    return dataclasses.replace(
        a,
        states={f(q): g for q, g in a.states.items()},
        accepting=frozenset(map(f, a.accepting)),
        rejecting=frozenset(map(f, a.rejecting)),
        transitions={(f(src), sym): f(dst) for (src, sym), dst in a.transitions.items()},
        start=f(a.start),
        next_id=next_id,
    )


def sparse_names(rng, n, width):
    """A renaming of ids 0..n-1 onto sorted ids below ``width``, and the next_id above them.

    The fresh ids a merge mints follow next_id on both sides, so ids from n
    on map past the new next_id.
    """
    ids = sorted(rng.sample(range(width), n))
    top = ids[-1] + 1 + rng.randrange(4)
    return (lambda q: ids[q] if q < n else q - n + top), top


class TestSparseIds:
    """Merging a model whose ids have holes, as a learned or loaded one has.

    ``random_automaton`` numbers its states 0..n-1.  Renaming them onto sorted
    ids with gaps, below a ``next_id`` above the largest, must change nothing
    but the names: the fresh ids then start at that ``next_id``, and the
    merge order, which follows symbols and not ids, stays the same.  ``merge``
    renumbers the ids first, so its gaps may be as wide as 10**12; an arena
    holds one entry per id, so the trial scores run over narrow gaps.
    """

    @given(st.integers(0, 10_000_000))
    @settings(max_examples=150, deadline=None)
    def test_sparse_ids_merge_like_dense_ones(self, seed):
        rng = random.Random(seed)
        a = random_automaton(rng, max_states=12, n_syms=rng.choice((1, 2, 3)))
        n = a.next_id
        f, top = sparse_names(rng, n, 10**12)
        sparse = relabel(a, f, top)
        g, g_top = sparse_names(rng, n, 3 * n)
        holed = relabel(a, g, g_top)
        assert check_integrity(sparse) == [] and check_integrity(holed) == []
        pairs = [(p, q) for p in range(n) for q in range(n) if p != q]
        for q1, q2 in rng.sample(pairs, min(len(pairs), 6)):
            dense_out = merge(a, q1, q2)
            sparse_out = merge(sparse, f(q1), f(q2))
            assert sparse_out.failed == dense_out.failed
            assert sparse_out.merged_pairs == tuple((f(x), f(y)) for x, y in dense_out.merged_pairs)
            assert sparse_out.label_matches == dense_out.label_matches
            if not dense_out.failed:
                assert sparse_out.result == relabel(dense_out.result, f, f(dense_out.result.next_id))
            for h in (Edsm(), Alergia(), Mse()):
                want = trial(h, a, q1, q2)
                assert trial(h, holed, g(q1), g(q2)) == want

    def test_merge_cost_follows_the_states_not_the_ids(self):
        # two states, ids 0 and 2 000 000: an arena sized by next_id would
        # hold millions of entries for them
        a = build_apta(parse_abbadingo("1 1 0\n"))
        wide = relabel(a, lambda q: 2_000_000 * q, 2_000_001)
        tracemalloc.start()
        try:
            out = merge(wide, 0, 2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert out.merged_pairs == ((0, 2_000_000),)
        assert out.result == relabel(merge(a, 0, 1).result, lambda q: q + 1_999_999, 2_000_002)

    def test_merge_accepts_negative_ids(self):
        a = random_automaton(random.Random(5), max_states=4)

        def f(q):  # fresh ids still start at next_id
            return q - 2 if q < a.next_id else q

        shifted = relabel(a, f, a.next_id)
        for q1, q2 in ((0, 1), (1, 0), (0, a.next_id - 1)):
            want = merge(a, q1, q2)
            got = merge(shifted, f(q1), f(q2))
            assert got.merged_pairs == tuple((f(x), f(y)) for x, y in want.merged_pairs)
            if not want.failed:
                assert got.result == relabel(want.result, f, want.result.next_id)

    def test_negative_ids_rejected(self):
        a = random_automaton(random.Random(5), max_states=4)
        with pytest.raises(ValueError, match="negative state id -2"):
            MergeArena(relabel(a, lambda q: q - 2, a.next_id), Edsm())

    @pytest.mark.parametrize("transitions, message", [
        ({(0, 0): 2}, "transition target 2 not in state set"),
        ({(0, 0): 1, (3, 0): 1}, "transition source 3 not in state set"),
    ], ids=["target", "source"])
    def test_dangling_transitions_rejected(self, transitions, message):
        # the lists have room for fresh ids past next_id, so an arena that took
        # a target there would merge a scratch entry instead of failing
        a = TestCallerErrors.two_states(transitions=transitions)
        for heuristic in (Edsm(), Alergia(), Mse()):
            with pytest.raises(ValueError) as err:
                MergeArena(a, heuristic)
            assert str(err.value) == message

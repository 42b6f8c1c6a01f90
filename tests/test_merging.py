"""Merge-with-determinization engine against a brute-force reference."""

import copy
import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexautomata import (
    Alergia,
    Edsm,
    Mse,
    StateAggregate,
    build_apta,
    check_integrity,
    evidence_alergia,
    evidence_edsm,
    evidence_mse,
    language_upto,
    merge,
    merge_aggregates,
    parse_abbadingo,
    parse_augmented,
    save_model,
)
from flexautomata.learner import trial_score
from flexautomata.merging import MergeArena
from gen import random_automaton
from oracle_merge import integer_sums, reference_language, reference_merge, reference_score


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
        score = evidence_mse(a, a.transitions[(0, 0)], a.transitions[(a.transitions[(0, 0)], 0)])
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
    """Trials pool only what their heuristic reads, yet score like fully pooled merges."""

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
        pairs = [(r, b) for r in ids for b in ids if r != b]
        for r, b in rng.sample(pairs, min(len(pairs), 12)):
            out = merge(a, r, b)
            expected = reference_score(a, None if out.failed else out.merged_pairs, heuristic)
            assert trial_score(arena, r, b, heuristic) == expected


class TestTrialsLeaveNoTrace:
    """Trial merges undo every write; kept merges carry exact statistics, flat and pruned.

    Out-maps and ALERGIA's count maps are shared between classes rather than
    copied, which is sound only if nothing writes to them after they are
    made; the snapshots below are deep copies, so a write through a shared
    map would show.  The per-class lists hold one entry per id below
    ``next_id``, so a trial that left an entry behind would also show there.
    """

    @staticmethod
    def snapshot(arena):
        return copy.deepcopy((
            arena.parent, arena.out, arena.label, arena.stats, arena.agg, arena.next_id,
        ))

    @staticmethod
    def assert_one_entry_per_id(arena):
        n = arena.next_id
        assert len(arena.parent) == len(arena.out) == len(arena.label) == n
        assert len(arena.stats) == (n if arena.fold is not None else 0)

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
                self.assert_one_entry_per_id(arena)
                assert self.snapshot(arena) == before
            outcome, frame = arena.run_merge(*rng.sample(live, 2))
            self.assert_one_entry_per_id(arena)
            if outcome.label_conflict:
                assert self.snapshot(arena) == before
                continue
            # every class the merge made, intermediate ones included, carries
            # the statistic of its pooled aggregate
            agg = dict(arena.agg)
            for z, x, y in frame.created:
                agg[z] = merge_aggregates(agg[x], agg[y])
                if arena.fold is not None:
                    assert arena.stats[z] == heuristic.statistic(agg[z])
            arena.pool(frame)
            self.assert_one_entry_per_id(arena)
            self.assert_flat_and_pruned(arena)
            assert arena.agg == {c: agg[c] for c in arena.agg}
            assert check_integrity(arena.extract()) == []
        assert arena.base is a and a == base


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


class TestSparseIds:
    """Merging a model whose ids have holes, as a learned or loaded one has.

    ``random_automaton`` numbers its states 0..n-1.  Renaming them onto sorted
    ids with gaps, below a ``next_id`` above the largest, must change nothing
    but the names: the fresh ids then start at that ``next_id``, and the
    merge order, which follows symbols and not ids, stays the same.
    """

    @given(st.integers(0, 10_000_000))
    @settings(max_examples=150, deadline=None)
    def test_sparse_ids_merge_like_dense_ones(self, seed):
        rng = random.Random(seed)
        a = random_automaton(rng, max_states=12, n_syms=rng.choice((1, 2, 3)))
        n = a.next_id
        ids = sorted(rng.sample(range(3 * n), n))
        top = ids[-1] + 1 + rng.randrange(4)

        def f(q):  # the fresh ids a merge mints follow next_id on both sides
            return ids[q] if q < n else q - n + top

        sparse = relabel(a, f, top)
        assert check_integrity(sparse) == []
        pairs = [(p, q) for p in range(n) for q in range(n) if p != q]
        for q1, q2 in rng.sample(pairs, min(len(pairs), 6)):
            dense_out = merge(a, q1, q2)
            sparse_out = merge(sparse, f(q1), f(q2))
            assert sparse_out.failed == dense_out.failed
            assert sparse_out.merged_pairs == tuple((f(x), f(y)) for x, y in dense_out.merged_pairs)
            assert sparse_out.label_matches == dense_out.label_matches
            if not dense_out.failed:
                assert sparse_out.result == relabel(dense_out.result, f, f(dense_out.result.next_id))
            for evidence in (evidence_edsm, evidence_alergia, evidence_mse):
                assert evidence(sparse, f(q1), f(q2)) == evidence(a, q1, q2)

    def test_negative_ids_rejected(self):
        a = random_automaton(random.Random(5), max_states=4)
        with pytest.raises(ValueError, match="negative state id -2"):
            MergeArena(relabel(a, lambda q: q - 2, a.next_id))

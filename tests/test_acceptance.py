"""End-to-end acceptance checks, one test per numbered criterion.

Each test is self-timed where a budget applies and uses fixed seeds
throughout, so the whole module is reproducible run to run.  The summary
hook in conftest prints one PASS/FAIL line per criterion after the run.
"""

import math
import random
import time
from itertools import product

import pytest

from flexautomata import (
    Alergia,
    Edsm,
    LearnerConfig,
    Mse,
    Outcome,
    SymbolInstance,
    Trace,
    build_apta,
    check_integrity,
    compute,
    discretize,
    evaluate,
    global_target_mean,
    learn,
    load_model,
    merge,
    parse_abbadingo,
    parse_augmented,
    predict_value,
    sample_words,
    save_model,
    DiscretizationSpec,
)
from gen import TargetDfa, complete_sample, even_ones_dfa, labeled_sample, random_automaton
from oracle_automaton import language_upto, structural_tree_check
from oracle_merge import fold_refuses, reference_language, reference_merge

HEURISTICS = (Edsm(), Alergia(alpha=0.05), Mse(penalty=0.0))


def _consistent(model, sample) -> bool:
    for w in sample.positive_words:
        if compute(model, w).outcome is not Outcome.ACCEPT:
            return False
    for w in sample.negative_words:
        if compute(model, w).outcome is Outcome.ACCEPT:
            return False
    return True


def _interesting_target(rng: random.Random) -> TargetDfa:
    """A random small machine whose short-word language is not one-sided."""
    dfa = None
    for _ in range(50):
        dfa = TargetDfa(rng, rng.randint(2, 6), rng.choice((2, 3)))
        seen = {
            dfa.accepts(w)
            for length in range(5)
            for w in product(range(dfa.n_syms), repeat=length)
        }
        if seen == {True, False}:
            return dfa
    return dfa


def _with_targets(sample):
    """The same classification sample with a constant target on every symbol."""
    traces = tuple(
        Trace(
            t.label,
            tuple(SymbolInstance(s.symbol, s.attributes, 0.0) for s in t.symbols),
        )
        for t in sample.traces
    )
    return type(sample)(traces, sample.alphabet, sample.attribute_arity)


def test_c1_consistency_every_heuristic(ref_sample):
    """Learned models accept all positives and reject all negatives."""
    t0 = time.perf_counter()
    for heuristic in HEURISTICS:
        sample = _with_targets(ref_sample) if isinstance(heuristic, Mse) else ref_sample
        model, _ = learn(sample, LearnerConfig(heuristic=heuristic))
        assert _consistent(model, sample)

    rng = random.Random(20260819)
    for _ in range(200):
        dfa = _interesting_target(rng)
        n = rng.randint(50, 500)
        sample = labeled_sample(rng, dfa, n, max_len=8, with_targets=True)
        for heuristic in HEURISTICS:
            model, _ = learn(sample, LearnerConfig(heuristic=heuristic))
            assert _consistent(model, sample), (
                f"inconsistent model under {type(heuristic).__name__}"
            )
    assert time.perf_counter() - t0 < 60.0


def test_c2_prefix_tree_correctness():
    """The tree's language is exactly the positive words, and it is a tree."""
    rng = random.Random(1119)
    for _ in range(100):
        dfa = _interesting_target(rng)
        sample = labeled_sample(rng, dfa, rng.randint(20, 150), max_len=8)
        a = build_apta(sample)
        assert structural_tree_check(a)
        assert check_integrity(a) == []
        longest = max((len(t.word) for t in sample.traces), default=0)
        assert language_upto(a, longest) == sorted(
            set(sample.positive_words), key=lambda w: (len(w), w)
        )


def test_c3_merge_matches_brute_force():
    """Engine merges agree with an independent reference on 500 random cases."""
    rng = random.Random(7341)
    done = 0
    while done < 500:
        a = random_automaton(rng, max_states=30, n_syms=rng.choice((1, 2, 3)))
        ids = sorted(a.states)
        if len(ids) < 2:
            continue
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
        done += 1


def test_c4_even_ones_recovery():
    """The two-state target is recovered exactly from its complete sample."""
    t0 = time.perf_counter()
    target = even_ones_dfa()
    sample = complete_sample(target, 7)
    model, _ = learn(sample, LearnerConfig(heuristic=Edsm()))
    learned = language_upto(model, 12)
    truth = [
        w
        for length in range(13)
        for w in product(range(2), repeat=length)
        if target.accepts(w)
    ]
    assert learned == sorted(truth, key=lambda w: (len(w), w))
    assert time.perf_counter() - t0 < 5.0


def test_c5_parser_fidelity(ref_text):
    """The bundled example file parses to the documented shape."""
    for parser in (parse_abbadingo, parse_augmented):
        sample = parser(ref_text)
        assert len(sample.traces) == 13
        assert len(sample.positive_words) == 8
        assert len(sample.negative_words) == 5
        assert sample.alphabet == ("0", "1")


def test_c6_regression_sanity():
    """Learned predictions beat the global mean and equal per-state means."""
    t0 = time.perf_counter()
    rng = random.Random(5150)
    levels = (0.0, 5.0, 10.0)
    series = []
    level = levels[0]
    for i in range(2000):
        if i % 100 == 0:
            level = rng.choice(levels)
        series.append(level + rng.gauss(0.0, 0.1))

    sample = discretize(series, DiscretizationSpec(bins=3, window=3))
    model, _ = learn(sample, LearnerConfig(heuristic=Mse(penalty=0.0)))

    report = evaluate(model, sample)
    mean = global_target_mean(model)
    targets = [t.symbols[-1].target for t in sample.traces]
    baseline = sum((v - mean) ** 2 for v in targets) / len(targets)
    assert report.mse is not None
    assert report.mse <= baseline + 1e-12

    # independent regrouping of the training targets by reached state
    by_state: dict[int, list[float]] = {}
    for trace in sample.traces:
        cur = model.start
        for inst in trace.symbols:
            cur = model.transitions[(cur, inst.symbol)]
        by_state.setdefault(cur, []).append(trace.symbols[-1].target)
    for q, values in by_state.items():
        grouped_mean = sum(values) / len(values)
        for trace in sample.traces:
            cur = model.start
            for inst in trace.symbols:
                cur = model.transitions[(cur, inst.symbol)]
            if cur == q:
                assert predict_value(model, trace.word) == pytest.approx(
                    grouped_mean, abs=1e-9
                )
                break
    assert time.perf_counter() - t0 < 30.0


def test_c7_generated_words_are_accepted(ref_sample):
    """Seeded sampling stays inside the model's language and reruns identically."""
    model, _ = learn(ref_sample, LearnerConfig(heuristic=Edsm()))
    words = sample_words(model, 1000, seed=97, max_len=40)
    assert len(words) == 1000
    for w in words:
        assert compute(model, w).outcome is Outcome.ACCEPT
    again = sample_words(model, 1000, seed=97, max_len=40)
    assert again == words
    first_text = "\n".join(" ".join(map(str, w)) for w in words)
    second_text = "\n".join(" ".join(map(str, w)) for w in again)
    assert first_text == second_text


def test_c8_determinism_and_persistence(ref_sample):
    """Model text survives a load/save cycle and reruns byte-identically."""
    for heuristic in HEURISTICS:
        sample = _with_targets(ref_sample) if isinstance(heuristic, Mse) else ref_sample
        cfg = LearnerConfig(heuristic=heuristic)
        first = save_model(learn(sample, cfg)[0])
        second = save_model(learn(sample, cfg)[0])
        assert first == second
        assert save_model(load_model(first)) == first

    rng = random.Random(2718)
    for _ in range(5):
        dfa = _interesting_target(rng)
        sample = labeled_sample(rng, dfa, rng.randint(50, 200), max_len=8)
        first = save_model(learn(sample)[0])
        second = save_model(learn(sample)[0])
        assert first == second
        assert save_model(load_model(first)) == first


def test_c9_frequency_test_spot_check():
    """ALERGIA's compatibility test matches a direct evaluation of its bound."""
    alergia = Alergia(0.05)
    # Two states visited 10 times each, ending 10 and 0 times, then 3 and 3.
    assert fold_refuses(alergia, (10, {}, 10), (10, {}, 0))
    assert not fold_refuses(alergia, (10, {}, 3), (10, {}, 3))
    direct = math.sqrt(0.5 * math.log(2.0 / 0.05)) * (
        1.0 / math.sqrt(10) + 1.0 / math.sqrt(10)
    )
    bound = alergia._bound_scale * (1.0 / math.sqrt(10) + 1.0 / math.sqrt(10))
    assert abs(bound - direct) < 1e-9

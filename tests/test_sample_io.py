"""Trace parsing, serialization round-trips, DOT output, model persistence."""

import dataclasses
import hashlib
import math
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexautomata import (
    InconsistentSampleError,
    LearnerConfig,
    Mse,
    Sample,
    SampleFormatError,
    ModelFormatError,
    SymbolInstance,
    Trace,
    TraceLabel,
    build_apta,
    learn,
    load_model,
    merge,
    parse_abbadingo,
    parse_augmented,
    save_model,
    write_dot,
    write_sample,
)
from flexautomata.sample_io import MAX_ALPHABET_SIZE
from dot_check import DotSyntaxError, check_dot
from gen import even_ones_dfa, labeled_sample, random_automaton
from golden import cases, reparsed
from oracle_automaton import language_upto
import oracle_io
import random


class TestAbbadingoParsing:
    def test_reference_file_counts(self, ref_sample):
        assert len(ref_sample.traces) == 13
        assert len(ref_sample.positive_words) == 8
        assert len(ref_sample.negative_words) == 5
        assert ref_sample.alphabet == ("0", "1")

    def test_single_line(self):
        sample = parse_abbadingo("1 2 0 0\n")
        assert sample.traces == (
            Trace(TraceLabel.POSITIVE, (SymbolInstance(0), SymbolInstance(0))),
        )

    def test_empty_positive_trace(self):
        sample = parse_abbadingo("1 0\n")
        assert len(sample.traces) == 1
        assert sample.traces[0].label is TraceLabel.POSITIVE
        assert sample.traces[0].word == ()

    def test_header_is_validated(self):
        sample = parse_abbadingo("2 2\n1 1 0\n0 1 1\n")
        assert len(sample.traces) == 2
        assert sample.alphabet == ("0", "1")

    def test_header_alphabet_widens_inferred_one(self):
        sample = parse_abbadingo("1 4\n1 1 0\n")
        assert sample.alphabet == ("0", "1", "2", "3")

    def test_header_trace_count_mismatch(self):
        with pytest.raises(SampleFormatError):
            parse_abbadingo("3 2\n1 1 0\n")

    def test_symbol_beyond_declared_alphabet(self):
        with pytest.raises(SampleFormatError) as err:
            parse_abbadingo("1 2\n1 1 5\n")
        assert "line 2" in str(err.value)

    def test_length_mismatch_has_line_number(self):
        with pytest.raises(SampleFormatError) as err:
            parse_abbadingo("1 1 0\n1 3 0 0\n")
        assert "line 2" in str(err.value)

    def test_bad_label(self):
        with pytest.raises(SampleFormatError):
            parse_abbadingo("2 17 0\n1 1 0\n")  # not a header: three tokens follow

    def test_unlabeled_marker_needs_extended_format(self):
        with pytest.raises(SampleFormatError):
            parse_abbadingo("? 1 0\n")

    def test_symbols_are_bounded(self):
        assert len(parse_abbadingo(f"1 1 {MAX_ALPHABET_SIZE - 1}\n").alphabet) == MAX_ALPHABET_SIZE
        for parser in (parse_abbadingo, parse_augmented):
            with pytest.raises(SampleFormatError) as err:
                parser(f"1 0\n1 1 {MAX_ALPHABET_SIZE}\n")
            assert err.value.line == 2
        with pytest.raises(SampleFormatError) as err:
            parse_augmented("? 2 0 1000000:1.0/2.0\n")
        assert err.value.line == 1

    def test_header_alphabet_is_bounded(self):
        assert len(parse_abbadingo(f"1 {MAX_ALPHABET_SIZE}\n1 0\n").alphabet) == MAX_ALPHABET_SIZE
        for parser in (parse_abbadingo, parse_augmented):
            with pytest.raises(SampleFormatError) as err:
                parser(f"1 {MAX_ALPHABET_SIZE + 1}\n1 0\n")
            assert err.value.line == 1

    def test_equal_bare_tokens_share_one_instance(self):
        sample = parse_abbadingo("2 3\n1 3 0 1 0\n0 2 1 2\n")
        first, second = (t.symbols for t in sample.traces)
        assert first[0] is first[2]
        assert first[1] is second[0]
        assert [s.symbol for s in first + second] == [0, 1, 0, 1, 2]

    def test_parse_peak_stays_below_twice_the_sample(self):
        # Each line is split when the parse reaches it, so a parse holds the
        # text's lines and the sample it builds, not every line's tokens.
        rng = random.Random(0)
        lines = ["20000 4"]
        for _ in range(20_000):
            word = [str(rng.randrange(4)) for _ in range(rng.randint(0, 20))]
            lines.append(" ".join([str(rng.randint(0, 1)), str(len(word)), *word]))
        text = "\n".join(lines) + "\n"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sample = parse_abbadingo(text)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sample.traces) == 20_000
        assert peak - base < 2 * (size - base)

    def test_negative_length_names_its_line(self):
        for parser in (parse_abbadingo, parse_augmented):
            with pytest.raises(SampleFormatError) as err:
                parser("1 -1 0\n")
            assert str(err.value) == "line 1: negative length -1"

    def test_annotated_symbols_need_extended_format(self):
        with pytest.raises(SampleFormatError):
            parse_abbadingo("1 1 0:1.5/0.2\n")


class TestAugmentedParsing:
    def test_attributes_and_target(self):
        sample = parse_augmented("? 2 0:1.5/0.2 1:2.5/-0.1\n")
        trace = sample.traces[0]
        assert trace.label is TraceLabel.UNLABELED
        assert trace.symbols[0] == SymbolInstance(0, (1.5,), 0.2)
        assert trace.symbols[1] == SymbolInstance(1, (2.5,), -0.1)
        assert sample.attribute_arity == 1

    def test_target_without_attributes(self):
        sample = parse_augmented("? 1 3/0.25\n")
        assert sample.traces[0].symbols[0] == SymbolInstance(3, (), 0.25)

    def test_attributes_without_target(self):
        sample = parse_augmented("1 1 0:1.0,2.0\n")
        assert sample.traces[0].symbols[0] == SymbolInstance(0, (1.0, 2.0), None)

    def test_plain_lines_still_parse(self, ref_text, ref_sample):
        assert parse_augmented(ref_text) == ref_sample

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SampleFormatError) as err:
            parse_augmented("1 1 0:1.0\n0 1 0:1.0,2.0\n")
        assert "arity" in str(err.value)

    @pytest.mark.parametrize("line", [
        "1 1 0/nan", "1 1 0/inf", "? 2 0 1/-inf",
        "1 1 0:nan", "1 1 0:1.0,inf/2.0", "? 1 0:-Infinity",
    ])
    def test_non_finite_values_rejected_with_line(self, line):
        with pytest.raises(SampleFormatError) as err:
            parse_augmented("1 1 0/1.5\n" + line + "\n")
        assert err.value.line == 2

    def test_equal_attribute_tokens_share_one_instance(self):
        sample = parse_augmented("2 3\n? 2 0:1.5 1:2.5\n? 2 1:2.5 0:1.5\n")
        first, second = (t.symbols for t in sample.traces)
        assert first[0] is second[1] and first[1] is second[0]
        assert first == (SymbolInstance(0, (1.5,)), SymbolInstance(1, (2.5,)))

    def test_plain_symbols_among_annotated_are_fine(self):
        sample = parse_augmented("? 2 0 1:2.0\n")
        assert sample.attribute_arity == 1


class TestSampleRoundTrip:
    @staticmethod
    def samples():
        floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
        def trace(arity):
            def inst(sym):
                return st.builds(
                    SymbolInstance,
                    symbol=st.just(sym),
                    attributes=st.one_of(
                        st.just(()),
                        st.tuples(*[floats] * arity) if arity else st.just(()),
                    ),
                    target=st.one_of(st.none(), floats),
                )
            return st.lists(
                st.integers(0, 3).flatmap(inst), max_size=6
            ).map(tuple).flatmap(
                lambda syms: st.sampled_from(list(TraceLabel)).map(
                    lambda lab: Trace(lab, syms)
                )
            )
        return st.integers(0, 2).flatmap(
            lambda arity: st.lists(trace(arity), max_size=8).map(
                lambda traces: Sample(
                    tuple(traces),
                    tuple(str(i) for i in range(4)),
                    arity if any(
                        s.attributes for t in traces for s in t.symbols
                    ) else 0,
                )
            )
        )

    @given(samples())
    @settings(max_examples=120, deadline=None)
    def test_write_then_parse_is_identity(self, sample):
        assert parse_augmented(write_sample(sample)) == sample

    def test_empty_sample_round_trips(self):
        empty = Sample((), (), 0)
        assert write_sample(empty) == ""
        assert parse_augmented("") == empty

    def test_plain_sample_round_trips_through_classic_parser(self, ref_sample):
        assert parse_abbadingo(write_sample(ref_sample)) == ref_sample

    @given(st.text(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_parser_is_total(self, text):
        for parser in (parse_abbadingo, parse_augmented):
            try:
                parser(text)
            except SampleFormatError:
                pass


class TestDotOutput:
    def test_checker_rejects_garbage(self):
        for bad in ("", "digraph {", "digraph g { s0 -> }", "graph g { a -- b", "nonsense"):
            with pytest.raises(DotSyntaxError):
                check_dot(bad)

    def test_reference_model_renders_valid_dot(self, ref_sample):
        model, _ = learn(ref_sample)
        check_dot(write_dot(model))

    def test_apta_renders_valid_dot(self, ref_apta):
        check_dot(write_dot(ref_apta))

    def test_random_automata_render_valid_dot(self):
        rng = random.Random(3)
        for _ in range(25):
            check_dot(write_dot(random_automaton(rng, 12)))

    def test_accepting_states_are_double_circles(self, ref_apta):
        dot = write_dot(ref_apta)
        q = sorted(ref_apta.accepting)[0]
        assert any("doublecircle" in ln for ln in dot.splitlines() if f"s{q} " in ln)

    def test_rejecting_states_are_marked(self, ref_apta):
        dot = write_dot(ref_apta)
        q = sorted(ref_apta.rejecting)[0]
        line = next(ln for ln in dot.splitlines() if ln.strip().startswith(f"s{q} "))
        assert "box" in line

    def test_counts_in_square_brackets(self, ref_apta):
        dot = write_dot(ref_apta)
        root_line = next(
            ln for ln in dot.splitlines() if ln.strip().startswith(f"s{ref_apta.start} ")
        )
        assert f"[{len(ref_apta.states[ref_apta.start].out_counts) and 13}]" in root_line

    def test_node_label_puts_the_count_under_the_id(self, ref_apta):
        # one backslash: Graphviz reads \n in a label as a line break, and \\n
        # as a backslash followed by the letter n
        q = ref_apta.start
        line = next(ln for ln in write_dot(ref_apta).splitlines() if ln.startswith(f"  s{q} ["))
        assert line.endswith(f'label="{q}\\n[{ref_apta.states[q].total_count}]"];')

    def test_rendering_is_pinned(self, ref_sample, ref_apta):
        # the reference model, its prefix tree, and a learned MSE model whose
        # states hold targets, so that means are rendered too
        factory, cfg = cases()["mse-0.0-steps-0"]
        steps, _ = learn(reparsed(factory()), cfg)
        models = (learn(ref_sample)[0], ref_apta, steps)
        assert [hashlib.sha256(write_dot(m).encode("utf-8")).hexdigest() for m in models] == [
            "4d0f093d8f6cc1d1396015394b243a48b159f39e01748b0f4e3bbe6a518d41ba",
            "aaee99d9ba59ce09e8534b002ecac32171c9f543cedd218092c43a88771a1594",
            "e6203287cfc2950e0313d5c31d6a574d9d51f6d54691bb339c959ea79063e36f",
        ]

    def test_names_that_need_escaping_are_pinned(self):
        # a quote, a backslash, and an escaped quote in symbol names; the
        # last symbol is outside a two-name alphabet and shows as its number
        a = build_apta(parse_augmented("1 2 0/1.5 1\n0 1 2/0.25\n? 3 0 0 2\n"))
        a = dataclasses.replace(a, alphabet=('a"b', "c\\d", 'e\\"f'))
        assert write_dot(a) == r"""digraph automaton {
  rankdir=LR;
  __start [shape=point, label=""];
  __start -> s0;
  s0 [shape=circle, label="0\n[3]"];
  s1 [shape=circle, label="1\n[2]\n1.5"];
  s2 [shape=box, label="2\n[1]\n0.25"];
  s3 [shape=circle, label="3\n[1]"];
  s4 [shape=doublecircle, label="4\n[1]"];
  s5 [shape=circle, label="5\n[1]"];
  s0 -> s1 [label="a\"b [2]"];
  s0 -> s2 [label="e\\\"f [1]"];
  s1 -> s3 [label="a\"b [1]"];
  s1 -> s4 [label="c\\d [1]"];
  s3 -> s5 [label="e\\\"f [1]"];
}
"""
        check_dot(write_dot(a))
        short = dataclasses.replace(a, alphabet=a.alphabet[:2])
        assert '  s0 -> s2 [label="2 [1]"];' in write_dot(short).splitlines()

    def test_means_shown_when_targets_present(self):
        sample = parse_augmented("? 1 0/2.0\n? 1 0/4.0\n")
        dot = write_dot(build_apta(sample))
        assert "3" in dot  # mean of 2.0 and 4.0


class TestModelPersistence:
    def test_save_load_save_is_byte_identical(self, ref_sample):
        model, _ = learn(ref_sample)
        text = save_model(model)
        assert save_model(load_model(text)) == text

    def test_language_preserved(self, ref_sample):
        model, _ = learn(ref_sample)
        again = load_model(save_model(model))
        assert language_upto(again, 10) == language_upto(model, 10)

    def test_aggregates_preserved_field_by_field(self, ref_apta):
        again = load_model(save_model(ref_apta))
        assert set(again.states) == set(ref_apta.states)
        for q, agg in ref_apta.states.items():
            other = again.states[q]
            assert other.total_count == agg.total_count
            assert other.end_pos_count == agg.end_pos_count
            assert other.end_neg_count == agg.end_neg_count
            assert dict(other.out_counts) == {
                k: v for k, v in agg.out_counts.items() if v
            }
            assert other.target_count == agg.target_count
            assert math.isclose(other.target_sum, agg.target_sum, abs_tol=1e-12)
            assert math.isclose(other.target_sumsq, agg.target_sumsq, abs_tol=1e-12)

    def test_targets_and_attributes_survive(self):
        sample = parse_augmented("? 2 0:1.5/0.25 1:2.5/-0.125\n? 1 0:0.5/0.375\n")
        a = build_apta(sample)
        again = load_model(save_model(a))
        assert again.attribute_arity == 1
        for q in a.states:
            assert again.states[q].attribute_sums == a.states[q].attribute_sums
            assert again.states[q].target_sum == a.states[q].target_sum

    def test_random_automata_round_trip(self):
        rng = random.Random(9)
        for _ in range(30):
            a = random_automaton(rng, 15)
            text = save_model(a)
            assert save_model(load_model(text)) == text

    def test_merged_automata_round_trip(self):
        rng = random.Random(10)
        sample = labeled_sample(rng, even_ones_dfa(), 60, 6)
        a = build_apta(sample)
        out = merge(a, 0, 1)
        if out.result is not None:
            text = save_model(out.result)
            assert save_model(load_model(text)) == text

    @pytest.mark.parametrize("kind", ["alphabet", "attributes", "start"])
    def test_bare_line_names_its_number(self, ref_apta, kind):
        lines = save_model(ref_apta).splitlines()
        no = next(i for i, ln in enumerate(lines, 1) if ln.startswith(kind + " "))
        lines[no - 1] = kind
        with pytest.raises(ModelFormatError) as err:
            load_model("\n".join(lines) + "\n")
        assert err.value.line == no
        assert f"line {no}:" in str(err.value)

    @pytest.mark.parametrize("kind, replacement", [
        ("start", "start 0 junk"),
        ("attributes", "attributes 0 x"),
        ("attributes", "attributes -1"),
        ("start", "start 0\nstart 0"),
        ("alphabet", "alphabet 2 0 1\nalphabet 2 0 1"),
        ("attributes", "attributes 0\nattributes 0"),
    ])
    def test_malformed_header_line_names_its_number(self, ref_apta, kind, replacement):
        lines = save_model(ref_apta).splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith(kind + " "))
        lines[i:i + 1] = replacement.splitlines()
        no = i + len(replacement.splitlines())  # the last replacement line is the bad one
        with pytest.raises(ModelFormatError) as err:
            load_model("\n".join(lines) + "\n")
        assert err.value.line == no

    def test_alphabet_names_must_match_their_count(self):
        with pytest.raises(ModelFormatError) as err:
            load_model("flexautomata-model 1\nalphabet 2 a\nattributes 0\n"
                       "state 0 unl 0 0.0 0.0 0 0 0\nstart 0\n")
        assert str(err.value) == "line 2: alphabet declares 2 names, found 1"

    def test_alphabet_is_bounded(self):
        names = " ".join(str(i) for i in range(MAX_ALPHABET_SIZE + 1))
        text = f"flexautomata-model 1\nalphabet {MAX_ALPHABET_SIZE + 1} {names}\n"
        with pytest.raises(ModelFormatError) as err:
            load_model(text + "attributes 0\nstate 0 unl 0 0.0 0.0 0 0 0\nstart 0\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("state, message", [
        ("state 0 acc 1 0.0 0.0 5 7 0", "state 0 labeled end counts exceed its trace ends"),
        ("state 0 unl 2 0.0 -1.0 0 0 2", "state 0 has a negative target sum of squares"),
        ("state 0 unl 2 3.0 0.0 0 0 0", "state 0 has target sums but no targets"),
        ("state 0 unl 2 0.0 4.0 0 0 0", "state 0 has target sums but no targets"),
        ("state 0 unl 2 4.0 1.0 0 0 2", "state 0 has target sums with a negative squared error"),
    ])
    def test_impossible_state_aggregates_are_rejected(self, state, message):
        with pytest.raises(ModelFormatError) as err:
            load_model(f"flexautomata-model 1\nalphabet 0\nattributes 0\n{state}\nstart 0\n")
        assert str(err.value) == f"line 4: {message}"

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_an_integrity_error_names_the_line_it_concerns(self, seed):
        # Break one line of a saved model: a dangling target on a trans line,
        # labeled end counts above the trace ends on a state line, or a start
        # state that is no state.  The load names that line and that violation.
        rng = random.Random(seed)
        a = random_automaton(rng, 10, rng.randint(1, 3))
        lines = save_model(a).splitlines()
        i = rng.choice([i for i, ln in enumerate(lines)
                        if ln.split()[0] in ("trans", "state", "start")])
        tokens = lines[i].split()
        absent = rng.choice([-1 - rng.randrange(3), max(a.states) + 1 + rng.randrange(3)])
        if tokens[0] == "trans":
            tokens[3] = str(absent)
            first = f"transition target {absent} not in state set"
        elif tokens[0] == "state":
            tokens[6] = str(int(tokens[3]) + rng.randint(1, 3))
            first = f"state {tokens[1]} labeled end counts exceed its trace ends"
        else:
            tokens[1] = str(absent)
            first = f"start state {absent} not in state set"
        lines[i] = " ".join(tokens)
        with pytest.raises(ModelFormatError) as err:
            load_model("\n".join(lines) + "\n")
        assert err.value.line == i + 1
        assert str(err.value).split("; ")[0] == f"line {i + 1}: {first}"

    @pytest.mark.parametrize("values", [
        [1e152] * 1000,  # sum * sum overflows; the check must not
        [1.9877848624088344e-160, 1.9731738396639936e-160],  # subnormal squares: sse < 0
        [0.1] * 20_000,  # a long equal run, pooled with roundoff
        [1e140, -1e140, 7.0],
    ])
    def test_sums_of_real_targets_load(self, values):
        total, sumsq = sum(values), sum(v * v for v in values)
        n = len(values)
        a = load_model("flexautomata-model 1\nalphabet 0\nattributes 0\n"
                       f"state 0 unl {n} {total!r} {sumsq!r} 0 0 {n}\nstart 0\n")
        assert a.states[0].target_count == n

    @pytest.mark.parametrize("line, message", [
        (f"state 0 acc {2**53 + 1} 0.0 0.0 0 0 0", f"count {2**53 + 1}"),
        (f"state 0 acc {10**400} 0.0 0.0 {10**400} 0 0", f"count {10**400}"),
        (f"state 0 acc 5 0.0 0.0 {2**53 + 1} 0 0", f"end count {2**53 + 1}"),
        (f"state 0 rej 5 0.0 0.0 0 {2**60} 0", f"end count {2**60}"),
        (f"state 0 unl 5 1.0 1.0 0 0 {10**400}", f"target count {10**400}"),
        (f"trans 0 0 0 {2**53 + 1}", f"transition count {2**53 + 1}"),
    ], ids=["count", "count-1e400", "end-pos", "end-neg", "target-count", "trans"])
    def test_counts_above_2_53_name_line_and_field(self, line, message):
        state = "" if line.startswith("state") else "state 0 acc 9 0.0 0.0 0 0 0\n"
        text = f"flexautomata-model 1\nalphabet 1 a\nattributes 0\n{state}{line}\nstart 0\n"
        no = text.splitlines().index(line) + 1
        with pytest.raises(ModelFormatError) as err:
            load_model(text)
        assert str(err.value) == f"line {no}: {message} exceeds the bound 2**53"

    def test_counts_of_2_53_load(self):
        a = load_model(f"flexautomata-model 1\nalphabet 1 a\nattributes 0\n"
                       f"state 0 acc {2**53} 0.0 0.0 0 0 0\ntrans 0 0 0 {2**53}\nstart 0\n")
        assert a.states[0].out_counts == {0: 2**53}

    def test_labeled_ends_may_fill_the_trace_ends(self):
        a = load_model("flexautomata-model 1\nalphabet 0\nattributes 0\n"
                       "state 0 acc 3 0.0 0.0 2 1 0\nstart 0\n")
        assert a.states[0].end_count == 3

    @staticmethod
    def augmented_texts():
        real = st.one_of(
            st.floats(width=64).map(repr),
            st.sampled_from(["nan", "inf", "-inf", "Infinity", "1e154", "-1e200", "1.7e308"]),
        )

        def token(arity):
            attrs = st.lists(real, min_size=arity, max_size=arity).map(
                lambda xs: ":" + ",".join(xs) if xs else "")
            target = st.one_of(st.just(""), real.map(lambda t: "/" + t))
            return st.tuples(st.integers(0, 2).map(str), attrs, target).map("".join)

        def line(arity):
            return st.tuples(
                st.sampled_from(["?", "?", "1", "0"]), st.lists(token(arity), max_size=5)
            ).map(lambda lt: " ".join([lt[0], str(len(lt[1])), *lt[1]]))

        return st.integers(0, 2).flatmap(
            lambda arity: st.lists(line(arity), max_size=12).map(lambda ls: "\n".join(ls) + "\n"))

    @given(augmented_texts())
    @settings(max_examples=150, deadline=None)
    def test_mse_model_of_any_accepted_input_round_trips(self, text):
        try:
            model, _ = learn(parse_augmented(text), LearnerConfig(heuristic=Mse()))
        except (SampleFormatError, InconsistentSampleError):
            return
        saved = save_model(model)
        assert save_model(load_model(saved)) == saved

    def test_negative_transition_count_names_its_line(self, ref_apta):
        lines = save_model(ref_apta).splitlines()
        no = next(i for i, ln in enumerate(lines, 1) if ln.startswith("trans "))
        lines[no - 1] = " ".join(lines[no - 1].split()[:4] + ["-5"])
        with pytest.raises(ModelFormatError) as err:
            load_model("\n".join(lines) + "\n")
        assert err.value.line == no
        assert str(err.value) == f"line {no}: negative transition count -5"

    @pytest.mark.parametrize("head, message", [
        ("", "line 4: attributes line after a state line"),
        ("attributes 0\n", "line 5: second attributes line"),
    ])
    def test_attributes_line_after_a_state_line_is_refused(self, head, message):
        # Read with arity 0, the state line would save with two fields fewer
        # than the arity the later line declares.
        text = (f"flexautomata-model 1\nalphabet 0\n{head}state 0 acc 1 0.0 0.0 1 0 0\n"
                "attributes 2\nstart 0\n")
        with pytest.raises(ModelFormatError) as err:
            load_model(text)
        assert str(err.value) == message

    def test_version_header_is_checked(self):
        with pytest.raises(ModelFormatError):
            load_model("flexautomata-model 2\nalphabet 0\nstate 0 unl 0 0.0 0.0 0 0 0\nstart 0\n")

    def test_duplicate_transition_is_a_determinism_error(self, ref_apta):
        text = save_model(ref_apta)
        trans_line = next(ln for ln in text.splitlines() if ln.startswith("trans"))
        parts = trans_line.split()
        parts[3] = str(int(parts[3]) + 1)
        broken = text.replace(trans_line, trans_line + "\n" + " ".join(parts))
        with pytest.raises(ModelFormatError) as err:
            load_model(broken)
        assert "deterministic" in str(err.value)

    def test_integrity_violations_fail_the_load(self, ref_apta):
        text = save_model(ref_apta)
        broken = text.replace("start 0", "start 99999")
        with pytest.raises(ModelFormatError):
            load_model(broken)

    def test_truncated_file_fails(self, ref_apta):
        text = save_model(ref_apta)
        with pytest.raises(ModelFormatError):
            load_model(text.replace("\nstart 0", ""))


def _format_texts():
    """Line soup from the tokens of both trace formats and of the model format."""
    token = st.one_of(
        st.sampled_from([
            "alphabet", "attributes", "state", "trans", "start", "acc", "rej", "unl",
            "0", "1", "2", "3", "9", "-1", "?", "x", "0.5", "-0.0", "nan", "inf", "1e400",
            "0/1.5", "1:2.0/3", "2:1,2", "0:", "/", ":", "65536", "99999999999999999999",
        ]),
        st.text(alphabet="0123456789-+.:/,?aex", min_size=1, max_size=6),
    )
    line = st.lists(token, max_size=10).map(" ".join)
    header = st.sampled_from(["flexautomata-model 1\n", ""])
    return st.tuples(header, st.lists(line, max_size=10)).map(
        lambda hl: hl[0] + "\n".join(hl[1]) + "\n")


@given(_format_texts())
@settings(max_examples=300, deadline=None)
def test_readers_raise_only_format_errors(text):
    for reader, error in (
        (load_model, ModelFormatError),
        (parse_abbadingo, SampleFormatError),
        (parse_augmented, SampleFormatError),
    ):
        try:
            reader(text)
        except error:
            pass


def _outcome(reader, text):
    """What ``reader`` makes of ``text``: its result, or its exception's type and text."""
    try:
        return reader(text)
    except Exception as e:  # the reference may raise anything; so must the reader
        return type(e), str(e)


def _trace_texts():
    """Trace files shaped like the formats, with bare symbols repeating across lines.

    Labels, lengths, headers and symbol tokens are mostly valid, so that
    many files parse and the rest fail at every check of the parser.
    """
    bare = ["0", "1", "2", "3"]
    annotated = ["0/1.5", "1/-0.0", "2/1e3", "3/0.5"]
    odd = [
        "01", "+1", "-0", "1_0", "\u0663", "-1", "x", "65536", "1:2.0/3", "2:1,2", "0:0.5",
        "1:0.5,1", "0:", "3/", "1:/2", ":", "/", "2/inf", "1:nan", "0/1/2", "7",
    ]
    symbol = st.sampled_from(bare * 12 + annotated * 4 + odd)
    label = st.sampled_from(["1", "0", "?"] * 6 + ["x"])
    line = st.tuples(label, st.lists(symbol, max_size=6), st.sampled_from([0] * 12 + [1, -1]))
    line = line.map(lambda t: " ".join([t[0], str(len(t[1]) + t[2]), *t[1]]))
    blank = st.sampled_from(["", "  ", "\t"])
    header = st.one_of(
        st.just([]),
        st.tuples(st.integers(-1, 8), st.integers(-1, 5)).map(lambda h: [f"{h[0]} {h[1]}"]),
        st.sampled_from([["1 0"], ["? 0"], ["x 3"], [" 3  4 "]]),
    )
    body = st.lists(st.one_of(line, line, line, blank), max_size=8)
    return st.tuples(header, body).map(lambda hb: "\n".join(hb[0] + hb[1]) + "\n")


class TestAgainstOracle:
    """The readers against the reference copies of their slower versions in ``oracle_io``."""

    @given(st.one_of(_trace_texts(), _trace_texts(), _format_texts()))
    @settings(max_examples=400, deadline=None)
    def test_parsers_match_the_reference(self, text):
        for reader, extended in ((parse_abbadingo, False), (parse_augmented, True)):
            want = _outcome(lambda t: oracle_io.parse_sample(t, extended), text)
            assert _outcome(reader, text) == want

    @staticmethod
    def _base_model(rng: random.Random) -> str:
        a = random_automaton(rng, 10, rng.randint(1, 3))
        if rng.random() < 0.5:
            states = {q: dataclasses.replace(agg, attribute_sums=(rng.uniform(-3, 3),))
                      for q, agg in a.states.items()}
            a = dataclasses.replace(a, states=states, attribute_arity=1)
        return save_model(a)

    _TOKENS = [
        "-5", "-1", "0", "1", "3", "99", "x", "1.5", "nan", "inf", "-inf", "1e400", "+2", "1_0",
        str(2**53 + 1),
        "acc", "rej", "unl", "state", "trans", "start", "alphabet", "attributes",
    ]

    @classmethod
    def _mutate(cls, rng: random.Random, text: str) -> str:
        """``text`` with one or two lines deleted, duplicated, blanked or given a new token."""
        lines = text.splitlines()
        i = rng.randrange(len(lines))
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.5 or i >= len(lines):
                i = rng.randrange(len(lines))
            op = rng.randrange(4)
            if op == 0:
                del lines[i]
            elif op == 1:
                lines.insert(i, lines[i])
            elif op == 2:
                lines[i] = rng.choice(["", "  "])
            else:
                tokens = lines[i].split() or [""]
                donor = rng.choice(lines).split() or ["0"]
                tokens[rng.randrange(len(tokens))] = rng.choice(cls._TOKENS + donor)
                lines[i] = " ".join(tokens)
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("line", [
        "state 9999 x y 0.0 0.0 0 0 0",  # bad label and bad count: the label is named
        "state z x 1 0.0 0.0 0 0 0",  # bad id and bad label: the id is named
        "state 9999 acc 1 nan 0.0 0 0 y",  # one bad int after a non-finite sum
        "state 9999 acc 1 q 0.0 0 0 y",
        "trans 0 0 0 -1",  # the duplicate of the first trans line wins over the sign
        "trans 0 x 0 -1",
        "trans 0 0 y z",
    ])
    def test_first_fault_of_a_line_is_named(self, ref_apta, line):
        lines = save_model(ref_apta).splitlines()
        kind = line.split()[0]
        i = max(i for i, ln in enumerate(lines) if ln.startswith(kind + " "))
        text = "\n".join(lines[:i + 1] + [line] + lines[i + 1:]) + "\n"
        got = _outcome(load_model, text)
        assert isinstance(got, tuple) and got == _outcome(oracle_io.load_model, text)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=400, deadline=None)
    def test_loader_matches_the_reference_on_mutated_models(self, seed):
        rng = random.Random(seed)
        text = self._mutate(rng, self._base_model(rng))
        got = _outcome(load_model, text)
        if isinstance(got, tuple) and "negative transition count" in got[1]:
            # The reference drops a negative count silently; the loader refuses it.
            no = int(got[1].split(":")[0].removeprefix("line "))
            tokens = text.splitlines()[no - 1].split()
            assert tokens[0] == "trans" and int(tokens[4]) < 0
            return
        if isinstance(got, tuple) and got[1].endswith(": attributes line after a state line"):
            # The reference reads the state lines before it with the old arity; the loader
            # refuses the line.
            no = int(got[1].split(":")[0].removeprefix("line "))
            kinds = [ln.split()[0] for ln in text.splitlines()[:no] if ln.split()]
            assert kinds[-1] == "attributes" and "state" in kinds
            return
        if isinstance(got, tuple) and got[1].endswith("exceeds the bound 2**53"):
            # The reference takes any count; the loader refuses those above 2**53.
            no = int(got[1].split(":")[0].removeprefix("line "))
            tokens = text.splitlines()[no - 1].split()
            message = got[1].split(": ", 1)[1].removesuffix(" exceeds the bound 2**53")
            field, value = message.rsplit(" ", 1)
            kind, where = {"transition count": ("trans", [4]), "count": ("state", [3]),
                           "end count": ("state", [6, 7]), "target count": ("state", [8])}[field]
            assert tokens[0] == kind
            assert int(value) > 2**53 and int(value) in [int(tokens[i]) for i in where]
            return
        want = _outcome(oracle_io.load_model, text)
        with mock.patch.object(oracle_io, "check_integrity", lambda a: []):
            lenient = _outcome(oracle_io.load_model, text)
        if isinstance(got, tuple) and not isinstance(lenient, tuple):
            # The text parses, so the loader refused its integrity violations. It names
            # the line that declares the first one's subject; the rest reads past it.
            no = int(got[1].split(":")[0].removeprefix("line "))
            got = got[0], got[1].removeprefix(f"line {no}: ")
            kind, *ids = self._first_subject(lenient, got[1].split("; ")[0])
            tokens = text.splitlines()[no - 1].split()
            assert tokens[0] == kind and [int(t) for t in tokens[1:1 + len(ids)]] == ids
        if isinstance(got, tuple) and got != want:
            # The reference lacks the checks of labeled ends and target sums. Every
            # other violation must agree, and each extra one must hold on its state.
            old = oracle_io.check_integrity(lenient)
            found = got[1].split("; ")
            assert got[0] is ModelFormatError
            assert [v for v in found if v in old] == old
            for v in found:
                if v not in old:
                    q = int(v.split()[1])
                    assert v.removeprefix(f"state {q} ") in self._NEW_CHECKS
                    assert self._NEW_CHECKS[v.removeprefix(f"state {q} ")](lenient.states[q])
            return
        if isinstance(want, tuple):
            assert got == want
        else:
            assert save_model(got) == save_model(want)

    @staticmethod
    def _first_subject(a, first: str) -> tuple:
        """What the first of ``a``'s violations, worded ``first``, concerns.

        A loaded model's labels are its states', so its violations are the
        start state's, the transitions' by ``(source, symbol)``, then the states'.
        """
        if a.start not in a.states:
            return ("start",)
        bad = sorted(key for key, dst in a.transitions.items()
                     if key[0] not in a.states or dst not in a.states
                     or not 0 <= key[1] < len(a.alphabet))
        if bad:
            return ("trans", *bad[0])
        return ("state", int(first.split()[1]))

    _NEW_CHECKS = {
        "labeled end counts exceed its trace ends":
            lambda g: g.end_pos_count + g.end_neg_count > g.end_count,
        "has a negative target sum of squares": lambda g: g.target_sumsq < 0.0,
        "has target sums but no targets":
            lambda g: g.target_count == 0 and (g.target_sum != 0.0 or g.target_sumsq != 0.0),
        "has target sums with a negative squared error": lambda g: g.sse() < 0.0,
    }

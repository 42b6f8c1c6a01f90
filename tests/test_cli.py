"""Command-line behavior: every subcommand, the exit-code contract, pipelines."""

import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flexautomata
from flexautomata import (
    DiscretizationSpec,
    LearnerConfig,
    Sample,
    SymbolInstance,
    Trace,
    TraceLabel,
    discretize,
    learn,
    load_model,
    parse_abbadingo,
    parse_augmented,
    save_model,
    write_sample,
)
from flexautomata.cli import run
from dot_check import check_dot
from gen import TargetDfa, labeled_sample


@pytest.fixture()
def sample_file(tmp_path, ref_text):
    p = tmp_path / "traces.txt"
    p.write_text(ref_text)
    return str(p)


@pytest.fixture()
def model_file(tmp_path, sample_file, capsys):
    out = tmp_path / "model.txt"
    assert run(["learn", "--input", sample_file, "--output", str(out)]) == 0
    capsys.readouterr()
    return str(out)


class TestLearn:
    def test_model_to_stdout(self, sample_file, capsys):
        assert run(["learn", "--input", sample_file]) == 0
        out = capsys.readouterr().out
        model = load_model(out)
        assert model.state_count >= 1

    def test_model_to_file_plus_dot(self, tmp_path, sample_file, capsys):
        model_path = tmp_path / "m.txt"
        dot_path = tmp_path / "m.dot"
        code = run([
            "learn", "--input", sample_file,
            "--output", str(model_path), "--dot", str(dot_path),
        ])
        assert code == 0
        load_model(model_path.read_text())
        check_dot(dot_path.read_text())

    def test_each_heuristic_runs(self, sample_file, capsys):
        for h in ("edsm", "alergia", "mse"):
            assert run(["learn", "--input", sample_file, "--heuristic", h]) == 0
            capsys.readouterr()

    def test_learn_is_reproducible(self, sample_file, capsys):
        run(["learn", "--input", sample_file])
        first = capsys.readouterr().out
        run(["learn", "--input", sample_file])
        second = capsys.readouterr().out
        assert first == second

    def test_trace_flag_logs_to_stderr(self, sample_file, capsys):
        assert run(["learn", "--input", sample_file, "--trace"]) == 0
        err = capsys.readouterr().err
        assert "MERGE" in err or "PROMOTE" in err

    def test_missing_file_exits_2(self, capsys):
        assert run(["learn", "--input", "/nonexistent/file"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("1 5 0\n")
        assert run(["learn", "--input", str(p)]) == 2
        assert "error" in capsys.readouterr().err

    def test_contradictory_sample_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("1 1 0\n0 1 0\n")
        assert run(["learn", "--input", str(p)]) == 2
        capsys.readouterr()

    def test_bad_alpha_exits_1(self, sample_file, capsys):
        code = run(["learn", "--input", sample_file, "--heuristic", "alergia", "--alpha", "7"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_min_evidence_minus_inf_as_documented(self, sample_file, capsys):
        assert run(["learn", "--help"]) == 0
        # argparse may wrap the help at a hyphen
        assert "--min-evidence=-inf" in "".join(capsys.readouterr().out.split())
        assert run(["learn", "--input", sample_file, "--min-evidence=-inf"]) == 0
        model = load_model(capsys.readouterr().out)
        with open(sample_file) as f:
            want, _ = learn(parse_augmented(f.read()), LearnerConfig(min_evidence=float("-inf")))
        assert save_model(model) == save_model(want)

    def test_nan_min_evidence_exits_1(self, sample_file, capsys):
        assert run(["learn", "--input", sample_file, "--min-evidence", "nan"]) == 1
        assert "min_evidence" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, sample_file, capsys):
        assert run(["learn", "--input", sample_file, "--bogus"]) == 1
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_no_command_exits_1(self, capsys):
        assert run([]) == 1
        capsys.readouterr()


class TestPredict:
    def test_one_number_per_trace(self, tmp_path, capsys):
        data = tmp_path / "t.txt"
        data.write_text("? 1 0/2.0\n? 2 0/4.0 0/6.0\n")
        model_path = tmp_path / "m.txt"
        assert run(["learn", "--input", str(data), "--output", str(model_path)]) == 0
        capsys.readouterr()
        queries = tmp_path / "q.txt"
        queries.write_text("? 1 0\n? 3 0 0 0\n")
        assert run(["predict", "--model", str(model_path), "--input", str(queries)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        for ln in lines:
            float(ln)

    def test_error_fallback_exits_2_out_of_domain(self, tmp_path, capsys):
        data = tmp_path / "t.txt"
        data.write_text("? 1 0/2.0\n")
        model_path = tmp_path / "m.txt"
        # an impossible evidence cutoff keeps the tree, so deep words escape it
        run(["learn", "--input", str(data), "--output", str(model_path),
             "--min-evidence", "1e9"])
        capsys.readouterr()
        queries = tmp_path / "q.txt"
        queries.write_text("? 3 0 0 0\n")
        code = run([
            "predict", "--model", str(model_path),
            "--input", str(queries), "--fallback", "error",
        ])
        assert code == 2
        capsys.readouterr()

    def test_targetless_model_exits_2(self, model_file, sample_file, capsys):
        code = run(["predict", "--model", model_file, "--input", sample_file])
        assert code == 2
        capsys.readouterr()


class TestGenerate:
    def test_output_parses_as_trace_file(self, model_file, capsys):
        assert run(["generate", "--model", model_file, "-n", "25", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        sample = parse_abbadingo(out)
        assert len(sample.traces) == 25
        assert all(t.label.name == "POSITIVE" for t in sample.traces)

    def test_seed_reproducibility(self, model_file, capsys):
        run(["generate", "--model", model_file, "-n", "12", "--seed", "9"])
        first = capsys.readouterr().out
        run(["generate", "--model", model_file, "-n", "12", "--seed", "9"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_empty_alphabet_output_round_trips(self, tmp_path, capsys, n):
        data = tmp_path / "empty.txt"
        data.write_text("1 0\n")
        model_path = tmp_path / "m.txt"
        run(["learn", "--input", str(data), "--output", str(model_path)])
        capsys.readouterr()
        assert run(["generate", "--model", str(model_path), "-n", str(n)]) == 0
        sample = parse_abbadingo(capsys.readouterr().out)
        assert [t.word for t in sample.traces] == [()] * n
        assert all(t.label.name == "POSITIVE" for t in sample.traces)

    # SHA-256 of the stdout of ``generate -n 200 --max-len 20``, pinned from
    # the sampler that rebuilt each state's options and called Random.choices
    # at every step.
    GENERATE_GOLDEN = {
        "reference": "a920118db11062241fa54f60260a295211fcd7604237adc4a86a3e82b2f86852",
        "dfa": "21d39c1a15c61cf51109ccab759f426efcf18dfbafad0f7e0926b5ec2d4ce952",
    }

    def test_generated_words_are_pinned(self, model_file, tmp_path, capsys):
        rng = random.Random(17)
        dfa = TargetDfa(rng, 12, 3)
        data = tmp_path / "dfa.txt"
        data.write_text(write_sample(labeled_sample(rng, dfa, 300, 14)))
        dfa_model = tmp_path / "dfa-model.txt"
        assert run(["learn", "--input", str(data), "--output", str(dfa_model)]) == 0
        capsys.readouterr()
        for (name, digest), (path, seed) in zip(
                self.GENERATE_GOLDEN.items(), [(model_file, "5"), (str(dfa_model), "3")]):
            assert run(["generate", "--model", path, "-n", "200", "--seed", seed,
                        "--max-len", "20"]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, name

    def test_impossible_request_exits_2(self, tmp_path, capsys):
        data = tmp_path / "neg.txt"
        data.write_text("0 1 0\n")
        model_path = tmp_path / "m.txt"
        run(["learn", "--input", str(data), "--output", str(model_path)])
        capsys.readouterr()
        assert run(["generate", "--model", str(model_path), "-n", "3"]) == 2
        capsys.readouterr()


class TestEval:
    def test_report_lines(self, model_file, sample_file, capsys):
        assert run(["eval", "--model", model_file, "--input", sample_file]) == 0
        out = capsys.readouterr().out
        assert "traces 13" in out
        assert "positives_accepted 8/8" in out
        assert "negatives_rejected 5/5" in out
        assert "accuracy 1.0" in out

    def test_generated_words_all_accepted(self, model_file, tmp_path, capsys):
        run(["generate", "--model", model_file, "-n", "40", "--seed", "2"])
        generated = capsys.readouterr().out
        gen_file = tmp_path / "gen.txt"
        gen_file.write_text(generated)
        run(["eval", "--model", model_file, "--input", gen_file.as_posix(),
             "--format", "abbadingo"])
        out = capsys.readouterr().out
        assert "positives_accepted 40/40" in out

    def test_trailing_token_on_start_line_exits_2(self, model_file, sample_file, tmp_path, capsys):
        lines = Path(model_file).read_text().splitlines()
        no = next(i for i, ln in enumerate(lines, 1) if ln.startswith("start "))
        lines[no - 1] += " junk"
        broken = tmp_path / "broken.txt"
        broken.write_text("\n".join(lines) + "\n")
        assert run(["eval", "--model", str(broken), "--input", sample_file]) == 2
        assert f"line {no}:" in capsys.readouterr().err

    def test_negative_transition_count_exits_2(self, model_file, sample_file, tmp_path, capsys):
        lines = Path(model_file).read_text().splitlines()
        no = next(i for i, ln in enumerate(lines, 1) if ln.startswith("trans "))
        lines[no - 1] = " ".join(lines[no - 1].split()[:4] + ["-5"])
        broken = tmp_path / "broken.txt"
        broken.write_text("\n".join(lines) + "\n")
        assert run(["eval", "--model", str(broken), "--input", sample_file]) == 2
        assert f"line {no}: negative transition count -5" in capsys.readouterr().err

    @pytest.mark.parametrize("state, message", [
        ("state 0 acc 1 0.0 0.0 5 7 0", "state 0 labeled end counts exceed its trace ends"),
        ("state 0 unl 2 0.0 -1.0 0 0 2", "state 0 has a negative target sum of squares"),
        ("state 0 unl 2 3.0 0.0 0 0 0", "state 0 has target sums but no targets"),
        ("state 0 unl 2 4.0 1.0 0 0 2", "state 0 has target sums with a negative squared error"),
    ])
    def test_impossible_state_aggregates_exit_2(self, sample_file, tmp_path, capsys, state, message):
        broken = tmp_path / "broken.txt"
        broken.write_text(f"flexautomata-model 1\nalphabet 0\nattributes 0\n{state}\nstart 0\n")
        assert run(["eval", "--model", str(broken), "--input", sample_file]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, state", [
        (["generate"], f"state 0 acc {10**400} 0.0 0.0 {10**400} 0 0"),
        (["predict", "--input", "{traces}"], f"state 0 unl {10**400} 1.0 1.0 0 0 {10**400}"),
        (["dot"], f"state 0 unl {10**400} 1.0 1.0 0 0 {10**400}"),
    ], ids=["generate", "predict", "dot"])
    def test_counts_above_2_53_exit_2(self, sample_file, tmp_path, capsys, argv, state):
        model = tmp_path / "huge.txt"
        model.write_text(f"flexautomata-model 1\nalphabet 0\nattributes 0\n{state}\nstart 0\n")
        argv = [a.replace("{traces}", sample_file) for a in argv]
        assert run([argv[0], "--model", str(model), *argv[1:]]) == 2
        assert f"line 4: count {10**400} exceeds the bound 2**53" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["alphabet", "start"])
    def test_bare_model_line_exits_2(self, model_file, sample_file, tmp_path, capsys, kind):
        lines = Path(model_file).read_text().splitlines()
        no = next(i for i, ln in enumerate(lines, 1) if ln.startswith(kind + " "))
        lines[no - 1] = kind
        broken = tmp_path / "broken.txt"
        broken.write_text("\n".join(lines) + "\n")
        assert run(["eval", "--model", str(broken), "--input", sample_file]) == 2
        assert f"line {no}:" in capsys.readouterr().err


class TestDot:
    def test_valid_dot_to_stdout(self, model_file, capsys):
        assert run(["dot", "--model", model_file]) == 0
        check_dot(capsys.readouterr().out)

    def test_garbage_model_exits_2(self, tmp_path, capsys):
        p = tmp_path / "m.txt"
        p.write_text("not a model\n")
        assert run(["dot", "--model", str(p)]) == 2
        capsys.readouterr()


class TestDiscretize:
    def test_series_to_traces(self, tmp_path, capsys):
        p = tmp_path / "series.csv"
        p.write_text("".join(f"{v}\n" for v in range(10)))
        code = run([
            "discretize", "--input", str(p), "--bins", "2", "--window", "3",
        ])
        assert code == 0
        sample = parse_augmented(capsys.readouterr().out)
        assert len(sample.traces) == 7
        assert len(sample.alphabet) == 2

    def test_skip_header(self, tmp_path, capsys):
        p = tmp_path / "series.csv"
        p.write_text("value\n1.0\n2.0\n3.0\n")
        code = run([
            "discretize", "--input", str(p), "--bins", "1", "--window", "1",
            "--skip-header",
        ])
        assert code == 0
        assert len(parse_augmented(capsys.readouterr().out).traces) == 2

    def test_non_numeric_line_exits_2(self, tmp_path, capsys):
        p = tmp_path / "series.csv"
        p.write_text("1.0\nbanana\n")
        assert run(["discretize", "--input", str(p), "--bins", "1", "--window", "1"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_too_short_series_exits_2(self, tmp_path, capsys):
        p = tmp_path / "series.csv"
        p.write_text("1.0\n2.0\n")
        assert run(["discretize", "--input", str(p), "--bins", "1", "--window", "5"]) == 2
        capsys.readouterr()

    def test_bad_bins_exits_1(self, tmp_path, capsys):
        p = tmp_path / "series.csv"
        p.write_text("1.0\n2.0\n3.0\n")
        assert run(["discretize", "--input", str(p), "--bins", "0", "--window", "1"]) == 1
        capsys.readouterr()

    def test_too_many_bins_exits_1(self, tmp_path, capsys):
        p = tmp_path / "series.csv"
        p.write_text("1.0\n2.0\n3.0\n")
        assert run(["discretize", "--input", str(p), "--bins", "70000", "--window", "1"]) == 1
        assert "bins" in capsys.readouterr().err


# Each subcommand's required flags, then its optional ones.
_FUZZ_COMMANDS = {
    "learn": (["--input"], ["--format", "--heuristic", "--alpha", "--penalty",
                            "--min-evidence", "--output", "--dot", "--trace"]),
    "predict": (["--model", "--input"], ["--format", "--fallback"]),
    "generate": (["--model"], ["-n", "--seed", "--max-len"]),
    "eval": (["--model", "--input"], ["--format"]),
    "dot": (["--model"], []),
    "discretize": (["--input", "--bins", "--window"],
                   ["--method", "--target", "--skip-header"]),
    "bogus": ([], []),
}
_FUZZ_ANY_FLAG = sorted({f for req, opt in _FUZZ_COMMANDS.values() for f in req + opt}
                        | {"--help", "--bogus"})
_FUZZ_FILES = ["{soup}", "{bytes}", "{traces}", "{model}", "{huge}", "{series}", "{missing}"]
_FUZZ_NUMBERS = ["0", "1", "-1", "3", "0.5", "1e9", "nan", "inf", "-inf", "x", ""]
# The values each flag takes; -n, --max-len, --window and --bins scale the
# work of one call, so they stay small.
_FUZZ_SMALL = ["-2", "-1", "0", "1", "2", "3", "6", "x", "nan"]
_FUZZ_FLAG_VALUES = {
    "--input": _FUZZ_FILES, "--model": _FUZZ_FILES,
    "--output": ["{out}"], "--dot": ["{out}"],
    "--format": ["abbadingo", "augmented"], "--heuristic": ["edsm", "alergia", "mse"],
    "--fallback": ["mean", "last", "error"], "--method": ["uniform", "quantile"],
    "--target": ["delta", "value"], "--seed": ["0", "1", "7", "-1"],
    "--trace": [], "--skip-header": [], "--help": [], "--bogus": [],
    "-n": _FUZZ_SMALL, "--max-len": _FUZZ_SMALL, "--window": _FUZZ_SMALL, "--bins": _FUZZ_SMALL,
}
_FUZZ_ANY_VALUE = sorted({v for vs in _FUZZ_FLAG_VALUES.values() for v in vs if v != "{out}"}
                         | set(_FUZZ_NUMBERS))
_FUZZ_SOUP = [
    "1", "0", "?", "2", "-1", "7", "65536", "nan", "inf", "1e308", "0.5", "0:1.5/2",
    "1/0.25", "3:", "x", "flexautomata-model", "state", "trans", "start", "alphabet",
    "attributes", "acc", "rej", "unl", ",", "\n", "\n", " ",
]


@st.composite
def _fuzz_argv(draw):
    """A subcommand with mostly its own flags (the required ones usually
    present) and mostly fitting values, with now and then a stray flag, a
    misfit value or a missing one."""
    command = draw(st.sampled_from(list(_FUZZ_COMMANDS)))
    required, optional = _FUZZ_COMMANDS[command]
    flags = [f for f in required if draw(st.sampled_from([True] * 5 + [False]))]
    flags += draw(st.lists(st.sampled_from(optional or _FUZZ_ANY_FLAG), max_size=4))
    if draw(st.sampled_from([False] * 4 + [True])):
        flags.append(draw(st.sampled_from(_FUZZ_ANY_FLAG)))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        fit = _FUZZ_FLAG_VALUES.get(flag, _FUZZ_NUMBERS)
        pick = draw(st.sampled_from(["fit"] * 8 + ["misfit", "none"]))
        # an output flag always names the temporary directory's file
        if fit and (fit == ["{out}"] or pick == "fit"):
            value = draw(st.sampled_from(fit))
        elif pick == "misfit":
            value = draw(st.sampled_from(_FUZZ_ANY_VALUE))
        else:
            argv.append(flag)
            continue
        joined = draw(st.sampled_from([False] * 3 + [True]))
        argv += [f"{flag}={value}"] if joined else [flag, value]
    return argv


def _fill(token, paths):
    for name, path in paths.items():
        token = token.replace(name, path)
    return token


class TestFuzz:
    @given(
        _fuzz_argv(),
        st.lists(st.sampled_from(_FUZZ_SOUP), max_size=40).map(" ".join),
        st.binary(max_size=80),
    )
    @settings(max_examples=300, deadline=None)
    def test_run_only_returns_an_exit_code(self, argv, soup, raw):
        traces = "1 2 0 1\n0 1 1\n? 2 0/1.5 1/2.0\n"
        with tempfile.TemporaryDirectory() as tmp:
            files = {
                "{soup}": soup.encode("utf-8"),
                "{bytes}": raw,
                "{traces}": traces.encode("utf-8"),
                "{model}": save_model(learn(parse_augmented(traces))[0]).encode("utf-8"),
                # counts beyond the float range, which every serving command must refuse
                "{huge}": (f"flexautomata-model 1\nalphabet 2 0 1\nattributes 0\n"
                           f"state 0 acc {10**400} 1.0 1.0 {10**400} 0 {10**400}\n"
                           "start 0\n").encode("utf-8"),
                "{series}": b"1.0\n2.5\n0.0\n3.0\n2.0\n",
            }
            paths = {name: os.path.join(tmp, name[1:-1]) for name in files}
            for name, data in files.items():
                with open(paths[name], "wb") as f:
                    f.write(data)
            paths["{missing}"] = os.path.join(tmp, "missing")
            paths["{out}"] = os.path.join(tmp, "out")
            cwd = os.getcwd()
            os.chdir(tmp)  # anything written lands in the temporary directory
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = run([_fill(token, paths) for token in argv])
            finally:
                os.chdir(cwd)
        assert code in (0, 1, 2)


class TestPipeline:
    def test_discretize_learn_predict_eval(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("".join(f"{(i % 7) / 2.0}\n" for i in range(120)))
        traces = tmp_path / "traces.txt"
        run(["discretize", "--input", str(series), "--bins", "3", "--window", "2"])
        traces.write_text(capsys.readouterr().out)

        model = tmp_path / "model.txt"
        assert run(["learn", "--input", str(traces), "--output", str(model)]) == 0
        capsys.readouterr()

        assert run(["predict", "--model", str(model), "--input", str(traces)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(parse_augmented(traces.read_text()).traces)

        assert run(["eval", "--model", str(model), "--input", str(traces)]) == 0
        out = capsys.readouterr().out
        assert "mse" in out

    # SHA-256 of the stdout of each serving command below, pinned from the
    # implementation that pooled the global target mean on every query.
    SERVING_GOLDEN = {
        ("predict", "mean"): "64e125bea57b65cd9c4b2a875429fba72a3ef7ea4ddaca22bda560876aff25ee",
        ("predict", "last"): "dfdd85722a0df573dd56b4003c60e93863a43c85be2465bfe91b6e36abc5cb78",
        ("eval", None): "58fc1849438f71af016a0039223ea7e719b046f54a21277fc8f225a0792773ca",
    }

    def test_serving_outputs_are_pinned(self, tmp_path, capsys):
        rng = random.Random(41)

        def step_series(n):
            values, level = [], 0.0
            for i in range(n):
                if i % 40 == 0:
                    level = rng.choice([0.0, 5.0, 10.0])
                values.append(level + rng.gauss(0.0, 0.3))
            return values

        series = tmp_path / "train.csv"
        series.write_text("".join(f"{v!r}\n" for v in step_series(400)))
        traces = tmp_path / "train.txt"
        assert run(["discretize", "--input", str(series), "--bins", "4", "--window", "3"]) == 0
        traces.write_text(capsys.readouterr().out)
        model = tmp_path / "model.txt"
        assert run(["learn", "--input", str(traces), "--heuristic", "mse",
                    "--output", str(model)]) == 0
        capsys.readouterr()

        spec = DiscretizationSpec(bins=4, window=3)
        held_out = discretize(step_series(200), spec).traces
        # symbol 9 is outside the 4-bin alphabet: these words leave the model
        # at depths 0 to 3, where the fallbacks differ
        off = tuple(
            Trace(TraceLabel.UNLABELED,
                  tuple(SymbolInstance(s) for s in (0, 1, 2)[:depth])
                  + (SymbolInstance(9, (), float(depth)),))
            for depth in range(4)
        )
        queries = tmp_path / "queries.txt"
        queries.write_text(write_sample(Sample(held_out + off, tuple(map(str, range(10))))))

        for (command, fallback), digest in self.SERVING_GOLDEN.items():
            argv = [command, "--model", str(model), "--input", str(queries)]
            if fallback:
                argv += ["--fallback", fallback]
            assert run(argv) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, (command, fallback)


class TestRunAsModule:
    """``python -m flexautomata`` and ``python -m flexautomata.cli`` are the CLI."""

    @staticmethod
    def python_m(module, *args):
        src = str(Path(flexautomata.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        return subprocess.run(
            [sys.executable, "-m", module, *args],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, timeout=120,
        )

    @pytest.mark.parametrize("module", ["flexautomata", "flexautomata.cli"])
    def test_learn_prints_what_run_prints(self, module, sample_file, capsys):
        argv = ["learn", "--input", sample_file, "--format", "abbadingo"]
        assert run(argv) == 0
        expected = capsys.readouterr().out.encode()
        proc = self.python_m(module, *argv)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == expected

    def test_missing_input_exits_2(self, tmp_path):
        proc = self.python_m("flexautomata", "learn", "--input", str(tmp_path / "absent.txt"))
        assert proc.returncode == 2
        assert proc.stdout == b"" and proc.stderr.startswith(b"error: ")

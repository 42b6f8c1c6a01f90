"""Command-line behavior: every subcommand, the exit-code contract, pipelines."""

import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flexautomata
from flexautomata import (
    Alergia,
    DiscretizationSpec,
    Edsm,
    InconsistentSampleError,
    LearnerConfig,
    Mse,
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
from golden import GENERATE_GOLDEN, SERVING_GOLDEN, cases, generated_words, serving_outputs


@pytest.fixture()
def sample_file(tmp_path, ref_text):
    p = tmp_path / "traces.txt"
    p.write_text(ref_text)
    return str(p)


@pytest.fixture()
def series_file(tmp_path):
    """A discretized step series: unlabeled traces whose last symbols carry targets."""
    series = [5.0 * (i // 25 % 3) + 0.1 * (i % 7) for i in range(150)]
    p = tmp_path / "series.txt"
    p.write_text(write_sample(discretize(series, DiscretizationSpec(bins=3, window=4))))
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

    def test_each_heuristic_runs(self, sample_file, series_file, capsys):
        for h, path in (("edsm", sample_file), ("alergia", sample_file), ("mse", series_file)):
            assert run(["learn", "--input", path, "--heuristic", h]) == 0
            capsys.readouterr()

    def test_mse_without_targets_exits_2(self, sample_file, capsys):
        # Every MSE trial would fail with no_targets, leaving the prefix tree unmerged.
        assert run(["learn", "--input", sample_file, "--heuristic", "mse"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {sample_file}: no trace carries a target, "
                       "which --heuristic mse needs\n")

    def test_learn_is_reproducible(self, sample_file, capsys):
        run(["learn", "--input", sample_file])
        first = capsys.readouterr().out
        run(["learn", "--input", sample_file])
        second = capsys.readouterr().out
        assert first == second

    def test_trace_flag_logs_to_stderr(self, sample_file, series_file, capsys):
        for name, heuristic, path in (
            ("edsm", Edsm(), sample_file), ("alergia", Alergia(), sample_file),
            ("mse", Mse(), series_file),
        ):
            assert run(["learn", "--input", path, "--heuristic", name, "--trace"]) == 0
            out, err = capsys.readouterr()
            sample = parse_augmented(Path(path).read_text())
            model, log = learn(sample, LearnerConfig(heuristic=heuristic))
            assert log.events
            assert err == log.text()
            assert out == save_model(model)

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

    def test_contradictory_sample_names_the_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("contra.txt").write_text("1 2 1 0\n1 1 1\n0 2 1 0\n")
        assert run(["learn", "--input", "contra.txt"]) == 2
        assert capsys.readouterr() == (
            "", "error: contra.txt: word (1, 0) occurs with both labels\n")

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

    @pytest.mark.parametrize("flags, word", [
        (["--alpha", "2"], "alpha"),
        (["--penalty", "nan"], "penalty"),
        (["--penalty", "-1"], "penalty"),
        (["--heuristic", "alergia", "--alpha", "2"], "alpha"),
        (["--heuristic", "mse", "--alpha", "0"], "alpha"),
        (["--heuristic", "alergia", "--min-evidence", "nan"], "min_evidence"),
    ], ids=["edsm-alpha", "edsm-penalty-nan", "edsm-penalty-negative", "alergia-alpha",
            "mse-alpha", "alergia-min-evidence-nan"])
    def test_every_flag_value_is_checked_before_the_input(self, sample_file, flags, word,
                                                          capsys):
        # whichever heuristic runs, and before a missing input file is noticed
        for path in (sample_file, "/nonexistent/file"):
            assert run(["learn", "--input", path, *flags]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and word in err

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

    def test_a_late_failing_query_leaves_stdout_empty(self, tmp_path, capsys):
        # every value is computed before the first is written
        data = tmp_path / "t.txt"
        data.write_text("? 1 0/2.0\n")
        model_path = tmp_path / "m.txt"
        assert run(["learn", "--input", str(data), "--output", str(model_path),
                    "--min-evidence", "1e9"]) == 0
        queries = tmp_path / "q.txt"
        queries.write_text("? 1 0\n? 3 0 0 0\n")
        capsys.readouterr()
        code = run(["predict", "--model", str(model_path), "--input", str(queries),
                    "--fallback", "error"])
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: {model_path}: word (0, 0, 0) leaves the model's domain\n")

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

    def test_generated_words_are_pinned(self, tmp_path):
        assert generated_words(tmp_path) == GENERATE_GOLDEN

    @pytest.mark.parametrize("flag", ["-n", "--max-len"])
    def test_negative_count_exits_1(self, model_file, capsys, flag):
        assert run(["generate", "--model", model_file, flag, "-1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}: must be >= 0" in err

    def test_failed_draw_writes_nothing(self, tmp_path, capsys):
        # Every walk leaves the one state along its loop, weighted 2**53 + 1
        # against 1 for stopping, so with --max-len 0 every walk restarts
        # until the sampler gives up.
        model = tmp_path / "loop.txt"
        model.write_text("flexautomata-model 1\nalphabet 1 a\nattributes 0\n"
                         f"state 0 acc {2**53} 0.0 0.0 0 0 0\ntrans 0 0 0 {2**53}\nstart 0\n")
        assert run(["generate", "--model", str(model), "-n", "1", "--max-len", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "sampling failed to terminate" in err

    def test_memory_follows_the_output(self, model_file):
        # The drawn words are held until the last is written, but no record
        # per word and not the whole text, so the peak stays a small
        # multiple of the output.
        class Counting:
            chars = 0

            def write(self, text):
                self.chars += len(text)

        sink = Counting()
        argv = ["generate", "--model", model_file, "-n", "40000", "--max-len", "30"]
        with contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert run(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert sink.chars > 500_000
        assert peak < 6 * sink.chars

    def test_impossible_request_exits_2(self, tmp_path, capsys):
        # generate draws accepted words only: a model with no accepting state,
        # learned from an all-negative sample or by ALERGIA from unlabeled
        # walks, has none to draw
        negatives = tmp_path / "neg.txt"
        negatives.write_text("0 1 0\n")
        walks = tmp_path / "walks.txt"
        walks.write_text(write_sample(cases()["alergia-0.05-walks-0"][0]()))
        for data, heuristic in ((negatives, "edsm"), (walks, "alergia")):
            model_path = tmp_path / f"{heuristic}.txt"
            assert run(["learn", "--input", str(data), "--heuristic", heuristic,
                        "--output", str(model_path)]) == 0
            assert not load_model(model_path.read_text()).accepting
            capsys.readouterr()
            assert run(["generate", "--model", str(model_path), "-n", "3"]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert "model accepts no word of length <= 32" in err


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

    @pytest.mark.parametrize("name, lines, error", [
        ("bad.model", ["state 0 acc 1 0.0 0.0 1 0 0", "trans 0 0 7 0"],
         "line 5: transition target 7 not in state set"),
        ("bad2.model", ["state 0 acc 1 0.0 0.0 5 7 0"],
         "line 4: state 0 labeled end counts exceed its trace ends"),
    ], ids=["dangling-target", "labeled-ends"])
    def test_integrity_errors_name_their_line(self, sample_file, tmp_path, monkeypatch, capsys,
                                               name, lines, error):
        monkeypatch.chdir(tmp_path)
        header = ["flexautomata-model 1", "alphabet 1 a", "attributes 0"]
        Path(name).write_text("\n".join([*header, *lines, "start 0"]) + "\n")
        for argv in (["dot"], ["generate"], ["eval", "--input", sample_file]):
            assert run([argv[0], "--model", name, *argv[1:]]) == 2
            assert capsys.readouterr() == ("", f"error: {name}: {error}\n")

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

    def test_a_symbol_name_stdout_cannot_encode_exits_2(self, tmp_path, monkeypatch, capsys):
        p = tmp_path / "m.txt"
        model = save_model(learn(parse_augmented("1 1 0\n0 1 1\n"))[0])
        p.write_text(model.replace("alphabet 2 0 1\n", "alphabet 2 é b\n"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
        assert run(["dot", "--model", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error: 'ascii' codec can't encode")


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

    @pytest.mark.parametrize("blank", ["\n", "  \n", ",\n"], ids=["empty", "spaces", "comma"])
    def test_blank_lines_are_skipped(self, tmp_path, capsys, blank):
        p = tmp_path / "series.csv"
        argv = ["discretize", "--input", str(p), "--bins", "2", "--window", "2"]
        p.write_text("1.0\n2.0\n3.0\n4.0\n")
        assert run(argv) == 0
        want = capsys.readouterr()
        p.write_text(f"{blank}1.0\n2.0\n{blank}{blank}3.0\n4.0\n{blank}")
        assert run(argv) == 0
        assert capsys.readouterr() == want

    @pytest.mark.parametrize("value", ["banana", "nan", "inf", "-inf"])
    def test_non_numeric_line_exits_2(self, tmp_path, capsys, value):
        p = tmp_path / "series.csv"
        p.write_text(f"1.0\n{value}\n3.0\n")
        assert run(["discretize", "--input", str(p), "--bins", "1", "--window", "1"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_overflowing_step_exits_2(self, tmp_path, capsys):
        # the step from 1e308 to -1e308 would be written as a target of -inf,
        # which learn could not read back
        p = tmp_path / "series.csv"
        p.write_text("1\n2\n1e308\n-1e308\n5\n")
        assert run(["discretize", "--input", str(p), "--bins", "1", "--window", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "series[2] to series[3] overflows" in err

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

    def test_bad_flag_value_exits_1_before_the_input_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        assert run(["discretize", "--input", missing, "--bins", "0", "--window", "1"]) == 1
        assert capsys.readouterr() == ("", "error: bins must be in 1..65536, got 0\n")


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
_FUZZ_FILES = ["{soup}", "{bytes}", "{traces}", "{model}", "{huge}", "{series}", "{missing}",
               "{contra}", "{big}", "{noacc}", "{steep}"]
_FUZZ_NUMBERS = ["0", "1", "-1", "3", "0.5", "1e9", "nan", "inf", "-inf", "x", ""]
# The values each flag takes; -n, --max-len, --window and --bins scale the
# work of one call, so they stay small.
_FUZZ_SMALL = ["-2", "-1", "0", "1", "2", "3", "6", "x", "nan"]
_FUZZ_FLAG_VALUES = {
    "--input": _FUZZ_FILES, "--model": _FUZZ_FILES,
    "--output": ["{out}"], "--dot": ["{dot}"],
    "--format": ["abbadingo", "augmented"], "--heuristic": ["edsm", "alergia", "mse"],
    "--fallback": ["mean", "last", "error"], "--method": ["uniform", "quantile"],
    "--target": ["delta", "value"], "--seed": ["0", "1", "7", "-1"],
    "--trace": [], "--skip-header": [], "--help": [], "--bogus": [],
    "-n": _FUZZ_SMALL, "--max-len": _FUZZ_SMALL, "--window": _FUZZ_SMALL, "--bins": _FUZZ_SMALL,
}
_FUZZ_ANY_VALUE = sorted({v for vs in _FUZZ_FLAG_VALUES.values() for v in vs
                          if v not in ("{out}", "{dot}")}
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
        # an output flag always names its file in the temporary directory
        if fit and (fit in (["{out}"], ["{dot}"]) or pick == "fit"):
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


class TestNotUtf8:
    """A file holding a byte that is not UTF-8 exits 2, naming the file and the byte's line."""

    @pytest.mark.parametrize("flag, argv", [
        ("--input", ["learn"]),
        ("--input", ["predict", "--model", "{model}"]),
        ("--model", ["predict", "--input", "{traces}"]),
        ("--model", ["generate"]),
        ("--input", ["eval", "--model", "{model}"]),
        ("--model", ["eval", "--input", "{traces}"]),
        ("--model", ["dot"]),
        ("--input", ["discretize", "--bins", "2", "--window", "1"]),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_names_the_line(self, tmp_path, model_file, sample_file, flag, argv, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1 2 0 0\n1 1 0\n0 1 \xff\n1 1 1\n")
        paths = {"{model}": model_file, "{traces}": sample_file}
        assert run([*(paths.get(t, t) for t in argv), flag, str(bad)]) == 2
        assert capsys.readouterr() == ("", f"error: {bad}: line 3: not UTF-8 text\n")

    @pytest.mark.parametrize("data, line", [
        (b"\xff1 1 0\n", 1),
        (b"1 1 0\n\xff", 2),
        (b"1 1 0\r\n1 1 1\r\n1 1 \xe2\x82\n", 3),  # a 3-byte character cut short
        (b"1 1 0\r1 1 1\r\n\n\xc3\xa9 \xc3", 4),  # a 2-byte one, after an \u00e9
    ], ids=["first-line", "after-the-last-newline", "crlf", "cr-crlf-lf"])
    def test_lines_are_counted_as_the_parsers_count_them(self, tmp_path, data, line, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(data)
        assert run(["learn", "--input", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: line {line}: not UTF-8 text\n"

    def test_newlines_read_as_before(self, tmp_path, ref_text, capsys):
        # \r\n and \r line ends learn the model that \n ones do
        models = []
        for newline in ("\n", "\r\n", "\r"):
            p = tmp_path / "traces.txt"
            p.write_bytes(ref_text.replace("\n", newline).encode("utf-8"))
            assert run(["learn", "--input", str(p)]) == 0
            models.append(capsys.readouterr().out)
        assert models[0] == models[1] == models[2]


_FUZZ_TRACES = "1 2 0 1\n0 1 1\n? 2 0/1.5 1/2.0\n"
_FUZZ_DRAWS = (
    _fuzz_argv(),
    st.lists(st.sampled_from(_FUZZ_SOUP), max_size=40).map(" ".join),
    st.binary(max_size=80),
)


_FUZZ_MODEL = save_model(learn(parse_augmented(_FUZZ_TRACES))[0])
# A model with one rejecting state, learned from the word "0" alone
_FUZZ_NOACC = save_model(learn(parse_augmented("0 1 0\n"))[0])


@contextlib.contextmanager
def _fuzz_run(argv, files):
    """Run ``argv`` over the fuzz files, each as ``files`` gives it or else as
    below, in a temporary directory that lasts while the block runs; yields
    the exit code, stdout, stderr and the argv with every file token replaced
    by its path."""
    files = {
        "{soup}": b"",
        "{bytes}": b"",
        "{traces}": _FUZZ_TRACES.encode("utf-8"),
        "{model}": _FUZZ_MODEL.encode("utf-8"),
        # counts beyond the float range, which every serving command must refuse
        "{huge}": (f"flexautomata-model 1\nalphabet 2 0 1\nattributes 0\n"
                   f"state 0 acc {10**400} 1.0 1.0 {10**400} 0 {10**400}\n"
                   "start 0\n").encode("utf-8"),
        "{series}": b"1.0\n2.5\n0.0\n3.0\n2.0\n",
        # files that parse but fail in the library call that reads them
        "{contra}": b"1 2 0 1\n0 2 0 1\n",
        "{big}": b"1 1 0/1e200\n",
        "{noacc}": _FUZZ_NOACC.encode("utf-8"),
        "{steep}": b"1\n2\n1e308\n-1e308\n5\n",
        **files,
    }
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name[1:-1]) for name in files}
        for name, data in files.items():
            with open(paths[name], "wb") as f:
                f.write(data)
        for name in ("{missing}", "{out}", "{dot}"):
            paths[name] = os.path.join(tmp, name[1:-1])
        argv = [_fill(token, paths) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)  # anything written lands in the temporary directory
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        finally:
            os.chdir(cwd)
        yield code, out.getvalue(), err.getvalue(), argv


def _flag_values(argv, flag):
    """The values ``flag`` takes in ``argv``, spelled ``flag value`` or ``flag=value``."""
    values = [after for token, after in zip(argv, argv[1:]) if token == flag]
    return values + [t[len(flag) + 1:] for t in argv if t.startswith(flag + "=")]


# What a data error may say after its file when no line or trace is at
# fault: the messages that concern a whole file.
_WHOLE_FILE_ERRORS = [
    "No such file or directory",  # a missing file
    "Is a directory",
    "expected header 'flexautomata-model 1'",  # a model file with no line but blanks
    "missing alphabet line",
    "missing start line",
    r"header declares \d+ traces but file has \d+",
    r"word \(.*\) occurs with both labels",
    "no trace carries a target, which --heuristic mse needs",
    r"model accepts no word of length <= \d+",
    "model carries no target data",
    r"word \(.*\) leaves the model's domain",
    r"series of length \d+ too short for window \d+",
    r"step from series\[\d+\] to series\[\d+\] overflows: .*",
    "sampling failed to terminate",
]
_FILE_FLAGS = ("--input", "--model", "--output", "--dot")


class TestFuzz:
    @given(*_FUZZ_DRAWS)
    @settings(max_examples=300, deadline=None)
    def test_run_only_returns_an_exit_code(self, argv, soup, raw):
        with _fuzz_run(argv, {"{soup}": soup.encode("utf-8"), "{bytes}": raw}) as (code, *_):
            pass
        assert code in (0, 1, 2)

    @given(*_FUZZ_DRAWS)
    @settings(max_examples=300, deadline=None)
    def test_a_data_error_names_its_file_and_its_fault(self, argv, soup, raw):
        files = {"{soup}": soup.encode("utf-8"), "{bytes}": raw}
        with _fuzz_run(argv, files) as (code, _out, err, argv):
            pass
        if code != 2:
            return
        assert err.endswith("\n") and err.count("\n") == 1, err
        paths = {p for flag in _FILE_FLAGS for p in _flag_values(argv, flag)}
        named = [p for p in paths if err.startswith(f"error: {p}: ")]
        assert named, err
        rest = err[len(f"error: {named[0]}: "):-1]
        assert (re.match(r"(line|trace) \d+: ", rest)
                or any(re.fullmatch(m, rest) for m in _WHOLE_FILE_ERRORS)), err


class TestDataErrorsNameTheirFile:
    """Whatever a file's content raises names that file (exit 2), from the
    library call that reads it as well as from its parser."""

    @pytest.mark.parametrize("name, data, argv, message", [
        ("big.txt", "1 1 0/1e200\n", ["learn", "--input"],
         "trace 1: target or attribute values too large to pool"),
        ("noacc.model", "0 1 0\n", ["generate", "--model"],
         "model accepts no word of length <= 32"),
        ("notarget.model", "1 1 0\n0 1 1\n", ["predict", "--input", "{traces}", "--model"],
         "model carries no target data"),
        ("overflow.csv", "1\n2\n1e308\n-1e308\n", ["discretize", "--bins", "1",
                                                    "--window", "1", "--input"],
         "step from series[2] to series[3] overflows: -1e+308 - 1e+308 is -inf"),
    ], ids=["learn-huge-target", "generate-no-accepting-state", "predict-no-target-data",
            "discretize-overflowing-step"])
    def test_the_file_is_named(self, tmp_path, sample_file, monkeypatch, capsys,
                               name, data, argv, message):
        monkeypatch.chdir(tmp_path)
        if name.endswith(".model"):  # the model learned from the traces given
            data = save_model(learn(parse_augmented(data))[0])
        Path(name).write_text(data)
        argv = [sample_file if t == "{traces}" else t for t in argv]
        assert run([*argv, name]) == 2
        assert capsys.readouterr() == ("", f"error: {name}: {message}\n")

    def test_a_missing_file_is_named_once(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["learn", "--input", "x.txt"]) == 2
        assert capsys.readouterr() == ("", "error: x.txt: No such file or directory\n")

    @pytest.mark.parametrize("flag", ["--output", "--dot"])
    def test_an_output_that_cannot_be_written_is_named(self, tmp_path, sample_file,
                                                       capsys, flag):
        target = str(tmp_path / "no-such-dir" / "out")
        assert run(["learn", "--input", sample_file, flag, target]) == 2
        assert capsys.readouterr().err == f"error: {target}: No such file or directory\n"


# One out-of-range value for each flag of a subcommand that takes one; an
# empty file name is out of range for every file flag.
_BAD_FLAG_VALUES = {
    "learn": [("--alpha", "2"), ("--alpha", "0"), ("--penalty", "nan"), ("--penalty", "-1"),
              ("--min-evidence", "nan"), ("--heuristic", "ktails"), ("--format", "csv"),
              ("--input", ""), ("--output", ""), ("--dot", "")],
    "predict": [("--fallback", "zero"), ("--format", "csv"), ("--model", ""), ("--input", "")],
    "generate": [("-n", "-1"), ("--max-len", "-2"), ("--seed", "x"), ("--model", "")],
    "eval": [("--format", "csv"), ("--model", ""), ("--input", "")],
    "dot": [("--model", "")],
    "discretize": [("--bins", "0"), ("--bins", "65537"), ("--window", "0"), ("--window", "-1"),
                   ("--method", "median"), ("--target", "level"), ("--input", "")],
}
# Values each flag takes that are in range; a file flag names a missing file.
_GOOD_FLAG_VALUES = {
    "--input": ["{missing}"], "--model": ["{missing}"],
    "--output": ["{out}"], "--dot": ["{out}"],
    "--format": ["abbadingo", "augmented"], "--heuristic": ["edsm", "alergia", "mse"],
    "--alpha": ["0.05", "0.5"], "--penalty": ["0", "1.5"], "--min-evidence": ["0", "-inf", "2"],
    "--fallback": ["mean", "last", "error"], "-n": ["0", "3"], "--seed": ["0", "-1"],
    "--max-len": ["0", "5"], "--bins": ["1", "3"], "--window": ["1", "4"],
    "--method": ["uniform", "quantile"], "--target": ["delta", "value"],
    "--trace": [], "--skip-header": [],
}


def _spell(draw, command, flags, values):
    """``command`` and ``flags`` in any order, each flag with a value as
    ``--flag value`` or ``--flag=value``."""
    argv = [command]
    for flag in draw(st.permutations(sorted(flags))):
        if flag not in values:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={values[flag]}")
        else:
            argv += [flag, values[flag]]
    return argv


@st.composite
def _bad_flag_argv(draw):
    """A subcommand with its required flags, some optional ones, and one
    out-of-range value, every input path naming a missing file."""
    command = draw(st.sampled_from(sorted(_BAD_FLAG_VALUES)))
    bad, value = draw(st.sampled_from(_BAD_FLAG_VALUES[command]))
    required, optional = _FUZZ_COMMANDS[command]
    flags = required + draw(st.lists(st.sampled_from(optional), unique=True, max_size=4)
                            if optional else st.just([]))
    values = {flag: draw(st.sampled_from(_GOOD_FLAG_VALUES[flag]))
              for flag in flags if _GOOD_FLAG_VALUES[flag]}
    values[bad] = value
    return _spell(draw, command, set(flags) | {bad}, values), bad


class TestFuzzUsage:
    """TestFuzz's sibling for exit 1: a flag value out of range exits 1 and
    names its flag, before any input is read, so a missing file cannot hide it."""

    @given(_bad_flag_argv())
    @settings(max_examples=300, deadline=None)
    def test_a_bad_flag_value_exits_1_before_any_read(self, drawn):
        argv, bad = drawn
        with tempfile.TemporaryDirectory() as tmp:
            paths = {"{missing}": os.path.join(tmp, "missing"), "{out}": os.path.join(tmp, "out")}
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run([_fill(token, paths) for token in argv])
            assert os.listdir(tmp) == []
        assert code == 1
        assert out.getvalue() == ""
        name = bad.lstrip("-")
        assert "error" in err.getvalue()
        assert name in err.getvalue() or name.replace("-", "_") in err.getvalue()


# The file each file flag of a run that may succeed names.
_FITTING_FILES = {"--input": "{traces}", "--model": "{model}", "--output": "{out}",
                  "--dot": "{dot}"}


@st.composite
def _fitting_argv(draw):
    """A subcommand that writes an output, with its required flags, some
    optional ones, every value in range and every file flag naming a file of
    the kind it reads."""
    command = draw(st.sampled_from(["learn", "predict", "generate", "dot", "discretize"]))
    required, optional = _FUZZ_COMMANDS[command]
    flags = required + draw(st.lists(st.sampled_from(optional), unique=True, max_size=4)
                            if optional else st.just([]))
    values = {flag: _FITTING_FILES.get(flag) or draw(st.sampled_from(_GOOD_FLAG_VALUES[flag]))
              for flag in flags if _GOOD_FLAG_VALUES[flag]}
    if command == "discretize":
        values["--input"] = "{series}"
    return _spell(draw, command, flags, values)


@st.composite
def _fitting_files(draw):
    """A trace file of labeled and unlabeled words, some ending in a target, the
    model EDSM learns from it (or from the fuzz traces, when its words
    contradict), and a numeric series."""
    lines = []
    for label, word, target in draw(st.lists(st.tuples(
            st.sampled_from("01?"), st.lists(st.sampled_from("012"), max_size=6),
            st.none() | st.floats(-1e3, 1e3)), min_size=1, max_size=12)):
        if word and target is not None:
            word[-1] += f"/{target!r}"
        lines.append(" ".join([label, str(len(word)), *word]) + "\n")
    traces = "".join(lines)
    try:
        model = save_model(learn(parse_augmented(traces))[0])
    except InconsistentSampleError:
        model = _FUZZ_MODEL
    series = draw(st.lists(st.floats(-1e6, 1e6), max_size=24))
    return {"{traces}": traces.encode("utf-8"), "{model}": model.encode("utf-8"),
            "{series}": "".join(f"{v!r}\n" for v in series).encode("utf-8")}


class TestFuzzReadBack:
    """TestFuzz's sibling for exit 0: whatever a run writes reads back through
    the package's own reader, as the README promises."""

    @given(_fitting_argv(), _fitting_files())
    @settings(max_examples=300, deadline=None)
    def test_every_output_reads_back(self, argv, files):
        with _fuzz_run(argv, files) as (code, out, _err, argv):
            if code != 0:
                return
            # each flag occurs once in a fitting argv
            named = {f: v for f in _FILE_FLAGS + ("--format",) for v in _flag_values(argv, f)}
            command = argv[0]
            if command == "learn":
                output, dot = named.get("--output"), named.get("--dot")
                load_model(Path(output).read_text(encoding="utf-8") if output else out)
                if dot:
                    check_dot(Path(dot).read_text(encoding="utf-8"))
            elif command == "dot":
                check_dot(out)
            elif command in ("discretize", "generate"):
                parse_augmented(out)
            else:  # predict
                parse = parse_abbadingo if named.get("--format") == "abbadingo" else parse_augmented
                text = Path(named["--input"]).read_text(encoding="utf-8")
                lines = out.splitlines(keepends=True)
                assert len(lines) == len(parse(text).traces)
                for line in lines:
                    assert line.endswith("\n")
                    float(line)


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

    def test_serving_outputs_are_pinned(self, tmp_path):
        assert serving_outputs(tmp_path) == SERVING_GOLDEN


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

    def test_calls_in_one_process_run_as_they_run_alone(
            self, model_file, sample_file, tmp_path, capsys, monkeypatch):
        # run() keeps one parser per process; no call may see what an earlier one did.
        monkeypatch.setenv("COLUMNS", "80")  # the help's width, here and in the child
        evaluation = ["eval", "--model", model_file, "--input", sample_file]
        calls = [
            ["--help"],
            ["learn", "--input", sample_file, "--bogus"],
            ["eval", "--model", str(tmp_path / "absent.txt"), "--input", sample_file],
            evaluation,
            evaluation,
        ]
        codes = []
        for argv in calls:
            code = run(argv)
            out, err = capsys.readouterr()
            proc = self.python_m("flexautomata", *argv)
            assert (code, out.encode(), err.encode()) == (
                proc.returncode, proc.stdout, proc.stderr), argv
            codes.append(code)
        assert codes == [0, 1, 2, 0, 0]

    def test_missing_input_exits_2(self, tmp_path):
        proc = self.python_m("flexautomata", "learn", "--input", str(tmp_path / "absent.txt"))
        assert proc.returncode == 2
        assert proc.stdout == b"" and proc.stderr.startswith(b"error: ")

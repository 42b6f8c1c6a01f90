"""Command-line behavior: every subcommand, the exit-code contract, pipelines."""

import pytest

from flexautomata import load_model, parse_abbadingo, parse_augmented
from flexautomata.cli import run
from dot_check import check_dot


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
        lines = open(model_file).read().splitlines()
        no = next(i for i, ln in enumerate(lines, 1) if ln.startswith("start "))
        lines[no - 1] += " junk"
        broken = tmp_path / "broken.txt"
        broken.write_text("\n".join(lines) + "\n")
        assert run(["eval", "--model", str(broken), "--input", sample_file]) == 2
        assert f"line {no}:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["alphabet", "start"])
    def test_bare_model_line_exits_2(self, model_file, sample_file, tmp_path, capsys, kind):
        lines = open(model_file).read().splitlines()
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

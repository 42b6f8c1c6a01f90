"""Command-line front end.

Subcommands cover the whole pipeline: ``discretize`` turns a numeric series
into trace data, ``learn`` fits a model, ``predict``/``generate``/``eval``
use one, and ``dot`` renders one for Graphviz.  Outputs are written to
stdout unless a flag says otherwise, and every subcommand's output can be
fed back into the matching parser.

Exit codes: 0 on success, 1 for usage errors (unknown flags, bad flag
values, an empty file name among them), 2 for data errors.  A bad flag
value is found before any file is read.  Each subcommand computes what it
prints before it prints any of it, so a failed computation leaves stdout
empty.  Whatever a file's content raises (its read, the library call that
processes it, its write) names that file, and its line where one is at fault:
for a model that breaks a structural rule (``automaton._violations``), the
line of what it concerns.  A write to stdout that fails exits 2 as well.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from pathlib import Path

from .heuristics import Alergia, Edsm, Mse
from .learner import LearnerConfig, learn
from .predict import (
    BinMethod,
    DiscretizationSpec,
    Fallback,
    PredictionConfig,
    TargetKind,
    discretize,
    evaluate,
    predict_value,
    sample_words,
)
from .sample_io import (
    Sample,
    load_model,
    parse_abbadingo,
    parse_augmented,
    positive_lines,
    save_model,
    write_dot,
    write_sample,
)


class _DataError(Exception):
    """A message that exits with code 2."""


@contextlib.contextmanager
def _about(path: str):
    """Any ValueError or OSError raised inside becomes a data error naming ``path``;
    an OSError gives its ``strerror``."""
    try:
        yield
    except OSError as exc:
        raise _DataError(f"{path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise _DataError(f"{path}: {exc}") from exc


def _read_text(path: str) -> str:
    """The file as UTF-8 text, newlines as they are, since every reader splits lines
    with ``splitlines``; a byte that is not UTF-8 is a ValueError naming its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Every byte before the bad one decodes; the "?" stands for the line it starts.
        line = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise ValueError(f"line {line}: not UTF-8 text") from None


def _read_sample(path: str, fmt: str) -> Sample:
    parse = parse_abbadingo if fmt == "abbadingo" else parse_augmented
    return parse(_read_text(path))


def _read_series(path: str, skip_header: bool) -> list[float]:
    """One finite number per line, a trailing comma allowed; blank lines are skipped."""
    lines = _read_text(path).splitlines()
    if skip_header and lines:
        lines = lines[1:]
    series = []
    for i, ln in enumerate(lines, start=1 + skip_header):
        ln = ln.strip().rstrip(",")
        if not ln:
            continue
        try:
            value = float(ln)
        except ValueError:
            raise ValueError(f"line {i}: not a number: {ln!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"line {i}: not a finite number: {ln!r}")
        series.append(value)
    return series


def _path(text: str) -> str:
    """A flag value that names a file: not empty, which would name the current directory."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return text


def _count(text: str) -> int:
    """A flag value that counts something: an int, at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.cache  # parse_args leaves a parser as it found it, so one serves every run
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexautomata",
        description="Learn, inspect and apply state-merged automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=["abbadingo", "augmented"], default="augmented",
            help="trace file format (default: augmented, a superset of abbadingo)",
        )

    p = sub.add_parser("learn", help="learn a model from a trace file")
    p.add_argument("--input", type=_path, required=True, help="trace file")
    add_format(p)
    p.add_argument("--heuristic", choices=["edsm", "alergia", "mse"], default="edsm")
    p.add_argument("--alpha", type=float, default=0.05, help="alergia rejection level")
    p.add_argument("--penalty", type=float, default=0.0, help="mse reward per merged pair")
    p.add_argument("--min-evidence", type=float, default=0.0,
                   help="scores below this are not merged "
                        "(--min-evidence=-inf disables the cutoff)")
    p.add_argument("--output", type=_path, help="model file (default: stdout)")
    p.add_argument("--dot", type=_path, help="also write a DOT rendering to this file")
    p.add_argument("--trace", action="store_true",
                   help="log merges and promotions to stderr when learning ends")

    p = sub.add_parser("predict", help="predict a target value per trace")
    p.add_argument("--model", type=_path, required=True)
    p.add_argument("--input", type=_path, required=True, help="trace file")
    add_format(p)
    p.add_argument("--fallback", choices=[f.value for f in Fallback], default="mean",
                   help="policy for words outside the model's domain")

    p = sub.add_parser("generate", help="sample accepted words from a model")
    p.add_argument("--model", type=_path, required=True)
    p.add_argument("-n", type=_count, default=10, help="number of words")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=_count, default=32)

    p = sub.add_parser("eval", help="replay a trace file and report accuracy")
    p.add_argument("--model", type=_path, required=True)
    p.add_argument("--input", type=_path, required=True, help="trace file")
    add_format(p)

    p = sub.add_parser("dot", help="render a model as Graphviz DOT")
    p.add_argument("--model", type=_path, required=True)

    p = sub.add_parser("discretize", help="turn a numeric series into trace data")
    p.add_argument("--input", type=_path, required=True, help="CSV/text file, one value per line")
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--method", choices=[m.value for m in BinMethod], default="uniform")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--target", choices=[t.value for t in TargetKind], default="delta")
    p.add_argument("--skip-header", action="store_true",
                   help="ignore the first line of the input")
    return parser


def _cmd_learn(args) -> int:
    # Every flag value is checked, whichever heuristic runs, before the input is read.
    heuristics = {"edsm": Edsm(), "alergia": Alergia(args.alpha), "mse": Mse(args.penalty)}
    cfg = LearnerConfig(heuristic=heuristics[args.heuristic], min_evidence=args.min_evidence)
    with _about(args.input):
        sample = _read_sample(args.input, args.format)
        # Every MSE trial on such a sample fails, so nothing would merge.
        if args.heuristic == "mse" and all(
                s.target is None for t in sample.traces for s in t.symbols):
            raise ValueError("no trace carries a target, which --heuristic mse needs")
        model, log = learn(sample, cfg)
    if args.trace:
        sys.stderr.write(log.text())
    text = save_model(model)
    if args.output:
        with _about(args.output):
            Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.dot:
        with _about(args.dot):
            Path(args.dot).write_text(write_dot(model), encoding="utf-8")
    return 0


def _cmd_predict(args) -> int:
    cfg = PredictionConfig(Fallback(args.fallback))
    with _about(args.model):
        model = load_model(_read_text(args.model))
    with _about(args.input):
        sample = _read_sample(args.input, args.format)
    # Every value is computed before the first is written, so a failed query
    # leaves stdout empty.
    with _about(args.model):
        lines = [f"{predict_value(model, trace.word, cfg)!r}\n" for trace in sample.traces]
    sys.stdout.write("".join(lines))
    return 0


def _cmd_generate(args) -> int:
    with _about(args.model):
        model = load_model(_read_text(args.model))
        # Every word is drawn before the first is written, so a failed draw
        # leaves stdout empty.
        words = sample_words(model, args.n, args.seed, args.max_len)
    write = sys.stdout.write
    for line in positive_lines(words, len(model.alphabet)):
        write(line)
    return 0


def _cmd_eval(args) -> int:
    with _about(args.model):
        model = load_model(_read_text(args.model))
    with _about(args.input):
        sample = _read_sample(args.input, args.format)
    with _about(args.model):
        report = evaluate(model, sample)
    lines = [
        f"traces {report.traces}",
        f"accepted {report.accepted}",
        f"rejected {report.rejected}",
        f"positives_accepted {report.pos_accepted}/{report.pos_total}",
        f"negatives_rejected {report.neg_rejected}/{report.neg_total}",
    ]
    if report.accuracy is not None:
        lines.append(f"accuracy {report.accuracy!r}")
    if report.mse is not None:
        lines.append(f"mse {report.mse!r}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_dot(args) -> int:
    with _about(args.model):
        text = write_dot(load_model(_read_text(args.model)))
    sys.stdout.write(text)
    return 0


def _cmd_discretize(args) -> int:
    spec = DiscretizationSpec(bins=args.bins, method=BinMethod(args.method),
                              window=args.window, target=TargetKind(args.target))
    with _about(args.input):
        sample = discretize(_read_series(args.input, args.skip_header), spec)
    sys.stdout.write(write_sample(sample))
    return 0


_COMMANDS = {
    "learn": _cmd_learn,
    "predict": _cmd_predict,
    "generate": _cmd_generate,
    "eval": _cmd_eval,
    "dot": _cmd_dot,
    "discretize": _cmd_discretize,
}


def run(argv: list[str]) -> int:
    """Run one subcommand; returns the process exit code instead of exiting."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 for --help; remap to our codes
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except (_DataError, OSError, UnicodeEncodeError) as exc:
        # Outside every _About, the last two come from writing to stdout or stderr.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Only building a flag's configuration, before any read, raises one here.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

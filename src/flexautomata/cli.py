"""Command-line front end.

Subcommands cover the whole pipeline: ``discretize`` turns a numeric series
into trace data, ``learn`` fits a model, ``predict``/``generate``/``eval``
use one, and ``dot`` renders one for Graphviz.  Outputs are written to
stdout unless a flag says otherwise, and every subcommand's output can be
fed back into the matching parser.

Exit codes: 0 on success, 1 for usage errors (unknown flags, bad flag
values), 2 for data errors (unreadable files, malformed input, impossible
requests).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .automaton import Automaton
from .errors import (
    GenerationError,
    InconsistentSampleError,
    ModelFormatError,
    PredictionError,
    SampleFormatError,
)
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
    SymbolInstance,
    Trace,
    TraceLabel,
    load_model,
    parse_abbadingo,
    parse_augmented,
    save_model,
    write_dot,
    write_sample,
)

_DATA_ERRORS = (
    SampleFormatError,
    InconsistentSampleError,
    ModelFormatError,
    PredictionError,
    GenerationError,
    OSError,
    UnicodeDecodeError,
)


class _DataError(Exception):
    """Wraps a message that should exit with code 2."""


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _read_sample(path: str, fmt: str) -> Sample:
    text = _read_text(path)
    try:
        if fmt == "abbadingo":
            return parse_abbadingo(text)
        return parse_augmented(text)
    except SampleFormatError as exc:
        raise _DataError(f"{path}: {exc}") from exc


def _read_model(path: str) -> Automaton:
    try:
        return load_model(_read_text(path))
    except ModelFormatError as exc:
        raise _DataError(f"{path}: {exc}") from exc


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
    p.add_argument("--input", required=True, help="trace file")
    add_format(p)
    p.add_argument("--heuristic", choices=["edsm", "alergia", "mse"], default="edsm")
    p.add_argument("--alpha", type=float, default=0.05, help="alergia rejection level")
    p.add_argument("--penalty", type=float, default=0.0, help="mse reward per merged pair")
    p.add_argument("--min-evidence", type=float, default=0.0,
                   help="scores below this are not merged "
                        "(--min-evidence=-inf disables the cutoff)")
    p.add_argument("--output", help="model file (default: stdout)")
    p.add_argument("--dot", help="also write a DOT rendering to this file")
    p.add_argument("--trace", action="store_true", help="log merges and promotions to stderr")

    p = sub.add_parser("predict", help="predict a target value per trace")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="trace file")
    add_format(p)
    p.add_argument("--fallback", choices=[f.value for f in Fallback], default="mean",
                   help="policy for words outside the model's domain")

    p = sub.add_parser("generate", help="sample accepted words from a model")
    p.add_argument("--model", required=True)
    p.add_argument("-n", type=int, default=10, help="number of words")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=int, default=32)

    p = sub.add_parser("eval", help="replay a trace file and report accuracy")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="trace file")
    add_format(p)

    p = sub.add_parser("dot", help="render a model as Graphviz DOT")
    p.add_argument("--model", required=True)

    p = sub.add_parser("discretize", help="turn a numeric series into trace data")
    p.add_argument("--input", required=True, help="CSV/text file, one value per line")
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--method", choices=[m.value for m in BinMethod], default="uniform")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--target", choices=[t.value for t in TargetKind], default="delta")
    p.add_argument("--skip-header", action="store_true",
                   help="ignore the first line of the input")
    return parser


def _cmd_learn(args) -> int:
    sample = _read_sample(args.input, args.format)
    if args.heuristic == "edsm":
        heuristic = Edsm()
    elif args.heuristic == "alergia":
        heuristic = Alergia(args.alpha)
    else:
        heuristic = Mse(args.penalty)
    cfg = LearnerConfig(
        heuristic=heuristic,
        min_evidence=args.min_evidence,
        debug_trace=args.trace,
    )
    model, _log = learn(sample, cfg)
    text = save_model(model)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.dot:
        Path(args.dot).write_text(write_dot(model), encoding="utf-8")
    return 0


def _cmd_predict(args) -> int:
    model = _read_model(args.model)
    sample = _read_sample(args.input, args.format)
    cfg = PredictionConfig(Fallback(args.fallback))
    for trace in sample.traces:
        sys.stdout.write(repr(predict_value(model, trace.word, cfg)) + "\n")
    return 0


def _cmd_generate(args) -> int:
    model = _read_model(args.model)
    if args.n < 0:
        raise _DataError("n must be >= 0")
    if args.max_len < 0:
        raise _DataError("max-len must be >= 0")
    words = sample_words(model, args.n, args.seed, args.max_len)
    traces = tuple(
        Trace(TraceLabel.POSITIVE, tuple(SymbolInstance(s) for s in word)) for word in words
    )
    sys.stdout.write(write_sample(Sample(traces, model.alphabet)))
    return 0


def _cmd_eval(args) -> int:
    model = _read_model(args.model)
    sample = _read_sample(args.input, args.format)
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
    model = _read_model(args.model)
    sys.stdout.write(write_dot(model))
    return 0


def _cmd_discretize(args) -> int:
    lines = _read_text(args.input).splitlines()
    if args.skip_header and lines:
        lines = lines[1:]
    series = []
    for i, ln in enumerate(lines, start=1 + bool(args.skip_header)):
        ln = ln.strip().rstrip(",")
        if not ln:
            continue
        try:
            series.append(float(ln))
        except ValueError:
            raise _DataError(f"{args.input}: line {i}: not a number: {ln!r}") from None
    spec = DiscretizationSpec(
        bins=args.bins,
        method=BinMethod(args.method),
        window=args.window,
        target=TargetKind(args.target),
    )
    try:
        sample = discretize(series, spec)
    except ValueError as exc:
        raise _DataError(str(exc)) from exc
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 for --help; remap to our codes
        return 0 if exc.code == 0 else 1
    try:
        try:
            return _COMMANDS[args.command](args)
        except ValueError as exc:
            # bad flag values surface as ValueError from config constructors
            if isinstance(exc, _DATA_ERRORS):
                raise
            print(f"error: {exc}", file=sys.stderr)
            return 1
    except _DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))

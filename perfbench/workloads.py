"""The four benchmark workloads: inputs, CLI job sequence and output checks.

A workload instance is one set of generated input files.  Its cycle is the
list of CLI jobs a user would type for those files, run back to back.  Each
job carries a check on its output; checks run after the cycle, untimed, and
use only the library's public API plus the reference walk below.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import flexautomata as fa

import gen


@dataclass
class Job:
    """One CLI invocation.

    ``check`` gets the job's stdout and returns an error message or None.
    ``items`` is the number of traces (or words) the job processes, the
    base of its throughput.  ``stdout_to`` names a file the output is
    redirected to, as a shell user would.
    """

    kind: str
    argv: list[str]
    check: Callable[[str], str | None]
    items: int = 0
    stdout_to: Path | None = None


@dataclass
class Instance:
    dir: Path
    files: dict[str, Path] = field(default_factory=dict)
    model: Path | None = None
    queries: Path | None = None
    query_format: str = "augmented"
    n_queries: int = 0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write(inst: Instance, name: str, text: str) -> Path:
    path = inst.dir / name
    path.write_text(text, encoding="utf-8")
    inst.files[name] = path
    return path


# ---------------------------------------------------------------------------
# Reference answers, computed from a loaded model without the predict module


def reference_walk(model, word) -> tuple[list[int], bool]:
    path = [model.start]
    for sym in word:
        nxt = model.transitions.get((path[-1], sym))
        if nxt is None:
            return path, False
        path.append(nxt)
    return path, True


def accepts(model, word) -> bool:
    path, complete = reference_walk(model, word)
    return complete and path[-1] in model.accepting


def in_domain(model, word) -> bool:
    """Whether a prediction for ``word`` is the end state's own mean."""
    path, complete = reference_walk(model, word)
    return complete and model.states[path[-1]].target_count > 0


def reference_prediction(model, word, fallback: str) -> tuple[float, bool]:
    """(expected value, in domain) for ``predict --fallback mean|last``."""
    path, complete = reference_walk(model, word)
    end = model.states[path[-1]]
    if in_domain(model, word):
        return end.target_sum / end.target_count, True
    if fallback == "last":
        for q in reversed(path):
            agg = model.states[q]
            if agg.target_count > 0:
                return agg.target_sum / agg.target_count, False
    total = sum(s.target_count for s in model.states.values())
    return sum(s.target_sum for s in model.states.values()) / total, False


def check_prediction(model, word, fallback: str, got: float) -> str | None:
    want, in_domain = reference_prediction(model, word, fallback)
    if in_domain:
        ok = got == want  # the end state's mean, exactly
    else:
        ok = math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    return None if ok else f"word {word}: predicted {got!r}, expected {want!r}"


def has_targets(model) -> bool:
    return any(s.target_count for s in model.states.values())


# ---------------------------------------------------------------------------
# Checks on job outputs


def _read_model(path: Path):
    return fa.load_model(path.read_text(encoding="utf-8"))


def check_model_roundtrip(path: Path) -> Callable[[str], str | None]:
    def check(_out: str) -> str | None:
        text = path.read_text(encoding="utf-8")
        if fa.save_model(fa.load_model(text)) != text:
            return f"{path.name}: save -> load -> save is not byte-identical"
        return None
    return check


def _eval_report(out: str) -> dict[str, str]:
    return dict(ln.split(" ", 1) for ln in out.splitlines() if " " in ln)


def check_eval(n_traces: int, need: tuple[str, ...] = (),
               accuracy: float | None = None) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        report = _eval_report(out)
        if report.get("traces") != str(n_traces):
            return f"eval reported {report.get('traces')!r} traces, expected {n_traces}"
        for key in need:
            if key not in report or not math.isfinite(float(report[key])):
                return f"eval output lacks a finite {key}"
        if accuracy is not None and float(report["accuracy"]) != accuracy:
            return f"eval accuracy {report['accuracy']}, expected {accuracy!r}"
        return None
    return check


def check_predict(model_path: Path, queries: Path, fallback: str) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        model = _read_model(model_path)
        words = [t.word for t in fa.parse_augmented(queries.read_text(encoding="utf-8")).traces]
        lines = out.splitlines()
        if len(lines) != len(words):
            return f"predict printed {len(lines)} lines for {len(words)} queries"
        for word, line in zip(words, lines):
            err = check_prediction(model, word, fallback, float(line))
            if err:
                return err
        return None
    return check


def check_generate(model_path: Path, n: int, max_len: int) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        model = _read_model(model_path)
        lines = out.splitlines()
        if lines[0] != f"{n} {len(model.alphabet)}" or len(lines) != n + 1:
            return f"generate header {lines[0]!r} / {len(lines) - 1} words, expected {n}"
        for ln in lines[1:]:
            tokens = ln.split()
            word = tuple(int(t) for t in tokens[2:])
            if tokens[0] != "1" or int(tokens[1]) != len(word) or len(word) > max_len:
                return f"malformed generated word {ln!r}"
            if not fa.compute(model, word).accepted:
                return f"generated word {word} is not accepted"
        return None
    return check


def check_dot(out: str) -> str | None:
    if not (out.startswith("digraph") and out.rstrip().endswith("}")):
        return "dot output is not a digraph"
    return None


def check_discretize(n_traces: int) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        sample = fa.parse_augmented(out)
        if len(sample.traces) != n_traces:
            return f"discretize wrote {len(sample.traces)} traces, expected {n_traces}"
        return None
    return check


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""

    def setup(self, rng: random.Random, inst: Instance) -> None:
        raise NotImplementedError

    def jobs(self, inst: Instance) -> list[Job]:
        raise NotImplementedError


def _learn_job(inst: Instance, train: Path, fmt: str, heuristic: str) -> Job:
    inst.model = inst.dir / "model.txt"
    argv = ["learn", "--input", str(train), "--format", fmt,
            "--heuristic", heuristic, "--output", str(inst.model)]
    return Job("learn", argv, check_model_roundtrip(inst.model))


def _eval_job(inst: Instance, path: Path, fmt: str, n: int, **kw) -> Job:
    argv = ["eval", "--model", str(inst.model), "--input", str(path), "--format", fmt]
    return Job("eval", argv, check_eval(n, **kw), items=n)


def _generate_job(inst: Instance, n: int, seed: int, max_len: int) -> Job:
    argv = ["generate", "--model", str(inst.model), "-n", str(n),
            "--seed", str(seed), "--max-len", str(max_len)]
    return Job("generate", argv, check_generate(inst.model, n, max_len), items=n)


def _predict_job(inst: Instance, fallback: str) -> Job:
    argv = ["predict", "--model", str(inst.model), "--input", str(inst.queries),
            "--fallback", fallback]
    return Job("predict", argv, check_predict(inst.model, inst.queries, fallback),
               items=inst.n_queries)


class DfaEdsm(Workload):
    """Labeled words of a random 64-state, 4-symbol DFA, learned with EDSM."""

    name = "dfa-edsm"
    TRAIN, TEST, MAX_LEN, WORDS = 120, 1000, 20, 200

    def setup(self, rng, inst):
        dfa = gen.random_dfa(rng, 64, 4)
        _write(inst, "train.txt", gen.labeled_traces(rng, dfa, 4, self.TRAIN, self.MAX_LEN))
        inst.queries = _write(inst, "test.txt", gen.labeled_traces(rng, dfa, 4, self.TEST, self.MAX_LEN))
        inst.query_format = "abbadingo"
        inst.n_queries = self.TEST

    def jobs(self, inst):
        train = inst.files["train.txt"]
        return [
            _learn_job(inst, train, "abbadingo", "edsm"),
            # EDSM is consistent with its sample: every training word is classified right.
            _eval_job(inst, train, "abbadingo", self.TRAIN, accuracy=1.0),
            _eval_job(inst, inst.queries, "abbadingo", self.TEST, need=("accuracy",)),
            _generate_job(inst, self.WORDS, 1, self.MAX_LEN),
        ]


class WalkAlergia(Workload):
    """Unlabeled stopping random walks over a fixed 6-state machine, learned with ALERGIA.

    The machine is the same for every seed, which draws only the walks: with
    a random machine per instance the learn time varied twice as much.
    """

    name = "walk-alergia"
    TRAIN, TEST, MAX_LEN, MACHINE_SEED = 600, 1000, 40, 7

    def setup(self, rng, inst):
        machine = gen.walk_model(random.Random(self.MACHINE_SEED), 6, 3, 0.12)
        _write(inst, "train.txt", gen.walk_traces(rng, machine, self.TRAIN, self.MAX_LEN))
        inst.queries = _write(inst, "test.txt", gen.walk_traces(rng, machine, self.TEST, self.MAX_LEN))
        inst.n_queries = self.TEST

    def jobs(self, inst):
        return [
            _learn_job(inst, inst.files["train.txt"], "augmented", "alergia"),
            _eval_job(inst, inst.queries, "augmented", self.TEST),
        ]


class SeriesMse(Workload):
    """A noisy three-level step series, discretized and learned with MSE."""

    name = "series-mse"
    TRAIN, TEST, BINS, WINDOW = 1200, 1000, 4, 5

    def setup(self, rng, inst):
        _write(inst, "train.csv", gen.step_series(rng, self.TRAIN, 3, 100, 1.0))
        _write(inst, "test.csv", gen.step_series(rng, self.TEST, 3, 100, 1.0))
        inst.queries = inst.dir / "test-traces.txt"
        inst.n_queries = self.TEST - self.WINDOW

    def _discretize(self, csv: Path, out: Path, n_values: int) -> Job:
        argv = ["discretize", "--input", str(csv), "--bins", str(self.BINS),
                "--window", str(self.WINDOW)]
        n = n_values - self.WINDOW
        return Job("discretize", argv, check_discretize(n), items=n, stdout_to=out)

    def jobs(self, inst):
        train = inst.dir / "train-traces.txt"
        return [
            self._discretize(inst.files["train.csv"], train, self.TRAIN),
            self._discretize(inst.files["test.csv"], inst.queries, self.TEST),
            _learn_job(inst, train, "augmented", "mse"),
            _predict_job(inst, "mean"),
            _eval_job(inst, inst.queries, "augmented", inst.n_queries, need=("mse",)),
        ]


class Serve(Workload):
    """A large labeled prefix-tree model with targets, queried without learning."""

    name = "serve"
    TRAIN, QUERIES, MAX_LEN, OFF_SHARE, WORDS = 500, 800, 20, 0.3, 200

    def setup(self, rng, inst):
        train, queries = gen.serve_inputs(rng, 4, self.TRAIN, self.QUERIES,
                                          self.MAX_LEN, self.OFF_SHARE)
        train_path = _write(inst, "train.txt", train)
        inst.queries = _write(inst, "queries.txt", queries)
        inst.n_queries = self.QUERIES
        # The model is the training set's prefix tree: no learning involved.
        apta = fa.build_apta(fa.parse_augmented(train_path.read_text(encoding="utf-8")))
        inst.model = _write(inst, "model.txt", fa.save_model(apta))

    def jobs(self, inst):
        return [
            _eval_job(inst, inst.queries, "augmented", self.QUERIES, need=("accuracy", "mse")),
            _predict_job(inst, "mean"),
            _predict_job(inst, "last"),
            _generate_job(inst, self.WORDS, 1, self.MAX_LEN),
            Job("dot", ["dot", "--model", str(inst.model)], check_dot),
        ]


WORKLOADS = {w.name: w for w in (DfaEdsm(), WalkAlergia(), SeriesMse(), Serve())}

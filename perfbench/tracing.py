"""Spans and counters around the program's public calls, from outside it.

:class:`Tracer` replaces each traced function, wherever the package has
bound it (the defining module and every module that imported the name), by
a wrapper that records one span per call: name, start, end and the span that
was open when it began.  Spans sit in compact arrays until the run ends and
are then written out.  A few wrappers also look at the call's result to
count work (trial merges, conflicts, scores, queries).  Nothing under the
package's source tree is edited; :meth:`Tracer.uninstall` puts every
original binding back.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name); a dotted attribute is a method of a class.
TRACED = [
    ("cli", "run", "cli.run"),
    ("sample_io", "parse_abbadingo", "sample_io.parse"),
    ("sample_io", "parse_augmented", "sample_io.parse"),
    ("sample_io", "save_model", "sample_io.save"),
    ("sample_io", "load_model", "sample_io.load"),
    ("sample_io", "write_dot", "sample_io.write_dot"),
    ("sample_io", "write_sample", "sample_io.write_sample"),
    ("automaton", "check_integrity", "automaton.check_integrity"),
    ("apta", "build_apta", "apta.build"),
    ("learner", "learn", "learner.learn"),
    ("merging", "MergeArena.__init__", "merging.arena_build"),
    ("merging", "MergeArena.run_merge", "merging.run_merge"),
    ("merging", "MergeArena.rollback", "merging.rollback"),
    ("merging", "MergeArena.extract", "merging.extract"),
    ("heuristics", "score_outcome", "heuristics.score"),
    ("predict", "discretize", "predict.discretize"),
    ("predict", "evaluate", "predict.evaluate"),
    ("predict", "predict_value", "predict.predict_value"),
    ("predict", "global_target_mean", "predict.global_mean"),
    ("predict", "sample_words", "predict.sample_words"),
]

PACKAGE = "flexautomata"

# Spans whose inclusive time is reported as a layer's busy time.
LAYER_SPANS = [
    "merging.run_merge", "merging.rollback", "merging.extract", "merging.arena_build",
    "heuristics.score", "learner.learn", "apta.build",
    "sample_io.parse", "sample_io.save", "sample_io.load", "sample_io.write_dot",
    "sample_io.write_sample", "automaton.check_integrity",
    "predict.discretize", "predict.evaluate", "predict.predict_value", "predict.sample_words",
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.queries: list[tuple] = []  # (model, word) of every predict_value call
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, after=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def _after_hooks(self):
        counts = self.counts

        def run_merge(result, args):
            outcome, frame = result
            counts["merging.run_merge_calls"] += 1
            counts["merging.pairs_folded"] += len(frame.created)
            counts["merging.conflicts"] += outcome.label_conflict

        def score(result, args):
            counts["heuristics.failed"] += result.failed

        def learn(result, args):
            _model, log = result
            for event in log.events:
                if event[0] == "PRUNE":  # ("PRUNE", id, id, ...)
                    counts["learner.pruned_states"] += len(event) - 1
                else:  # ("PROMOTE", id) or ("MERGE", red, blue, score)
                    counts["learner." + event[0].lower()] += 1
            counts["learner.final_states"] += log.final_states

        def parse(result, args):
            counts["sample_io.parse_traces"] += len(result.traces)

        def save(result, args):
            counts["sample_io.model_bytes"] += len(result.encode("utf-8"))

        def build(result, args):
            counts["apta.states"] += result.state_count

        def predict_value(result, args):
            self.queries.append((args[0], args[1]))

        def sample_words(result, args):
            counts["predict.words_generated"] += len(result)

        return {
            "merging.run_merge": run_merge,
            "heuristics.score": score,
            "learner.learn": learn,
            "sample_io.parse": parse,
            "sample_io.save": save,
            "apta.build": build,
            "predict.predict_value": predict_value,
            "predict.sample_words": sample_words,
        }

    def install(self) -> None:
        """Wrap every traced call in every loaded module of the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._after_hooks()
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for mod_name, attr, span in TRACED:
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(span, original, hooks.get(span)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original, hooks.get(span))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._stack.clear()

    def mark(self) -> int:
        """Index of the next span, to delimit one cycle's spans."""
        return len(self.start)

    def reset_counts(self) -> None:
        self.counts.clear()
        self.queries.clear()

    def cycle_metrics(self, lo: int, hi: int, in_domain) -> tuple[dict, dict]:
        """Per-layer counts and busy nanoseconds over spans [lo, hi).

        Counts are ``{name: (value, unit)}``; busy times are ``{name: ns}``,
        inclusive except for the ``*.self`` entries.  ``in_domain(model,
        word)`` classifies the recorded prediction queries.
        """
        total: Counter = Counter()
        calls: Counter = Counter()
        child: Counter = Counter()
        for i in range(lo, hi):
            d = self.end[i] - self.start[i]
            name = self.names[self.name_id[i]]
            total[name] += d
            calls[name] += 1
            if self.parent[i] >= lo:
                child[self.parent[i]] += d
        own: Counter = Counter()
        for i in range(lo, hi):
            own[self.names[self.name_id[i]]] += self.end[i] - self.start[i] - child[i]

        c = self.counts
        merges = c["learner.merge"]
        trials = c["merging.run_merge_calls"] - merges
        scores = calls["heuristics.score"]
        off = sum(not in_domain(model, word) for model, word in self.queries)
        counts = {
            "merging.trials": (trials, "count"),
            "merging.pairs_folded": (c["merging.pairs_folded"], "count"),
            "merging.conflicts": (c["merging.conflicts"], "count"),
            "merging.rollbacks": (calls["merging.rollback"], "count"),
            "merging.arena_builds": (calls["merging.arena_build"], "count"),
            "merging.useful_trial_ratio": (merges / trials if trials else 0.0, "ratio"),
            "heuristics.scores": (scores, "count"),
            "heuristics.failed_ratio": (c["heuristics.failed"] / scores if scores else 0.0, "ratio"),
            "learner.iterations": (c["learner.promote"] + merges, "count"),
            "learner.merges": (merges, "count"),
            "learner.promotions": (c["learner.promote"], "count"),
            "learner.final_states": (c["learner.final_states"], "count"),
            "learner.pruned_states": (c["learner.pruned_states"], "count"),
            "apta.states": (c["apta.states"], "count"),
            "sample_io.parse_traces": (c["sample_io.parse_traces"], "count"),
            "sample_io.model_bytes": (c["sample_io.model_bytes"], "bytes"),
            "predict.predict_calls": (calls["predict.predict_value"], "count"),
            "predict.global_mean_calls": (calls["predict.global_mean"], "count"),
            "predict.fallback_ratio": (off / len(self.queries) if self.queries else 0.0, "ratio"),
            "predict.words_generated": (c["predict.words_generated"], "count"),
        }
        busy = {name: total[name] for name in LAYER_SPANS}
        busy["learner.self"] = own["learner.learn"]
        busy["cli.self"] = own["cli.run"]
        return counts, busy

    def write(self, path) -> None:
        """All spans as gzipped TSV: id, name, parent id, start ns, end ns."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
            f.write("id\tname\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.parent[i]}\t"
                        f"{self.start[i]}\t{self.end[i]}\n")

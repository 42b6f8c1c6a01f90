#!/usr/bin/env python3
"""Learn-and-serve benchmark for flexautomata.

Usage (from the repository root):

    python3 perfbench/run.py --workload dfa-edsm --seed 1 --seconds 30 --trace 0

The benchmark imports the package from ``src/`` next to this directory and
drives it as a single closed-loop client: it generates one workload
instance from the seed, runs that instance's CLI jobs back to back through
``flexautomata.cli.run`` in this process, checks every output, and repeats
with the next instance until ``--seconds`` have passed.  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it runs each instance
once untraced and once traced and reports per-layer metrics derived from
the spans (see ``tracing.py``).  Human-readable lines come first; the last
line of stdout is one JSON object.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"

MIN_QUERIES = 1000  # library query calls per instance, for stable latency percentiles


def calibration_loop() -> float:
    """Seconds taken by a fixed piece of interpreter work (a few ms).

    It runs before every job, in the same process, so it sees the same
    contention from other tenants of the host as the job does.  Untraced
    timings are reported in units of its time (``ref``) as well as in
    seconds: on a shared host both swing together by up to 1.5x from one
    minute to the next, while their ratio stays within a few percent.
    """
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(20000):
        d[i % 977] = d.get(i % 997, 0) + i
    sorted(d.values())
    return time.perf_counter() - t0


def fail_setup(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import flexautomata from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "flexautomata" / "__init__.py").is_file():
        fail_setup(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import flexautomata
    import flexautomata.cli

    if Path(flexautomata.__file__).resolve().parent != SRC / "flexautomata":
        fail_setup(f"imported flexautomata from {flexautomata.__file__}, not {SRC}")
    return flexautomata


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def summary(values) -> str:
    """Median plus the highest of p90/p99/p99.9 with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    parts = [f"p50 {statistics.median(values):.6g}"]
    for p in (0.999, 0.99, 0.9):
        if n * (1 - p) >= 10:
            parts.append(f"p{p * 100:g} {values[int(p * n)]:.6g}")
            break
    return ", ".join(parts) + f" (n={n})"


class Run:
    """Everything measured and checked over one benchmark run."""

    def __init__(self, fa, wl, workload, seed: int, tracer, work_dir: Path):
        self.fa = fa
        self.wl = wl
        self.workload = workload
        self.seed = seed
        self.tracer = tracer  # None for an untraced run
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.lines: list[str] = []
        self.setup_s: list[float] = []
        self.cycle_s: list[float] = []
        self.job_s: dict[str, list[float]] = {}
        self.job_items: dict[str, int] = {}
        self.query_ns: list[int] = []
        self.ref_s: list[float] = []  # per instance: median calibration time
        self.cycle_ref: list[float] = []
        self.eval_ref = 0.0  # eval time in ref units
        self.query_ref: list[float] = []
        # traced runs only
        self.layer_counts: dict | None = None
        self.layer_shares: list[dict[str, float]] = []
        self.pairs: list[tuple[dict[str, float], dict[str, float]]] = []  # (traced, untraced)

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(msg)

    def run_jobs(self, jobs) -> tuple[list, dict[str, float], list[float]]:
        """Run the jobs back to back.

        Returns the results, the seconds per job kind, and the calibration
        times taken before each job (outside the job's own time).
        """
        results = []
        kinds: dict[str, float] = {}
        probes = []
        for job in jobs:
            probes.append(calibration_loop())
            t0 = time.perf_counter()
            try:
                code, out, err = run_cli(self.fa.cli, job.argv)
                if job.stdout_to is not None:
                    job.stdout_to.write_text(out, encoding="utf-8")
            except Exception:  # a crash is a failed operation, not the end of the run
                code, out, err = None, "", traceback.format_exc()
            dt = time.perf_counter() - t0
            kinds[job.kind] = kinds.get(job.kind, 0.0) + dt
            results.append((job, code, out, err, dt))
        return results, kinds, probes

    def check_jobs(self, results) -> None:
        for job, code, out, err, _dt in results:
            self.attempted += 1
            if code != 0:
                self.fail(f"{job.kind}: exit {code}: {err.strip()[-300:]}")
                continue
            try:
                msg = job.check(out)
            except Exception:
                msg = traceback.format_exc(limit=2)
            if msg:
                self.fail(f"{job.kind}: {msg}")

    def query_loop(self, inst, ref: float) -> None:
        """Online queries through the library on the loaded model, timed per call."""
        fa, wl = self.fa, self.wl
        model = fa.load_model(inst.model.read_text(encoding="utf-8"))
        parse = fa.parse_abbadingo if inst.query_format == "abbadingo" else fa.parse_augmented
        words = [t.word for t in parse(inst.queries.read_text(encoding="utf-8")).traces]
        if wl.has_targets(model):
            predict, cfg = fa.predict_value, fa.PredictionConfig()
            query = lambda w: predict(model, w, cfg)  # noqa: E731
        else:
            compute = fa.compute
            query = lambda w: compute(model, w).accepted  # noqa: E731
        clock = time.perf_counter_ns
        answers = []
        start = len(self.query_ns)
        while len(answers) < MIN_QUERIES:
            for w in words:
                t0 = clock()
                r = query(w)
                self.query_ns.append(clock() - t0)
                answers.append((w, r))
        self.query_ref.extend(ns / 1e9 / ref for ns in self.query_ns[start:])
        for w, r in answers:
            self.attempted += 1
            if isinstance(r, float):
                msg = wl.check_prediction(model, w, "mean", r)
            else:
                want = wl.accepts(model, w)
                msg = None if r == want else f"word {w}: compute accepted={r}, expected {want}"
            if msg:
                self.fail(f"query: {msg}")

    def cycle(self, index: int) -> None:
        wl = self.wl
        inst = wl.Instance(dir=self.work_dir / f"i{index}")
        inst.dir.mkdir(parents=True)
        rng = random.Random(f"{self.workload.name}/{self.seed}/{index}")
        t0 = time.perf_counter()
        self.workload.setup(rng, inst)
        self.setup_s.append(time.perf_counter() - t0)

        results, kinds, probes = self.run_jobs(self.workload.jobs(inst))
        self.check_jobs(results)
        model_sha = wl.sha256(inst.model) if inst.model.exists() else "-"
        if self.tracer is None:
            probes.append(calibration_loop())
            ref = statistics.median(probes)
            self.ref_s.append(ref)
            self.cycle_s.append(sum(kinds.values()))
            self.cycle_ref.append(self.cycle_s[-1] / ref)
            self.eval_ref += kinds.get("eval", 0.0) / ref
            for job, _code, _out, _err, dt in results:
                self.job_s.setdefault(job.kind, []).append(dt)
                self.job_items[job.kind] = self.job_items.get(job.kind, 0) + job.items
            try:
                self.query_loop(inst, ref)
            except Exception:  # a crash is a failed operation, not the end of the run
                self.attempted += 1
                self.fail(f"query loop: {traceback.format_exc(limit=2)}")
        else:
            self.traced_cycle(index, inst, kinds, model_sha)
        inputs = " ".join(f"{name}={wl.sha256(p)}" for name, p in sorted(inst.files.items()))
        self.lines.append(f"instance {index}: {inputs} model={model_sha}")
        shutil.rmtree(inst.dir)

    def traced_cycle(self, index: int, inst, untraced: dict[str, float], model_sha: str) -> None:
        tr = self.tracer
        tr.reset_counts()
        lo = tr.mark()
        tr.install()
        try:
            results, kinds, _probes = self.run_jobs(self.workload.jobs(inst))
        finally:
            tr.uninstall()
        counts, busy = tr.cycle_metrics(lo, tr.mark(), self.wl.in_domain)
        self.check_jobs(results)
        self.attempted += 1
        if not inst.model.exists() or self.wl.sha256(inst.model) != model_sha:
            self.fail("the traced cycle wrote a different model than the untraced one")
        wall = sum(kinds.values())
        self.pairs.append((kinds, untraced))
        shares = {f"{name}_share": ns / 1e9 / wall for name, ns in busy.items()}
        shares["trace.cycle_s"] = wall
        self.layer_shares.append(shares)
        if index == 0:
            self.layer_counts = counts  # exact counts come from the first instance

    def metrics(self) -> dict[str, tuple[float, str]]:
        if self.tracer is not None:
            out = dict(self.layer_counts)
            for name in self.layer_shares[0]:
                unit = "s" if name.endswith("_s") else "share"
                out[name] = (statistics.median(c[name] for c in self.layer_shares), unit)
            traced = statistics.median(sum(t.values()) for t, _ in self.pairs)
            untraced = statistics.median(sum(u.values()) for _, u in self.pairs)
            out["trace.overhead_share"] = ((traced - untraced) / untraced, "share")
            return out
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "cycle_ref": (statistics.median(self.cycle_ref), "ref"),
            "eval_traces_per_ref": (self.job_items["eval"] / self.eval_ref, "1/ref"),
            "query_p50_ref": (statistics.median(self.query_ref), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def report(self) -> list[str]:
        lines = list(self.lines)
        lines.append(f"setup_s {summary(self.setup_s)} s")
        if self.tracer is not None:
            learn = [(t["learn"], u["learn"]) for t, u in self.pairs if "learn" in u]
            if learn:
                t = statistics.median(a for a, _ in learn)
                u = statistics.median(b for _, b in learn)
                lines.append(f"learn_s traced {t:.6f} untraced {u:.6f} "
                             f"tracing overhead {t - u:.6f} s")
            lines.append(f"traced cycles {len(self.layer_shares)}; "
                         "layer seconds per cycle (median over instances):")
            for name in sorted(self.layer_shares[0]):
                if name.endswith("_share"):
                    secs = statistics.median(c[name] * c["trace.cycle_s"] for c in self.layer_shares)
                    lines.append(f"  {name[:-len('_share')]}_s {secs:.6f} s")
        else:
            lines.append(f"ref_ms {summary(r * 1e3 for r in self.ref_s)} ms")
            lines.append(f"cycle_s {summary(self.cycle_s)} s")
            for kind, times in sorted(self.job_s.items()):
                lines.append(f"{kind}_s {summary(times)} s")
            for kind, unit in (("eval", "traces"), ("predict", "traces"), ("generate", "words")):
                if self.job_items.get(kind):
                    rate = self.job_items[kind] / sum(self.job_s[kind])
                    lines.append(f"{kind}_{unit}_per_s {rate:.6g} 1/s")
            lines.append(f"query_us {summary(v / 1e3 for v in self.query_ns)} us")
        frac = self.failed / max(self.attempted, 1)
        lines.append(f"fail_frac {frac:.6g} ({self.failed}/{self.attempted})")
        lines.extend(f"FAILED {e}" for e in self.errors)
        return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    fa = import_package()
    import workloads as wl
    from tracing import Tracer

    if args.workload not in wl.WORKLOADS:
        fail_setup(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    work_dir = RUN_DIR / f"{workload.name}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    run = Run(fa, wl, workload, args.seed, Tracer() if args.trace else None, work_dir)
    deadline = time.perf_counter() + args.seconds
    try:
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            run.cycle(index)
            index += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if run.tracer is not None:
        spans = RUN_DIR / "spans" / f"{workload.name}-s{args.seed}.tsv.gz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        run.tracer.write(spans)
        run.lines.append(f"spans written to {spans.relative_to(ROOT)}")

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for line in run.report():
        print(line)
    metrics = run.metrics()
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

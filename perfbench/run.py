#!/usr/bin/env python3
"""Time and H-evaluations to tolerance, Anderson-accelerated vs plain.

Usage (from the repository root):

    python3 perfbench/run.py --workload lasso-ista --seed 0 --seconds 25 --trace 0

One process, one caller, closed loop: every instance of the workload's block
is solved through ``aaopt.harness.run_experiment`` twice, once plainly and
once with Anderson acceleration (m=10), and each leg writes its trace CSV
under ``perfbench/out``.  Whole passes over the block repeat while the
next one fits in ``--seconds`` (at least one).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` adds a traced pass and prints the
per-layer split.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported anywhere in this process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracle  # noqa: E402
from spans import SpanTree, Tracer  # noqa: E402

SETUP_MIN_REPEATS = 11
SETUP_MIN_SECONDS = 0.5

# The machine's speed drifts by up to 1.7x within a minute (other tenants on
# a shared 2-core host), so every timed interval is bracketed by a fixed
# reference task and rescaled to the speed at which that task takes
# REF_SECONDS: reported = wall * REF_SECONDS / (mean of the two probes).
# REF_SECONDS is the probe's typical time on the unloaded development machine.
REF_SECONDS = 0.012


class SpeedProbe:
    """A fixed mix of interpreter work and small BLAS calls, timed on demand."""

    def __init__(self) -> None:
        self._a = np.random.default_rng(0).standard_normal((60, 60))
        self._v = np.ones(60)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        v, acc = self._v, 0.0
        for i in range(3000):
            v = self._a @ v
            v = v / float(np.linalg.norm(v))
            acc += i * 0.5
        return time.perf_counter() - t0


def measure(probe: SpeedProbe, fn):
    """Run ``fn``; return its result, wall seconds and reference-speed seconds."""
    before = probe()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    after = probe()
    return result, wall, wall * REF_SECONDS / (0.5 * (before + after))


@dataclass(frozen=True)
class Workload:
    problem: dict
    aa: dict
    instances: int
    oracle: str
    rtol: float  # allowed |objective - oracle| / max(1, |oracle|) for a converged leg
    # AA legs per instance, each from its own start point.  AA's evaluation
    # count depends strongly on the start (94 to 244 on one nnls instance),
    # the plain leg's barely, and a plain leg costs about five AA legs, so
    # extra AA starts steady the block for little time.
    aa_starts: int = 1


# Instance i of a block is generated from seed i; the workload seed only
# moves the start points (start seed = seed + i).  With --seed 0 every plain
# leg and the first AA leg of each instance is exactly `aaopt run` with
# run.seed = i.  Fixed instances keep the block's difficulty the same across
# seeds; see README.md for the measured spread.
WORKLOADS = {
    # README quick start: the AA leg is engine-bound, the plain leg bound by H
    # and monitoring, so an engine change moves aa_solve_s and not plain_solve_s.
    "lasso-ista": Workload(
        problem={
            "problem.kind": "lasso", "problem.rows": "40", "problem.cols": "200",
            "problem.lambda": "0.01", "algorithm.kind": "ista",
            "run.tol": "1e-10", "run.max_iter": "20000",
        },
        aa={"aa.memory": "10", "aa.restart": "1"},
        instances=12,
        oracle="lasso",
        rtol=1e-8,
        aa_starts=3,
    ),
    # H is the Python coordinate sweep; the engine runs under frequent
    # rejections and restarts.  max_iter 3000 lies above the 2857 sweeps of
    # the slowest converging plain leg at seed 0.
    "svm-pcd": Workload(
        problem={
            "problem.kind": "svm", "problem.rows": "100", "problem.cols": "20",
            "problem.c": "100", "algorithm.kind": "pcd",
            "run.tol": "1e-6", "run.max_iter": "3000",
        },
        aa={"aa.memory": "10"},
        instances=12,
        oracle="svm",
        rtol=1e-6,
    ),
    # CG inner solves and monitoring dominate; an engine change should move
    # nothing here.
    "nnls-drs": Workload(
        problem={
            "problem.kind": "nnls", "problem.rows": "300", "problem.cols": "200",
            "problem.lambda": "1e-3", "algorithm.kind": "drs", "algorithm.delta": "1",
            "run.tol": "1e-10", "run.max_iter": "5000",
        },
        aa={"aa.memory": "10"},
        instances=6,
        oracle="nnls",
        rtol=1e-8,
        aa_starts=4,
    ),
}

KINDS = ("aa", "plain")


# ---------------------------------------------------------------------------
# loading the program


def load_aaopt():
    """Import aaopt from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "aaopt" / "__init__.py").is_file():
        raise SystemExit("perfbench: aaopt sources not found under %s" % src)
    sys.path.insert(0, str(src))
    import aaopt
    from aaopt import anderson, harness, linalg, manifold, problems

    if src.resolve() not in Path(aaopt.__file__).resolve().parents:
        raise SystemExit("perfbench: imported aaopt from %s, not %s" % (aaopt.__file__, src))
    return harness, anderson, linalg, manifold, problems


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _git_commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "workload_seed": seed,
    }


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# legs


@dataclass
class Leg:
    instance: int
    kind: str
    start: int
    seconds: float = math.nan  # wall clock
    ref_seconds: float = math.nan  # rescaled to the probe's reference speed
    evals: int = 0
    iterations: int = 0
    rejects: int = 0
    status: str = "error"
    final_objective: float = math.nan
    objective_gap: float = math.nan
    failure: str = ""
    accepted: int = 0

    def ident(self) -> tuple:
        return (self.instance, self.kind, self.start)

    def key(self) -> tuple:
        return (self.evals, self.iterations, self.rejects, self.status)


class Bench:
    def __init__(self, name: str, seed: int, instances: int | None) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.n = instances if instances is not None else self.workload.instances
        self.harness, self.anderson, self.linalg, self.manifold, self.problems = load_aaopt()
        self.out = OUT / name
        self.out.mkdir(parents=True, exist_ok=True)
        # per instance: the first AA leg, the plain leg, then the extra AA starts
        self.legs = [("aa", 0), ("plain", 0)] + [("aa", k) for k in range(1, self.workload.aa_starts)]
        self.configs = {(i, kind, k): self._config(i, kind, k) for i in range(self.n) for kind, k in self.legs}
        self.starts: dict[tuple, np.ndarray] = {}
        self.oracle_values: list[float] = []
        self.probe = SpeedProbe()

    def _config(self, i: int, kind: str, k: int):
        kv = dict(self.workload.problem)
        kv["run.seed"] = str(i)
        kv["run.trace"] = str(self.out / ("i%d-%s%s.csv" % (i, kind, k or "")))
        if kind == "aa":
            kv.update(self.workload.aa)
            kv["aa.enabled"] = "true"
        else:
            kv["aa.enabled"] = "false"
        return self.harness.config_from_mapping(kv)

    # -- set-up ----------------------------------------------------------

    def build(self) -> list:
        """Generate every instance and build its operator."""
        return [self.harness.build_operator(self.configs[(i, "plain", 0)]) for i in range(self.n)]

    def prepare(self, contexts: list) -> list:
        """Draw the start points from the workload seed and count evaluations of H.

        Start 0 is drawn as the harness draws it for run.seed = seed + i;
        further AA starts use their own stream.
        """
        counters = []
        for i, ctx in enumerate(contexts):
            for k in range(self.workload.aa_starts):
                rng = np.random.default_rng(np.random.SeedSequence([self.seed + i, 1 + k]))
                self.starts[(i, k)] = rng.standard_normal(ctx.op.dimension)
            cell = [0]
            apply = ctx.op.apply

            def counted(x, apply=apply, cell=cell):
                cell[0] += 1
                return apply(x)

            ctx.op = replace(ctx.op, apply=counted)
            counters.append(cell)
        return counters

    def compute_oracles(self) -> None:
        """Reference optimum of every instance, captured from a separate build."""
        captured = []
        tracer = Tracer()
        for gen in ("gen_lasso", "gen_svm", "gen_nnls"):
            tracer.patch(self.problems, gen, "generate", after=lambda args, inst: captured.append(inst))
        try:
            self.build()
        finally:
            tracer.unpatch()
        if len(captured) != self.n:
            raise RuntimeError("captured %d instances for a block of %d" % (len(captured), self.n))
        solve = {
            "lasso": lambda inst: oracle.lasso_optimum(inst.A, inst.y, inst.lam),
            "svm": lambda inst: oracle.svm_dual_optimum(inst.A, inst.y, inst.C),
            "nnls": lambda inst: oracle.nnls_optimum(inst.A, inst.y, inst.lam),
        }[self.workload.oracle]
        self.oracle_values = [solve(inst) for inst in captured]

    # -- running ---------------------------------------------------------

    def run_leg(self, i: int, kind: str, k: int, contexts: list, counters: list,
                tracer: Tracer | None = None) -> Leg:
        harness = self.harness
        cfg = self.configs[(i, kind, k)]
        leg = Leg(instance=i, kind=kind, start=k)
        counters[i][0] = 0
        ctx = replace(contexts[i], x0=self.starts[(i, k)])
        saved = harness.build_operator
        harness.build_operator = lambda _cfg: ctx

        def solve():
            if tracer is None:
                return harness.run_experiment(cfg)
            with tracer.span("leg"):
                return harness.run_experiment(cfg)

        try:
            (records, summary), leg.seconds, leg.ref_seconds = measure(self.probe, solve)
        except Exception as exc:  # a raising leg is a failed leg, not a crashed benchmark
            leg.failure = "raised %s: %s" % (type(exc).__name__, exc)
            return leg
        finally:
            harness.build_operator = saved
        leg.evals = counters[i][0]
        leg.iterations = int(summary["iterations"])
        leg.status = str(summary["status"])
        leg.final_objective = float(summary["final_objective"])
        if kind == "aa":
            leg.accepted = sum(1 for r in records[1:] if r.accepted)
            leg.rejects = len(records) - 1 - leg.accepted
        self._check(leg, cfg, len(records), float(summary["final_residual"]))
        return leg

    def _check(self, leg: Leg, cfg, n_records: int, final_residual: float) -> None:
        ref = self.oracle_values[leg.instance]
        leg.objective_gap = abs(leg.final_objective - ref) / max(1.0, abs(ref))
        if leg.status == "diverged":
            leg.failure = "diverged"
        elif not (math.isfinite(final_residual) and math.isfinite(leg.final_objective)):
            leg.failure = "non-finite final residual or objective"
        elif leg.status == "converged" and not leg.objective_gap <= self.workload.rtol:
            leg.failure = "objective %.17g misses oracle %.17g" % (leg.final_objective, ref)
        else:
            with open(cfg.trace_path, "r", encoding="utf-8") as handle:
                lines = sum(1 for _ in handle)
            if lines != n_records + 1:
                leg.failure = "trace CSV has %d lines, expected %d" % (lines, n_records + 1)

    def run_pass(self, contexts: list, counters: list, tracer: Tracer | None = None) -> list[Leg]:
        return [self.run_leg(i, kind, k, contexts, counters, tracer)
                for i in range(self.n) for kind, k in self.legs]

    def peak_alloc_mb(self, contexts: list, counters: list, legs: list[Leg]) -> tuple[float, Leg]:
        """tracemalloc peak of the block's longest plain leg, rerun on its own, untimed.

        A leg's memory is mostly its trace records and activity patterns, one
        per iteration, and a leg frees them when it returns, so the longest
        plain leg sets the peak of a pass.  tracemalloc slows the Python
        coordinate sweep about sixfold, so only that leg is traced.
        """
        longest = max((leg for leg in legs if leg.kind == "plain"), key=lambda leg: leg.evals)
        tracemalloc.start()
        try:
            leg = self.run_leg(longest.instance, "plain", 0, contexts, counters)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 1e6, leg


# ---------------------------------------------------------------------------
# statistics and checks


def trimmed_mean(values: list[float]) -> float:
    """Mean after dropping the lowest and highest tenth (at least one each, from 3 values)."""
    v = sorted(values)
    k = max(1, round(0.1 * len(v))) if len(v) >= 3 else 0
    return statistics.fmean(v[k : len(v) - k])


def summarize(per_instance: list[float]) -> dict:
    return {
        "trimmed_mean": trimmed_mean(per_instance),
        "instances": len(per_instance),
        "median": statistics.median(per_instance),
        "max": max(per_instance),
        "total": math.fsum(per_instance),
    }


def determinism_failures(legs: list[Leg]) -> list[str]:
    """Every repeat of a leg must reproduce its counts and status exactly."""
    seen: dict[tuple, tuple] = {}
    bad = []
    for leg in legs:
        if leg.failure.startswith("raised"):
            continue
        if leg.ident() not in seen:
            seen[leg.ident()] = leg.key()
        elif seen[leg.ident()] != leg.key():
            bad.append("instance %d %s leg, start %d: counts %s then %s (evals, iterations, rejects, status)"
                       % (*leg.ident(), seen[leg.ident()], leg.key()))
    return bad


def first_legs(legs: list[Leg]) -> dict[tuple, Leg]:
    """The first run of every (instance, kind, start) leg."""
    first: dict[tuple, Leg] = {}
    for leg in legs:
        first.setdefault(leg.ident(), leg)
    return first


# ---------------------------------------------------------------------------
# per-layer metrics from the traced pass


def install_tracing(tracer: Tracer, bench: Bench) -> None:
    """Wrap each layer's public functions; a missing target leaves its metrics out."""
    an, la, ma, pr, ha = bench.anderson, bench.linalg, bench.manifold, bench.problems, bench.harness
    for gen in ("gen_lasso", "gen_svm", "gen_nnls"):
        tracer.patch(pr, gen, "generate")
    tracer.patch(la, "spectral_norm_sq", "spectral_norm_sq")
    tracer.patch(ha, "build_operator", "build_operator")

    def after_step(args, result):
        hist = getattr(args[1], "h_hist", None) if len(args) > 1 else None
        if hist is None:
            tracer.count("restarts_unobservable")
        elif len(hist) == 1:  # the history was cleared, then the new point pushed
            tracer.count("restarts")

    tracer.patch(an, "safeguarded_step", "safeguarded_step", after=after_step)
    tracer.patch(an, "compute_alpha", "compute_alpha")
    tracer.patch(an, "aa_candidate", "aa_candidate")
    tracer.patch(an, "fit_linear_rate", "fit_linear_rate")
    tracer.patch(la, "cg_solve_spd", "cg_solve_spd",
                 after=lambda args, res: tracer.count("cg_iters", int(getattr(res, "iterations", 0))))
    tracer.patch(ma, "pattern_of", "pattern_of")
    tracer.patch(ma, "identification_iter", "identification_iter")
    tracer.patch(ha, "write_trace", "write_trace")


def trace_operators(tracer: Tracer, contexts: list) -> None:
    for ctx in contexts:
        op = ctx.op
        ctx.op = replace(
            op,
            apply=tracer.wrap(op.apply, "apply"),
            objective=None if op.objective is None else tracer.wrap(op.objective, "objective"),
            monitor=None if op.monitor is None else tracer.wrap(op.monitor, "monitor"),
        )


# Span names whose self times partition a traced leg, with the metric each feeds.
LEG_SELF_METRICS = {
    "leg": "harness.loop_self_s",
    "safeguarded_step": "anderson.step_self_s",
    "compute_alpha": "anderson.weights_s",
    "aa_candidate": "anderson.candidate_s",
    "fit_linear_rate": "anderson.rate_fit_s",
    "apply": "algorithms.map_self_s",
    "cg_solve_spd": "linalg.cg_s",
    "objective": "problems.objective_s",
    "monitor": "harness.monitor_vector_s",
    "pattern_of": "manifold.pattern_s",
    "identification_iter": "manifold.identification_s",
    "write_trace": "harness.trace_write_s",
}


def layer_metrics(tracer: Tracer, legs: list[Leg], untraced: float) -> tuple[dict, dict]:
    """Per-layer totals of the traced pass.

    ``untraced`` is the reference-speed time of the same legs untraced; the
    tracing overhead compares it with the traced legs' reference-speed time.
    """
    tree = SpanTree(tracer)
    missing = set(tracer.missing)
    m: dict[str, tuple[float, str]] = {}

    for span, metric in LEG_SELF_METRICS.items():
        if span not in missing:
            m[metric] = (tree.self_total(span), "s")

    if "safeguarded_step" not in missing:
        steps = tree.calls("safeguarded_step")
        accepted = sum(leg.accepted for leg in legs if leg.kind == "aa")
        m["anderson.steps"] = (steps, "count")
        m["anderson.accept_rate"] = (accepted / steps if steps else 0.0, "ratio")
        if "restarts_unobservable" not in tracer.counters:
            m["anderson.restarts"] = (tracer.counters.get("restarts", 0), "count")
    if "compute_alpha" not in missing:
        m["anderson.weights_calls"] = (tree.calls("compute_alpha"), "count")

    evals = tree.calls("apply")
    map_s = tree.total("apply")
    m["algorithms.map_s"] = (map_s, "s")
    m["algorithms.evals"] = (evals, "count")
    m["algorithms.us_per_eval"] = (map_s / evals * 1e6 if evals else 0.0, "us")

    if "cg_solve_spd" not in missing:
        cg_total = tree.total("cg_solve_spd")
        m["linalg.cg_calls"] = (tree.calls("cg_solve_spd"), "count")
        m["linalg.cg_iters"] = (tracer.counters.get("cg_iters", 0), "count")
        under = tree.total_under("cg_solve_spd", ("objective", "monitor"))
        m["linalg.cg_share_monitoring"] = (under / cg_total if cg_total > 0 else 0.0, "ratio")
    if "spectral_norm_sq" not in missing:
        m["linalg.spectral_norm_s"] = (tree.total("spectral_norm_sq"), "s")

    m["problems.objective_calls"] = (tree.calls("objective"), "count")
    if "generate" not in missing:
        m["problems.generate_s"] = (tree.total("generate"), "s")
    if "build_operator" not in missing:
        m["harness.build_s"] = (tree.self_total("build_operator"), "s")

    traced_wall = tree.total("leg")
    traced = sum(leg.ref_seconds for leg in legs)
    m["harness.tracing_overhead_s"] = (traced - untraced, "s")

    partition = sum(m[metric][0] for span, metric in LEG_SELF_METRICS.items() if metric in m)
    checks = {
        "traced_leg_wall_s": traced_wall,
        "traced_leg_ref_s": traced,
        "untraced_leg_ref_s": untraced,
        "self_time_sum_s": partition,
        "partition_gap_s": partition - traced_wall,
        "spans": len(tree.duration),
        "missing_targets": sorted(missing),
    }
    return m, checks


# ---------------------------------------------------------------------------
# running one workload


def run(name: str, seed: int, seconds: float, trace: bool, instances: int | None) -> dict:
    t_start = time.perf_counter()
    bench = Bench(name, seed, instances)
    n = bench.n
    bench.compute_oracles()
    phases = {"oracle_s": time.perf_counter() - t_start}

    setup_wall: list[float] = []
    setup_ref: list[float] = []
    t_begin = time.perf_counter()
    while len(setup_ref) < SETUP_MIN_REPEATS or time.perf_counter() - t_begin < SETUP_MIN_SECONDS:
        contexts, wall, ref = measure(bench.probe, bench.build)
        setup_wall.append(wall)
        setup_ref.append(ref)
    counters = bench.prepare(contexts)
    phases["setup_s"] = time.perf_counter() - t_start - sum(phases.values())

    all_legs: list[Leg] = [bench.run_leg(0, "aa", 0, contexts, counters)]  # untimed warm-up
    # Whole passes while the next one fits in the budget; a traced run keeps
    # half of it for the traced pass.
    budget = seconds / 2.0 if trace else seconds
    passes: list[list[Leg]] = []
    t_begin = time.perf_counter()
    while not passes or (time.perf_counter() - t_begin) * (len(passes) + 1) / len(passes) <= budget:
        passes.append(bench.run_pass(contexts, counters))
    timed = [leg for p in passes for leg in p]
    phases["passes_s"] = time.perf_counter() - t_begin
    all_legs += timed

    metrics: dict[str, tuple[float, str]] = {}
    report: dict = {"setup_s": {"median": statistics.median(setup_ref), "n": len(setup_ref),
                                "wall_median": statistics.median(setup_wall)}}
    checks: dict = {}
    if trace:
        untraced = sum(leg.ref_seconds for leg in passes[-1])
        tracer = Tracer()
        install_tracing(tracer, bench)
        try:
            traced_contexts = bench.build()
            traced_counters = bench.prepare(traced_contexts)
            trace_operators(tracer, traced_contexts)
            traced_legs = bench.run_pass(traced_contexts, traced_counters, tracer)
        finally:
            tracer.unpatch()
        all_legs += traced_legs
        metrics, checks = layer_metrics(tracer, traced_legs, untraced)
        tracer.save(str(OUT / ("spans-%s.npy" % name)))
    else:
        first = first_legs(timed)
        starts = {kind: [k for kd, k in bench.legs if kd == kind] for kind in KINDS}

        def per_instance(kind: str, value) -> list[float]:
            """Each instance's value for a leg kind, averaged over its start points."""
            return [statistics.fmean(value(i, k) for k in starts[kind]) for i in range(n)]

        for kind in KINDS:
            for metric, attr in (("%s_solve_s" % kind, "ref_seconds"), ("%s_wall_s" % kind, "seconds")):
                report[metric] = summarize(per_instance(kind, lambda i, k: statistics.median(
                    getattr(leg, attr) for leg in timed if leg.ident() == (i, kind, k))))
            report["%s_evals" % kind] = summarize(per_instance(kind, lambda i, k: first[(i, kind, k)].evals))
            metrics["%s_solve_s" % kind] = (report["%s_solve_s" % kind]["trimmed_mean"], "s")
            metrics["%s_evals" % kind] = (report["%s_evals" % kind]["trimmed_mean"], "count")
        plain = per_instance("plain", lambda i, k: first[(i, "plain", k)].evals)
        aa = per_instance("aa", lambda i, k: first[(i, "aa", k)].evals)
        report["aa_eval_ratio"] = summarize([a / max(1.0, p) for a, p in zip(aa, plain)])
        metrics["aa_eval_ratio"] = (report["aa_eval_ratio"]["trimmed_mean"], "ratio")
        metrics["setup_s"] = (report["setup_s"]["median"], "s")
        t_peak = time.perf_counter()
        peak_mb, peak_leg = bench.peak_alloc_mb(contexts, counters, timed)
        phases["peak_alloc_s"] = time.perf_counter() - t_peak
        all_legs.append(peak_leg)
        metrics["peak_alloc_mb"] = (peak_mb, "MB")

    failed_legs = [leg for leg in all_legs if leg.failure]
    mismatches = determinism_failures(all_legs)
    attempted = len(all_legs)
    failed = len(failed_legs) + len(mismatches)
    first = first_legs(all_legs)
    return {
        "workload": name,
        "seed": seed,
        "instances": n,
        "passes": len(passes),
        "trace": int(trace),
        "phases": {**phases, "total_s": time.perf_counter() - t_start},
        "provenance": provenance(seed),
        "metrics": metrics,
        "report": report,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": ["instance %d %s leg, start %d: %s" % (*leg.ident(), leg.failure) for leg in failed_legs]
        + mismatches,
        "max_iter_legs": {kind: sum(1 for leg in first.values() if leg.kind == kind and leg.status == "max_iter")
                          for kind in KINDS},
        "legs": [
            {"instance": i, "start_seed": seed + i, "oracle": bench.oracle_values[i],
             **{kind + (str(k) if k else ""): {
                 "evals": first[(i, kind, k)].evals, "iterations": first[(i, kind, k)].iterations,
                 "rejects": first[(i, kind, k)].rejects, "status": first[(i, kind, k)].status,
                 "objective_gap": first[(i, kind, k)].objective_gap} for kind, k in bench.legs}}
            for i in range(n)
        ],
    }


def print_report(result: dict) -> None:
    p = result["provenance"]
    print("workload=%s seed=%d instances=%d passes=%d trace=%d"
          % (result["workload"], result["seed"], result["instances"], result["passes"], result["trace"]))
    print("provenance: commit=%s python=%s numpy=%s scipy=%s blas=%s threads=%s nproc=%s"
          % (p["commit"], p["python"], p["numpy"], p["scipy"], p["blas"],
             ",".join("%s=%s" % kv for kv in p["blas_threads"].items()), p["nproc"]))
    for name, (value, unit) in result["metrics"].items():
        stat = result["report"].get(name, {})
        if "trimmed_mean" in stat:
            extra = "  trimmed mean over %d instances; median %.6g, max %.6g, total %.6g" % (
                stat["instances"], stat["median"], stat["max"], stat["total"])
        elif "n" in stat:
            extra = "  median of %d set-ups" % stat["n"]
        else:
            extra = ""
        print("%-30s %.6g %s%s" % (name, value, unit, extra))
    print("%-30s %.6g ratio  (%d of %d legs failed)"
          % ("fail_frac", result["fail_frac"], result["failed"], result["attempted"]))
    print("max_iter legs: aa=%d plain=%d" % (result["max_iter_legs"]["aa"], result["max_iter_legs"]["plain"]))
    for key, value in result["checks"].items():
        print("%-30s %s" % (key, value))
    for leg in result["legs"]:
        more = "".join(" %d" % v["evals"] for key, v in leg.items() if key.startswith("aa") and key != "aa")
        print("  instance %d start %d: aa %d evals (%d it, %d rej, %s)  plain %d evals (%s)%s"
              % (leg["instance"], leg["start_seed"], leg["aa"]["evals"], leg["aa"]["iterations"],
                 leg["aa"]["rejects"], leg["aa"]["status"], leg["plain"]["evals"], leg["plain"]["status"],
                 "  more aa starts:" + more if more else ""))
    for failure in result["failures"]:
        print("FAIL " + failure)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instances", type=int, default=None,
                        help="block size override, for quick checks (default: the workload's)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.instances is not None and args.instances < 1:
        parser.error("--instances must be >= 1")

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.instances)
    with open(OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, default=float)
    print_report(result)
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

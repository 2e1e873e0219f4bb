"""Experiment harness: flat-file configs, deterministic runs, CSV traces.

A config is a flat ``section.key = value`` file (``#`` starts a comment).
``run_experiment`` builds the problem instance and its fixed-point operator,
drives it plainly, through the Anderson engine or as the FISTA baseline, and
returns the per iteration trace, kept in columns, plus a key=value summary
block.
Identical config + seed reproduces identical numeric trace fields; only the
timing column varies.
"""

from __future__ import annotations

import itertools
import math
import os
import stat
import sys
import time
from array import array
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.sparse import issparse

from .algorithms import (
    FixedPointOperator,
    drs_step,
    irl1_step,
    pcd_sweep,
    pga_step,
)
from .anderson import AaConfig, fit_linear_rate, init_state, safeguarded_step
from .linalg import spectral_norm_sq
from .manifold import IdentificationTracker, pattern_limits, pattern_of, support_size
from .problems import (
    LassoInstance,
    LogRegInstance,
    NnlsInstance,
    SvmDualInstance,
    _open_text,
    gen_lasso,
    gen_logreg,
    gen_nnls,
    gen_svm,
    lasso_objective,
    load_libsvm,
    logreg_grad,
    logreg_objective,
    nnls_objective,
    subsample,
    svm_dual_objective,
)
from .prox import BoxBounds, quadratic_ls_prox

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "TraceRecord",
    "Trace",
    "TRACE_HEADER",
    "parse_config_text",
    "config_from_mapping",
    "load_config",
    "build_operator",
    "run_experiment",
    "run_sweep",
    "write_trace",
    "read_trace",
]

DIVERGENCE_LIMIT = 1e12


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configs."""


@dataclass(frozen=True)
class ConfigKey:
    """How a config key's text is read, the ExperimentConfig field it sets, and its range.

    ``aa.x`` is AaConfig's ``x``, ``params.x`` the problem's ``x``.  A number must lie in
    ``interval``, which NaN and +-inf never do; the word ``unset`` reads as None.
    """

    field: str
    type: type = str
    interval: str | None = None
    unset: str | None = None

    def parse(self, key: str, text: str):
        if text == self.unset:
            return None
        try:
            return _BOOLEANS[text.lower()] if self.type is bool else self.type(text)
        except (KeyError, ValueError):
            raise ConfigError("%s: expected %s, got %r" % (key, _EXPECTED[self.type], text)) from None

    def check(self, key: str, value) -> None:
        if self.interval is None or value is None:
            return
        lo, hi = (float(end) for end in self.interval[1:-1].split(","))
        above = lo < value if self.interval[0] == "(" else lo <= value
        below = value < hi if self.interval[-1] == ")" else value <= hi
        if not (above and below):
            raise ConfigError("%s must lie in %s, got %r" % (key, self.interval, value))


_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}
_EXPECTED = {int: "an integer", float: "a number", bool: "a boolean"}

CONFIG_KEYS = {
    "problem.kind": ConfigKey("problem_kind"),
    "problem.rows": ConfigKey("params.rows", int, "[1, inf)"),
    "problem.cols": ConfigKey("params.cols", int, "[1, inf)"),
    "problem.lambda": ConfigKey("params.lambda", float, "[0, inf)"),
    "problem.noise_var": ConfigKey("params.noise_var", float, "[0, inf)"),
    "problem.c": ConfigKey("params.c", float, "(0, inf)"),
    "problem.p": ConfigKey("params.p", float, "(0, 1)"),
    "problem.mu": ConfigKey("params.mu", float, "(0, 1)"),
    "problem.eps0": ConfigKey("params.eps0", float, "(0, inf)"),
    "problem.dataset": ConfigKey("params.dataset"),
    "problem.subsample": ConfigKey("params.subsample", int, "[1, inf)"),
    "algorithm.kind": ConfigKey("algorithm"),
    "algorithm.beta": ConfigKey("beta", float, "(0, inf)", unset="auto"),
    "algorithm.delta": ConfigKey("delta", float, "(0, 2)"),
    "aa.enabled": ConfigKey("aa_enabled", bool),
    "aa.memory": ConfigKey("aa.memory", int, "[1, 64]"),
    "aa.tikhonov": ConfigKey("aa.tikhonov", float, "[0, inf)", unset="auto"),
    "aa.safeguard": ConfigKey("aa.safeguard_factor", float, "[1, inf)"),
    "aa.restart": ConfigKey("aa.restart_after_rejects", int, "[1, inf)"),
    "run.max_iter": ConfigKey("max_iter", int, "[1, inf)"),
    "run.tol": ConfigKey("tol", float, "(0, inf)"),
    "run.seed": ConfigKey("seed", int, "[0, inf)"),
    "run.trace": ConfigKey("trace_path"),
    "run.zero_tol": ConfigKey("zero_tol", float, "[0, inf)"),
    "run.window": ConfigKey("window", int, "[1, inf)"),
}


@dataclass
class ExperimentConfig:
    problem_kind: str
    algorithm: str
    params: dict = field(default_factory=dict)
    beta: float | None = None
    delta: float | None = None
    aa_enabled: bool = False
    aa: AaConfig = field(default_factory=AaConfig)
    max_iter: int = 1000
    tol: float = 1e-10
    seed: int = 0
    trace_path: str | None = None
    zero_tol: float = 1e-9
    window: int = 10

    def __post_init__(self):
        family = FAMILIES.get(self.problem_kind)
        if family is None:
            raise ConfigError("problem.kind: unknown problem kind %r (choose from %s)"
                              % (self.problem_kind, ", ".join(FAMILIES)))
        if self.algorithm not in family.algorithms:
            raise ConfigError("algorithm.kind %r does not apply to problem.kind %r (choose from %s)"
                              % (self.algorithm, self.problem_kind, ", ".join(family.algorithms)))
        if self.delta is not None and self.algorithm != "drs":
            raise ConfigError("algorithm.delta is read only by drs, not by %s" % self.algorithm)
        # sizes and noise shape a generated instance; subsample thins a dataset file
        unread = {"rows", "cols", "noise_var"} if "dataset" in self.params else {"subsample"}
        read = sorted(set(family.defaults) - unread)
        for name in sorted(set(self.params) - set(read)):
            raise ConfigError("problem.%s is not read by this %s config (it reads problem.%s)"
                              % (name, self.problem_kind, ", problem.".join(read)))
        scopes = {"": vars(self), "aa": vars(self.aa), "params": self.params}
        for key, spec in CONFIG_KEYS.items():
            scope, _, name = spec.field.rpartition(".")
            spec.check(key, scopes[scope].get(name))
        family.check({**family.defaults, **self.params})
        if self.algorithm == "fista" and self.aa_enabled:
            raise ConfigError("aa.enabled: algorithm.kind fista is a baseline, never accelerated")


# ---------------------------------------------------------------------------
# config parsing


def parse_config_text(text: str) -> dict[str, str]:
    """Flat ``section.key = value`` grammar with ``#`` comments."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ConfigError("line %d: expected 'section.key = value', got %r" % (lineno, raw))
        if "." not in key:
            raise ConfigError("line %d: key %r has no section prefix" % (lineno, key))
        if key in out:
            raise ConfigError("line %d: duplicate key %r" % (lineno, key))
        out[key] = value
    return out


def config_from_mapping(kv: dict[str, str]) -> ExperimentConfig:
    """Validate a parsed key/value mapping into an ExperimentConfig."""
    for key in ("problem.kind", "algorithm.kind"):
        if key not in kv:
            raise ConfigError("%s is required" % key)
    scopes: dict = {"": {}, "aa": {}, "params": {}}
    for key, text in kv.items():
        spec = CONFIG_KEYS.get(key)
        if spec is None:
            raise ConfigError("unknown config key %r" % key)
        scope, _, name = spec.field.rpartition(".")
        scopes[scope][name] = value = spec.parse(key, text)
        if scope == "aa":  # AaConfig, built first, would name a bad value by its field
            spec.check(key, value)
    return ExperimentConfig(params=scopes["params"], aa=AaConfig(**scopes["aa"]), **scopes[""])


def load_config(path: str) -> ExperimentConfig:
    with _open_text(path, "config") as handle:
        text = handle.read()
    return config_from_mapping(parse_config_text(text))


# ---------------------------------------------------------------------------
# operator construction


@dataclass
class RunContext:
    """Everything run_experiment needs besides the bare operator."""

    op: FixedPointOperator
    x0: np.ndarray
    bounds: BoxBounds | None = None


def _x0_rng(seed: int) -> np.random.Generator:
    # independent of the instance stream so baseline/AA runs share both
    return np.random.default_rng(np.random.SeedSequence([seed, 1]))


def _resolve_beta(cfg: ExperimentConfig, params: dict, lipschitz: float) -> float:
    if cfg.beta is not None:
        return float(cfg.beta)
    if not 0 < lipschitz < math.inf:  # negated, so NaN fails too
        dataset = params["dataset"]
        source = "the generated instance" if dataset is None else "problem.dataset %s" % dataset
        raise ConfigError("algorithm.beta = auto (1/L) needs a positive finite Lipschitz estimate, "
                          "but it is %r for %s; set algorithm.beta to a step size" % (lipschitz, source))
    return 1.0 / lipschitz


def _instance(cfg: ExperimentConfig, params: dict, generate: Callable, make: Callable, **extra):
    """``generate(rows, cols)``, or ``make(A, y)`` of the problem.dataset file's rows."""
    if params["dataset"] is None:
        return generate(params["rows"], params["cols"], seed=cfg.seed, **extra)
    try:
        X, y = load_libsvm(params["dataset"])
        if 0 in X.shape:
            raise ValueError("no rows or no features (a %d x %d matrix)" % X.shape)
    except ValueError as exc:  # an empty matrix, malformed LIBSVM text, or not text at all
        raise ConfigError("problem.dataset: %s: %s" % (params["dataset"], exc)) from None
    if params["subsample"] is not None:
        try:
            X, y = subsample(X, y, params["subsample"], seed=cfg.seed)
        except ValueError as exc:  # more rows than the file has
            raise ConfigError("problem.subsample: %s" % exc) from None
    return make(A=X, y=y, **extra)


def _build_lasso(cfg: ExperimentConfig, params: dict) -> RunContext:
    # noise_var shapes a generated instance only
    generate = lambda m, n, seed, lam: gen_lasso(m, n, lam, params["noise_var"], seed=seed)
    inst = _instance(cfg, params, generate, LassoInstance, lam=params["lambda"])
    beta = _resolve_beta(cfg, params, spectral_norm_sq(inst.A))
    step = pga_step(inst.A, inst.y, inst.lam, beta)
    op = FixedPointOperator(
        dimension=inst.A.shape[1],
        apply=step,
        objective=lambda X: lasso_objective(inst, X),
        readout=step.readout,
    )
    x0 = _x0_rng(cfg.seed).standard_normal(op.dimension)
    return RunContext(op=op, x0=x0)


def _check_lasso_shape(params: dict) -> None:
    """gen_lasso orthonormalises the rows and plants cols // 10 spikes."""
    if params["dataset"] is None and not (params["rows"] < params["cols"] and params["cols"] >= 10):
        raise ConfigError("lasso needs problem.rows < problem.cols and problem.cols >= 10")


def _build_svm(cfg: ExperimentConfig, params: dict) -> RunContext:
    inst = _instance(cfg, params, gen_svm, SvmDualInstance, C=params["c"])
    m = inst.A.shape[0]
    # the dual is 0.5*||Z^T x||^2 - sum(x) on [0, C]^m with Z = y .* A
    if issparse(inst.A):
        A = inst.A.tocsr()
        Z = A.copy()  # A's sparsity structure, so the sweep sums in A's order
        Z.data *= np.repeat(inst.y, np.diff(Z.indptr))
        with np.errstate(over="ignore"):  # an overflowing norm is inf, as einsum's below
            row_norm_sq = np.array([float(d @ d) for d in np.split(Z.data, Z.indptr[1:-1])])
    else:
        Z = inst.y[:, None] * np.asarray(inst.A, dtype=float)
        row_norm_sq = np.einsum("ij,ij->i", Z, Z)
    lipschitz = float(row_norm_sq.max()) if m else 0.0
    beta = _resolve_beta(cfg, params, lipschitz)
    box = BoxBounds(0.0, inst.C)
    sweep = pcd_sweep(Z, -1.0, box, beta)
    op = FixedPointOperator(
        dimension=m,
        apply=sweep,
        objective=lambda X: svm_dual_objective(inst, X),
        readout=sweep.readout,
    )
    x0 = _x0_rng(cfg.seed).standard_normal(m)
    return RunContext(op=op, x0=x0, bounds=box)


def _build_nnls(cfg: ExperimentConfig, params: dict) -> RunContext:
    inst = _instance(cfg, params, gen_nnls, NnlsInstance, lam=params["lambda"])
    m, n = inst.A.shape
    beta = _resolve_beta(cfg, params, spectral_norm_sq(inst.A) / m)
    delta = 1.0 if cfg.delta is None else cfg.delta
    # factored here, once, so the set-up pays for it and every evaluation of
    # H is one compiled call around a pair of triangular solves
    try:
        f_prox = quadratic_ls_prox(inst.A, inst.y, inst.lam, m, beta)
    except np.linalg.LinAlgError:  # a shift m*(1/beta + 2*lambda) lost against A.T A
        raise ConfigError("algorithm.beta = %r with problem.lambda = %r leaves the DRS prox's "
                          "shifted Gram matrix not positive definite" % (beta, inst.lam)) from None
    # the run loop records each iterate right after the map's last evaluation
    # there, so the monitor reads that call's y and solves nothing
    step = drs_step(f_prox, delta)
    # a block's A y - b, held here so that a run allocates none (a dense A only)
    residuals = np.empty((TRACE_BLOCK, m)) if isinstance(inst.A, np.ndarray) else None
    op = FixedPointOperator(
        dimension=n,
        apply=step,
        objective=lambda Y: nnls_objective(inst, Y, residuals),
        monitor=step.feasible_point,
        readout=step.readout,
    )
    x0 = _x0_rng(cfg.seed).standard_normal(n)
    return RunContext(op=op, x0=x0)


def _build_logreg(cfg: ExperimentConfig, params: dict) -> RunContext:
    lam, p, mu = params["lambda"], params["p"], params["mu"]
    inst = _instance(cfg, params, gen_logreg, LogRegInstance, lam=lam, p=p)
    m, n = inst.A.shape
    beta = _resolve_beta(cfg, params, spectral_norm_sq(inst.A) / (4.0 * m))
    grad = lambda x: logreg_grad(inst, x)
    op = FixedPointOperator(
        dimension=2 * n,
        apply=lambda theta: irl1_step(grad, p, lam, beta, mu, theta),
        objective=lambda X: logreg_objective(inst, X),
        monitor=lambda theta: theta[:n],
    )
    x0 = np.concatenate([_x0_rng(cfg.seed).standard_normal(n), params["eps0"] * np.ones(n)])
    return RunContext(op=op, x0=x0)


@dataclass(frozen=True)
class Family:
    """A problem family: its algorithms, its builder, and the ``problem.*`` keys it reads.

    ``defaults`` holds each key's default (None: unset unless given); ``build``
    and ``check`` get ``cfg.params`` over them, and ``check`` vets more than ranges.
    """

    algorithms: tuple[str, ...]
    build: Callable[[ExperimentConfig, dict], RunContext]
    defaults: dict
    check: Callable[[dict], None] = lambda params: None


FAMILIES = {
    "lasso": Family(("ista", "fista"), _build_lasso,
                    {"rows": 40, "cols": 200, "lambda": 0.01, "noise_var": 1e-4, "dataset": None,
                     "subsample": None},
                    _check_lasso_shape),
    "nnls": Family(("drs",), _build_nnls,
                   {"rows": 50, "cols": 30, "lambda": 0.001, "dataset": None, "subsample": None}),
    "svm": Family(("pcd",), _build_svm,
                  {"rows": 100, "cols": 20, "c": 100.0, "dataset": None, "subsample": None}),
    "logreg": Family(("irl1",), _build_logreg,
                     {"rows": 100, "cols": 30, "lambda": 0.001, "p": 0.75, "mu": 0.9, "eps0": 1.0,
                      "dataset": None, "subsample": None}),
}


def build_operator(cfg: ExperimentConfig) -> RunContext:
    """Instantiate the problem and its fixed-point operator for a config."""
    family = FAMILIES[cfg.problem_kind]
    return family.build(cfg, {**family.defaults, **cfg.params})


# ---------------------------------------------------------------------------
# running


@dataclass(frozen=True, slots=True)
class TraceRecord:
    k: int
    residual_norm: float
    objective: float
    alpha_l1: float
    accepted: int
    support_size: int
    elapsed_us: int


TRACE_HEADER = ",".join(f.name for f in fields(TraceRecord))

# k's typecode, then each Trace column's: they set how a row is written and read
_TRACE_CODES = "qdddbqq"
_TRACE_ROW = ",".join("%.17g" if code == "d" else "%d" for code in _TRACE_CODES) + "\n"

TRACE_BLOCK = 16  # iterates whose objectives and patterns are taken in one call; 8 to 128 time level


class Trace(Sequence):
    """A run's trace, one typed column per TraceRecord field after k; records are built when read."""

    def __init__(self) -> None:
        self.columns = tuple(array(code) for code in _TRACE_CODES[1:])
        (self.residual_norm, self.objective, self.alpha_l1, self.accepted, self.support_size,
         self.elapsed_us) = self.columns

    def __len__(self) -> int:
        return len(self.residual_norm)

    def __getitem__(self, index):
        k = range(len(self))[index]  # an index out of range raises IndexError
        if isinstance(k, range):
            return [self[i] for i in k]
        return TraceRecord(k, *(column[k] for column in self.columns))


def _plain_iterates(apply: Callable, x0: np.ndarray, readout: np.ndarray | None):
    x = np.asarray(x0, dtype=float)
    h = np.asarray(apply(x), dtype=float)
    while True:
        if readout is None:
            d = h - x  # its norm as np.linalg.norm takes it, without the dispatch
            yield x, math.sqrt(float(d.dot(d))), 0.0, 0
        else:
            yield x, readout.item(0), 0.0, 0
        x = h
        h = np.asarray(apply(x), dtype=float)


def _aa_iterates(apply: Callable, x0: np.ndarray, aa: AaConfig):
    x0 = np.asarray(x0, dtype=float)
    state = init_state(apply, x0, aa)
    yield x0, state.r_norms[0], 0.0, 0
    while True:
        x, diag = safeguarded_step(apply, state)
        yield x, diag.residual_norm, diag.alpha_l1, int(diag.accepted)


def _fista_iterates(apply: Callable, x0: np.ndarray, readout: np.ndarray):
    # the FISTA baseline runs its own momentum sequence and is never fed to
    # the engine; with t = 1 its first step is one application of H.  It
    # runs only on lasso, whose map has a readout.
    x = y = np.asarray(x0, dtype=float)
    t = 1.0
    while True:
        apply(x)
        yield x, readout.item(0), 0.0, 0
        x_new = apply(y)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t**2))
        y = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new


def run_experiment(cfg: ExperimentConfig) -> tuple[Trace, dict]:
    """Run one configured experiment to tolerance, max_iter, or divergence.

    Returns the iteration trace (record k=0 is the initial point) and a
    summary mapping.  The residual column is ||H(x^k) - x^k|| of the traced
    operator; for the FISTA comparator it is the proximal-gradient residual
    evaluated at the momentum method's main iterate.
    """
    if cfg.trace_path:  # fail now, not after the whole run
        _check_writable(cfg.trace_path, "trace")
    ctx = build_operator(cfg)
    op = ctx.op
    t_start = time.perf_counter()
    trace = Trace()
    identification = IdentificationTracker(cfg.window)
    limits = pattern_limits(cfg.zero_tol, ctx.bounds)
    # Each mode yields (iterate, residual norm, alpha_l1, accepted) for
    # k = 0, 1, ..., right after the map's last evaluation at the iterate (for
    # AA, as safeguarded_step's docstring promises), so a readout of two
    # entries holds the iterate's objective then; a map without one has its
    # objectives taken a block at a time.  The loop stops before it asks for
    # an iterate it does not record, so no evaluation of H is wasted.
    if cfg.algorithm == "fista":
        iterates = _fista_iterates(op.apply, ctx.x0, op.readout)
    elif cfg.aa_enabled:
        iterates = _aa_iterates(op.apply, ctx.x0, cfg.aa)
    else:
        iterates = _plain_iterates(op.apply, ctx.x0, op.readout)
    readout = op.readout if op.readout is not None and op.readout.size == 2 else None
    residual, objectives, alphas, accepts, _, elapsed = (column.append for column in trace.columns)
    tol, max_iter, clock = cfg.tol, cfg.max_iter, time.perf_counter
    monitors, rows = None, 0  # the monitor vectors whose objectives and patterns are not taken yet
    for k, (x, rnorm, alpha_l1, accepted) in enumerate(iterates):
        if readout is not None:  # read before the monitor, which may evaluate the map
            objectives(readout.item(1))
        vector = op.monitor_vector(x)
        if monitors is None:
            monitors = np.empty((TRACE_BLOCK, np.size(vector)))
        monitors[rows] = vector
        rows += 1
        residual(rnorm)
        alphas(alpha_l1)
        accepts(accepted)
        elapsed(int((clock() - t_start) * 1e6))
        done = not (tol < rnorm <= DIVERGENCE_LIMIT and k < max_iter)  # NaN and +-inf fail both
        if rows == TRACE_BLOCK or done:
            if readout is None:
                trace.objective.extend(op.objective(monitors[:rows]).tolist())
            patterns = pattern_of(monitors[:rows], limits)
            trace.support_size.extend(support_size(patterns).tolist())
            identification.push_block(patterns)
            rows = 0
        if done:
            break

    if math.isfinite(rnorm) and rnorm <= cfg.tol:
        status = "converged"
    elif not math.isfinite(rnorm) or rnorm > DIVERGENCE_LIMIT:
        status = "diverged"
    else:
        status = "max_iter"

    ident = identification.identified_at
    residuals = np.frombuffer(trace.residual_norm)
    # The rate on the identified manifold; the trace's tail when nothing was
    # identified or too few points follow identification.
    rate = None if ident is None else fit_linear_rate(residuals[ident:], tail_fraction=1.0)
    if rate is None or not rate.defined:
        rate = fit_linear_rate(residuals, tail_fraction=0.3)
    summary = {
        "problem": cfg.problem_kind,
        "algorithm": cfg.algorithm,
        "aa": cfg.aa_enabled,
        "memory": cfg.aa.memory if cfg.aa_enabled else 0,
        "seed": cfg.seed,
        "status": status,
        "iterations": k,
        "final_residual": trace.residual_norm[-1],
        "final_objective": trace.objective[-1],
        "gamma_hat": rate.gamma,
        "rate_r2": rate.r_squared,
        "rate_defined": rate.defined,
        "identification_iter": ident,
        # record 0's weight is 0.0, so this is the running max from 0.0
        "alpha_l1_max": max(trace.alpha_l1),
        "elapsed_s": time.perf_counter() - t_start,
    }
    if cfg.trace_path:
        write_trace(trace, cfg.trace_path)
    return trace, summary


def _variant_path(path: str | None, tag: str) -> str | None:
    """``path`` with ``.tag`` before the file name's extension (never a directory's); as it is
    if it exists and is not a regular file (/dev/null, a pipe, a directory) or is stdout."""
    if path is None or os.path.exists(path) and not os.path.isfile(path) or _is_stdout(path):
        return path
    stem, ext = os.path.splitext(path)
    return "%s.%s%s" % (stem, tag, ext)


def run_sweep(cfg: ExperimentConfig, memories: Sequence[int]) -> list[dict]:
    """Baseline run plus one accelerated run per memory value."""
    if not memories:
        raise ConfigError("sweep needs at least one memory value")
    for i, m in enumerate(memories):  # before the baseline runs, and as the config would name it
        CONFIG_KEYS["aa.memory"].check("aa.memory", m)
        if m in memories[:i]:  # each run writes its trace under its memory value
            raise ConfigError("sweep lists aa.memory %r twice" % m)
    trace = cfg.trace_path
    # each leg opens its trace again, and a FIFO's reader takes the first leg's close for the end;
    # stat opens nothing, so a FIFO without a reader does not block here
    if trace and os.path.exists(trace) and stat.S_ISFIFO(os.stat(trace).st_mode) and not _is_stdout(trace):
        raise ConfigError("run.trace: %s is a pipe or FIFO, which sweep does not write: "
                          "each leg would open it again" % trace)
    legs = [replace(cfg, aa_enabled=False, trace_path=_variant_path(trace, "baseline"))]
    legs += [replace(cfg, aa_enabled=True, aa=replace(cfg.aa, memory=int(m)),
                     trace_path=_variant_path(trace, "m%d" % m)) for m in memories]
    for leg in legs:  # every leg's trace path, before the baseline runs
        if leg.trace_path:
            _check_writable(leg.trace_path, "trace")
    return [run_experiment(leg)[1] for leg in legs]


# ---------------------------------------------------------------------------
# trace / summary I/O


def _check_writable(path: str, what: str) -> None:
    """Fail as writing a trace or summary (``what``) to ``path`` would, leaving the file as it was."""
    existed = os.path.exists(path)
    try:
        # closed again, a FIFO would end its reader's stream, so one that may be written is not
        # opened; one that may not fails the open before it would wait for a reader
        if not (existed and stat.S_ISFIFO(os.stat(path).st_mode) and os.access(path, os.W_OK)):
            open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise OSError("writing %s to %s: %s" % (what, path, exc)) from exc
    if not existed:
        os.remove(path)


def _is_stdout(path: str) -> bool:
    try:
        return os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:  # no such file yet, or no fd 1
        return False


def _write_lines(path: str, what: str, lines: Iterable[str]) -> None:
    """Write ``lines`` to ``path`` as UTF-8; an OSError reads ``writing <what> to <path>: ...``.

    A regular file is rewritten in place and cut to length, never truncated to zero
    first: on ext4 (``auto_da_alloc``) closing a file truncated to zero and rewritten
    forces a flush to disk, which stalls each rewrite of a trace by tens of milliseconds.
    /dev/null and pipes are never cut.  The process's own stdout is written through fd 1
    after ``sys.stdout`` is flushed: reopened by name, a file would be written from offset 0.
    """
    own_stdout = _is_stdout(path)
    # a duplicate of fd 1 shares its offset; any other file is opened by name, without O_TRUNC
    keep = lambda name, flags: os.dup(1) if own_stdout else os.open(name, flags & ~os.O_TRUNC, 0o666)
    try:
        if own_stdout:
            sys.stdout.flush()
        with open(path, "w", encoding="utf-8", opener=keep) as handle:
            handle.writelines(lines)
            if not own_stdout and stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                handle.truncate()
    except OSError as exc:
        raise OSError("writing %s to %s: %s" % (what, path, exc)) from exc


def write_trace(trace: Trace, path: str) -> None:
    """CSV with 17-significant-digit floats so values round-trip exactly, one row
    formatted straight from the columns per record; the rows stream, never held at once."""
    rows = map(_TRACE_ROW.__mod__, zip(range(len(trace)), *trace.columns))
    _write_lines(path, "trace", itertools.chain((TRACE_HEADER + "\n",), rows))


def read_trace(path: str) -> Trace:
    """The Trace of a trace CSV; a malformed or blank row, or a field that its column
    cannot hold, raises ValueError naming its line."""
    with _open_text(path, "trace") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError("%s: missing trace header" % path)
    trace = Trace()
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            k, rn, obj, al1, acc, sup, el = line.split(",")
            if int(k) != len(trace):
                raise ValueError("k is %d, not the row's index %d" % (int(k), len(trace)))
            for column, text in zip(trace.columns, (rn, obj, al1, acc, sup, el)):
                column.append(float(text) if column.typecode == "d" else int(text))
        except (ValueError, OverflowError) as exc:  # OverflowError: an integer its column cannot hold
            raise ValueError("%s line %d: %s" % (path, lineno, exc)) from None
    return trace


def _summary_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def format_summary(summary: dict) -> str:
    """One key=value block; the CLI prints the blocks separated by blank lines."""
    return "\n".join("%s=%s" % (k, _summary_value(v)) for k, v in summary.items())

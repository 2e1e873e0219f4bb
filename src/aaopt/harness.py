"""Experiment harness: flat-file configs, deterministic runs, CSV traces.

A config is a flat ``section.key = value`` file (``#`` starts a comment).
``run_experiment`` builds the problem instance and its fixed-point operator,
drives it plainly or through the Anderson engine, and returns the per
iteration trace plus a key=value summary block.  Identical config + seed
reproduces identical numeric trace fields; only the timing column varies.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .algorithms import (
    DrsParams,
    FixedPointOperator,
    drs_parts,
    fista_init,
    fista_step,
    irl1_step,
    pcd_sweep,
    pga_step,
)
from .anderson import AaConfig, fit_linear_rate, init_state, safeguarded_step
from .linalg import spectral_norm_sq
from .manifold import IdentificationTracker, pattern_of, support_size
from .problems import (
    LassoInstance,
    LogRegInstance,
    NnlsInstance,
    SvmDualInstance,
    gen_lasso,
    gen_logreg,
    gen_nnls,
    gen_svm,
    lasso_grad,
    lasso_objective,
    load_libsvm,
    logreg_grad,
    logreg_objective,
    nnls_objective,
    subsample,
    svm_dual_objective,
)
from .prox import BoxBounds, nonneg_project, quadratic_ls_prox, soft_threshold

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "TraceRecord",
    "TRACE_HEADER",
    "parse_config_text",
    "config_from_mapping",
    "load_config",
    "build_operator",
    "run_experiment",
    "run_sweep",
    "write_trace",
    "read_trace",
    "write_summary",
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
    "algorithm.beta_rule": ConfigKey("beta_rule"),
    "algorithm.beta": ConfigKey("beta", float, "(0, inf)"),
    "algorithm.delta": ConfigKey("delta", float, "(0, 2)"),
    "aa.enabled": ConfigKey("aa_enabled", bool),
    "aa.memory": ConfigKey("aa.memory", int, "[1, 64]"),
    "aa.tikhonov": ConfigKey("aa.tikhonov", float, "[0, inf)", unset="auto"),
    "aa.safeguard": ConfigKey("aa.safeguard_factor", float, "[1, inf)"),
    "aa.restart": ConfigKey("aa.restart_after_rejects", int, "[1, inf)"),
    "aa.alpha_cap": ConfigKey("aa.alpha_cap", float, "[1, inf)", unset="none"),
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
    beta_rule: str = "one-over-L"
    beta: float | None = None
    delta: float = 1.0
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
        if (self.beta_rule, self.beta is None) not in (("one-over-L", True), ("explicit", False)):
            raise ConfigError("algorithm.beta_rule is one-over-L, or explicit with algorithm.beta; "
                              "got %r with algorithm.beta = %r" % (self.beta_rule, self.beta))
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
    if "algorithm.delta" in kv and kv["algorithm.kind"] != "drs":
        raise ConfigError("algorithm.delta is read only by drs, not by %s" % kv["algorithm.kind"])
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
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise OSError("reading config from %s: %s" % (path, exc)) from exc
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
    if cfg.beta_rule == "explicit":
        return float(cfg.beta)
    if lipschitz <= 0:
        dataset = params["dataset"]
        source = "the generated instance" if dataset is None else "problem.dataset %s" % dataset
        raise ConfigError("algorithm.beta_rule = one-over-L needs a positive Lipschitz estimate, but "
                          "it is %r for %s; set algorithm.beta_rule = explicit with algorithm.beta"
                          % (lipschitz, source))
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


def _last_point_memo(compute: Callable[[np.ndarray], object]) -> Callable[[np.ndarray], object]:
    """``compute`` behind a one-entry memo keyed by the bytes of its point.

    The run loop records each iterate right after the map's last evaluation
    at that point, so the monitor and the objective reuse that evaluation's
    work.  Equal bytes are equal values, so a hit returns what a fresh call
    would; a caller that mutates its array or asks about another point, -0.0
    where the key holds +0.0 included, gets a fresh call.
    """
    key = None
    value = None

    def memoized(x: np.ndarray):
        nonlocal key, value
        point = np.asarray(x, dtype=float).tobytes()
        if point != key:
            value = compute(x)
            key = point
        return value

    return memoized


def _build_lasso(cfg: ExperimentConfig, params: dict) -> RunContext:
    if params["dataset"] is not None:
        path = params["dataset"]
        try:
            data = np.load(path)
            A, y, x_true = (np.asarray(data[key], dtype=float) for key in ("A", "y", "x_true"))
            lam = params["lambda"] if "lambda" in cfg.params else float(data["lam"])
        except OSError as exc:
            raise OSError("reading lasso instance from %s: %s" % (path, exc)) from exc
        except (ValueError, EOFError, KeyError, IndexError, TypeError):  # not such an .npz file
            raise ConfigError("problem.dataset: %s is not an .npz file with keys A, y, x_true and "
                              "lam, as gen-lasso writes" % path) from None
        if not lam >= 0:
            raise ConfigError("problem.dataset: %s: lam must be nonnegative, got %r" % (path, lam))
        if A.ndim != 2 or y.shape != A.shape[:1] or x_true.shape != A.shape[1:]:
            raise ConfigError("problem.dataset: %s: A needs two axes, y one entry per row of A and "
                              "x_true one per column; got A %s, y %s, x_true %s"
                              % (path, A.shape, y.shape, x_true.shape))
        inst = LassoInstance(A=A, y=y, x_true=x_true, lam=lam)
    else:
        inst = gen_lasso(params["rows"], params["cols"], params["lambda"], params["noise_var"],
                         seed=cfg.seed)
    lam = inst.lam
    beta = _resolve_beta(cfg, params, spectral_norm_sq(inst.A))
    g_prox = lambda v, t: soft_threshold(v, t * lam)
    # A x - y, formed once per point for the gradient and the objective
    residual = _last_point_memo(lambda x: inst.A.dot(x) - inst.y)
    grad = lambda x: lasso_grad(inst, x, residual(x))
    op = FixedPointOperator(
        dimension=inst.A.shape[1],
        apply=lambda x: pga_step(grad, g_prox, beta, x),
        objective=lambda x: lasso_objective(inst, x, residual(x)),
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
    if hasattr(inst.A, "tocsr") and not isinstance(inst.A, np.ndarray):
        A = inst.A.tocsr()
        Z = A.copy()  # A's sparsity structure, so the sweep sums in A's order
        Z.data *= np.repeat(inst.y, np.diff(Z.indptr))
        row_norm_sq = np.array([float(d @ d) for d in np.split(Z.data, Z.indptr[1:-1])])
        # A.T as CSR, built once: the same sums in the same order as
        # A.T.dot(v), without building A.T per product
        At = A.T.tocsr()
        objective = lambda x: svm_dual_objective(inst, x, At)
    else:
        Z = inst.y[:, None] * np.asarray(inst.A, dtype=float)
        row_norm_sq = np.einsum("ij,ij->i", Z, Z)
        objective = lambda x: svm_dual_objective(inst, x)
    lipschitz = float(row_norm_sq.max()) if m else 0.0
    beta = _resolve_beta(cfg, params, lipschitz)
    op = FixedPointOperator(
        dimension=m,
        apply=pcd_sweep(Z, -1.0, 0.0, inst.C, beta),
        objective=objective,
    )
    x0 = _x0_rng(cfg.seed).standard_normal(m)
    return RunContext(op=op, x0=x0, bounds=BoxBounds(0.0, inst.C))


def _build_nnls(cfg: ExperimentConfig, params: dict) -> RunContext:
    inst = _instance(cfg, params, gen_nnls, NnlsInstance, lam=params["lambda"])
    m, n = inst.A.shape
    beta = _resolve_beta(cfg, params, spectral_norm_sq(inst.A) / m)
    drs = DrsParams(beta=beta, delta=cfg.delta)
    # factored here, so the set-up pays for it and every evaluation of H is
    # one pair of triangular solves
    try:
        f_prox = quadratic_ls_prox(inst.A, inst.y, inst.lam, m, beta)
    except np.linalg.LinAlgError:  # a shift m*(1/beta + 2*lambda) lost against A.T A
        raise ConfigError("algorithm.beta = %r with problem.lambda = %r leaves the DRS prox's "
                          "shifted Gram matrix not positive definite" % (beta, inst.lam)) from None
    g_prox = lambda v, t: nonneg_project(v)

    # (x, y, z_next) of the last DRS point: the monitor and the objective
    # reuse the map's solve
    parts = _last_point_memo(lambda z: drs_parts(f_prox, g_prox, drs, z))

    def feasible_point(z: np.ndarray) -> np.ndarray:
        return parts(z)[1]

    op = FixedPointOperator(
        dimension=n,
        apply=lambda z: parts(z)[2],
        objective=lambda z: nnls_objective(inst, feasible_point(z)),
        monitor=feasible_point,
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
        objective=lambda theta: logreg_objective(inst, theta[:n]),
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
    # with problem.dataset, lasso's lambda defaults to the file's lam
    "lasso": Family(("ista", "fista"), _build_lasso,
                    {"rows": 40, "cols": 200, "lambda": 0.01, "noise_var": 1e-4, "dataset": None},
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


TRACE_HEADER = "k,residual_norm,objective,alpha_l1,accepted,support_size,elapsed_us"


def _plain_iterates(apply: Callable, x0: np.ndarray):
    x = np.asarray(x0, dtype=float)
    h = np.asarray(apply(x), dtype=float)
    while True:
        d = h - x  # its norm as np.linalg.norm takes it, without the dispatch
        yield x, math.sqrt(float(d.dot(d))), 0.0, 0
        x = h
        h = np.asarray(apply(x), dtype=float)


def _aa_iterates(apply: Callable, x0: np.ndarray, aa: AaConfig):
    state = init_state(apply, x0)
    yield state.x, state.r_norms[0], 0.0, 0
    while True:
        x, diag = safeguarded_step(apply, state, aa)
        yield x, diag.residual_norm, diag.alpha_l1, int(diag.accepted)


def _fista_iterates(apply: Callable, x0: np.ndarray):
    st = fista_init(x0)
    while True:
        d = apply(st.x) - st.x
        yield st.x, math.sqrt(float(d.dot(d))), 0.0, 0
        st = fista_step(st, apply)


def run_experiment(cfg: ExperimentConfig) -> tuple[list[TraceRecord], dict]:
    """Run one configured experiment to tolerance, max_iter, or divergence.

    Returns the iteration trace (record k=0 is the initial point) and a
    summary mapping.  The residual column is ||H(x^k) - x^k|| of the traced
    operator; for the FISTA comparator it is the proximal-gradient residual
    evaluated at the momentum method's main iterate.
    """
    ctx = build_operator(cfg)
    op = ctx.op
    t_start = time.perf_counter()
    records: list[TraceRecord] = []
    identification = IdentificationTracker(cfg.window)
    alpha_l1_max = 0.0
    # Each mode yields (iterate, residual norm, alpha_l1, accepted) for
    # k = 0, 1, ...; the loop stops before it asks for an iterate it does not
    # record, so no evaluation of H is wasted.
    if cfg.algorithm == "fista":
        iterates = _fista_iterates(op.apply, ctx.x0)
    elif cfg.aa_enabled:
        iterates = _aa_iterates(op.apply, ctx.x0, cfg.aa)
    else:
        iterates = _plain_iterates(op.apply, ctx.x0)
    for k, (x, rnorm, alpha_l1, accepted) in enumerate(iterates):
        alpha_l1_max = max(alpha_l1_max, alpha_l1)
        pat = pattern_of(op.monitor_vector(x), cfg.zero_tol, ctx.bounds)
        identification.push(pat)
        # positional fields: keywords cost a frozen dataclass 0.2 us a record
        records.append(
            TraceRecord(
                k,
                float(rnorm),
                float(op.objective(x)) if op.objective is not None else math.nan,
                float(alpha_l1),
                accepted,
                support_size(pat),
                int((time.perf_counter() - t_start) * 1e6),
            )
        )
        if not (math.isfinite(rnorm) and cfg.tol < rnorm <= DIVERGENCE_LIMIT and k < cfg.max_iter):
            break

    if math.isfinite(rnorm) and rnorm <= cfg.tol:
        status = "converged"
    elif not math.isfinite(rnorm) or rnorm > DIVERGENCE_LIMIT:
        status = "diverged"
    else:
        status = "max_iter"

    ident = identification.identified_at
    residuals = [r.residual_norm for r in records]
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
        "final_residual": records[-1].residual_norm,
        "final_objective": records[-1].objective,
        "gamma_hat": rate.gamma,
        "rate_r2": rate.r_squared,
        "rate_defined": rate.defined,
        "identification_iter": ident,
        "alpha_l1_max": alpha_l1_max,
        "elapsed_s": time.perf_counter() - t_start,
    }
    if cfg.trace_path:
        write_trace(records, cfg.trace_path)
    return records, summary


def _variant_path(path: str | None, tag: str) -> str | None:
    if path is None:
        return None
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return "%s.%s" % (path, tag)
    return "%s.%s.%s" % (stem, tag, ext)


def run_sweep(cfg: ExperimentConfig, memories: Sequence[int]) -> list[dict]:
    """Baseline run plus one accelerated run per memory value."""
    if not memories:
        raise ConfigError("sweep needs at least one memory value")
    summaries = []
    base = replace(cfg, aa_enabled=False, trace_path=_variant_path(cfg.trace_path, "baseline"))
    summaries.append(run_experiment(base)[1])
    for m in memories:
        accel = replace(
            cfg,
            aa_enabled=True,
            aa=replace(cfg.aa, memory=int(m)),
            trace_path=_variant_path(cfg.trace_path, "m%d" % m),
        )
        summaries.append(run_experiment(accel)[1])
    return summaries


# ---------------------------------------------------------------------------
# trace / summary I/O


_TRACE_ROW = "%d,%.17g,%.17g,%.17g,%d,%d,%d\n"


def write_trace(records: Sequence[TraceRecord], path: str) -> None:
    """CSV with 17-significant-digit floats so values round-trip exactly.

    An existing file is overwritten in place and then cut to the new length,
    never truncated to zero first: on ext4 (``auto_da_alloc``) closing a file
    that was truncated to zero and rewritten forces a flush to disk, which
    stalls each rewrite of a trace by tens of milliseconds.
    """
    try:
        try:
            handle = open(path, "r+", encoding="utf-8")
        except FileNotFoundError:
            handle = open(path, "w", encoding="utf-8")
        with handle:
            handle.write(TRACE_HEADER + "\n")
            for r in records:
                handle.write(_TRACE_ROW % (r.k, r.residual_norm, r.objective, r.alpha_l1,
                                           r.accepted, r.support_size, r.elapsed_us))
            handle.truncate()
    except OSError as exc:
        raise OSError("writing trace to %s: %s" % (path, exc)) from exc


def read_trace(path: str) -> list[TraceRecord]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise OSError("reading trace from %s: %s" % (path, exc)) from exc
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError("%s: missing trace header" % path)
    out = []
    for line in lines[1:]:
        if not line:
            continue
        k, rn, obj, al1, acc, sup, el = line.split(",")
        out.append(
            TraceRecord(int(k), float(rn), float(obj), float(al1), int(acc), int(sup), int(el))
        )
    return out


def _summary_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def write_summary(summaries: Sequence[dict], path: str) -> None:
    """key=value blocks, one per run, separated by blank lines."""
    text = "\n\n".join(format_summary(summary) for summary in summaries) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError("writing summary to %s: %s" % (path, exc)) from exc


def format_summary(summary: dict) -> str:
    """One key=value block (also what the CLI prints)."""
    return "\n".join("%s=%s" % (k, _summary_value(v)) for k, v in summary.items())

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
from .linalg import matvec, spectral_norm_sq
from .manifold import IdentificationTracker, pattern_of, support_size
from .problems import (
    LassoInstance,
    LogRegInstance,
    NnlsInstance,
    RegularizerPhi,
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

PROBLEM_KINDS = ("lasso", "nnls", "svm", "logreg")
ALGORITHMS_FOR = {
    "lasso": ("ista", "fista"),
    "nnls": ("drs",),
    "svm": ("pcd",),
    "logreg": ("irl1",),
}


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configs."""


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
        if self.problem_kind not in PROBLEM_KINDS:
            raise ConfigError("unknown problem kind %r" % self.problem_kind)
        if self.algorithm not in ALGORITHMS_FOR[self.problem_kind]:
            raise ConfigError(
                "algorithm %r does not apply to problem %r (choose from %s)"
                % (self.algorithm, self.problem_kind, ALGORITHMS_FOR[self.problem_kind])
            )
        if self.beta_rule not in ("one-over-L", "explicit"):
            raise ConfigError("beta_rule must be 'one-over-L' or 'explicit'")
        if self.beta_rule == "explicit" and (self.beta is None or self.beta <= 0):
            raise ConfigError("explicit beta_rule needs algorithm.beta > 0")
        if self.algorithm == "fista" and self.aa_enabled:
            raise ConfigError("fista is a baseline comparator and is never accelerated")
        if self.max_iter < 1:
            raise ConfigError("run.max_iter must be >= 1")
        if self.tol <= 0:
            raise ConfigError("run.tol must be positive")
        if not (1 <= self.aa.memory <= 64):
            raise ConfigError("aa.memory must lie in [1, 64]")
        # problem values, in negated form so NaN fails too; an absent key
        # takes its builder's default, which is valid
        params = self.params
        if not params.get("lambda", 0.0) >= 0:
            raise ConfigError("problem.lambda must be nonnegative")
        if self.problem_kind == "svm" and not params.get("c", 1.0) > 0:
            raise ConfigError("problem.c must be positive")
        if self.problem_kind == "logreg":
            if not (0.0 < params.get("mu", 0.5) < 1.0):
                raise ConfigError("problem.mu must lie in (0, 1)")
            if not params.get("eps0", 1.0) > 0:
                raise ConfigError("problem.eps0 must be positive")


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


def _as_int(kv: dict, key: str, default=None):
    if key not in kv:
        return default
    try:
        return int(kv[key])
    except ValueError:
        raise ConfigError("%s: expected an integer, got %r" % (key, kv[key])) from None


def _as_float(kv: dict, key: str, default=None):
    if key not in kv:
        return default
    try:
        return float(kv[key])
    except ValueError:
        raise ConfigError("%s: expected a number, got %r" % (key, kv[key])) from None


def _as_bool(kv: dict, key: str, default=None):
    if key not in kv:
        return default
    value = kv[key].lower()
    if value in ("true", "yes", "on", "1"):
        return True
    if value in ("false", "no", "off", "0"):
        return False
    raise ConfigError("%s: expected a boolean, got %r" % (key, kv[key]))


_PROBLEM_KEYS = {
    "kind", "rows", "cols", "lambda", "noise_var", "c", "p", "mu", "eps0",
    "dataset", "subsample",
}
_ALGORITHM_KEYS = {"kind", "beta_rule", "beta", "delta"}
_AA_KEYS = {"enabled", "memory", "tikhonov", "safeguard", "restart", "alpha_cap"}
_RUN_KEYS = {"max_iter", "tol", "seed", "trace", "zero_tol", "window"}
_SECTIONS = {"problem": _PROBLEM_KEYS, "algorithm": _ALGORITHM_KEYS, "aa": _AA_KEYS, "run": _RUN_KEYS}


def config_from_mapping(kv: dict[str, str]) -> ExperimentConfig:
    """Validate a parsed key/value mapping into an ExperimentConfig."""
    for key in kv:
        section, _, name = key.partition(".")
        if section not in _SECTIONS or name not in _SECTIONS[section]:
            raise ConfigError("unknown config key %r" % key)
    problem_kind = kv.get("problem.kind")
    algorithm = kv.get("algorithm.kind")
    if problem_kind is None:
        raise ConfigError("problem.kind is required")
    if algorithm is None:
        raise ConfigError("algorithm.kind is required")
    if problem_kind not in PROBLEM_KINDS:
        raise ConfigError("unknown problem kind %r" % problem_kind)

    params: dict = {}
    for name in ("rows", "cols", "subsample"):
        value = _as_int(kv, "problem." + name)
        if value is not None:
            params[name] = value
    for name in ("lambda", "noise_var", "c", "p", "mu", "eps0"):
        value = _as_float(kv, "problem." + name)
        if value is not None:
            params[name] = value
    if "problem.dataset" in kv:
        params["dataset"] = kv["problem.dataset"]

    aa_kwargs: dict = {}
    memory = _as_int(kv, "aa.memory")
    if memory is not None:
        aa_kwargs["memory"] = memory
    if "aa.tikhonov" in kv and kv["aa.tikhonov"] != "auto":
        aa_kwargs["tikhonov"] = _as_float(kv, "aa.tikhonov")
    safeguard = _as_float(kv, "aa.safeguard")
    if safeguard is not None:
        aa_kwargs["safeguard_factor"] = safeguard
    restart = _as_int(kv, "aa.restart")
    if restart is not None:
        aa_kwargs["restart_after_rejects"] = restart
    if "aa.alpha_cap" in kv and kv["aa.alpha_cap"] != "none":
        aa_kwargs["alpha_cap"] = _as_float(kv, "aa.alpha_cap")
    try:
        aa = AaConfig(**aa_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    try:
        return ExperimentConfig(
            problem_kind=problem_kind,
            algorithm=algorithm,
            params=params,
            beta_rule=kv.get("algorithm.beta_rule", "one-over-L"),
            beta=_as_float(kv, "algorithm.beta"),
            delta=_as_float(kv, "algorithm.delta", 1.0),
            aa_enabled=_as_bool(kv, "aa.enabled", False),
            aa=aa,
            max_iter=_as_int(kv, "run.max_iter", 1000),
            tol=_as_float(kv, "run.tol", 1e-10),
            seed=_as_int(kv, "run.seed", 0),
            trace_path=kv.get("run.trace"),
            zero_tol=_as_float(kv, "run.zero_tol", 1e-9),
            window=_as_int(kv, "run.window", 10),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
    beta: float | None = None


def _x0_rng(seed: int) -> np.random.Generator:
    # independent of the instance stream so baseline/AA runs share both
    return np.random.default_rng(np.random.SeedSequence([seed, 1]))


def _resolve_beta(cfg: ExperimentConfig, lipschitz: float) -> float:
    if cfg.beta_rule == "explicit":
        return float(cfg.beta)
    if lipschitz <= 0:
        raise ConfigError("one-over-L beta rule needs a positive Lipschitz estimate")
    return 1.0 / lipschitz


def _load_rows(params: dict, seed: int):
    X, y = load_libsvm(params["dataset"])
    k = params.get("subsample")
    if k is not None:
        X, y = subsample(X, y, k, seed=seed)
    return X, y


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


def _build_lasso(cfg: ExperimentConfig) -> RunContext:
    params = cfg.params
    if "dataset" in params:
        try:
            data = np.load(params["dataset"])
        except OSError as exc:
            raise OSError("reading lasso instance from %s: %s" % (params["dataset"], exc)) from exc
        lam = params.get("lambda", float(data["lam"]))
        if not lam >= 0:
            raise ConfigError("%s: lam must be nonnegative, got %r" % (params["dataset"], lam))
        inst = LassoInstance(
            A=np.asarray(data["A"], dtype=float),
            y=np.asarray(data["y"], dtype=float),
            x_true=np.asarray(data["x_true"], dtype=float),
            lam=lam,
        )
    else:
        inst = gen_lasso(
            params.get("rows", 40),
            params.get("cols", 200),
            params.get("lambda", 0.01),
            params.get("noise_var", 1e-4),
            seed=cfg.seed,
        )
    lam = inst.lam
    beta = _resolve_beta(cfg, spectral_norm_sq(inst.A))
    g_prox = lambda v, t: soft_threshold(v, t * lam)
    # A x - y, formed once per point for the gradient and the objective
    residual = _last_point_memo(lambda x: matvec(inst.A, x) - inst.y)
    grad = lambda x: lasso_grad(inst, x, residual(x))
    op = FixedPointOperator(
        dimension=inst.A.shape[1],
        apply=lambda x: pga_step(grad, g_prox, beta, x),
        objective=lambda x: lasso_objective(inst, x, residual(x)),
        name="lasso/" + cfg.algorithm,
    )
    x0 = _x0_rng(cfg.seed).standard_normal(op.dimension)
    return RunContext(op=op, x0=x0, beta=beta)


def _build_svm(cfg: ExperimentConfig) -> RunContext:
    params = cfg.params
    C = params.get("c", 100.0)
    if "dataset" in params:
        X, y = _load_rows(params, cfg.seed)
        inst = SvmDualInstance(A=X, y=y, C=C)
    else:
        inst = gen_svm(params.get("rows", 100), params.get("cols", 20), seed=cfg.seed, C=C)
    m = inst.A.shape[0]
    # the dual is 0.5*||Z^T x||^2 - sum(x) on [0, C]^m with Z = y .* A
    if hasattr(inst.A, "tocsr") and not isinstance(inst.A, np.ndarray):
        A = inst.A.tocsr()
        Z = A.copy()  # A's sparsity structure, so the sweep sums in A's order
        Z.data *= np.repeat(inst.y, np.diff(Z.indptr))
        row_norm_sq = np.array([float(d @ d) for d in np.split(Z.data, Z.indptr[1:-1])])
        # A.T as CSR, built once: the same sums in the same order as
        # matvec(A, v, transpose=True), without building A.T per product
        At = A.T.tocsr()
        objective = lambda x: svm_dual_objective(inst, x, At)
    else:
        Z = inst.y[:, None] * np.asarray(inst.A, dtype=float)
        row_norm_sq = np.einsum("ij,ij->i", Z, Z)
        objective = lambda x: svm_dual_objective(inst, x)
    lipschitz = float(row_norm_sq.max()) if m else 0.0
    beta = _resolve_beta(cfg, lipschitz)
    op = FixedPointOperator(
        dimension=m,
        apply=pcd_sweep(Z, -1.0, 0.0, C, beta),
        objective=objective,
        name="svm/pcd",
    )
    x0 = _x0_rng(cfg.seed).standard_normal(m)
    return RunContext(op=op, x0=x0, bounds=BoxBounds(0.0, C), beta=beta)


def _build_nnls(cfg: ExperimentConfig) -> RunContext:
    params = cfg.params
    lam = params.get("lambda", 0.001)
    if "dataset" in params:
        X, y = _load_rows(params, cfg.seed)
        inst = NnlsInstance(A=X, y=y, lam=lam)
    else:
        inst = gen_nnls(params.get("rows", 50), params.get("cols", 30), lam=lam, seed=cfg.seed)
    m, n = inst.A.shape
    beta = _resolve_beta(cfg, spectral_norm_sq(inst.A) / m)
    drs = DrsParams(beta=beta, delta=cfg.delta)
    # factored here, so the set-up pays for it and every evaluation of H is
    # one pair of triangular solves
    f_prox = quadratic_ls_prox(inst.A, inst.y, inst.lam, m, beta)
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
        name="nnls/drs",
    )
    x0 = _x0_rng(cfg.seed).standard_normal(n)
    return RunContext(op=op, x0=x0, beta=beta)


def _build_logreg(cfg: ExperimentConfig) -> RunContext:
    params = cfg.params
    lam = params.get("lambda", 0.001)
    p = params.get("p", 0.75)
    mu = params.get("mu", 0.9)
    eps0 = params.get("eps0", 1.0)
    if "dataset" in params:
        X, y = _load_rows(params, cfg.seed)
        inst = LogRegInstance(A=X, y=y, lam=lam, p=p)
    else:
        inst = gen_logreg(
            params.get("rows", 100), params.get("cols", 30), lam=lam, p=p, seed=cfg.seed
        )
    m, n = inst.A.shape
    phi = RegularizerPhi("LPN", p)
    beta = _resolve_beta(cfg, spectral_norm_sq(inst.A) / (4.0 * m))
    grad = lambda x: logreg_grad(inst, x)
    op = FixedPointOperator(
        dimension=2 * n,
        apply=lambda theta: irl1_step(grad, phi, lam, beta, mu, theta),
        objective=lambda theta: logreg_objective(inst, theta[:n]),
        monitor=lambda theta: theta[:n],
        name="logreg/irl1",
    )
    x0 = np.concatenate([_x0_rng(cfg.seed).standard_normal(n), eps0 * np.ones(n)])
    return RunContext(op=op, x0=x0, beta=beta)


_BUILDERS = {
    "lasso": _build_lasso,
    "svm": _build_svm,
    "nnls": _build_nnls,
    "logreg": _build_logreg,
}


def build_operator(cfg: ExperimentConfig) -> RunContext:
    """Instantiate the problem and its fixed-point operator for a config."""
    return _BUILDERS[cfg.problem_kind](cfg)


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


def _fmt(value: float) -> str:
    return "%.17g" % value


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
        return _fmt(value)
    return str(value)


def write_summary(summaries: Sequence[dict], path: str) -> None:
    """key=value blocks, one per run, separated by blank lines."""
    blocks = []
    for summary in summaries:
        blocks.append("\n".join("%s=%s" % (k, _summary_value(v)) for k, v in summary.items()))
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n\n".join(blocks) + "\n")
    except OSError as exc:
        raise OSError("writing summary to %s: %s" % (path, exc)) from exc


def format_summary(summary: dict) -> str:
    """One key=value block (also what the CLI prints)."""
    return "\n".join("%s=%s" % (k, _summary_value(v)) for k, v in summary.items())

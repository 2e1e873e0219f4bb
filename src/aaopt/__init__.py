"""Anderson acceleration for nonsmooth fixed-point optimization algorithms."""

from .algorithms import (
    FistaState,
    FixedPointOperator,
    admm_step,
    drs_parts,
    fista_init,
    fista_step,
    irl1_beta_window,
    irl1_step,
    pcd_sweep,
    pga_step,
)
from .anderson import (
    AaConfig,
    AaDiagnostics,
    AaState,
    RateFit,
    aa_candidate,
    compute_alpha,
    fit_linear_rate,
    init_state,
    safeguarded_step,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    TraceRecord,
    build_operator,
    config_from_mapping,
    load_config,
    parse_config_text,
    read_trace,
    run_experiment,
    run_sweep,
    write_summary,
    write_trace,
)
from .linalg import CgResult, cg_solve_spd, spectral_norm_sq
from .manifold import (
    IdentificationTracker,
    identification_iter,
    pattern_limits,
    pattern_of,
    support_size,
)
from .problems import (
    LassoInstance,
    LogRegInstance,
    NnlsInstance,
    SvmDualInstance,
    gen_lasso,
    gen_logreg,
    gen_nnls,
    gen_svm,
    parse_libsvm,
    phi_deriv,
    phi_value,
    subsample,
)
from .prox import (
    BoxBounds,
    nonneg_project,
    quadratic_ls_prox,
    soft_threshold,
    weighted_soft_threshold,
)

__version__ = "0.1.0"

"""Command-line entry points: run, sweep, gen-lasso."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .harness import (
    FAMILIES,
    ConfigError,
    format_summary,
    load_config,
    run_experiment,
    run_sweep,
    write_summary,
)
from .problems import gen_lasso


def _apply_overrides(cfg, args):
    from dataclasses import replace

    updates = {}
    if args.tol is not None:
        updates["tol"] = args.tol
    if args.max_iter is not None:
        updates["max_iter"] = args.max_iter
    if args.seed is not None:
        updates["seed"] = args.seed
    return replace(cfg, **updates) if updates else cfg


def _parse_memory_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError("--memory expects comma-separated integers, got %r" % text) from None
    if not values:
        raise ConfigError("--memory expects at least one value")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aaopt",
        description="Anderson-accelerated fixed-point experiments with CSV traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help="override run.tol")
    common.add_argument("--max-iter", type=int, default=None, help="override run.max_iter")
    common.add_argument("--seed", type=int, default=None, help="override run.seed")
    common.add_argument("--summary", default=None, help="also write the summary blocks to this path")

    run_p = sub.add_parser("run", parents=[common], help="run one experiment from a config file")
    run_p.add_argument("config", help="path to a section.key = value config file")

    sweep_p = sub.add_parser("sweep", parents=[common],
                             help="baseline plus accelerated runs over memory values")
    sweep_p.add_argument("config", help="path to a config file")
    sweep_p.add_argument("--memory", default="5,10,15", help="comma-separated memory values")

    lasso = FAMILIES["lasso"].defaults
    gen_p = sub.add_parser("gen-lasso", help="generate a lasso instance and save it as .npz")
    gen_p.add_argument("rows", type=int)
    gen_p.add_argument("cols", type=int)
    gen_p.add_argument("seed", type=int)
    gen_p.add_argument("out", help="output .npz path (keys A, y, x_true, lam)")
    gen_p.add_argument("--lambda", dest="lam", type=float, default=lasso["lambda"])
    gen_p.add_argument("--noise-var", type=float, default=lasso["noise_var"])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = _apply_overrides(load_config(args.config), args)
            _, summary = run_experiment(cfg)
            text = format_summary(summary)
            print(text)
            if args.summary:
                write_summary([summary], args.summary)
        elif args.command == "sweep":
            cfg = _apply_overrides(load_config(args.config), args)
            summaries = run_sweep(cfg, _parse_memory_list(args.memory))
            print("\n\n".join(format_summary(s) for s in summaries))
            if args.summary:
                write_summary(summaries, args.summary)
        else:  # gen-lasso
            inst = gen_lasso(args.rows, args.cols, args.lam, args.noise_var, seed=args.seed)
            np.savez(args.out, A=inst.A, y=inst.y, x_true=inst.x_true, lam=inst.lam)
            print("wrote %s (A: %dx%d, nnz(x_true)=%d)"
                  % (args.out, inst.A.shape[0], inst.A.shape[1], int(np.count_nonzero(inst.x_true))))
    except (ConfigError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

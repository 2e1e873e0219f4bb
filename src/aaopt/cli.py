"""Command-line entry points: run and sweep."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .harness import (
    ConfigError,
    _check_writable,
    _write_lines,
    format_summary,
    load_config,
    run_experiment,
    run_sweep,
)


def _parse_memory_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]  # an empty value fails too
    except ValueError:
        raise ConfigError("--memory expects comma-separated integers, got %r" % text) from None


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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the flags' destinations are ExperimentConfig fields; replace checks the whole config
        # again, so a bad value is named as its run.* key
        cfg = replace(load_config(args.config), **{k: v for k, v in vars(args).items()
                                                   if k in ("tol", "max_iter", "seed") and v is not None})
        if args.summary:  # fail now, not after every run
            _check_writable(args.summary, "summary")
        if args.command == "run":
            summaries = [run_experiment(cfg)[1]]
        else:  # sweep
            summaries = run_sweep(cfg, _parse_memory_list(args.memory))
        text = "\n\n".join(map(format_summary, summaries))
        print(text)
        if args.summary:
            _write_lines(args.summary, "summary", (text + "\n",))
    except (ValueError, OSError, FloatingPointError) as exc:  # ConfigError is a ValueError
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

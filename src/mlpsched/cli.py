"""Command-line front end.

Subcommands:

* ``simulate``: run every policy in the config; write one per-quantum CSV
  per policy plus a JSON run summary.
* ``compare``: same runs; write ``compare.csv`` with speedups against the
  first-listed policy, plus the summary.
* ``sweep``: cartesian product over the config's ``sweep`` values; write
  ``sweep.csv``.
* ``oracle-check``: drive a serpentine run and print, per quantum, the
  serpentine and exhaustive-optimal max per-processor sums and their ratio,
  then the corpus-max ratio.

``--seed`` overrides the config's seed; ``--quiet`` suppresses progress
lines (oracle-check keeps its final line).  Config or workload problems
exit 1 with a message naming the offending field.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Sequence

from .core import _shown
from .experiments import (
    _MAX_SEED,
    ExperimentConfig,
    _fail,
    load_experiment,
    measure,
    run_oracle_check,
    run_policies,
    run_sweep,
    speedup,
    write_compare_csv,
    write_quanta_csv,
    write_summary,
    write_sweep_csv,
)

__all__ = ["main"]


def _seed_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {_shown(text)}") from None
    if not 0 <= value < _MAX_SEED:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2^64), got {_shown(value)}")
    return value


def _add_common(sub: argparse.ArgumentParser, with_out: bool) -> None:
    sub.add_argument("--config", required=True, metavar="PATH", help="experiment config (JSON)")
    if with_out:
        sub.add_argument("--out", required=True, metavar="DIR", help="output directory")
    sub.add_argument(
        "--seed", type=_seed_value, default=None, metavar="U64", help="override the config seed"
    )
    sub.add_argument("--quiet", action="store_true", help="suppress progress output")


def _load(args: argparse.Namespace) -> ExperimentConfig:
    config = load_experiment(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _say(args: argparse.Namespace, line: str) -> None:
    if not args.quiet:
        print(line)


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load(args)
    reports = run_policies(config)
    os.makedirs(args.out, exist_ok=True)
    for report in reports:
        path = os.path.join(args.out, f"{report.policy.value}_quanta.csv")
        write_quanta_csv(report, path)
        m = measure(report, config.warmup_quanta)
        _say(
            args,
            f"{report.policy.value}: throughput {m.throughput:.6f} "
            f"stalls {m.total_stalls} (wrote {path})",
        )
    summary = os.path.join(args.out, "summary.json")
    write_summary(config, reports, summary)
    _say(args, f"wrote {summary}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    config = _load(args)
    if len(config.policies) < 2:
        raise _fail("policies", "compare needs at least two policies")
    reports = run_policies(config)
    metrics = [measure(r, config.warmup_quanta) for r in reports]
    os.makedirs(args.out, exist_ok=True)
    table = os.path.join(args.out, "compare.csv")
    write_compare_csv(metrics, table)
    summary = os.path.join(args.out, "summary.json")
    write_summary(config, reports, summary)
    base = metrics[0].throughput
    for m in metrics:
        _say(
            args,
            f"{m.policy.value:<14} throughput {m.throughput:.6f} "
            f"stalls {m.total_stalls:>8} gap {m.mean_gap:.4f} "
            f"oversub {m.mean_oversubscription:.4f} "
            f"speedup {speedup(m.throughput, base):.4f}",
        )
    _say(args, f"wrote {table}")
    _say(args, f"wrote {summary}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load(args)
    header, rows = run_sweep(config)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep.csv")
    write_sweep_csv(header, rows, path)
    _say(args, f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    config = _load(args)
    check = run_oracle_check(config)
    for quantum, serp, opt, ratio in check.rows:
        _say(
            args,
            f"quantum {quantum}: serpentine {serp:.6f} optimal {opt:.6f} ratio {ratio:.6f}",
        )
    print(f"corpus-max ratio: {check.corpus_max_ratio:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlpsched",
        description="MSHR-occupancy-driven scheduling simulator and policy comparer",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("simulate", help="run each policy; write per-quantum tables + summary")
    _add_common(p, with_out=True)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("compare", help="run each policy; write a speedup comparison table")
    _add_common(p, with_out=True)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("sweep", help="cartesian sweep over config values; write sweep.csv")
    _add_common(p, with_out=True)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("oracle-check", help="score serpentine against the exhaustive oracle")
    _add_common(p, with_out=False)
    p.set_defaults(handler=cmd_oracle_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

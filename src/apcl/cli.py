"""Command line front end: one subcommand per experiment kind.

Exit codes: 0 every configured threshold holds, 2 bad config or
arguments, 3 validation or CFL refusal, 4 a configured threshold failed
or none is configured (no verdict), 5 internal error (a broken invariant
of the program itself, not of the config).
"""

from __future__ import annotations

import argparse
import sys

from .harness import EXPERIMENTS, ConfigError, load_config, parse_config, run_experiment
from .solver import CflError, CounterexampleError


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="apcl",
        description="Finite volume experiments for almost periodic conservation laws.",
    )
    sub = ap.add_subparsers(dest="kind", required=True, metavar="KIND")
    for kind, exp in EXPERIMENTS.items():
        sp = sub.add_parser(kind, help=exp.help)
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--out", default=".", help="output directory (default: .)")
        sp.add_argument("--plot", action="store_true", help="also write SVG plots")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(load_config(args.config), kind=args.kind)
        report = run_experiment(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (CflError, CounterexampleError, ValueError) as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    except AssertionError as e:
        print(f"internal error: {str(e) or 'assertion failed'}", file=sys.stderr)
        return 5
    paths = report.save(args.out, prefix=cfg.prefix, plot=args.plot)
    if report.passed is None:
        print("NO VERDICT (no thresholds configured)")
    for name in sorted(report.verdicts):
        print(f"{'PASS' if report.verdicts[name] else 'FAIL'} {name}")
    for name in sorted(report.scalars):
        print(f"{name} = {report.scalars[name]}")
    for p in paths:
        print(f"wrote {p}")
    return 0 if report.passed else 4


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Affine directional flux: the traveling wave persists and converges.

Runs the non-decay experiment and the grid-refinement study for the same
wave, writing both reports into one output directory.
"""

import argparse
import os
import sys

from apcl import cli

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, "..", "configs")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out")
    args = ap.parse_args()
    rc = cli.main(["counterexample", "--config",
                   os.path.join(CONFIGS, "transport_counterexample.json"),
                   "--out", args.out, "--plot"])
    if rc:
        return rc
    return cli.main(["convergence", "--config",
                     os.path.join(CONFIGS, "transport_convergence.json"),
                     "--out", args.out, "--plot"])


if __name__ == "__main__":
    sys.exit(main())

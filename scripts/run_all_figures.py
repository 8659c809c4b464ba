#!/usr/bin/env python3
"""Run every named scenario and collect the artifacts under one directory.

Example:
    python scripts/run_all_figures.py --scale 0.3 --out runs/desk
    python scripts/run_all_figures.py --scale 1.0 --workers 8 --out runs/full

Full scale reproduces the published geometries (300 to 1100 atoms); expect the
long-cavity scenarios to take a while at that size.
"""

import argparse
import sys
import time
from pathlib import Path

from wgqed.cli import SCENARIOS, RunConfig, run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--out", default="runs")
    parser.add_argument(
        "--scenarios", nargs="*", default=sorted(SCENARIOS), help="subset to run"
    )
    args = parser.parse_args()

    for name in args.scenarios:
        out_dir = Path(args.out) / f"{name}_scale{args.scale:g}"
        tic = time.perf_counter()
        result = run(
            RunConfig(
                scenario=name,
                scale=args.scale,
                seed=args.seed,
                workers=args.workers,
                out_dir=str(out_dir),
            )
        )
        ledger = result.record.ledger
        print(
            f"{name:6s} method={result.summary.data['config']['method']:9s} "
            f"P_left={ledger.p_left:.4f} P_right={ledger.p_right:.4f} "
            f"P_ext={ledger.p_ext:.4f} converged={ledger.converged} "
            f"({time.perf_counter() - tic:.1f}s) -> {out_dir}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

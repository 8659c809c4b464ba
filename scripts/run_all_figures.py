#!/usr/bin/env python3
"""Run every named scenario and collect the artifacts under one directory.

Example:
    python scripts/run_all_figures.py --scale 0.3 --out runs/desk
    python scripts/run_all_figures.py --scale 1.0 --out runs/full

Full scale reproduces the published geometries (300 to 1100 atoms); there the
long-cavity scenarios (1100 atoms) take about 5 s and 0.7 GB each on 2 cores
with one BLAS thread.  Each scenario prints one
line: its method and route, the ledger, the largest resolvent residual, the
eigenvector condition number and the pole check's deviation (None on the
sweep route; a run near their limits, CONDITION_MAX and POLE_CHECK_TOL, is
close to raising NumericalError), the frequency grid's number of points and
alias-free window (swept on the sweep route, only reported on the poles
route), the synthesis leak (the window error of a synthesised trajectory, at
most LEAK_TOL in a converged run; None on the poles route), the vacuum-Rabi
oscillation frequency of p0 and the cavity model read off the poles (g, kappa,
gamma_e and the pencil's pole_rms; None without an oscillation), the captured
fractions of the right and left profiles, the wall time, the seconds of the
resolvent sweep and of the evolution (summed over the ensemble members), the
seconds spent writing the CSV artifacts and the peak resident set size of the
process so far.
"""

import argparse
import sys
import time
from pathlib import Path

from wgqed.cli import SCENARIOS, RunConfig, run


def _sci(value) -> str:
    return "None" if value is None else f"{value:.2e}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=1, help="threads for the sweep")
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
        summary = result.summary.data
        profiles = summary["profiles"]
        members = summary["timings"]["members"]
        oscillation = summary["oscillation"] or {}
        jc = summary["jc_fit"] or {}
        cavity = " ".join(
            f"{key}={_sci(jc.get(key))}" for key in ("g", "kappa", "gamma_e", "pole_rms")
        )
        print(
            f"{name:6s} method={summary['config']['method']:9s} route={summary['route']:5s} "
            f"P_left={ledger.p_left:.4f} P_right={ledger.p_right:.4f} "
            f"P_ext={ledger.p_ext:.4f} converged={ledger.converged} "
            f"residual_max={summary['residual_max']:.2e} "
            f"eig_condition={_sci(summary['eig_condition'])} "
            f"pole_check_error={_sci(summary['pole_check_error'])} "
            f"grid_points={summary['grid']['n_points']} "
            f"alias_window={summary['grid']['alias_window']:.4g} "
            f"synthesis_leak={_sci(summary['synthesis_leak'])} "
            f"oscillation={_sci(oscillation.get('frequency'))} {cavity} "
            f"captured_right={profiles['right']['captured']:.5f} "
            f"captured_left={profiles['left']['captured']:.5f} "
            f"wall_s={time.perf_counter() - tic:.1f} "
            f"resolvent_sweep_s={sum(m['resolvent_sweep'] for m in members):.3f} "
            f"evolution_s={sum(m['evolution'] for m in members):.3f} "
            f"artifacts_s={summary['timings']['artifacts']:.3f} "
            f"peak_rss_mb={summary['timings']['peak_rss_mb']:.0f} -> {out_dir}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

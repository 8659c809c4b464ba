#!/usr/bin/env python3
"""Run every named scenario and collect the artifacts under one directory.

Example:
    python scripts/run_all_figures.py --scale 0.3 --out runs/desk
    python scripts/run_all_figures.py --scale 1.0 --out runs/full

Full scale reproduces the published geometries (300 to 1100 atoms); there the
long-cavity scenarios (1100 atoms) take about 5 s and 0.5 GB each on 2 cores
with one BLAS thread; every sweep runs on one thread, RunConfig's default.
Each scenario prints one line: its method and route, the ledger, converged
and the checks table it is decided from (name=value/limit),
the swept frequency grid's number of points, its doublings (1 if the
smallest grid's leak sent the run to twice the points, else 0) and its
alias-free window (all None on the poles route, which has no grid), the vacuum-Rabi
oscillation frequency of p0 and the cavity model read off the poles (g, kappa,
gamma_e and the pencil's pole_rms, which is None on the poles route, whose
poles are exact rather than fitted; all None without an oscillation), the captured
fractions of the right and left profiles, the wall time, the seconds of the
resolvent sweep and of the evolution (summed over the ensemble members), the
seconds spent writing the CSV artifacts and the peak resident set size of the
process so far.  The exit status is 1 if a run is not converged; its failing
checks are named on stderr after the last scenario.
"""

import argparse
import sys
import time
from pathlib import Path

from wgqed.cli import SCENARIOS, RunConfig, run


def _fmt(value, spec=".2e") -> str:
    return "None" if value is None else format(value, spec)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="runs")
    parser.add_argument(
        "--scenarios", nargs="*", default=sorted(SCENARIOS), help="subset to run"
    )
    args = parser.parse_args()

    failures = []
    for name in args.scenarios:
        out_dir = Path(args.out) / f"{name}_scale{args.scale:g}"
        tic = time.perf_counter()
        result = run(
            RunConfig(scenario=name, scale=args.scale, seed=args.seed, out_dir=str(out_dir))
        )
        ledger = result.record.ledger
        summary = result.summary.data
        profiles = summary["profiles"]
        members = summary["timings"]["members"]
        oscillation = summary["oscillation"] or {}
        jc = summary["jc_fit"] or {}
        grid = summary["grid"] or {}
        cavity = " ".join(
            f"{key}={_fmt(jc.get(key))}" for key in ("g", "kappa", "gamma_e", "pole_rms")
        )
        print(
            f"{name:6s} method={summary['config']['method']:9s} route={summary['route']:5s} "
            f"P_left={ledger.p_left:.4f} P_right={ledger.p_right:.4f} "
            f"P_ext={ledger.p_ext:.4f} converged={summary['converged']} "
            + "".join(f"{k}={c['value']:.2e}/{c['limit']:.0e} " for k, c in summary["checks"].items())
            + f"grid_points={grid.get('n_points')} doublings={grid.get('doublings')} "
            f"alias_window={_fmt(grid.get('alias_window'), '.4g')} "
            f"oscillation={_fmt(oscillation.get('frequency'))} {cavity} "
            f"captured_right={profiles['right']['captured']:.5f} "
            f"captured_left={profiles['left']['captured']:.5f} "
            f"wall_s={time.perf_counter() - tic:.1f} "
            f"resolvent_sweep_s={sum(m['resolvent_sweep'] for m in members):.3f} "
            f"evolution_s={sum(m['evolution'] for m in members):.3f} "
            f"artifacts_s={summary['timings']['artifacts']:.3f} "
            f"peak_rss_mb={summary['timings']['peak_rss_mb']:.0f} -> {out_dir}"
        )
        failures += [f"{name}.{k}" for k, c in summary["checks"].items() if not c["ok"]]
    if failures:
        print(f"not converged: {' '.join(failures)}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Scan the finite-mirror reflectance against the narrow-band Lorentzian.

Writes a CSV with the exact finite-mirror |r(delta)|^2 next to the
single-Lorentzian approximation (Gamma_M/2)^2 / (delta^2 + (Gamma_M/2)^2),
for a range of mirror sizes.  Useful for choosing mirror atom numbers: the
approximation is good once N Gamma_wg dominates the per-atom loss.
"""

import argparse
import sys

import numpy as np

from wgqed import PhysParams, mirror_reflectance_lorentzian, transfer_matrix_reflectance
from wgqed.model import write_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", nargs="*", type=int, default=[50, 200, 500, 1000])
    parser.add_argument("--out", default="mirror_reflectance.csv")
    parser.add_argument("--n-detunings", type=int, default=801)
    args = parser.parse_args()

    params = PhysParams()
    blocks = []  # per size: n_atoms, delta, |r|^2 and the Lorentzian per detuning
    for n in args.sizes:
        gamma_m = n * params.gamma_1d / 2
        deltas = np.linspace(-2 * gamma_m, 2 * gamma_m, args.n_detunings)
        r, _ = transfer_matrix_reflectance(0.5 * np.arange(n), params, deltas)
        lorentz = mirror_reflectance_lorentzian(gamma_m, deltas)
        blocks.append((np.full(len(deltas), n), deltas, np.abs(r) ** 2, lorentz))
        on_res = np.abs(r[args.n_detunings // 2]) ** 2
        print(f"N={n:5d}: |r(0)|^2 = {on_res:.4f}, Gamma_M = {gamma_m:g}")
    columns = [np.concatenate(column) for column in zip(*blocks)] or [np.empty(0)] * 4
    write_csv(args.out, ["n_atoms", "delta", "reflectance_tm", "reflectance_lorentzian"], columns)
    print(f"written {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

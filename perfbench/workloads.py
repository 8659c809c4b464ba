"""Workload definitions, per-op configs, output checks and reference snapshots.

Every op is one `wgqed.cli.run(RunConfig)` call with `workers=1` that writes
its artifacts.  The configs come from the workload seed alone.  Each op's
outputs are checked against the repository's own gates and against a
snapshot recorded from the seed commit (see README.md).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from tracer import solve_gflop
from wgqed import cli

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_TOL = 1e-3  # absolute; acceptance criterion 8's cross-method tolerance
SERIES_BALANCE_TOL = 1e-2  # time-domain balance, resonant route
LEDGER_BALANCE_TOL = 3e-3  # end-state balance, retarded route (criterion 10)
P_STRIDE = 8  # p(t) is snapshotted on every 8th point of the 2049-point grid
LEDGER_KEYS = ("P_left", "P_right", "P_raman", "P_ext", "residual")
ARTIFACTS = ("probabilities.csv", "profiles.csv", "positions.csv", "summary.json")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    scale: float
    method: str  # the route `method=auto` resolves to; the warm-up forces it
    warmup_scale: float
    warmup_t_max: float
    t_max: Optional[float] = None
    member_pool: int = 0  # > 0: disorder members drawn from seeds 0..pool-1

    def config(self, seed: int, out_dir: Path) -> cli.RunConfig:
        return cli.RunConfig(
            scenario=self.scenario,
            scale=self.scale,
            t_max=self.t_max,
            seed=seed,
            workers=1,
            out_dir=str(out_dir),
        )

    def warmup_config(self) -> cli.RunConfig:
        return cli.RunConfig(
            scenario=self.scenario,
            scale=self.warmup_scale,
            t_max=self.warmup_t_max,
            method=self.method,
            workers=1,
        )

    def member_seeds(self, workload_seed: int):
        """Endless per-op seed sequence derived from the workload seed."""
        rng = np.random.default_rng(workload_seed)
        while True:
            if self.member_pool:
                yield from (int(s) for s in rng.permutation(self.member_pool))
            else:
                yield int(rng.integers(0, 2**31 - 1))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("markovian-bragg", "fig2", 0.3, "markovian", 0.02, 0.3),
        Workload("cavity-retarded", "fig7b", 0.05, "spectral", 0.01, 0.5),
        Workload("disorder-members", "fig3b", 0.1, "markovian", 0.02, 0.3, member_pool=48),
        # benchmark self-test only; not listed in BENCHMARK.json
        Workload("smoke", "fig2", 0.02, "markovian", 0.02, 0.3, t_max=3.0),
    )
}


def computed_counts(result: cli.RunResult) -> dict:
    """Work counts that follow from the op's sizes alone (repeat exactly)."""
    n = sum(seg["count"] for seg in result.summary.data["config"]["chain"]["segments"])
    m = len(result.record.spectrum_right.deltas)
    n_t = len(result.series.t)
    n_tau = len(result.record.profile_right.tau)
    retarded = result.summary.data["config"]["method"] == "spectral"
    return {
        "N": n,
        "M": m,
        "n_t": n_t,
        "n_tau": n_tau,
        "solves": m,
        "solve_gflop": solve_gflop(m, n),
        "x_bytes": m * n * 16,
        "time_domain_phase_evals": n_t * m if retarded else 0,
        "profile_phase_evals": 2 * n_tau * m,
        # evolve_markovian and superradiant_overlap each call eig once;
        # the retarded route only calls superradiant_overlap
        "eig_calls": 1 if retarded else 2,
    }


def snapshot(result: cli.RunResult) -> dict:
    """Ledger and strided p(t), rounded far below the 1e-3 tolerance."""
    ledger = result.record.ledger.as_dict()
    return {
        "ledger": {k: round(float(ledger[k]), 10) for k in LEDGER_KEYS},
        "n_t": len(result.series.t),
        "t_max": float(result.series.t[-1]),
        "p": [round(float(v), 10) for v in result.series.p[::P_STRIDE]],
    }


def reference_key(workload: Workload, seed: int) -> str:
    return str(seed) if workload.member_pool else "ordered"


def load_reference(workload: Workload) -> dict:
    path = REFERENCE_DIR / f"{workload.name}.json"
    with open(path) as fh:
        return json.load(fh)["members"]


def check_outputs(result: cli.RunResult, out_dir: Path, expected: Optional[dict]) -> list[str]:
    """Every failed check as a message; an empty list means the op passed."""
    problems = []
    ledger = result.record.ledger
    series = result.series
    if not ledger.converged:
        problems.append("ledger not converged")
    if result.summary.data["config"]["method"] == "spectral":
        # On the retarded route the time-domain directional fluxes count the
        # in-flight cavity field (see energy_ledger), so the repository gates
        # the end-state ledger there instead of series.balance_error().
        if not ledger.balance_error <= LEDGER_BALANCE_TOL:
            problems.append(
                f"ledger balance error {ledger.balance_error:.3g} > {LEDGER_BALANCE_TOL:g}"
            )
    else:
        balance = float(series.balance_error().max())
        if not balance <= SERIES_BALANCE_TOL:
            problems.append(f"series balance error {balance:.3g} > {SERIES_BALANCE_TOL:g}")
    ordered = np.all(series.p0 <= series.pa * (1 + 1e-9) + 1e-12) and np.all(
        series.pa <= series.p * (1 + 1e-9) + 1e-12
    )
    if not ordered:
        problems.append("p0 <= pa <= p violated")

    missing = [name for name in ARTIFACTS if not (out_dir / name).is_file()]
    if missing:
        problems.append(f"artifacts missing: {missing}")
    else:
        with open(out_dir / "summary.json") as fh:
            written = json.load(fh)
        if written["ledger"] != result.summary.data["ledger"]:
            problems.append("summary.json ledger differs from the returned one")
        with open(out_dir / "probabilities.csv", newline="") as fh:
            rows = sum(1 for _ in csv.reader(fh)) - 1
        if rows != len(result.series.t):
            problems.append(f"probabilities.csv has {rows} rows, expected {len(result.series.t)}")

    if expected is None:
        problems.append("no reference snapshot for this op")
    elif expected.get("geometry_error"):
        problems.append("reference expects GeometryError, but the run succeeded")
    else:
        got = snapshot(result)
        for key in LEDGER_KEYS:
            diff = abs(got["ledger"][key] - expected["ledger"][key])
            if not diff <= REFERENCE_TOL:
                problems.append(f"ledger {key} off the reference by {diff:.3g}")
        if got["n_t"] != expected["n_t"] or not math.isclose(got["t_max"], expected["t_max"]):
            problems.append("time grid differs from the reference")
        else:
            diff = float(np.max(np.abs(np.asarray(got["p"]) - expected["p"])))
            if not diff <= REFERENCE_TOL:
                problems.append(f"p(t) off the reference by {diff:.3g}")
    return problems


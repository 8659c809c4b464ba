"""Scenario runner: configuration, named geometries, artifacts, and fits.

Binds the whole pipeline together: build the chain, classify the regime,
evolve (eigendecomposition or resolvent sweep), integrate the probability
ledger, compute directional spectra and pulse profiles, judge the run from
one table of gates (`converged`, see _checks), fit the early/late decay rates
and any vacuum-Rabi oscillation, and write the run artifacts
(`probabilities.csv`, `profiles.csv`, `positions.csv`, `summary.json`).  An
oscillating run also reports its cavity model, the doublet of the poles of
the Dicke amplitude <psi0|b(t)> (analytic.jc_model).

The kernel picks the route.  A Markovian run takes its trajectory, spectra,
weights, profiles and cavity model in closed form from one modal expansion of
H (the "poles" route); modal_expansion raises NumericalError on an expansion
it cannot trust, and _pole_check on one that deviates from the resonant-kernel
sweep's resolvent.  A retarded run takes the resolvent sweep over the
frequency grid, synthesises the trajectory from it and fits the poles of a0
(the "sweep" route), with no eigendecomposition and no N x N matrix: only the
poles route builds H.  On either route each atom loses gamma_ext to the
non-guided modes on its own, so the external loss is gamma_ext p.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import dynamics
from .analytic import JCFit, RegimeReport, classify_regime, collective_rate, fit_jc_trace, jc_model
from .dynamics import (
    DecayFit,
    ModalExpansion,
    NumericalError,
    ProbabilitySeries,
    default_time_grid,
    evolve_markovian,
    fit_decay_rate,
    modal_expansion,
    probabilities,
    superradiant_overlap,
)
from .emission import (
    EmissionRecord,
    EnergyLedger,
    SpatialProfile,
    Spectrum,
    default_tau_grid,
    emission_spectrum,
    energy_ledger,
    sampled_amplitudes,
    spatial_profile,
)
from .hamiltonian import effective_hamiltonian
from .model import (
    AtomArray,
    ChainSpec,
    ConfigError,
    DisorderSpec,
    GeometryError,
    PhysParams,
    StateVector,
    build_chain,
    dicke_initial_state,
    write_csv,
)
from .spectral import (
    GridResolutionError,
    SpectralGrid,
    build_grid,
    resolvent_sweep,
    time_domain,
)

FORMAT_VERSION = 5

# Half-span of the sweep route's frequency grid (in units of the fastest
# collective rate); the poles route has no grid.  The synthesis subtracts the
# delayed second-order term of x and the two leading terms of the outgoing
# fields and adds their transforms back exactly, so its truncation error falls
# as 1/span^2: at 50, b(t) is within 8e-7 and the profiles within 1.6e-5 of
# their peak on fig7b at scales 0.05 and 0.1.  The grid has an alias-free
# window of at least 2 t_max (build_grid), which holds the run only if b has
# decayed by t_max: the leak probes check that.
SPAN_FACTOR_RETARDED = 50.0
# A synthesised trajectory is also evaluated at this many negative times, log
# spaced down to -t_max, where b vanishes exactly (synthesis_leak).  A probe at
# -t reads the alias b(W - t) of the window W, so a swept run is converged only
# if its leak is at most LEAK_TOL: a decade over the 2-5e-7 that the shipped
# cavities read, and far under what a t_max shorter than the decay reads.
LEAK_PROBES = 16
LEAK_TOL = 1e-5
# A run is converged only if its end-state ledger balances within BALANCE_TOL
# and its time and spectral guided totals agree within DISCREPANCY_TOL.
BALANCE_TOL = 1e-2
DISCREPANCY_TOL = 1e-2
# On the sweep route, the Dicke amplitude <psi0|b(t)> is sampled on at least
# this many uniform times over [0, t_max], and densely enough that
# pi/dt >= 2 Gamma_fast, for the harmonic inversion of fit_jc_trace.
DICKE_SAMPLES = 256

# The poles route checks its modal resolvent against the resolvent at this many
# detunings over +/- Gamma_fast, and raises when the largest deviation exceeds
# POLE_CHECK_TOL of the largest |x| there.
POLE_CHECK_POINTS = 9
POLE_CHECK_TOL = 1e-8


def _positive(value) -> bool:
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class RunConfig:
    scenario: Optional[str] = None
    chain: Optional[ChainSpec] = None
    params: PhysParams = field(default_factory=PhysParams)
    method: str = "auto"  # markovian | spectral | auto
    scale: float = 1.0
    t_max: Optional[float] = None
    seed: int = 0
    ensemble: int = 1
    workers: int = 1
    out_dir: Optional[str] = None

    def __post_init__(self):
        if (self.scenario is None) == (self.chain is None):
            raise ConfigError("exactly one of scenario or chain must be given")
        if self.method not in ("auto", "markovian", "spectral"):
            raise ConfigError(f"unknown method {self.method!r}")
        if not _positive(self.scale):
            raise ConfigError(f"scale must be finite and positive, got {self.scale}")
        if self.t_max is not None and not _positive(self.t_max):
            raise ConfigError(f"t_max must be finite and positive, got {self.t_max}")
        if self.ensemble < 1:
            raise ConfigError("ensemble count must be >= 1")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class OscillationFit:
    frequency: float  # angular, units of gamma
    contrast: float


@dataclass
class RunSummary:
    data: dict

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")


@dataclass
class MemberRun:
    """One disorder member's pipeline output: its series, and its spectra and
    profiles (right, left), which cli.run averages into the run's record."""

    array: AtomArray
    series: ProbabilitySeries
    spectra: tuple[Spectrum, Spectrum]
    profiles: tuple[SpatialProfile, SpatialProfile]
    overlap: Optional[float]  # None on the retarded route
    timings: dict
    grid: Optional[SpectralGrid]  # the swept grid; None on the poles route
    checks: dict  # this member's value of each gate its route measures (_checks)
    jc_fit: Optional[JCFit]  # the cavity model of <psi0|b(t)>; None on the sweep route
    # the sweep route's samples (t, <psi0|b(t)>) for the pencil, which run()
    # fits only when the member is the first and p0 oscillates; None on the poles route
    dicke: Optional[tuple[np.ndarray, np.ndarray]]


@dataclass
class RunResult:
    summary: RunSummary
    series: ProbabilitySeries
    record: EmissionRecord
    regime: RegimeReport


# ---------------------------------------------------------------------------
# Named scenarios (the published-figure geometries plus the bare emitter)
# ---------------------------------------------------------------------------


def _cavity_gap(
    n_mirror: int, n_center: int, params: PhysParams, antinode: bool
) -> float:
    """Mirror-emitter gap for a long resonant cavity.

    The mirror separation targets the geometric mean of the retardation window
    (1/Gamma_M, 1/Gamma_C) so the cavity regime survives rescaling, and the
    gap snaps to an integer number of half-waves (node placement) plus a
    quarter wave for the antinode placement.
    """
    gamma_c = collective_rate(n_center, params)
    gamma_m = collective_rate(n_mirror, params)
    l_target = params.v_g / math.sqrt(gamma_c * gamma_m)
    span_c = (n_center - 1) * 0.5
    d0 = max(1, round(l_target - span_c)) * 0.5
    if antinode:
        d0 += 0.25
    return d0


@dataclass(frozen=True)
class Scenario:
    """A named geometry: the (left, center, right) segment counts at scale 1,
    the mirror-emitter gap in lambda_wg (None: the long-cavity gap, at a node
    or, with antinode, an antinode), the disordered mirrors (density 1), and
    the default window in 1/gamma_ext."""

    counts: tuple[int, int, int]
    gap: Optional[float] = 0.5
    antinode: bool = False
    disordered: tuple[str, ...] = ()  # "left" and/or "right"
    t_max_in_ext_lifetimes: float = 12.0

    def build(self, scale: float, seed: int, params: PhysParams) -> ChainSpec:
        """The chain at scale (ChainSpec.scaled), with its gap for those counts."""
        left, right = (
            DisorderSpec(1.0) if side in self.disordered else None for side in ("left", "right")
        )
        chain = ChainSpec(
            *self.counts, left_disorder=left, right_disorder=right, rng_seed=seed
        ).scaled(scale)
        gap_d0 = self.gap
        if gap_d0 is None:
            gap_d0 = _cavity_gap(chain.n_left, chain.n_center, params, self.antinode)
        return replace(chain, gap_d0=gap_d0)


SCENARIOS: dict[str, Scenario] = {
    "fig2": Scenario((100, 100, 100)),
    "fig3b": Scenario((0, 100, 200), disordered=("right",)),
    "fig3c": Scenario((100, 100, 100), disordered=("left", "right")),
    "fig4": Scenario((100, 100, 100), gap=0.25),
    "fig5": Scenario((0, 100, 200), gap=0.25),
    "fig7a": Scenario((500, 100, 500), gap=None, t_max_in_ext_lifetimes=28.5),
    "fig7b": Scenario((500, 100, 500), gap=None, antinode=True, t_max_in_ext_lifetimes=28.5),
    "bare": Scenario((0, 100, 0)),
}


# ---------------------------------------------------------------------------
# Fits on the probability series
# ---------------------------------------------------------------------------


def extrema(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the strict interior local maxima and minima of y."""
    inner = np.arange(1, len(y) - 1)
    maxima = inner[(y[inner] > y[inner - 1]) & (y[inner] > y[inner + 1])]
    minima = inner[(y[inner] < y[inner - 1]) & (y[inner] < y[inner + 1])]
    return maxima, minima


def oscillation_fit(series: ProbabilitySeries) -> Optional[OscillationFit]:
    """Angular frequency and first-revival contrast of an oscillating p0.

    The minima of p0 recur every 2 pi/omega, so omega is 2 pi over the
    least-squares slope of the minima times against their index; with a
    single minimum it is pi over the mean spacing of the interior extrema.
    Fewer than three extrema, or no revival after the first minimum, means no
    oscillation.  This reads the time series alone, independently of the
    cavity model that fit_jc_trace reads off the poles.
    """
    y, t = series.p0, series.t
    maxima, minima = extrema(y)
    turning = np.sort(np.concatenate([maxima, minima]))
    if len(turning) < 3 or len(minima) == 0:
        return None
    later_maxima = maxima[maxima > minima[0]]
    if len(later_maxima) == 0:
        return None
    if len(minima) >= 2:
        omega = 2.0 * math.pi / float(np.polyfit(np.arange(len(minima)), t[minima], 1)[0])
    else:
        omega = math.pi / float(np.mean(np.diff(t[turning])))
    y_max = float(y[later_maxima[0]])
    y_min = float(y[minima[0]])
    contrast = (y_max - y_min) / (y_max + y_min)
    return OscillationFit(frequency=omega, contrast=contrast)


def fit_early_late(series: ProbabilitySeries) -> tuple[dict, float]:
    """Early (fast-stage) and late (tail) decay rates of p(t), and the tail's log p(0).

    The tail is fit over the last part of the window; the fast component is
    isolated by subtracting the extrapolated tail before fitting, falling back
    to a plain early-window fit when the decay is single-exponential.
    """
    t = series.t
    t_max = t[-1]
    late = fit_decay_rate(series, (0.55 * t_max, t_max), which="p")
    log_p_late = np.log(series.p[t >= 0.55 * t_max])
    t_late = t[t >= 0.55 * t_max]
    intercept = float(np.mean(log_p_late + late.rate * t_late))
    tail = np.exp(intercept - late.rate * t)
    residual = series.p - tail
    mask = (residual > 0.02 * series.p) & (residual > 1e-12) & (t > 0)
    early: DecayFit
    if np.count_nonzero(mask) >= 3:
        tm = t[mask]
        rm = residual[mask]
        slope, _ = np.polyfit(tm, np.log(rm), 1)
        early = DecayFit(rate=float(-slope), r_squared=float("nan"))
    else:
        window = (series.p <= 0.97) & (series.p >= 0.7)
        if np.count_nonzero(window) >= 3:
            early = fit_decay_rate(series, (t[window][0], t[window][-1]), which="p")
        else:
            early = late
    return {"early": early.rate, "late": late.rate, "late_r_squared": late.r_squared}, intercept


def fast_stage_end(intercept: float) -> dict:
    """The probability the fast stage drops, 1 - e^intercept: what p(0) = 1 holds
    beyond the tail fit extrapolated back to t = 0.  A positive intercept, a tail
    that starts above p(0), has no separable fast stage: None."""
    return {"drop": None if intercept > 0.0 else 1.0 - math.exp(intercept)}


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------


def _resolve_chain(config: RunConfig) -> tuple[ChainSpec, float]:
    if config.chain is not None:
        chain = replace(config.chain.scaled(config.scale), rng_seed=config.seed)
        t_ext = Scenario.t_max_in_ext_lifetimes
    else:
        try:
            scenario = SCENARIOS[config.scenario]
        except KeyError:
            raise ConfigError(
                f"unknown scenario {config.scenario!r}; pick one of {sorted(SCENARIOS)}"
            ) from None
        chain = scenario.build(config.scale, config.seed, config.params)
        t_ext = scenario.t_max_in_ext_lifetimes
    return chain, t_ext


def _pole_check(
    modes: ModalExpansion,
    array: AtomArray,
    params: PhysParams,
    psi0: StateVector,
    gamma_fast: float,
) -> float:
    """The deviation of the modal resolvent from the resonant-kernel sweep's.

    The expansion (whose condition and residual modal_expansion has gated)
    must match it at POLE_CHECK_POINTS detunings over +/- gamma_fast;
    otherwise NumericalError.
    """
    check_grid = SpectralGrid(-gamma_fast, gamma_fast, POLE_CHECK_POINTS)
    exact = resolvent_sweep(array, params, psi0, check_grid, retarded=False).resolvent()
    deviation = np.max(np.abs(modes.resolvent(check_grid.deltas) - exact))
    check_error = float(deviation / np.max(np.abs(exact)))
    if not check_error <= POLE_CHECK_TOL:
        raise NumericalError(
            f"pole check deviation {check_error:.3g} exceeds POLE_CHECK_TOL = "
            f"{POLE_CHECK_TOL:g} of the largest |x|"
        )
    return check_error


def _member_pipeline(
    chain: ChainSpec, params: PhysParams, method: str, t_max: float, workers: int
) -> MemberRun:
    """Trajectory, series, spectra, profiles and cavity model of one disorder member."""
    array = build_chain(chain)
    psi0 = dicke_initial_state(array, params)
    # the fastest segment's collective rate; collective_rate grows with n
    gamma_fast = collective_rate(max(chain.n_left, chain.n_center, chain.n_right), params)

    t_grid = default_time_grid(gamma_fast, t_max)
    bra = np.conj(psi0.amplitudes)

    retarded = method == "spectral"
    timings: dict[str, float] = {}
    tic = time.perf_counter()

    def lap(stage: str) -> None:
        """Add the seconds since the last lap to the stage's timing."""
        nonlocal tic
        now = time.perf_counter()
        timings[stage] = timings.get(stage, 0.0) + now - tic
        tic = now

    if retarded:
        # the sweep route: the spectra from the fields leaving the chain, and
        # the guided outflow |alpha|^2 from the spectra; b and a0 synthesised
        # from the resolvent (a0 from its projection on psi0, on uniform
        # times, kept for the pencil), b only as probabilities reads it
        grid = build_grid(gamma_fast, t_max, span_factor=SPAN_FACTOR_RETARDED)
        sweep = resolvent_sweep(array, params, psi0, grid, workers=workers)
        lap("resolvent_sweep")
        spectra = tuple(emission_spectrum(sweep, array, params, d) for d in (+1, -1))
        lap("emission_spectra")
        probe = -default_time_grid(gamma_fast, t_max, n=LEAK_PROBES)[:0:-1]
        trajectory = time_domain(sweep, t_grid, probe)
        n_dicke = max(DICKE_SAMPLES, math.ceil(2.0 * gamma_fast * t_max / math.pi) + 1)
        t_dicke = np.linspace(0.0, t_max, n_dicke)
        dicke = (t_dicke, time_domain(sweep.projected(bra), t_dicke).amplitudes[:, 0])
        del sweep  # the trajectory holds x until it is read
        jc_fit = None
        fluxes = tuple(np.abs(sampled_amplitudes(spectra, t_grid).T) ** 2)
        lap("evolution")
        checks, overlap = {"residual_max": trajectory.sweep.residual_max}, None
    else:
        # the poles route: everything in closed form from the checked modal
        # expansion of H; b is summed block by block in probabilities, and the
        # guided fluxes are its directional fluxes
        grid, dicke = None, None
        modes = modal_expansion(effective_hamiltonian(array, params), psi0)
        lap("evolution")
        check_error = _pole_check(modes, array, params, psi0, gamma_fast)
        lap("resolvent_sweep")
        spectra = tuple(emission_spectrum(modes, array, params, d) for d in (+1, -1))
        lap("emission_spectra")
        trajectory = evolve_markovian(modes, t_grid)
        jc_fit = jc_model(modes.evals, (bra @ modes.vecs) * modes.coeffs)
        lap("evolution")
        overlap = superradiant_overlap(modes, psi0)
        lap("superradiant_overlap")
        checks = {
            "residual_max": modes.residual,
            "eig_condition": modes.condition,
            "pole_check_error": check_error,
        }
        fluxes = None

    series = probabilities(trajectory, psi0, array, params, fluxes)
    if retarded:
        # read in the same pass as the series
        checks["synthesis_leak"] = trajectory.leak
    del trajectory  # and with it the sweep route's x, before the profiles
    lap("probabilities")
    tau = default_tau_grid(t_max)
    profiles = tuple(spatial_profile(spectrum, tau) for spectrum in spectra)
    lap("profiles")
    return MemberRun(
        array, series, spectra, profiles, overlap, timings, grid, checks, jc_fit, dicke
    )


def _average_series(members: list[ProbabilitySeries]) -> ProbabilitySeries:
    """The members' series averaged channel by channel, on the first one's times."""
    channels = [f.name for f in fields(ProbabilitySeries) if f.name != "t"]
    means = {c: np.mean([getattr(m, c) for m in members], axis=0) for c in channels}
    return ProbabilitySeries(t=members[0].t, **means)


def _checks(ledger: EnergyLedger, members: list[MemberRun]) -> dict:
    """The run's gate table, {value, limit, ok} per gate its route measured: the
    ledger's values are the run-level ledger's, the others the worst over the
    members.  Each limit is read here from the module that raises on it, so a
    patched limit means the same thing in the raise and in the table."""
    values = {
        "balance_error": ledger.balance_error,
        "guided_route_discrepancy": ledger.guided_route_discrepancy,
        **{name: max(m.checks[name] for m in members) for name in members[0].checks},
    }
    limits = {
        "balance_error": BALANCE_TOL,
        "guided_route_discrepancy": DISCREPANCY_TOL,
        "residual_max": dynamics.RESIDUAL_TOL,  # check_residual's RESIDUAL_TOL * |psi0|, |psi0| = 1
        "eig_condition": dynamics.CONDITION_MAX,
        "pole_check_error": POLE_CHECK_TOL,
        "synthesis_leak": LEAK_TOL,
    }
    return {k: {"value": v, "limit": limits[k], "ok": v <= limits[k]} for k, v in values.items()}


def _chain_echo(chain: ChainSpec) -> dict:
    return {
        "gap_d0": chain.gap_d0,
        "rng_seed": chain.rng_seed,
        "segments": [
            {
                "role": role.value,
                "count": count,
                "spacing": chain.spacing if disorder is None else None,
                "disorder_density": None if disorder is None else disorder.density,
            }
            for role, count, disorder in chain.segments()
        ],
    }


def _peak_rss_mb() -> float:
    """The process's peak resident set size so far (ru_maxrss, KiB), in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(config: RunConfig) -> RunResult:
    """Execute one configured run and write its artifacts.

    Returns the summary plus the in-memory series/emission record.  The
    series, the directional weights and the profile intensities are the
    means over the ensemble members in seed order (one member is its own
    mean), the ledger and the captures follow from those means, and the
    complex spectra kept in the record are the first member's.
    """
    wall_start = time.perf_counter()
    chain, t_ext_default = _resolve_chain(config)
    params = config.params
    tic = time.perf_counter()
    regime = classify_regime(chain, params)
    classify = time.perf_counter() - tic
    method = config.method
    if method == "auto":
        method = "markovian" if regime.markovian else "spectral"
    t_max = config.t_max
    if t_max is None:
        t_max = t_ext_default / params.gamma_ext

    member_seeds = [chain.rng_seed + i for i in range(config.ensemble)]
    members = []
    for member_seed in member_seeds:
        member_chain = replace(chain, rng_seed=member_seed)
        members.append(_member_pipeline(member_chain, params, method, t_max, config.workers))
    first = members[0]
    series = _average_series([m.series for m in members])
    if np.any(series.p == 0.0):
        # every pole has Im(lambda) <= -gamma_ext/2: a long window underflows p
        t_zero = series.t[np.argmax(series.p == 0.0)]
        raise NumericalError(f"p underflows to 0 at t = {t_zero:.4g}; choose a shorter t_max")
    weights = [float(np.mean([m.spectra[i].weight for m in members])) for i in (0, 1)]
    tau = first.profiles[0].tau
    profiles = [
        SpatialProfile.from_intensity(
            tau, np.mean([m.profiles[i].alpha2 for m in members], axis=0), weights[i]
        )
        for i in (0, 1)
    ]
    record = EmissionRecord(*first.spectra, *profiles, energy_ledger(series, *weights))
    checks = _checks(record.ledger, members)
    # the one verdict; the ledger's copy is read by perfbench/workloads.py
    converged = record.ledger.converged = all(check["ok"] for check in checks.values())
    tic = time.perf_counter()
    rates, intercept = fit_early_late(series)
    stage = fast_stage_end(intercept)
    oscillation = oscillation_fit(series)
    # an ensemble's cavity model is the first member's, as the record's complex
    # spectra are; the sweep route fits its pencil only here, where it is reported
    jc_fit = None
    if oscillation is not None:
        jc_fit = first.jc_fit if first.dicke is None else fit_jc_trace(*first.dicke)
    fits = time.perf_counter() - tic
    if jc_fit is not None and regime.numbers.get("kappa") is not None:
        regime.numbers["g_c"] = jc_fit.g
        regime.strong_coupling = jc_fit.g > 0.25 * jc_fit.kappa

    total = time.perf_counter() - wall_start
    summary = RunSummary(
        {
            "format_version": FORMAT_VERSION,
            "config": {
                "scenario": config.scenario,
                "chain": _chain_echo(chain),
                "params": asdict(params),
                "method": method,
                "method_requested": config.method,
                "scale": config.scale,
                "t_max": t_max,
                "seed": config.seed,
                "ensemble": config.ensemble,
                "member_seeds": member_seeds,
                "workers": config.workers,
            },
            "regime": asdict(regime),
            "rates": rates,
            "fast_stage": stage,
            "superradiant_overlap": first.overlap,
            "oscillation": None if oscillation is None else asdict(oscillation),
            "jc_fit": None if jc_fit is None else asdict(jc_fit),
            "ledger": record.ledger.as_dict(),
            "converged": converged,
            "checks": checks,
            "grid": None if first.grid is None else {
                "n_points": first.grid.n_points,
                "spacing": first.grid.spacing,
                "alias_window": first.grid.alias_window,
            },
            "route": "sweep" if method == "spectral" else "poles",
            "profiles": {
                name: {"captured": profile.captured, "covers_support": profile.covers_support}
                for name, profile in (
                    ("right", record.profile_right),
                    ("left", record.profile_left),
                )
            },
            "timings": {
                "members": [m.timings for m in members],
                "classify_regime": classify,
                "fits": fits,
                "total": total,
                "peak_rss_mb": _peak_rss_mb(),
            },
        }
    )
    result = RunResult(summary=summary, series=series, record=record, regime=regime)
    if config.out_dir is not None:
        _write_artifacts(result, first.array, Path(config.out_dir))
    return result


def _write_artifacts(result: RunResult, array, out_dir: Path) -> None:
    """Write the three CSV files, then summary.json with their writing time
    as timings.artifacts and the peak RSS read again after them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tic = time.perf_counter()
    result.series.to_csv(out_dir / "probabilities.csv")
    rec = result.record
    write_csv(
        out_dir / "profiles.csv",
        ["z_over_vg_per_gamma", "alpha2_left", "alpha2_right"],
        [rec.profile_left.tau, rec.profile_left.alpha2, rec.profile_right.alpha2],
    )
    array.to_csv(out_dir / "positions.csv")
    timings = result.summary.data["timings"]
    timings["artifacts"] = time.perf_counter() - tic
    timings["peak_rss_mb"] = _peak_rss_mb()
    result.summary.to_json(out_dir / "summary.json")


# ---------------------------------------------------------------------------
# Configuration files and the command line
# ---------------------------------------------------------------------------


class ConfigFileError(ConfigError):
    """Config file problem with a file:line anchor."""


def parse_config_file(path) -> dict:
    """Flat key-value sections; returns {section: {key: (value, lineno)}}."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: Optional[str] = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                if current not in ("run", "params", "chain"):
                    raise ConfigFileError(f"{path}:{lineno}: unknown section [{current}]")
                sections.setdefault(current, {})
                continue
            if "=" not in line:
                raise ConfigFileError(f"{path}:{lineno}: expected 'key = value'")
            if current is None:
                raise ConfigFileError(f"{path}:{lineno}: key outside of any section")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ConfigFileError(f"{path}:{lineno}: empty key")
            if key in sections[current]:
                raise ConfigFileError(f"{path}:{lineno}: duplicate key {key!r}")
            sections[current][key] = (value, lineno)
    return sections


_RUN_KEYS = {
    "scenario": str,
    "scale": float,
    "method": str,
    "seed": int,
    "ensemble": int,
    "t_max": float,
    "workers": int,
    "out": str,
}
_PARAM_KEYS = {"beta": float, "gamma_ext": float, "v_g": float}


def _count(text: str) -> int:
    """A segment count: an integer >= 0 (ChainSpec also asks n_center >= 1)."""
    n = int(text)
    if n < 0:
        raise ValueError(text)
    return n


def _finite(text: str) -> float:
    """A finite float (ChainSpec and DisorderSpec ask for more)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


_CHAIN_KEYS = {"n_left": _count, "n_center": _count, "n_right": _count, "gap_d0": _finite,
               "spacing": _finite, "left_disorder_density": _finite,
               "right_disorder_density": _finite}


def _convert(section: str, table: dict, raw: dict, path) -> dict:
    out = {}
    for key, (value, lineno) in raw.items():
        if key not in table:
            raise ConfigFileError(
                f"{path}:{lineno}: unknown key {key!r} in section [{section}]"
            )
        try:
            out[key] = table[key](value)
        except ValueError:
            raise ConfigFileError(
                f"{path}:{lineno}: bad value {value!r} for {key!r} in section [{section}]"
            ) from None
    return out


def config_from_file(path) -> RunConfig:
    sections = parse_config_file(path)
    run_raw = _convert("run", _RUN_KEYS, sections.get("run", {}), path)
    par_raw = _convert("params", _PARAM_KEYS, sections.get("params", {}), path)
    chain_raw = _convert("chain", _CHAIN_KEYS, sections.get("chain", {}), path)

    params = PhysParams(**par_raw)
    chain = None
    if chain_raw:
        if "scenario" in run_raw:
            lineno = sections["run"]["scenario"][1]
            raise ConfigFileError(
                f"{path}:{lineno}: [run] scenario and a [chain] section exclude each other"
            )
        if "n_center" not in chain_raw:
            raise ConfigFileError(f"{path}: [chain] section needs n_center")
        disorder = {
            f"{side}_disorder": DisorderSpec(chain_raw.pop(f"{side}_disorder_density"))
            for side in ("left", "right")
            if f"{side}_disorder_density" in chain_raw
        }
        chain = ChainSpec(**{"n_left": 0, "n_right": 0, **chain_raw, **disorder})
    if "out" in run_raw:
        run_raw["out_dir"] = run_raw.pop("out")
    return RunConfig(chain=chain, params=params, **run_raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgqed",
        description="Collective-emission scenarios for a waveguide-coupled atom chain",
    )
    parser.add_argument("--scenario", choices=sorted(SCENARIOS), help="named geometry")
    parser.add_argument("--config", help="key-value config file (see docs/config.md)")
    parser.add_argument("--scale", type=float,
                        help="multiply all segment counts (min 1 atom per segment)")
    parser.add_argument("--method", choices=["auto", "markovian", "spectral"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--ensemble", type=int,
                        help="number of disorder realisations to average")
    parser.add_argument("--out", dest="out_dir", help="artifact directory")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--t-max", type=float, dest="t_max")
    return parser


def _apply_flags(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    """config with every command-line flag that was given applied over it;
    --scenario replaces a custom chain."""
    flags = {k: v for k, v in vars(args).items() if v is not None and k != "config"}
    if "scenario" in flags:
        flags["chain"] = None
    return replace(config, **flags)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None and args.scenario is None:
        parser.error("one of --scenario or --config is required")
    try:
        if args.config is not None:
            config = config_from_file(args.config)
        else:
            config = RunConfig(scenario=args.scenario)
        config = _apply_flags(config, args)
        result = run(config)
    except (ConfigError, GeometryError, GridResolutionError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    data, ledger = result.summary.data, result.record.ledger
    failing = [name for name, check in data["checks"].items() if not check["ok"]]
    print(
        f"method={data['config']['method']} "
        f"P_left={ledger.p_left:.4f} P_right={ledger.p_right:.4f} "
        f"P_ext={ledger.p_ext:.4f} residual={ledger.residual:.2e} "
        f"converged={data['converged']}" + (f" failing={','.join(failing)}" if failing else "")
    )
    if config.out_dir is not None:
        print(f"artifacts written to {config.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

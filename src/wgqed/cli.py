"""Scenario runner: configuration, named geometries, artifacts, and fits.

Binds the whole pipeline together: build the chain, classify the regime,
evolve (eigendecomposition or resolvent sweep), integrate the probability
ledger, compute directional spectra and pulse profiles, fit the early/late
decay rates and any vacuum-Rabi oscillation, and write the run artifacts
(`probabilities.csv`, `profiles.csv`, `positions.csv`, `summary.json`).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy.optimize import curve_fit

from .analytic import RegimeReport, classify_regime, collective_rate, extrema, fit_jc_trace
from .dynamics import (
    DecayFit,
    ProbabilitySeries,
    default_time_grid,
    evolve_markovian,
    fit_decay_rate,
    probabilities,
    superradiant_overlap,
)
from .emission import (
    EmissionRecord,
    SpatialProfile,
    default_tau_grid,
    emission_spectrum,
    energy_ledger,
    spatial_profile,
)
from .hamiltonian import add_free_space_coupling, decay_partition, effective_hamiltonian
from .model import (
    AtomArray,
    ChainSpec,
    ConfigError,
    DisorderSpec,
    PhysParams,
    build_chain,
    dicke_initial_state,
)
from .spectral import ScenarioScales, SpectralGrid, build_grid, resolvent_sweep, time_domain

FORMAT_VERSION = 1

# Grid span (in units of the fastest collective rate) for the emission sweep;
# the resonant kernel needs the wide span for 1e-3 spectral-weight accuracy,
# the retarded kernel trades some of it for grid-size headroom.
SPAN_FACTOR_RESONANT = 400.0
SPAN_FACTOR_RETARDED = 200.0


@dataclass(frozen=True)
class GridConfig:
    span_factor: Optional[float] = None  # None -> kernel-dependent default
    apod_fraction: float = 0.1


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
    grid: GridConfig = field(default_factory=GridConfig)
    free_space: bool = False

    def __post_init__(self):
        if (self.scenario is None) == (self.chain is None):
            raise ConfigError("exactly one of scenario or chain must be given")
        if self.method not in ("auto", "markovian", "spectral"):
            raise ConfigError(f"unknown method {self.method!r}")
        if self.scale <= 0:
            raise ConfigError("scale must be positive")
        if self.ensemble < 1:
            raise ConfigError("ensemble count must be >= 1")


@dataclass
class OscillationFit:
    frequency: float  # angular, units of gamma
    contrast: float


def _plain(value):
    """Recursively convert numpy scalars/arrays into plain Python values."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    return value


@dataclass
class RunSummary:
    data: dict

    def __post_init__(self):
        self.data = _plain(self.data)

    def as_dict(self) -> dict:
        return self.data

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")


@dataclass
class MemberRun:
    """One disorder member's pipeline output."""

    array: AtomArray
    series: ProbabilitySeries
    record: EmissionRecord
    overlap: float
    timings: dict
    grid: SpectralGrid
    residual_max: float


@dataclass
class RunResult:
    summary: RunSummary
    series: ProbabilitySeries
    record: EmissionRecord
    regime: RegimeReport


# ---------------------------------------------------------------------------
# Named scenarios (the published-figure geometries plus the bare emitter)
# ---------------------------------------------------------------------------


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


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
    span_c = (n_center - 1) * 0.5 * params.lambda_wg
    d0 = max(1, round((l_target - span_c) / params.lambda_wg)) * 0.5 * params.lambda_wg
    if antinode:
        d0 += 0.25 * params.lambda_wg
    return d0


def _fig2(scale, seed, params):
    n = _scaled(100, scale)
    return ChainSpec.three_segment(n, n, n, gap_d0=0.5 * params.lambda_wg, rng_seed=seed)


def _fig3b(scale, seed, params):
    return ChainSpec.three_segment(
        0,
        _scaled(100, scale),
        _scaled(200, scale),
        gap_d0=0.5 * params.lambda_wg,
        right_disorder=DisorderSpec(1.0),
        rng_seed=seed,
    )


def _fig3c(scale, seed, params):
    n = _scaled(100, scale)
    return ChainSpec.three_segment(
        n,
        n,
        n,
        gap_d0=0.5 * params.lambda_wg,
        left_disorder=DisorderSpec(1.0),
        right_disorder=DisorderSpec(1.0),
        rng_seed=seed,
    )


def _fig4(scale, seed, params):
    n = _scaled(100, scale)
    return ChainSpec.three_segment(n, n, n, gap_d0=0.25 * params.lambda_wg, rng_seed=seed)


def _fig5(scale, seed, params):
    return ChainSpec.three_segment(
        0,
        _scaled(100, scale),
        _scaled(200, scale),
        gap_d0=0.25 * params.lambda_wg,
        rng_seed=seed,
    )


def _fig7(antinode):
    def build(scale, seed, params):
        n_c = _scaled(100, scale)
        n_m = _scaled(500, scale)
        gap = _cavity_gap(n_m, n_c, params, antinode)
        return ChainSpec.three_segment(n_m, n_c, n_m, gap_d0=gap, rng_seed=seed)

    return build


def _bare(scale, seed, params):
    return ChainSpec.three_segment(0, _scaled(100, scale), 0, rng_seed=seed)


@dataclass(frozen=True)
class Scenario:
    build: Callable[[float, int, PhysParams], ChainSpec]
    t_max_in_ext_lifetimes: float = 12.0


SCENARIOS: dict[str, Scenario] = {
    "fig2": Scenario(_fig2),
    "fig3b": Scenario(_fig3b),
    "fig3c": Scenario(_fig3c),
    "fig4": Scenario(_fig4),
    "fig5": Scenario(_fig5),
    "fig7a": Scenario(_fig7(antinode=False), t_max_in_ext_lifetimes=28.5),
    "fig7b": Scenario(_fig7(antinode=True), t_max_in_ext_lifetimes=28.5),
    "bare": Scenario(_bare),
}


# ---------------------------------------------------------------------------
# Fits on the probability series
# ---------------------------------------------------------------------------


def oscillation_fit(series: ProbabilitySeries, which: str = "p0") -> Optional[OscillationFit]:
    """Frequency and first-revival contrast of an oscillating probability.

    The frequency seed comes from the mean spacing of interior extrema
    (population extrema recur every pi/omega) and is refined by a damped-cosine
    least squares; fewer than three extrema means no oscillation to fit.
    """
    y = {"p": series.p, "p0": series.p0, "pa": series.pa}[which]
    t = series.t
    maxima, minima = extrema(y)
    turning = np.sort(np.concatenate([maxima, minima]))
    if len(turning) < 3:
        return None
    omega = math.pi / float(np.mean(np.diff(t[turning])))

    lo, hi = 0.7 * omega, 1.3 * omega
    safe = np.clip(y, 1e-300, None)

    def model(tt, log_a, rate, om, phase, c):
        return log_a - rate * tt + np.log1p(np.clip(c * np.cos(om * tt + phase), -0.999, None))

    try:
        popt, _ = curve_fit(
            model,
            t,
            np.log(safe),
            p0=[0.0, 1.0, omega, 0.0, 0.5],
            bounds=([-50, 0, lo, -math.pi, 0], [10, 50, hi, math.pi, 0.999]),
            maxfev=10000,
        )
        omega = float(popt[2])
    except (RuntimeError, ValueError):
        pass  # keep the extrema-spacing estimate

    if len(minima) == 0:
        return None
    first_min = minima[0]
    later_maxima = maxima[maxima > first_min]
    if len(later_maxima) == 0:
        return None
    y_max = float(y[later_maxima[0]])
    y_min = float(y[first_min])
    contrast = (y_max - y_min) / (y_max + y_min)
    return OscillationFit(frequency=omega, contrast=contrast)


def fit_early_late(series: ProbabilitySeries) -> dict:
    """Early (fast-stage) and late (tail) decay rates of p(t).

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
    return {"early": early.rate, "late": late.rate, "late_r_squared": late.r_squared}


def fast_stage_end(series: ProbabilitySeries, late_rate: float) -> dict:
    """Time and probability drop where the local decay slope falls to the
    midpoint between its initial value and the tail rate."""
    t, p = series.t, series.p
    slope = -np.gradient(np.log(np.clip(p, 1e-300, None)), t)
    start = slope[1]
    target = 0.5 * (start + late_rate)
    below = np.nonzero(slope[2:] < target)[0]
    if len(below) == 0:
        return {"t_end": None, "drop": None}
    i = below[0] + 2
    return {"t_end": float(t[i]), "drop": float(1.0 - p[i])}


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------


def _resolve_chain(config: RunConfig) -> tuple[ChainSpec, float]:
    if config.chain is not None:
        chain = replace(config.chain, rng_seed=config.seed)
        t_ext = 12.0
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


def _member_pipeline(
    chain: ChainSpec,
    params: PhysParams,
    method: str,
    t_max: float,
    grid_cfg: GridConfig,
    workers: int,
    free_space: bool,
) -> MemberRun:
    """Trajectory, series and emission record for a single disorder member."""
    array = build_chain(chain, params)
    psi0 = dicke_initial_state(array, params)
    counts = chain.counts()
    gamma_c = collective_rate(counts["n_center"], params)
    gamma_m = collective_rate(max(counts["n_left"], counts["n_right"]), params)
    gamma_fast = max(gamma_c, gamma_m)

    ham = effective_hamiltonian(array, params)
    if free_space:
        ham = add_free_space_coupling(ham, array, params)
    partition = decay_partition(ham, array, params)
    t_grid = default_time_grid(gamma_fast, t_max)

    retarded = method == "spectral"
    span = grid_cfg.span_factor
    if span is None:
        span = SPAN_FACTOR_RETARDED if retarded else SPAN_FACTOR_RESONANT
    grid = build_grid(
        params,
        ScenarioScales(gamma_c=gamma_c, gamma_m=gamma_m),
        t_max,
        span_factor=span,
        apod_fraction=grid_cfg.apod_fraction,
    )
    timings: dict[str, float] = {}
    tic = time.perf_counter()
    slices = resolvent_sweep(array, params, psi0, grid, retarded=retarded, workers=workers)
    timings["resolvent_sweep"] = time.perf_counter() - tic

    tic = time.perf_counter()
    spectrum_right = emission_spectrum(slices, array, params, +1)
    spectrum_left = emission_spectrum(slices, array, params, -1)
    timings["emission_spectra"] = time.perf_counter() - tic

    tic = time.perf_counter()
    if retarded:
        trajectory = time_domain(slices, t_grid)
        total = spectrum_right.weight + spectrum_left.weight
        centroid = 0.0
        if total > 0:
            centroid = (
                spectrum_right.centroid() * spectrum_right.weight
                + spectrum_left.centroid() * spectrum_left.weight
            ) / total
        k_flux = params.k_wg + centroid / params.v_g
    else:
        trajectory = evolve_markovian(ham, psi0, t_grid)
        k_flux = None
    timings["evolution"] = time.perf_counter() - tic

    series = probabilities(trajectory, psi0, array, partition, k_flux=k_flux)

    tic = time.perf_counter()
    tau = default_tau_grid(t_max)
    profile_right = spatial_profile(spectrum_right, tau)
    profile_left = spatial_profile(spectrum_left, tau)
    ledger = energy_ledger(
        series, spectrum_right.weight, spectrum_left.weight, retarded=retarded
    )
    timings["profiles_ledger"] = time.perf_counter() - tic

    record = EmissionRecord(
        spectrum_right=spectrum_right,
        spectrum_left=spectrum_left,
        profile_right=profile_right,
        profile_left=profile_left,
        ledger=ledger,
    )
    overlap = superradiant_overlap(ham, psi0)
    return MemberRun(array, series, record, overlap, timings, grid, slices.residual_max)


def _average_series(members: list[ProbabilitySeries]) -> ProbabilitySeries:
    return ProbabilitySeries(
        t=members[0].t,
        p=np.mean([m.p for m in members], axis=0),
        p0=np.mean([m.p0 for m in members], axis=0),
        pa=np.mean([m.pa for m in members], axis=0),
        e_left=np.mean([m.e_left for m in members], axis=0),
        e_right=np.mean([m.e_right for m in members], axis=0),
        e_raman=np.mean([m.e_raman for m in members], axis=0),
        e_ext=np.mean([m.e_ext for m in members], axis=0),
    )


def _chain_echo(chain: ChainSpec) -> dict:
    return {
        "gap_d0": chain.gap_d0,
        "rng_seed": chain.rng_seed,
        "segments": [
            {
                "role": seg.role.value,
                "count": seg.count,
                "spacing": seg.spacing,
                "disorder_density": None if seg.disorder is None else seg.disorder.density,
            }
            for seg in chain.segments
        ],
    }


def run(config: RunConfig) -> RunResult:
    """Execute one configured run and write its artifacts.

    Returns the summary plus the in-memory series/emission record; with
    ensemble > 1 the member series and profiles are averaged in seed order.
    """
    wall_start = time.perf_counter()
    chain, t_ext_default = _resolve_chain(config)
    params = config.params
    regime = classify_regime(chain, params)
    method = config.method
    if method == "auto":
        method = "markovian" if regime.markovian else "spectral"
    if config.free_space and method == "spectral":
        raise ConfigError(
            "the free-space dipole-dipole correction is resonant-only; "
            "use the markovian method"
        )
    t_max = config.t_max
    if t_max is None:
        t_max = t_ext_default / params.gamma_ext

    member_seeds = [chain.rng_seed + i for i in range(config.ensemble)]
    members = []
    for member_seed in member_seeds:
        member_chain = replace(chain, rng_seed=member_seed)
        members.append(
            _member_pipeline(
                member_chain, params, method, t_max, config.grid,
                config.workers, config.free_space,
            )
        )
    first = members[0]
    series = _average_series([m.series for m in members])
    record = first.record
    if config.ensemble > 1:
        # intensities and weights average member by member, and the captures
        # follow from the averages; the complex spectra kept in the record
        # are the first realisation's
        ledgers = [m.record.ledger for m in members]
        record.ledger = energy_ledger(
            series,
            float(np.mean([l.p_right for l in ledgers])),
            float(np.mean([l.p_left for l in ledgers])),
            retarded=method == "spectral",
        )
        tau = record.profile_right.tau
        record.profile_right = SpatialProfile.from_intensity(
            tau,
            np.mean([m.record.profile_right.alpha2 for m in members], axis=0),
            record.ledger.p_right,
        )
        record.profile_left = SpatialProfile.from_intensity(
            tau,
            np.mean([m.record.profile_left.alpha2 for m in members], axis=0),
            record.ledger.p_left,
        )
    timings = first.timings

    rates = fit_early_late(series)
    stage = fast_stage_end(series, rates["late"])
    oscillation = oscillation_fit(series, which="p0")
    jc_fit = None
    if oscillation is not None:
        jc_fit = fit_jc_trace(series.t, series.p0)
    if jc_fit is not None and regime.numbers.get("kappa") is not None:
        regime.numbers["g_c"] = jc_fit.g
        regime.strong_coupling = jc_fit.g > 0.25 * jc_fit.kappa

    timings["total"] = time.perf_counter() - wall_start
    summary = RunSummary(
        {
            "format_version": FORMAT_VERSION,
            "config": {
                "scenario": config.scenario,
                "chain": _chain_echo(chain),
                "params": params.as_dict(),
                "method": method,
                "method_requested": config.method,
                "scale": config.scale,
                "t_max": t_max,
                "seed": config.seed,
                "ensemble": config.ensemble,
                "member_seeds": member_seeds,
                "workers": config.workers,
                "grid": {
                    "span_factor": config.grid.span_factor,
                    "apod_fraction": config.grid.apod_fraction,
                },
                "free_space": config.free_space,
            },
            "regime": regime.as_dict(),
            "rates": rates,
            "fast_stage": stage,
            "superradiant_overlap": first.overlap,
            "oscillation": None
            if oscillation is None
            else {"frequency": oscillation.frequency, "contrast": oscillation.contrast},
            "jc_fit": None
            if jc_fit is None
            else {
                "g": jc_fit.g,
                "kappa": jc_fit.kappa,
                "envelope_rate": jc_fit.envelope_rate,
                "frequency": jc_fit.frequency,
            },
            "ledger": record.ledger.as_dict(),
            "converged": record.ledger.converged,
            "grid": {
                "n_points": first.grid.n_points,
                "spacing": first.grid.spacing,
                "alias_window": first.grid.alias_window,
            },
            "residual_max": max(m.residual_max for m in members),
            "profiles": {
                name: {"captured": profile.captured, "covers_support": profile.covers_support}
                for name, profile in (
                    ("right", record.profile_right),
                    ("left", record.profile_left),
                )
            },
            "timings": timings,
        }
    )
    result = RunResult(summary=summary, series=series, record=record, regime=regime)
    if config.out_dir is not None:
        _write_artifacts(result, first.array, Path(config.out_dir))
    return result


def _write_artifacts(result: RunResult, array, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    result.series.to_csv(out_dir / "probabilities.csv")
    with open(out_dir / "profiles.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z_over_vg_per_gamma", "alpha2_left", "alpha2_right"])
        rec = result.record
        for tau, left, right in zip(
            rec.profile_left.tau, rec.profile_left.alpha2, rec.profile_right.alpha2
        ):
            writer.writerow([repr(float(tau)), repr(float(left)), repr(float(right))])
    array.to_csv(out_dir / "positions.csv")
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
                if current not in ("run", "params", "chain", "grid"):
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
    "free_space": lambda s: s.lower() in ("1", "true", "yes"),
}
_PARAM_KEYS = {"gamma": float, "beta": float, "gamma_ext": float, "v_g": float,
               "lambda_wg": float, "lambda0": float}
_CHAIN_KEYS = {"n_left": int, "n_center": int, "n_right": int, "gap_d0": float,
               "spacing": float, "left_disorder_density": float,
               "right_disorder_density": float}
_GRID_KEYS = {"span_factor": float, "apod_fraction": float}


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
    grid_raw = _convert("grid", _GRID_KEYS, sections.get("grid", {}), path)

    params = PhysParams(**par_raw)
    chain = None
    if chain_raw:
        if "n_center" not in chain_raw:
            raise ConfigFileError(f"{path}: [chain] section needs n_center")
        left_dis = chain_raw.get("left_disorder_density")
        right_dis = chain_raw.get("right_disorder_density")
        chain = ChainSpec.three_segment(
            chain_raw.get("n_left", 0),
            chain_raw["n_center"],
            chain_raw.get("n_right", 0),
            gap_d0=chain_raw.get("gap_d0", 0.5 * params.lambda_wg),
            spacing=chain_raw.get("spacing"),
            left_disorder=None if left_dis is None else DisorderSpec(left_dis),
            right_disorder=None if right_dis is None else DisorderSpec(right_dis),
            rng_seed=run_raw.get("seed", 0),
        )
    grid = GridConfig(
        span_factor=grid_raw.get("span_factor"),
        apod_fraction=grid_raw.get("apod_fraction", 0.1),
    )
    return RunConfig(
        scenario=run_raw.get("scenario"),
        chain=chain,
        params=params,
        method=run_raw.get("method", "auto"),
        scale=run_raw.get("scale", 1.0),
        t_max=run_raw.get("t_max"),
        seed=run_raw.get("seed", 0),
        ensemble=run_raw.get("ensemble", 1),
        workers=run_raw.get("workers", 1),
        out_dir=run_raw.get("out"),
        grid=grid,
        free_space=run_raw.get("free_space", False),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgqed",
        description="Collective-emission scenarios for a waveguide-coupled atom chain",
    )
    parser.add_argument("--scenario", choices=sorted(SCENARIOS), help="named geometry")
    parser.add_argument("--config", help="key-value config file (see docs/config.md)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply all segment counts (min 1 atom per segment)")
    parser.add_argument("--method", choices=["auto", "markovian", "spectral"], default="auto")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ensemble", type=int, default=1,
                        help="number of disorder realisations to average")
    parser.add_argument("--out", help="artifact directory")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--t-max", type=float, dest="t_max")
    parser.add_argument("--span-factor", type=float, dest="span_factor")
    parser.add_argument("--free-space", action="store_true",
                        help="enable the optional free-space dipole-dipole term "
                             "(resonant method only; the ledger still tracks the "
                             "waveguide channels, so its imbalance reports the "
                             "free-space interference loss)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            config = config_from_file(args.config)
            overrides = {}
            if args.scenario is not None:
                overrides["scenario"] = args.scenario
                overrides["chain"] = None
            if args.out is not None:
                overrides["out_dir"] = args.out
            if overrides:
                config = replace(config, **overrides)
        else:
            if args.scenario is None:
                parser.error("one of --scenario or --config is required")
            config = RunConfig(
                scenario=args.scenario,
                scale=args.scale,
                method=args.method,
                seed=args.seed,
                ensemble=args.ensemble,
                out_dir=args.out,
                workers=args.workers,
                t_max=args.t_max,
                grid=GridConfig(span_factor=args.span_factor),
                free_space=args.free_space,
            )
        result = run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ledger = result.record.ledger
    print(
        f"method={result.summary.data['config']['method']} "
        f"P_left={ledger.p_left:.4f} P_right={ledger.p_right:.4f} "
        f"P_ext={ledger.p_ext:.4f} residual={ledger.residual:.2e} "
        f"converged={ledger.converged}"
    )
    if config.out_dir is not None:
        print(f"artifacts written to {config.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

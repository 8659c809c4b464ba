"""Closed-form reference models and regime classification.

Contains the damped vacuum-Rabi population of a two-level emitter coupled to
a leaky cavity mode, the narrow-band Lorentzian reflectance of an atomic
Bragg mirror, an exact transfer-matrix cascade for finite mirrors, the cavity
loss estimate kappa = (1 - R) v_g / L, and the Markovian/cavity condition
checks used to pick the simulation method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import curve_fit

from .model import AtomArray, ChainSpec, PhysParams, SegmentRole, build_chain

# Relative distance from the critical point kappa^2 = 16 g^2 below which the
# removable-singularity expansion replaces the closed form.
DEGENERATE_TOL = 1e-8

# Threshold operationalising "mirror response much faster than the emitter".
DOMINANCE_RATIO = 2.0

# "Retardation negligible" cut for the Markovian flag.
MARKOVIAN_RATIO = 0.1


@dataclass(frozen=True)
class JCParams:
    """Atom-cavity coupling g and cavity leakage kappa, in units of gamma.

    n_atoms, when given, rescales the coupling to the collective value
    g_C = sqrt(N) g.
    """

    g: float
    kappa: float
    n_atoms: Optional[int] = None

    def __post_init__(self):
        if self.g < 0:
            raise ValueError(f"g must be >= 0, got {self.g}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")

    @property
    def g_effective(self) -> float:
        if self.n_atoms is None:
            return self.g
        return math.sqrt(self.n_atoms) * self.g


def jc_population(params: JCParams, t) -> np.ndarray:
    """Upper-state population of the damped vacuum-Rabi problem.

    Equivalent to |alpha(t)|^2 for the amplitude pair
        alpha' = -i g beta,   beta' = -i g alpha - (kappa/2) beta,
    alpha(0) = 1.  Above the critical point g > kappa/4 the population
    oscillates at angular frequency sqrt(16 g^2 - kappa^2) / 2; at the
    critical point the closed form is a removable 0/0 and the exact limit
        p = e^{-kappa t / 2} [1 + kappa t / 2 + (kappa^2/4 - 2 g^2) t^2 / 2]
    is used instead.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be non-negative")
    g = params.g_effective
    kappa = params.kappa
    if g == 0.0:
        return np.ones_like(t)
    disc = kappa**2 - 16.0 * g**2
    if abs(disc) <= DEGENERATE_TOL * kappa**2:
        quad = 0.25 * kappa**2 - 2.0 * g**2
        return np.exp(-0.5 * kappa * t) * (1.0 + 0.5 * kappa * t + 0.5 * quad * t**2)
    s = np.sqrt(complex(disc))
    c_plus = 0.25 * kappa**2 - 2.0 * g**2 + 0.25 * kappa * s
    c_minus = 0.25 * kappa**2 - 2.0 * g**2 - 0.25 * kappa * s
    bracket = (
        -4.0 * g**2
        + c_plus * np.exp(0.5 * s * t)
        + c_minus * np.exp(-0.5 * s * t)
    )
    p = 2.0 * np.exp(-0.5 * kappa * t) * bracket / disc
    return np.real(p)


def jc_frequency(g: float, kappa: float) -> float:
    """Angular frequency of the population oscillation; 0 below threshold."""
    disc = 16.0 * g**2 - kappa**2
    if disc <= 0:
        return 0.0
    return 0.5 * math.sqrt(disc)


def mirror_reflectance_lorentzian(gamma_m: float, delta) -> np.ndarray:
    """Narrow-band Bragg reflectance (Gamma_M/2)^2 / (delta^2 + (Gamma_M/2)^2)."""
    if not gamma_m > 0:
        raise ValueError("gamma_m must be positive")
    delta = np.asarray(delta, dtype=float)
    half = 0.5 * gamma_m
    return half**2 / (delta**2 + half**2)


def _mirror_positions(mirror, params: PhysParams) -> np.ndarray:
    if isinstance(mirror, AtomArray):
        return mirror.positions
    pos = np.asarray(mirror, dtype=float)
    if pos.ndim != 1 or len(pos) == 0:
        raise ValueError("mirror must be a non-empty 1-d position array")
    return pos


def transfer_matrix_reflectance(mirror, params: PhysParams, delta):
    """Complex (r, t) of a finite atomic mirror, referenced to the first atom.

    Each atom scatters the guided wave with  r1 = -(Gamma_wg/2)/(Gamma_tot/2 - i delta),
    t1 = 1 + r1 (only the coherent channel reflects; Raman and external losses
    make the cascade sub-unitary), and free propagation between atoms adds the
    phases e^{i k(delta) dz} with k(delta) = k_wg + delta / v_g.
    """
    positions = _mirror_positions(mirror, params)
    delta_arr = np.atleast_1d(np.asarray(delta, dtype=float))
    r1 = -(0.5 * params.gamma_wg) / (0.5 * params.gamma_tot - 1j * delta_arr)
    t1 = 1.0 + r1
    m_atom = np.empty((len(delta_arr), 2, 2), dtype=complex)
    m_atom[:, 0, 0] = (t1**2 - r1**2) / t1
    m_atom[:, 0, 1] = r1 / t1
    m_atom[:, 1, 0] = -r1 / t1
    m_atom[:, 1, 1] = 1.0 / t1

    total = m_atom.copy()
    k = params.k_wg + delta_arr / params.v_g
    for dz in np.diff(positions):
        prop = np.zeros((len(delta_arr), 2, 2), dtype=complex)
        prop[:, 0, 0] = np.exp(1j * k * dz)
        prop[:, 1, 1] = np.exp(-1j * k * dz)
        total = m_atom @ prop @ total
    r = -total[:, 1, 0] / total[:, 1, 1]
    t = 1.0 / total[:, 1, 1]
    if np.isscalar(delta) or np.ndim(delta) == 0:
        return complex(r[0]), complex(t[0])
    return r, t


def kappa_estimate(reflectance: float, length: float, v_g: float) -> float:
    """Cavity loss rate (1 - R) v_g / L."""
    if not 0.0 <= reflectance <= 1.0:
        raise ValueError("reflectance must lie in [0, 1]")
    if not length > 0:
        raise ValueError("cavity length must be positive")
    return (1.0 - reflectance) * v_g / length


def collective_rate(n_atoms: int, params: PhysParams) -> float:
    """Total decay rate of the half-wave superradiant mode of n atoms."""
    if n_atoms < 1:
        return 0.0
    return params.gamma_ext + params.gamma_1d + (n_atoms - 1) * params.gamma_wg


@dataclass
class RegimeReport:
    """Markovian/cavity condition checks plus the numbers behind them.

    Flags are None where not applicable (e.g. cavity conditions without two
    mirrors).  strong_coupling stays None until an oscillation fit supplies
    g_C; the classifier never predicts it from first principles.
    """

    markovian: Optional[bool]
    cavity_retardation: Optional[bool]
    coherence_fit: Optional[bool]
    mirror_dominance: Optional[bool]
    strong_coupling: Optional[bool]
    numbers: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "markovian": self.markovian,
            "cavity_retardation": self.cavity_retardation,
            "coherence_fit": self.coherence_fit,
            "mirror_dominance": self.mirror_dominance,
            "strong_coupling": self.strong_coupling,
            "numbers": {k: v for k, v in self.numbers.items()},
        }


def classify_regime(chain: ChainSpec, params: PhysParams) -> RegimeReport:
    """Evaluate the Markovian and cavity conditions for a chain layout.

    Gamma_C and Gamma_M are the collective rates of the emitter and of the
    larger mirror; the Markovian check compares the full-array transit time
    with the mirror response, the cavity checks use the inner mirror-to-mirror
    distance; kappa uses the finite-mirror transfer-matrix reflectance at
    resonance rather than the idealised 1.
    """
    array = build_chain(chain, params)
    counts = chain.counts()
    n_c = counts["n_center"]
    mirror_counts = [n for n in (counts["n_left"], counts["n_right"]) if n > 0]
    gamma_c = collective_rate(n_c, params)
    gamma_m = collective_rate(max(mirror_counts), params) if mirror_counts else 0.0

    l_full = float(array.positions[-1] - array.positions[0])
    numbers = {
        "gamma_c": gamma_c,
        "gamma_m": gamma_m,
        "coherence_time_emitter": 1.0 / gamma_c,
        "response_time_mirror": 1.0 / gamma_m if gamma_m > 0 else None,
        "l_full_over_vg": l_full / params.v_g,
        "l_over_vg": None,
        "kappa": None,
        "g_c": None,
        "dominance_ratio": gamma_m / gamma_c if gamma_m > 0 else None,
        "mirror_reflectance_resonant": None,
    }

    markovian: Optional[bool] = None
    if gamma_m > 0:
        markovian = l_full / params.v_g < MARKOVIAN_RATIO / gamma_m
    else:
        markovian = True  # bare emitter: nothing to reflect off

    cavity_retardation = coherence_fit = None
    roles = [seg.role for seg in chain.segments if seg.count > 0]
    two_sided = SegmentRole.LEFT_MIRROR in roles and SegmentRole.RIGHT_MIRROR in roles
    if two_sided:
        left_stop = np.max(np.nonzero([r is SegmentRole.LEFT_MIRROR for r in array.roles]))
        right_start = np.min(np.nonzero([r is SegmentRole.RIGHT_MIRROR for r in array.roles]))
        l_cavity = float(array.positions[right_start] - array.positions[left_stop])
        numbers["l_over_vg"] = l_cavity / params.v_g
        refl = []
        for role in (SegmentRole.LEFT_MIRROR, SegmentRole.RIGHT_MIRROR):
            sel = [i for i, r in enumerate(array.roles) if r is role]
            r_amp, _ = transfer_matrix_reflectance(
                array.positions[sel], params, 0.0
            )
            refl.append(abs(r_amp) ** 2)
        r_mean = float(np.mean(refl))
        numbers["mirror_reflectance_resonant"] = r_mean
        numbers["kappa"] = kappa_estimate(r_mean, l_cavity, params.v_g)
        cavity_retardation = l_cavity / params.v_g > 1.0 / gamma_m
        coherence_fit = l_cavity / params.v_g < 1.0 / gamma_c

    mirror_dominance = None
    if gamma_m > 0:
        mirror_dominance = gamma_m / gamma_c >= DOMINANCE_RATIO

    return RegimeReport(
        markovian=markovian,
        cavity_retardation=cavity_retardation,
        coherence_fit=coherence_fit,
        mirror_dominance=mirror_dominance,
        strong_coupling=None,
        numbers=numbers,
    )


def extrema(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the strict interior local maxima and minima of y."""
    inner = np.arange(1, len(y) - 1)
    maxima = inner[(y[inner] > y[inner - 1]) & (y[inner] > y[inner + 1])]
    minima = inner[(y[inner] < y[inner - 1]) & (y[inner] < y[inner + 1])]
    return maxima, minima


@dataclass
class JCFit:
    g: float
    kappa: float
    envelope_rate: float
    frequency: float
    residual: float


def fit_jc_trace(t: np.ndarray, p: np.ndarray) -> Optional[JCFit]:
    """Least-squares fit of p(t) ~ e^{-gamma_e t} jc_population(g, kappa; t).

    The extra envelope rate absorbs the non-cavity losses of the physical
    emitter (external and Raman channels) that the two-parameter cavity model
    does not contain.  Returns None when no oscillation is present or the fit
    does not converge.
    """
    t = np.asarray(t, dtype=float)
    p = np.asarray(p, dtype=float)
    maxima, minima = extrema(p)
    turning = np.sort(np.concatenate([maxima, minima]))
    if len(turning) < 2:
        return None
    gaps = np.diff(t[turning])
    omega0 = math.pi / float(np.mean(gaps))
    if len(maxima) >= 2 and p[maxima[-1]] > 0 and p[maxima[0]] > 0:
        env = math.log(p[maxima[0]] / p[maxima[-1]]) / (t[maxima[-1]] - t[maxima[0]])
        env = max(env, 1e-3)
    else:
        env = 1.0
    kappa0 = env
    g0 = 0.25 * math.sqrt(4.0 * omega0**2 + kappa0**2)

    def model(tt, gamma_e, g, kappa):
        return np.exp(-gamma_e * tt) * jc_population(JCParams(g, kappa), tt)

    try:
        popt, _ = curve_fit(
            model,
            t,
            p,
            p0=[0.5 * env, g0, kappa0],
            bounds=([0.0, 1e-6, 1e-6], [20.0, 50.0, 50.0]),
            maxfev=20000,
        )
    except (RuntimeError, ValueError):
        return None
    gamma_e, g, kappa = popt
    resid = float(np.sqrt(np.mean((model(t, *popt) - p) ** 2)))
    return JCFit(
        g=float(g),
        kappa=float(kappa),
        envelope_rate=float(gamma_e),
        frequency=jc_frequency(float(g), float(kappa)),
        residual=resid,
    )

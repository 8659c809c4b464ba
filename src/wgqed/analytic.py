"""Closed-form reference models and regime classification.

Contains the damped vacuum-Rabi population of a two-level emitter coupled to
a leaky cavity mode, the narrow-band Lorentzian reflectance of an atomic
Bragg mirror, the exact reflection and transmission of finite mirrors, the
cavity loss estimate kappa = (1 - R) v_g / L, and the Markovian/cavity condition
checks used to pick the simulation method.  A run's cavity numbers (g, kappa,
gamma_e) are the closed form of the two-loss model on the doublet of the poles
of its Dicke amplitude (jc_model), which on the sweep route a matrix-pencil
harmonic inversion of sampled a0 finds (fit_jc_trace).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .dynamics import pole_sums
from .model import ChainSpec, PhysParams, build_chain
from .spectral import scattering_sweep

# Threshold operationalising "mirror response much faster than the emitter".
DOMINANCE_RATIO = 2.0

# "Retardation negligible" cut for the Markovian flag.
MARKOVIAN_RATIO = 0.1

# Singular values of the Hankel matrix below PENCIL_CUT of the largest are
# noise: they set the number of poles harmonic_inversion keeps.
PENCIL_CUT = 1e-10


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

    |alpha(t)|^2 for the amplitude pair
        alpha' = -i g beta,   beta' = -i g alpha - (kappa/2) beta,
    alpha(0) = 1, whose solution is
        alpha = e^{-kappa t/4} [cosh(z) + (kappa t/4) sinh(z)/z],   z = s t/4,
    with s = sqrt(kappa^2 - 16 g^2).  Above the critical point g > kappa/4, s
    is imaginary and the population oscillates at angular frequency
    sqrt(16 g^2 - kappa^2) / 2.  sinh(z)/z is 1 at z = 0, so the critical
    point and a vanishing s need no special form.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be non-negative")
    g = params.g_effective
    kappa = params.kappa
    if g == 0.0:
        return np.ones_like(t)
    z = 0.25 * np.sqrt(complex(kappa**2 - 16.0 * g**2)) * t
    sinhc = np.sinc(1j * z / math.pi)  # sin(i z)/(i z) = sinh(z)/z
    alpha = np.exp(-0.25 * kappa * t) * (np.cosh(z) + 0.25 * kappa * t * sinhc)
    return alpha.real**2 + alpha.imag**2


def mirror_reflectance_lorentzian(gamma_m: float, delta) -> np.ndarray:
    """Narrow-band Bragg reflectance (Gamma_M/2)^2 / (delta^2 + (Gamma_M/2)^2)."""
    if not gamma_m > 0:
        raise ValueError("gamma_m must be positive")
    delta = np.asarray(delta, dtype=float)
    half = 0.5 * gamma_m
    return half**2 / (delta**2 + half**2)


def _mirror_positions(mirror) -> np.ndarray:
    pos = np.asarray(mirror, dtype=float)
    if pos.ndim != 1 or len(pos) == 0:
        raise ValueError("mirror must be a non-empty 1-d position array")
    return pos


def transfer_matrix_reflectance(mirror, params: PhysParams, delta):
    """Complex (r, t) of a finite atomic mirror, referenced to the first atom.

    A single atom reflects the guided wave with r1 = -(Gamma_wg/2)/(Gamma_tot/2 - i delta)
    (only the coherent channel reflects; Raman and external losses make the
    mirror sub-unitary), and free propagation between atoms adds the phases
    e^{i k(delta) dz} with k(delta) from PhysParams.k_of.  The passive
    scattering recursion of the resolvent sweep (spectral.scattering_sweep),
    run at those k(delta) with no source from the last atom to the first,
    gives r as the reflection of the whole mirror, and t as the product of
    the per-atom transmissions 1 - gain_a and the gap phases.
    """
    positions = _mirror_positions(mirror)
    delta_arr = np.atleast_1d(np.asarray(delta, dtype=float))
    k = params.k_of(delta_arr)
    distinct, row, gain, _, r = scattering_sweep(positions[::-1], params, delta_arr, k)
    t = np.prod(1.0 - gain, axis=0) * np.prod(distinct[row], axis=0)
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
    mirrors).  strong_coupling stays None until the cavity model of the run's
    Dicke amplitude (jc_model) supplies g_C; the classifier never predicts it
    from first principles.
    """

    markovian: Optional[bool]
    cavity_retardation: Optional[bool]
    coherence_fit: Optional[bool]
    mirror_dominance: Optional[bool]
    strong_coupling: Optional[bool]
    numbers: dict = field(default_factory=dict)


def classify_regime(chain: ChainSpec, params: PhysParams) -> RegimeReport:
    """Evaluate the Markovian and cavity conditions for a chain layout.

    Gamma_C and Gamma_M are the collective rates of the emitter and of the
    larger mirror; the Markovian check compares the full-array transit time
    with the mirror response, the cavity checks use the inner mirror-to-mirror
    distance; kappa uses the exact finite-mirror reflectance at
    resonance rather than the idealised 1.
    """
    array = build_chain(chain)
    z = array.positions
    n_mirror = max(chain.n_left, chain.n_right)
    gamma_c = collective_rate(chain.n_center, params)
    gamma_m = collective_rate(n_mirror, params) if n_mirror else 0.0

    l_full = float(z[-1] - z[0])
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
    if chain.n_left and chain.n_right:
        left, right = z[: array.emitter_start], z[array.emitter_stop :]
        l_cavity = float(right[0] - left[-1])
        numbers["l_over_vg"] = l_cavity / params.v_g
        refl = [
            abs(transfer_matrix_reflectance(mirror, params, 0.0)[0]) ** 2
            for mirror in (left, right)
        ]
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


def harmonic_inversion(t: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Poles lam_k and amplitudes A_k of y(t) = sum_k A_k e^{-i lam_k t}, and
    the rms of that sum against y, from samples on uniform times.

    The matrix pencil of Hua and Sarkar (IEEE Trans. ASSP 38, 814, 1990): the
    rows of the Hankel matrix y[i + j] span the powers z_k^j of
    z_k = e^{-i lam_k dt}, so its right singular vectors above PENCIL_CUT,
    shifted by one row, have the z_k as eigenvalues.  The amplitudes are then
    linear least squares.  A pole is resolved within |Re lam| < pi/dt.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=complex)
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt, rtol=1e-9, atol=0.0):
        raise ValueError("harmonic inversion needs uniformly spaced times")
    hankel = np.lib.stride_tricks.sliding_window_view(y, len(y) // 2 + 1)
    _, sv, vh = np.linalg.svd(hankel, full_matrices=False)
    rows = vh[sv > PENCIL_CUT * sv[0]].T
    z = np.linalg.eigvals(np.linalg.lstsq(rows[:-1], rows[1:], rcond=None)[0])
    poles = 1j * np.log(z) / dt
    basis = np.exp(-1j * np.outer(t, poles))
    amps = np.linalg.lstsq(basis, y, rcond=None)[0]
    return poles, amps, float(np.sqrt(np.mean(np.abs(basis @ amps - y) ** 2)))


@dataclass
class JCFit:
    """The two-loss cavity model of a Dicke amplitude, in units of gamma.

    a' = -(gamma_e/2) a - i g c,  c' = -(kappa/2) c - i g a,  a(0) = 1: an
    emitter losing gamma_e outside the cavity, coupled with g to a cavity mode
    that leaks kappa (Chang, Jiang, Gorshkov and Kimble, New J. Phys. 14,
    063003, 2012, for a cavity of atomic mirrors).  frequency is the vacuum-
    Rabi splitting Omega of its doublet.
    """

    g: float
    kappa: float
    gamma_e: float
    frequency: float
    residual: float  # sum of |A| off the doublet, or from samples rms(|doublet|^2 - |a0|^2)
    pole_rms: Optional[float] = None  # rms of a fitted pole sum against a0


def _doublet(poles: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Indices of the two poles of largest |A|, the higher Re(lam) first."""
    pair = np.argsort(-np.abs(amps))[:2]
    return pair[np.argsort(-poles[pair].real)]


def jc_model(poles: np.ndarray, amps: np.ndarray) -> Optional[JCFit]:
    """The two-loss model of the doublet of a0(t) = sum_j A_j e^{-i lam_j t}.

    The doublet is the two poles of largest |A|.  The model has the poles
    lam_+/- = +/-Omega/2 - i (gamma_e + kappa)/4 and the amplitudes
    (1 +/- i r)/2 with r = (kappa - gamma_e)/(2 Omega), so
    Omega = Re(lam_+ - lam_-), gamma_e + kappa = -2 Im(lam_+ + lam_-),
    kappa - gamma_e = 2 Omega tan(arg(A_+/A_-)/2) and
    g^2 = Omega^2/4 + (kappa - gamma_e)^2/16.  Every pole decays, so the
    residual sum_{j off the pair} |A_j| bounds |a0 - doublet| at every t >= 0.
    Returns None for fewer than two poles or a doublet that does not split.
    """
    if len(poles) < 2:
        return None
    pair = _doublet(poles, amps)
    (lam_p, lam_m), (amp_p, amp_m) = poles[pair], amps[pair]
    omega = float((lam_p - lam_m).real)
    if not omega > 0:
        return None
    total = float(-2.0 * (lam_p + lam_m).imag)
    diff = 2.0 * omega * math.tan(0.5 * np.angle(amp_p / amp_m))
    return JCFit(
        g=math.sqrt(0.25 * omega**2 + diff**2 / 16.0),
        kappa=0.5 * (total + diff),
        gamma_e=0.5 * (total - diff),
        frequency=omega,
        residual=float(np.sum(np.abs(np.delete(amps, pair)))),
    )


def fit_jc_trace(t: np.ndarray, a0: np.ndarray) -> Optional[JCFit]:
    """jc_model of harmonic_inversion's poles of a0 on uniform t, with the samples' residual."""
    poles, amps, pole_rms = harmonic_inversion(t, a0)
    fit, pair = jc_model(poles, amps), _doublet(poles, amps)
    doublet = pole_sums(poles[pair], amps[pair], t)[:, 0]
    rms = float(np.sqrt(np.mean((np.abs(doublet) ** 2 - np.abs(a0) ** 2) ** 2)))
    return None if fit is None else replace(fit, residual=rms, pole_rms=pole_rms)

"""Outgoing guided-photon spectra, spatial pulse profiles, and energy ledger.

The directional emission amplitude is the scalar-channel Moller matrix element

    M_+ (delta) = sqrt(Gamma_wg / 2) sum_a e^{i k(delta) (z_N - z_a)} x_a(delta)
    M_- (delta) = sqrt(Gamma_wg / 2) sum_a e^{i k(delta) (z_a - z_1)} x_a(delta)

(+ propagates to the right, - to the left): the guided field leaving the
chain past its last atom, or past its first.  Its weight integrates to the
probability emitted through the coherent guided channel in that direction,
and the profile against the retarded coordinate tau = z / v_g, counted from
that end, is its Fourier transform, normalised so that the tau-integral
returns the same weight.

A resolvent sweep returns both fields on the detuning grid
(ResolventSet.outgoing), so a swept M is read off, not summed over the atoms.
Its leading term, sum_a e^{ik(z_N - z_a)} psi0_a / (delta - lam0), is the set
of pulse fronts: delayed steps -i e^{-i lam0 (tau - tau_a)} theta(tau - tau_a)
with tau_a = (z_N - z_a) / v_g.  The profile and outflow transforms subtract
it and its next order (delayed ramps, see spectral.DelayedTerms) on the grid
and add both back exactly, so the fronts are sharp and only a remainder of
O(1/delta^3) feels the finite span.  The fronts are the sweep's ramps
carried to the chain end: each atom's terms weighted by its phase
e^{ik_wg(z_N - z_a)} and delayed by its travel time (DelayedTerms.projected),
the same projection that gives the Dicke row.
A modal expansion of the resonant H gives M in closed form,
M(delta) = sum_j A_j / (delta - lambda_j), and with it the exact weight and
profile (see PoleSpectrum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .dynamics import ModalExpansion, ProbabilitySeries, pole_sums
from .model import AtomArray, PhysParams
from .spectral import DelayedTerms, ResolventSet, SpectralGrid

CAPTURE_THRESHOLD = 0.99


@dataclass
class DirectionalSpectrum:
    """Complex M(delta) sampled on the grid, for one direction; lead is the
    part of it whose exact transform is fronts."""

    grid: SpectralGrid
    values: np.ndarray
    weight: float  # integral |M|^2 d delta / 2 pi
    lead: np.ndarray
    fronts: DelayedTerms

    @property
    def deltas(self) -> np.ndarray:
        return self.grid.deltas

    def amplitude(self, tau: np.ndarray) -> np.ndarray:
        """alpha(tau) = (1 / 2 pi) int d delta M(delta) e^{-i delta tau} (see
        sampled_amplitudes)."""
        return sampled_amplitudes([self], tau)[:, 0]


def sampled_amplitudes(spectra: list[DirectionalSpectrum], tau: np.ndarray) -> np.ndarray:
    """alpha(tau) of sampled spectra on one grid, one column each, by one
    Fourier sum (a non-uniform FFT at any tau) of M less its lead, plus the
    exact transform of the lead."""
    tau = np.asarray(tau, dtype=float)
    values = np.stack([s.values - s.lead for s in spectra], axis=1)
    alpha = spectra[0].grid.fourier_sum(values, tau)
    for i, s in enumerate(spectra):
        s.fronts.transform(tau, into=alpha[:, i : i + 1])
    alpha *= 1.0 / (2.0 * math.pi)
    return alpha


@dataclass
class PoleSpectrum:
    """M(delta) = sum_j A_j / (delta - lambda_j): residues A, poles lambda,
    every pole below the real axis.

    Closing the contours gives the weight and the profile exactly:
    weight = sum_jk A_j A_k* / (i (lambda_j - lambda_k*)), and
    alpha(tau) = -i sum_j A_j e^{-i lambda_j tau} for tau >= 0, zero before.
    M is never sampled; each amplitude is its own pole_sums call on its tau
    grid.
    """

    poles: np.ndarray
    residues: np.ndarray
    weight: float = field(init=False)  # integral |M|^2 d delta / 2 pi

    def __post_init__(self):
        self.poles = np.asarray(self.poles)
        self.residues = np.asarray(self.residues)
        gram = 1.0 / (1j * (self.poles[:, None] - np.conj(self.poles)[None, :]))
        self.weight = float(np.real(self.residues @ gram @ np.conj(self.residues)))

    @property
    def deltas(self) -> np.ndarray:
        """The detunings M is sampled on: none."""
        return np.empty(0)

    def amplitude(self, tau: np.ndarray) -> np.ndarray:
        """The causal pole sum, on from tau = 0 (the front's right limit)."""
        tau = np.asarray(tau, dtype=float)
        alpha = np.zeros(len(tau), dtype=complex)
        after = tau >= 0.0
        alpha[after] = -1j * pole_sums(self.poles, self.residues, tau[after])[:, 0]
        return alpha


Spectrum = Union[DirectionalSpectrum, PoleSpectrum]


@dataclass
class SpatialProfile:
    tau: np.ndarray  # z in units of v_g / gamma (retarded coordinate)
    alpha2: np.ndarray
    captured: float  # fraction of the spectral weight inside the tau grid
    covers_support: bool

    @classmethod
    def from_intensity(cls, tau: np.ndarray, alpha2: np.ndarray, weight: float):
        """Profile whose capture is the tau-integral of alpha2 over weight.

        The integral is the midpoint rule: each sample stands for the cell
        reaching halfway to its neighbours, and the end cells extend as far
        past the end samples, so the half-offset default_tau_grid integrates
        over all of [0, t_max], the pulse front included.
        """
        first, last = 1.5 * tau[0] - 0.5 * tau[1], 1.5 * tau[-1] - 0.5 * tau[-2]
        edges = np.concatenate([[first], 0.5 * (tau[1:] + tau[:-1]), [last]])
        captured = float(alpha2 @ np.diff(edges)) / weight if weight > 0 else 1.0
        return cls(
            tau=tau,
            alpha2=alpha2,
            captured=captured,
            covers_support=captured >= CAPTURE_THRESHOLD,
        )


@dataclass
class EnergyLedger:
    p_left: float
    p_right: float
    p_raman: float
    p_ext: float
    residual: float
    balance_error: float
    guided_route_discrepancy: float
    converged: Optional[bool] = None  # cli.run's verdict, copied for perfbench/workloads.py

    def as_dict(self) -> dict:
        return {
            "P_left": self.p_left,
            "P_right": self.p_right,
            "P_raman": self.p_raman,
            "P_ext": self.p_ext,
            "residual": self.residual,
            "balance_error": self.balance_error,
            "guided_route_discrepancy": self.guided_route_discrepancy,
        }


@dataclass
class EmissionRecord:
    spectrum_right: Spectrum
    spectrum_left: Spectrum
    profile_right: SpatialProfile
    profile_left: SpatialProfile
    ledger: EnergyLedger


def emission_spectrum(
    source: Union[ResolventSet, ModalExpansion],
    array: AtomArray,
    params: PhysParams,
    direction: int,
) -> Spectrum:
    """Directional spectrum (+1 right, -1 left) from resolvent slices (either
    kernel), sampled on their grid, or from the modal expansion of a resonant
    H, in closed form with no grid (PoleSpectrum).

    Both forms read the phase P_a = e^{ik_wg L_a} of each atom's field at the
    end, L_a = z_N - z_a (right) or z_a - z_1 (left).  The pole form's
    residues are A_j = sqrt(Gamma_wg/2) (sum_a P_a V_aj) c_j.  On slices M is
    the sweep's outgoing field in that direction, with the sweep's lead in
    that direction, and the fronts are ramps projected with the weights
    sqrt(Gamma_wg/2) P_a and the delays slowness L_a.  Its weight is a plain
    trapezoid of |M|^2/2pi over the span plus its C/delta^2 tail.
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 (right) or -1 (left)")
    z = array.positions
    to_end = z[-1] - z if direction > 0 else z - z[0]
    phase = np.exp(1j * params.k_wg * to_end)
    scale = math.sqrt(0.5 * params.gamma_wg)
    if isinstance(source, ModalExpansion):
        residues = scale * (phase @ source.vecs) * source.coeffs
        return PoleSpectrum(source.evals, residues)
    deltas = source.deltas
    end = 0 if direction > 0 else 1
    values = scale * source.outgoing[:, end]
    weight = float(np.trapezoid(np.abs(values) ** 2, deltas) / (2.0 * math.pi))
    # |M|^2 falls off as C/delta^2 outside the span; complete the weight with
    # the analytic tail, estimating C from the outer five percent of each edge.
    n_edge = max(2, len(values) // 20)
    c_lo = float(np.mean(np.abs(values[:n_edge]) ** 2 * deltas[:n_edge] ** 2))
    c_hi = float(np.mean(np.abs(values[-n_edge:]) ** 2 * deltas[-n_edge:] ** 2))
    weight += (c_lo / abs(deltas[0]) + c_hi / deltas[-1]) / (2.0 * math.pi)
    return DirectionalSpectrum(
        grid=source.grid,
        values=values,
        weight=weight,
        lead=scale * source.lead[:, end],
        fronts=source.ramps.projected(scale * phase, source.slowness * to_end),
    )


def spatial_profile(spectrum: Spectrum, tau_grid: np.ndarray) -> SpatialProfile:
    """|alpha(tau)|^2 on the retarded-coordinate grid.

    The tau-integral of |alpha|^2 returns the spectral weight (Plancherel).
    From a sampled spectrum, alpha is the grid's Fourier sum of M less its
    lead, like the time synthesis, and the pulse fronts, the lead's exact
    transform, are sharp.  From a pole spectrum, alpha is exact.  Either way
    a front is causal: a step that falls on the grid takes its right limit.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    alpha = spectrum.amplitude(tau_grid)
    return SpatialProfile.from_intensity(tau_grid, np.abs(alpha) ** 2, spectrum.weight)


def default_tau_grid(t_max: float, n: int = 4096) -> np.ndarray:
    """Retarded-coordinate grid spanning (0, t_max) at half-sample offsets.

    The offset keeps the causal pulse front (a step at tau = 0) off the grid,
    and makes the samples the midpoints of n equal cells that tile
    [0, t_max], which the capture integrates by the midpoint rule.
    """
    step = t_max / n
    return step * (np.arange(n) + 0.5)


def energy_ledger(series: ProbabilitySeries, p_right: float, p_left: float) -> EnergyLedger:
    """Fill the left/right/Raman/external ledger and cross-check the routes.

    Directional weights p_right, p_left come from the spectral (asymptotic)
    route, the members' mean spectrum weights; Raman and external losses
    from the time-integrated fluxes; the residual is p at the end of the
    window.  The time route's guided totals integrate the outflow past
    the chain ends on either kernel, so they must match the spectral weights;
    their gap and the end-state balance are numbers here; cli.run gates them.
    """
    p_raman = float(series.e_raman[-1])
    p_ext = float(series.e_ext[-1])
    residual = float(series.p[-1])
    balance = abs(p_left + p_right + p_raman + p_ext + residual - 1.0)
    guided_time = float(series.e_left[-1] + series.e_right[-1])
    discrepancy = abs(guided_time - (p_left + p_right))
    return EnergyLedger(
        p_left=p_left,
        p_right=p_right,
        p_raman=p_raman,
        p_ext=p_ext,
        residual=residual,
        balance_error=balance,
        guided_route_discrepancy=discrepancy,
    )

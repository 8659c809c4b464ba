"""Outgoing guided-photon spectra, spatial pulse profiles, and energy ledger.

The directional emission amplitude on the grid is the scalar-channel Moller
matrix element

    M_+/- (delta) = sqrt(Gamma_wg / 2) sum_a e^{-/+ i k(delta) z_a} x_a(delta)

(+ propagates to the right, - to the left), with z_a measured from the chain
end the pulse leaves through (the last atom for +, the first for -).  Its
weight integrates to the probability emitted through the coherent guided
channel in that direction, and the profile against the retarded coordinate
tau = z / v_g, counted from that end, is its Fourier transform, normalised so
that the tau-integral returns the same weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import ProbabilitySeries
from .model import AtomArray, PhysParams
from .spectral import ResolventSet, SpectralGrid

CAPTURE_THRESHOLD = 0.99


@dataclass
class DirectionalSpectrum:
    """Complex M(delta) for one propagation direction (+1 right, -1 left)."""

    grid: SpectralGrid
    values: np.ndarray
    direction: int
    weight: float  # integral |M|^2 d delta / 2 pi over the grid span

    @property
    def deltas(self) -> np.ndarray:
        return self.grid.deltas

    def centroid(self) -> float:
        """|M|^2-weighted mean detuning; the flux split uses k at this point."""
        w = np.abs(self.values) ** 2
        total = w.sum()
        if total == 0.0:
            return 0.0
        return float((self.deltas * w).sum() / total)


@dataclass
class SpatialProfile:
    tau: np.ndarray  # z in units of v_g / gamma (retarded coordinate)
    alpha2: np.ndarray
    captured: float  # fraction of the spectral weight inside the tau grid
    covers_support: bool

    @classmethod
    def from_intensity(cls, tau: np.ndarray, alpha2: np.ndarray, weight: float):
        """Profile whose capture is the tau-integral of alpha2 over weight."""
        captured = float(np.trapezoid(alpha2, tau)) / weight if weight > 0 else 1.0
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
    converged: bool

    def as_dict(self) -> dict:
        return {
            "P_left": self.p_left,
            "P_right": self.p_right,
            "P_raman": self.p_raman,
            "P_ext": self.p_ext,
            "residual": self.residual,
            "balance_error": self.balance_error,
            "guided_route_discrepancy": self.guided_route_discrepancy,
            "converged": self.converged,
        }


@dataclass
class EmissionRecord:
    spectrum_right: DirectionalSpectrum
    spectrum_left: DirectionalSpectrum
    profile_right: SpatialProfile
    profile_left: SpatialProfile
    ledger: Optional[EnergyLedger] = None


def emission_spectrum(
    slices: ResolventSet, array: AtomArray, params: PhysParams, direction: int
) -> DirectionalSpectrum:
    """Directional spectrum from the resolvent slices (either kernel).

    The weight is a plain trapezoid of |M|^2/2pi over the span (no window);
    the profile transform applies the grid's apodization.
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 (right) or -1 (left)")
    deltas = slices.deltas
    k = slices.k_of(deltas)
    z = array.positions - array.positions[-1 if direction > 0 else 0]
    phases = np.exp(-1j * direction * k[:, None] * z[None, :])
    values = math.sqrt(0.5 * params.gamma_wg) * np.sum(phases * slices.x, axis=1)
    weight = float(np.trapezoid(np.abs(values) ** 2, deltas) / (2.0 * math.pi))
    # |M|^2 falls off as C/delta^2 outside the span; complete the weight with
    # the analytic tail, estimating C from the outer five percent of each edge.
    n_edge = max(2, len(values) // 20)
    c_lo = float(np.mean(np.abs(values[:n_edge]) ** 2 * deltas[:n_edge] ** 2))
    c_hi = float(np.mean(np.abs(values[-n_edge:]) ** 2 * deltas[-n_edge:] ** 2))
    weight += (c_lo / abs(deltas[0]) + c_hi / deltas[-1]) / (2.0 * math.pi)
    return DirectionalSpectrum(
        grid=slices.grid, values=values, direction=direction, weight=weight
    )


def spatial_profile(spectrum: DirectionalSpectrum, tau_grid: np.ndarray) -> SpatialProfile:
    """|alpha(tau)|^2 on the retarded-coordinate grid.

    alpha(tau) = (1 / 2 pi) int d delta M(delta) e^{-i delta tau}, apodised
    like the time synthesis, so that the tau-integral of |alpha|^2 returns the
    spectral weight (Plancherel).  On an evenly spaced tau grid the sum runs
    as a chirp-z transform (see SpectralGrid.fourier_sum).  The transform is
    causal; the apodization smears the sharp pulse front over roughly the
    inverse taper width, so grids should avoid sampling tau = 0 exactly (see
    default_tau_grid).
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    alpha = spectrum.grid.fourier_sum(spectrum.values, tau_grid)
    alpha *= 1.0 / (2.0 * math.pi)
    return SpatialProfile.from_intensity(tau_grid, np.abs(alpha) ** 2, spectrum.weight)


def default_tau_grid(t_max: float, n: int = 4096) -> np.ndarray:
    """Retarded-coordinate grid spanning (0, t_max) at half-sample offsets.

    The offset keeps the causal pulse front (a step at tau = 0, which the
    Fourier sum reconstructs as its midpoint) off the grid, so trapezoid
    integrals of the profile are accurate.
    """
    step = t_max / n
    return step * (np.arange(n) + 0.5)


def energy_ledger(
    series: ProbabilitySeries,
    p_right: float,
    p_left: float,
    retarded: bool = False,
) -> EnergyLedger:
    """Fill the left/right/Raman/external ledger and cross-check the routes.

    Directional weights p_right, p_left come from the spectral (asymptotic)
    route, the spectrum weights or their ensemble mean; Raman and external
    losses from the time-integrated fluxes; the residual is p at the end of
    the window.  For a resonant-kernel run the time- and spectral-route
    guided totals must agree (their gap is the convergence diagnostic); for a
    retarded run the in-flight intracavity field makes the instantaneous flux
    double-count, so convergence keys on the end-state balance instead.
    """
    p_raman = float(series.e_raman[-1])
    p_ext = float(series.e_ext[-1])
    residual = float(series.p[-1])
    balance = abs(p_left + p_right + p_raman + p_ext + residual - 1.0)
    guided_time = float(series.e_left[-1] + series.e_right[-1])
    discrepancy = abs(guided_time - (p_left + p_right))
    if retarded:
        converged = balance <= 1e-2
    else:
        converged = discrepancy <= 1e-2 and balance <= 1e-2
    return EnergyLedger(
        p_left=p_left,
        p_right=p_right,
        p_raman=p_raman,
        p_ext=p_ext,
        residual=residual,
        balance_error=balance,
        guided_route_discrepancy=discrepancy,
        converged=converged,
    )

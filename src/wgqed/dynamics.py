"""Markovian time evolution and the excitation-probability bookkeeping.

b(t) = exp(-i H t) psi0 via eigendecomposition of the complex symmetric H;
a scaling-and-squaring matrix exponential takes over when the eigenvector
matrix is too ill-conditioned.  The probability series tracks p, p0, p_a and
the cumulative energy emitted into each decay channel, with the directional
guided fluxes obtained from the rank-2 structure of the coherent channel:

    Phi_+/- (t) = (Gamma_wg / 2) |sum_a e^{-/+ i k z_a} b_a(t)|^2 .
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_simpson, cumulative_trapezoid
from scipy.linalg import expm

from .hamiltonian import DecayPartition, EffectiveHamiltonian
from .model import AtomArray, StateVector

# Eigenvector condition number beyond which evolve_markovian falls back to the
# stepwise matrix exponential (near-defective spectra; correctness over speed).
CONDITION_FALLBACK = 1e8

# Relative gap below which superradiant_overlap treats the fastest decay rates
# as one degenerate cluster.
DEGENERACY_TOL = 1e-8


class NumericalError(RuntimeError):
    """Eigensolver and fallback both failed; diagnostics in the message."""


@dataclass
class AmplitudeTrajectory:
    """Complex amplitudes b_a(t) on a strictly increasing time grid."""

    t: np.ndarray
    amplitudes: np.ndarray  # shape (n_times, n_atoms)

    @property
    def population(self) -> np.ndarray:
        return np.sum(np.abs(self.amplitudes) ** 2, axis=1)


@dataclass
class ProbabilitySeries:
    """p, p0, p_a plus the cumulative emitted-energy ledger on the time grid."""

    t: np.ndarray
    p: np.ndarray
    p0: np.ndarray
    pa: np.ndarray
    e_left: np.ndarray
    e_right: np.ndarray
    e_raman: np.ndarray
    e_ext: np.ndarray

    def balance_error(self) -> np.ndarray:
        """|p + all cumulative channels - 1| at every time."""
        total = self.p + self.e_left + self.e_right + self.e_raman + self.e_ext
        return np.abs(total - 1.0)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "p", "p0", "pa", "E_left", "E_right", "E_raman", "E_ext"])
            for row in zip(
                self.t, self.p, self.p0, self.pa,
                self.e_left, self.e_right, self.e_raman, self.e_ext,
            ):
                writer.writerow([repr(float(v)) for v in row])


@dataclass
class DecayFit:
    rate: float
    r_squared: float


def default_time_grid(gamma_fast: float, t_max: float, n: int = 2048) -> np.ndarray:
    """t = 0 plus n log-spaced points from 0.01/gamma_fast to t_max.

    Resolves both the fast cooperative stage and the slow tail over several
    decades of probability decay.
    """
    if not gamma_fast > 0 or not t_max > 0:
        raise ValueError("gamma_fast and t_max must be positive")
    t0 = 0.01 / gamma_fast
    if t0 >= t_max:
        t0 = t_max / n
    return np.concatenate([[0.0], np.geomspace(t0, t_max, n)])


def _evolve_expm(ham: EffectiveHamiltonian, psi0: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Stepwise scaling-and-squaring propagation (fallback path)."""
    amps = np.empty((len(t_grid), len(psi0)), dtype=complex)
    b = psi0.astype(complex)
    t_prev = t_grid[0]
    if t_prev != 0.0:
        b = expm(-1j * ham.matrix * t_prev) @ b
    amps[0] = b
    for i, t in enumerate(t_grid[1:], start=1):
        b = expm(-1j * ham.matrix * (t - t_prev)) @ b
        amps[i] = b
        t_prev = t
    return amps


def evolve_markovian(
    ham: EffectiveHamiltonian, psi0: StateVector, t_grid: np.ndarray
) -> AmplitudeTrajectory:
    """Propagate the initial state under the resonant effective Hamiltonian."""
    if ham.retarded:
        raise ValueError("Markovian evolution needs the non-retarded Hamiltonian")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("time grid must start at 0 and be strictly increasing")
    if not np.all(np.isfinite(ham.matrix)):
        raise NumericalError("effective Hamiltonian contains non-finite entries")
    psi = psi0.amplitudes
    try:
        evals, vecs = ham.eigensystem
        cond = np.linalg.cond(vecs)
        if not np.isfinite(cond) or cond > CONDITION_FALLBACK:
            raise np.linalg.LinAlgError(f"eigenvector condition number {cond:.3g}")
        coeffs = np.linalg.solve(vecs, psi)
        phases = np.exp(-1j * np.outer(t_grid, evals))
        amps = (phases * coeffs) @ vecs.T
    except np.linalg.LinAlgError:
        try:
            amps = _evolve_expm(ham, psi, t_grid)
        except Exception as exc:  # pragma: no cover - defensive
            raise NumericalError(
                f"eigendecomposition and matrix-exponential fallback both failed: {exc}"
            ) from exc
    return AmplitudeTrajectory(t=t_grid, amplitudes=amps)


def directional_fluxes(
    traj: AmplitudeTrajectory, partition: DecayPartition, k_flux: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray]:
    """(Phi_plus, Phi_minus): right- and left-going guided fluxes vs time."""
    k = partition.k_wg if k_flux is None else k_flux
    phase = np.exp(-1j * k * partition.positions)
    s_plus = traj.amplitudes @ phase
    s_minus = traj.amplitudes @ np.conj(phase)
    half = 0.5 * partition.gamma_wg
    return half * np.abs(s_plus) ** 2, half * np.abs(s_minus) ** 2


def _cumulative(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    if len(t) < 3:
        return cumulative_trapezoid(y, t, initial=0.0)
    return cumulative_simpson(y, x=t, initial=0.0)


def probabilities(
    traj: AmplitudeTrajectory,
    psi0: StateVector,
    array: AtomArray,
    partition: DecayPartition,
    k_flux: Optional[float] = None,
) -> ProbabilitySeries:
    """Project the trajectory onto p, p0, p_a and integrate the channel fluxes.

    k_flux overrides the wavenumber used in the directional phase factors; the
    retarded pipeline passes k evaluated at the emission-spectrum centroid.
    """
    if traj.amplitudes.shape[1] != psi0.n_atoms or psi0.n_atoms != array.n_atoms:
        raise ValueError("trajectory, initial state and geometry sizes disagree")
    p = traj.population
    p0 = np.abs(traj.amplitudes @ np.conj(psi0.amplitudes)) ** 2
    pa = np.sum(
        np.abs(traj.amplitudes[:, array.emitter_start : array.emitter_stop]) ** 2, axis=1
    )
    phi_plus, phi_minus = directional_fluxes(traj, partition, k_flux)
    e_right = _cumulative(phi_plus, traj.t)
    e_left = _cumulative(phi_minus, traj.t)
    e_raman = _cumulative(partition.raman_guided_rate * p, traj.t)
    e_ext = _cumulative(partition.external_rate * p, traj.t)
    return ProbabilitySeries(traj.t, p, p0, pa, e_left, e_right, e_raman, e_ext)


def superradiant_overlap(ham: EffectiveHamiltonian, psi0: StateVector) -> float:
    """Weight of the initial state on the fastest-decaying collective mode.

    Modal amplitudes of the non-Hermitian H come from the biorthogonal (left
    eigenvector) expansion; with right eigenvectors v normalised to unit
    Euclidean norm the reported overlap is |v^T psi0| |v^dagger psi0| / |v^T v|,
    which reduces to the plain projection |<v|psi0>|^2 for real modes.  A
    degenerate fastest decay rate (within DEGENERACY_TOL, relative) sums the
    projection over the cluster and emits a warning.
    """
    evals, vecs = ham.eigensystem
    rates = -2.0 * evals.imag
    top = rates.max()
    cluster = np.nonzero(rates >= top * (1.0 - DEGENERACY_TOL))[0]
    if len(cluster) > 1:
        warnings.warn(
            f"fastest decay rate is {len(cluster)}-fold degenerate; "
            "returning the summed projection over the cluster",
            stacklevel=2,
        )
    psi = psi0.amplitudes
    total = 0.0
    for idx in cluster:
        v = vecs[:, idx]
        v = v / np.linalg.norm(v)
        vtv = v @ v
        if abs(vtv) < 1e-12:
            warnings.warn("nearly self-orthogonal superradiant mode", stacklevel=2)
            continue
        total += abs(v @ psi) * abs(np.conj(v) @ psi) / abs(vtv)
    return float(total)


def fit_decay_rate(
    series: ProbabilitySeries, t_window: tuple[float, float], which: str = "p"
) -> DecayFit:
    """Least-squares slope of ln(probability) over [t_lo, t_hi]."""
    values = {"p": series.p, "p0": series.p0, "pa": series.pa}[which]
    t_lo, t_hi = t_window
    mask = (series.t >= t_lo) & (series.t <= t_hi)
    if np.count_nonzero(mask) < 3:
        raise ValueError("fit window must contain at least 3 samples")
    t = series.t[mask]
    y = values[mask]
    if np.any(y <= 0):
        raise ValueError("probabilities must be positive over the fit window")
    logy = np.log(y)
    slope, intercept = np.polyfit(t, logy, 1)
    pred = slope * t + intercept
    ss_res = float(np.sum((logy - pred) ** 2))
    ss_tot = float(np.sum((logy - logy.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(rate=float(-slope), r_squared=r2)

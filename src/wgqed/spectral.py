"""Frequency-resolved dynamics: resolvent sweep plus inverse Fourier synthesis.

The amplitudes obey  b(t) = -(1/2 pi i) \\int dE  x(E) e^{-i E t}  with
x(E) = [E - H(E)]^{-1} psi0 the resolvent applied to the initial state and
H(E) the effective Hamiltonian with the retarded kernel k(E) = k_wg + E/v_g.
Every pole sits at Im(lambda) <= -gamma_ext/2, so the integral runs along the
real axis with no +i0 shift and the trapezoid sum converges exponentially in
the grid spacing; the finite span is handled by subtracting the two leading
terms of the large-E expansion

    x(E) ~ psi0/(E - lam0) + (H0 - lam0) psi0 / (E - lam0)^2 ,   lam0 = H_aa,

whose transform is known in closed form, and synthesising only the O(1/E^3)
remainder with a raised-cosine apodised discrete sum.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import AmplitudeTrajectory
from .hamiltonian import effective_hamiltonian, pair_distances, retarded_kernel
from .model import AtomArray, PhysParams, StateVector

MAX_GRID_POINTS = 2**20
RESIDUAL_TOL = 1e-10
# Grid points per batched solve, and output times per block of the Fourier
# sum; bounds the transient phase and matrix stacks.
CHUNK = 128


class GridResolutionError(ValueError):
    """The requested accuracy needs more than MAX_GRID_POINTS samples."""


def _is_uniform(times: np.ndarray) -> bool:
    """True for two or more times that are evenly spaced up to rounding."""
    if times.ndim != 1 or len(times) < 2:
        return False
    ideal = np.linspace(times[0], times[-1], len(times))
    scale = max(abs(times[0]), abs(times[-1]))
    return bool(np.max(np.abs(times - ideal)) <= 16 * np.finfo(float).eps * scale)


@dataclass(frozen=True)
class ScenarioScales:
    """Fast-rate scales of a scenario; the grid span covers the largest one."""

    gamma_c: float
    gamma_m: float = 0.0
    kappa: float = 0.0

    @property
    def gamma_fast(self) -> float:
        return max(self.gamma_c, self.gamma_m, self.kappa)


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform detuning grid; apod_fraction is the raised-cosine taper on
    each edge (0 for none)."""

    delta_min: float
    delta_max: float
    n_points: int
    apod_fraction: float = 0.1

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("a spectral grid needs at least two points")

    @property
    def deltas(self) -> np.ndarray:
        return np.linspace(self.delta_min, self.delta_max, self.n_points)

    @property
    def spacing(self) -> float:
        return (self.delta_max - self.delta_min) / (self.n_points - 1)

    @property
    def alias_window(self) -> float:
        """Period of the discrete sum in time; |t| beyond half of it aliases."""
        return 2.0 * math.pi / self.spacing

    def apodization(self) -> np.ndarray:
        """Unit window with a raised-cosine taper on the outer fraction."""
        n = self.n_points
        w = np.ones(n)
        n_taper = int(round(self.apod_fraction * n))
        if n_taper > 0:
            ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(n_taper) / n_taper))
            w[:n_taper] = ramp
            w[-n_taper:] = ramp[::-1]
        return w

    def fourier_sum(self, values: np.ndarray, times: np.ndarray) -> np.ndarray:
        """sum_k e^{-i delta_k t} w_k d values_k at each t (w the window, d the spacing).

        values has the grid along its first axis; the result has the times
        there instead.  Evenly spaced times go through the chirp-z transform,
        any other times through the direct sum.
        """
        times = np.asarray(times, dtype=float)
        weights = self.apodization() * self.spacing
        summand = values * weights.reshape((-1,) + (1,) * (values.ndim - 1))
        if _is_uniform(times):
            return self._chirp_z(summand, times)
        deltas = self.deltas
        out = np.empty((len(times),) + values.shape[1:], dtype=complex)
        for lo in range(0, len(times), CHUNK):
            phases = np.exp(-1j * np.outer(times[lo : lo + CHUNK], deltas))
            out[lo : lo + CHUNK] = phases @ summand
        return out

    def _chirp_z(self, summand: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Bluestein's chirp-z evaluation of the Fourier sum on uniform times.

        With delta_k = delta_min + k d and t_j = t_0 + j dt, the phase
        delta_k t_j = delta_min t_j + k d t_0 + k j d dt, and
        k j = (k^2 + j^2 - (j - k)^2) / 2 turns the k j term into a
        convolution with the chirp e^{i theta m^2 / 2} (theta = d dt), done by
        FFTs of one power-of-two length (Rabiner, Schafer and Rader 1969).
        """
        m, n = self.n_points, len(times)
        dt = (times[-1] - times[0]) / (n - 1)
        half_theta = 0.5 * self.spacing * dt
        length = 1 << math.ceil(math.log2(m + n - 1))
        k = np.arange(m, dtype=float)
        j = np.arange(n, dtype=float)
        pre = np.exp(-1j * (half_theta * k**2 + self.spacing * times[0] * k))
        post = np.exp(-1j * (half_theta * j**2 + self.delta_min * times))
        # chirp at lags 0..n-1, then -(m-1)..-1 wrapped to the end
        chirp = np.zeros(length, dtype=complex)
        chirp[:n] = np.exp(1j * half_theta * j**2)
        chirp[length - m + 1 :] = np.exp(1j * half_theta * k[m - 1 : 0 : -1] ** 2)
        chirp_f = np.fft.fft(chirp)

        # column blocks keep each FFT stack within one CHUNK x m phase block
        flat = summand.reshape(m, -1)
        cols = max(1, CHUNK * m // length)
        out = np.empty((n, flat.shape[1]), dtype=complex)
        for lo in range(0, flat.shape[1], cols):
            spec = np.fft.fft(flat[:, lo : lo + cols] * pre[:, None], n=length, axis=0)
            spec *= chirp_f[:, None]
            out[:, lo : lo + cols] = np.fft.ifft(spec, axis=0)[:n] * post[:, None]
        return out.reshape((n,) + summand.shape[1:])


@dataclass
class ResolventSet:
    """Resolvent solutions x[i] = x(deltas[i]) on the grid of the sweep.

    Carries the data the time synthesis needs for the pole subtraction:
    the initial state, the uniform pole lam0 = H_aa, and (H(0) - lam0) psi0.
    """

    grid: SpectralGrid
    x: np.ndarray  # shape (n_points, n_atoms)
    psi0: np.ndarray
    lam0: complex
    h0_correction: np.ndarray
    retarded: bool
    k_wg: float
    v_g: float
    residual_max: float = 0.0

    @property
    def deltas(self) -> np.ndarray:
        return self.grid.deltas

    def k_of(self, delta) -> np.ndarray:
        """Guided wavenumber at detuning delta under the active kernel."""
        delta = np.asarray(delta, dtype=float)
        if self.retarded:
            return self.k_wg + delta / self.v_g
        return np.broadcast_to(np.asarray(self.k_wg), delta.shape)

    def to_csv(self, path) -> None:
        """Diagnostic dump of the per-atom spectra |x_a(delta)|^2."""
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["delta", "atom", "abs_x_squared"])
            for i, delta in enumerate(self.deltas):
                for a in range(self.x.shape[1]):
                    writer.writerow(
                        [repr(float(delta)), a, repr(float(abs(self.x[i, a]) ** 2))]
                    )


def build_grid(
    params: PhysParams,
    scales: ScenarioScales,
    t_max: float,
    span_factor: float = 20.0,
    apod_fraction: float = 0.1,
) -> SpectralGrid:
    """Smallest power-of-two grid satisfying the span and spacing rules.

    Span: at least +/- span_factor * Gamma_fast (never below the 20x floor).
    Spacing: at most 2 pi / (8 t_max) so the alias-free window is 8 t_max.
    """
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    gamma_fast = scales.gamma_fast
    if not gamma_fast > 0:
        raise ValueError("scenario scales must contain a positive rate")
    half_span = max(span_factor, 20.0) * gamma_fast
    spacing_max = 2.0 * math.pi / (8.0 * t_max)
    n_req = math.ceil(2.0 * half_span / spacing_max) + 1
    n_points = 1 << max(math.ceil(math.log2(n_req)), 4)
    if n_points > MAX_GRID_POINTS:
        raise GridResolutionError(
            f"{n_points} grid points exceed the cap {MAX_GRID_POINTS}; "
            "reduce t_max, the span factor, or the system size"
        )
    return SpectralGrid(-half_span, half_span, n_points, apod_fraction)


def _solve_chunk(
    deltas: np.ndarray,
    h0: np.ndarray,
    dist: np.ndarray,
    v_g: float,
    psi0: np.ndarray,
    retarded: bool,
) -> tuple[np.ndarray, float]:
    """Dense solves of [delta - H(delta)] x = psi0 for one batch of detunings."""
    m, n = len(deltas), len(psi0)
    if retarded:
        mats = -retarded_kernel(h0, dist, deltas, v_g)
    else:
        mats = np.broadcast_to(-h0, (m, n, n)).copy()
    idx = np.arange(n)
    mats[:, idx, idx] += deltas[:, None]
    rhs = np.broadcast_to(psi0, (m, n))
    x = np.linalg.solve(mats, rhs[..., None])[..., 0]
    resid = np.einsum("kij,kj->ki", mats, x) - rhs
    res_max = float(np.max(np.linalg.norm(resid, axis=1)))
    return x, res_max


def resolvent_sweep(
    array: AtomArray,
    params: PhysParams,
    psi0: StateVector,
    grid: SpectralGrid,
    retarded: bool = True,
    workers: int = 1,
) -> ResolventSet:
    """One verified resolvent solve per grid point.

    Grid points are independent; with workers > 1 the chunks run on a thread
    pool (the dense solves release the GIL) and are written back by index, so
    assembly is deterministic.
    """
    deltas = grid.deltas
    psi = psi0.amplitudes
    h0 = effective_hamiltonian(array, params).matrix
    dist = pair_distances(array)

    x = np.empty((len(deltas), len(psi)), dtype=complex)
    chunks = [(lo, min(lo + CHUNK, len(deltas))) for lo in range(0, len(deltas), CHUNK)]

    def work(bounds):
        lo, hi = bounds
        return lo, hi, _solve_chunk(deltas[lo:hi], h0, dist, params.v_g, psi, retarded)

    res_max = 0.0
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for lo, hi, (sol, res) in pool.map(work, chunks):
                x[lo:hi] = sol
                res_max = max(res_max, res)
    else:
        for bounds in chunks:
            lo, hi, (sol, res) = work(bounds)
            x[lo:hi] = sol
            res_max = max(res_max, res)

    norm = float(np.linalg.norm(psi))
    if res_max > RESIDUAL_TOL * norm:
        raise RuntimeError(
            f"resolvent residual {res_max:.3g} exceeds {RESIDUAL_TOL:g} * |psi0|; "
            "the frequency-domain Hamiltonian is inconsistent"
        )

    lam0 = complex(h0[0, 0])  # every atom carries the same width
    return ResolventSet(
        grid=grid,
        x=x,
        psi0=psi.copy(),
        lam0=lam0,
        h0_correction=h0 @ psi - lam0 * psi,
        retarded=retarded,
        k_wg=params.k_wg,
        v_g=params.v_g,
        residual_max=res_max,
    )


def time_domain(slices: ResolventSet, t_grid: np.ndarray) -> AmplitudeTrajectory:
    """Synthesise b(t) from the resolvent slices by the windowed discrete sum.

    The two leading large-detuning terms of x(delta) are removed and restored
    analytically (see module docstring), so only the O(1/delta^3) remainder is
    summed numerically; b(0+) = psi0 holds by construction and negative times
    probe pure window leakage (causality).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    half_window = 0.5 * slices.grid.alias_window
    if np.any(np.abs(t_grid) > half_window):
        raise ValueError(
            f"requested times extend beyond the alias-free window +/-{half_window:.3g}"
        )
    pole = slices.deltas - slices.lam0
    remainder = (
        slices.x
        - slices.psi0[None, :] / pole[:, None]
        - slices.h0_correction[None, :] / (pole**2)[:, None]
    )
    amps = (-1.0 / (2.0j * math.pi)) * slices.grid.fourier_sum(remainder, t_grid)
    causal = t_grid >= 0.0
    ref = np.exp(-1j * slices.lam0 * t_grid[causal])[:, None] * (
        slices.psi0[None, :]
        - 1j * t_grid[causal][:, None] * slices.h0_correction[None, :]
    )
    amps[causal] += ref
    return AmplitudeTrajectory(t=t_grid, amplitudes=amps)

"""Frequency-resolved dynamics: resolvent sweep plus inverse Fourier synthesis.

The amplitudes obey  b(t) = -(1/2 pi i) \\int dE  x(E) e^{-i E t}  with
x(E) = [E - H(E)]^{-1} psi0 the resolvent applied to the initial state and
H(E) the effective Hamiltonian with the retarded kernel k(E) (PhysParams.k_of).
Every pole sits at Im(lambda) <= -gamma_ext/2, so the integral runs along the
real axis with no +i0 shift and the trapezoid sum converges exponentially in
the grid spacing; the finite span is handled by subtracting the two leading
terms of the large-E expansion

    x(E) ~ psi0/(E - lam0) + (H0 - lam0) psi0 / (E - lam0)^2 ,   lam0 = H_aa,

whose transform is known in closed form.  Only the O(1/E^3) remainder is
synthesised with the raised-cosine apodised discrete sum; as that sum is
linear, the two terms are subtracted after it, as the sums of the two grid
columns 1/(E - lam0) and 1/(E - lam0)^2 times psi0 and (H0 - lam0) psi0, so
no remainder array is ever formed.

Both kernels are solved by one scattering recursion, in O(N) per detuning
(see scattering_sweep): the resonant kernel is the retarded one with k held at
k_wg.  The recursion takes the gap phases once per distinct gap (an ordered
chain has a few) and runs its passes in place on per-chunk buffers.  It knows
only the guided exchange, so an H carrying the free-space term is refused.
The sweep also returns the guided fields leaving the chain through its two
ends, from which the emission spectra follow.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .dynamics import AmplitudeTrajectory
from .hamiltonian import EffectiveHamiltonian, effective_hamiltonian
from .model import AtomArray, PhysParams, StateVector

MAX_GRID_POINTS = 2**20
RESIDUAL_TOL = 1e-10
# The grid spans at least +/- MIN_SPAN_FACTOR x the fastest collective rate.
MIN_SPAN_FACTOR = 20.0
# Detunings per scattering-recursion chunk.
SCATTER_CHUNK = 2048
# Gaussian gridding of the Fourier sum: an FFT grid OVERSAMPLING x M long and
# 2 * HALF_WIDTH nodes per time, for an error of about e^{-8 pi} ~ 1e-11 of
# sum_k |summand_k| (see SpectralGrid.fourier_sum).  FFT_COLUMNS columns share
# one reused FFT block of FFT_COLUMNS x OVERSAMPLING x M elements.
OVERSAMPLING = 2
HALF_WIDTH = 12
FFT_COLUMNS = 8


class GridResolutionError(ValueError):
    """The requested accuracy needs more than MAX_GRID_POINTS samples."""


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
        there instead.  The times may be any reals: the sum is one type-2
        non-uniform FFT by Gaussian gridding (Dutt and Rokhlin 1993; Greengard
        and Lee, SIAM Rev. 46, 2004).  With centred mode numbers k and
        delta_k = delta_c + k d the sum is e^{-i delta_c t} f(d t), where
        f(x) = sum_k c_k e^{-i k x}.  The periodised Gaussian
        g(x) = sum_l e^{-(x - 2 pi l)^2 / (4 tau)} has the Fourier coefficients
        sqrt(tau / pi) e^{-tau k^2}; dividing c_k by them, one FFT of length
        R M (R = OVERSAMPLING) gives h on the nodes y_m = 2 pi m / (R M), and
        f(x) = sum_m h(y_m) g(x - y_m) / (R M) over the 2 HALF_WIDTH nodes
        nearest x.  tau = pi HALF_WIDTH / (M^2 R (R - 1/2)) balances the
        aliasing of the FFT grid against the truncated kernel, and the error
        is about e^{-pi HALF_WIDTH (R - 1) / (R - 1/2)} = e^{-8 pi} ~ 1e-11 of
        sum_k |w_k d values_k|.  The columns are transformed FFT_COLUMNS at a
        time, in place, in one block that is reused for every group.
        """
        times = np.asarray(times, dtype=float)
        m = self.n_points
        length = OVERSAMPLING * m
        tau = math.pi * HALF_WIDTH / (m**2 * OVERSAMPLING * (OVERSAMPLING - 0.5))
        h = m // 2
        modes = np.arange(m) - h
        weights = self.apodization() * self.spacing
        weights *= np.sqrt(math.pi / tau) * np.exp(tau * modes**2)

        node = 2.0 * math.pi / length
        x = np.mod(self.spacing * times, 2.0 * math.pi)
        stencil = np.floor(x / node).astype(int)[:, None] + np.arange(
            1 - HALF_WIDTH, HALF_WIDTH + 1
        )
        kernel = np.exp(-((x[:, None] - node * stencil) ** 2) / (4.0 * tau)) / length
        stencil %= length
        shift = np.exp(-1j * (self.delta_min + h * self.spacing) * times)

        flat = values.reshape(m, -1)
        out = np.empty((len(times), flat.shape[1]), dtype=complex)
        rows = np.empty((min(FFT_COLUMNS, flat.shape[1]), length), dtype=complex)
        for lo in range(0, flat.shape[1], FFT_COLUMNS):
            block = rows[: min(FFT_COLUMNS, flat.shape[1] - lo)]
            cols = flat[:, lo : lo + FFT_COLUMNS].T
            # modes 0 .. m-h-1 fill the slots [0, m-h), modes -h .. -1 the
            # slots [length-h, length); the gap between them stays zero
            np.multiply(cols[:, h:], weights[h:], out=block[:, : m - h])
            block[:, m - h : length - h] = 0.0
            np.multiply(cols[:, :h], weights[:h], out=block[:, length - h :])
            np.fft.fft(block, axis=1, out=block)
            out[:, lo : lo + FFT_COLUMNS] = np.einsum("js,cjs->jc", kernel, block[:, stencil])
        out *= shift[:, None]
        return out.reshape((len(times),) + values.shape[1:])


@dataclass
class ResolventSet:
    """Resolvent solutions x[i] = x(deltas[i]) on the grid of the sweep.

    outgoing[i] holds the guided fields leaving the chain at deltas[i]:
    sum_a e^{ik(z_N - z_a)} x_a past the last atom (column 0) and
    sum_a e^{ik(z_a - z_1)} x_a past the first (column 1), with k the
    wavenumber of the sweep's kernel.  The rest is the data the time synthesis
    needs for the pole subtraction: the initial state, the uniform pole
    lam0 = H_aa, and (H(0) - lam0) psi0.
    """

    grid: SpectralGrid
    x: np.ndarray  # shape (n_points, n_atoms)
    outgoing: np.ndarray  # shape (n_points, 2)
    psi0: np.ndarray
    lam0: complex
    h0_correction: np.ndarray
    residual_max: float = 0.0

    @property
    def deltas(self) -> np.ndarray:
        return self.grid.deltas


def build_grid(
    gamma_fast: float,
    t_max: float,
    span_factor: float = 20.0,
) -> SpectralGrid:
    """Smallest power-of-two grid satisfying the span and spacing rules.

    Span: at least +/- span_factor * Gamma_fast, with span_factor at least
    MIN_SPAN_FACTOR.  Spacing: at most 2 pi / (8 t_max) so the alias-free
    window is 8 t_max.  The grid takes SpectralGrid's default taper.
    """
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    if not gamma_fast > 0:
        raise ValueError("the fastest rate gamma_fast must be positive")
    if not span_factor >= MIN_SPAN_FACTOR:
        raise ValueError(f"span_factor must be at least {MIN_SPAN_FACTOR:g}")
    half_span = span_factor * gamma_fast
    spacing_max = 2.0 * math.pi / (8.0 * t_max)
    n_req = math.ceil(2.0 * half_span / spacing_max) + 1
    n_points = 1 << max(math.ceil(math.log2(n_req)), 4)
    if n_points > MAX_GRID_POINTS:
        raise GridResolutionError(
            f"{n_points} grid points exceed the cap {MAX_GRID_POINTS}; "
            "reduce t_max or the system size"
        )
    return SpectralGrid(-half_span, half_span, n_points)


def scattering_sweep(
    positions: np.ndarray,
    params: PhysParams,
    deltas: np.ndarray,
    k: Union[float, np.ndarray],
    psi: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray]:
    """Forward pass of the scattering recursion over the atoms in the given order.

    k is the guided wavenumber: params.k_of(deltas) on the retarded kernel, or
    the scalar params.k_wg on the resonant one (one phase per gap, broadcast).

    The guided exchange splits into the right-going field
    F+_a = sum_{b<a} e^{ik|z_a-z_b|} x_b and the left-going F-_a (b > a), so
    [delta - H(delta)] x = psi reads  u x_a + c (F+_a + F-_a) = psi_a  with
    u = delta + i gamma_tot/2 and c = i Gamma_wg/2.  The atoms before a return
    a field G arriving at z_a from the right as P_a G + Q_a: P_a is their
    reflection, Q_a the output of their sources.  Then
    x_a = drive_a - gain_a F-_a  with gain_a = c (1 + P_a) / (u + c P_a) and
    drive_a = (psi_a - c Q_a) / (u + c P_a); adding atom a gives the reflection
    rho = P_a - (1 + P_a) gain_a and output sigma = Q_a + (1 + P_a) drive_a,
    and the next gap P_{a+1} = e_a^2 rho, Q_{a+1} = e_a sigma with
    e_a = e^{ik|z_{a+1} - z_a|}.  The prefix is passive, so |P_a| <= 1
    and |u + c P_a| >= (gamma_tot - Gamma_wg)/2 > 0: no pivoting, and no growth
    across a stop band.  1 - gain_a is atom a's transmission with the prefix
    behind it.

    The phases e_a and e_a^2 are evaluated once per distinct gap (exact float
    equality: a disordered chain keeps one row per gap) and indexed per atom,
    and the recursion runs in place on per-chunk buffers.

    Returns (phases e_a, gain, drive, reflection of the whole chain at its
    last atom), with one row per gap or atom and one column per detuning;
    drive is None without psi.
    """
    deltas = np.asarray(deltas, dtype=float)
    gaps, row = np.unique(np.abs(np.diff(positions)), return_inverse=True)
    distinct = np.exp(1j * np.outer(gaps, k))
    squares = distinct**2
    u = deltas + 0.5j * params.gamma_tot
    c = 0.5j * params.gamma_wg
    n, m = len(positions), len(deltas)
    gain = np.empty((n, m), dtype=complex)
    drive = None if psi is None else np.empty_like(gain)
    p, q, inv, one_p, rho, sigma = np.zeros((6, m), dtype=complex)
    for a in range(n):
        if a:
            np.multiply(squares[row[a - 1]], rho, out=p)
            if psi is not None:
                np.multiply(distinct[row[a - 1]], sigma, out=q)
        np.multiply(c, p, out=inv)
        np.add(u, inv, out=inv)
        np.divide(1.0, inv, out=inv)
        np.add(p, 1.0, out=one_p)
        g = gain[a]
        np.multiply(c, one_p, out=g)
        np.multiply(g, inv, out=g)
        np.multiply(one_p, g, out=rho)
        np.subtract(p, rho, out=rho)
        if psi is not None:
            d = drive[a]
            np.multiply(c, q, out=d)
            np.subtract(psi[a], d, out=d)
            np.multiply(d, inv, out=d)
            np.multiply(one_p, d, out=sigma)
            np.add(q, sigma, out=sigma)
    return distinct[row], gain, drive, rho


def _guided_matvec(
    x: np.ndarray, phases: np.ndarray, deltas: np.ndarray, params: PhysParams
) -> tuple[np.ndarray, np.ndarray]:
    """[delta - H(delta)] x in O(N) by the two guided-field recursions, and
    the fields leaving the chain (ResolventSet.outgoing) that they end on.

    x has one row per atom and one column per detuning; phases are the gap
    phases e_a of the same detunings.
    """
    u = deltas + 0.5j * params.gamma_tot
    c = 0.5j * params.gamma_wg
    n = len(x)
    fields = np.zeros_like(x)
    right = np.zeros(x.shape[1], dtype=complex)
    left = np.zeros_like(right)
    for a in range(1, n):
        b = n - 1 - a
        np.add(right, x[a - 1], out=right)
        np.multiply(phases[a - 1], right, out=right)
        np.add(fields[a], right, out=fields[a])
        np.add(left, x[b + 1], out=left)
        np.multiply(phases[b], left, out=left)
        np.add(fields[b], left, out=fields[b])
    np.multiply(c, fields, out=fields)
    resid = np.add(np.multiply(u, x), fields, out=fields)
    return resid, np.stack([right + x[-1], left + x[0]], axis=1)


def _scatter_chunk(
    deltas: np.ndarray,
    k: Union[float, np.ndarray],
    positions: np.ndarray,
    params: PhysParams,
    psi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Scattering solves of [delta - H(delta)] x = psi0 with the guided
    wavenumber k (see scattering_sweep).

    The backward pass carries the left-going field F-_a from the last atom,
    writing x over drive row by row; the residual is the O(N) matvec with the
    same gap phases, which also yields the outgoing fields.  Returns
    (x, outgoing, residual).
    """
    phases, gain, x, _ = scattering_sweep(positions, params, deltas, k, psi)
    left = np.zeros(len(deltas), dtype=complex)
    for a in range(len(psi) - 1, -1, -1):
        x_a, g = x[a], gain[a]
        np.multiply(g, left, out=g)
        np.subtract(x_a, g, out=x_a)
        if a:
            np.add(left, x_a, out=left)
            np.multiply(phases[a - 1], left, out=left)
    resid, outgoing = _guided_matvec(x, phases, deltas, params)
    resid -= psi[:, None]
    res_max = float(np.sqrt(np.max(np.sum(resid.real**2 + resid.imag**2, axis=0))))
    return x.T, outgoing, res_max


def check_residual(residual: float, psi: np.ndarray) -> None:
    """Raise when a resolvent (or modal) residual exceeds RESIDUAL_TOL * |psi0|."""
    if residual > RESIDUAL_TOL * float(np.linalg.norm(psi)):
        raise RuntimeError(
            f"resolvent residual {residual:.3g} exceeds {RESIDUAL_TOL:g} * |psi0|; "
            "the frequency-domain Hamiltonian is inconsistent"
        )


def resolvent_sweep(
    array: AtomArray,
    params: PhysParams,
    psi0: StateVector,
    grid: SpectralGrid,
    retarded: bool = True,
    workers: int = 1,
    ham: Optional[EffectiveHamiltonian] = None,
) -> ResolventSet:
    """One verified resolvent solve, and the fields leaving the chain, per
    grid point.

    Both kernels take the O(N) scattering solve (scattering_sweep); retarded
    only picks the wavenumber, k(delta) or the constant k_wg.  ham is the
    run's H0, which must not carry the free-space term; by default the
    waveguide-only H0 of the array.  Grid points are independent; with
    workers > 1 the chunks run on a thread pool (numpy releases the GIL) and
    are written back by index, so assembly is deterministic.
    """
    if ham is not None and ham.includes_free_space:
        raise ValueError("the scattering recursion has no free-space term")
    deltas = grid.deltas
    psi = psi0.amplitudes
    h0 = (effective_hamiltonian(array, params) if ham is None else ham).matrix

    x = np.empty((len(deltas), len(psi)), dtype=complex)
    outgoing = np.empty((len(deltas), 2), dtype=complex)

    def work(lo):
        chunk = deltas[lo : lo + SCATTER_CHUNK]
        k = params.k_of(chunk) if retarded else params.k_wg
        return lo, _scatter_chunk(chunk, k, array.positions, params, psi)

    res_max = 0.0
    chunks = range(0, len(deltas), SCATTER_CHUNK)
    # the pool starts no thread unless a chunk is submitted to it
    with ThreadPoolExecutor(max_workers=max(workers, 1)) as pool:
        results = pool.map(work, chunks) if workers > 1 else map(work, chunks)
        for lo, (sol, out, res) in results:
            x[lo : lo + len(sol)] = sol
            outgoing[lo : lo + len(sol)] = out
            res_max = max(res_max, res)

    check_residual(res_max, psi)
    lam0 = complex(h0[0, 0])  # every atom carries the same width
    return ResolventSet(
        grid=grid,
        x=x,
        outgoing=outgoing,
        psi0=psi.copy(),
        lam0=lam0,
        h0_correction=h0 @ psi - lam0 * psi,
        residual_max=res_max,
    )


def time_domain(slices: ResolventSet, t_grid: np.ndarray) -> AmplitudeTrajectory:
    """Synthesise b(t) from the resolvent slices by the windowed discrete sum,
    evaluated at any t_grid by the grid's non-uniform FFT (fourier_sum).

    The two leading large-detuning terms of x(delta) are removed and restored
    analytically (see module docstring), so only the O(1/delta^3) remainder is
    summed numerically; b(0+) = psi0 holds by construction and negative times
    probe pure window leakage (causality).  The sum is linear, so the two
    terms are subtracted after it and no M x N array is formed.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    grid = slices.grid
    half_window = 0.5 * grid.alias_window
    if np.any(np.abs(t_grid) > half_window):
        raise ValueError(
            f"requested times extend beyond the alias-free window +/-{half_window:.3g}"
        )
    inv_pole = 1.0 / (slices.deltas - slices.lam0)
    s1, s2 = grid.fourier_sum(np.stack([inv_pole, inv_pole**2], axis=1), t_grid).T
    amps = grid.fourier_sum(slices.x, t_grid)
    amps -= np.outer(s1, slices.psi0)
    amps -= np.outer(s2, slices.h0_correction)
    amps *= -1.0 / (2.0j * math.pi)
    causal = t_grid >= 0.0
    ref = np.exp(-1j * slices.lam0 * t_grid[causal])[:, None] * (
        slices.psi0[None, :]
        - 1j * t_grid[causal][:, None] * slices.h0_correction[None, :]
    )
    amps[causal] += ref
    return AmplitudeTrajectory(t=t_grid, amplitudes=amps)

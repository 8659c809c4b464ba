"""Frequency-resolved dynamics: resolvent sweep plus inverse Fourier synthesis.

The amplitudes obey  b(t) = -(1/2 pi i) \\int dE  x(E) e^{-i E t}  with
x(E) = [E - H(E)]^{-1} psi0 the resolvent applied to the initial state and
H(E) the effective Hamiltonian with the retarded kernel k(E) (PhysParams.k_of).
Every pole sits at Im(lambda) <= -gamma_ext/2, so the integral runs along the
real axis with no +i0 shift and the trapezoid sum converges exponentially in
the grid spacing; the finite span is handled by subtracting the two leading
terms of the large-E expansion

    x(E) ~ psi0/(E - lam0) + [H(E) - lam0] psi0 / (E - lam0)^2 ,   lam0 = H_aa,

whose transforms are known in closed form.  On the retarded kernel the second
term carries the delays of the couplings, H_ab(E) = H_ab(0) e^{i E tau_ab}
with tau_ab = |z_a - z_b| / v_g, so its transform is a set of delayed ramps
-i (t - tau_ab) e^{-i lam0 (t - tau_ab)} theta(t - tau_ab) (DelayedTerms).
The sweep subtracts that term on the grid, from one more O(N) guided pass of
psi0 per detuning, and keeps only the difference; the first term is removed
after the raised-cosine apodised discrete sum, which is linear, as the sum of
the grid column 1/(E - lam0) times psi0.  So only the O(1/E^3) remainder is
synthesised numerically.  A sweep holds x (M x N) and, per worker, one
N x SCATTER_CHUNK work buffer: each chunk is solved in its own slice of x.
The synthesis adds its closed-form terms in place to its (times x N) output,
and the non-uniform FFT gathers its nodes TIME_BLOCK times at a time, so no
other array of M or n_t rows by N is formed.  The fields leaving the chain
lead with the delayed steps of psi0 itself, the pulse fronts, which the sweep
samples on the grid for the same treatment (see emission).

Both kernels are solved by one scattering recursion, in O(N) per detuning
(see scattering_sweep): the resonant kernel is the retarded one with k held at
k_wg, and all its delays are zero.  The recursion takes the gap phases once
per distinct gap (an ordered chain has a few) and runs its passes in place,
in the chunk's slice of x and its work buffer.  It knows only the guided
exchange, which it reads off the atom positions with no N x N matrix.  The
sweep also returns the guided fields leaving the chain through its two ends,
from which the emission spectra follow.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .dynamics import AmplitudeTrajectory, NumericalError
# effective_hamiltonian is unused here: perfbench/tracer.py patches this name
from .hamiltonian import effective_hamiltonian, guided_exchange  # noqa: F401
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
# one reused FFT block of FFT_COLUMNS x OVERSAMPLING x M elements, and
# TIME_BLOCK times share one gather of their nodes.
OVERSAMPLING = 2
HALF_WIDTH = 12
FFT_COLUMNS = 8
TIME_BLOCK = 512


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
        time, in place, in one block that is reused for every group, and
        interpolated TIME_BLOCK times at a time, so the gathered nodes never
        exceed TIME_BLOCK x 2 HALF_WIDTH x FFT_COLUMNS.
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
        # one (1, 2 HALF_WIDTH) row per time, for a real batched matmul against
        # the float view of the gathered (2 HALF_WIDTH, columns) nodes
        kernel = np.exp(-((x[:, None, None] - node * stencil[:, None]) ** 2) / (4.0 * tau))
        kernel /= length
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
            nodes = block.T
            for t0 in range(0, len(times), TIME_BLOCK):
                span = slice(t0, t0 + TIME_BLOCK)
                # no name holds the gathered nodes, so one time block's are
                # freed before the next block's are gathered
                interpolated = (kernel[span] @ nodes[stencil[span]].view(float)).view(complex)
                out[span, lo : lo + FFT_COLUMNS] = interpolated[:, 0]
        out *= shift[:, None]
        return out.reshape((len(times),) + values.shape[1:])


@dataclass(frozen=True)
class DelayedTerms:
    """Delayed poles, one sum per row r over its terms j:

        f_r(delta) = sum_j e^{i delta d_rj} [s_rj / (delta - lam0) + q_rj / (delta - lam0)^2]

    with delays d_rj >= 0, step weights s, ramp weights q and Im(lam0) < 0.
    transform gives their exact Fourier integral, the limit of
    SpectralGrid.fourier_sum over an infinite span:

        int d delta e^{-i delta t} f_r(delta)
            = -2 pi i sum_j [s_rj - i q_rj (t - d_rj)] e^{-i lam0 (t - d_rj)} theta(t - d_rj),

    a set of delayed steps and ramps.
    """

    delays: np.ndarray  # shape (rows, terms), like steps and ramps
    steps: np.ndarray
    ramps: np.ndarray
    lam0: complex

    def samples(self, deltas: np.ndarray) -> np.ndarray:
        """f_r at each detuning, shape (len(deltas), rows): a direct sum over
        the terms, for small grids."""
        deltas = np.asarray(deltas, dtype=float)
        inv = 1.0 / (deltas - self.lam0)
        out = np.empty((len(deltas), len(self.delays)), dtype=complex)
        for r, (d, s, q) in enumerate(zip(self.delays, self.steps, self.ramps)):
            phases = np.exp(1j * np.outer(deltas, d))
            out[:, r] = inv * (phases @ s + inv * (phases @ q))
        return out

    def transform(self, times: np.ndarray, into: Optional[np.ndarray] = None) -> np.ndarray:
        """The exact transform at each time, shape (len(times), rows); added
        in place to into, and into returned, when it is given.

        e^{-i lam0 (t - d)} = e^{-i lam0 t} e^{i lam0 d}, so with each row's
        delays sorted, a time reads the cumulative sums of s e^{i lam0 d},
        q e^{i lam0 d} and q d e^{i lam0 d} over the delays below it:
        O(rows (terms + n_t) log terms), with no rows x terms x n_t array.  A
        delay equal to a time counts half, a step's midpoint (a ramp is zero
        there).
        """
        times = np.asarray(times, dtype=float)
        t_last = float(np.max(times, initial=0.0))
        sort = np.argsort(self.delays, axis=1)
        d = np.take_along_axis(self.delays, sort, axis=1)
        # a term starting after the last time is never read; capping its delay
        # in the exponent keeps |e^{i lam0 d}| below e^{-Im(lam0) t_last}
        grow = np.exp(1j * self.lam0 * np.minimum(d, t_last))
        s = np.take_along_axis(self.steps, sort, axis=1) * grow
        q = np.take_along_axis(self.ramps, sort, axis=1) * grow
        sums = np.zeros((len(d), 3, d.shape[1] + 1), dtype=complex)
        np.cumsum(np.stack([s, q, q * d], axis=1), axis=2, out=sums[:, :, 1:])
        if into is None:
            into = np.zeros((len(times), len(d)), dtype=complex)
        factor = -1j * math.pi * np.exp(-1j * self.lam0 * times)
        for r in range(len(d)):
            lo, hi = (np.searchsorted(d[r], times, side=side) for side in ("left", "right"))
            s_sum, q_sum, qd_sum = np.take(sums[r], lo, axis=1) + np.take(sums[r], hi, axis=1)
            column = s_sum - 1j * (times * q_sum - qd_sum)
            column *= factor
            into[:, r] += column
        return into


@dataclass
class ResolventSet:
    """The resolvent sweep over a grid, in the form the time synthesis reads.

    x[i] is the resolvent x(deltas[i]) less its delayed second-order term
    [H(delta) - lam0] psi0 / (delta - lam0)^2, whose exact transform is ramps
    (rows: atoms; terms: the atoms psi0 occupies); resolvent() restores it.
    x is the (M, N) transpose view of one atom-major block, so a column of x
    is a contiguous row in memory.

    outgoing[i] holds the guided fields leaving the chain at deltas[i]:
    sum_a e^{ik(z_N - z_a)} x_a past the last atom (column 0) and
    sum_a e^{ik(z_a - z_1)} x_a past the first (column 1), with k the
    wavenumber of the sweep's kernel.  lead[i] is their leading term, the same
    fields of psi0 over (deltas[i] - lam0): the pulse fronts, whose exact
    transform is fronts (row 0 right, row 1 left).  lam0 = H_aa is the
    uniform pole.
    """

    grid: SpectralGrid
    x: np.ndarray  # shape (n_points, n_atoms)
    outgoing: np.ndarray  # shape (n_points, 2)
    lead: np.ndarray  # shape (n_points, 2)
    psi0: np.ndarray
    lam0: complex
    ramps: DelayedTerms
    fronts: DelayedTerms
    residual_max: float = 0.0

    @property
    def deltas(self) -> np.ndarray:
        return self.grid.deltas

    def resolvent(self) -> np.ndarray:
        """The full resolvent [delta - H(delta)]^{-1} psi0, shape (M, N); its
        second-order term is summed directly, so this is for small grids."""
        return self.x + self.ramps.samples(self.deltas)


def build_grid(
    gamma_fast: float,
    t_max: float,
    span_factor: float = 20.0,
) -> SpectralGrid:
    """Smallest power-of-two grid satisfying the span and spacing rules.

    Span: at least +/- span_factor * Gamma_fast, with span_factor at least
    MIN_SPAN_FACTOR.  Spacing: at most 2 pi / (2 t_max), so that the
    alias-free window is at least 2 t_max.  The discrete sum aliases
    b(t + W) onto t, so for a decaying b the window need only hold
    [-t_max, t_max]: a leak probe at -t reads b(W - t), t_max <= W - t < W,
    which bounds the alias at positive times (synthesis_leak).  The window is
    compared as time_domain computes it, so that +/- t_max are accepted in
    floating point too.  The grid takes SpectralGrid's default taper.
    """
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    if not gamma_fast > 0:
        raise ValueError("the fastest rate gamma_fast must be positive")
    if not span_factor >= MIN_SPAN_FACTOR:
        raise ValueError(f"span_factor must be at least {MIN_SPAN_FACTOR:g}")
    half_span = span_factor * gamma_fast
    n_points = 16
    while SpectralGrid(-half_span, half_span, n_points).alias_window < 2.0 * t_max:
        if n_points >= MAX_GRID_POINTS:
            raise GridResolutionError(
                f"the grid points for an alias-free window of {2.0 * t_max:.3g} "
                f"exceed the cap {MAX_GRID_POINTS}; reduce t_max or the system size"
            )
        n_points *= 2
    return SpectralGrid(-half_span, half_span, n_points)


def scattering_sweep(
    positions: np.ndarray,
    params: PhysParams,
    deltas: np.ndarray,
    k: Union[float, np.ndarray],
    psi: Optional[np.ndarray] = None,
    gain: Optional[np.ndarray] = None,
    drive: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray]:
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

    The phases are evaluated once per distinct gap (exact float equality: a
    disordered chain keeps one row per gap): gap a's phase e_a is
    distinct[row[a]], and no per-gap array is formed.  gain and drive have
    one row per atom and one column per detuning, and their rows are written
    in place: gain into a new array unless one is given, drive (with psi only)
    into the one given.

    Returns (distinct, row, gain, drive, reflection of the whole chain at its
    last atom); drive is None without psi.
    """
    deltas = np.asarray(deltas, dtype=float)
    gaps, row = np.unique(np.abs(np.diff(positions)), return_inverse=True)
    distinct = np.exp(1j * np.outer(gaps, k))
    squares = distinct**2
    u = deltas + 0.5j * params.gamma_tot
    c = 0.5j * params.gamma_wg
    n, m = len(positions), len(deltas)
    if gain is None:
        gain = np.empty((n, m), dtype=complex)
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
    return distinct, row, gain, drive, rho


def _guided_fields(
    x: np.ndarray,
    distinct: np.ndarray,
    row: np.ndarray,
    out: np.ndarray,
    finish: Optional[Callable[[int], None]] = None,
) -> np.ndarray:
    """Write the guided fields F_a = sum_{b != a} e^{ik|z_a - z_b|} x_b into
    out by two recursions, and return the fields leaving the chain
    (ResolventSet.outgoing) that they end on.

    x has one row per atom and one column per detuning, and gap a's phase is
    distinct[row[a]] (see scattering_sweep); either may hold a single column
    that broadcasts over the other's, and out holds the detunings of both.
    The left-going pass writes F-_a, the right-going pass adds F+_a; finish(a),
    if given, is called as soon as row a of out is complete, in atom order.
    """
    n, m = len(x), max(x.shape[1], distinct.shape[1])
    left = np.zeros(m, dtype=complex)
    out[n - 1] = 0.0
    for b in range(n - 2, -1, -1):
        np.add(left, x[b + 1], out=left)
        np.multiply(distinct[row[b]], left, out=left)
        out[b] = left
    right = np.zeros_like(left)
    for a in range(n):
        if a:
            np.add(right, x[a - 1], out=right)
            np.multiply(distinct[row[a - 1]], right, out=right)
            np.add(out[a], right, out=out[a])
        if finish is not None:
            finish(a)
    return np.stack([right + x[-1], left + x[0]], axis=1)


def _leaving(x: np.ndarray, distinct: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The fields of x leaving the chain (as ResolventSet.outgoing), by one
    Horner pass from each end; shapes as in _guided_fields."""
    n = len(x)
    right, left = x[0].copy(), x[-1].copy()
    for a in range(1, n):
        np.multiply(distinct[row[a - 1]], right, out=right)
        np.add(right, x[a], out=right)
        np.multiply(distinct[row[n - 1 - a]], left, out=left)
        np.add(left, x[n - 1 - a], out=left)
    return np.stack([right, left], axis=1)


def _guided_matvec(
    x: np.ndarray,
    distinct: np.ndarray,
    row: np.ndarray,
    deltas: np.ndarray,
    params: PhysParams,
    psi: np.ndarray,
    out: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Write the residual [delta - H(delta)] x - psi = u x + c F - psi into
    out in O(N) (see _guided_fields), each row as soon as its field is
    complete; returns the largest column norm of the residual and the fields
    leaving the chain."""
    u = deltas + 0.5j * params.gamma_tot
    c = 0.5j * params.gamma_wg
    norm = np.zeros(len(deltas))
    ux = np.empty(len(deltas), dtype=complex)

    def finish(a):
        r = out[a]
        np.multiply(c, r, out=r)
        np.multiply(u, x[a], out=ux)
        np.add(ux, r, out=r)
        np.subtract(r, psi[a], out=r)
        np.add(norm, r.real**2 + r.imag**2, out=norm)

    outgoing = _guided_fields(x, distinct, row, out, finish)
    return float(np.sqrt(np.max(norm))), outgoing


def _scatter_chunk(
    deltas: np.ndarray,
    k: Union[float, np.ndarray],
    positions: np.ndarray,
    params: PhysParams,
    psi: np.ndarray,
    x: np.ndarray,
) -> tuple[np.ndarray, float, np.ndarray]:
    """Scattering solves of [delta - H(delta)] x = psi0 with the guided
    wavenumber k (see scattering_sweep), less the delayed second-order term
    the synthesis subtracts, written into x: one row per atom, one column per
    detuning (a row-wise view, such as the chunk's slice of the sweep).

    The chunk holds x and one work buffer of its shape.  The forward pass
    writes drive into x and gain into the buffer; the backward pass carries
    the left-going field F-_a from the last atom and turns drive into x row by
    row.  The buffer then takes the residual, the O(N) matvec with the same
    gap phases, whose two field recursions also give the outgoing fields.
    Last it takes second = [H(delta) - lam0] psi0 / u^2 = -c F(psi0) / u^2
    (u = delta - lam0), from one more guided pass of psi0 that also gives the
    fields of psi0 leaving the chain; second is subtracted from x.  Returns
    (outgoing, residual, lead): lead is the two leading terms of outgoing, the
    fields of psi0 leaving the chain over u plus those of second.
    """
    work = np.empty(x.shape, dtype=complex)
    distinct, row, gain, _, _ = scattering_sweep(
        positions, params, deltas, k, psi, gain=work, drive=x
    )
    left = np.zeros(len(deltas), dtype=complex)
    for a in range(len(psi) - 1, -1, -1):
        x_a, g = x[a], gain[a]
        np.multiply(g, left, out=g)
        np.subtract(x_a, g, out=x_a)
        if a:
            np.add(left, x_a, out=left)
            np.multiply(distinct[row[a - 1]], left, out=left)
    res_max, outgoing = _guided_matvec(x, distinct, row, deltas, params, psi, work)
    inv = 1.0 / (deltas + 0.5j * params.gamma_tot)
    lead = _guided_fields(psi[:, None], distinct, row, work)
    second = np.multiply(work, -0.5j * params.gamma_wg * inv**2, out=work)
    np.subtract(x, second, out=x)
    return outgoing, res_max, lead * inv[:, None] + _leaving(second, distinct, row)


def check_residual(residual: float, psi: np.ndarray) -> None:
    """Raise when a resolvent (or modal) residual exceeds RESIDUAL_TOL * |psi0|."""
    if residual > RESIDUAL_TOL * float(np.linalg.norm(psi)):
        raise NumericalError(
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
) -> ResolventSet:
    """One verified resolvent solve, and the fields leaving the chain, per
    grid point.

    Both kernels take the O(N) scattering solve (scattering_sweep) of the
    guided-only H(delta) of the array; retarded only picks the wavenumber,
    k(delta) or the constant k_wg.  No N x N matrix is formed: the uniform
    pole lam0 = -i gamma_tot/2 and the delayed couplings (guided_exchange of
    the pair distances to the atoms psi0 occupies) are all the second-order
    term needs.  The sweep holds x and, while a chunk of SCATTER_CHUNK
    detunings is solved in its slice of x (_scatter_chunk), one
    N x SCATTER_CHUNK work buffer.  Grid points are independent; with
    workers > 1 the chunks run on a thread pool (numpy releases the GIL), each
    task writing a disjoint slice with its own buffer, so assembly is
    deterministic and a sweep holds one buffer per worker.
    """
    deltas = grid.deltas
    psi = psi0.amplitudes

    # atom-major, so each chunk fills contiguous row segments
    block = np.empty((len(psi), len(deltas)), dtype=complex)
    outgoing = np.empty((len(deltas), 2), dtype=complex)
    lead = np.empty_like(outgoing)

    def work(lo):
        span = slice(lo, lo + SCATTER_CHUNK)
        chunk = deltas[span]
        k = params.k_of(chunk) if retarded else params.k_wg
        outgoing[span], res, lead[span] = _scatter_chunk(
            chunk, k, array.positions, params, psi, block[:, span]
        )
        return res

    chunks = range(0, len(deltas), SCATTER_CHUNK)
    # the pool starts no thread unless a chunk is submitted to it
    with ThreadPoolExecutor(max_workers=max(workers, 1)) as pool:
        res_max = max(pool.map(work, chunks) if workers > 1 else map(work, chunks))

    check_residual(res_max, psi)
    lam0 = -0.5j * params.gamma_tot  # every atom carries the same width
    # The couplings H_ab(delta) = H_ab(0) e^{i delta |z_a - z_b| / v_g} delay
    # the second-order term by |z_a - z_b| / v_g, over the atoms b psi0
    # occupies; none are delayed on the resonant kernel.  The fields leaving
    # the chain are those of psi0 from b (steps), and of the second-order term
    # from a (ramps), one path b -> a -> end for each pair.
    z = array.positions
    occupied = np.flatnonzero(psi)
    slowness = 1.0 / params.v_g if retarded else 0.0
    pair = np.abs(z[:, None] - z[occupied])
    couplings = guided_exchange(pair, params) * psi[occupied]
    couplings[occupied, np.arange(len(occupied))] = 0.0  # (H0 - lam0)_aa = 0
    to_end = np.stack([z[-1] - z, z - z[0]])
    path = np.concatenate(
        [to_end[:, occupied], (to_end[:, :, None] + pair).reshape(2, -1)], axis=1
    )
    front_steps = np.exp(1j * params.k_wg * to_end[:, occupied]) * psi[occupied]
    front_ramps = (np.exp(1j * params.k_wg * to_end)[:, :, None] * couplings).reshape(2, -1)
    return ResolventSet(
        grid=grid,
        x=block.T,
        outgoing=outgoing,
        lead=lead,
        psi0=psi.copy(),
        lam0=lam0,
        ramps=DelayedTerms(slowness * pair, np.zeros_like(couplings), couplings, lam0),
        fronts=DelayedTerms(
            slowness * path,
            np.concatenate([front_steps, np.zeros_like(front_ramps)], axis=1),
            np.concatenate([np.zeros_like(front_steps), front_ramps], axis=1),
            lam0,
        ),
        residual_max=res_max,
    )


def time_domain(slices: ResolventSet, t_grid: np.ndarray) -> AmplitudeTrajectory:
    """Synthesise b(t) from the resolvent slices by the windowed discrete sum,
    evaluated at any t_grid by the grid's non-uniform FFT (fourier_sum).

    The two leading large-detuning terms of x(delta) are removed and restored
    analytically (see module docstring), so only the O(1/delta^3) remainder is
    summed numerically; b(0+) = psi0 holds by construction and negative times
    probe pure window leakage (causality).  The sweep has already removed the
    delayed second-order term from x; the sum is linear, so the first term is
    subtracted after it.  The closed-form terms (that pole, the delayed ramps
    and the step at t = 0) are added in place to the transform, the pole and
    the step on the columns psi0 occupies only, so no M x N or n_t x N array
    besides the result is formed.

    The times must lie within half the alias-free window W, which build_grid
    makes at least 2 t_max.  The sum is periodic in W, so it adds b(t + W) to
    b(t): small only if b has decayed by t_max, which the leak at -t, b(W - t),
    bounds (synthesis_leak).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    grid = slices.grid
    half_window = 0.5 * grid.alias_window
    if np.any(np.abs(t_grid) > half_window):
        raise ValueError(
            f"requested times extend beyond the alias-free window +/-{half_window:.3g}"
        )
    s1 = grid.fourier_sum(1.0 / (slices.deltas - slices.lam0), t_grid)
    amps = grid.fourier_sum(slices.x, t_grid)
    occupied = np.flatnonzero(slices.psi0)
    for a in occupied:
        amps[:, a] -= s1 * slices.psi0[a]
    slices.ramps.transform(t_grid, into=amps)
    amps *= -1.0 / (2.0j * math.pi)
    causal = t_grid >= 0.0
    step = np.exp(-1j * slices.lam0 * t_grid[causal])
    for a in occupied:
        amps[causal, a] += step * slices.psi0[a]
    return AmplitudeTrajectory(t=t_grid, amplitudes=amps)


def synthesis_leak(slices: ResolventSet, trajectory: AmplitudeTrajectory) -> float:
    """The largest |b_a(t)| of a synthesised trajectory at its times t before
    the excitation can reach atom a, at min_b |z_a - z_b| / v_g over the
    atoms b psi0 occupies (0 for those, and for every atom on the resonant
    kernel).  b_a vanishes there exactly, so this is pure window error: the
    negative times for every atom, and on the retarded kernel the times before
    the light reaches each atom psi0 does not occupy.
    """
    arrival = slices.ramps.delays.min(axis=1)
    early = trajectory.t[:, None] < arrival
    return float(np.max(np.abs(trajectory.amplitudes), where=early, initial=0.0))

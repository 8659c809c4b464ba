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
with tau_ab = |z_a - z_b| / v_g.  The sweep subtracts both terms on the grid,
the second from one more O(N) guided pass of psi0 per detuning, so only the
O(1/E^3) remainder is synthesised numerically; the terms add back as their
exact transform (DelayedTerms): a step e^{-i lam0 t} theta(t) on each atom
psi0 occupies, and delayed ramps -i (t - tau_ab) e^{-i lam0 (t - tau_ab)}
theta(t - tau_ab).  Both parts are linear, so <bra|b(t)> is synthesised from
the one column x bra (ResolventSet.projected).  A sweep holds x (M x N) and,
per worker, one N x chunk work buffer: the grid is split into
ceil(M / SCATTER_CHUNK) equal chunks, each solved in its own slice of x.
The synthesis is kept as the part of its sweep it reads,
x and the delayed terms (SweptTrajectory), and taken as it is read,
FFT_COLUMNS atoms at a time: each column group of the non-uniform FFT (an
exponential-of-semicircle gridding, see SpectralGrid.fourier_groups), which
gathers its nodes TIME_BLOCK times at a time, takes its atoms' delayed terms
in place and is handed on, so no array of M or n_t rows by N is formed
besides x.  The fields leaving the chain lead with the
delayed steps of psi0 itself, the pulse fronts, which the sweep samples on
the grid for the same treatment; emission carries the delayed terms to each
chain end for their exact transform.

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
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterator, Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynamics import ModalTrajectory, check_residual
# effective_hamiltonian is unused here: perfbench/tracer.py patches this name
from .hamiltonian import effective_hamiltonian, guided_exchange  # noqa: F401
from .model import AtomArray, PhysParams, StateVector

MAX_GRID_POINTS = 2**20
# The grid spans at least +/- MIN_SPAN_FACTOR x the fastest collective rate.
MIN_SPAN_FACTOR = 20.0
# Most detunings per scattering-recursion chunk: a sweep of M detunings runs
# ceil(M / SCATTER_CHUNK) equal chunks, so no chunk is short.
SCATTER_CHUNK = 2048
# Gridding of the Fourier sum with the exponential-of-semicircle kernel
# (Barnett, Magland and af Klinteberg, SIAM J. Sci. Comput. 41, C479, 2019):
# an FFT grid int(OVERSAMPLING x M) long and 2 * HALF_WIDTH nodes per time,
# with the shape ES_BETA, for an error below 1e-13 of sum_k |summand_k|
# (see SpectralGrid.fourier_groups).  The kernel's Fourier transform has no
# closed form; a KERNEL_NODES-point midpoint rule takes it once per grid.
# FFT_COLUMNS columns share one reused FFT block of about
# FFT_COLUMNS x OVERSAMPLING x M elements and are handed on as one group, and
# TIME_BLOCK times share one gather of their nodes (0.25 MiB).
OVERSAMPLING = 1.5
HALF_WIDTH = 8
ES_BETA = 0.98 * math.pi * 2 * HALF_WIDTH * (1.0 - 0.5 / OVERSAMPLING)
KERNEL_NODES = 32
FFT_COLUMNS = 8
TIME_BLOCK = 128
# DelayedTerms.transform measures each delay from the start of its bin, so
# that no factor e^{i lam0 (d - a)} exceeds e^GROWTH_MAX
GROWTH_MAX = 64.0


class GridResolutionError(ValueError):
    """The requested accuracy needs more than MAX_GRID_POINTS samples."""


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform detuning grid."""

    delta_min: float
    delta_max: float
    n_points: int

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

    def fourier_sum(self, values: np.ndarray, times: np.ndarray) -> np.ndarray:
        """sum_k e^{-i delta_k t} d values_k at each t (d the spacing), whole.

        values has the grid along its first axis; the result has the times
        there instead.  This gathers the column groups of fourier_groups
        into one array, for the small sums: a profile, the outflow, the
        Dicke column.
        """
        flat = values.reshape(self.n_points, -1)
        out = np.empty((len(times), flat.shape[1]), dtype=complex)
        for lo, sums in self.fourier_groups(flat, times):
            out[:, lo : lo + sums.shape[1]] = sums
        return out.reshape((len(times),) + values.shape[1:])

    @cached_property
    def deconvolution(self) -> np.ndarray:
        """spacing / phi_k for the centred mode numbers k of fourier_groups,
        with phi_k = (1 / 2 pi) int dx phi(x / a) e^{i k x} the Fourier
        coefficients of its kernel, a = HALF_WIDTH x the FFT node spacing.

        The kernel is even and vanishes outside |z| < 1, so
        phi_k = (a / pi) int_0^1 dz phi(z) cos(k a z), taken by a
        KERNEL_NODES-point midpoint rule, one node at a time: each node turns
        the phases e^{i k a z} on by one step, so no cosine is evaluated past
        the first node.  Built once per grid: a frozen grid caches it.
        """
        m = self.n_points
        a = HALF_WIDTH * 2.0 * math.pi / int(OVERSAMPLING * m)
        step = a * (np.arange(m) - m // 2) / KERNEL_NODES
        turn = np.exp(1j * step)
        wave = np.exp(0.5j * step)
        phi = np.zeros(m)
        for j in range(KERNEL_NODES):
            z = (j + 0.5) / KERNEL_NODES
            phi += math.exp(ES_BETA * (math.sqrt(1.0 - z * z) - 1.0)) * wave.real
            wave *= turn
        phi *= a / (math.pi * KERNEL_NODES)
        return self.spacing / phi

    def fourier_groups(
        self, values: np.ndarray, times: np.ndarray
    ) -> Iterator[tuple[int, np.ndarray]]:
        """(first column, sums) for each group of FFT_COLUMNS columns of the
        2-d values: sum_k e^{-i delta_k t} d values_k at each t, shape
        (len(times), group width).

        The times may be any reals: the sum is one type-2 non-uniform FFT by
        gridding with the exponential-of-semicircle kernel
        phi(z) = e^{beta (sqrt(1 - z^2) - 1)}, |z| < 1 (Barnett, Magland and
        af Klinteberg, SIAM J. Sci. Comput. 41, C479, 2019).  With centred
        mode numbers k and delta_k = delta_c + k d the sum is
        e^{-i delta_c t} f(d t), where f(x) = sum_k c_k e^{-i k x}.  On the
        FFT grid of L = int(R M) nodes y_m = 2 pi m / L (R = OVERSAMPLING),
        the kernel phi((x - y) / a), a = HALF_WIDTH x 2 pi / L, spans
        2 HALF_WIDTH nodes and has the Fourier coefficients phi_k; dividing
        c_k by them (deconvolution), one FFT of length L gives h on the
        nodes, and f(x) = sum_m h(y_m) phi((x - y_m) / a) / L over the
        2 HALF_WIDTH nodes nearest x.  beta = ES_BETA balances the aliasing
        of the FFT grid against the kernel's truncation; against the direct
        sum the error reads 3e-14 to 7e-14 of sum_k |d values_k|.

        The groups are transformed in place, one row per column, in one block
        that is reused for every group; each row's first 2 HALF_WIDTH - 1
        nodes repeat after it, so each time's nodes are one contiguous window
        of each row.  They are interpolated TIME_BLOCK times at a time, so
        the gathered nodes never exceed TIME_BLOCK x 2 HALF_WIDTH x
        FFT_COLUMNS.  Every group is written to one reused buffer, so a group
        is valid until the next is asked for, and a caller that reduces each
        group as it comes holds no len(times) x columns array.
        """
        times = np.asarray(times, dtype=float)
        m = self.n_points
        length = int(OVERSAMPLING * m)
        h = m // 2
        weights = self.deconvolution
        width = 2 * HALF_WIDTH

        # x in units of the node spacing, and the first of the width nodes
        # nearest it: y_m = 2 pi m / L for m = start .. start + width - 1 (mod L)
        x = np.mod(self.spacing * times, 2.0 * math.pi) * (length / (2.0 * math.pi))
        nearest = np.floor(x)
        start = (nearest.astype(np.intp) + 1 - HALF_WIDTH) % length
        # phi(z) / L at z = (x - m) / HALF_WIDTH, in [-1, 1] on those nodes,
        # taken in place as one (width, 1) column per time, for a batched
        # matmul against the gathered (columns, width) nodes
        kernel = (x - nearest)[:, None, None] - np.arange(1 - HALF_WIDTH, HALF_WIDTH + 1)[:, None]
        kernel /= HALF_WIDTH
        np.square(kernel, out=kernel)
        np.subtract(1.0, kernel, out=kernel)
        np.sqrt(kernel, out=kernel)
        kernel *= ES_BETA
        kernel -= ES_BETA + math.log(length)
        np.exp(kernel, out=kernel)
        shift = np.exp(-1j * (self.delta_min + h * self.spacing) * times)[:, None]

        # one row of the FFT grid per value column, whose first width - 1
        # nodes repeat after it, so that the width nodes from any start are
        # one contiguous window of each row
        rows = np.empty((min(FFT_COLUMNS, values.shape[1]), length + width - 1), dtype=complex)
        windows = sliding_window_view(rows, width, axis=1).transpose(1, 0, 2)
        group = np.empty((len(times), len(rows)), dtype=complex)
        for lo in range(0, values.shape[1], FFT_COLUMNS):
            block = rows[: min(FFT_COLUMNS, values.shape[1] - lo)]
            grid = block[:, :length]
            cols = values[:, lo : lo + FFT_COLUMNS].T
            # modes 0 .. m-h-1 fill the slots [0, m-h), modes -h .. -1 the
            # slots [length-h, length); the gap between them stays zero
            np.multiply(cols[:, h:], weights[h:], out=grid[:, : m - h])
            grid[:, m - h : length - h] = 0.0
            np.multiply(cols[:, :h], weights[:h], out=grid[:, length - h :])
            np.fft.fft(grid, axis=1, out=grid)
            block[:, length:] = grid[:, : width - 1]
            sums = group[:, : len(block)]
            for t0 in range(0, len(times), TIME_BLOCK):
                span = slice(t0, t0 + TIME_BLOCK)
                # no name holds the gathered nodes, so one time block's are
                # freed before the next block's are gathered
                sums[span] = (windows[start[span], : len(block)] @ kernel[span])[..., 0]
            sums *= shift
            yield lo, sums


@dataclass(frozen=True)
class DelayedTerms:
    """Delayed poles, one sum per row r over its terms j:

        f_r(delta) = sum_j e^{i delta d_rj} [s_rj / (delta - lam0) + q_rj / (delta - lam0)^2]

    with delays d_rj >= 0, step weights s, ramp weights q and Im(lam0) < 0.
    transform gives their exact Fourier integral, the limit of
    SpectralGrid.fourier_sum over an infinite span:

        int d delta e^{-i delta t} f_r(delta)
            = -2 pi i sum_j [s_rj - i q_rj (t - d_rj)] e^{-i lam0 (t - d_rj)} theta(t - d_rj),

    a set of delayed steps and ramps.  Each step is causal: on from its delay,
    theta(0) = 1 (a ramp is zero there).
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

    def projected(
        self, weights: np.ndarray, delays: Union[float, np.ndarray] = 0.0
    ) -> DelayedTerms:
        """Rows sum_a weights[r, a] e^{i delta delays[r, a]} f_a: row r holds
        every input row a's terms, weighted by weights[r, a] and delayed by
        delays[r, a] (>= 0) more.  A 1-d weights is one row."""
        w = np.atleast_2d(weights)[:, :, None]
        extra = np.broadcast_to(delays, w.shape[:2])[:, :, None]
        return DelayedTerms(
            (self.delays + extra).reshape(len(w), -1),
            (w * self.steps).reshape(len(w), -1),
            (w * self.ramps).reshape(len(w), -1),
            self.lam0,
        )

    def transform(self, times: np.ndarray, into: Optional[np.ndarray] = None) -> np.ndarray:
        """The exact transform at each time, shape (len(times), rows); added
        in place to into, and into returned, when it is given.

        e^{-i lam0 (t - d)} = e^{-i lam0 (t - a)} e^{i lam0 (d - a)} for any
        anchor a, so with each row's delays sorted, a time reads the
        cumulative sums of s e^{i lam0 (d - a)}, q e^{i lam0 (d - a)} and
        q (d - a) e^{i lam0 (d - a)} over the delays below it:
        O(rows (terms + n_t) log terms), with no rows x terms x n_t array.  A
        delay equal to a time counts whole (theta(0) = 1).  The anchors keep
        every factor in range: a term is measured from the start a of its bin
        of delays, bins GROWTH_MAX / |Im lam0| wide from 0, so that
        |e^{i lam0 (d - a)}| <= e^GROWTH_MAX, and each bin's sums start from
        the earlier bins' carried to its start.  With more than one bin, a
        time reads the sums measured from the last delay below it, so its
        e^{-i lam0 (t - d)} underflows only with the value itself; with one
        (every delay below GROWTH_MAX / |Im lam0|), the anchor is 0.
        e^{-i lam0 t} is taken at max(t, 0), where it cannot overflow: every
        delay is >= 0, so a time before 0 reads exactly 0.
        """
        if into is None:
            into = np.zeros((len(times), len(self.delays)), dtype=complex)
        return self.transformer(times)(slice(None), into)

    def transformer(self, times: np.ndarray) -> Callable[[slice, np.ndarray], np.ndarray]:
        """transform at the times, with the delays sorted and summed once:
        the function returned adds the transform of the rows in a slice to
        into (len(times) x those rows) in place, row by row, and returns
        into.  A stream of row groups reads every row as one transform does,
        bit for bit."""
        times = np.asarray(times, dtype=float)
        t_last = float(np.max(times, initial=0.0))
        sort = np.argsort(self.delays, axis=1)
        d = np.take_along_axis(self.delays, sort, axis=1)
        # a term starting after the last time is never read; capping its delay
        # keeps its factor in range
        capped = np.minimum(d, t_last)
        width = GROWTH_MAX / -self.lam0.imag
        bins = np.floor(capped / width)
        start = width * bins
        since = capped - start
        grow = np.exp(1j * self.lam0 * since)
        s = np.take_along_axis(self.steps, sort, axis=1) * grow
        q = np.take_along_axis(self.ramps, sort, axis=1) * grow
        terms = np.stack([s, q, q * since], axis=1)
        sums = np.zeros((len(d), 3, d.shape[1] + 1), dtype=complex)
        last = int(np.max(bins, initial=0.0))
        for b in range(last + 1):
            inside = (bins == b)[:, None]
            part = np.cumsum(np.where(inside, terms, 0.0), axis=2)
            if b:
                part += carry[:, :, None]
            np.copyto(sums[:, :, 1:], part, where=inside)
            if b < last:
                # every term so far, measured from the next bin's start
                a, bq, bd = np.moveaxis(part[:, :, -1], 1, 0)
                carry = np.stack([a, bq, bd - width * bq], axis=1)
                carry *= np.exp(-1j * self.lam0 * width)
        factor = -2j * math.pi * np.exp(-1j * self.lam0 * np.maximum(times, 0.0))
        if last:
            # the delay and bin start of each row's last term on, 0 before its first
            latest, anchors = (np.pad(a, ((0, 0), (1, 0))) for a in (capped, start))

        def add(span: slice, into: np.ndarray) -> np.ndarray:
            row_factor, elapsed = factor, times
            for j, r in enumerate(range(len(d))[span]):
                on = np.searchsorted(d[r], times, side="right")
                s_sum, q_sum, qd_sum = np.take(sums[r], on, axis=1)
                if last:
                    # the sums measured from the last delay on, not its bin's start
                    back = latest[r, on] - anchors[r, on]
                    shift = np.exp(-1j * self.lam0 * back)
                    s_sum, q_sum, qd_sum = s_sum * shift, q_sum * shift, (qd_sum - back * q_sum) * shift
                    elapsed = times - latest[r, on]
                    row_factor = -2j * math.pi * np.exp(-1j * self.lam0 * np.maximum(elapsed, 0.0))
                column = s_sum - 1j * (elapsed * q_sum - qd_sum)
                column *= row_factor
                into[:, j] += column
            return into

        return add


@dataclass
class ResolventSet:
    """The resolvent sweep over a grid, in the form the time synthesis reads.

    x[i] is the resolvent x(deltas[i]) less its pole psi0 / (delta - lam0)
    and delayed second-order term [H(delta) - lam0] psi0 / (delta - lam0)^2,
    whose exact transform is ramps (rows: atoms; terms: the atoms psi0
    occupies, the pole their zero-delay steps); resolvent() restores them.
    x is the (M, N) transpose view of one atom-major block, so a column of x
    is a contiguous row in memory.

    outgoing[i] holds the guided fields leaving the chain at deltas[i]:
    sum_a e^{ik(z_N - z_a)} x_a past the last atom (column 0) and
    sum_a e^{ik(z_a - z_1)} x_a past the first (column 1), with k the
    wavenumber of the sweep's kernel.  lead[i] is the same fields of the
    subtracted terms; their exact transform, the pulse fronts, is ramps
    carried to each end (emission_spectrum), where slowness is the light's
    travel time per unit length: 1/v_g on the retarded kernel, 0 on the
    resonant one.
    """

    grid: SpectralGrid
    x: np.ndarray  # shape (n_points, n_atoms)
    outgoing: np.ndarray  # shape (n_points, 2)
    lead: np.ndarray  # shape (n_points, 2)
    ramps: DelayedTerms
    slowness: float
    residual_max: float = 0.0

    @property
    def deltas(self) -> np.ndarray:
        return self.grid.deltas

    def resolvent(self) -> np.ndarray:
        """The full resolvent [delta - H(delta)]^{-1} psi0, shape (M, N); its
        leading terms are summed directly, so this is for small grids."""
        return self.x + self.ramps.samples(self.deltas)

    @property
    def arrival(self) -> np.ndarray:
        """When the excitation can first reach each atom: min_b |z_a - z_b| / v_g
        over the atoms b psi0 occupies (0 for those, and for every atom on the
        resonant kernel)."""
        return self.ramps.delays.min(axis=1)

    def projected(self, bra: np.ndarray) -> ResolventSet:
        """The sweep of the one amplitude <bra|b> = sum_a bra_a b_a: the column
        x bra, with ramps projected the same way."""
        return replace(self, x=(self.x @ bra)[:, None], ramps=self.ramps.projected(bra))


def _smooth(n: int) -> bool:
    """Whether n has no prime factor above 5, so pocketfft takes its FFT fast."""
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def build_grid(
    gamma_fast: float,
    t_max: float,
    span_factor: float = 20.0,
    doublings: int = 0,
) -> SpectralGrid:
    """Smallest grid satisfying the span and spacing rules, with its points
    doubled doublings times.

    Span: at least +/- span_factor * Gamma_fast, with span_factor at least
    MIN_SPAN_FACTOR.  Spacing: at most 2 pi / (2 t_max), so that the
    alias-free window is at least 2 t_max.  The discrete sum aliases
    b(t + W) onto t, so for a decaying b the window need only hold
    [-t_max, t_max]: a leak probe at -t reads b(W - t), t_max <= W - t < W,
    which bounds the alias at positive times (synthesis_leak).  The window
    pi (M - 1) / half_span reaches 2 t_max at M = 1 + 2 half_span t_max / pi;
    from there M steps to the first even size whose FFT grid
    int(OVERSAMPLING x M) has no prime factor above 5, and on past any size
    whose window, compared as time_domain computes it, falls an ulp short.
    Both M and the doubled size are checked against MAX_GRID_POINTS before
    any array is made.  Each doubling halves the spacing, so it more than
    doubles the window.
    """
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    if not gamma_fast > 0:
        raise ValueError("the fastest rate gamma_fast must be positive")
    if not span_factor >= MIN_SPAN_FACTOR:
        raise ValueError(f"span_factor must be at least {MIN_SPAN_FACTOR:g}")
    half_span = span_factor * gamma_fast
    # the FFT grid holds the kernel's 2 HALF_WIDTH nodes at least
    least = max(2.0 * HALF_WIDTH, 1.0 + 2.0 * half_span * t_max / math.pi)
    cap = MAX_GRID_POINTS >> doublings
    n_points = math.ceil(min(least, cap + 1))
    n_points += n_points % 2
    while n_points <= cap and not (
        _smooth(int(OVERSAMPLING * n_points))
        and SpectralGrid(-half_span, half_span, n_points).alias_window >= 2.0 * t_max
    ):
        n_points += 2
    if n_points > cap:
        raise GridResolutionError(
            f"the grid points for an alias-free window of {2.0 * t_max:.3g} "
            f"exceed the cap {MAX_GRID_POINTS}; reduce t_max or the system size"
        )
    return SpectralGrid(-half_span, half_span, n_points << doublings)


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
    Last it takes the two leading terms of x, in place: the second-order
    [H(delta) - lam0] psi0 / u^2 = -c F(psi0) / u^2 (u = delta - lam0), from
    one more guided pass of psi0, and on the rows psi0 occupies the pole
    psi0 / u; they are subtracted from x.  Returns (outgoing, residual, lead):
    lead is the fields of the subtracted terms leaving the chain.
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
    _guided_fields(psi[:, None], distinct, row, work)
    np.multiply(work, -0.5j * params.gamma_wg * inv**2, out=work)
    for a in np.flatnonzero(psi):
        work[a] += psi[a] * inv
    np.subtract(x, work, out=x)
    return outgoing, res_max, _leaving(work, distinct, row)


def resolvent_sweep(
    array: AtomArray,
    params: PhysParams,
    psi0: StateVector,
    grid: SpectralGrid,
    retarded: bool = True,
    workers: int = 1,
) -> ResolventSet:
    """One verified resolvent solve, and the fields leaving the chain, per
    grid point: the largest residual takes dynamics.check_residual's gate
    (RESIDUAL_TOL), which raises NumericalError.

    Both kernels take the O(N) scattering solve (scattering_sweep) of the
    guided-only H(delta) of the array; retarded only picks the wavenumber,
    k(delta) or the constant k_wg.  No N x N matrix is formed: the uniform
    pole lam0 = -i gamma_tot/2 and the delayed couplings (guided_exchange of
    the pair distances to the atoms psi0 occupies) are all the two leading
    terms need.  They are returned as ramps, with the kernel's slowness, and
    as no other table: emission_spectrum projects ramps onto the chain ends
    for the pulse fronts.  The grid is split into
    ceil(M / SCATTER_CHUNK) equal chunks (M * i // chunks apart, as
    model.write_csv splits its blocks), so the sweep holds x and, while a
    chunk is solved in its slice of x (_scatter_chunk), one N x chunk work
    buffer, at most N x SCATTER_CHUNK.  Grid points are independent; with
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

    def work(span):
        chunk = deltas[span]
        k = params.k_of(chunk) if retarded else params.k_wg
        outgoing[span], res, lead[span] = _scatter_chunk(
            chunk, k, array.positions, params, psi, block[:, span]
        )
        return res

    n_chunks = -(-len(deltas) // SCATTER_CHUNK)
    bounds = [len(deltas) * i // n_chunks for i in range(n_chunks + 1)]
    chunks = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    if workers > 1:
        # imported only where a pool runs: a serial sweep loads no thread pool
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            res_max = max(pool.map(work, chunks))
    else:
        res_max = max(map(work, chunks))

    check_residual(res_max, psi, "resolvent", "the frequency-domain Hamiltonian is inconsistent")
    lam0 = -0.5j * params.gamma_tot  # every atom carries the same width
    # The couplings H_ab(delta) = H_ab(0) e^{i delta |z_a - z_b| / v_g} delay
    # the second-order term by |z_a - z_b| / v_g, over the atoms b psi0
    # occupies; none are delayed on the resonant kernel.  The pole is the
    # undelayed step psi0_b on atom b itself.
    z = array.positions
    occupied = np.flatnonzero(psi)
    slowness = 1.0 / params.v_g if retarded else 0.0
    pair = np.abs(z[:, None] - z[occupied])
    couplings = guided_exchange(pair, params) * psi[occupied]
    steps = np.zeros_like(couplings)
    diagonal = occupied, np.arange(len(occupied))
    couplings[diagonal] = 0.0  # (H0 - lam0)_aa = 0
    steps[diagonal] = psi[occupied]
    return ResolventSet(
        grid=grid,
        x=block.T,
        outgoing=outgoing,
        lead=lead,
        ramps=DelayedTerms(slowness * pair, steps, couplings, lam0),
        slowness=slowness,
        residual_max=res_max,
    )


@dataclass
class SweptTrajectory:
    """b(t) on a time grid, kept as the part of its sweep it is synthesised
    from: x, its grid, its ramps and (for the run's checks) its residual.

    blocks() synthesises it FFT_COLUMNS atoms at a time on every time: one
    column group of the Fourier sum of x (SpectralGrid.fourier_groups) plus
    the group's ramps, so reading it holds one n_t x FFT_COLUMNS group,
    never the n_t x N array.  The ramps are sorted and summed once per read
    (DelayedTerms.transformer).  Each group is synthesised at the probes as
    well, extra times before every arrival that blocks() does not hand on,
    and a full read sets leak: synthesis_leak of every group at the probes
    and at t, NaN until then.  amplitudes and population build the whole
    n_t x N array, for callers that want it whole.
    """

    t: np.ndarray
    x: np.ndarray  # shape (n_points, n_atoms), as ResolventSet.x
    grid: SpectralGrid
    ramps: DelayedTerms
    residual_max: float
    probes: np.ndarray = field(default_factory=lambda: np.empty(0))
    leak: float = field(default=math.nan, init=False)

    @property
    def n_atoms(self) -> int:
        return self.x.shape[1]

    def _groups(self, times: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
        """(atoms, b of those atoms at times) for each column group."""
        add_ramps = self.ramps.transformer(times)
        for lo, amps in self.grid.fourier_groups(self.x, times):
            atoms = slice(lo, lo + amps.shape[1])
            add_ramps(atoms, amps)
            amps *= -1.0 / (2.0j * math.pi)
            yield atoms, amps

    @property
    def amplitudes(self) -> np.ndarray:
        out = np.empty((len(self.t), self.n_atoms), dtype=complex)
        for atoms, amps in self._groups(self.t):
            out[:, atoms] = amps
        return out

    population = ModalTrajectory.population
    arrival = ResolventSet.arrival

    def blocks(self) -> Iterator[tuple[slice, slice, np.ndarray]]:
        """(times, atoms, rows) of the amplitudes: every time, FFT_COLUMNS
        atoms at a time, each rows valid until the next is asked for."""
        self.leak = math.nan
        times = np.concatenate([self.probes, self.t])
        arrival = self.arrival
        leaks = []
        for atoms, amps in self._groups(times):
            leaks.append(synthesis_leak(arrival[atoms], times, amps))
            yield slice(0, len(self.t)), atoms, amps[len(self.probes) :]
        self.leak = float(np.max(leaks, initial=0.0))


def time_domain(
    slices: ResolventSet, t_grid: np.ndarray, probes: np.ndarray = ()
) -> SweptTrajectory:
    """b(t) on t_grid from the resolvent slices by the discrete sum,
    evaluated at any t_grid by the grid's non-uniform FFT (fourier_groups),
    and kept as the x, grid and ramps of its sweep until it is read
    (SweptTrajectory); probes are the extra times that its read checks the
    leak at.

    The sweep has removed the two leading large-detuning terms of x(delta)
    (see module docstring), so only the O(1/delta^3) remainder is summed
    numerically, and the exact transform of the removed terms, slices.ramps,
    is added in place to each column group: b(0) = psi0 holds by
    construction (the steps are causal) and negative times probe pure window
    leakage (causality).  A projected sweep (ResolventSet.projected) gives
    its one amplitude.

    The times must lie within half the alias-free window W, which build_grid
    makes at least 2 t_max.  The sum is periodic in W, so it adds b(t + W) to
    b(t): small only if b has decayed by t_max, which the leak at -t, b(W - t),
    bounds (synthesis_leak).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    probes = np.asarray(probes, dtype=float)
    half_window = 0.5 * slices.grid.alias_window
    if np.any(np.abs(np.concatenate([probes, t_grid])) > half_window):
        raise ValueError(
            f"requested times extend beyond the alias-free window +/-{half_window:.3g}"
        )
    return SweptTrajectory(t_grid, slices.x, slices.grid, slices.ramps, slices.residual_max, probes)


def synthesis_leak(arrival: np.ndarray, t: np.ndarray, amplitudes: np.ndarray) -> float:
    """The largest |b_a(t)| of synthesised amplitudes (one column per atom a)
    at the times t before the excitation can reach atom a, arrival[a]
    (ResolventSet.arrival).  b_a vanishes there exactly, so this is pure
    window error: the negative times for every atom, and on the retarded
    kernel the times before the light reaches each atom psi0 does not
    occupy.
    """
    early = t[:, None] < arrival
    return float(np.max(np.abs(amplitudes), where=early, initial=0.0))

"""Markovian time evolution and the excitation-probability bookkeeping.

b(t) = exp(-i H t) psi0 via the one eigendecomposition of the complex
symmetric H (modal_expansion), which the superradiant overlap reads too.
modal_expansion raises NumericalError on eigenvectors too ill-conditioned for
it (CONDITION_MAX) and on a modal residual over RESIDUAL_TOL, as the resonant
kernel has no other route, so every ModalExpansion is usable; the sweep's
resolvent residual takes the same gate (check_residual).  evolve_markovian
keeps b(t) as its modal expansion (ModalTrajectory), and probabilities takes
its pole sums CHUNK times at a time, so no n_t x N array is built: the poles
route holds H, V and N x CHUNK blocks.  The sweep route's trajectory
(spectral.SweptTrajectory) is read the other way round, every time of a
group of atoms at a time, through the same loop.  The probability series
tracks p, p0, p_a and the cumulative energy emitted into each decay channel.
Under the resonant kernel the directional guided fluxes follow from the
rank-2 structure of the coherent channel:

    Phi_+/- (t) = (Gamma_wg / 2) |sum_a e^{-/+ i k_wg z_a} b_a(t)|^2 ,

which is |alpha(t)|^2, the intensity of the field leaving the chain past its
last (+) or first (-) atom.  Under the retarded kernel light in flight
between the atoms is not in b, so the caller passes the outflow |alpha(t)|^2
itself (input-output theory: Caneva et al., New J. Phys. 17, 113001, 2015),
and 1 - p - sum E is the photon still inside the chain.

The fluxes are integrated by the cumulative Simpson rule for unequal
intervals (Cartwright, J. Math. Sci. Math. Educ. 12, 2017), written here in
numpy.  No run imports scipy; only _evolve_expm, the stepwise matrix
exponential that the tests use as the dense oracle, does.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .model import AtomArray, PhysParams, StateVector, write_csv

# Eigenvector condition number beyond which the modal expansion is unusable
# (near-defective spectra).
CONDITION_MAX = 1e8
# Largest resolvent (or modal) residual, relative to |psi0|.
RESIDUAL_TOL = 1e-10

# Relative gap below which superradiant_overlap treats the fastest decay rates
# as one degenerate cluster.
DEGENERACY_TOL = 1e-8

# Rows per block of a table over the poles built directly (pole_sums on a
# non-uniform grid, the blocks of a ModalTrajectory).
CHUNK = 128


class NumericalError(RuntimeError):
    """No trustworthy result: an unusable expansion, a failed pole check, or a
    residual over its gate."""


def check_residual(residual: float, psi: np.ndarray, source: str, cause: str) -> None:
    """Raise when a residual exceeds RESIDUAL_TOL * |psi0|, naming its source and cause."""
    if residual > RESIDUAL_TOL * float(np.linalg.norm(psi)):
        raise NumericalError(
            f"{source} residual {residual:.3g} exceeds {RESIDUAL_TOL:g} * |psi0|; {cause}"
        )


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
        """|p + all cumulative channels - 1| at every time; under the retarded
        kernel, the photon still in flight inside the chain."""
        total = self.p + self.e_left + self.e_right + self.e_raman + self.e_ext
        return np.abs(total - 1.0)

    def to_csv(self, path) -> None:
        write_csv(
            path,
            ["t", "p", "p0", "pa", "E_left", "E_right", "E_raman", "E_ext"],
            [self.t, self.p, self.p0, self.pa,
             self.e_left, self.e_right, self.e_raman, self.e_ext],
        )


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


def _evolve_expm(ham: np.ndarray, psi0: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Stepwise scaling-and-squaring propagation: the tests' oracle; no run calls it."""
    from scipy.linalg import expm

    amps = np.empty((len(t_grid), len(psi0)), dtype=complex)
    b = psi0.astype(complex)
    t_prev = t_grid[0]
    if t_prev != 0.0:
        b = expm(-1j * ham * t_prev) @ b
    amps[0] = b
    for i, t in enumerate(t_grid[1:], start=1):
        b = expm(-1j * ham * (t - t_prev)) @ b
        amps[i] = b
        t_prev = t
    return amps


def _uniform_step(t: np.ndarray) -> Optional[float]:
    """The step s of a grid that t[0] + s * arange(n) reproduces to a few ulps
    of max |t|; None for any other grid."""
    n = len(t)
    step = (t[-1] - t[0]) / (n - 1) if n > 1 else 0.0
    tol = 4.0 * np.spacing(np.max(np.abs(t)))
    return step if np.all(np.abs(t[0] + step * np.arange(n) - t) <= tol) else None


def _direct_blocks(
    poles: np.ndarray, weights: np.ndarray, t: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, sums) for each block of CHUNK times: the direct
    e^{-i lambda t} table of the block times W^T, shape (rows, len(W))."""
    phases = -1j * poles
    for lo in range(0, len(t), CHUNK):
        block = np.outer(t[lo : lo + CHUNK], phases)
        np.exp(block, out=block)
        yield lo, block @ weights.T


def pole_sums(poles: np.ndarray, weights: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_j W_rj e^{-i lambda_j t} at each time, shape (len(t), rows).

    weights W has one row per sum (a 1-D W is one row) and one column per
    pole.  On a uniform grid t_m = t_0 + m s, with m = b K + k and
    K = ceil(sqrt(n)), every phase factorises as
    e^{-i lambda (t_0 + b K s)} e^{-i lambda k s}: two tables of about
    sqrt(n) rows each, and one product of them per row of W.  Any other grid
    builds the direct e^{-i lambda t} table CHUNK rows at a time, the blocks
    a ModalTrajectory streams.  Neither path holds a len(t) x len(poles)
    table; a caller that only reduces the sums reads those blocks instead of
    this len(t) x len(W) result.
    """
    poles = np.asarray(poles)
    weights = np.atleast_2d(weights)
    t = np.asarray(t, dtype=float)
    n = len(t)
    out = np.empty((n, len(weights)), dtype=complex)
    if n == 0:
        return out
    step = _uniform_step(t)
    if step is None:
        for lo, sums in _direct_blocks(poles, weights, t):
            out[lo : lo + CHUNK] = sums
        return out
    size = math.isqrt(n - 1) + 1
    fine = np.exp(np.outer(step * np.arange(size), -1j * poles))
    coarse = np.exp(np.outer(t[0] + step * np.arange(0, n, size), -1j * poles))
    for r, w in enumerate(weights):
        # entry (b, k) is the sum at t_{bK+k}; the last block overhangs t
        out[:, r] = (coarse @ (fine * w).T).ravel()[:n]
    return out


@dataclass
class ModalExpansion:
    """psi0 = V c over the right eigenvectors V of a resonant H = V Lambda V^-1.

    Every resonant quantity is a pole sum over it: b(t) = V e^{-i Lambda t} c
    and x(delta) = [delta - H]^-1 psi0 = V (delta - Lambda)^-1 c.  residual is
    max(|H V - V Lambda|, |V c - psi0|), the largest column norm of the first.
    Only modal_expansion builds one, and only once condition and residual
    have passed their gates.  Each sum over the poles is taken on its own
    time grid (pole_sums, or a ModalTrajectory's blocks); nothing is cached
    here.
    """

    evals: np.ndarray
    vecs: np.ndarray
    condition: float
    coeffs: np.ndarray
    residual: float

    def resolvent(self, deltas: np.ndarray) -> np.ndarray:
        """x(delta) at each detuning, shape (len(deltas), n_atoms)."""
        deltas = np.asarray(deltas, dtype=float)
        return (self.coeffs / (deltas[:, None] - self.evals)) @ self.vecs.T


def modal_expansion(ham: np.ndarray, psi0: StateVector) -> ModalExpansion:
    """Expand psi0 on the right eigenvectors of a resonant H, from its one eig.

    Raises NumericalError when the eigenvector condition number exceeds
    CONDITION_MAX or the residual fails check_residual.
    """
    if not np.all(np.isfinite(ham)):
        raise NumericalError("effective Hamiltonian contains non-finite entries")
    evals, vecs = np.linalg.eig(ham)
    cond = float(np.linalg.cond(vecs))
    if not np.isfinite(cond) or cond > CONDITION_MAX:
        raise NumericalError(
            f"eigenvector condition number {cond:.3g} exceeds "
            f"CONDITION_MAX = {CONDITION_MAX:g}: the modal expansion is unusable; "
            "--method spectral takes the resolvent sweep, which needs no eig"
        )
    psi = psi0.amplitudes
    coeffs = np.linalg.solve(vecs, psi)
    residual = max(
        float(np.max(np.linalg.norm(ham @ vecs - vecs * evals, axis=0))),
        float(np.linalg.norm(vecs @ coeffs - psi)),
    )
    check_residual(residual, psi, "modal", "the eigenpairs do not reproduce H and psi0")
    return ModalExpansion(evals, vecs, cond, coeffs, residual)


@dataclass
class ModalTrajectory:
    """b(t) = V e^{-i Lambda t} c on a time grid, kept as its modal expansion.

    blocks() takes the pole sums with weights V_aj c_j CHUNK times at a time
    (_direct_blocks), so reading it holds one N x CHUNK block, never the
    n_t x N array; amplitudes and population build that array, for callers
    that want it whole.
    """

    t: np.ndarray
    modes: ModalExpansion

    @property
    def n_atoms(self) -> int:
        return len(self.modes.coeffs)

    @property
    def amplitudes(self) -> np.ndarray:
        return pole_sums(self.modes.evals, self.modes.vecs * self.modes.coeffs, self.t)

    @property
    def population(self) -> np.ndarray:
        return np.sum(np.abs(self.amplitudes) ** 2, axis=1)

    def blocks(self) -> Iterator[tuple[slice, slice, np.ndarray]]:
        """(times, atoms, rows) of the amplitudes: CHUNK times at a time,
        every atom."""
        atoms = slice(0, self.n_atoms)
        weights = self.modes.vecs * self.modes.coeffs
        for lo, rows in _direct_blocks(self.modes.evals, weights, self.t):
            yield slice(lo, lo + len(rows)), atoms, rows


def evolve_markovian(modes: ModalExpansion, t_grid: np.ndarray) -> ModalTrajectory:
    """Propagate psi0 under the resonant H of its modal expansion.

    b(t) is the pole sum with weights V_aj c_j, one row per atom.  Nothing is
    summed here: the ModalTrajectory takes its sums when it is read
    (probabilities reads it block by block).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("time grid must start at 0 and be strictly increasing")
    return ModalTrajectory(t=t_grid, modes=modes)


def _simpson_steps(y: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Integral over [t_i, t_i+1] of the parabola through samples i, i+1, i+2.

    Eq. (8) of Cartwright (2017) for unequal intervals h1 = dt[i], h2 = dt[i+1].
    """
    h1, h2 = dt[:-1], dt[1:]
    r31 = h1 / (h1 + h2)
    w = r31 * (h1 / h2)
    return h1 / 6 * ((3 - r31) * y[:-2] + (3 + w + r31) * y[1:-1] - w * y[2:])


def _cumulative(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Running integral of y over t from 0, by the cumulative Simpson rule.

    Interval i takes the parabola through points i..i+2 when i is even and
    through i-1..i+1 when i is odd; the last interval always takes the one
    ending on it.  This is scipy's cumulative_simpson(y, x=t, initial=0),
    and two samples take the trapezoid.
    """
    dt = np.diff(t)
    if len(t) < 3:
        steps = dt * (y[1:] + y[:-1]) / 2.0
    else:
        ahead = _simpson_steps(y, dt)
        behind = _simpson_steps(y[::-1], dt[::-1])[::-1]
        steps = np.empty(len(dt))
        steps[:-1:2] = ahead[::2]
        steps[1::2] = behind[::2]
        steps[-1] = behind[-1]
    return np.concatenate(([0.0], np.cumsum(steps)))


def probabilities(
    traj,
    psi0: StateVector,
    array: AtomArray,
    params: PhysParams,
    fluxes: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> ProbabilitySeries:
    """Project the trajectory onto p, p0, p_a and integrate the channel fluxes.

    The trajectory is read block by block: traj.blocks() gives
    (times, atoms, b) with b the amplitudes of those atoms at those times.
    A ModalTrajectory gives CHUNK times of every atom at a time, so the poles
    route's pole sums are taken here; a spectral.SweptTrajectory gives every
    time of FFT_COLUMNS atoms at a time, so the sweep route's synthesis is
    taken here.  Each block adds its atoms' share to p and p_a from one
    |b|^2, and to p0's amplitude and the two resonant guided fluxes Phi_+/-
    from one projection of b onto (psi0, e^{-i k_wg z}, e^{+i k_wg z}).
    fluxes are the (right, left) guided outflows on traj.t that replace
    Phi_+/-: the retarded pipeline passes |alpha|^2 of the fields leaving
    the chain.  The external flux is gamma_ext p: each atom loses gamma_ext
    to the non-guided modes on its own.
    """
    if traj.n_atoms != psi0.n_atoms or psi0.n_atoms != array.n_atoms:
        raise ValueError("trajectory, initial state and geometry sizes disagree")
    phase = np.exp(-1j * params.k_wg * array.positions)
    # a stack of three (N, 1) columns: matmul takes one matrix-vector product
    # of b with each, which sums as b @ vector does
    bras = np.stack([np.conj(psi0.amplitudes), phase, np.conj(phase)])[:, :, None]
    n = len(traj.t)
    p, pa, projected = np.zeros(n), np.zeros(n), np.zeros((3, n), dtype=complex)
    for rows, atoms, b in traj.blocks():
        # the emitters among these atoms, counted from the first of them
        emitters = slice(
            max(array.emitter_start - atoms.start, 0), max(array.emitter_stop - atoms.start, 0)
        )
        b2 = np.abs(b) ** 2
        p[rows] += np.sum(b2, axis=1)
        pa[rows] += np.sum(b2[:, emitters], axis=1)
        del b2  # before the next block is made
        projected[:, rows] += np.matmul(b, bras[:, atoms])[:, :, 0]
    p0, s_plus, s_minus = np.abs(projected) ** 2
    half = 0.5 * params.gamma_wg
    phi_plus, phi_minus = (half * s_plus, half * s_minus) if fluxes is None else fluxes
    e_right = _cumulative(phi_plus, traj.t)
    e_left = _cumulative(phi_minus, traj.t)
    e_raman = _cumulative(params.gamma_raman * p, traj.t)
    e_ext = _cumulative(params.gamma_ext * p, traj.t)
    return ProbabilitySeries(traj.t, p, p0, pa, e_left, e_right, e_raman, e_ext)


def superradiant_overlap(modes: ModalExpansion, psi0: StateVector) -> float:
    """Weight of the initial state on the fastest-decaying collective mode of
    the expansion's eigensystem.

    Modal amplitudes of the non-Hermitian H come from the biorthogonal (left
    eigenvector) expansion; with right eigenvectors v normalised to unit
    Euclidean norm the reported overlap is |v^T psi0| |v^dagger psi0| / |v^T v|,
    which reduces to the plain projection |<v|psi0>|^2 for real modes.  A
    degenerate fastest decay rate (within DEGENERACY_TOL, relative) sums the
    projection over the cluster and emits a warning.
    """
    rates = -2.0 * modes.evals.imag
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
        v = modes.vecs[:, idx]
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

"""Non-Hermitian effective Hamiltonian of the single-excitation manifold.

The waveguide mediates an infinite-range exchange -(i/2) Gamma_wg e^{i k |z_a - z_b|}
between atoms; the diagonal carries the full single-atom width.  Frequencies are
detunings from the bare atomic resonance, so identical atoms have zero real
diagonal.  The anti-Hermitian part splits exactly into three decay channels:
a rank-2 coherent guided matrix, a per-atom guided Raman rate, and the
per-atom external rate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .model import AtomArray, GeometryError, MIN_SEPARATION, PhysParams


@dataclass
class EffectiveHamiltonian:
    """Complex symmetric N x N matrix and the kernel it was built with."""

    matrix: np.ndarray
    retarded: bool = False
    includes_free_space: bool = False

    @property
    def n_atoms(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, right eigenvectors) of the matrix, computed once.

        The Markovian evolution and the superradiant overlap share it.
        """
        return np.linalg.eig(self.matrix)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "col", "re", "im"])
            for i in range(self.n_atoms):
                for j in range(self.n_atoms):
                    h = self.matrix[i, j]
                    writer.writerow([i, j, repr(float(h.real)), repr(float(h.imag))])


@dataclass
class DecayPartition:
    """Three-channel split of -2 Im(H) at resonance evaluation.

    guided_coherent is the positive-semidefinite rank-<=2 Gram matrix
    Gamma_wg cos(k (z_a - z_b)); the Raman and external channels act per atom.
    """

    guided_coherent: np.ndarray
    raman_guided_rate: float
    external_rate: float
    k_wg: float
    gamma_wg: float
    positions: np.ndarray

    @property
    def incoherent_rate(self) -> float:
        return self.raman_guided_rate + self.external_rate


def pair_distances(array: AtomArray) -> np.ndarray:
    z = array.positions
    return np.abs(z[:, None] - z[None, :])


def retarded_kernel(h0: np.ndarray, dist: np.ndarray, deltas, v_g: float) -> np.ndarray:
    """H(delta) = H0 e^{i (delta / v_g) |z_a - z_b|}, stacked over the detunings.

    The propagation phase is 1 on the diagonal, so the single-atom width of
    the resonant matrix H0 carries over unchanged.
    """
    deltas = np.asarray(deltas, dtype=float)
    return h0 * np.exp(1j * (deltas[..., None, None] / v_g) * dist)


def effective_hamiltonian(
    array: AtomArray,
    params: PhysParams,
    probe_detuning: Optional[float] = None,
) -> EffectiveHamiltonian:
    """Assemble H with the guided kernel evaluated at k(delta) = k_wg + delta/v_g.

    probe_detuning=None gives the Markovian matrix (resonant kernel, k = k_wg).
    H is complex symmetric by construction: H_ab depends on |z_a - z_b| only.
    """
    dist = pair_distances(array)
    h = -0.5j * params.gamma_wg * np.exp(1j * params.k_wg * dist)
    np.fill_diagonal(h, -0.5j * params.gamma_tot)
    if probe_detuning is not None:
        h = retarded_kernel(h, dist, probe_detuning, params.v_g)
    return EffectiveHamiltonian(matrix=h, retarded=probe_detuning is not None)


def decay_partition(
    ham: EffectiveHamiltonian, array: AtomArray, params: PhysParams
) -> DecayPartition:
    """Split the anti-Hermitian part of a resonant H into its three channels."""
    if ham.retarded:
        raise ValueError(
            "decay partition is defined only for the resonant (non-retarded) matrix"
        )
    dist = pair_distances(array)
    guided = params.gamma_wg * np.cos(params.k_wg * dist)
    return DecayPartition(
        guided_coherent=guided,
        raman_guided_rate=params.gamma_raman,
        external_rate=params.gamma_ext,
        k_wg=params.k_wg,
        gamma_wg=params.gamma_wg,
        positions=array.positions.copy(),
    )


def add_free_space_coupling(
    ham: EffectiveHamiltonian, array: AtomArray, params: PhysParams
) -> EffectiveHamiltonian:
    """Add the scalar free-space dipole-dipole term for circular dipoles
    perpendicular to the chain axis (off-diagonal only, config-gated).

    With xi = k0 |z_a - z_b|:
      Gamma_fs = (3 gamma / 2) [sin xi / xi + cos xi / xi^2 - sin xi / xi^3]
      J        = (3 gamma / 4) [-cos xi / xi + sin xi / xi^2 + cos xi / xi^3]
    and the off-diagonal gains J - (i/2) Gamma_fs.  The xi -> 0 limit of
    Gamma_fs is the full free-space rate gamma; the floor on pair separations
    keeps the 1/xi^3 term finite.
    """
    if ham.retarded:
        raise ValueError("free-space correction applies to the resonant matrix only")
    dist = pair_distances(array)
    floor = MIN_SEPARATION * params.lambda_wg
    off = ~np.eye(array.n_atoms, dtype=bool)
    if np.any(dist[off] < floor):
        raise GeometryError("pair separation below the minimum floor")
    k0 = 2.0 * np.pi / params.lambda0
    xi = np.where(off, k0 * dist, 1.0)  # dummy 1.0 on the diagonal
    gamma_fs, j_fs = free_space_rates(xi, params.gamma)
    term = np.where(off, j_fs - 0.5j * gamma_fs, 0.0)
    return EffectiveHamiltonian(matrix=ham.matrix + term, includes_free_space=True)


def free_space_rates(xi: np.ndarray, gamma: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(Gamma_fs, J) for scalar perpendicular dipoles at reduced distance xi."""
    xi = np.asarray(xi, dtype=float)
    sin, cos = np.sin(xi), np.cos(xi)
    gamma_fs = 1.5 * gamma * (sin / xi + cos / xi**2 - sin / xi**3)
    j_fs = 0.75 * gamma * (-cos / xi + sin / xi**2 + cos / xi**3)
    return gamma_fs, j_fs

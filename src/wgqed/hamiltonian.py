"""Non-Hermitian effective Hamiltonian of the single-excitation manifold.

The waveguide mediates an infinite-range exchange -(i/2) Gamma_wg e^{i k |z_a - z_b|}
between atoms; the diagonal carries the full single-atom width.  Frequencies are
detunings from the bare atomic resonance, so identical atoms have zero real
diagonal.  The anti-Hermitian part splits exactly into three decay channels:
a rank-2 coherent guided matrix, a per-atom guided Raman rate, and the
per-atom external rate, to which the optional free-space term adds its
off-diagonal rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .model import AtomArray, GeometryError, MIN_SEPARATION, PhysParams


@dataclass
class EffectiveHamiltonian:
    """Complex symmetric N x N resonant matrix.  free_space_decay holds the
    off-diagonal free-space rates Gamma_fs when H carries the optional
    free-space term (zero diagonal), else None."""

    matrix: np.ndarray
    free_space_decay: Optional[np.ndarray] = None

    @property
    def includes_free_space(self) -> bool:
        return self.free_space_decay is not None

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, right eigenvectors) of the matrix, computed once.

        The Markovian evolution and the superradiant overlap share it.
        """
        return np.linalg.eig(self.matrix)


def pair_distances(array: AtomArray) -> np.ndarray:
    z = array.positions
    return np.abs(z[:, None] - z[None, :])


def effective_hamiltonian(array: AtomArray, params: PhysParams) -> EffectiveHamiltonian:
    """Assemble the Markovian H, with the guided kernel at the resonant k_wg.

    H is complex symmetric by construction: H_ab depends on |z_a - z_b| only.
    The retarded kernel k(delta) enters only the resolvent sweep, which
    applies it by a scattering recursion (spectral.scattering_sweep).
    """
    dist = pair_distances(array)
    h = -0.5j * params.gamma_wg * np.exp(1j * params.k_wg * dist)
    np.fill_diagonal(h, -0.5j * params.gamma_tot)
    return EffectiveHamiltonian(matrix=h)


def add_free_space_coupling(
    ham: EffectiveHamiltonian, array: AtomArray, params: PhysParams
) -> EffectiveHamiltonian:
    """Add the scalar free-space dipole-dipole term for circular dipoles
    perpendicular to the chain axis (off-diagonal only, config-gated).

    With xi = k0 |z_a - z_b|:
      Gamma_fs = (3/2) [sin xi / xi + cos xi / xi^2 - sin xi / xi^3]
      J        = (3/4) [-cos xi / xi + sin xi / xi^2 + cos xi / xi^3]
    in units of gamma, and the off-diagonal gains J - (i/2) Gamma_fs.  The
    xi -> 0 limit of Gamma_fs is the full free-space rate 1; the floor on pair
    separations keeps the 1/xi^3 term finite.
    """
    dist = pair_distances(array)
    off = ~np.eye(array.n_atoms, dtype=bool)
    if np.any(dist[off] < MIN_SEPARATION):
        raise GeometryError("pair separation below the minimum floor")
    k0 = 2.0 * np.pi / params.lambda0
    xi = np.where(off, k0 * dist, 1.0)  # dummy 1.0 on the diagonal
    gamma_fs, j_fs = free_space_rates(xi)
    gamma_fs = np.where(off, gamma_fs, 0.0)
    term = np.where(off, j_fs, 0.0) - 0.5j * gamma_fs
    return EffectiveHamiltonian(matrix=ham.matrix + term, free_space_decay=gamma_fs)


def free_space_rates(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Gamma_fs, J) in units of gamma for scalar perpendicular dipoles at
    reduced distance xi."""
    xi = np.asarray(xi, dtype=float)
    sin, cos = np.sin(xi), np.cos(xi)
    gamma_fs = 1.5 * (sin / xi + cos / xi**2 - sin / xi**3)
    j_fs = 0.75 * (-cos / xi + sin / xi**2 + cos / xi**3)
    return gamma_fs, j_fs

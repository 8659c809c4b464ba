"""Non-Hermitian effective Hamiltonian of the single-excitation manifold.

The waveguide mediates an infinite-range exchange -(i/2) Gamma_wg e^{i k |z_a - z_b|}
between atoms (guided_exchange); the diagonal carries the full single-atom
width.  Frequencies are detunings from the bare atomic resonance, so identical
atoms have zero real diagonal.  The anti-Hermitian part splits exactly into
three decay channels: a rank-2 coherent guided matrix, a per-atom guided Raman
rate, and the per-atom external rate gamma_ext into the non-guided modes.
Only the Markovian poles route builds H; the resolvent sweep reads the
positions and guided_exchange.
"""

from __future__ import annotations

import numpy as np

from .model import AtomArray, PhysParams


def pair_distances(array: AtomArray) -> np.ndarray:
    z = array.positions
    return np.abs(z[:, None] - z[None, :])


def guided_exchange(distances: np.ndarray, params: PhysParams) -> np.ndarray:
    """The guided exchange -(i/2) Gamma_wg e^{i k_wg d} at each pair distance d,
    at the resonant wavenumber."""
    return -0.5j * params.gamma_wg * np.exp(1j * params.k_wg * distances)


def effective_hamiltonian(array: AtomArray, params: PhysParams) -> np.ndarray:
    """The Markovian H, an N x N complex array, with the guided kernel at the
    resonant k_wg.

    H is complex symmetric by construction: H_ab depends on |z_a - z_b| only.
    Its one eigendecomposition is dynamics.modal_expansion's.  The retarded
    kernel k(delta) enters only the resolvent sweep, which applies it by a
    scattering recursion (spectral.scattering_sweep).
    """
    h = guided_exchange(pair_distances(array), params)
    np.fill_diagonal(h, -0.5j * params.gamma_tot)
    return h

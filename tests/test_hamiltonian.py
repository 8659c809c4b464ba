
import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from wgqed import (
    AtomArray,
    ChainSpec,
    PhysParams,
    SegmentRole,
    build_chain,
    dicke_initial_state,
    effective_hamiltonian,
)
from wgqed.hamiltonian import pair_distances


def random_array(rng, n, span=15.0):
    """Sorted random positions respecting the separation floor."""
    while True:
        pos = np.sort(rng.uniform(0.0, span, n))
        if np.all(np.diff(pos) > 0.011):
            return AtomArray(pos - pos[0], 0, n, tuple([SegmentRole.EMITTER] * n))


positions_strategy = st.lists(
    st.floats(min_value=0.0, max_value=30.0), min_size=2, max_size=12, unique=True
).filter(lambda xs: np.all(np.diff(np.sort(xs)) > 0.011))


def test_single_atom(params):
    arr = build_chain(ChainSpec(0, 1, 0))
    ham = effective_hamiltonian(arr, params)
    assert ham.shape == (1, 1)
    assert ham[0, 0] == -0.5j * 1.05
    # isolated-atom decay rate: Purcell-enhanced gamma_ext + gamma_1d
    assert -2 * np.linalg.eigvals(ham)[0].imag == pytest.approx(1.05)


def test_two_atoms_half_wave(params):
    arr = build_chain(ChainSpec(0, 2, 0))
    ham = effective_hamiltonian(arr, params)
    # e^{i pi} = -1 flips the sign of the exchange term
    assert ham[0, 1] == pytest.approx(+0.5j * params.gamma_wg, abs=1e-15)
    psi = np.array([1.0, -1.0]) / np.sqrt(2)
    rate = -2 * np.imag(psi @ ham @ psi)
    assert rate == pytest.approx(params.gamma_tot + params.gamma_wg)


@pytest.mark.parametrize("n_c", [2, 3, 5, 10])
def test_half_wave_superradiant_eigenvalue(params, n_c):
    arr = build_chain(ChainSpec(0, n_c, 0))
    ham = effective_hamiltonian(arr, params)
    rates = -2 * np.linalg.eigvals(ham).imag
    expected = params.gamma_ext + params.gamma_1d + (n_c - 1) * params.gamma_wg
    assert abs(rates.max() - expected) < 1e-10


@given(pos=positions_strategy)
def test_complex_symmetry_exact(pos):
    params = PhysParams()
    pos = np.sort(np.asarray(pos))
    arr = AtomArray(pos - pos[0], 0, len(pos), tuple([SegmentRole.EMITTER] * len(pos)))
    ham = effective_hamiltonian(arr, params)
    assert np.array_equal(ham, ham.T)


def test_diagonal_value(params):
    arr = build_chain(ChainSpec(2, 2, 2, gap_d0=0.3))
    ham = effective_hamiltonian(arr, params)
    assert np.all(np.diag(ham) == -0.5j * (params.gamma_ext + params.gamma_1d))


def test_eigenvalue_decay_floor(params):
    rng = np.random.default_rng(11)
    for _ in range(5):
        arr = random_array(rng, 25)
        ham = effective_hamiltonian(arr, params)
        imag = np.linalg.eigvals(ham).imag
        assert np.all(imag <= -0.5 * params.gamma_ext + 1e-10)


# --- decay partition: -2 Im H splits into its three channels -------------------


def guided_channel(ham, params):
    """-2 Im H less the per-atom Raman and external rates: the coherent guided
    channel Gamma_wg cos(k_wg (z_a - z_b))."""
    incoherent = params.gamma_raman + params.gamma_ext
    return -2.0 * ham.imag - incoherent * np.eye(len(ham))


def test_partition_single_atom(params):
    arr = build_chain(ChainSpec(0, 1, 0))
    ham = effective_hamiltonian(arr, params)
    assert guided_channel(ham, params)[0, 0] == pytest.approx(params.gamma_wg)
    assert params.gamma_raman == pytest.approx(params.gamma_1d - params.gamma_wg)


def test_partition_two_atoms(params):
    arr = build_chain(ChainSpec(0, 2, 0))
    guided = guided_channel(effective_hamiltonian(arr, params), params)
    expected = params.gamma_wg * np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert_allclose(guided, expected, atol=1e-12)
    evals = np.linalg.eigvalsh(guided)
    assert_allclose(evals, [0.0, 2 * params.gamma_wg], atol=1e-14)


def _three_channels(arr, params):
    # Gamma_wg cos(k_wg dz) + (gamma_raman + gamma_ext) I, from the positions
    guided = params.gamma_wg * np.cos(params.k_wg * pair_distances(arr))
    return guided + (params.gamma_raman + params.gamma_ext) * np.eye(arr.n_atoms)


def test_partition_reconstruction_identity(params):
    rng = np.random.default_rng(3)
    arr = random_array(rng, 18)
    ham = effective_hamiltonian(arr, params)
    assert np.max(np.abs(_three_channels(arr, params) - (-2.0 * ham.imag))) < 1e-12


@given(pos=positions_strategy)
def test_partition_rank_two_gram(pos):
    params = PhysParams()
    pos = np.sort(np.asarray(pos))
    n = len(pos)
    arr = AtomArray(pos - pos[0], 0, n, tuple([SegmentRole.EMITTER] * n))
    guided = guided_channel(effective_hamiltonian(arr, params), params)
    evals = np.sort(np.linalg.eigvalsh(guided))
    assert evals[0] >= -1e-10 * params.gamma_wg * n
    if n > 2:
        # Gram structure of (cos k z, sin k z): everything beyond two modes is 0
        assert np.all(np.abs(evals[:-2]) < 1e-10 * params.gamma_wg * n)

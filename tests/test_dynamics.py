import numpy as np
import pytest
from numpy.testing import assert_allclose

from wgqed import (
    ChainSpec,
    EffectiveHamiltonian,
    PhysParams,
    StateVector,
    build_chain,
    decay_partition,
    default_time_grid,
    dicke_initial_state,
    effective_hamiltonian,
    evolve_markovian,
    fit_decay_rate,
    probabilities,
    superradiant_overlap,
)
from wgqed.dynamics import ProbabilitySeries, _evolve_expm, directional_fluxes
from test_hamiltonian import random_array


def _pipeline(params, spec, t_max=8.0):
    arr = build_chain(spec, params)
    psi0 = dicke_initial_state(arr, params)
    ham = effective_hamiltonian(arr, params)
    part = decay_partition(ham, arr, params)
    t = default_time_grid(2.5, t_max)
    traj = evolve_markovian(ham, psi0, t)
    return arr, psi0, ham, part, traj, probabilities(traj, psi0, arr, part)


def test_time_grid_shape():
    t = default_time_grid(2.5, 10.0)
    assert t[0] == 0.0
    assert len(t) == 2049
    assert t[-1] == pytest.approx(10.0)
    assert np.all(np.diff(t) > 0)
    assert t[1] == pytest.approx(0.01 / 2.5)


def test_single_atom_closed_form(params):
    _, _, _, _, traj, series = _pipeline(params, ChainSpec.three_segment(0, 1, 0))
    expected = np.exp(-1.05 * traj.t)
    assert_allclose(series.p, expected, atol=1e-12)
    p_at_unit_time = np.interp(1.0, traj.t, series.p)
    assert p_at_unit_time == pytest.approx(np.exp(-1.05), abs=1e-6)  # ~0.3499


def test_two_atom_dicke_pure_exponential(params):
    arr = build_chain(ChainSpec.three_segment(0, 2, 0), params)
    psi0 = dicke_initial_state(arr, params)
    ham = effective_hamiltonian(arr, params)
    t = np.linspace(0, 5, 101)
    traj = evolve_markovian(ham, psi0, t)
    rate = params.gamma_tot + params.gamma_wg  # 1.1 with defaults
    assert_allclose(traj.population, np.exp(-rate * t), atol=1e-12)


def test_zero_hamiltonian_is_identity_evolution():
    ham = EffectiveHamiltonian(np.zeros((3, 3), dtype=complex))
    psi0 = StateVector(np.array([0.6, 0.8j, 0.0]))
    traj = evolve_markovian(ham, psi0, np.linspace(0, 4, 9))
    assert_allclose(traj.amplitudes, np.tile(psi0.amplitudes, (9, 1)), atol=1e-14)


def test_rejects_retarded_and_bad_grid(params):
    arr = build_chain(ChainSpec.three_segment(0, 2, 0), params)
    psi0 = dicke_initial_state(arr, params)
    with pytest.raises(ValueError):
        evolve_markovian(effective_hamiltonian(arr, params, 1.0), psi0, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        evolve_markovian(effective_hamiltonian(arr, params), psi0, np.array([0.5, 1.0]))


def test_expm_fallback_agrees_with_eigendecomposition(params):
    rng = np.random.default_rng(20)
    arr = random_array(rng, 20)
    psi0 = StateVector(np.ones(20) / np.sqrt(20))
    ham = effective_hamiltonian(arr, params)
    t = np.linspace(0, 6, 40)
    a = evolve_markovian(ham, psi0, t).amplitudes
    b = _evolve_expm(ham, psi0.amplitudes, t)
    assert np.max(np.abs(a - b)) < 1e-8


def test_norm_balance_and_monotonicity(params):
    _, _, _, _, _, series = _pipeline(params, ChainSpec.three_segment(10, 10, 10))
    assert series.balance_error().max() < 1e-6
    assert np.all(np.diff(series.p) <= 1e-9)
    assert series.p[0] == pytest.approx(1.0, abs=1e-12)
    assert series.p0[0] == pytest.approx(1.0, abs=1e-12)
    assert series.pa[0] == pytest.approx(1.0, abs=1e-12)


def test_probability_ordering(params):
    _, _, _, _, _, series = _pipeline(params, ChainSpec.three_segment(8, 5, 8, gap_d0=0.25))
    assert np.all(series.p0 <= series.pa * (1 + 1e-9) + 1e-12)
    assert np.all(series.pa <= series.p * (1 + 1e-9) + 1e-12)


def test_directional_flux_rank2_identity(params):
    rng = np.random.default_rng(8)
    arr = random_array(rng, 15)
    amp = rng.normal(size=15) + 1j * rng.normal(size=15)
    psi0 = StateVector(amp / np.linalg.norm(amp))
    ham = effective_hamiltonian(arr, params)
    part = decay_partition(ham, arr, params)
    traj = evolve_markovian(ham, psi0, np.linspace(0, 4, 50))
    phi_p, phi_m = directional_fluxes(traj, part)
    quad = np.einsum("ti,ij,tj->t", traj.amplitudes.conj(), part.guided_coherent, traj.amplitudes)
    assert np.max(np.abs(phi_p + phi_m - quad.real)) < 1e-10


def test_cumulative_energies_start_at_zero(params):
    _, _, _, _, _, series = _pipeline(params, ChainSpec.three_segment(0, 3, 0))
    for channel in (series.e_left, series.e_right, series.e_raman, series.e_ext):
        assert channel[0] == 0.0
        assert np.all(np.diff(channel) >= -1e-12)


# --- superradiant overlap -----------------------------------------------------


def test_overlap_equal_segments_is_third(params):
    arr = build_chain(ChainSpec.three_segment(10, 10, 10), params)
    psi0 = dicke_initial_state(arr, params)
    ham = effective_hamiltonian(arr, params)
    assert superradiant_overlap(ham, psi0) == pytest.approx(1.0 / 3.0, rel=1e-9)


def test_overlap_bare_emitter_is_unity(params):
    arr = build_chain(ChainSpec.three_segment(0, 12, 0), params)
    psi0 = dicke_initial_state(arr, params)
    ham = effective_hamiltonian(arr, params)
    assert superradiant_overlap(ham, psi0) == pytest.approx(1.0, abs=1e-3)


def test_overlap_single_emitter_in_three_chain(params):
    # brute-force oracle: the half-wave chain's superradiant mode is the
    # alternating-sign vector, so the middle atom projects to exactly 1/3
    arr = build_chain(ChainSpec.three_segment(1, 1, 1), params)
    psi0 = dicke_initial_state(arr, params)
    ham = effective_hamiltonian(arr, params)
    assert superradiant_overlap(ham, psi0) == pytest.approx(1.0 / 3.0, rel=1e-9)


def test_overlap_degenerate_cluster_warns():
    ham = EffectiveHamiltonian(-0.5j * np.eye(4))
    psi0 = StateVector(np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.warns(UserWarning):
        total = superradiant_overlap(ham, psi0)
    assert total == pytest.approx(1.0, abs=1e-12)


# --- decay-rate fit ------------------------------------------------------------


def _series_from(t, p):
    zero = np.zeros_like(t)
    return ProbabilitySeries(t, p, p, p, zero, zero, zero, zero)


def test_fit_pure_exponential():
    t = np.linspace(0, 1, 200)
    fit = fit_decay_rate(_series_from(t, np.exp(-2.0 * t)), (0.0, 1.0))
    assert fit.rate == pytest.approx(2.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_single_atom_rate(params):
    _, _, _, _, _, series = _pipeline(params, ChainSpec.three_segment(0, 1, 0))
    fit = fit_decay_rate(series, (0.5, 6.0))
    assert fit.rate == pytest.approx(1.05, rel=1e-9)


def test_fit_window_errors():
    t = np.linspace(0, 1, 50)
    series = _series_from(t, np.exp(-t))
    with pytest.raises(ValueError):
        fit_decay_rate(series, (0.0, 0.01))
    bad = _series_from(t, np.exp(-t) - 0.9)
    with pytest.raises(ValueError):
        fit_decay_rate(bad, (0.0, 1.0))

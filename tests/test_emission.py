import numpy as np
import pytest
from numpy.testing import assert_allclose

from wgqed import (
    ChainSpec,
    build_chain,
    build_grid,
    dicke_initial_state,
    emission_spectrum,
    energy_ledger,
    resolvent_sweep,
    spatial_profile,
)
from wgqed.cli import BALANCE_TOL, DISCREPANCY_TOL
from wgqed.emission import DirectionalSpectrum, default_tau_grid
from wgqed.spectral import DelayedTerms, SpectralGrid
from conftest import CAVITY_FIXTURES


def _sweep(params, spec, gamma_fast, t_max=12.0 / 0.95, span=400):
    arr = build_chain(spec)
    psi0 = dicke_initial_state(arr, params)
    grid = build_grid(gamma_fast, t_max, span_factor=span)
    slices = resolvent_sweep(arr, params, psi0, grid, retarded=False)
    return arr, psi0, grid, slices


def test_single_atom_lorentzian_spectrum(params):
    arr, _, grid, slices = _sweep(params, ChainSpec(0, 1, 0), 1.05)
    spectrum = emission_spectrum(slices, arr, params, +1)
    expected_sq = (0.5 * params.gamma_wg) / (grid.deltas**2 + (params.gamma_tot / 2) ** 2)
    assert_allclose(np.abs(spectrum.values) ** 2, expected_sq, rtol=1e-10)
    # branching ratio: (gamma_1d/4) / (gamma_ext + gamma_1d) per direction
    assert spectrum.weight == pytest.approx(0.025 / 1.05, rel=1e-4)


def test_single_atom_profile_causal_exponential(params):
    arr, _, grid, slices = _sweep(params, ChainSpec(0, 1, 0), 1.05)
    spectrum = emission_spectrum(slices, arr, params, +1)
    tau = default_tau_grid(12.0 / 0.95, n=1024)
    profile = spatial_profile(spectrum, tau)
    expected = 0.5 * params.gamma_wg * np.exp(-params.gamma_tot * tau)
    # the lead is the whole spectrum here, so its exact step holds the front
    assert np.max(np.abs(profile.alpha2 - expected)) < 1e-4
    assert profile.covers_support
    assert profile.captured >= 0.99


def test_bare_emitter_left_right_symmetry(params):
    arr, _, _, slices = _sweep(params, ChainSpec(0, 10, 0), 1.5)
    right = emission_spectrum(slices, arr, params, +1)
    left = emission_spectrum(slices, arr, params, -1)
    assert_allclose(np.abs(right.values), np.abs(left.values), rtol=1e-10)
    assert right.weight == pytest.approx(left.weight, rel=1e-12)


def test_bare_emitter_profile_length(params):
    # pulse length in the guide is the inverse collective rate
    gamma_c = 0.95 + 0.1 + 29 * 0.05
    arr, _, _, slices = _sweep(params, ChainSpec(0, 30, 0), gamma_c)
    spectrum = emission_spectrum(slices, arr, params, +1)
    tau = default_tau_grid(8.0, n=2048)
    profile = spatial_profile(spectrum, tau)
    mask = (profile.alpha2 > 1e-12) & (tau > 0.2) & (tau < 3.0)
    slope = np.polyfit(tau[mask], np.log(profile.alpha2[mask]), 1)[0]
    assert -slope == pytest.approx(gamma_c, rel=0.05)


def test_profile_is_the_direct_sum_plus_the_exact_step(params):
    # the profile transform sums M less its lead on the grid, and adds the
    # lead's exact transform
    arr = build_chain(ChainSpec(0, 1, 0))
    psi0 = dicke_initial_state(arr, params)
    grid = build_grid(1.05, 8.0)
    slices = resolvent_sweep(arr, params, psi0, grid, retarded=False)
    spectrum = emission_spectrum(slices, arr, params, +1)
    tau = default_tau_grid(8.0, n=64)
    profile = spatial_profile(spectrum, tau)
    phases = np.exp(-1j * np.outer(tau, grid.deltas))
    # the lead A / (delta - lam0), A = sqrt(Gamma_wg / 2) psi0, is summed
    # exactly: the causal step -i A e^{-i lam0 tau}
    amp = np.sqrt(0.5 * params.gamma_wg) * psi0.amplitudes[0]
    lam0 = -0.5j * params.gamma_tot
    assert_allclose(spectrum.lead, amp / (grid.deltas - lam0), rtol=1e-12)
    summand = (spectrum.values - spectrum.lead) * grid.spacing
    expected = np.abs(phases @ summand / (2 * np.pi) - 1j * amp * np.exp(-1j * lam0 * tau)) ** 2
    assert_allclose(profile.alpha2, expected, rtol=1e-9, atol=1e-12 * expected.max())


def test_zero_spectrum_gives_zero_profile():
    spectrum = DirectionalSpectrum(
        grid=SpectralGrid(-10.0, 10.0, 256),
        values=np.zeros(256, dtype=complex),
        weight=0.0,
        lead=np.zeros(256, dtype=complex),
        fronts=DelayedTerms(np.zeros((1, 0)), np.zeros((1, 0)), np.zeros((1, 0)), -1j),
    )
    profile = spatial_profile(spectrum, np.linspace(0, 5, 64))
    assert np.all(profile.alpha2 == 0.0)


def test_direction_validation(params):
    arr, _, _, slices = _sweep(params, ChainSpec(0, 1, 0), 1.05)
    with pytest.raises(ValueError):
        emission_spectrum(slices, arr, params, 0)


def test_single_atom_ledger_branching(params):
    from wgqed import effective_hamiltonian, evolve_markovian, probabilities
    from wgqed.dynamics import default_time_grid, modal_expansion

    arr, psi0, grid, slices = _sweep(params, ChainSpec(0, 1, 0), 1.05)
    modes = modal_expansion(effective_hamiltonian(arr, params), psi0)
    traj = evolve_markovian(modes, default_time_grid(1.05, 12.0 / 0.95))
    series = probabilities(traj, psi0, arr, params)
    right = emission_spectrum(slices, arr, params, +1)
    left = emission_spectrum(slices, arr, params, -1)
    ledger = energy_ledger(series, right.weight, left.weight)
    assert ledger.p_right == pytest.approx(0.025 / 1.05, rel=1e-4)
    assert ledger.p_left == pytest.approx(0.025 / 1.05, rel=1e-4)
    assert ledger.p_ext == pytest.approx(0.95 / 1.05, rel=1e-4)
    assert ledger.p_raman == pytest.approx(0.05 / 1.05, rel=1e-4)
    assert ledger.balance_error < 1e-4
    assert ledger.balance_error <= BALANCE_TOL
    assert ledger.guided_route_discrepancy <= DISCREPANCY_TOL


# --- scenario-level emission physics (session fixtures) -----------------------


def test_case1_mirror_symmetric_emission(case1_run):
    ledger = case1_run.record.ledger
    assert ledger.p_left == pytest.approx(ledger.p_right, abs=1e-6)


def test_case1_time_vs_spectral_routes(case1_run):
    series = case1_run.series
    ledger = case1_run.record.ledger
    guided_time = series.e_left[-1] + series.e_right[-1]
    guided_spec = ledger.p_left + ledger.p_right
    assert abs(guided_time - guided_spec) / guided_time < 1e-3


def test_disordered_one_sided_emission_imbalance(one_sided_disordered_run):
    # open left side, absorbing disordered mirror on the right
    ledger = one_sided_disordered_run.record.ledger
    assert ledger.p_left > ledger.p_right


def test_one_sided_case2_emits_faster_than_bare(fig5_run, bare30_run):
    gamma_c = 0.95 + 0.1 + 29 * 0.05
    t_window = np.linspace(0.0, 4.0 / gamma_c, 400)
    p_fig5 = np.interp(t_window, fig5_run.series.t, fig5_run.series.p)
    p_bare = np.interp(t_window, bare30_run.series.t, bare30_run.series.p)
    assert np.trapezoid(p_fig5, t_window) < np.trapezoid(p_bare, t_window)
    # and the full chain has pushed more light into the guide at equal times
    t_probe = 4.0 / gamma_c
    guided_fig5 = np.interp(
        t_probe, fig5_run.series.t, fig5_run.series.e_left + fig5_run.series.e_right
    )
    guided_bare = np.interp(
        t_probe, bare30_run.series.t, bare30_run.series.e_left + bare30_run.series.e_right
    )
    assert guided_fig5 > guided_bare


def test_profiles_vanish_at_grid_end(case1_run):
    rec = case1_run.record
    for profile in (rec.profile_left, rec.profile_right):
        assert profile.covers_support
        assert profile.alpha2[-1] < 1e-6 * profile.alpha2.max()


@pytest.mark.parametrize("fixture", CAVITY_FIXTURES)
def test_cavity_profiles_count_from_their_exit_end(fixture, request):
    # each pulse's tau starts at the chain end it leaves through, so neither
    # falls before tau = 0 off the grid; the cavity is mirror-symmetric
    rec = request.getfixturevalue(fixture).record
    assert rec.profile_left.captured >= 0.99
    assert rec.profile_right.captured >= 0.99
    assert rec.profile_right.captured == pytest.approx(rec.profile_left.captured, abs=1e-3)


@pytest.mark.parametrize("fixture", CAVITY_FIXTURES)
def test_cavity_outflow_matches_the_spectral_weights(fixture, request):
    # E_left/E_right integrate |alpha|^2 of the fields leaving the chain, so
    # at t_max they hold the spectral weights (short by the window's share),
    # and 1 - p - sum E, the photon still inside the chain, never goes negative
    result = request.getfixturevalue(fixture)
    series, ledger = result.series, result.record.ledger
    guided_time = series.e_left[-1] + series.e_right[-1]
    guided_spec = ledger.p_left + ledger.p_right
    assert abs(guided_time - guided_spec) <= 5e-3 * guided_spec
    in_flight = 1.0 - series.p - series.e_left - series.e_right - series.e_raman - series.e_ext
    assert in_flight.min() >= -1e-6
    assert ledger.balance_error <= BALANCE_TOL
    assert ledger.guided_route_discrepancy <= DISCREPANCY_TOL


def _extended_profile_integral(profile, spectrum):
    """tau-integral of |alpha|^2 over the profile grid extended 200 steps
    before the front."""
    step = profile.tau[1] - profile.tau[0]
    tau_ext = np.concatenate([-step * (np.arange(200) + 0.5)[::-1], profile.tau])
    return np.trapezoid(spatial_profile(spectrum, tau_ext).alpha2, tau_ext)


def test_profile_weight_parseval(case1_run):
    # Plancherel: a Markovian run's profile is the exact causal pole sum, so
    # over a grid extended past its front the tau-integral of |alpha|^2 equals
    # the closed-form spectral weight
    rec = case1_run.record
    for profile, spectrum in (
        (rec.profile_left, rec.spectrum_left),
        (rec.profile_right, rec.spectrum_right),
    ):
        integral = _extended_profile_integral(profile, spectrum)
        assert integral == pytest.approx(spectrum.weight, rel=1e-3)
        assert 0.99 <= profile.captured <= 1.0 + 1e-6


@pytest.mark.parametrize("fixture", CAVITY_FIXTURES)
def test_sampled_profile_weight_parseval(fixture, request):
    # Plancherel for a swept spectrum: its pulse fronts are exact steps, so
    # over a fine grid extended before tau = 0 that breaks at every front,
    # the tau-integral of |alpha|^2 returns the spectral weight
    result = request.getfixturevalue(fixture)
    rec = result.record
    t_max = result.summary.data["config"]["t_max"]
    tau = default_tau_grid(t_max, 4 * len(rec.profile_right.tau))
    step = tau[1] - tau[0]
    for profile, spectrum in (
        (rec.profile_left, rec.spectrum_left),
        (rec.profile_right, rec.spectrum_right),
    ):
        fronts = spectrum.fronts.delays[0]
        breaks = np.concatenate([fronts * (1 - 1e-12), fronts * (1 + 1e-12)])
        tau_ext = np.sort(np.concatenate([-step * (np.arange(200) + 0.5), tau, breaks]))
        integral = np.trapezoid(spatial_profile(spectrum, tau_ext).alpha2, tau_ext)
        assert integral == pytest.approx(spectrum.weight, rel=1e-3)
        assert 0.99 <= profile.captured <= 1.0 + 1e-6


# --- poles route against the dense resonant sweep (the oracle) -----------------


def _assert_poles_match_sweep(params, arr, psi0, gamma_fast, t_max):
    from wgqed import effective_hamiltonian
    from wgqed.dynamics import modal_expansion
    from wgqed.emission import PoleSpectrum

    # the oracle's window is 8 t_max: the random geometries still hold
    # p = 2-3e-4 at t_max = 8, which the 2 t_max window of build_grid would
    # alias into the swept weight at 4e-7
    grid = build_grid(gamma_fast, 4.0 * t_max, span_factor=400)
    modes = modal_expansion(effective_hamiltonian(arr, params), psi0)
    slices = resolvent_sweep(arr, params, psi0, grid, retarded=False)
    tau = default_tau_grid(t_max)
    late = tau >= 1.0
    for direction in (+1, -1):
        poles = emission_spectrum(modes, arr, params, direction)
        swept = emission_spectrum(slices, arr, params, direction)
        assert isinstance(poles, PoleSpectrum)
        values = (1.0 / (grid.deltas[:, None] - poles.poles)) @ poles.residues
        assert np.max(np.abs(values - swept.values)) <= 1e-8 * np.abs(swept.values).max()
        assert poles.weight == pytest.approx(swept.weight, rel=1e-7)
        exact = spatial_profile(poles, tau).alpha2
        sampled = spatial_profile(swept, tau).alpha2
        assert np.max(np.abs(exact[late] - sampled[late])) <= 1e-6 * sampled.max()


def test_poles_match_the_sweep_on_a_bragg_chain(params):
    from wgqed.cli import SCENARIOS

    arr = build_chain(SCENARIOS["fig2"].build(0.1, 0, params))
    psi0 = dicke_initial_state(arr, params)
    _assert_poles_match_sweep(params, arr, psi0, 1.05 + 9 * 0.05, 12.0 / 0.95)


def test_poles_match_the_sweep_on_random_geometries(params):
    from wgqed import StateVector
    from test_hamiltonian import random_array

    # the geometries and initial states of acceptance criterion 8
    rng = np.random.default_rng(123)
    for _ in range(10):
        n = int(rng.integers(5, 41))
        arr = random_array(rng, n, span=max(3.0, n / 2))
        amp = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi0 = StateVector(amp / np.linalg.norm(amp))
        gamma_fast = params.gamma_tot + (n - 1) * params.gamma_wg
        _assert_poles_match_sweep(params, arr, psi0, gamma_fast, 8.0)


@pytest.mark.parametrize("scenario, seed", [("fig2", 0), ("fig3b", 3)])
def test_pole_outflow_is_the_directional_flux(scenario, seed, params):
    # on the resonant kernel the field leaving each end is the rank-2 flux:
    # |alpha(t)|^2 = (Gamma_wg / 2) |sum_a e^{-/+ i k_wg z_a} b_a(t)|^2 for t > 0
    from wgqed import effective_hamiltonian, evolve_markovian
    from wgqed.cli import SCENARIOS
    from wgqed.dynamics import default_time_grid, modal_expansion

    arr = build_chain(SCENARIOS[scenario].build(0.1, seed, params))
    psi0 = dicke_initial_state(arr, params)
    modes = modal_expansion(effective_hamiltonian(arr, params), psi0)
    traj = evolve_markovian(modes, default_time_grid(2.5, 12.0 / 0.95))
    t = traj.t[1:]
    fluxes = {
        d: 0.5 * params.gamma_wg
        * np.abs(traj.amplitudes @ np.exp(-1j * d * params.k_wg * arr.positions)) ** 2
        for d in (+1, -1)
    }
    for direction, flux in fluxes.items():
        alpha = emission_spectrum(modes, arr, params, direction).amplitude(t)
        assert np.max(np.abs(np.abs(alpha) ** 2 - flux[1:])) <= 1e-12 * flux.max()


def test_pole_profile_is_causal_and_exact(params):
    # one atom: alpha(tau) = -i A e^{-i lambda tau}, a causal step at the
    # front, on from tau = 0; its tau-integral is the closed-form weight
    from wgqed.emission import PoleSpectrum

    spectrum = PoleSpectrum([-0.5j * params.gamma_tot], [0.3])
    assert spectrum.weight == pytest.approx(0.09 / params.gamma_tot, rel=1e-14)
    tau = np.array([-1.0, 0.0, 0.5])
    alpha2 = spatial_profile(spectrum, tau).alpha2
    assert alpha2[0] == 0.0
    assert alpha2[1] == pytest.approx(0.09, rel=1e-14)
    assert alpha2[2] == pytest.approx(0.09 * np.exp(-0.5 * params.gamma_tot), rel=1e-14)
    tau = np.linspace(1e-12, 40.0, 40001)
    integral = np.trapezoid(spatial_profile(spectrum, tau).alpha2, tau)
    assert integral == pytest.approx(spectrum.weight, rel=1e-6)


def test_pole_profiles_are_the_direct_causal_sums():
    # each direction's profile is its own causal pole sum, without a shared
    # table: -i sum_j A_j e^{-i lambda_j tau}, to rounding of sum |A_j|
    from wgqed.cli import RunConfig, run

    record = run(RunConfig(scenario="fig2", scale=0.1)).record
    for spectrum, profile in (
        (record.spectrum_right, record.profile_right),
        (record.spectrum_left, record.profile_left),
    ):
        alpha = spectrum.amplitude(profile.tau)
        direct = -1j * np.exp(-1j * np.outer(profile.tau, spectrum.poles)) @ spectrum.residues
        assert np.array_equal(profile.alpha2, np.abs(alpha) ** 2)
        assert np.max(np.abs(alpha - direct)) <= 1e-13 * np.sum(np.abs(spectrum.residues))

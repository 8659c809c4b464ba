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
from wgqed.emission import DirectionalSpectrum, default_tau_grid
from wgqed.spectral import ScenarioScales, SpectralGrid
from conftest import CAVITY_FIXTURES


def _sweep(params, spec, gamma_fast, t_max=12.0 / 0.95, span=400):
    arr = build_chain(spec, params)
    psi0 = dicke_initial_state(arr, params)
    grid = build_grid(params, ScenarioScales(gamma_c=gamma_fast), t_max, span_factor=span)
    slices = resolvent_sweep(arr, params, psi0, grid, retarded=False)
    return arr, psi0, grid, slices


def test_single_atom_lorentzian_spectrum(params):
    arr, _, grid, slices = _sweep(params, ChainSpec.three_segment(0, 1, 0), 1.05)
    spectrum = emission_spectrum(slices, arr, params, +1)
    expected_sq = (0.5 * params.gamma_wg) / (grid.deltas**2 + (params.gamma_tot / 2) ** 2)
    assert_allclose(np.abs(spectrum.values) ** 2, expected_sq, rtol=1e-10)
    # branching ratio: (gamma_1d/4) / (gamma_ext + gamma_1d) per direction
    assert spectrum.weight == pytest.approx(0.025 / 1.05, rel=1e-4)


def test_single_atom_profile_causal_exponential(params):
    arr, _, grid, slices = _sweep(params, ChainSpec.three_segment(0, 1, 0), 1.05)
    spectrum = emission_spectrum(slices, arr, params, +1)
    tau = default_tau_grid(12.0 / 0.95, n=1024)
    profile = spatial_profile(spectrum, tau)
    expected = 0.5 * params.gamma_wg * np.exp(-params.gamma_tot * tau)
    # the apodization smears the pulse front over ~1/taper width; compare past it
    past_front = tau > 0.1
    assert np.max(np.abs(profile.alpha2 - expected)[past_front]) < 1e-4
    assert profile.covers_support
    assert profile.captured >= 0.99


def test_bare_emitter_left_right_symmetry(params):
    arr, _, _, slices = _sweep(params, ChainSpec.three_segment(0, 10, 0), 1.5)
    right = emission_spectrum(slices, arr, params, +1)
    left = emission_spectrum(slices, arr, params, -1)
    assert_allclose(np.abs(right.values), np.abs(left.values), rtol=1e-10)
    assert right.weight == pytest.approx(left.weight, rel=1e-12)


def test_bare_emitter_profile_length(params):
    # pulse length in the guide is the inverse collective rate
    gamma_c = 0.95 + 0.1 + 29 * 0.05
    arr, _, _, slices = _sweep(params, ChainSpec.three_segment(0, 30, 0), gamma_c)
    spectrum = emission_spectrum(slices, arr, params, +1)
    tau = default_tau_grid(8.0, n=2048)
    profile = spatial_profile(spectrum, tau)
    mask = (profile.alpha2 > 1e-12) & (tau > 0.2) & (tau < 3.0)
    slope = np.polyfit(tau[mask], np.log(profile.alpha2[mask]), 1)[0]
    assert -slope == pytest.approx(gamma_c, rel=0.05)


def test_profile_uses_the_grid_apodization(params):
    # a non-default taper on the run's grid must reach the profile transform
    arr = build_chain(ChainSpec.three_segment(0, 1, 0), params)
    psi0 = dicke_initial_state(arr, params)
    grid = build_grid(params, ScenarioScales(gamma_c=1.05), 8.0, apod_fraction=0.3)
    slices = resolvent_sweep(arr, params, psi0, grid, retarded=False)
    spectrum = emission_spectrum(slices, arr, params, +1)
    tau = default_tau_grid(8.0, n=64)
    profile = spatial_profile(spectrum, tau)
    phases = np.exp(-1j * np.outer(tau, grid.deltas))
    summand = spectrum.values * grid.apodization() * grid.spacing
    expected = np.abs(phases @ summand / (2 * np.pi)) ** 2
    assert_allclose(profile.alpha2, expected, rtol=1e-9, atol=1e-12 * expected.max())


def test_zero_spectrum_gives_zero_profile():
    spectrum = DirectionalSpectrum(
        grid=SpectralGrid(-10.0, 10.0, 256, 0.0),
        values=np.zeros(256, dtype=complex),
        direction=+1,
        weight=0.0,
    )
    profile = spatial_profile(spectrum, np.linspace(0, 5, 64))
    assert np.all(profile.alpha2 == 0.0)


def test_direction_validation(params):
    arr, _, _, slices = _sweep(params, ChainSpec.three_segment(0, 1, 0), 1.05)
    with pytest.raises(ValueError):
        emission_spectrum(slices, arr, params, 0)


def test_single_atom_ledger_branching(params):
    from wgqed import decay_partition, effective_hamiltonian, evolve_markovian, probabilities
    from wgqed.dynamics import default_time_grid

    arr, psi0, grid, slices = _sweep(params, ChainSpec.three_segment(0, 1, 0), 1.05)
    ham = effective_hamiltonian(arr, params)
    part = decay_partition(ham, arr, params)
    traj = evolve_markovian(ham, psi0, default_time_grid(1.05, 12.0 / 0.95))
    series = probabilities(traj, psi0, arr, part)
    right = emission_spectrum(slices, arr, params, +1)
    left = emission_spectrum(slices, arr, params, -1)
    ledger = energy_ledger(series, right.weight, left.weight, retarded=False)
    assert ledger.p_right == pytest.approx(0.025 / 1.05, rel=1e-4)
    assert ledger.p_left == pytest.approx(0.025 / 1.05, rel=1e-4)
    assert ledger.p_ext == pytest.approx(0.95 / 1.05, rel=1e-4)
    assert ledger.p_raman == pytest.approx(0.05 / 1.05, rel=1e-4)
    assert ledger.balance_error < 1e-4
    assert ledger.converged


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


def test_profile_weight_parseval(case1_run):
    # Plancherel: over a grid extended past the (apodization-smeared) front,
    # the tau-integral of |alpha|^2 equals the windowed spectral energy
    rec = case1_run.record
    for profile, spectrum in (
        (rec.profile_left, rec.spectrum_left),
        (rec.profile_right, rec.spectrum_right),
    ):
        step = profile.tau[1] - profile.tau[0]
        tau_ext = np.concatenate(
            [-step * (np.arange(200) + 0.5)[::-1], profile.tau]
        )
        extended = spatial_profile(spectrum, tau_ext)
        integral = np.trapezoid(extended.alpha2, tau_ext)
        windowed = np.trapezoid(
            spectrum.grid.apodization() ** 2 * np.abs(spectrum.values) ** 2, spectrum.deltas
        ) / (2 * np.pi)
        assert integral == pytest.approx(windowed, rel=1e-3)
        assert 0.99 <= profile.captured <= 1.0 + 1e-6

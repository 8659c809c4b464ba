import numpy as np
import pytest
from numpy.testing import assert_allclose

from wgqed import (
    ChainSpec,
    PhysParams,
    SegmentRole,
    StateVector,
    build_chain,
    build_grid,
    dicke_initial_state,
    effective_hamiltonian,
    evolve_markovian,
    resolvent_sweep,
    time_domain,
)
from wgqed.dynamics import default_time_grid
from wgqed.emission import default_tau_grid
from wgqed.spectral import (
    CHUNK,
    GridResolutionError,
    ScenarioScales,
    SpectralGrid,
    _is_uniform,
)
from test_hamiltonian import random_array


def test_grid_rule_worked_example(params):
    # Gamma_fast = 5, t_max = 12: span at least [-100, 100], spacing <= 2 pi/96
    grid = build_grid(params, ScenarioScales(gamma_c=5.0), t_max=12.0)
    assert grid.n_points == 4096
    assert grid.delta_min == -100.0 and grid.delta_max == 100.0
    assert grid.spacing <= 2 * np.pi / 96


def test_grid_rule_scales_with_t_max(params):
    grid = build_grid(params, ScenarioScales(gamma_c=5.0), t_max=24.0)
    assert grid.n_points == 8192


def test_grid_rule_errors(params):
    with pytest.raises(ValueError):
        build_grid(params, ScenarioScales(gamma_c=5.0), t_max=0.0)
    with pytest.raises(ValueError):
        build_grid(params, ScenarioScales(gamma_c=0.0), t_max=1.0)
    with pytest.raises(GridResolutionError, match="reduce"):
        build_grid(params, ScenarioScales(gamma_c=1e5), t_max=100.0)


def test_grid_apodization_window():
    grid = SpectralGrid(-10.0, 10.0, 64, 0.1)
    w = grid.apodization()
    assert w[0] == 0.0 and w[-1] == 0.0
    assert np.all(w[6:-6] == 1.0)
    flat = SpectralGrid(-10.0, 10.0, 64, 0.0).apodization()
    assert np.all(flat == 1.0)


def _direct_sum(grid, values, times):
    # the replaced n x M phase-matrix sum, kept as the oracle
    weights = grid.apodization() * grid.spacing
    summand = values * weights.reshape((-1,) + (1,) * (values.ndim - 1))
    return np.exp(-1j * np.outer(times, grid.deltas)) @ summand


def _pulse_spectrum(grid, n_columns=0):
    # delayed Lorentzians: causal decaying pulses, as the emission spectra give
    d = grid.deltas
    columns = []
    for c in range(max(n_columns, 1)):
        delay, rate, shift = 0.3 + 0.05 * c, 1.5 + 0.1 * c, 0.2 * c
        columns.append(np.exp(1j * d * delay) / (d - shift + 0.5j * rate))
    return np.stack(columns, axis=1) if n_columns else columns[0]


_TAU = default_tau_grid(8.0, 512)
_STEP = _TAU[1] - _TAU[0]


@pytest.mark.parametrize(
    "grid, times, n_columns",
    [
        (SpectralGrid(-200.0, 200.0, 4096, 0.1), _TAU, 0),
        (
            SpectralGrid(-200.0, 200.0, 4096, 0.1),
            np.concatenate([-_STEP * (np.arange(60) + 0.5)[::-1], _TAU]),
            0,
        ),
        (SpectralGrid(-200.0, 200.0, 4096, 0.1), default_tau_grid(8.0, 301), 0),
        (SpectralGrid(-150.0, 150.0, 3001, 0.1), _TAU, 0),
        (SpectralGrid(-200.0, 200.0, 4096, 0.0), _TAU, 0),
        (SpectralGrid(-100.0, 100.0, 1000, 0.1), np.linspace(0.0, 8.0, 333), 150),
    ],
    ids=["tau-grid", "below-zero", "odd-n", "not-power-of-two", "no-taper", "2d-values"],
)
def test_chirp_z_matches_direct_sum(grid, times, n_columns, monkeypatch):
    values = _pulse_spectrum(grid, n_columns)
    assert _is_uniform(times)
    sizes = []
    fft = np.fft.fft

    def counted_fft(a, *args, **kwargs):
        out = fft(a, *args, **kwargs)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(np.fft, "fft", counted_fft)
    fast = grid.fourier_sum(values, times)
    monkeypatch.undo()
    expected = _direct_sum(grid, values, times)
    assert fast.shape == expected.shape
    assert np.max(np.abs(fast - expected)) <= 1e-10 * np.max(np.abs(expected))
    # the chirp-z route ran, and no FFT stack outgrew one CHUNK x M phase block
    assert sizes and max(sizes) <= CHUNK * grid.n_points


def test_uneven_times_keep_the_direct_sum():
    grid = SpectralGrid(-100.0, 100.0, 1000, 0.1)
    times = default_time_grid(3.0, 8.0, n=100)  # fewer than CHUNK: one block
    assert not _is_uniform(times)
    for n_columns in (0, 3):
        values = _pulse_spectrum(grid, n_columns)
        assert np.array_equal(grid.fourier_sum(values, times), _direct_sum(grid, values, times))


def _single_atom(params):
    arr = build_chain(ChainSpec.three_segment(0, 1, 0), params)
    psi0 = dicke_initial_state(arr, params)
    return arr, psi0


def test_single_atom_slice_closed_form(params):
    arr, psi0 = _single_atom(params)
    grid = build_grid(params, ScenarioScales(gamma_c=1.05), t_max=8.0)
    slices = resolvent_sweep(arr, params, psi0, grid, retarded=False)
    expected = 1.0 / (slices.deltas + 0.5j * params.gamma_tot)
    assert_allclose(slices.x[:, 0], expected, atol=1e-12)
    assert slices.x.shape == (grid.n_points, 1)
    assert slices.deltas[5] == grid.deltas[5]


def test_single_atom_reconstruction(params):
    arr, psi0 = _single_atom(params)
    grid = build_grid(params, ScenarioScales(gamma_c=1.05), t_max=8.0, span_factor=400)
    slices = resolvent_sweep(arr, params, psi0, grid, retarded=False)
    t = np.linspace(0.0, 8.0, 257)
    traj = time_domain(slices, t)
    assert np.max(np.abs(traj.population - np.exp(-params.gamma_tot * t))) < 1e-4


def test_retardation_disabled_equals_markovian_resolvent(params):
    rng = np.random.default_rng(17)
    arr = random_array(rng, 12)
    psi0 = StateVector(np.ones(12) / np.sqrt(12))
    grid = SpectralGrid(-30.0, 30.0, 128, 0.0)
    slices = resolvent_sweep(arr, params, psi0, grid, retarded=False)
    h0 = effective_hamiltonian(arr, params).matrix
    for idx in (0, 31, 64, 127):
        delta = grid.deltas[idx]
        direct = np.linalg.solve(delta * np.eye(12) - h0, psi0.amplitudes)
        assert_allclose(slices.x[idx], direct, atol=1e-11)


def _long_cavity_sweep(params):
    # retarded kernel over a 60-atom atomic cavity
    gap = 174000.25  # about 0.04 gamma^-1 of one-way retardation
    arr = build_chain(ChainSpec.three_segment(25, 10, 25, gap_d0=gap), params)
    psi0 = dicke_initial_state(arr, params)
    grid = SpectralGrid(-40.0, 40.0, 512, 0.0)
    return arr, psi0, grid, resolvent_sweep(arr, params, psi0, grid, retarded=True)


def test_residuals_on_long_cavity(params):
    _, _, _, slices = _long_cavity_sweep(params)
    assert slices.retarded
    assert slices.residual_max <= 1e-10


def test_retarded_sweep_matches_dense_solve(params):
    # the sweep's batched H(delta) against effective_hamiltonian at each probe
    arr, psi0, grid, slices = _long_cavity_sweep(params)
    for idx in (0, 101, 256, 383, 511):
        delta = grid.deltas[idx]
        h = effective_hamiltonian(arr, params, probe_detuning=delta).matrix
        direct = np.linalg.solve(delta * np.eye(arr.n_atoms) - h, psi0.amplitudes)
        assert_allclose(slices.x[idx], direct, rtol=1e-8)


def test_cross_method_oracle_20_atoms(params):
    rng = np.random.default_rng(5)
    arr = random_array(rng, 20, span=10.0)
    amp = rng.normal(size=20) + 1j * rng.normal(size=20)
    psi0 = StateVector(amp / np.linalg.norm(amp))
    gamma_fast = params.gamma_tot + 19 * params.gamma_wg
    grid = build_grid(params, ScenarioScales(gamma_c=gamma_fast), t_max=8.0, span_factor=400)
    slices = resolvent_sweep(arr, params, psi0, grid, retarded=False)
    t = np.linspace(0.0, 8.0, 200)
    spectral = time_domain(slices, t)
    markovian = evolve_markovian(
        effective_hamiltonian(arr, params), psi0, np.concatenate([[0.0], t[1:]])
    )
    assert np.max(np.abs(spectral.amplitudes - markovian.amplitudes)) < 1e-3


def test_initial_value_and_causality(params):
    rng = np.random.default_rng(9)
    arr = random_array(rng, 10)
    amp = rng.normal(size=10) + 1j * rng.normal(size=10)
    psi0 = StateVector(amp / np.linalg.norm(amp))
    grid = build_grid(params, ScenarioScales(gamma_c=1.5), t_max=8.0, span_factor=400)
    slices = resolvent_sweep(arr, params, psi0, grid, retarded=False)
    traj0 = time_domain(slices, np.array([0.0]))
    assert np.max(np.abs(traj0.amplitudes[0] - psi0.amplitudes)) < 1e-3
    negative = time_domain(slices, np.linspace(-2.0, -0.1, 40))
    assert np.max(np.abs(negative.amplitudes)) < 1e-3


def test_times_beyond_alias_window_rejected(params):
    arr, psi0 = _single_atom(params)
    grid = build_grid(params, ScenarioScales(gamma_c=1.05), t_max=4.0)
    slices = resolvent_sweep(arr, params, psi0, grid, retarded=False)
    with pytest.raises(ValueError, match="alias"):
        time_domain(slices, np.array([0.0, grid.alias_window]))


def test_grid_refinement_convergence(params):
    arr = build_chain(ChainSpec.three_segment(10, 10, 10), params)
    psi0 = dicke_initial_state(arr, params)
    t = np.linspace(0.0, 8.0, 100)
    pops = []
    for n_extra in (1, 2):
        base = build_grid(params, ScenarioScales(gamma_c=2.5), t_max=8.0, span_factor=200)
        grid = SpectralGrid(
            base.delta_min, base.delta_max, base.n_points * n_extra, base.apod_fraction
        )
        slices = resolvent_sweep(arr, params, psi0, grid, retarded=True)
        pops.append(time_domain(slices, t).population)
    assert np.max(np.abs(pops[1] - pops[0])) < 1e-4


def test_workers_give_identical_results(params):
    rng = np.random.default_rng(2)
    arr = random_array(rng, 8)
    psi0 = StateVector(np.ones(8) / np.sqrt(8))
    grid = SpectralGrid(-20.0, 20.0, 512, 0.0)
    assert grid.n_points >= 4 * CHUNK  # one chunk per worker at least
    serial = resolvent_sweep(arr, params, psi0, grid, retarded=True, workers=1)
    threaded = resolvent_sweep(arr, params, psi0, grid, retarded=True, workers=4)
    assert np.array_equal(serial.x, threaded.x)


def test_slices_csv_dump(tmp_path, params):
    arr, psi0 = _single_atom(params)
    grid = SpectralGrid(-5.0, 5.0, 16, 0.0)
    slices = resolvent_sweep(arr, params, psi0, grid, retarded=False)
    path = tmp_path / "slices.csv"
    slices.to_csv(path)
    import csv as _csv

    with open(path) as fh:
        rows = list(_csv.reader(fh))
    assert rows[0] == ["delta", "atom", "abs_x_squared"]
    assert len(rows) == 1 + 16
    assert float(rows[1][2]) == pytest.approx(1.0 / (25.0 + 0.525**2), rel=1e-9)

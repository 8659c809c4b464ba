import tracemalloc
from dataclasses import replace

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
    transfer_matrix_reflectance,
)
from wgqed.analytic import collective_rate
from wgqed.cli import LEAK_TOL, SCENARIOS, SPAN_FACTOR_RETARDED, RunConfig, run
from wgqed.dynamics import default_time_grid
from wgqed.emission import default_tau_grid, emission_spectrum, sampled_amplitudes
from wgqed.hamiltonian import pair_distances
from wgqed.spectral import (
    FFT_COLUMNS,
    HALF_WIDTH,
    OVERSAMPLING,
    SCATTER_CHUNK,
    TIME_BLOCK,
    GridResolutionError,
    DelayedTerms,
    SpectralGrid,
    _guided_matvec,
    _scatter_chunk,
    scattering_sweep,
    synthesis_leak,
)
from test_hamiltonian import random_array


def test_grid_rule_worked_example():
    # Gamma_fast = 5, t_max = 12: span at least [-100, 100], spacing <= 2 pi/24
    grid = build_grid(5.0, t_max=12.0)
    assert grid.n_points == 1024
    assert grid.delta_min == -100.0 and grid.delta_max == 100.0
    assert grid.spacing <= 2 * np.pi / 24


def test_grid_rule_scales_with_t_max():
    grid = build_grid(5.0, t_max=24.0)
    assert grid.n_points == 2048


def test_grid_rule_errors():
    with pytest.raises(ValueError):
        build_grid(5.0, t_max=0.0)
    with pytest.raises(ValueError):
        build_grid(0.0, t_max=1.0)
    with pytest.raises(ValueError, match="span_factor"):
        build_grid(5.0, t_max=1.0, span_factor=5.0)
    with pytest.raises(GridResolutionError, match="reduce"):
        build_grid(1e5, t_max=100.0)


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
_EDGE = 0.999 * np.pi / SpectralGrid(-100.0, 100.0, 1000, 0.1).spacing


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
        (SpectralGrid(-150.0, 150.0, 3001, 0.1), _TAU, 11),
        (SpectralGrid(-200.0, 200.0, 4096, 0.0), _TAU, 0),
        (SpectralGrid(-100.0, 100.0, 1000, 0.1), np.linspace(0.0, 8.0, 333), 150),
        (SpectralGrid(-100.0, 100.0, 1000, 0.1), default_time_grid(3.0, 8.0, n=100), 0),
        (SpectralGrid(-100.0, 100.0, 1000, 0.1), default_time_grid(3.0, 8.0, n=100), 3),
        (SpectralGrid(-100.0, 100.0, 1000, 0.1), -default_time_grid(3.0, 8.0, n=100), 0),
        (SpectralGrid(-100.0, 100.0, 1000, 0.1), np.array([-_EDGE, -1.0, 0.0, 1.0, _EDGE]), 3),
    ],
    ids=[
        "tau-grid", "below-zero", "odd-n", "not-power-of-two", "odd-m-2d-partial-group",
        "no-taper", "2d-values",
        "log-times", "log-times-2d", "negative-times", "alias-edges",
    ],
)
def test_fourier_sum_matches_direct_sum(grid, times, n_columns, monkeypatch):
    values = _pulse_spectrum(grid, n_columns)
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
    # the FFT route ran, and no FFT block outgrew FFT_COLUMNS rows of R M
    assert sizes and max(sizes) <= FFT_COLUMNS * OVERSAMPLING * grid.n_points


def _single_atom(params):
    arr = build_chain(ChainSpec(0, 1, 0))
    psi0 = dicke_initial_state(arr, params)
    return arr, psi0


def test_single_atom_slice_closed_form(params):
    arr, psi0 = _single_atom(params)
    grid = build_grid(1.05, t_max=8.0)
    slices = resolvent_sweep(arr, params, psi0, grid, retarded=False)
    expected = 1.0 / (slices.deltas + 0.5j * params.gamma_tot)
    assert_allclose(slices.x[:, 0], expected, atol=1e-12)
    assert slices.x.shape == (grid.n_points, 1)
    assert slices.deltas[5] == grid.deltas[5]


def test_single_atom_reconstruction(params):
    arr, psi0 = _single_atom(params)
    grid = build_grid(1.05, t_max=8.0, span_factor=400)
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
    full = slices.resolvent()
    h0 = effective_hamiltonian(arr, params).matrix
    for idx in (0, 31, 64, 127):
        delta = grid.deltas[idx]
        direct = np.linalg.solve(delta * np.eye(12) - h0, psi0.amplitudes)
        assert_allclose(full[idx], direct, atol=1e-11)


def _long_cavity_sweep(params):
    # retarded kernel over a 60-atom atomic cavity
    gap = 174000.25  # about 0.04 gamma^-1 of one-way retardation
    arr = build_chain(ChainSpec(25, 10, 25, gap_d0=gap))
    psi0 = dicke_initial_state(arr, params)
    grid = SpectralGrid(-40.0, 40.0, 512, 0.0)
    return arr, psi0, grid, resolvent_sweep(arr, params, psi0, grid, retarded=True)


def test_residuals_on_long_cavity(params):
    _, _, _, slices = _long_cavity_sweep(params)
    assert slices.residual_max <= 1e-10


def _retarded_hamiltonian(arr, params, deltas):
    # the dense retarded H(delta) = H0 e^{i (delta / v_g) |z_a - z_b|}, stacked
    # over the detunings: the matrix the scattering recursion replaced, kept
    # as the oracle
    deltas = np.asarray(deltas, dtype=float)
    h0 = effective_hamiltonian(arr, params).matrix
    return h0 * np.exp(1j * (deltas[..., None, None] / params.v_g) * pair_distances(arr))


def test_retarded_sweep_matches_dense_solve(params):
    # the sweep against the dense H(delta) at each probe
    arr, psi0, grid, slices = _long_cavity_sweep(params)
    full = slices.resolvent()
    for idx in (0, 101, 256, 383, 511):
        delta = grid.deltas[idx]
        h = _retarded_hamiltonian(arr, params, delta)
        direct = np.linalg.solve(delta * np.eye(arr.n_atoms) - h, psi0.amplitudes)
        assert_allclose(full[idx], direct, rtol=1e-8)


def _dense_retarded_solve(arr, params, psi, deltas):
    # the dense solves the scattering recursion replaced, kept as the oracle
    mats = np.asarray(deltas)[:, None, None] * np.eye(len(psi)) - _retarded_hamiltonian(
        arr, params, deltas
    )
    return np.linalg.solve(mats, np.broadcast_to(psi, mats.shape[:2])[..., None])[..., 0]


def _dense_resonant_solve(arr, params, psi, deltas):
    # the batched dense solves of [delta - H0] x = psi0 that the resonant
    # sweep made before the scattering recursion took both kernels; kept as
    # the oracle
    h0 = effective_hamiltonian(arr, params).matrix
    m, n = len(deltas), len(psi)
    mats = np.broadcast_to(-h0, (m, n, n)).copy()
    idx = np.arange(n)
    mats[:, idx, idx] += np.asarray(deltas)[:, None]
    return np.linalg.solve(mats, np.broadcast_to(psi, (m, n))[..., None])[..., 0]


_KERNELS = pytest.mark.parametrize("retarded", [True, False], ids=["retarded", "resonant"])


def _dense_solve(retarded):
    return _dense_retarded_solve if retarded else _dense_resonant_solve


def _random_geometries(params):
    # the geometries, initial states and grids of acceptance criterion 8
    rng = np.random.default_rng(123)
    for _ in range(10):
        n = int(rng.integers(5, 41))
        arr = random_array(rng, n, span=max(3.0, n / 2))
        amp = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi0 = StateVector(amp / np.linalg.norm(amp))
        gamma_fast = params.gamma_tot + (n - 1) * params.gamma_wg
        yield arr, psi0, SpectralGrid(-400.0 * gamma_fast, 400.0 * gamma_fast, 4097, 0.0)


@_KERNELS
def test_scattering_solve_matches_dense_on_random_geometries(params, retarded, monkeypatch):
    # the sweep may make no dense solve (the oracle makes its own)
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep made a dense solve")

    rng = np.random.default_rng(31)
    cases = list(_random_geometries(params))
    for n in (1, 2):
        psi0 = StateVector(np.ones(n) / np.sqrt(n))
        cases.append((random_array(rng, n), psi0, SpectralGrid(-30.0, 30.0, 257, 0.0)))
    # a last chunk of 300 detunings, solved in place in its slice of x, with
    # psi0 on 3 of 9 atoms, so the second-order term carries unoccupied rows
    psi0 = StateVector(np.concatenate([np.zeros(3), np.ones(3) / np.sqrt(3), np.zeros(3)]))
    partial = SpectralGrid(-60.0, 60.0, 2 * SCATTER_CHUNK + 300, 0.0)
    cases.append((random_array(rng, 9), psi0, partial))
    assert partial.n_points % SCATTER_CHUNK == 300
    for arr, psi0, grid in cases:
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "solve", refuse)
            slices = resolvent_sweep(arr, params, psi0, grid, retarded=retarded)
        assert slices.residual_max <= 1e-10
        expected = _dense_solve(retarded)(arr, params, psi0.amplitudes, grid.deltas)
        assert_allclose(slices.resolvent(), expected, rtol=1e-8)


def _bragg_chain(params):
    # half-wave mirrors of 250 atoms: deep stop band around resonance
    arr = build_chain(ChainSpec(250, 10, 250, gap_d0=0.5))
    return arr, dicke_initial_state(arr, params)


def _dense_second(arr, params, psi, deltas, retarded):
    # the second-order term [H(delta) - lam0] psi0 / (delta - lam0)^2 the
    # chunk subtracts in place, from the dense H(delta)
    h0 = effective_hamiltonian(arr, params).matrix
    lam0 = h0[0, 0]
    h = _retarded_hamiltonian(arr, params, deltas) if retarded else h0
    coupled = (h - lam0 * np.eye(len(psi))) @ psi
    return coupled / ((np.asarray(deltas) - lam0) ** 2)[:, None]


@_KERNELS
def test_scattering_solve_matches_dense_on_a_bragg_chain(params, retarded):
    arr, psi0 = _bragg_chain(params)
    psi = psi0.amplitudes
    deltas = np.array([-0.3, 0.0, 0.05, 2.0])
    k = params.k_of(deltas) if retarded else params.k_wg
    x = np.empty((len(psi), len(deltas)), dtype=complex)
    _, residual, _ = _scatter_chunk(deltas, k, arr.positions, params, psi, x)
    assert residual <= 1e-12
    solved = x.T + _dense_second(arr, params, psi, deltas, retarded)
    assert_allclose(solved, _dense_solve(retarded)(arr, params, psi, deltas), rtol=1e-12)


def _reference_sweep(positions, params, deltas, psi=None):
    # the per-atom recursion with one phase row per gap and fresh arrays at
    # every step, which the grouped in-place sweep replaced; kept as the oracle
    phases = np.exp(1j * np.outer(np.abs(np.diff(positions)), params.k_of(deltas)))
    u = deltas + 0.5j * params.gamma_tot
    c = 0.5j * params.gamma_wg
    gain = np.empty((len(positions), len(deltas)), dtype=complex)
    drive = np.empty_like(gain)
    p = np.zeros(len(deltas), dtype=complex)
    q = np.zeros_like(p)
    for a in range(len(positions)):
        if a:
            p = phases[a - 1] ** 2 * rho
            if psi is not None:
                q = phases[a - 1] * sigma
        inv = 1.0 / (u + c * p)
        one_p = 1.0 + p
        gain[a] = c * one_p * inv
        rho = p - one_p * gain[a]
        if psi is not None:
            drive[a] = (psi[a] - c * q) * inv
            sigma = q + one_p * drive[a]
    return phases, gain, drive, rho


def _reference_fields(x, phases):
    # the guided fields of x and the fields leaving the chain, by the two
    # interleaved per-gap recursions on a fresh fields array
    n = len(x)
    fields = np.zeros_like(x)
    right = np.zeros(x.shape[1], dtype=complex)
    left = np.zeros_like(right)
    for a in range(1, n):
        right = phases[a - 1] * (right + x[a - 1])
        fields[a] += right
        b = n - 1 - a
        left = phases[b] * (left + x[b + 1])
        fields[b] += left
    return fields, np.stack([right + x[-1], left + x[0]], axis=1)


def _reference_scatter_chunk(deltas, positions, params, psi):
    # (x, outgoing, residual, second-order term, lead) with a new array for
    # every stage, which the in-place chunk replaced
    phases, gain, drive, _ = _reference_sweep(positions, params, deltas, psi)
    n = len(psi)
    x = np.empty_like(gain)
    left = np.zeros(len(deltas), dtype=complex)
    for a in range(n - 1, -1, -1):
        x[a] = drive[a] - gain[a] * left
        if a:
            left = phases[a - 1] * (left + x[a])
    u = deltas + 0.5j * params.gamma_tot
    c = 0.5j * params.gamma_wg
    fields, outgoing = _reference_fields(x, phases)
    resid = u * x + c * fields - psi[:, None]
    res_max = float(np.sqrt(np.max(np.sum(resid.real**2 + resid.imag**2, axis=0))))
    psi_fields, psi_outgoing = _reference_fields(np.outer(psi, np.ones(len(deltas))), phases)
    second = -c * psi_fields / u**2
    lead = psi_outgoing / u[:, None] + _reference_fields(second, phases)[1]
    return x.T, outgoing, res_max, second.T, lead


def _recursion_cases(params):
    # (name, positions, psi, deltas)
    rng = np.random.default_rng(17)
    for i, (arr, psi0, grid) in enumerate(_random_geometries(params)):
        yield f"random-{i}", arr.positions, psi0.amplitudes, grid.deltas[::64]
    arr, psi0 = _bragg_chain(params)
    yield "bragg", arr.positions, psi0.amplitudes, np.array([-0.3, 0.0, 0.05, 2.0])
    arr = build_chain(SCENARIOS["fig7b"].build(0.05, 7, params))
    assert len(np.unique(np.diff(arr.positions))) == 2
    yield "fig7b", arr.positions, dicke_initial_state(arr, params).amplitudes, np.linspace(
        -300.0, 300.0, 257
    )
    steps = np.cumsum(np.full(40, 0.3))
    gaps = np.diff(steps)
    # the gaps differ from one another only in their last bits
    assert len(np.unique(gaps)) > 1 and np.ptp(gaps) < 1e-14
    for name, positions in [
        ("one-atom", np.array([0.0])),
        ("two-atoms", np.array([0.0, 0.37])),
        ("cumulative-0.3", steps),
    ]:
        amp = rng.normal(size=len(positions)) + 1j * rng.normal(size=len(positions))
        yield name, positions, amp / np.linalg.norm(amp), np.linspace(-40.0, 40.0, 129)


def test_grouped_recursion_matches_the_per_gap_recursion(params):
    for name, positions, psi, deltas in _recursion_cases(params):
        x = np.empty((len(psi), len(deltas)), dtype=complex)
        outgoing, residual, lead = _scatter_chunk(
            deltas, params.k_of(deltas), positions, params, psi, x
        )
        x_ref, outgoing_ref, residual_ref, second_ref, lead_ref = _reference_scatter_chunk(
            deltas, positions, params, psi
        )
        # x holds the solve less its second-order term
        assert_allclose(x.T + second_ref, x_ref, rtol=1e-12, err_msg=name)
        assert_allclose(outgoing, outgoing_ref, rtol=1e-12, err_msg=name)
        assert_allclose(residual, residual_ref, rtol=1e-12, err_msg=name)
        assert_allclose(lead, lead_ref, rtol=1e-12, err_msg=name)
        assert residual <= 1e-10, name
        r, t = transfer_matrix_reflectance(positions, params, deltas)
        phases, gain, _, r_ref = _reference_sweep(positions[::-1], params, deltas)
        t_ref = np.prod(1.0 - gain, axis=0) * np.prod(phases, axis=0)
        assert_allclose(r, r_ref, rtol=1e-12, err_msg=name)
        assert_allclose(t, t_ref, rtol=1e-12, err_msg=name)


def _direct_outgoing(slices, arr, params, retarded):
    # the per-atom phase sums emission_spectrum ran before the sweep returned
    # the fields leaving the chain, kept as the oracle
    deltas = slices.deltas
    k = params.k_of(deltas) if retarded else np.full(len(deltas), params.k_wg)
    columns = []
    for direction in (+1, -1):
        z = arr.positions - arr.positions[-1 if direction > 0 else 0]
        phases = np.exp(-1j * direction * k[:, None] * z[None, :])
        columns.append(np.sum(phases * slices.resolvent(), axis=1))
    return np.stack(columns, axis=1)


@pytest.mark.parametrize("retarded", [True, False], ids=["retarded", "resonant"])
def test_outgoing_matches_the_direct_phase_sum(params, retarded):
    arr, psi0 = _bragg_chain(params)
    cases = [*_random_geometries(params), (arr, psi0, SpectralGrid(-2.0, 2.0, 9, 0.0))]
    for arr, psi0, grid in cases:
        slices = resolvent_sweep(arr, params, psi0, grid, retarded=retarded)
        assert slices.outgoing.shape == (grid.n_points, 2)
        expected = _direct_outgoing(slices, arr, params, retarded)
        assert_allclose(slices.outgoing, expected, rtol=1e-10, atol=0)


def _remainder_time_domain(slices, arr, params, t):
    # the direct route: the M x N remainder of the full resolvent after its two
    # leading terms, the delayed second one summed pair by pair on the grid,
    # one Fourier sum of it, then the closed-form step and delayed ramps summed
    # pair by pair; kept as the oracle
    pole = slices.deltas - slices.lam0
    occupied = np.flatnonzero(slices.psi0)
    h0 = effective_hamiltonian(arr, params).matrix - slices.lam0 * np.eye(arr.n_atoms)
    coupling = h0[:, occupied] * slices.psi0[occupied]
    delay = pair_distances(arr)[:, occupied] / params.v_g
    second = np.stack(
        [np.exp(1j * np.outer(slices.deltas, d)) @ w for d, w in zip(delay, coupling)], axis=1
    )
    remainder = (
        slices.resolvent()
        - slices.psi0[None, :] / pole[:, None]
        - second / (pole**2)[:, None]
    )
    amps = (-1.0 / (2.0j * np.pi)) * slices.grid.fourier_sum(remainder, t)
    causal = t >= 0.0
    amps[causal] += np.exp(-1j * slices.lam0 * t[causal])[:, None] * slices.psi0[None, :]
    lag = t[:, None, None] - delay[None]
    ramps = np.where(lag >= 0.0, -1j * lag * np.exp(-1j * slices.lam0 * lag), 0.0)
    return amps + np.einsum("tab,ab->ta", ramps, coupling)


def test_time_domain_matches_the_remainder_sum(params):
    arr, psi0 = _bragg_chain(params)
    cases = [*_random_geometries(params), (arr, psi0, SpectralGrid(-50.0, 50.0, 2048, 0.1))]
    for arr, psi0, grid in cases:
        slices = resolvent_sweep(arr, params, psi0, grid, retarded=True)
        half = 0.45 * grid.alias_window
        t = np.concatenate([np.linspace(-half, 0.0, 60), default_time_grid(1.0, half, n=200)])
        expected = _remainder_time_domain(slices, arr, params, t)
        fast = time_domain(slices, t).amplitudes
        assert np.max(np.abs(fast - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_delayed_terms_transform_matches_the_direct_sum():
    # the sorted cumulative sums against every term evaluated at every time,
    # with a delay on a time (its step counts half), negative times, and a
    # delay so far past the last time that e^{i lam0 d} would overflow
    rng = np.random.default_rng(8)
    lam0 = 0.3 - 0.6j
    delays = rng.uniform(0.0, 2.0, size=(3, 7))
    delays[0, 2] = 1.0
    delays[1, 4] = 5000.0
    steps, ramps = (rng.normal(size=(2, 3, 7)) + 1j * rng.normal(size=(2, 3, 7)))
    terms = DelayedTerms(delays, steps, ramps, lam0)
    t = np.concatenate([[-0.5, 0.0, 1.0], np.linspace(0.01, 3.0, 50)])
    lag = t[:, None, None] - delays[None]
    theta = np.where(lag > 0, 1.0, np.where(lag == 0, 0.5, 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        direct = -2j * np.pi * theta * (steps - 1j * ramps * lag) * np.exp(-1j * lam0 * lag)
    direct = np.where(theta > 0, direct, 0.0)
    with np.errstate(over="raise", invalid="raise"):
        fast = terms.transform(t)
    assert_allclose(fast, direct.sum(axis=2), rtol=1e-12, atol=1e-13)
    # and the transform is the infinite-span limit of the grid's Fourier sum
    # of the samples: far from every delay the two agree to the window error
    grid = SpectralGrid(-4000.0, 4000.0, 2**17, 0.1)
    probe = np.array([-0.7, 0.45, 2.6])
    windowed = grid.fourier_sum(terms.samples(grid.deltas), probe)
    assert np.max(np.abs(windowed - terms.transform(probe))) <= 1e-3


@_KERNELS
def test_lead_is_the_fronts_on_the_grid(params, retarded):
    # the sweep's grid samples of the outgoing lead against the direct sum of
    # the fronts it hands to emission, on the fig7b geometry and on random ones
    arr = build_chain(SCENARIOS["fig7b"].build(0.02, 0, params))
    cases = [
        (arr, dicke_initial_state(arr, params), SpectralGrid(-60.0, 60.0, 301, 0.0)),
        *list(_random_geometries(params))[:3],
    ]
    for arr, psi0, grid in cases:
        slices = resolvent_sweep(arr, params, psi0, grid, retarded=retarded)
        # the recursion multiplies gap phases, the fronts take e^{i k L} whole:
        # both are good to the rounding of k L, 4e7 rad across the cavity
        rtol = 1e-12 + 1e-15 * params.k_wg * np.ptp(arr.positions)
        assert_allclose(slices.lead, slices.fronts.samples(grid.deltas), rtol=rtol)


@pytest.fixture(scope="module")
def converged_cavity(params):
    # fig7b at scale 0.02 (10/2/10 atoms, the long-cavity gap) over its default
    # t_max = 30, by which p has decayed to 6e-13, as the 2 t_max window of
    # build_grid needs: a reference from test-local dense retarded solves on a
    # span-800 grid, with the outgoing fields as direct phase sums of them
    arr = build_chain(SCENARIOS["fig7b"].build(0.02, 0, params))
    psi0 = dicke_initial_state(arr, params)
    gamma_fast = collective_rate(10, params)
    t_max = SCENARIOS["fig7b"].t_max_in_ext_lifetimes / params.gamma_ext
    big = resolvent_sweep(arr, params, psi0, build_grid(gamma_fast, t_max, 800), retarded=True)
    deltas = big.deltas
    x = np.concatenate(
        [
            _dense_retarded_solve(arr, params, psi0.amplitudes, deltas[lo : lo + 4096])
            for lo in range(0, len(deltas), 4096)
        ]
    )
    z = arr.positions
    k = params.k_of(deltas)[:, None]
    outgoing = np.stack(
        [np.sum(np.exp(1j * k * (z[-1] - z)) * x, 1), np.sum(np.exp(1j * k * (z - z[0])) * x, 1)],
        axis=1,
    )
    reference = replace(big, x=x - big.ramps.samples(deltas), outgoing=outgoing)
    t = default_time_grid(gamma_fast, t_max)
    times = np.concatenate([-t[:0:-64], t])
    return arr, psi0, gamma_fast, t_max, times, reference


def _synthesis(arr, psi0, gamma_fast, t_max, span, times, params):
    slices = resolvent_sweep(
        arr, params, psi0, build_grid(gamma_fast, t_max, span), retarded=True
    )
    return slices, time_domain(slices, times)


@pytest.mark.parametrize("span, tol", [(SPAN_FACTOR_RETARDED, 1e-6), (200.0, 1e-7)])
def test_retarded_trajectory_matches_a_converged_dense_reference(
    converged_cavity, params, span, tol
):
    # the delayed subtraction makes the truncation error fall as 1/span^2;
    # subtracting H(0) in its place left 4e-5 at span 200 on fig7b
    arr, psi0, gamma_fast, t_max, times, reference = converged_cavity
    exact = time_domain(reference, times).amplitudes
    _, traj = _synthesis(arr, psi0, gamma_fast, t_max, span, times, params)
    assert np.max(np.abs(traj.amplitudes - exact)) <= tol


def test_synthesis_leak_tracks_the_trajectory_error(converged_cavity, params):
    # the window error where b vanishes exactly (before t = 0, and before the
    # light reaches each mirror atom) reads the error of the whole trajectory
    arr, psi0, gamma_fast, t_max, times, reference = converged_cavity
    exact = time_domain(reference, times).amplitudes
    slices, traj = _synthesis(arr, psi0, gamma_fast, t_max, SPAN_FACTOR_RETARDED, times, params)
    error = np.max(np.abs(traj.amplitudes - exact))
    leak = synthesis_leak(slices, traj)
    assert error / 3 <= leak <= 3 * error
    # negative times alone see only the window error of the short delays
    assert synthesis_leak(slices, replace(traj, t=np.where(times < 0, times, np.inf))) < leak


def test_synthesis_leak_reads_the_alias_of_a_short_window(converged_cavity, params):
    # over t_max = 8 the cavity still holds p = 4.5e-4, so the 2 t_max window
    # aliases b(t + W) onto t: the leak probes read that error, over LEAK_TOL
    arr, psi0, gamma_fast, _, _, reference = converged_cavity
    t = default_time_grid(gamma_fast, 8.0)
    times = np.concatenate([-t[:0:-64], t])
    exact = time_domain(reference, times).amplitudes
    slices, traj = _synthesis(arr, psi0, gamma_fast, 8.0, SPAN_FACTOR_RETARDED, times, params)
    error = np.max(np.abs(traj.amplitudes - exact))
    leak = synthesis_leak(slices, traj)
    assert error / 3 <= leak <= 3 * error
    assert leak > 100 * LEAK_TOL


def test_retarded_profiles_and_outflow_match_a_converged_reference(converged_cavity, params):
    # the pulse fronts are exact, so the profiles and the outflow agree with
    # the span-800 dense reference to 1e-3 of their peak (the windowed front
    # was 10-20% off on fig7b before)
    arr, psi0, gamma_fast, t_max, times, reference = converged_cavity
    slices, _ = _synthesis(arr, psi0, gamma_fast, t_max, SPAN_FACTOR_RETARDED, times, params)
    for tau in (default_tau_grid(t_max), times[times >= 0]):
        intensity = []
        for source in (reference, slices):
            spectra = [emission_spectrum(source, arr, params, d) for d in (+1, -1)]
            intensity.append(np.abs(sampled_amplitudes(spectra, tau)) ** 2)
        exact, swept = intensity
        assert np.max(np.abs(swept - exact)) <= 1e-3 * exact.max()


def test_time_domain_allocates_less_than_the_sweep(params):
    # after the sweep no M x N array is allocated: the pole terms are removed
    # after the transform, whose FFT blocks are FFT_COLUMNS wide
    arr = build_chain(ChainSpec(25, 10, 25, gap_d0=174000.25))
    psi0 = dicke_initial_state(arr, params)
    grid = SpectralGrid(-40.0, 40.0, 2**15, 0.1)
    slices = resolvent_sweep(arr, params, psi0, grid, retarded=True)
    t = default_time_grid(2.5, 8.0)
    tracemalloc.start()
    try:
        time_domain(slices, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert slices.x.shape == (2**15, 60)
    assert peak < slices.x.nbytes


def test_sweep_holds_x_and_one_chunk_buffer(monkeypatch):
    # on fig7b --scale 0.05 (N = 55, M = 4096) every chunk solves in its slice
    # of x with one N x SCATTER_CHUNK work buffer, and 1.5 MiB covers the
    # chunk's vectors, outgoing and lead (about 1 MiB); one more chunk-sized
    # array breaks the bound, and the per-stage arrays this replaced traced
    # 18.1 MiB
    import wgqed.cli as cli

    sweep, traced = cli.resolvent_sweep, []

    def traced_sweep(*args, **kwargs):
        tracemalloc.start()
        try:
            slices = sweep(*args, **kwargs)
            traced.append((slices, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return slices

    monkeypatch.setattr(cli, "resolvent_sweep", traced_sweep)
    run(RunConfig(scenario="fig7b", scale=0.05))
    [(slices, peak)] = traced
    assert slices.x.shape == (4096, 55)
    assert peak < slices.x.nbytes + 55 * SCATTER_CHUNK * 16 + 1.5 * 2**20


def test_fourier_sum_gathers_one_time_block_at_a_time():
    # a (4096, 55) block at the 2321 synthesis times of fig7b --scale 0.05:
    # besides its output and the FFT block, the sum holds its kernel tables
    # (0.9 MiB) and the gathered nodes of TIME_BLOCK times (1.5 MiB), where
    # gathering every time's took 7.1 MiB
    grid = SpectralGrid(-200.0, 200.0, 4096, 0.1)
    rng = np.random.default_rng(8)
    values = rng.normal(size=(4096, 55)) + 1j * rng.normal(size=(4096, 55))
    times = np.linspace(-2.0, 30.0, 2321)
    tracemalloc.start()
    try:
        out = grid.fourier_sum(values, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fft_block = FFT_COLUMNS * OVERSAMPLING * grid.n_points * 16
    assert TIME_BLOCK * 2 * HALF_WIDTH * FFT_COLUMNS * 16 <= 1.5 * 2**20
    assert peak < out.nbytes + fft_block + 3.5 * 2**20


def test_retarded_reduces_to_markovian_at_infinite_vg():
    params = PhysParams(v_g=1e30)
    arr = build_chain(ChainSpec(3, 3, 3, gap_d0=0.25))
    psi0 = dicke_initial_state(arr, params)
    grid = SpectralGrid(-30.0, 30.0, 128, 0.0)
    retarded = resolvent_sweep(arr, params, psi0, grid, retarded=True)
    resonant = resolvent_sweep(arr, params, psi0, grid, retarded=False)
    assert_allclose(retarded.resolvent(), resonant.resolvent(), rtol=1e-10, atol=0)
    assert_allclose(retarded.outgoing, resonant.outgoing, rtol=1e-10, atol=0)


def test_retarded_matvec_matches_the_dense_operator(params):
    rng = np.random.default_rng(4)
    arr = random_array(rng, 15)
    deltas = np.array([-7.0, 0.0, 0.3, 11.0])
    x = rng.normal(size=(15, 4)) + 1j * rng.normal(size=(15, 4))
    psi = rng.normal(size=15) + 1j * rng.normal(size=15)
    distinct, row, _, _, _ = scattering_sweep(
        arr.positions, params, deltas, params.k_of(deltas)
    )
    fast = np.empty_like(x)
    norm, _ = _guided_matvec(x, distinct, row, deltas, params, psi, fast)
    for i, delta in enumerate(deltas):
        h = _retarded_hamiltonian(arr, params, delta)
        assert_allclose(fast[:, i], (delta * np.eye(15) - h) @ x[:, i] - psi, rtol=1e-12)
    assert_allclose(norm, np.max(np.linalg.norm(fast, axis=0)), rtol=1e-12)


def test_cross_method_oracle_20_atoms(params):
    rng = np.random.default_rng(5)
    arr = random_array(rng, 20, span=10.0)
    amp = rng.normal(size=20) + 1j * rng.normal(size=20)
    psi0 = StateVector(amp / np.linalg.norm(amp))
    gamma_fast = params.gamma_tot + 19 * params.gamma_wg
    grid = build_grid(gamma_fast, t_max=8.0, span_factor=400)
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
    grid = build_grid(1.5, t_max=8.0, span_factor=400)
    slices = resolvent_sweep(arr, params, psi0, grid, retarded=False)
    traj0 = time_domain(slices, np.array([0.0]))
    assert np.max(np.abs(traj0.amplitudes[0] - psi0.amplitudes)) < 1e-3
    negative = time_domain(slices, np.linspace(-2.0, -0.1, 40))
    assert np.max(np.abs(negative.amplitudes)) < 1e-3


def test_times_beyond_alias_window_rejected(params):
    arr, psi0 = _single_atom(params)
    grid = build_grid(1.05, t_max=4.0)
    slices = resolvent_sweep(arr, params, psi0, grid, retarded=False)
    with pytest.raises(ValueError, match="alias"):
        time_domain(slices, np.array([0.0, grid.alias_window]))


def test_grid_window_holds_t_max_at_the_exact_boundary(params):
    # 2 half_span / (pi / t_max) = 1023 exactly, so 1024 points would space the
    # grid at pi / t_max; here that spacing rounds to a window one ulp under
    # 2 t_max, and the run's own +/- t_max would be rejected
    gamma_fast = 1.299
    t_max = np.pi * 1023 / (40.0 * gamma_fast)
    assert SpectralGrid(-20.0 * gamma_fast, 20.0 * gamma_fast, 1024).alias_window < 2 * t_max
    grid = build_grid(gamma_fast, t_max)
    assert grid.alias_window / 2 >= t_max and grid.n_points == 2048
    arr, psi0 = _single_atom(params)
    slices = resolvent_sweep(arr, params, psi0, grid, retarded=False)
    traj = time_domain(slices, np.array([-t_max, t_max]))
    assert np.max(np.abs(traj.amplitudes)) < 1e-10


def test_grid_refinement_convergence(params):
    arr = build_chain(ChainSpec(10, 10, 10))
    psi0 = dicke_initial_state(arr, params)
    t = np.linspace(0.0, 8.0, 100)
    pops = []
    for n_extra in (1, 2):
        base = build_grid(2.5, t_max=8.0, span_factor=200)
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
    grid = SpectralGrid(-20.0, 20.0, 4 * SCATTER_CHUNK, 0.0)
    assert grid.n_points >= 4 * SCATTER_CHUNK  # one scattering chunk per worker at least
    serial = resolvent_sweep(arr, params, psi0, grid, retarded=True, workers=1)
    threaded = resolvent_sweep(arr, params, psi0, grid, retarded=True, workers=4)
    assert np.array_equal(serial.x, threaded.x)

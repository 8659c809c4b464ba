import numpy as np
import pytest
from numpy.testing import assert_allclose

from wgqed import (
    ChainSpec,
    PhysParams,
    StateVector,
    build_chain,
    default_time_grid,
    dicke_initial_state,
    effective_hamiltonian,
    evolve_markovian,
    fit_decay_rate,
    probabilities,
    superradiant_overlap,
)
from wgqed.cli import LEAK_TOL, RunConfig, _resolve_chain
from wgqed.dynamics import (
    DEGENERACY_TOL,
    NumericalError,
    ProbabilitySeries,
    _cumulative,
    _evolve_expm,
    _uniform_step,
    modal_expansion,
    pole_sums,
)
from wgqed.emission import default_tau_grid
from wgqed.spectral import build_grid, resolvent_sweep, synthesis_leak, time_domain
from test_hamiltonian import guided_channel, random_array


def _pipeline(params, spec, t_max=8.0):
    arr = build_chain(spec)
    psi0 = dicke_initial_state(arr, params)
    ham = effective_hamiltonian(arr, params)
    t = default_time_grid(2.5, t_max)
    traj = evolve_markovian(modal_expansion(ham, psi0), t)
    return traj, probabilities(traj, psi0, arr, params)


def test_time_grid_shape():
    t = default_time_grid(2.5, 10.0)
    assert t[0] == 0.0
    assert len(t) == 2049
    assert t[-1] == pytest.approx(10.0)
    assert np.all(np.diff(t) > 0)
    assert t[1] == pytest.approx(0.01 / 2.5)


def test_single_atom_closed_form(params):
    traj, series = _pipeline(params, ChainSpec(0, 1, 0))
    expected = np.exp(-1.05 * traj.t)
    assert_allclose(series.p, expected, atol=1e-12)
    p_at_unit_time = np.interp(1.0, traj.t, series.p)
    assert p_at_unit_time == pytest.approx(np.exp(-1.05), abs=1e-6)  # ~0.3499


def test_two_atom_dicke_pure_exponential(params):
    arr = build_chain(ChainSpec(0, 2, 0))
    psi0 = dicke_initial_state(arr, params)
    ham = effective_hamiltonian(arr, params)
    t = np.linspace(0, 5, 101)
    traj = evolve_markovian(modal_expansion(ham, psi0), t)
    rate = params.gamma_tot + params.gamma_wg  # 1.1 with defaults
    assert_allclose(traj.population, np.exp(-rate * t), atol=1e-12)


def test_zero_hamiltonian_is_identity_evolution():
    ham = np.zeros((3, 3), dtype=complex)
    psi0 = StateVector(np.array([0.6, 0.8j, 0.0]))
    traj = evolve_markovian(modal_expansion(ham, psi0), np.linspace(0, 4, 9))
    assert_allclose(traj.amplitudes, np.tile(psi0.amplitudes, (9, 1)), atol=1e-14)


def test_rejects_retarded_and_bad_grid(params):
    arr = build_chain(ChainSpec(0, 2, 0))
    psi0 = dicke_initial_state(arr, params)
    with pytest.raises(ValueError):
        evolve_markovian(
            modal_expansion(effective_hamiltonian(arr, params), psi0), np.array([0.5, 1.0])
        )


def test_expm_oracle_agrees_with_eigendecomposition(params):
    rng = np.random.default_rng(20)
    arr = random_array(rng, 20)
    psi0 = StateVector(np.ones(20) / np.sqrt(20))
    ham = effective_hamiltonian(arr, params)
    t = np.linspace(0, 6, 40)
    a = evolve_markovian(modal_expansion(ham, psi0), t).amplitudes
    b = _evolve_expm(ham, psi0.amplitudes, t)
    assert np.max(np.abs(a - b)) < 1e-8


def _expansion_raises(monkeypatch, params, limit, value, fragment):
    # modal_expansion gates its own numbers, so no unusable expansion exists
    import wgqed.dynamics

    arr = build_chain(ChainSpec(0, 3, 0))
    psi0 = dicke_initial_state(arr, params)
    ham = effective_hamiltonian(arr, params)
    monkeypatch.setattr(wgqed.dynamics, limit, value)
    with pytest.raises(NumericalError, match=fragment):
        modal_expansion(ham, psi0)


def test_unusable_expansion_raises(monkeypatch, params):
    _expansion_raises(
        monkeypatch, params, "CONDITION_MAX", 1.0,
        "eigenvector condition number .* exceeds CONDITION_MAX = 1",
    )


def test_modal_residual_over_its_gate_raises(monkeypatch, params):
    _expansion_raises(monkeypatch, params, "RESIDUAL_TOL", 0.0, "modal residual")


def test_resonant_sweep_synthesis_matches_the_expm_oracle(params):
    # the trajectory an ill-conditioned resonant run synthesises from its sweep,
    # over t_max = 6, where p is still 2.4e-3: on a window of 8 t_max it
    # matches the oracle, and on the 2 t_max window of build_grid the leak
    # probes read its alias, over LEAK_TOL
    rng = np.random.default_rng(21)
    arr = random_array(rng, 20)
    psi0 = StateVector(np.ones(20) / np.sqrt(20))
    ham = effective_hamiltonian(arr, params)
    gamma_fast = float(np.max(-2.0 * np.linalg.eigvals(ham).imag))
    t = default_time_grid(gamma_fast, 6.0, n=64)
    times = np.concatenate([-t[:0:-4], t])
    oracle = _evolve_expm(ham, psi0.amplitudes, t)
    errors, leaks = [], []
    for window in (8.0 * 6.0, 2.0 * 6.0):
        grid = build_grid(gamma_fast, window / 2.0, span_factor=400.0)
        slices = resolvent_sweep(arr, params, psi0, grid, retarded=False)
        traj = time_domain(slices, times)
        errors.append(np.max(np.abs(traj.amplitudes[-len(t) :] - oracle)))
        leaks.append(synthesis_leak(slices.arrival, times, traj.amplitudes))
    assert errors[0] < 1e-6
    assert errors[1] <= leaks[1] and leaks[1] > LEAK_TOL


def test_norm_balance_and_monotonicity(params):
    _, series = _pipeline(params, ChainSpec(10, 10, 10))
    assert series.balance_error().max() < 1e-6
    assert np.all(np.diff(series.p) <= 1e-9)
    assert series.p[0] == pytest.approx(1.0, abs=1e-12)
    assert series.p0[0] == pytest.approx(1.0, abs=1e-12)
    assert series.pa[0] == pytest.approx(1.0, abs=1e-12)


def test_probability_ordering(params):
    _, series = _pipeline(params, ChainSpec(8, 5, 8, gap_d0=0.25))
    assert np.all(series.p0 <= series.pa * (1 + 1e-9) + 1e-12)
    assert np.all(series.pa <= series.p * (1 + 1e-9) + 1e-12)


def test_directional_flux_rank2_identity(params):
    rng = np.random.default_rng(8)
    arr = random_array(rng, 15)
    amp = rng.normal(size=15) + 1j * rng.normal(size=15)
    psi0 = StateVector(amp / np.linalg.norm(amp))
    ham = effective_hamiltonian(arr, params)
    traj = evolve_markovian(modal_expansion(ham, psi0), np.linspace(0, 4, 50))
    # probabilities integrates Phi_+ and Phi_- from its projection of b; the
    # integral is linear, so their sum integrates b^dagger G b
    series = probabilities(traj, psi0, arr, params)
    guided = guided_channel(ham, params)
    quad = np.einsum("ti,ij,tj->t", traj.amplitudes.conj(), guided, traj.amplitudes)
    expected = _cumulative(quad.real, traj.t)
    assert np.max(np.abs(series.e_right + series.e_left - expected)) < 1e-10


def test_cumulative_energies_start_at_zero(params):
    _, series = _pipeline(params, ChainSpec(0, 3, 0))
    for channel in (series.e_left, series.e_right, series.e_raman, series.e_ext):
        assert channel[0] == 0.0
        assert np.all(np.diff(channel) >= -1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 2049, 2050])
@pytest.mark.parametrize("grid", ["uniform", "log", "default"])
def test_cumulative_matches_scipy_simpson(n, grid):
    # scipy's cumulative Simpson rule (unequal intervals) and trapezoid are
    # the oracle for the numpy port
    from scipy.integrate import cumulative_simpson, cumulative_trapezoid

    t = {
        "uniform": lambda: np.linspace(0.0, 7.0, n),
        "log": lambda: np.concatenate([[0.0], np.geomspace(1e-3, 30.0, n - 1)]),
        "default": lambda: default_time_grid(2.5, 30.0, n - 1),
    }[grid]()
    rng = np.random.default_rng(n)
    for y in (np.exp(-0.3 * t) * (1.5 + np.cos(4.0 * t)), rng.random(n)):
        if n < 3:
            expected = cumulative_trapezoid(y, t, initial=0.0)
        else:
            expected = cumulative_simpson(y, x=t, initial=0.0)
        assert_allclose(_cumulative(y, t), expected, rtol=1e-13, atol=0.0)


# --- superradiant overlap -----------------------------------------------------


def _decaying_poles(rng, n_poles=40, rows=3):
    poles = rng.uniform(-5.0, 5.0, n_poles) - 1j * rng.uniform(0.01, 3.0, n_poles)
    weights = rng.normal(size=(rows, n_poles)) + 1j * rng.normal(size=(rows, n_poles))
    return poles, weights


def _assert_matches_the_direct_table(poles, weights, t):
    # the dense e^{-i lambda t} table is the oracle; the bound is rounding of
    # the largest sum of |W_rj e^{-i lambda_j t}|, which grows before t = 0
    terms = np.exp(-1j * np.outer(t, poles))
    sums = pole_sums(poles, weights, t)
    assert sums.shape == (len(t), len(weights))
    scale = np.max(np.abs(terms) @ np.abs(weights).T, initial=1.0)
    assert np.max(np.abs(sums - terms @ weights.T), initial=0.0) <= 1e-13 * scale


@pytest.mark.parametrize("n", [0, 1, 2, 3, 97, 4096])
@pytest.mark.parametrize("start", [-2.0, 0.0, 0.75])
def test_pole_sums_factorise_on_a_uniform_grid(n, start):
    poles, weights = _decaying_poles(np.random.default_rng(n))
    t = np.linspace(start, start + 12.0, n)
    assert n == 0 or _uniform_step(t) is not None
    _assert_matches_the_direct_table(poles, weights, t)


def test_pole_sums_take_the_direct_table_off_a_uniform_grid():
    # a factorised sum would evaluate the moved sample 1e-9 off, about 1e-8
    # away from its direct value
    poles, weights = _decaying_poles(np.random.default_rng(7))
    moved = np.linspace(0.0, 12.0, 4096)
    moved[1000] += 1e-9
    for t in (default_time_grid(2.5, 12.0), moved):
        assert _uniform_step(t) is None
        _assert_matches_the_direct_table(poles, weights, t)


@pytest.mark.parametrize("t_max", [1.0, 12.0 / 0.95, 28.5 / 0.95, 1234.5])
def test_profile_and_dicke_grids_are_uniform(t_max):
    # the run's tau grid and the sweep route's Dicke times, where fit_jc_trace
    # sums its doublet, take the factorised path
    assert _uniform_step(default_tau_grid(t_max)) is not None
    assert _uniform_step(np.linspace(0.0, t_max, 257)) is not None


def _overlap(arr, params):
    """The run's superradiant overlap of the Dicke state on arr, and its modes."""
    psi0 = dicke_initial_state(arr, params)
    modes = modal_expansion(effective_hamiltonian(arr, params), psi0)
    residues = (np.conj(psi0.amplitudes) @ modes.vecs) * modes.coeffs
    return superradiant_overlap(modes.evals, residues), modes, psi0


def _per_mode_overlap(modes, psi0):
    """The per-mode biorthogonal projections |v^T psi0| |v^dagger psi0| / |v^T v|
    of unit right eigenvectors, summed over the fastest cluster: the oracle."""
    rates = -2.0 * modes.evals.imag
    cluster = np.nonzero(rates >= rates.max() * (1.0 - DEGENERACY_TOL))[0]
    psi = psi0.amplitudes
    total = 0.0
    for idx in cluster:
        v = modes.vecs[:, idx] / np.linalg.norm(modes.vecs[:, idx])
        total += abs(v @ psi) * abs(np.conj(v) @ psi) / abs(v @ v)
    return total


def test_overlap_equal_segments_is_third(params):
    overlap, _, _ = _overlap(build_chain(ChainSpec(10, 10, 10)), params)
    assert overlap == pytest.approx(1.0 / 3.0, rel=1e-9)


def test_overlap_bare_emitter_is_unity(params):
    overlap, _, _ = _overlap(build_chain(ChainSpec(0, 12, 0)), params)
    assert overlap == pytest.approx(1.0, abs=1e-3)


def test_overlap_single_emitter_in_three_chain(params):
    # brute-force oracle: the half-wave chain's superradiant mode is the
    # alternating-sign vector, so the middle atom projects to exactly 1/3
    overlap, _, _ = _overlap(build_chain(ChainSpec(1, 1, 1)), params)
    assert overlap == pytest.approx(1.0 / 3.0, rel=1e-9)


@pytest.mark.filterwarnings("error")
def test_overlap_of_a_degenerate_cluster_is_basis_independent():
    # a 3-fold fastest cluster beside one slower mode: mixing the cluster's
    # eigenvectors by an invertible M (c' = M^-1 c) moves every residue but
    # not their sum, the weight on the cluster's spectral projector
    rng = np.random.default_rng(11)
    ham = np.diag([-0.5j, -0.5j, -0.5j, -0.2j])
    psi0 = StateVector(np.array([0.5, 0.5j, -0.5, 0.5]))
    bra = np.conj(psi0.amplitudes)
    modes = modal_expansion(ham, psi0)
    mix = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    vecs, coeffs = modes.vecs.copy(), modes.coeffs.copy()
    vecs[:, :3] = vecs[:, :3] @ mix
    coeffs[:3] = np.linalg.solve(mix, coeffs[:3])
    assert_allclose(vecs @ coeffs, psi0.amplitudes, atol=1e-12)
    before = (bra @ modes.vecs) * modes.coeffs
    after = (bra @ vecs) * coeffs
    assert np.max(np.abs(after - before)) > 0.1
    total = superradiant_overlap(modes.evals, before)
    assert superradiant_overlap(modes.evals, after) == pytest.approx(total, abs=1e-12)
    assert total == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize(
    "scenario, scale, seed", [("fig2", 0.3, 0), ("fig3b", 0.1, 3), ("bare", 0.3, 0)]
)
def test_overlap_matches_the_per_mode_projection(params, scenario, scale, seed):
    # a simple fastest mode on each: the residue is the biorthogonal projection
    chain = _resolve_chain(RunConfig(scenario=scenario, scale=scale, seed=seed))[0]
    overlap, modes, psi0 = _overlap(build_chain(chain), params)
    assert overlap == pytest.approx(_per_mode_overlap(modes, psi0), abs=1e-12)


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
    _, series = _pipeline(params, ChainSpec(0, 1, 0))
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

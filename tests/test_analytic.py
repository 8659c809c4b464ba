import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from wgqed import (
    ChainSpec,
    JCParams,
    PhysParams,
    build_chain,
    classify_regime,
    collective_rate,
    jc_population,
    kappa_estimate,
    mirror_reflectance_lorentzian,
    transfer_matrix_reflectance,
)
from wgqed.analytic import fit_jc_trace, jc_model


def jc_population_ode(g, kappa, t_grid):
    """Independent oracle: integrate the amplitude pair
    alpha' = -i g beta, beta' = -i g alpha - (kappa/2) beta, p = |alpha|^2."""

    def rhs(_t, y):
        alpha, beta = y[0] + 1j * y[1], y[2] + 1j * y[3]
        da = -1j * g * beta
        db = -1j * g * alpha - 0.5 * kappa * beta
        return [da.real, da.imag, db.real, db.imag]

    sol = solve_ivp(
        rhs, (0.0, t_grid[-1]), [1.0, 0.0, 0.0, 0.0],
        t_eval=t_grid, rtol=1e-11, atol=1e-13, method="DOP853",
    )
    return sol.y[0] ** 2 + sol.y[1] ** 2


def test_jc_uncoupled_stays_excited():
    t = np.linspace(0, 10, 101)
    assert np.all(jc_population(JCParams(g=0.0, kappa=2.0), t) == 1.0)


def test_jc_initial_value():
    for g, kappa in [(0.3, 0.1), (2.0, 5.0), (1.0, 4.0)]:
        assert jc_population(JCParams(g, kappa), 0.0) == pytest.approx(1.0, abs=1e-12)


def test_jc_lossless_limit_is_rabi():
    t = np.linspace(0, 10, 400)
    p = jc_population(JCParams(g=1.0, kappa=1e-9), t)
    assert np.max(np.abs(p - np.cos(t) ** 2)) < 1e-6


def test_jc_matches_ode_oracle_on_grid():
    t = np.linspace(0, 10, 160)
    for g in np.linspace(0.0, 5.0, 6):
        for kappa in np.linspace(0.0, 5.0, 6):
            if g == 0 and kappa == 0:
                continue
            p = jc_population(JCParams(g, kappa), t)
            assert np.max(np.abs(p - jc_population_ode(g, kappa, t))) < 1e-6


def test_jc_degenerate_point_continuous():
    # kappa^2 = 16 g^2 is a removable singularity of the closed form
    t = np.linspace(0, 8, 200)
    kappa = 2.0
    exact_limit = jc_population(JCParams(kappa / 4.0, kappa), t)
    assert np.max(np.abs(exact_limit - jc_population_ode(kappa / 4.0, kappa, t))) < 1e-6
    nearby = jc_population(JCParams(kappa / 4.0 * (1 + 1e-6), kappa), t)
    assert np.max(np.abs(exact_limit - nearby)) < 1e-4


def test_jc_population_near_zero_coupling_and_at_large_rates():
    # a subnormal 16 g^2 once overflowed the closed form's division by
    # kappa^2 - 16 g^2, and e^{s t/2} overflowed at rates inside the fit bounds
    t = np.linspace(0, 10, 101)
    assert_allclose(jc_population(JCParams(8.056515469252295e-157, 0.0), t), 1.0, atol=1e-12)
    p = jc_population(JCParams(1.0, 50.0), np.linspace(0, 30, 301))
    assert np.all(np.isfinite(p)) and np.all((p >= 0.0) & (p <= 1.0 + 1e-12))


def test_jc_collective_rescaling():
    t = np.linspace(0, 5, 50)
    collective = jc_population(JCParams(g=0.5, kappa=1.0, n_atoms=4), t)
    rescaled = jc_population(JCParams(g=1.0, kappa=1.0), t)
    assert_allclose(collective, rescaled, atol=1e-12)


def test_jc_rejects_negative_time():
    with pytest.raises(ValueError):
        jc_population(JCParams(1.0, 1.0), np.array([-0.1, 0.5]))


@given(
    g=st.floats(min_value=0.0, max_value=5.0),
    kappa=st.floats(min_value=0.0, max_value=5.0),
)
def test_jc_population_bounded(g, kappa):
    t = np.linspace(0, 10, 101)
    p = jc_population(JCParams(g, kappa), t)
    assert np.all(p >= -1e-9)
    assert np.all(p <= 1.0 + 1e-9)


# --- Lorentzian mirror reflectance --------------------------------------------


def test_lorentzian_values():
    assert mirror_reflectance_lorentzian(10.0, 0.0) == pytest.approx(1.0)
    assert mirror_reflectance_lorentzian(10.0, 5.0) == pytest.approx(0.5)
    assert mirror_reflectance_lorentzian(10.0, 1e9) < 1e-15
    with pytest.raises(ValueError):
        mirror_reflectance_lorentzian(0.0, 1.0)


# --- transfer matrix -----------------------------------------------------------


def _half_wave_positions(n):
    return 0.5 * np.arange(n)


def _cascade_closed_form(n, params, delta):
    """Exact half-wave cascade: a single Lorentzian with the collective guided
    width N Gamma_wg and the unchanged per-atom loss."""
    n_gamma = n * params.gamma_wg
    loss = params.gamma_tot - params.gamma_wg
    return -(0.5 * n_gamma) / (0.5 * (n_gamma + loss) - 1j * delta)


def _transfer_matrix_cascade(positions, params, deltas):
    """The 2x2 transfer-matrix cascade that transfer_matrix_reflectance
    replaced, kept as the oracle: (r, t) from the left, at the first atom."""
    r1 = -(0.5 * params.gamma_wg) / (0.5 * params.gamma_tot - 1j * deltas)
    t1 = 1.0 + r1
    m_atom = np.empty((len(deltas), 2, 2), dtype=complex)
    m_atom[:, 0, 0] = (t1**2 - r1**2) / t1
    m_atom[:, 0, 1] = r1 / t1
    m_atom[:, 1, 0] = -r1 / t1
    m_atom[:, 1, 1] = 1.0 / t1
    total = m_atom.copy()
    k = params.k_wg + deltas / params.v_g
    for dz in np.diff(positions):
        prop = np.zeros((len(deltas), 2, 2), dtype=complex)
        prop[:, 0, 0] = np.exp(1j * k * dz)
        prop[:, 1, 1] = np.exp(-1j * k * dz)
        total = m_atom @ prop @ total
    return -total[:, 1, 0] / total[:, 1, 1], 1.0 / total[:, 1, 1]


@pytest.mark.parametrize("n", [1, 50, 500])
@pytest.mark.parametrize("layout", ["half-wave", "random"])
def test_reflection_matches_the_transfer_matrix_cascade(params, n, layout):
    # across the stop band and out to three times its width on each side
    if layout == "half-wave":
        positions = _half_wave_positions(n)
    else:
        positions = np.sort(np.random.default_rng(n).uniform(0.0, 0.5 * n, n))
    gamma_m = n * params.gamma_1d / 2
    deltas = np.linspace(-3 * gamma_m - 2.0, 3 * gamma_m + 2.0, 601)
    r, t = transfer_matrix_reflectance(positions, params, deltas)
    r_oracle, t_oracle = _transfer_matrix_cascade(positions, params, deltas)
    assert_allclose(r, r_oracle, rtol=1e-10, atol=0.0)
    assert_allclose(t, t_oracle, rtol=1e-10, atol=0.0)


def test_single_atom_reflection(params):
    r, t = transfer_matrix_reflectance(_half_wave_positions(1), params, 0.0)
    assert r == pytest.approx(-0.05 / 1.05, abs=1e-12)
    assert abs(r) ** 2 == pytest.approx(0.00227, abs=1e-5)
    assert t == pytest.approx(1 + r, abs=1e-12)


@pytest.mark.parametrize("n", [2, 10, 200])
def test_half_wave_cascade_matches_closed_form(params, n):
    # the closed form drops the delta/v_g propagation phases, which accumulate
    # to ~1e-5 across 200 half-wave gaps at these detunings
    deltas = np.linspace(-8.0, 8.0, 41)
    r, _ = transfer_matrix_reflectance(_half_wave_positions(n), params, deltas)
    assert_allclose(r, _cascade_closed_form(n, params, deltas), atol=2e-4)


def test_mirror_200_resonant_value_and_bandwidth(params):
    # exact ceiling at N = 200 with the default rates: |r|^2 = (200 rho /
    # (1 + 199 rho))^2 = 0.8264 with rho = Gamma_wg / Gamma_tot
    r0, _ = transfer_matrix_reflectance(_half_wave_positions(200), params, 0.0)
    assert abs(r0) ** 2 == pytest.approx(0.82644628, abs=1e-6)
    deltas = np.linspace(-20, 20, 2001)
    r, _ = transfer_matrix_reflectance(_half_wave_positions(200), params, deltas)
    power = np.abs(r) ** 2
    half = 0.5 * power.max()
    fwhm = deltas[power >= half][-1] - deltas[power >= half][0]
    gamma_m = 200 * params.gamma_1d / 2
    assert abs(fwhm - gamma_m) / gamma_m < 0.3


def test_mirror_500_meets_lorentzian_envelope(params):
    # the published mirrors (500 atoms) do exceed 0.9 power reflectance and
    # track the narrow-band Lorentzian within 0.1 across the response band
    n = 500
    gamma_m = n * params.gamma_1d / 2
    r0, _ = transfer_matrix_reflectance(_half_wave_positions(n), params, 0.0)
    assert abs(r0) ** 2 >= 0.9
    deltas = np.linspace(-gamma_m / 2, gamma_m / 2, 201)
    r, _ = transfer_matrix_reflectance(_half_wave_positions(n), params, deltas)
    deviation = np.abs(np.abs(r) ** 2 - mirror_reflectance_lorentzian(gamma_m, deltas))
    assert deviation.max() < 0.1


def test_quarter_wave_spacing_suppresses_reflection(params):
    r, _ = transfer_matrix_reflectance(0.25 * np.arange(200), params, 0.0)
    assert abs(r) ** 2 < 0.05


@given(
    n=st.integers(min_value=1, max_value=40),
    delta=st.floats(min_value=-30.0, max_value=30.0),
)
def test_cascade_subunitary(n, delta):
    params = PhysParams()
    r, t = transfer_matrix_reflectance(_half_wave_positions(n), params, delta)
    assert abs(r) ** 2 + abs(t) ** 2 <= 1.0 + 1e-12


# --- kappa estimate and regime classification ----------------------------------


def test_kappa_estimate_values():
    assert kappa_estimate(1.0, 2.0, 3.0) == 0.0
    assert kappa_estimate(0.99, 1.0, 1.0) == pytest.approx(0.01)
    assert kappa_estimate(0.0, 4.0, 2.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        kappa_estimate(1.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        kappa_estimate(0.5, 0.0, 1.0)


def test_collective_rate(params):
    assert collective_rate(1, params) == pytest.approx(1.05)
    assert collective_rate(100, params) == pytest.approx(1.05 + 99 * 0.05)
    assert collective_rate(0, params) == 0.0


def test_classify_published_cavity(params):
    # 500/100/500 atoms with 20 cm gaps: a long resonant atomic cavity
    d0 = round(0.2 / 650e-9 * 2) / 2  # snap 20 cm to the half-wave lattice
    chain = ChainSpec(500, 100, 500, gap_d0=d0)
    report = classify_regime(chain, params)
    assert report.markovian is False
    assert report.cavity_retardation is True
    assert report.coherence_fit is True
    assert report.mirror_dominance is True
    # Gamma scales linearly with atom number, so the ratio is close to 5
    assert report.numbers["dominance_ratio"] == pytest.approx(5.0, rel=0.15)
    assert report.numbers["kappa"] > 0
    assert report.strong_coupling is None  # set only from an oscillation fit


def test_classify_short_bragg_chain(params):
    chain = ChainSpec(100, 100, 100, gap_d0=0.5)
    report = classify_regime(chain, params)
    assert report.markovian is True
    assert report.cavity_retardation is False
    assert report.numbers["dominance_ratio"] == pytest.approx(1.0)


def test_classify_bare_emitter(params):
    report = classify_regime(ChainSpec(0, 50, 0), params)
    assert report.markovian is True
    assert report.cavity_retardation is None
    assert report.coherence_fit is None
    assert report.mirror_dominance is None
    assert report.numbers["kappa"] is None


def two_loss_amplitude(g, kappa, gamma_e, t):
    """Independent oracle: a(t) of a' = -(gamma_e/2) a - i g c,
    c' = -(kappa/2) c - i g a from a(0) = 1, by one matrix exponential per time."""
    gen = np.array([[-0.5 * gamma_e, -1j * g], [-1j * g, -0.5 * kappa]])
    return np.array([expm(gen * tt)[0, 0] for tt in t])


TWO_LOSS = (1.2, 0.9, 0.35)  # g, kappa, gamma_e


def _assert_two_loss(fit, g, kappa, gamma_e):
    assert fit is not None
    assert (fit.g, fit.kappa, fit.gamma_e) == pytest.approx((g, kappa, gamma_e), abs=1e-6)


def test_jc_model_reads_exact_poles_and_bounds_what_it_leaves_out():
    # the doublet of the two-loss generator plus two decoys; the residual is
    # the decoys' sum of |A|, which bounds a0 - doublet for t >= 0
    g, kappa, gamma_e = TWO_LOSS
    rates, vecs = np.linalg.eig(np.array([[-0.5 * gamma_e, -1j * g], [-1j * g, -0.5 * kappa]]))
    poles = np.concatenate([1j * rates, [3 - 5j, -4 - 8j]])  # e^{-i lam t} = e^{rate t}
    amps = np.concatenate([vecs[0] * np.linalg.inv(vecs)[:, 0], [0.05j, -0.03]])
    model = jc_model(poles, amps)
    assert (model.g, model.kappa, model.gamma_e) == pytest.approx(TWO_LOSS, rel=1e-12)
    assert model.residual == pytest.approx(0.08, rel=1e-15)
    assert model.pole_rms is None
    t = np.linspace(0, 12, 300)
    a0 = np.exp(-1j * np.outer(t, poles)) @ amps
    assert np.max(np.abs(a0 - two_loss_amplitude(*TWO_LOSS, t))) <= model.residual
    # a single pole, and a doublet that does not split
    assert jc_model(poles[:1], amps[:1]) is None
    assert jc_model(np.array([-0.5j, -0.7j]), np.array([0.6, 0.4])) is None


def test_fit_jc_trace_reads_the_two_loss_model_off_its_doublet():
    t = np.linspace(0, 12, 300)
    fit = fit_jc_trace(t, two_loss_amplitude(*TWO_LOSS, t))
    _assert_two_loss(fit, *TWO_LOSS)
    g, kappa, gamma_e = TWO_LOSS
    assert fit.frequency == pytest.approx(2 * np.sqrt(g**2 - (kappa - gamma_e) ** 2 / 16), abs=1e-6)
    assert fit.pole_rms < 1e-12 and fit.residual < 1e-12


def test_fit_jc_trace_ignores_fast_decoy_poles():
    # a common detuning of the doublet changes nothing either
    t = np.linspace(0, 12, 300)
    decoys = 0.05 * np.exp(-1j * (3 - 5j) * t) + 0.03 * np.exp(-1j * (-4 - 8j) * t)
    fit = fit_jc_trace(t, two_loss_amplitude(*TWO_LOSS, t) * np.exp(-0.7j * t) + decoys)
    _assert_two_loss(fit, *TWO_LOSS)
    assert fit.pole_rms < 1e-12
    assert fit.residual > 1e-4  # the decoys are in a0 and not in the doublet


def test_fit_jc_trace_recovers_parameters():
    # the old fitted form e^{-gamma t} JC(g, kappa) is the two-loss model with
    # gamma_e = gamma and a cavity loss kappa + gamma
    t = np.linspace(0, 12, 300)
    g, kappa, gamma = 1.2, 0.6, 0.35
    gen = np.array([[0.0, -1j * g], [-1j * g, -0.5 * kappa]])
    a0 = np.exp(-0.5 * gamma * t) * np.array([expm(gen * tt)[0, 0] for tt in t])
    assert_allclose(np.abs(a0) ** 2, np.exp(-gamma * t) * jc_population(JCParams(g, kappa), t),
                    atol=1e-12)
    fit = fit_jc_trace(t, a0)
    _assert_two_loss(fit, g, kappa + gamma, gamma)
    assert fit.frequency == pytest.approx(0.5 * np.sqrt(16 * g**2 - kappa**2), rel=1e-6)
    assert fit.g == pytest.approx(g, rel=1e-6)


def test_fit_jc_trace_none_for_monotone():
    # a single pole: |a0|^2 decays without a beat
    t = np.linspace(0, 5, 200)
    assert fit_jc_trace(t, np.exp(-1j * (0.3 - 0.5j) * t)) is None
    assert fit_jc_trace(t, np.exp(-t)) is None

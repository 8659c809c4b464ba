"""Acceptance suite: one test (or test group) per release criterion.

Each check prints an `ACCEPTANCE criterion N: PASS/FAIL | detail` line; run
with `pytest tests/test_acceptance.py -v -s` to see them.  Two checks are
marked strict-xfail because the stated thresholds are not reachable with the
default rates at the stated sizes; the test bodies assert the thresholds
verbatim and the accompanying messages give the measured ceilings.
"""

import numpy as np
import pytest

from wgqed import (
    ChainSpec,
    JCParams,
    PhysParams,
    StateVector,
    build_chain,
    build_grid,
    collective_rate,
    dicke_initial_state,
    effective_hamiltonian,
    evolve_markovian,
    jc_population,
    mirror_reflectance_lorentzian,
    resolvent_sweep,
    time_domain,
    transfer_matrix_reflectance,
)
from wgqed.cli import SCENARIOS
from wgqed.dynamics import default_time_grid, fit_decay_rate
from wgqed.spectral import ScenarioScales

from conftest import CAVITY_FIXTURES, MARKOVIAN_FIXTURES
from test_analytic import jc_population_ode
from test_hamiltonian import random_array


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE criterion {criterion}: {status} | {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- 1: base-case collective rate ------------------------------------------------


def test_criterion_1_base_case_rate(params):
    worst_eig = 0.0
    worst_fit = 0.0
    for n_c in (2, 5, 10, 30):
        arr = build_chain(ChainSpec.three_segment(0, n_c, 0), params)
        expected = collective_rate(n_c, params)
        rates = -2.0 * np.linalg.eigvals(effective_hamiltonian(arr, params).matrix).imag
        worst_eig = max(worst_eig, abs(rates.max() - expected))
        psi0 = dicke_initial_state(arr, params)
        traj = evolve_markovian(
            effective_hamiltonian(arr, params), psi0, default_time_grid(expected, 12.0 / 0.95)
        )
        from wgqed import decay_partition, probabilities

        part = decay_partition(effective_hamiltonian(arr, params), arr, params)
        series = probabilities(traj, psi0, arr, part)
        window = (series.p <= 0.9) & (series.p >= 0.2)
        fit = fit_decay_rate(series, (series.t[window][0], series.t[window][-1]))
        worst_fit = max(worst_fit, abs(fit.rate - expected) / expected)
    _report(
        1,
        worst_eig < 1e-10 and worst_fit <= 0.02,
        f"max eigenvalue error {worst_eig:.2e} (tol 1e-10), "
        f"max fitted-rate error {worst_fit:.2%} (tol 2%)",
    )


# -- 2: p0 = pa witness ----------------------------------------------------------


def test_criterion_2_p0_equals_pa(case1_run):
    series = case1_run.series
    witness = float(np.max(np.abs(series.p0 - series.pa) / series.p))
    _report(2, witness <= 1e-6, f"max |p0 - pa|/p = {witness:.2e} (tol 1e-6)")


# -- 3: superradiant projection and fast-stage drop -------------------------------


def test_criterion_3_superradiant_projection(case1_run):
    overlap = case1_run.summary.data["superradiant_overlap"]
    drop = case1_run.summary.data["fast_stage"]["drop"]
    ok = abs(overlap - 1.0 / 3.0) <= 0.1 / 3.0 and abs(drop - 1.0 / 3.0) <= 0.2 / 3.0
    _report(3, ok, f"overlap {overlap:.4f} (1/3 +- 10%), fast-stage drop {drop:.4f} (1/3 +- 20%)")


# -- 4: disordered mirrors ---------------------------------------------------------


def test_criterion_4_disordered_mirrors(disordered_run, params):
    series = disordered_run.series
    gamma_c = collective_rate(30, params)
    mask = (series.p0 <= 0.9) & (series.p0 >= 1e-3)
    p0_fit = fit_decay_rate(series, (series.t[mask][0], series.t[mask][-1]), which="p0")
    t_max = series.t[-1]
    late_fit = fit_decay_rate(series, (0.55 * t_max, t_max), which="p")
    err_p0 = abs(p0_fit.rate - gamma_c) / gamma_c
    err_late = abs(late_fit.rate - params.gamma_tot) / params.gamma_tot
    _report(
        4,
        err_p0 <= 0.10 and err_late <= 0.10,
        f"p0 rate {p0_fit.rate:.3f} vs Gamma_C {gamma_c} ({err_p0:.1%}); "
        f"late p rate {late_fit.rate:.3f} vs {params.gamma_tot} ({err_late:.1%})",
    )


# -- 5: broken translational invariance --------------------------------------------


def test_criterion_5_oscillation_and_one_sided_speedup(fig4_run, fig5_run, bare30_run, params):
    p0 = fig4_run.series.p0
    t = fig4_run.series.t
    inner = np.arange(1, len(p0) - 1)
    minima = inner[(p0[inner] < p0[inner - 1]) & (p0[inner] < p0[inner + 1])]
    maxima = inner[(p0[inner] > p0[inner - 1]) & (p0[inner] > p0[inner + 1])]
    has_revival = len(minima) > 0 and np.any(maxima > minima[0])

    gamma_c = collective_rate(30, params)
    window = np.linspace(0.0, 4.0 / gamma_c, 500)
    int_fig5 = np.trapezoid(np.interp(window, fig5_run.series.t, fig5_run.series.p), window)
    int_bare = np.trapezoid(np.interp(window, bare30_run.series.t, bare30_run.series.p), window)

    _report(
        5,
        has_revival and int_fig5 < int_bare,
        f"revival after first p0 minimum: {has_revival}; "
        f"integrated p one-sided {int_fig5:.4f} < bare {int_bare:.4f}",
    )


# -- 6: analytic cavity model -------------------------------------------------------


def test_criterion_6_jc_closed_form():
    t = np.linspace(0.0, 10.0, 120)
    exact_uncoupled = np.all(jc_population(JCParams(0.0, 3.0), t) == 1.0)
    lossless = np.max(np.abs(jc_population(JCParams(1.0, 0.0), t) - np.cos(t) ** 2))
    worst = 0.0
    for g in np.linspace(0.0, 5.0, 6):
        for kappa in np.linspace(0.0, 5.0, 6):
            if g == 0.0 and kappa == 0.0:
                continue
            diff = np.max(np.abs(jc_population(JCParams(g, kappa), t) - jc_population_ode(g, kappa, t)))
            worst = max(worst, diff)
    _report(
        6,
        exact_uncoupled and lossless < 1e-6 and worst < 1e-6,
        f"g=0 exact: {exact_uncoupled}; kappa=0 vs cos^2 {lossless:.1e}; "
        f"oracle max diff {worst:.1e} over (g, kappa) in [0, 5]^2 (tol 1e-6)",
    )


# -- 7: finite-mirror reflectance ----------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unreachable with the stated channel split: the half-wave cascade has the "
        "closed form |r|^2 = (N rho / (1 + (N-1) rho))^2 with rho = Gamma_wg/Gamma_tot "
        "= 0.05/1.05, giving 0.826 at N = 200 (threshold 0.9 needs N >= 370; the "
        "500-atom mirrors reach 0.925 and do satisfy both clauses, see "
        "test_analytic.test_mirror_500_meets_lorentzian_envelope)"
    ),
)
def test_criterion_7_mirror_reflectance(params):
    n = 200
    gamma_m = n * params.gamma_1d / 2
    positions = 0.5 * np.arange(n)
    r0, _ = transfer_matrix_reflectance(positions, params, 0.0)
    deltas = np.linspace(-gamma_m / 2, gamma_m / 2, 201)
    r, _ = transfer_matrix_reflectance(positions, params, deltas)
    deviation = float(np.max(np.abs(np.abs(r) ** 2 - mirror_reflectance_lorentzian(gamma_m, deltas))))
    ok = abs(r0) ** 2 >= 0.9 and deviation <= 0.1
    _report(
        7,
        ok,
        f"on-resonance |r|^2 = {abs(r0) ** 2:.4f} (>= 0.9), "
        f"max Lorentzian deviation {deviation:.4f} (<= 0.1) at N = 200",
    )


# -- 8: cross-method oracle ------------------------------------------------------------


def test_criterion_8_cross_method(params):
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(5, 41))
        arr = random_array(rng, n, span=max(3.0, n / 2))
        amp = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi0 = StateVector(amp / np.linalg.norm(amp))
        gamma_fast = params.gamma_tot + (n - 1) * params.gamma_wg
        grid = build_grid(params, ScenarioScales(gamma_c=gamma_fast), 8.0, span_factor=400)
        slices = resolvent_sweep(arr, params, psi0, grid, retarded=False, workers=2)
        t = np.linspace(0.0, 8.0, 160)
        spectral = time_domain(slices, t)
        markovian = evolve_markovian(
            effective_hamiltonian(arr, params), psi0, np.concatenate([[0.0], t[1:]])
        )
        worst = max(worst, float(np.max(np.abs(spectral.amplitudes - markovian.amplitudes))))
    _report(8, worst < 1e-3, f"max amplitude difference {worst:.2e} over 10 geometries (tol 1e-3)")


# -- 9: long-cavity behaviour ------------------------------------------------------------


def _first_period(series):
    p0, t = series.p0, series.t
    inner = np.arange(1, len(p0) - 1)
    maxima = inner[(p0[inner] > p0[inner - 1]) & (p0[inner] > p0[inner + 1])]
    if len(maxima) == 0:
        return t[-1]
    return float(t[maxima[0]])


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unreachable at desk scale: at each vacuum-Rabi node the emitter "
        "amplitude (p0) vanishes while the transient excitation stored in the "
        "50-atom mirrors keeps p at the few-percent level, so the pointwise "
        "ratio |p - p0|/p approaches 1; mirrors with a several-times larger "
        "atom number (faster response) are needed to push the transient below "
        "5 percent of p at the nodes"
    ),
)
def test_criterion_9a_cavity_polariton_identity(fig7b_run):
    series = fig7b_run.series
    t_period = _first_period(series)
    mask = series.t <= t_period
    worst = float(np.max(np.abs(series.p[mask] - series.p0[mask]) / series.p[mask]))
    _report(
        "9a",
        worst <= 0.05,
        f"max |p - p0|/p = {worst:.3f} over the first period [0, {t_period:.2f}] (tol 5%)",
    )


def test_criterion_9b_oscillation_frequency(fig7b_run):
    osc = fig7b_run.summary.data["oscillation"]
    jc = fig7b_run.summary.data["jc_fit"]
    ok = osc is not None and jc is not None
    detail = "no oscillation detected"
    if ok:
        rel = abs(osc["frequency"] - jc["frequency"]) / osc["frequency"]
        ok = rel <= 0.10
        detail = (
            f"oscillation {osc['frequency']:.3f} vs cavity-model fit "
            f"{jc['frequency']:.3f} rad gamma ({rel:.1%}, tol 10%)"
        )
    _report("9b", ok, detail)


def test_criterion_9c_trapped_light_decays_slowly(fig7b_run, params):
    late = fig7b_run.summary.data["rates"]["late"]
    _report(
        "9c",
        late < params.gamma_ext,
        f"late decay rate {late:.3f} < gamma_ext {params.gamma_ext} (photon trapping)",
    )


# -- 10: conservation and ordering properties -----------------------------------------


@pytest.mark.parametrize("fixture", MARKOVIAN_FIXTURES)
def test_criterion_10_markovian_conservation(fixture, request):
    series = request.getfixturevalue(fixture).series
    balance = float(series.balance_error().max())
    monotone = bool(np.all(np.diff(series.p) <= 1e-9))
    ordered = bool(
        np.all(series.p0 <= series.pa * (1 + 1e-9) + 1e-12)
        and np.all(series.pa <= series.p * (1 + 1e-9) + 1e-12)
    )
    _report(
        "10",
        balance <= 1e-6 and monotone and ordered,
        f"{fixture}: balance {balance:.2e} (tol 1e-6), p monotone {monotone}, "
        f"p0 <= pa <= p {ordered}",
    )


def test_criterion_10_spectral_balance(spectral_on_markovian_run):
    series = spectral_on_markovian_run.series
    balance = float(series.balance_error().max())
    _report("10", balance <= 3e-3, f"spectral-method balance {balance:.2e} (tol 3e-3)")


@pytest.mark.parametrize("fixture", CAVITY_FIXTURES)
def test_criterion_10_cavity_ledger_and_ordering(fixture, request):
    result = request.getfixturevalue(fixture)
    ledger = result.record.ledger
    series = result.series
    ordered = bool(
        np.all(series.p0 <= series.pa * (1 + 1e-9) + 1e-12)
        and np.all(series.pa <= series.p * (1 + 1e-9) + 1e-12)
    )
    _report(
        "10",
        ledger.balance_error <= 3e-3 and ordered,
        f"{fixture}: end-state ledger balance {ledger.balance_error:.2e} (tol 3e-3), "
        f"ordering {ordered}",
    )


@pytest.mark.parametrize("fixture", MARKOVIAN_FIXTURES)
def test_criterion_10_parseval(fixture, request):
    result = request.getfixturevalue(fixture)
    series = result.series
    ledger = result.record.ledger
    guided_time = float(series.e_left[-1] + series.e_right[-1])
    guided_spec = ledger.p_left + ledger.p_right
    rel = abs(guided_time - guided_spec) / guided_time
    _report(
        "10",
        rel <= 1e-3,
        f"{fixture}: time-domain vs spectral guided energy {rel:.2e} (tol 1e-3)",
    )


@pytest.mark.parametrize(
    "scenario, scale, seed",
    [("fig2", 0.3, 0), ("fig3c", 0.3, 7), ("fig4", 0.3, 0), ("fig5", 0.3, 0), ("fig7b", 0.1, 0)],
)
def test_criterion_10_decay_matrix_psd(scenario, scale, seed, params):
    chain = SCENARIOS[scenario].build(scale, seed, params)
    arr = build_chain(chain, params)
    ham = effective_hamiltonian(arr, params)
    evals = np.linalg.eigvalsh(-2.0 * ham.matrix.imag)
    scale_rate = np.trace(-2.0 * ham.matrix.imag).real / arr.n_atoms
    ok = bool(evals.min() >= -1e-10 * scale_rate)
    _report("10", ok, f"{scenario}: decay-matrix lowest eigenvalue {evals.min():.2e} (PSD)")

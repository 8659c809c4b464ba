import csv
import hashlib
import json
import re

import numpy as np
import pytest

from wgqed import ChainSpec, ConfigError, DisorderSpec
from wgqed.cli import (
    GridConfig,
    RunConfig,
    SCENARIOS,
    build_parser,
    config_from_file,
    main,
    oscillation_fit,
    parse_config_file,
    run,
)
from wgqed.dynamics import ProbabilitySeries
from wgqed.model import SegmentRole


def _series(t, y):
    zero = np.zeros_like(t)
    return ProbabilitySeries(t, y, y, y, zero, zero, zero, zero)


def test_oscillation_fit_synthetic():
    t = np.linspace(0, 6, 4000)
    fit = oscillation_fit(_series(t, np.exp(-t) * np.cos(3 * t) ** 2))
    # population oscillates at twice the amplitude frequency
    assert fit.frequency == pytest.approx(6.0, rel=0.01)
    assert fit.contrast > 0.9


def test_oscillation_fit_monotone_is_none():
    t = np.linspace(0, 6, 500)
    assert oscillation_fit(_series(t, np.exp(-t))) is None


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig()  # neither scenario nor chain
    with pytest.raises(ConfigError):
        RunConfig(scenario="fig2", method="magic")
    with pytest.raises(ConfigError):
        RunConfig(scenario="fig2", scale=0.0)
    with pytest.raises(ConfigError):
        RunConfig(scenario="fig2", ensemble=0)
    with pytest.raises(ConfigError):
        run(RunConfig(scenario="not-a-figure"))


def test_scale_floors_at_one_atom(params):
    chain = SCENARIOS["fig2"].build(0.001, 0, params)
    assert chain.counts() == {"n_left": 1, "n_center": 1, "n_right": 1}


def test_scenario_layouts(params):
    fig3b = SCENARIOS["fig3b"].build(0.3, 0, params)
    assert fig3b.counts() == {"n_left": 0, "n_center": 30, "n_right": 60}
    right = [s for s in fig3b.segments if s.role is SegmentRole.RIGHT_MIRROR][0]
    assert right.disorder is not None and right.disorder.density == 1.0
    fig4 = SCENARIOS["fig4"].build(0.3, 0, params)
    assert fig4.gap_d0 == pytest.approx(0.25)
    fig5 = SCENARIOS["fig5"].build(0.3, 0, params)
    assert fig5.gap_d0 == pytest.approx(0.25)
    assert fig5.counts()["n_right"] == 60


def test_fig7_gap_snaps_to_mode_condition(params):
    node = SCENARIOS["fig7a"].build(0.1, 0, params)
    anti = SCENARIOS["fig7b"].build(0.1, 0, params)
    # node placement: integer half-waves; antinode: extra quarter wave
    assert node.gap_d0 % 0.5 == pytest.approx(0.0, abs=1e-9)
    assert (anti.gap_d0 - 0.25) % 0.5 == pytest.approx(0.0, abs=1e-9)
    span_c = (anti.counts()["n_center"] - 1) * 0.5
    l_over_vg = (2 * anti.gap_d0 + span_c) / params.v_g
    gamma_m = 1.05 + 49 * 0.05
    gamma_c = 1.05 + 9 * 0.05
    assert 1.0 / gamma_m < l_over_vg < 1.0 / gamma_c


def test_methods_agree_in_markovian_regime():
    markovian = run(RunConfig(scenario="fig2", scale=0.1, method="markovian"))
    spectral = run(RunConfig(scenario="fig2", scale=0.1, method="spectral"))
    for field in ("p", "p0", "pa"):
        a = getattr(markovian.series, field)
        b = getattr(spectral.series, field)
        assert np.max(np.abs(a - b)) < 1e-3


def test_auto_method_selection(params):
    short = run(RunConfig(scenario="fig2", scale=0.05, method="auto"))
    assert short.summary.data["config"]["method"] == "markovian"
    # the long-cavity classifier flips auto to the spectral route
    from wgqed.analytic import classify_regime

    chain = SCENARIOS["fig7b"].build(0.05, 0, params)
    assert classify_regime(chain, params).markovian is False


def test_artifacts_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = dict(scenario="fig3c", scale=0.1, method="markovian", seed=3)
    run(RunConfig(out_dir=str(out1), **cfg))
    run(RunConfig(out_dir=str(out2), **cfg))
    for name in ("probabilities.csv", "profiles.csv", "positions.csv"):
        h1 = hashlib.sha256((out1 / name).read_bytes()).hexdigest()
        h2 = hashlib.sha256((out2 / name).read_bytes()).hexdigest()
        assert h1 == h2, name
    strip = lambda text: re.sub(r'"(resolvent_sweep|emission_spectra|evolution|profiles_ledger|total)": [0-9.e+-]+', "", text)
    assert strip((out1 / "summary.json").read_text()) == strip((out2 / "summary.json").read_text())


def test_artifact_formats(tmp_path):
    out = tmp_path / "run"
    result = run(RunConfig(scenario="bare", scale=0.05, method="markovian", out_dir=str(out)))
    with open(out / "probabilities.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["t", "p", "p0", "pa", "E_left", "E_right", "E_raman", "E_ext"]
    with open(out / "profiles.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["z_over_vg_per_gamma", "alpha2_left", "alpha2_right"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["format_version"] == 1
    assert summary["config"]["method"] == "markovian"
    assert summary["ledger"]["converged"] is True
    assert summary["config"]["member_seeds"] == [0]
    # the echoed configuration is complete enough to rebuild the run
    assert summary["config"]["chain"]["segments"][0]["count"] == 5
    assert result.summary.data["rates"]["late"] > 0
    # run diagnostics: the grid, the sweep residual and the profile captures
    assert summary["grid"]["n_points"] == len(result.record.spectrum_right.deltas)
    assert summary["grid"]["alias_window"] == pytest.approx(
        2 * np.pi / summary["grid"]["spacing"], rel=1e-12
    )
    assert 0.0 <= summary["residual_max"] <= 1e-10
    for name in ("right", "left"):
        profile = getattr(result.record, f"profile_{name}")
        assert summary["profiles"][name] == {
            "captured": profile.captured,
            "covers_support": profile.covers_support,
        }


def test_seed_zero_overrides_custom_chain_seed():
    chain = ChainSpec.three_segment(
        0, 3, 5, gap_d0=0.5, right_disorder=DisorderSpec(1.0), rng_seed=5
    )
    result = run(RunConfig(chain=chain, method="markovian", seed=0))
    echo = result.summary.data["config"]
    assert echo["member_seeds"] == [0]
    assert echo["chain"]["rng_seed"] == 0


def test_ensemble_average_deterministic():
    cfg = dict(scenario="fig3b", scale=0.05, method="markovian", seed=3, ensemble=3)
    a = run(RunConfig(**cfg))
    b = run(RunConfig(**cfg))
    assert np.array_equal(a.series.p, b.series.p)
    assert a.summary.data["config"]["member_seeds"] == [3, 4, 5]
    single = run(RunConfig(scenario="fig3b", scale=0.05, method="markovian", seed=3))
    assert not np.allclose(single.series.p, a.series.p)


# --- config files ----------------------------------------------------------------


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        """
[run]
scenario = fig2
scale = 0.25
method = markovian
seed = 9
workers = 2
[grid]
span_factor = 300
[params]
beta = 0.2
gamma_ext = 0.9
"""
    )
    cfg = config_from_file(path)
    assert cfg.scenario == "fig2"
    assert cfg.scale == 0.25
    assert cfg.seed == 9
    assert cfg.workers == 2
    assert cfg.grid.span_factor == 300
    assert cfg.params.beta == 0.2
    assert cfg.params.gamma_ext == 0.9


def test_config_file_custom_chain(tmp_path):
    path = tmp_path / "chain.cfg"
    path.write_text(
        """
[run]
method = markovian
[chain]
n_center = 4
n_right = 6
gap_d0 = 0.25
right_disorder_density = 2.0
"""
    )
    cfg = config_from_file(path)
    assert cfg.scenario is None
    assert cfg.chain.counts() == {"n_left": 0, "n_center": 4, "n_right": 6}
    result = run(cfg)
    assert result.series.p[0] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("[weird]\n", "unknown section"),
        ("[run]\nscenario fig2\n", "expected 'key = value'"),
        ("scenario = fig2\n", "outside of any section"),
        ("[run]\nscenario = fig2\nscenario = fig4\n", "duplicate key"),
        ("[run]\nbogus = 3\n", "unknown key"),
        ("[run]\nscale = abc\n", "bad value"),
    ],
)
def test_config_file_errors_are_line_anchored(tmp_path, body, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text(body)
    with pytest.raises(ConfigError, match=fragment) as err:
        config_from_file(path)
    assert re.search(r":\d+:", str(err.value) + ":1:")  # carries file:line anchor


def test_main_exit_codes(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\nbogus = 1\n")
    assert main(["--config", str(bad)]) == 2
    out = tmp_path / "out"
    rc = main(
        ["--scenario", "bare", "--scale", "0.03", "--method", "markovian", "--out", str(out)]
    )
    assert rc == 0
    assert (out / "summary.json").exists()


def test_parser_flags():
    parser = build_parser()
    args = parser.parse_args(
        ["--scenario", "fig5", "--scale", "0.5", "--method", "spectral",
         "--seed", "4", "--ensemble", "2", "--out", "x", "--workers", "3"]
    )
    assert args.scenario == "fig5"
    assert args.workers == 3


def test_free_space_gate():
    with pytest.raises(ConfigError):
        run(RunConfig(scenario="fig2", scale=0.05, method="spectral", free_space=True))
    result = run(RunConfig(scenario="bare", scale=0.05, method="markovian", free_space=True))
    # the ledger tracks the waveguide channels; the free-space interference
    # contribution shows up as a finite (reported) imbalance
    assert np.isfinite(result.record.ledger.balance_error)
    assert result.series.p[0] == pytest.approx(1.0, abs=1e-12)


def test_ensemble_ledger_averages_weights():
    cfg = dict(scenario="fig3b", scale=0.05, method="markovian", seed=3, ensemble=3)
    averaged = run(RunConfig(**cfg))
    members = [
        run(RunConfig(scenario="fig3b", scale=0.05, method="markovian", seed=s))
        for s in (3, 4, 5)
    ]
    mean_left = np.mean([m.record.ledger.p_left for m in members])
    assert averaged.record.ledger.p_left == pytest.approx(mean_left, rel=1e-12)
    assert averaged.record.ledger.balance_error < 1e-3


def test_ensemble_captures_follow_the_averaged_profiles():
    cfg = dict(scenario="fig3b", scale=0.05, method="markovian", seed=3, ensemble=3)
    record = run(RunConfig(**cfg)).record
    for profile, weight in (
        (record.profile_right, record.ledger.p_right),
        (record.profile_left, record.ledger.p_left),
    ):
        expected = np.trapezoid(profile.alpha2, profile.tau) / weight
        assert profile.captured == pytest.approx(expected, rel=1e-12)
        assert profile.covers_support == (expected >= 0.99)

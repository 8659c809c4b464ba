import csv
import hashlib
import json
import math
import re
import resource
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from wgqed import (
    ChainSpec,
    ConfigError,
    DisorderSpec,
    PhysParams,
    build_chain,
    dicke_initial_state,
    effective_hamiltonian,
)
from wgqed.analytic import collective_rate, fit_jc_trace, jc_model
from wgqed.cli import (
    _CHAIN_KEYS,
    _PARAM_KEYS,
    _RUN_KEYS,
    RunConfig,
    SCENARIOS,
    _convert,
    _pole_check,
    build_parser,
    config_from_file,
    main,
    oscillation_fit,
    parse_config_file,
    run,
)
from wgqed.dynamics import (
    NumericalError,
    ProbabilitySeries,
    _cumulative,
    modal_expansion,
    pole_sums,
)
from wgqed.spectral import synthesis_leak


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
    assert (chain.n_left, chain.n_center, chain.n_right) == (1, 1, 1)


# The published geometries (scale 1, default params): the (left, center, right)
# counts, gap_d0 in lambda_wg, the disorder density of each disordered mirror,
# and the default window in 1/gamma_ext.
PUBLISHED = {
    "fig2": ((100, 100, 100), 0.5, {}, 12.0),
    "fig3b": ((0, 100, 200), 0.5, {"right_mirror": 1.0}, 12.0),
    "fig3c": ((100, 100, 100), 0.5, {"left_mirror": 1.0, "right_mirror": 1.0}, 12.0),
    "fig4": ((100, 100, 100), 0.25, {}, 12.0),
    "fig5": ((0, 100, 200), 0.25, {}, 12.0),
    "fig7a": ((500, 100, 500), 338854.0, {}, 28.5),
    "fig7b": ((500, 100, 500), 338854.25, {}, 28.5),
    "bare": ((0, 100, 0), 0.5, {}, 12.0),
}


def test_scenario_layouts(params):
    assert set(SCENARIOS) == set(PUBLISHED)
    for name, (counts, gap_d0, disorder, t_ext) in PUBLISHED.items():
        chain = SCENARIOS[name].build(1.0, 0, params)
        assert (chain.n_left, chain.n_center, chain.n_right) == counts, name
        assert chain.gap_d0 == pytest.approx(gap_d0, rel=1e-15), name
        assert {
            role.value: dis.density for role, _, dis in chain.segments() if dis is not None
        } == disorder, name
        assert SCENARIOS[name].t_max_in_ext_lifetimes == t_ext, name

    fig3b = SCENARIOS["fig3b"].build(0.3, 0, params)
    assert (fig3b.n_left, fig3b.n_center, fig3b.n_right) == (0, 30, 60)
    assert fig3b.right_disorder == DisorderSpec(1.0)
    fig4 = SCENARIOS["fig4"].build(0.3, 0, params)
    assert fig4.gap_d0 == pytest.approx(0.25)
    fig5 = SCENARIOS["fig5"].build(0.3, 0, params)
    assert fig5.gap_d0 == pytest.approx(0.25)
    assert fig5.n_right == 60


def test_fig7_gap_snaps_to_mode_condition(params):
    node = SCENARIOS["fig7a"].build(0.1, 0, params)
    anti = SCENARIOS["fig7b"].build(0.1, 0, params)
    # node placement: integer half-waves; antinode: extra quarter wave
    assert node.gap_d0 % 0.5 == pytest.approx(0.0, abs=1e-9)
    assert (anti.gap_d0 - 0.25) % 0.5 == pytest.approx(0.0, abs=1e-9)
    span_c = (anti.n_center - 1) * 0.5
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
    def untimed(out):
        summary = json.loads((out / "summary.json").read_text())
        del summary["timings"]
        return json.dumps(summary, sort_keys=True)

    assert untimed(out1) == untimed(out2)


def test_artifact_formats(tmp_path):
    out = tmp_path / "run"
    result = run(RunConfig(scenario="bare", scale=0.05, method="markovian", out_dir=str(out)))
    headers, row_counts = {}, {}
    for name in ("probabilities.csv", "profiles.csv", "positions.csv"):
        with open(out / name, newline="") as fh:
            rows = list(csv.reader(fh))
        headers[name], row_counts[name] = rows[0], len(rows) - 1
    assert headers["probabilities.csv"] == [
        "t", "p", "p0", "pa", "E_left", "E_right", "E_raman", "E_ext"
    ]
    assert headers["profiles.csv"] == ["z_over_vg_per_gamma", "alpha2_left", "alpha2_right"]
    assert headers["positions.csv"] == ["index", "z_over_lambda_wg", "segment_role"]
    # t = 0 plus 2048 log-spaced times; 4096 tau midpoints; one row per atom
    assert row_counts == {"probabilities.csv": 2049, "profiles.csv": 4096, "positions.csv": 5}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["format_version"] == 5
    # format 5: the config echoes the run's options and the three rates only
    assert set(summary["config"]) == {
        "scenario", "chain", "params", "method", "method_requested", "scale", "t_max",
        "seed", "ensemble", "member_seeds", "workers",
    }
    assert set(summary["config"]["params"]) == {"beta", "gamma_ext", "v_g"}
    assert summary["config"]["method"] == "markovian"
    assert summary["converged"] is True
    assert summary["config"]["member_seeds"] == [0]
    # the echoed configuration is complete enough to rebuild the run
    assert summary["config"]["chain"]["segments"][0]["count"] == 5
    assert result.summary.data["rates"]["late"] > 0
    # run diagnostics: no grid on the poles route, the residual and the captures
    assert summary["route"] == "poles"
    assert summary["grid"] is None
    assert len(result.record.spectrum_right.deltas) == 0
    assert 0.0 <= summary["checks"]["residual_max"]["value"] <= 1e-10
    peak_rss = summary["timings"]["peak_rss_mb"]
    assert math.isfinite(peak_rss) and peak_rss > 0
    fits = summary["timings"]["fits"]
    assert math.isfinite(fits) and fits >= 0
    artifacts = summary["timings"]["artifacts"]
    assert math.isfinite(artifacts) and artifacts >= 0
    for name in ("right", "left"):
        profile = getattr(result.record, f"profile_{name}")
        assert summary["profiles"][name] == {
            "captured": profile.captured,
            "covers_support": profile.covers_support,
        }


def test_summary_peak_rss_counts_the_artifact_writer(tmp_path, monkeypatch):
    # a fake ru_maxrss of 1 MiB plus 1 MiB per CSV file on disk
    out = tmp_path / "run"

    def getrusage(who):
        return SimpleNamespace(ru_maxrss=1024 * (1 + len(list(out.glob("*.csv")))))

    monkeypatch.setattr(resource, "getrusage", getrusage)
    cfg = dict(scenario="bare", scale=0.05, method="markovian")
    timings = run(RunConfig(**cfg)).summary.data["timings"]
    assert timings["peak_rss_mb"] == 1.0 and "artifacts" not in timings
    run(RunConfig(out_dir=str(out), **cfg))
    # read after the three CSV files are written
    assert json.loads((out / "summary.json").read_text())["timings"]["peak_rss_mb"] == 4.0


def test_seed_zero_overrides_custom_chain_seed():
    chain = ChainSpec(
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
    assert cfg.chain == ChainSpec(0, 4, 6, gap_d0=0.25, right_disorder=DisorderSpec(2.0))
    result = run(cfg)
    assert result.series.p[0] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "body",
    [
        "n_left = -3\nn_center = 5\n",
        "n_center = 0\n",
        "n_center = 3\nspacing = inf\n",
        "n_center = 3\nn_right = 3\ngap_d0 = inf\n",
        "n_center = 3\ngap_d0 = nan\n",
    ],
    ids=["negative", "no-emitter", "spacing-inf", "gap-inf", "gap-nan"],
)
def test_bad_chain_counts_exit_with_an_error(tmp_path, capsys, body):
    path = tmp_path / "chain.cfg"
    path.write_text("[run]\nmethod = markovian\n[chain]\n" + body)
    assert main(["--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_infinite_v_g_exits_with_an_error(tmp_path, capsys):
    # the long-cavity gap reads v_g, so an infinite one must stop at the config
    path = tmp_path / "run.cfg"
    path.write_text("[run]\nscenario = fig7a\nscale = 0.05\n[params]\nv_g = inf\n")
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "v_g must be finite and positive" in err


def test_scale_applies_to_a_custom_chain(tmp_path):
    path = tmp_path / "chain.cfg"
    path.write_text("[run]\nmethod = markovian\n[chain]\nn_left = 4\nn_center = 4\nn_right = 4\n")
    out = tmp_path / "run"
    assert main(["--config", str(path), "--scale", "0.5", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["scale"] == 0.5
    assert [seg["count"] for seg in summary["config"]["chain"]["segments"]] == [2, 2, 2]
    with open(out / "positions.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 6


def _echoed_chain(tmp_path, argv):
    out = tmp_path / "echo"
    assert main([*argv, "--method", "markovian", "--out", str(out)]) == 0
    return json.loads((out / "summary.json").read_text())["config"]["chain"]


def test_chain_echo_is_pinned(tmp_path):
    # perfbench/workloads.py reads this schema back from summary.json
    assert _echoed_chain(tmp_path, ["--scenario", "fig3c", "--scale", "0.02"]) == {
        "gap_d0": 0.5,
        "rng_seed": 0,
        "segments": [
            {"role": "left_mirror", "count": 2, "spacing": None, "disorder_density": 1.0},
            {"role": "emitter", "count": 2, "spacing": None, "disorder_density": None},
            {"role": "right_mirror", "count": 2, "spacing": None, "disorder_density": 1.0},
        ],
    }
    path = tmp_path / "chain.cfg"
    path.write_text(
        "[run]\nseed = 2\n[chain]\nn_center = 3\nn_right = 4\ngap_d0 = 0.25\n"
        "spacing = 0.4\nright_disorder_density = 2.0\n"
    )
    assert _echoed_chain(tmp_path, ["--config", str(path)]) == {
        "gap_d0": 0.25,
        "rng_seed": 2,
        "segments": [
            {"role": "emitter", "count": 3, "spacing": 0.4, "disorder_density": None},
            {"role": "right_mirror", "count": 4, "spacing": None, "disorder_density": 2.0},
        ],
    }


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("[weird]\n", "unknown section"),
        ("[grid]\nspan_factor = 300\n", "unknown section"),
        ("[run]\nscenario fig2\n", "expected 'key = value'"),
        ("scenario = fig2\n", "outside of any section"),
        ("[run]\nscenario = fig2\nscenario = fig4\n", "duplicate key"),
        ("[run]\nbogus = 3\n", "unknown key"),
        # the units are fixed: gamma and lambda_wg are 1, not keys
        ("[params]\nbeta = 0.1\ngamma = 1\n", "bad.cfg:3: unknown key 'gamma'"),
        ("[params]\nlambda_wg = 1\n", "bad.cfg:2: unknown key 'lambda_wg'"),
        # there is no free-space term: its switch and its wavelength are unknown keys
        ("[run]\nfree_space = true\n", "bad.cfg:2: unknown key 'free_space'"),
        ("[params]\nlambda0 = 1.2\n", "bad.cfg:2: unknown key 'lambda0'"),
        ("[run]\nscale = abc\n", "bad value"),
        ("[run]\nscenario = fig2\n[chain]\nn_center = 4\n", "exclude each other"),
        ("[chain]\nn_left = -3\nn_center = 5\n", "bad value '-3' for 'n_left'"),
        ("[chain]\nn_center = 5\nn_right = -2\n", "bad value '-2' for 'n_right'"),
        ("[chain]\nn_center = 3\nspacing = inf\n", "bad value 'inf' for 'spacing'"),
        ("[chain]\nn_center = 3\nn_right = 3\ngap_d0 = inf\n", "bad value 'inf' for 'gap_d0'"),
        ("[chain]\nn_center = 3\ngap_d0 = nan\n", "bad value 'nan' for 'gap_d0'"),
        ("[chain]\nn_center = 3\nn_left = 2\nleft_disorder_density = nan\n",
         "bad value 'nan' for 'left_disorder_density'"),
    ],
)
def test_config_file_errors_are_line_anchored(tmp_path, body, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text(body)
    with pytest.raises(ConfigError, match=fragment) as err:
        config_from_file(path)
    assert re.search(r"bad\.cfg:\d+: ", str(err.value))  # carries file:line anchor


@pytest.mark.parametrize(
    "flags",
    [
        ["--scale", "nan"],
        ["--t-max", "0"],
        ["--t-max", "nan"],
        ["--t-max", "inf"],
        ["--seed", "-1"],
        ["--workers", "0"],
    ],
    ids=["scale-nan", "t-max-0", "t-max-nan", "t-max-inf", "seed-negative", "workers-0"],
)
def test_invalid_run_values_exit_with_an_error(tmp_path, capsys, flags):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\nscenario = bare\nscale = 0.05\n")
    assert main(["--config", str(path), *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, fragment",
    [
        # a random draw puts two mirror atoms under the separation floor
        (["--scenario", "fig3b", "--scale", "1", "--seed", "0"], "below the floor"),
        # the sweep route's window needs more grid points than the cap
        (["--scenario", "fig7b", "--scale", "0.05", "--t-max", "20000"], "exceed the cap"),
        # every pole decays at least at gamma_ext/2, so p underflows before t = 900
        (["--scenario", "fig2", "--scale", "0.1", "--t-max", "900"], "p underflows to 0 at t = "),
    ],
    ids=["geometry", "grid-cap", "underflow"],
)
def test_run_errors_exit_with_an_error(capsys, argv, fragment):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert "span factor" not in err


def test_span_factor_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args(["--scenario", "bare", "--span-factor", "300"])
    assert exit_.value.code == 2
    assert "--span-factor" in capsys.readouterr().err


def test_docs_config_example_matches_the_key_tables(tmp_path):
    # the examples use every key of the tables between them, and each runs
    text = (Path(__file__).resolve().parent.parent / "docs" / "config.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", text, re.S)
    assert len(blocks) == 2
    tables = {"run": _RUN_KEYS, "params": _PARAM_KEYS, "chain": _CHAIN_KEYS}
    keys = {name: set() for name in tables}
    for i, block in enumerate(blocks):
        path = tmp_path / f"example{i}.cfg"
        path.write_text(block)
        sections = parse_config_file(path)
        assert set(sections) <= set(tables)
        for name, raw in sections.items():
            assert set(_convert(name, tables[name], raw, path)) == set(raw), name
            keys[name] |= set(raw)
        assert main(["--config", str(path), "--out", str(tmp_path / f"run{i}")]) == 0
    assert keys == {name: set(table) for name, table in tables.items()}


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


def _main_config(monkeypatch, argv):
    # the RunConfig main hands to run, which stops there
    import wgqed.cli

    seen = []

    def capture(config):
        seen.append(config)
        raise ConfigError("captured")

    monkeypatch.setattr(wgqed.cli, "run", capture)
    assert main(argv) == 2
    return seen[0]


def test_flags_override_the_config_file(tmp_path, monkeypatch):
    path = tmp_path / "f.cfg"
    path.write_text(
        "[run]\nscenario = fig2\nscale = 0.05\nworkers = 2\n"
    )
    cfg = _main_config(
        monkeypatch,
        ["--config", str(path), "--scale", "0.3", "--seed", "7", "--t-max", "2",
         "--method", "spectral", "--out", "x"],
    )
    assert (cfg.scenario, cfg.scale, cfg.seed, cfg.t_max, cfg.method) == (
        "fig2", 0.3, 7, 2.0, "spectral"
    )
    assert cfg.out_dir == "x"
    assert cfg.workers == 2  # no flag: the file's value stands

    path.write_text("[run]\nseed = 3\n[chain]\nn_center = 4\n")
    cfg = _main_config(monkeypatch, ["--config", str(path), "--scenario", "fig4"])
    assert (cfg.scenario, cfg.chain, cfg.seed) == ("fig4", None, 3)
    assert cfg == RunConfig(scenario="fig4", seed=3)

    # without a file the flags apply over the RunConfig defaults
    cfg = _main_config(monkeypatch, ["--scenario", "fig2", "--ensemble", "2"])
    assert cfg == RunConfig(scenario="fig2", ensemble=2)


def test_parser_flags(capsys):
    parser = build_parser()
    args = parser.parse_args(
        ["--scenario", "fig5", "--scale", "0.5", "--method", "spectral",
         "--seed", "4", "--ensemble", "2", "--out", "x", "--workers", "3"]
    )
    assert args.scenario == "fig5"
    assert args.workers == 3
    # there is no free-space term: argparse rejects its flag
    with pytest.raises(SystemExit) as exit_info:
        main(["--scenario", "bare", "--free-space"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --free-space" in capsys.readouterr().err


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
        # midpoint rule: the half-offset samples tile [0, t_max] in equal cells
        step = profile.tau[1] - profile.tau[0]
        assert profile.tau[0] == pytest.approx(0.5 * step, rel=1e-12)
        expected = np.sum(profile.alpha2) * step / weight
        assert profile.captured == pytest.approx(expected, rel=1e-12)
        assert profile.covers_support == (expected >= 0.99)


# --- the poles route and its checks ------------------------------------------------


def _record_sweeps(monkeypatch):
    """Forward wgqed.cli.resolvent_sweep and keep each call's grid size."""
    import wgqed.cli

    sizes = []
    original = wgqed.cli.resolvent_sweep

    def recording(array, params, psi0, grid, **kwargs):
        sizes.append(grid.n_points)
        return original(array, params, psi0, grid, **kwargs)

    monkeypatch.setattr(wgqed.cli, "resolvent_sweep", recording)
    return sizes


def test_markovian_run_never_sweeps_its_grid(monkeypatch):
    from wgqed.cli import POLE_CHECK_POINTS

    sizes = _record_sweeps(monkeypatch)
    result = run(RunConfig(scenario="fig3b", scale=0.1, method="markovian", seed=1))
    summary = result.summary.data
    # the only sweep is the check of the modal resolvent
    assert sizes == [POLE_CHECK_POINTS]
    assert summary["route"] == "poles"
    checks = summary["checks"]
    assert "synthesis_leak" not in checks
    assert 1.0 <= checks["eig_condition"]["value"] < 1e8
    assert checks["pole_check_error"]["value"] <= 1e-8
    # and its spectra are sampled nowhere
    assert summary["grid"] is None
    assert len(result.record.spectrum_right.deltas) == 0


def test_the_poles_route_sizes_no_grid(tmp_path):
    # no grid cap can stop a poles run: a grid spanning 400 Gamma_fast, never
    # sampled, used to hit MAX_GRID_POINTS at t_max ~ 686 here and exit 2
    out = tmp_path / "run"
    argv = ["--scenario", "fig2", "--scale", "1", "--t-max", "700", "--out", str(out)]
    assert main(argv) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["route"] == "poles"
    assert summary["grid"] is None
    assert summary["converged"] is True


@pytest.mark.parametrize("scenario, scale", [("fig2", 0.1), ("fig7b", 0.02)])
def test_a_run_result_has_a_repr(scenario, scale):
    result = run(RunConfig(scenario=scenario, scale=scale))
    text = repr(result)
    assert text.startswith("RunResult(summary=RunSummary(")
    spectrum = "PoleSpectrum(poles=" if scenario == "fig2" else "DirectionalSpectrum(grid="
    assert spectrum in text


def test_retarded_run_reports_the_sweep_route():
    summary = run(RunConfig(scenario="fig2", scale=0.05, method="spectral")).summary.data
    assert summary["route"] == "sweep"
    assert "eig_condition" not in summary["checks"]
    assert "pole_check_error" not in summary["checks"]


def _count_calls(monkeypatch, calls, module, name):
    """Record in calls each call of module.name, which still runs."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name) or original(*a, **k))


def test_retarded_run_makes_no_eig(monkeypatch):
    # the overlap belongs to the Markovian model: a retarded run reports none
    # and makes no O(N^3) step; H belongs to the poles route, so it builds none
    import wgqed.hamiltonian
    import wgqed.spectral

    calls = []
    _count_calls(monkeypatch, calls, np.linalg, "eig")
    for module in (wgqed.hamiltonian, wgqed.spectral, wgqed.cli):
        _count_calls(monkeypatch, calls, module, "effective_hamiltonian")
    summary = run(RunConfig(scenario="fig7b", scale=0.05)).summary.data
    assert summary["config"]["method"] == "spectral"
    assert calls == []
    assert summary["superradiant_overlap"] is None
    assert all("superradiant_overlap" not in m for m in summary["timings"]["members"])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [0.3, 1.0])
def test_degenerate_fastest_cluster_overlap_is_a_weight(scale):
    # fig5's fastest decay rate is 2-fold degenerate: the cluster's summed
    # residue is still a weight, and the run warns of nothing
    overlap = run(RunConfig(scenario="fig5", scale=scale)).summary.data["superradiant_overlap"]
    assert 0.0 <= overlap <= 1.0 + 1e-12
    assert overlap == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "cfg, n_members",
    [
        (dict(scenario="fig2", scale=0.05), 1),
        (dict(scenario="fig3b", scale=0.05, seed=3, ensemble=3), 3),
    ],
    ids=["fig2", "fig3b-ensemble"],
)
def test_markovian_member_makes_one_eig(monkeypatch, cfg, n_members):
    # the evolution, the spectra, the pole check and the overlap all read the
    # one eigendecomposition of the member's H
    calls = []
    _count_calls(monkeypatch, calls, np.linalg, "eig")
    summary = run(RunConfig(**cfg)).summary.data
    assert summary["route"] == "poles"
    assert len(summary["timings"]["members"]) == n_members
    assert calls == ["eig"] * n_members


@pytest.mark.parametrize(
    "target, value, fragment",
    [
        ("wgqed.dynamics.CONDITION_MAX", 1.0,
         "eigenvector condition number .* exceeds CONDITION_MAX = 1: .* --method spectral"),
        ("wgqed.cli.POLE_CHECK_TOL", 0.0, "pole check deviation .* exceeds POLE_CHECK_TOL = 0"),
        # the modal residual's gate; the expansion meets it first
        ("wgqed.dynamics.RESIDUAL_TOL", 0.0, "modal residual"),
    ],
    ids=["guided-ill-conditioned", "guided-pole-check", "guided-residual-gate"],
)
def test_untrusted_expansion_raises_before_it_evolves(monkeypatch, target, value, fragment):
    # the resonant kernel has one route: an expansion of the guided H that is
    # unusable or fails its check raises, and nothing is evolved from it
    import wgqed.cli

    cfg = RunConfig(scenario="bare", scale=0.05, method="markovian")
    summary = run(cfg).summary.data
    assert summary["route"] == "poles"
    assert summary["checks"]["pole_check_error"]["value"] <= 1e-8
    monkeypatch.setattr(target, value)
    evolved = []
    original = wgqed.cli.evolve_markovian
    monkeypatch.setattr(
        wgqed.cli, "evolve_markovian", lambda *a, **k: evolved.append(a) or original(*a, **k)
    )
    with pytest.raises(NumericalError, match=fragment):
        run(cfg)
    assert evolved == []


MARKOVIAN_BARE = ["--scenario", "bare", "--scale", "0.05", "--method", "markovian"]


@pytest.mark.parametrize(
    "target, value, argv, fragment",
    [
        ("wgqed.dynamics.CONDITION_MAX", 1.0, MARKOVIAN_BARE, "eigenvector condition number"),
        ("wgqed.dynamics.RESIDUAL_TOL", 0.0, MARKOVIAN_BARE, "modal residual"),
        # the sweep route's gate names the resolvent, not the modes
        ("wgqed.dynamics.RESIDUAL_TOL", 0.0, ["--scenario", "fig7b", "--scale", "0.02"],
         "resolvent residual"),
    ],
    ids=["ill-conditioned", "residual-gate", "sweep-residual-gate"],
)
def test_numerical_errors_exit_with_an_error(monkeypatch, capsys, target, value, argv, fragment):
    monkeypatch.setattr(target, value)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


def test_ensemble_keeps_every_member_timing():
    cfg = dict(scenario="fig3b", scale=0.05, method="markovian", seed=3, ensemble=3)
    timings = run(RunConfig(**cfg)).summary.data["timings"]
    assert len(timings["members"]) == 3
    for member in timings["members"]:
        assert set(member) == {
            "resolvent_sweep", "emission_spectra", "evolution", "probabilities", "profiles",
            "superradiant_overlap",
        }
        assert all(value >= 0.0 for value in member.values())
    assert timings["total"] >= sum(sum(m.values()) for m in timings["members"])


@pytest.mark.parametrize("scenario, scale", [("fig2", 0.1), ("fig7b", 0.02)])
def test_every_member_times_its_probabilities(scenario, scale):
    # the ledger integration is a stage of its own on either route
    timings = run(RunConfig(scenario=scenario, scale=scale)).summary.data["timings"]
    assert all(member["probabilities"] > 0.0 for member in timings["members"])


JSON_SCALARS = (type(None), bool, int, float, str)


def _not_plain_json(value, path="data"):
    """(path, type) of every container in value that is not a dict with str
    keys or a list, and of every leaf whose type is not in JSON_SCALARS."""
    if type(value) is dict:
        for key, item in value.items():
            if type(key) is not str:
                yield f"{path} key {key!r}", type(key)
            yield from _not_plain_json(item, f"{path}.{key}")
    elif type(value) is list:
        for i, item in enumerate(value):
            yield from _not_plain_json(item, f"{path}[{i}]")
    elif type(value) not in JSON_SCALARS:
        yield path, type(value)


@pytest.mark.parametrize(
    "cfg",
    [
        dict(scenario="fig2", scale=0.1),
        dict(scenario="fig7b", scale=0.02),
        dict(scenario="fig3b", scale=0.05, seed=3, ensemble=3),
    ],
    ids=["poles", "sweep", "ensemble"],
)
def test_a_summary_is_built_of_plain_json_values(cfg):
    # summary.json is dumped as the run builds it: no pass converts numpy
    # scalars, arrays or tuples, so none may reach the summary
    assert list(_not_plain_json(run(RunConfig(**cfg)).summary.data)) == []


def test_published_scale_fig2_runs_on_the_poles_route(monkeypatch):
    # and in bounded memory: no time x pole table (two of 19 MiB each, about
    # 50 MiB traced) is held by the trajectory, the Dicke amplitude or the profiles
    import tracemalloc

    from wgqed.cli import POLE_CHECK_POINTS

    sizes = _record_sweeps(monkeypatch)
    tracemalloc.start()
    try:
        result = run(RunConfig(scenario="fig2", scale=1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25 * 2**20
    summary = result.summary.data
    assert summary["config"]["method"] == "markovian"
    assert sum(s["count"] for s in summary["config"]["chain"]["segments"]) == 300
    assert sizes == [POLE_CHECK_POINTS]
    assert summary["route"] == "poles"
    assert summary["converged"] is True
    assert float(result.series.balance_error().max()) <= 1e-2


def test_jc_fit_reports_its_pole_rms_and_residual(fig7b_run):
    # the pencil reproduces a0 to the synthesis accuracy; the doublet alone
    # leaves the mirror poles out of |a0|^2
    summary = fig7b_run.summary.data
    jc = summary["jc_fit"]
    assert set(jc) == {"g", "kappa", "gamma_e", "frequency", "residual", "pole_rms"}
    assert jc["pole_rms"] <= 1e-8
    assert 0.0 < jc["residual"] < 0.05
    assert jc["kappa"] > 0.0 and jc["gamma_e"] > 0.0
    assert isinstance(summary["regime"]["strong_coupling"], bool)
    assert summary["timings"]["classify_regime"] >= 0.0


@pytest.mark.parametrize("fixture", ["fig4_run", "fig5_run", "fig7b_run"])
def test_cavity_model_frequency_matches_the_oscillation(fixture, request):
    # two independent sources: the beat of the p0 time series and the doublet
    # splitting of the pole model
    summary = request.getfixturevalue(fixture).summary.data
    osc, jc = summary["oscillation"], summary["jc_fit"]
    assert abs(jc["frequency"] - osc["frequency"]) / osc["frequency"] <= 0.01


@pytest.mark.parametrize("fixture", ["fig4_run", "fig5_run"])
def test_bragg_cavity_p0_is_its_two_loss_model(fixture, request):
    # the Dicke amplitude of a Bragg cavity is exactly a doublet, so the
    # reported (g, kappa, gamma_e) give back the run's p0 itself
    result = request.getfixturevalue(fixture)
    jc = result.summary.data["jc_fit"]
    gen = np.array([[-0.5 * jc["gamma_e"], -1j * jc["g"]], [-1j * jc["g"], -0.5 * jc["kappa"]]])
    rates, vecs = np.linalg.eig(gen)
    a = (np.exp(np.outer(result.series.t, rates)) * np.linalg.solve(vecs, [1.0, 0.0])) @ vecs[0]
    assert np.max(np.abs(np.abs(a) ** 2 - result.series.p0)) < 1e-9


def test_oscillating_run_fits_the_cavity_model():
    # a short retarded cavity that oscillates: the pole fit runs on its a0
    summary = run(RunConfig(scenario="fig7b", scale=0.02)).summary.data
    assert summary["oscillation"] is not None
    assert summary["jc_fit"] is not None
    assert summary["jc_fit"]["g"] > 0


def _dicke_poles(scenario, scale):
    """The poles lam_j and amplitudes A_j = (psi0^dagger V)_j c_j of a
    scenario's Dicke amplitude a0, from the modal expansion of its H."""
    params = PhysParams()
    array = build_chain(SCENARIOS[scenario].build(scale, 0, params))
    psi0 = dicke_initial_state(array, params)
    modes = modal_expansion(effective_hamiltonian(array, params), psi0)
    return modes.evals, (np.conj(psi0.amplitudes) @ modes.vecs) * modes.coeffs


def test_the_pencil_finds_the_cavity_model_of_the_modes():
    # the sweep route's pencil, on a0 of a Bragg cavity sampled on 257 uniform
    # times over the run's window, against the model of its exact poles
    poles, amps = _dicke_poles("fig4", 0.3)
    t = np.linspace(0.0, SCENARIOS["fig4"].t_max_in_ext_lifetimes / PhysParams().gamma_ext, 257)
    fitted = fit_jc_trace(t, pole_sums(poles, amps, t)[:, 0])
    exact = jc_model(poles, amps)
    for key in ("g", "kappa", "gamma_e", "frequency"):
        assert getattr(fitted, key) == pytest.approx(getattr(exact, key), rel=1e-12, abs=0.0)
    assert fitted.pole_rms < 1e-12 and exact.pole_rms is None


@pytest.fixture
def pencil_calls(monkeypatch):
    """The arguments of every matrix-pencil fit made during the test."""
    import wgqed.analytic

    pencil, recorded = wgqed.analytic.harmonic_inversion, []
    monkeypatch.setattr(
        wgqed.analytic, "harmonic_inversion", lambda *a: recorded.append(a) or pencil(*a)
    )
    return recorded


@pytest.mark.parametrize(
    "scenario, scale, calls", [("fig4", 0.3, 0), ("fig7b", 0.02, 1), ("fig7a", 0.05, 0)]
)
def test_only_the_sweep_route_runs_the_pencil(pencil_calls, scenario, scale, calls):
    # a run reports a cavity model exactly when p0 oscillates; fig4 and fig7b
    # do, and only the swept one fits its pencil.  The swept fig7a does not
    # oscillate, so it runs no pencil at all
    summary = run(RunConfig(scenario=scenario, scale=scale)).summary.data
    assert (summary["jc_fit"] is None) == (summary["oscillation"] is None)
    assert (summary["jc_fit"] is None) == (scenario == "fig7a")
    assert len(pencil_calls) == calls


def test_an_ensemble_fits_one_pencil(pencil_calls):
    # the reported cavity model is the first member's, so only it is fitted
    summary = run(RunConfig(scenario="fig7b", scale=0.02, ensemble=2)).summary.data
    assert summary["jc_fit"] is not None
    assert len(pencil_calls) == 1


@pytest.mark.parametrize("fixture", ["fig4_run", "fig5_run"])
def test_the_poles_route_residual_bounds_the_doublet(fixture, request):
    # every pole decays, so the amplitudes off the doublet bound a0 - doublet
    # at every t >= 0; no sum was fitted, so there is no pole_rms
    result = request.getfixturevalue(fixture)
    jc = result.summary.data["jc_fit"]
    assert jc["pole_rms"] is None
    poles, amps = _dicke_poles(fixture.split("_")[0], 0.3)
    pair = np.argsort(-np.abs(amps))[:2]
    assert abs((poles[pair[0]] - poles[pair[1]]).real) == pytest.approx(jc["frequency"], rel=1e-14)
    t = result.series.t
    a0 = pole_sums(poles, amps, t)[:, 0]
    doublet = pole_sums(poles[pair], amps[pair], t)[:, 0]
    assert np.max(np.abs(a0 - doublet)) <= jc["residual"] + 1e-14


# --- the retarded grid: a 2 t_max window, checked by the leak probes ---------------


def _grid_of_the_8_t_max_window(gamma_fast, t_max, span_factor, doublings=0):
    """The oracle: the rule's smallest grid for a window of 8 t_max."""
    from wgqed.spectral import build_grid

    return build_grid(gamma_fast, 4.0 * t_max, span_factor, doublings)


@pytest.mark.parametrize("scenario", ["fig7a", "fig7b"])
def test_retarded_run_matches_the_8_t_max_window(scenario, tmp_path, monkeypatch):
    import wgqed.cli
    from wgqed.spectral import SpectralGrid
    from test_spectral import _admissible, _previous_admissible

    out = tmp_path / scenario
    result = run(RunConfig(scenario=scenario, scale=0.02, out_dir=str(out)))
    summary = json.loads((out / "summary.json").read_text())
    grid, t_max = summary["grid"], summary["config"]["t_max"]
    n = grid["n_points"]
    assert summary["route"] == "sweep" and summary["converged"] is True
    # the spectra are sampled on the reported grid
    assert len(result.record.spectrum_right.deltas) == n
    assert grid["alias_window"] == pytest.approx(2 * np.pi / grid["spacing"], rel=1e-12)
    # the smallest admissible size whose alias-free window holds +/- t_max,
    # with no retry
    assert grid["doublings"] == 0 and _admissible(n)
    assert grid["alias_window"] >= 2 * t_max
    smaller = _previous_admissible(n)
    assert SpectralGrid(0.0, grid["spacing"] * (n - 1), smaller).alias_window < 2 * t_max

    monkeypatch.setattr(wgqed.cli, "build_grid", _grid_of_the_8_t_max_window)
    oracle = run(RunConfig(scenario=scenario, scale=0.02))
    wide = oracle.summary.data["grid"]
    assert wide["doublings"] == 0 and wide["alias_window"] >= 8 * t_max
    for field in ("p", "p0"):
        got, expected = getattr(result.series, field), getattr(oracle.series, field)
        assert np.max(np.abs(got - expected)) <= 1e-8
    assert oracle.summary.data["converged"] is True
    ledger, expected = result.record.ledger.as_dict(), oracle.record.ledger.as_dict()
    for key, value in expected.items():
        assert abs(ledger[key] - value) <= 1e-8, key


def test_a_t_max_shorter_than_the_decay_is_not_converged():
    from wgqed.cli import LEAK_TOL

    # at t_max = 6 the cavity still holds p = 5.0e-3: the 2 t_max window aliases
    # it, and so does the retried window of twice the points (864), which
    # only the leak probes see; both ledger gates pass
    short = run(RunConfig(scenario="fig7b", scale=0.05, t_max=6.0)).summary.data
    checks = short["checks"]
    assert short["grid"]["doublings"] == 1
    assert checks["synthesis_leak"]["value"] > 10 * LEAK_TOL
    assert checks["balance_error"]["value"] <= 1e-2
    assert checks["guided_route_discrepancy"]["value"] <= 1e-2
    assert short["converged"] is False
    assert [name for name, check in checks.items() if not check["ok"]] == ["synthesis_leak"]
    default = run(RunConfig(scenario="fig7b", scale=0.05)).summary.data
    assert default["checks"]["synthesis_leak"]["value"] <= LEAK_TOL
    assert default["converged"] is True


# --- the gate table: every check and the one verdict -------------------------------


ROUTE_CHECKS = {
    "poles": ["balance_error", "guided_route_discrepancy", "residual_max", "eig_condition",
              "pole_check_error"],
    "sweep": ["balance_error", "guided_route_discrepancy", "residual_max", "synthesis_leak"],
}


@pytest.mark.parametrize(
    "scenario, scale", [("fig2", 0.1), ("fig7b", 0.05)], ids=["poles", "sweep"]
)
def test_converged_is_every_check_of_the_route(scenario, scale):
    result = run(RunConfig(scenario=scenario, scale=scale))
    summary = result.summary.data
    checks = summary["checks"]
    assert list(checks) == ROUTE_CHECKS[summary["route"]]
    for check in checks.values():
        assert set(check) == {"value", "limit", "ok"}
        assert check["ok"] is (check["value"] <= check["limit"])
    assert summary["converged"] is all(check["ok"] for check in checks.values())
    assert summary["converged"] is True
    assert result.record.ledger.converged is summary["converged"]
    # the ledger's two values are the run-level ledger's
    for name in ("balance_error", "guided_route_discrepancy"):
        assert checks[name]["value"] == summary["ledger"][name]


@pytest.fixture(scope="module")
def sweep_checks():
    return run(RunConfig(scenario="fig7b", scale=0.05)).summary.data["checks"]


@pytest.fixture(scope="module")
def retried_leak():
    """The leak of fig7b --scale 0.05 on its grid of twice the points."""
    import wgqed.cli
    from wgqed.spectral import build_grid

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            wgqed.cli, "build_grid", lambda g, t, span, d: build_grid(g, t, span, d + 1)
        )
        summary = run(RunConfig(scenario="fig7b", scale=0.05)).summary.data
    assert summary["grid"]["n_points"] == 2 * 2160
    return summary["checks"]["synthesis_leak"]["value"]


@pytest.mark.parametrize(
    "limit, name",
    [
        ("BALANCE_TOL", "balance_error"),
        ("DISCREPANCY_TOL", "guided_route_discrepancy"),
        ("LEAK_TOL", "synthesis_leak"),
    ],
)
def test_a_soft_limit_under_its_value_flips_only_its_check(
    monkeypatch, sweep_checks, retried_leak, limit, name
):
    import wgqed.cli

    lowered = 0.5 * sweep_checks[name]["value"]
    monkeypatch.setattr(wgqed.cli, limit, lowered)
    result = run(RunConfig(scenario="fig7b", scale=0.05))
    summary = result.summary.data
    checks = summary["checks"]
    assert [key for key, check in checks.items() if not check["ok"]] == [name]
    assert checks[name]["limit"] == lowered
    # a leak over the limit sweeps again at twice the points, and the run
    # reports that grid's leak
    retried = name == "synthesis_leak"
    assert summary["grid"]["doublings"] == int(retried)
    assert checks[name]["value"] == (retried_leak if retried else sweep_checks[name]["value"])
    assert summary["converged"] is False and result.record.ledger.converged is False


def test_a_raised_residual_gate_is_the_limit_in_the_table(monkeypatch):
    monkeypatch.setattr("wgqed.dynamics.RESIDUAL_TOL", 1e-6)
    summary = run(RunConfig(scenario="fig2", scale=0.05)).summary.data
    assert summary["checks"]["residual_max"]["limit"] == 1e-6
    assert summary["converged"] is True


def test_main_names_the_failing_checks(monkeypatch, capsys):
    monkeypatch.setattr("wgqed.cli.LEAK_TOL", 0.0)
    assert main(["--scenario", "fig7b", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "converged=False failing=synthesis_leak" in out
    monkeypatch.undo()
    assert main(["--scenario", "fig7b", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "converged=True" in out and "failing" not in out


# --- the poles route streams its trajectory ----------------------------------------


def _dense_series(amplitudes, t, psi0, array, params, fluxes=None):
    """The oracle: the series of a whole n_t x N amplitude array, each
    projection one matrix-vector product over every time at once; fluxes,
    when given, are the (right, left) outflows that replace Phi_+/-."""
    phase = np.exp(-1j * params.k_wg * array.positions)
    half = 0.5 * params.gamma_wg
    if fluxes is None:
        fluxes = [half * np.abs(amplitudes @ bra) ** 2 for bra in (phase, np.conj(phase))]
    p = np.sum(np.abs(amplitudes) ** 2, axis=1)
    emitters = amplitudes[:, array.emitter_start : array.emitter_stop]
    return ProbabilitySeries(
        t,
        p,
        np.abs(amplitudes @ np.conj(psi0.amplitudes)) ** 2,
        np.sum(np.abs(emitters) ** 2, axis=1),
        _cumulative(fluxes[1], t),
        _cumulative(fluxes[0], t),
        _cumulative(params.gamma_raman * p, t),
        _cumulative(params.gamma_ext * p, t),
    )


@pytest.mark.parametrize(
    "scenario, scale, seed",
    [("fig2", 0.3, 0), ("fig3b", 0.1, 3), ("fig4", 0.3, 0), ("fig5", 1.0, 0)],
)
def test_the_streamed_series_matches_the_whole_array(monkeypatch, scenario, scale, seed):
    import wgqed.cli

    original, calls = wgqed.cli.probabilities, []
    monkeypatch.setattr(wgqed.cli, "probabilities", lambda *a: calls.append(a) or original(*a))
    series = run(RunConfig(scenario=scenario, scale=scale, seed=seed)).series
    [(trajectory, psi0, array, params, fluxes)] = calls
    assert fluxes is None
    # the whole array is still the one pole_sums call on the run's grid
    modes = trajectory.modes
    amplitudes = trajectory.amplitudes
    assert np.array_equal(
        amplitudes, pole_sums(modes.evals, modes.vecs * modes.coeffs, trajectory.t)
    )
    oracle = _dense_series(amplitudes, trajectory.t, psi0, array, params)
    for channel in fields(ProbabilitySeries):
        got, want = getattr(series, channel.name), getattr(oracle, channel.name)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), channel.name


def test_a_poles_run_holds_no_time_by_atom_array():
    # tracemalloc counts numpy's buffers, so the reading is the same on any
    # machine: 4.4 MiB while fig2 at scale 0.3 held its 2049 x 90 amplitudes
    # (2.8 MiB), about 1.2 MiB now that b is read N x CHUNK at a time
    config = RunConfig(scenario="fig2", scale=0.3)
    run(config)  # first-call allocations stay out of the reading
    tracemalloc.start()
    try:
        run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, f"{peak / 2**20:.2f} MiB"


# --- the sweep route streams its synthesis ------------------------------------------


@pytest.mark.parametrize(
    "config",
    [
        RunConfig(scenario="fig7b", scale=0.05),
        RunConfig(scenario="fig7a", scale=0.05),
        RunConfig(scenario="fig2", scale=0.1, method="spectral"),
        RunConfig(scenario="fig7b", scale=0.02, ensemble=2),
    ],
    ids=["fig7b", "fig7a", "fig2-spectral", "fig7b-ensemble"],
)
def test_the_streamed_sweep_series_matches_the_whole_array(monkeypatch, config):
    import wgqed.cli

    original, calls = wgqed.cli.probabilities, []

    def recorded(*args):
        series = original(*args)
        calls.append((args, series))
        return series

    monkeypatch.setattr(wgqed.cli, "probabilities", recorded)
    result = run(config)
    # a retried member reads the series once per grid; the run reports the last
    grid = result.summary.data["grid"]
    assert len(calls) == config.ensemble * (1 + grid["doublings"])
    reported = [call for call in calls if call[0][0].grid.n_points == grid["n_points"]]
    assert len(reported) == config.ensemble
    leaks = []
    for (trajectory, psi0, array, params, fluxes), series in reported:
        assert fluxes is not None
        # the whole array at the probes and the times, as one synthesis
        times = np.concatenate([trajectory.probes, trajectory.t])
        amplitudes = replace(trajectory, t=times, probes=np.empty(0)).amplitudes
        n_probes = len(trajectory.probes)
        oracle = _dense_series(amplitudes[n_probes:], trajectory.t, psi0, array, params, fluxes)
        for channel in fields(ProbabilitySeries):
            got, want = getattr(series, channel.name), getattr(oracle, channel.name)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), channel.name
        leak = synthesis_leak(trajectory.arrival, times, amplitudes)
        assert trajectory.leak == leak
        leaks.append(leak)
    assert result.summary.data["checks"]["synthesis_leak"]["value"] == max(leaks)


def test_a_sweep_run_holds_no_time_by_atom_array():
    # fig7b at scale 0.05 (N = 55): on a 4096-point grid, 9.2 MiB while the
    # synthesis held its 2065 x 55 amplitudes (1.7 MiB) beside x (3.4 MiB)
    # and gathered the nodes of 512 times at once (1.5 MiB), and 6.1 MiB once
    # b was synthesised and read FFT_COLUMNS atoms at a time; about 3.6 MiB
    # on the 2160-point grid, where the synthesis with x (1.8 MiB) sets the
    # peak, above the 3.3 MiB of the sweep with its work buffer
    config = RunConfig(scenario="fig7b", scale=0.05)
    run(config)  # first-call allocations stay out of the reading
    tracemalloc.start()
    try:
        run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2**20, f"{peak / 2**20:.2f} MiB"


def test_the_pole_check_builds_no_front_table():
    # the 9-point check reads only resolvent(): on fig2 at scale 1 (N = 300,
    # psi0 on 100 atoms) it grows by about 1.4 MiB, the N x occupied ramps
    # table; building the chain-end fronts as well took 5.1 MiB
    params = PhysParams()
    chain = SCENARIOS["fig2"].build(1.0, 0, params)
    array = build_chain(chain)
    psi0 = dicke_initial_state(array, params)
    modes = modal_expansion(effective_hamiltonian(array, params), psi0)
    gamma_fast = collective_rate(max(chain.n_left, chain.n_center, chain.n_right), params)
    _pole_check(modes, array, params, psi0, gamma_fast)  # first-call allocations
    tracemalloc.start()
    try:
        _pole_check(modes, array, params, psi0, gamma_fast)
        growth = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert growth <= 2.5 * 2**20, f"{growth / 2**20:.2f} MiB"

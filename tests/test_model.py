import csv
import tracemalloc
from dataclasses import replace
from pathlib import Path

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from wgqed import (
    ChainSpec,
    ConfigError,
    GeometryError,
    PhysParams,
    SegmentRole,
    StateVector,
    build_chain,
    dicke_initial_state,
)
from wgqed import model
from wgqed.cli import RunConfig, _resolve_chain, run
from wgqed.model import (
    CSV_BLOCK_ROWS,
    MIN_SEPARATION,
    DisorderSpec,
    write_csv,
)


def test_default_params():
    p = PhysParams()
    assert p.gamma_1d == pytest.approx(0.1)
    assert p.gamma_wg == pytest.approx(0.05)
    assert p.gamma_raman == pytest.approx(0.05)
    assert p.gamma_tot == pytest.approx(1.05)
    assert p.k_wg == pytest.approx(2 * np.pi)
    # nanofiber group velocity in reduced units, anchored to the Rb D2 line
    assert p.v_g == pytest.approx(8.465e6, rel=1e-3)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"beta": float("nan")},
        {"beta": 0.0},
        {"beta": 1.0},
        {"gamma_ext": -0.1},
        {"v_g": 0.0},
        {"v_g": float("nan")},
        {"v_g": float("inf")},
        {"gamma_ext": 1.0},          # must stay below gamma = 1
        {"gamma_ext": 0.85},         # Purcell: gamma_ext + gamma_1d must exceed 1
    ],
)
def test_params_invariants(kwargs):
    with pytest.raises(ConfigError):
        PhysParams(**kwargs)


def test_lattice_emitter_only():
    spec = ChainSpec(0, 3, 0)
    arr = build_chain(spec)
    assert_allclose(arr.positions, [0.0, 0.5, 1.0], atol=0)
    assert arr.emitter_start == 0 and arr.emitter_stop == 3


def test_lattice_with_gap():
    spec = ChainSpec(0, 2, 2, gap_d0=0.25)
    arr = build_chain(spec)
    assert_allclose(arr.positions, [0.0, 0.5, 0.75, 1.25], atol=0)
    assert arr.roles == (
        SegmentRole.EMITTER,
        SegmentRole.EMITTER,
        SegmentRole.RIGHT_MIRROR,
        SegmentRole.RIGHT_MIRROR,
    )


def test_lattice_exactly_periodic():
    spec = ChainSpec(0, 200, 0)
    arr = build_chain(spec)
    gaps = np.diff(arr.positions)
    assert np.all(gaps == gaps[0])


def _disordered_mirror_spec(seed):
    return ChainSpec(100, 1, 0, gap_d0=0.5, left_disorder=DisorderSpec(1.0), rng_seed=seed)


def test_disorder_deterministic_and_matches_reference_stream():
    arr1 = build_chain(_disordered_mirror_spec(2))
    arr2 = build_chain(_disordered_mirror_spec(2))
    assert np.array_equal(arr1.positions, arr2.positions)

    mirror = arr1.positions[:100]
    assert np.all(np.diff(mirror) > 0)
    assert mirror[-1] <= 50.0
    # reference PRNG stream frozen from numpy's Generator(PCG64) with seed 2
    assert mirror[1] == 0.150994128254045
    assert mirror[50] == 24.56352942178825
    assert mirror[99] == 48.75489383568078
    # nominal-span convention: emitter sits gap_d0 past the 50 lambda span
    assert arr1.positions[-1] == pytest.approx(50.16072667592585, abs=1e-12)


def test_disorder_seed_changes_draw():
    a = build_chain(_disordered_mirror_spec(2))
    b = build_chain(_disordered_mirror_spec(5))
    assert not np.array_equal(a.positions, b.positions)


def test_min_separation_floor():
    spec = ChainSpec(0, 3, 0, spacing=0.5 * MIN_SEPARATION)
    with pytest.raises(GeometryError):
        build_chain(spec)
    # a too-small inter-segment gap is rejected the same way
    spec = ChainSpec(0, 2, 2, gap_d0=0.5 * MIN_SEPARATION)
    with pytest.raises(GeometryError):
        build_chain(spec)


def test_chain_spec_validation():
    # negative counts and an empty emitter, mirrors included, raise
    for counts in [(-3, 5, -2), (-1, 2, 0), (0, 2, -1), (5, 0, 5), (0, -1, 0)]:
        with pytest.raises(ConfigError, match="n_center >= 1"):
            ChainSpec(*counts)
    with pytest.raises(ConfigError):
        ChainSpec(2, 2, 0, gap_d0=0.0)
    with pytest.raises(ConfigError):
        ChainSpec(0, 2, 0, spacing=0.0)
    with pytest.raises(ConfigError):
        DisorderSpec(0.0)
    # non-finite lengths and densities raise, gap_d0 also without mirrors
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigError, match="finite"):
            ChainSpec(0, 2, 0, spacing=bad)
        with pytest.raises(ConfigError, match="finite"):
            ChainSpec(2, 2, 0, gap_d0=bad)
        with pytest.raises(ConfigError, match="finite"):
            ChainSpec(0, 2, 0, gap_d0=bad)
        with pytest.raises(ConfigError, match="finite"):
            DisorderSpec(bad)


def test_counts():
    # the non-empty segments, left to right, with each mirror's disorder
    dis = DisorderSpec(2.0)
    assert ChainSpec(4, 2, 7, right_disorder=dis).segments() == [
        (SegmentRole.LEFT_MIRROR, 4, None),
        (SegmentRole.EMITTER, 2, None),
        (SegmentRole.RIGHT_MIRROR, 7, dis),
    ]
    assert ChainSpec(0, 3, 0, left_disorder=dis).segments() == [(SegmentRole.EMITTER, 3, None)]
    assert build_chain(ChainSpec(0, 3, 5)).emitter_stop == 3


def test_scaled_counts():
    # a nonzero count becomes max(1, round(n scale)); zero stays zero
    chain = ChainSpec(4, 30, 0, gap_d0=0.25, right_disorder=DisorderSpec(2.0), rng_seed=3)
    assert chain.scaled(0.5) == ChainSpec(
        2, 15, 0, gap_d0=0.25, right_disorder=DisorderSpec(2.0), rng_seed=3
    )
    assert chain.scaled(0.01) == replace(chain, n_left=1, n_center=1)
    assert chain.scaled(1.0) == chain


def test_dicke_half_wave_phases(params):
    arr = build_chain(ChainSpec(0, 3, 0))
    state = dicke_initial_state(arr, params)
    expected = np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
    assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_dicke_single_atom(params):
    arr = build_chain(ChainSpec(0, 1, 0))
    state = dicke_initial_state(arr, params)
    assert_allclose(state.amplitudes, [1.0], atol=1e-15)


def test_dicke_full_wave_spacing(params):
    arr = build_chain(ChainSpec(0, 4, 0, spacing=1.0))
    state = dicke_initial_state(arr, params)
    assert_allclose(state.amplitudes, np.full(4, 0.5), atol=1e-12)


def test_dicke_zero_outside_emitter(params):
    arr = build_chain(ChainSpec(3, 2, 3))
    state = dicke_initial_state(arr, params)
    assert np.all(state.amplitudes[:3] == 0)
    assert np.all(state.amplitudes[5:] == 0)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


@given(n_c=st.integers(min_value=2, max_value=60), n_l=st.integers(min_value=0, max_value=40))
def test_dicke_phase_alternation_property(n_c, n_l):
    params = PhysParams()
    arr = build_chain(ChainSpec(n_l, n_c, 0, gap_d0=0.5))
    state = dicke_initial_state(arr, params)
    amps = state.amplitudes[arr.emitter_start : arr.emitter_stop]
    ratios = amps[1:] / amps[:-1]
    # half-wave lattice: consecutive phases differ by pi exactly
    assert_allclose(ratios, -1.0, atol=1e-9)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_state_vector_rejects_unnormalised():
    with pytest.raises(ConfigError):
        StateVector(np.array([1.0, 1.0]))


def _csv_oracle(path, header, rows):
    # the csv module with repr(float(v)) per float: the bytes write_csv keeps
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return path.read_bytes()


def test_positions_csv(tmp_path):
    arr = build_chain(ChainSpec(1, 2, 0, gap_d0=0.5))
    path = tmp_path / "positions.csv"
    arr.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "z_over_lambda_wg", "segment_role"]
    assert rows[1] == ["0", "0.0", "left_mirror"]
    assert len(rows) == 4
    assert float(rows[3][1]) == pytest.approx(1.0)
    expected = _csv_oracle(
        tmp_path / "oracle.csv",
        rows[0],
        [(i, float(z), role.value) for i, (z, role) in enumerate(zip(arr.positions, arr.roles))],
    )
    assert path.read_bytes() == expected


@pytest.mark.parametrize(
    "n_rows", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2049, 4096]
)
def test_write_csv_matches_the_csv_module(tmp_path, n_rows):
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1]
    rng = np.random.default_rng(n_rows)
    floats = rng.standard_normal((2, n_rows)) * 10.0 ** rng.integers(-30, 30, (2, n_rows))
    floats[0, : len(special)] = special[:n_rows]
    floats[1, -len(special) :] = special[-n_rows:]
    index = np.arange(n_rows)
    roles = np.array([role.value for role in SegmentRole])[index % len(SegmentRole)]
    header = ["index", "a", "b", "segment_role"]
    path = tmp_path / "written.csv"
    write_csv(path, header, [index, floats[0], floats[1], roles])
    rows = zip(index.tolist(), floats[0].tolist(), floats[1].tolist(), roles.tolist())
    assert path.read_bytes() == _csv_oracle(tmp_path / "oracle.csv", header, rows)


def _assert_written_as_repr(path, values):
    values = np.asarray(values, dtype=np.float64)
    write_csv(path, ["x"], [values])
    expected = "".join(["x\r\n"] + [repr(v) + "\r\n" for v in values.tolist()])
    assert path.read_bytes() == expected.encode()


@pytest.mark.filterwarnings("error")
@settings(max_examples=200)
@given(values=st.lists(st.floats(), min_size=1, max_size=64))
def test_float_bytes_are_repr_on_any_float(tmp_path_factory, values):
    _assert_written_as_repr(tmp_path_factory.mktemp("floats") / "x.csv", values)


@pytest.mark.filterwarnings("error")
@settings(max_examples=200)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_float_bytes_are_repr_on_any_bit_pattern(tmp_path_factory, bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    _assert_written_as_repr(tmp_path_factory.mktemp("bits") / "x.csv", values)


@pytest.mark.filterwarnings("error")
def test_float_bytes_are_repr_on_a_million_bit_patterns(tmp_path):
    rng = np.random.default_rng(20240)
    for _ in range(8):
        bits = rng.integers(0, 2**64, 2**17, dtype=np.uint64, endpoint=False)
        _assert_written_as_repr(tmp_path / "x.csv", bits.view(np.float64))


@pytest.mark.filterwarnings("error")
def test_float_bytes_are_repr_at_the_boundaries(tmp_path):
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    edges = [
        0.0001, 9.999999999999999e-05, 1e16, 9999999999999998.0,  # layout switches
        1e100, 1.5e-100, 2.5e300, 1e-300,  # three-digit exponents
        5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,  # range ends
        0.5, 0.25, 0.1, 0.3, 1.0, 2.0, 123.456, 1e22, 1e23,  # exact and short decimals
        1e-280, 1e280, 9.999999999999999e279,  # the kernel's range
        0.0, -0.0, np.nan, np.inf, -np.inf,
    ]
    values = np.concatenate([
        edges,
        np.ldexp(1.0, np.arange(-1074, 1024)),  # every power of two
        powers_of_ten,
        np.nextafter(powers_of_ten, 0.0),
        np.nextafter(powers_of_ten, np.inf),
    ])
    _assert_written_as_repr(tmp_path / "x.csv", np.concatenate([values, -values]))


@pytest.fixture(
    scope="module", params=[("fig2", 0.1, "poles"), ("fig7b", 0.02, "sweep")], ids=lambda p: p[0]
)
def artifact_run(request, tmp_path_factory):
    """A run with artifacts, counting the values repr formats for the writer."""
    scenario, scale, route = request.param
    config = RunConfig(scenario=scenario, scale=scale, out_dir=str(tmp_path_factory.mktemp("run")))
    fallbacks = []

    def counting_repr(value):
        fallbacks.append(value)
        return repr(value)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "repr", counting_repr, raising=False)
        result = run(config)
    assert result.summary.data["route"] == route
    return config, result, len(fallbacks)


def test_run_artifacts_match_the_csv_module(artifact_run, tmp_path):
    config, result, _ = artifact_run
    out = Path(config.out_dir)
    s, rec = result.series, result.record
    array = build_chain(_resolve_chain(config)[0])
    files = {
        "probabilities.csv": [s.t, s.p, s.p0, s.pa, s.e_left, s.e_right, s.e_raman, s.e_ext],
        "profiles.csv": [rec.profile_left.tau, rec.profile_left.alpha2, rec.profile_right.alpha2],
        "positions.csv": [
            np.arange(array.n_atoms), array.positions, [r.value for r in array.roles]
        ],
    }
    for name, columns in files.items():
        header = (out / name).read_bytes().split(b"\r\n", 1)[0].decode().split(",")
        rows = zip(*[list(col) if isinstance(col, list) else col.tolist() for col in columns])
        assert (out / name).read_bytes() == _csv_oracle(tmp_path / name, header, rows), name


def test_kernel_formats_nearly_every_artifact_value(artifact_run):
    config, result, n_repr = artifact_run
    out = Path(config.out_dir)
    n_floats = sum(
        (len((out / name).read_bytes().split(b"\r\n")) - 2) * width
        for name, width in (("probabilities.csv", 8), ("profiles.csv", 3), ("positions.csv", 1))
    )
    assert n_repr <= 0.01 * n_floats


def test_profiles_write_traces_under_one_mib(artifact_run, tmp_path):
    _, result, _ = artifact_run
    rec = result.record
    columns = [rec.profile_left.tau, rec.profile_left.alpha2, rec.profile_right.alpha2]
    assert len(columns[0]) == 4096
    write_csv(tmp_path / "warm.csv", ["a", "b", "c"], columns)
    tracemalloc.start()
    try:
        write_csv(tmp_path / "profiles.csv", ["a", "b", "c"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 0.25 MiB in 512-row blocks; formatting the whole file at once takes 1.74
    assert peak <= 2**20

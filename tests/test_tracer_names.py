"""Every name the benchmark's tracer patches resolves, and every value the
benchmark reads off a run is there on either route.

perfbench/tracer.py wraps module attributes by name, and perfbench/workloads.py
reads fields of the returned RunResult, so deleting or renaming one of them
breaks the benchmark run.  Here that shows as the missing name or a failing
read, not as a failed op inside the benchmark's subprocess.  The tracer and
the workloads are loaded from their files as they stand.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

import wgqed.cli
from wgqed.cli import RunConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, path, patch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    patch.setitem(sys.modules, name, module)  # a dataclass looks its module up
    spec.loader.exec_module(module)
    return module


with pytest.MonkeyPatch.context() as _patch:
    # workloads.py imports the tracer as the top-level module that
    # perfbench/run.py puts on its path
    _TRACER = _load("tracer", PERFBENCH / "tracer.py", _patch)
    _WORKLOADS = _load("perfbench_workloads", PERFBENCH / "workloads.py", _patch)
SITES = sorted({(module, attr) for module, attr, *_ in _TRACER.SPANS + _TRACER.COUNTERS})


@pytest.mark.parametrize("module, attr", SITES, ids=[f"{m}.{a}" for m, a in SITES])
def test_traced_name_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr), f"{module}.{attr} is missing"


@pytest.mark.parametrize("scenario, scale", [("fig2", 0.1), ("fig7b", 0.02)])
def test_benchmark_reads_every_route(scenario, scale, tmp_path):
    result = wgqed.cli.run(RunConfig(scenario=scenario, scale=scale, out_dir=str(tmp_path)))
    counts = _WORKLOADS.computed_counts(result)
    assert all(math.isfinite(value) for value in counts.values()), counts
    # a pole spectrum is sampled at no detuning; a swept one on its grid
    grid = result.summary.data["grid"]
    assert counts["M"] == (0 if grid is None else grid["n_points"])
    snapshot = _WORKLOADS.snapshot(result)
    assert set(snapshot["ledger"]) == set(_WORKLOADS.LEDGER_KEYS)
    assert snapshot["n_t"] == len(result.series.t)
    # the op's own checks pass against its own snapshot
    assert _WORKLOADS.check_outputs(result, tmp_path, snapshot) == []


def test_traced_sweep_run_has_finite_layer_metrics():
    tracer = _TRACER.Tracer()
    tracer.install()
    try:
        wgqed.cli.run(RunConfig(scenario="fig7b", scale=0.02, workers=1))
    finally:
        tracer.restore()
    metrics = tracer.layer_metrics()
    assert metrics["cli.run.calls"] == 1
    assert metrics["spectral.resolvent_sweep.calls"] == 1
    assert {k: v for k, v in metrics.items() if not math.isfinite(v)} == {}

"""Runs load no scipy module: numpy is the whole import graph.

That holds for Markovian runs, and for oscillating runs on either route,
whose cavity model is linear algebra on the poles of the Dicke amplitude.
scipy is a test dependency only.  Each case runs in a fresh interpreter, so no
other test's imports leak in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PROGRAM = """
import json, sys
import wgqed
from wgqed.cli import RunConfig, run

result = run(RunConfig(scenario={scenario!r}, scale={scale!r}, seed={seed!r}))
print(json.dumps({{
    "method": result.summary.data["config"]["method"],
    "jc_fit": result.summary.data["jc_fit"] is not None,
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
}}))
"""


def _report(scenario, scale, seed=0) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    program = PROGRAM.format(scenario=scenario, scale=scale, seed=seed)
    proc = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("scenario, scale, seed", [("fig2", 0.02, 0), ("fig3b", 0.05, 3)])
def test_markovian_run_loads_no_scipy(scenario, scale, seed):
    report = _report(scenario, scale, seed)
    assert report["method"] == "markovian"
    assert report["scipy"] == []


@pytest.mark.parametrize(
    "scenario, scale, method", [("fig7b", 0.02, "spectral"), ("fig4", 0.3, "markovian")]
)
def test_oscillating_run_loads_no_scipy(scenario, scale, method):
    report = _report(scenario, scale)
    assert report["method"] == method
    assert report["jc_fit"] is True
    assert report["scipy"] == []


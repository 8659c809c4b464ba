"""Markovian runs load no scipy module: numpy is the whole import graph.

scipy stays a dependency of the two bounded fits of oscillating runs and of
the matrix-exponential fallback, which import it where they are called.
Each case runs in a fresh interpreter, so no other test's imports leak in.
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
import wgqed.cli
from wgqed.cli import RunConfig, run

result = run(RunConfig(scenario={scenario!r}, scale={scale!r}, seed={seed!r}))
print(json.dumps({{
    "method": result.summary.data["config"]["method"],
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
}}))
"""


@pytest.mark.parametrize("scenario, scale, seed", [("fig2", 0.02, 0), ("fig3b", 0.05, 3)])
def test_markovian_run_loads_no_scipy(scenario, scale, seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM.format(scenario=scenario, scale=scale, seed=seed)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["method"] == "markovian"
    assert report["scipy"] == []

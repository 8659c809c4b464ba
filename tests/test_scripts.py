"""Smoke runs of the command-line scripts under scripts/ and of the README example."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wgqed.cli import SCENARIOS

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_run_all_figures_writes_every_scenario(tmp_path):
    proc = _run_script("run_all_figures.py", ["--scale", "0.02", "--out", "runs"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(SCENARIOS)
    for name, line in zip(sorted(SCENARIOS), lines):
        out_dir = tmp_path / "runs" / f"{name}_scale0.02"
        for artifact in ("probabilities.csv", "profiles.csv", "positions.csv"):
            assert (out_dir / artifact).stat().st_size > 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["config"]["scenario"] == name
        assert summary["config"]["workers"] == 1
        fields = dict(re.findall(r"(\w+)=(\S+)", line))
        assert line.split()[0] == name
        assert fields["route"] == summary["route"]
        assert fields["converged"] == str(summary["converged"])
        # every entry of the run's checks table, as value/limit
        for key, check in summary["checks"].items():
            value, limit = fields[key].split("/")
            assert float(value) == pytest.approx(check["value"], rel=1e-2)
            assert float(limit) == pytest.approx(check["limit"], rel=1e-2)
        grid = summary["grid"]
        if summary["route"] == "poles":
            assert grid is None
            assert fields["grid_points"] == fields["alias_window"] == fields["doublings"] == "None"
        else:
            assert int(fields["grid_points"]) == grid["n_points"]
            assert int(fields["doublings"]) == grid["doublings"]
            assert float(fields["alias_window"]) == pytest.approx(grid["alias_window"], rel=1e-3)
        jc = summary["jc_fit"] or {}
        printed = {key: jc.get(key) for key in ("g", "kappa", "gamma_e", "pole_rms")}
        printed["oscillation"] = (summary["oscillation"] or {}).get("frequency")
        for key, value in printed.items():
            if value is None:
                assert fields[key] == "None"
            else:
                assert float(fields[key]) == pytest.approx(value, rel=1e-2)
        for side in ("right", "left"):
            captured = summary["profiles"][side]["captured"]
            assert float(fields[f"captured_{side}"]) == pytest.approx(captured, abs=1e-5)
        for stage in ("resolvent_sweep", "evolution"):
            seconds = sum(m[stage] for m in summary["timings"]["members"])
            assert float(fields[f"{stage}_s"]) == pytest.approx(seconds, abs=6e-4)
        artifacts = summary["timings"]["artifacts"]
        assert float(fields["artifacts_s"]) == pytest.approx(artifacts, abs=6e-4)
        peak = summary["timings"]["peak_rss_mb"]
        assert float(fields["peak_rss_mb"]) == pytest.approx(peak, abs=1.0)


def test_mirror_reflectance_scan_writes_its_csv(tmp_path):
    proc = _run_script(
        "mirror_reflectance_scan.py", ["--sizes", "5", "20", "--n-detunings", "11"], tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "mirror_reflectance.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["n_atoms"]) for r in rows] == [5] * 11 + [20] * 11
    assert all(0.0 <= float(r["reflectance_tm"]) <= 1.0 for r in rows)


def test_readme_library_example_runs(tmp_path):
    # the "Library use" block of README.md runs as written
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.split()[-1]) < 1e-6  # the ledger's largest balance error

"""wgqed benchmark: one workload, closed loop, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload markovian-bragg --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
makes the first op a traced one and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are the readable
report (provenance, one line per op, every metric with its unit).  Spans and
the full result are also written to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checkout import BLAS_THREADS, prepare

PROCESS_START = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
TIME_LIMIT_S = 150.0  # a run must end within 180 s; keep a margin

# Layer times that are zero by construction on some workload, because that
# route never calls them.  They are printed and kept in the span file;
# BENCHMARK.json carries the first two as their sum, `evolution.self_s`.
REPORT_ONLY = {
    "spectral.time_domain.self_s": "s",
    "dynamics.evolve_markovian.self_s": "s",
    "analytic.fit_jc_trace.self_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure_setup(args) -> float:
    """Wall seconds from spawning a fresh interpreter until it is ready to time."""
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe",
    ]
    tic = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - tic
        proc.stdout.read()
        status = proc.wait(timeout=120)
    if status != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with status {status}")
    return elapsed


def provenance(root: Path, workload: str, seed) -> dict:
    import numpy as np
    import scipy

    git_rev = None  # stays None unless the checkout root is itself a git work tree
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
        lines = rev.stdout.split()
        if rev.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == root.resolve():
            git_rev = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "wgqed").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": git_rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "threads_total": len(os.listdir("/proc/self/task")),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": 1,
        "workload": workload,
        "workload_seed": seed,
    }


def run_op(workload, seeds, reference, out_dir, tracer):
    """One op: run() on the next member seed, then check its outputs.

    A disorder member whose random mirror violates the minimum separation
    raises GeometryError out of run(); when the reference snapshot records
    that same outcome for the seed, the draw is counted and the next seed is
    tried.  Any other exception, or a failed check, fails the op.
    """
    from wgqed import cli
    from wgqed.model import GeometryError
    from workloads import check_outputs, computed_counts, reference_key

    op = {"traced": tracer is not None, "geometry_error_seeds": [], "problems": []}
    if tracer is not None:
        tracer.install()
    try:
        while True:
            seed = next(seeds)
            expected = reference.get(reference_key(workload, seed))
            shutil.rmtree(out_dir, ignore_errors=True)
            op["seed"] = seed
            if tracer is not None:
                tracer.op = seed
            tic = time.perf_counter()
            try:
                result = cli.run(workload.config(seed, out_dir))
            except GeometryError as exc:
                if expected is not None and expected.get("geometry_error"):
                    op["geometry_error_seeds"].append(seed)
                    continue
                op["problems"].append(f"GeometryError: {exc}")
                return op
            if tracer is not None:
                tracer.restore()
            op["problems"] = check_outputs(result, out_dir, expected)
            op["run_s"] = time.perf_counter() - tic
            op["counts"] = computed_counts(result)
            op["profile_captured_min"] = min(
                result.record.profile_left.captured, result.record.profile_right.captured
            )
            op["series_balance_max"] = float(result.series.balance_error().max())
            return op
    except Exception:  # the loop keeps going; the failure is counted and shown
        op["problems"].append(traceback.format_exc(limit=3).strip())
        return op
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(out_dir, ignore_errors=True)


def layer_metrics(tracer, traced_op, untraced_ops) -> dict:
    values = tracer.layer_metrics()
    values["evolution.self_s"] = (
        values["spectral.time_domain.self_s"] + values["dynamics.evolve_markovian.self_s"]
    )
    untraced = [op["run_s"] for op in untraced_ops if "run_s" in op]
    values["trace.overhead_s"] = (
        traced_op["run_s"] - statistics.median(untraced)
        if "run_s" in traced_op and untraced
        else float("nan")
    )
    return values


def fmt_op(i, op) -> str:
    parts = [f"op {i}", f"seed={op.get('seed')}", "traced" if op["traced"] else "untraced"]
    if "run_s" in op:
        parts.append(f"run_s={op['run_s']:.4f}")
    if op["geometry_error_seeds"]:
        parts.append(f"geometry_error_seeds={op['geometry_error_seeds']}")
    if "counts" in op:
        counts = " ".join(f"{k}={v:.6g}" for k, v in op["counts"].items())
        parts.append(f"counts(computed): {counts}")
        parts.append(f"profile_captured_min={op['profile_captured_min']:.4f}")
        parts.append(f"series_balance_max={op['series_balance_max']:.3g}")
    parts.append("checks=ok" if not op["problems"] else f"FAILED: {op['problems']}")
    return " | ".join(parts)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = prepare()
    from tracer import Tracer, maxrss_mib
    from wgqed import cli
    from workloads import WORKLOADS, load_reference

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        cli.run(workload.warmup_config())
        print("ready", flush=True)
        return 0

    spec = json.loads((root / "BENCHMARK.json").read_text())
    reference = load_reference(workload)
    setup_samples = [measure_setup(args) for _ in range(SETUP_SAMPLES)]
    cli.run(workload.warmup_config())
    prov = provenance(root, args.workload, args.seed)

    work_dir = root / ".bench_out"
    out_dir = work_dir / f"{args.workload}-{os.getpid()}"
    seeds = workload.member_seeds(args.seed)
    tracer = Tracer() if args.trace else None
    ops = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and not ops
        tic = time.perf_counter()
        ops.append(run_op(workload, seeds, reference, out_dir, tracer if traced else None))
        last = time.perf_counter() - tic
        # Start no op that the last one's duration says would overrun the
        # deadline, except the untraced op a traced run needs for
        # trace.overhead_s -- and never one that could break the time limit.
        expected_end = time.perf_counter() + last
        if expected_end > PROCESS_START + TIME_LIMIT_S:
            break
        if expected_end > deadline and not (tracer is not None and len(ops) < 2):
            break
    peak_rss = maxrss_mib()

    attempted = len(ops)
    failed = sum(1 for op in ops if op["problems"])
    geometry_errors = sum(len(op["geometry_error_seeds"]) for op in ops)
    run_calls = geometry_errors + attempted
    untraced = [op for op in ops if not op["traced"]]
    timed = [op["run_s"] for op in untraced if "run_s" in op]

    print("provenance " + json.dumps(prov, sort_keys=True))
    for i, op in enumerate(ops):
        print(fmt_op(i, op))
    report = {
        "failed_frac": {"value": failed / attempted, "unit": "fraction"},
        "geometry_error_frac": {"value": geometry_errors / run_calls, "unit": "fraction"},
    }
    if args.trace:
        values = layer_metrics(tracer, ops[0], untraced)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        report_units = {**units, **REPORT_ONLY}
    else:
        values = {
            "run_s": statistics.median(timed) if timed else float("nan"),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss,
        }
        units = report_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    report.update(
        {name: {"value": float(values[name]), "unit": unit} for name, unit in report_units.items()}
    )
    print(
        f"samples: run_s median of {len(timed)} untraced op(s); setup_s median of "
        f"{len(setup_samples)} fresh processes {[round(s, 4) for s in setup_samples]}; "
        f"ops attempted={attempted} failed={failed}; run() calls={run_calls} "
        f"geometry_errors={geometry_errors}"
    )
    for name, entry in report.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    work_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(work_dir / f"result-{stem}.json", "w") as fh:
        json.dump(
            {"provenance": prov, "ops": ops, "report": report, "result": result},
            fh, indent=1, default=str,
        )
    if tracer is not None:
        with open(work_dir / f"spans-{stem}.json", "w") as fh:
            json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

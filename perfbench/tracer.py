"""Spans around the public layer functions of wgqed, recorded from outside.

The tracer patches module attributes (the names `wgqed.cli` imports, plus a
few nested call sites) with wrappers that record a span per call: its name,
start, end, parent span and the process's `ru_maxrss` at both ends.  Counter
wrappers only count calls; their time stays in the enclosing span.  Nothing
in `src/` is modified, and `restore()` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import math
import resource
import time
from collections import Counter
from pathlib import Path

MIB = 1024.0 * 1024.0


def maxrss_mib() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def solve_gflop(m: int, n: int) -> float:
    """Real GFLOP of m dense complex n x n solves as resolvent_sweep does them.

    Per grid point: the complex LU (8/3 n^3), and the triangular solves plus
    the residual matvec (8 n^2 each; the two triangular halves count once).
    """
    return m * (8.0 / 3.0 * n**3 + 16.0 * n**2) / 1e9


def _sweep_hook(tracer, args, kwargs, result):
    m, n = result.x.shape
    tracer.counts["spectral.grid_points"] += m
    tracer.counts["spectral.solves"] += m
    tracer.counts["spectral.solve_gflop"] += solve_gflop(m, n)
    tracer.counts["spectral.x_mb"] += result.x.nbytes / MIB
    tracer.values.setdefault("spectral.residual_max", []).append(result.residual_max)


def _time_domain_hook(tracer, args, kwargs, result):
    slices = args[0]
    tracer.counts["spectral.time_domain.phase_evals"] += len(result.t) * len(slices.deltas)


def _profile_hook(tracer, args, kwargs, result):
    spectrum = args[0]
    tracer.counts["emission.spatial_profile.phase_evals"] += len(result.tau) * len(
        spectrum.deltas
    )
    tracer.values.setdefault("emission.profile_captured", []).append(result.captured)


def _artifacts_hook(tracer, args, kwargs, result):
    out_dir = Path(args[2])
    tracer.counts["cli.artifact_mb"] += sum(
        p.stat().st_size for p in out_dir.iterdir() if p.is_file()
    ) / MIB


# (module, attribute, span name, return hook) for every timed call site
SPANS = [
    ("wgqed.cli", "run", "cli.run", None),
    ("wgqed.cli", "_write_artifacts", "cli.write_artifacts", _artifacts_hook),
    ("wgqed.cli", "fit_early_late", "cli.fits", None),
    ("wgqed.cli", "fast_stage_end", "cli.fits", None),
    ("wgqed.cli", "oscillation_fit", "cli.fits", None),
    ("wgqed.cli", "build_chain", "model.build_chain", None),
    ("wgqed.analytic", "build_chain", "model.build_chain", None),
    ("wgqed.cli", "classify_regime", "analytic.classify_regime", None),
    ("wgqed.cli", "fit_jc_trace", "analytic.fit_jc_trace", None),
    ("wgqed.cli", "effective_hamiltonian", "hamiltonian.effective_hamiltonian", None),
    ("wgqed.spectral", "effective_hamiltonian", "hamiltonian.effective_hamiltonian", None),
    ("wgqed.cli", "resolvent_sweep", "spectral.resolvent_sweep", _sweep_hook),
    ("wgqed.cli", "time_domain", "spectral.time_domain", _time_domain_hook),
    ("wgqed.cli", "evolve_markovian", "dynamics.evolve_markovian", None),
    ("wgqed.cli", "superradiant_overlap", "dynamics.superradiant_overlap", None),
    ("wgqed.cli", "probabilities", "dynamics.probabilities", None),
    ("wgqed.cli", "emission_spectrum", "emission.emission_spectrum", None),
    ("wgqed.cli", "spatial_profile", "emission.spatial_profile", _profile_hook),
    ("wgqed.cli", "energy_ledger", "emission.energy_ledger", None),
]

# work counts the hooks above add up
HOOK_COUNTS = [
    "spectral.grid_points",
    "spectral.solves",
    "spectral.solve_gflop",
    "spectral.x_mb",
    "spectral.time_domain.phase_evals",
    "emission.spatial_profile.phase_evals",
    "cli.artifact_mb",
]

# (module, attribute, counter name) for calls that are counted, not timed
COUNTERS = [
    ("wgqed.analytic", "transfer_matrix_reflectance", "analytic.transfer_matrix_reflectance.calls"),
    ("wgqed.dynamics", "_evolve_expm", "dynamics.expm_fallbacks"),
    ("numpy.linalg", "eig", "dynamics.eig_calls"),
]


class Tracer:
    """In-memory span recorder; install() patches, restore() unpatches."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.values: dict[str, list[float]] = {}
        self.op = None  # identifier shared by the spans of one run() call
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {
                "op": self.op,
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
                "rss_start_mib": maxrss_mib(),
            }
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec["error"] = type(exc).__name__
                raise
            finally:
                rec["end"] = time.perf_counter()
                rec["rss_end_mib"] = maxrss_mib()
                self._stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name, hook in SPANS:
            self._patch(mod_name, attr, lambda fn: self._span_wrapper(name, fn, hook))
        for mod_name, attr, name in COUNTERS:
            self._patch(mod_name, attr, lambda fn: self._count_wrapper(name, fn))

    def _patch(self, mod_name, attr, make):
        module = importlib.import_module(mod_name)
        original = getattr(module, attr)
        self._originals.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Self time, calls and ru_maxrss growth per span name, plus counters.

        Layers that never ran read zero; the two values read from returned
        objects read NaN when no call returned one.
        """
        out: dict[str, float] = {}
        for _, _, name, _ in SPANS:
            out.update({f"{name}.self_s": 0.0, f"{name}.calls": 0, f"{name}.rss_growth_mb": 0.0})
        out.update({name: 0 for name in HOOK_COUNTS})
        out.update({name: 0 for _, _, name in COUNTERS})
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        for rec, children in zip(self.spans, child_time):
            name = rec["name"]
            out[f"{name}.self_s"] += rec["end"] - rec["start"] - children
            out[f"{name}.calls"] += 1
            out[f"{name}.rss_growth_mb"] += rec["rss_end_mib"] - rec["rss_start_mib"]
        out["model.geometry_errors"] = sum(
            1
            for rec in self.spans
            if rec["name"] == "model.build_chain" and rec.get("error") == "GeometryError"
        )
        out.update(self.counts)
        out["spectral.residual_max"] = max(self.values.get("spectral.residual_max", [math.nan]))
        out["emission.profile_captured_min"] = min(
            self.values.get("emission.profile_captured", [math.nan])
        )
        return out

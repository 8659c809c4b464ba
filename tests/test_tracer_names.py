"""Every name the benchmark's tracer patches resolves.

perfbench/tracer.py wraps module attributes by name, so deleting or renaming
one of them breaks the traced benchmark run.  Here that shows as the missing
name, not as a failed op inside the benchmark's subprocess.  The tracer is
loaded from its file as it stands.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


_TRACER = _load_tracer()
SITES = sorted({(module, attr) for module, attr, *_ in _TRACER.SPANS + _TRACER.COUNTERS})


@pytest.mark.parametrize("module, attr", SITES, ids=[f"{m}.{a}" for m, a in SITES])
def test_traced_name_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr), f"{module}.{attr} is missing"

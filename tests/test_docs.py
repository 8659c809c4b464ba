"""Every module reference that the docs name in backticks resolves.

docs/config.md and README.md name gates and functions as `module.name`
(`cli.LEAK_TOL`, `dynamics.pole_sums`, `wgqed.cli.run`); a name that moves or
is deleted fails here until the docs follow it.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("docs/config.md", "README.md")
MODULES = ("analytic", "cli", "dynamics", "emission", "hamiltonian", "model", "spectral")
REFERENCE = re.compile(r"`(?:wgqed\.)?({})\.(\w+)".format("|".join(MODULES)))


def test_every_module_reference_in_the_docs_resolves():
    references = {
        (doc, *match.groups())
        for doc in DOCS
        for match in REFERENCE.finditer((ROOT / doc).read_text())
    }
    assert {doc for doc, *_ in references} == set(DOCS)
    missing = sorted(
        f"{doc}: {module}.{name}"
        for doc, module, name in references
        if not hasattr(importlib.import_module(f"wgqed.{module}"), name)
    )
    assert missing == []

"""Record the reference snapshots the benchmark checks every op against.

Run from the root of a checkout, on the commit whose outputs are the
reference (the snapshots in `reference/` come from the seed commit):

    python3 perfbench/record_reference.py markovian-bragg cavity-retarded \\
        disorder-members smoke

Ordered workloads get one seed-independent snapshot.  A disorder workload
gets one entry per seed of its member pool: the ledger and p(t) of the
member, or the GeometryError its geometry raises.  Every recorded run must
pass the same gates the benchmark applies, or nothing is written.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from checkout import prepare


def main(names) -> int:
    root = prepare()
    from run import provenance
    from wgqed import cli
    from wgqed.model import GeometryError
    from workloads import REFERENCE_DIR, WORKLOADS, check_outputs, reference_key, snapshot

    for name in names:
        workload = WORKLOADS[name]
        seeds = range(workload.member_pool) if workload.member_pool else [0]
        members = {}
        for seed in seeds:
            (root / ".bench_out").mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=root / ".bench_out") as tmp:
                try:
                    result = cli.run(workload.config(seed, Path(tmp)))
                except GeometryError as exc:
                    members[str(seed)] = {"geometry_error": True, "message": str(exc)}
                    print(f"{name} seed {seed}: GeometryError", flush=True)
                    continue
                entry = snapshot(result)
                problems = check_outputs(result, Path(tmp), entry)
            if problems:
                sys.exit(f"{name} seed {seed}: {problems}; reference not written")
            members[reference_key(workload, seed)] = entry
            print(f"{name} seed {seed}: ledger {entry['ledger']}", flush=True)
        doc = {
            "workload": name,
            "recorded_with": provenance(root, name, None),
            "members": members,
        }
        REFERENCE_DIR.mkdir(exist_ok=True)
        with open(REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

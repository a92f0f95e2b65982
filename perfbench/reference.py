"""Record the reference outcomes that every benchmark run is checked against.

    python3 perfbench/reference.py

Runs every instance of every workload once, in this process, and writes
perfbench/reference.json: for each instance the seed-invariant outcome
(verdicts, inconclusive status, dimension tables, exit codes and the
canonical JSON bytes of each command). Record it on a commit whose
outputs are trusted; the benchmark's checks then flag any later change
to a mathematically determined result. An instance whose two library
routes disagree is reported and left out, so that it fails every run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import srlab  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reference = {}
    disagree = []
    for workload in workloads.WORKLOADS:
        table = reference[workload] = {}
        items = workloads.generate(workload, 0)
        for item, (psi, field) in zip(items, workloads.load(items, srlab)):
            out = json.loads(json.dumps(workloads.run_instance(workload, item, psi, field,
                                                               srlab)))
            table[item["name"]] = out
            if not workloads.check(workload, item, out, table):
                disagree.append((workload, item["name"]))
                del table[item["name"]]
        print(f"{workload}: {len(table)} instances recorded", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, sort_keys=True, indent=1) + "\n")
    for workload, name in disagree:
        print(f"routes disagree, not recorded: {workload} {name}", file=sys.stderr)
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())

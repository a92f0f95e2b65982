"""Canonical CLI output pinned across commits.

`tests/data/cli_digests.json` maps one invocation per key to the sha256
of its exit code, stdout and stderr under `--format json`. The keys
cover every command except `corpus` on each builtin example over F_2,
F_3 and F_(2^31-1), `lefschetz` in every mode. A full re-recording
leaves out invocations that take 0.5 s or more; none is left out of the
file today. The subdivision commands (`subdiv-check`, `lefschetz`
mode=subdivision) on cross_polytope_3, torus7 and rp2_6 over F_2 and
F_3, and on moebius over F_2, once took longer; they now take 0.1-0.35 s
(exit 3) and were pinned by name. The torus7 invocations over F_2 that
reject every Theta draw are pinned; their digests were first computed
on the tree before Theta was drawn in blocks.

Re-record every invocation under 0.5 s (only when an output change is
intended), or only the named keys, leaving every other line as it is:

    PYTHONPATH=src python tests/test_cli_digests.py
    PYTHONPATH=src python tests/test_cli_digests.py "kuhnel builtin:torus7 p=2"
"""

import hashlib
import io
import json
import pathlib
import sys
import time

from srlab.cli import _COMMANDS, RunConfig, run
from srlab.complexes import BUILTIN_EXAMPLES
from srlab.verdicts import LEFSCHETZ_MODES

DIGESTS = pathlib.Path(__file__).parent / "data" / "cli_digests.json"
PRIMES = (2, 3, 2147483647)
SLOW_S = 0.5


def invocations():
    """Every (key, RunConfig) of the pinned grid, slow ones included."""
    for command in sorted(c for c in _COMMANDS if c != "corpus"):
        modes = LEFSCHETZ_MODES if command == "lefschetz" else ("strong",)
        for name in BUILTIN_EXAMPLES:
            for prime in PRIMES:
                for mode in modes:
                    key = f"{command} builtin:{name} p={prime}"
                    if command == "lefschetz":
                        key += f" mode={mode}"
                    yield key, RunConfig(command=command, input=f"builtin:{name}",
                                         prime=prime, format="json", mode=mode)


def digest(cfg: RunConfig) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = run(cfg, out, err)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _pinned() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_pinned_keys_are_a_subset_of_the_grid():
    keys = {k for k, _ in invocations()}
    pinned = _pinned()
    assert pinned and set(pinned) <= keys


def test_canonical_cli_output_matches_pinned_digests():
    pinned = _pinned()
    changed = [key for key, cfg in invocations()
               if key in pinned and digest(cfg) != pinned[key]]
    assert changed == []


def _record(keys: list[str]) -> int:
    """Re-record the named keys, or with none every invocation under SLOW_S.

    Named keys are recorded however long they take, and every other line
    of the file stays as it was.
    """
    grid = dict(invocations())
    unknown = [k for k in keys if k not in grid]
    if unknown:
        print(f"not in the grid: {unknown}", file=sys.stderr)
        return 2
    table = _pinned() if keys else {}
    for key in keys or grid:
        t0 = time.perf_counter()
        d = digest(grid[key])
        elapsed = time.perf_counter() - t0
        if keys:
            print(f"{elapsed:6.3f} s  {key}")
        if keys or elapsed < SLOW_S:
            table[key] = d
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"{len(table)} invocations pinned in {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(_record(sys.argv[1:]))

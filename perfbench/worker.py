"""One repetition of one workload, in a process of its own.

Started by run.py, never by hand. Prints one JSON object: set-up time,
the Python and numpy versions, per-instance latencies, the speed probe's
time next to each instance and after set-up, wall time, peak RSS of this
process, the check results and, with --trace 1, the span aggregates and
cache sizes. Probe time is left out of the latencies and the wall time.

A fresh process per repetition matters: srlab's lru_caches are process
global and unbounded, so a second repetition in the same process would
run on warm caches and inherit the first one's memory peak.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
PROBE_EVERY_S = 0.1
SETUP_PROBES = 5

CACHES = (
    ("facering.monomial_basis", "srlab.facering", "monomial_basis"),
    ("facering.mult_matrix", "srlab.facering", "_mult_matrix"),
    ("partition.restriction", "srlab.partition", "_restriction"),
)


def _cache_stats() -> dict:
    """hits, misses and entries of srlab's caches; zeros for a cache that is gone."""
    out = {}
    for name, modname, attr in CACHES:
        cache_info = getattr(getattr(sys.modules[modname], attr, None), "cache_info", None)
        hits, misses, _, entries = cache_info() if cache_info else (0, 0, None, 0)
        out[name] = {"hits": hits, "misses": misses, "entries": entries}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import srlab
    import srlab.cli  # noqa: F401  part of the public surface the workloads drive
    if not Path(srlab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"srlab imported from {srlab.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads
    items = workloads.generate(args.workload, args.seed)
    inputs = workloads.load(items, srlab)
    setup_s = perf_counter() - start
    import numpy  # already loaded by srlab
    from probe import Sampler, probe
    speed = statistics.median(probe() for _ in range(SETUP_PROBES))
    result = {"setup_s": setup_s, "setup_probe_s": speed, "digest": workloads.digest(items),
              "python": platform.python_version(), "numpy": numpy.__version__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    # The speed probe runs every PROBE_EVERY_S, between instances and inside
    # them; its time is taken out of every latency and every span.
    outcomes, intervals = [], []
    sampler = Sampler(PROBE_EVERY_S, tracer.exclude if tracer else None)
    with sampler:
        for item, (psi, field) in zip(items, inputs):
            t = perf_counter()
            try:
                out = workloads.run_instance(args.workload, item, psi, field, srlab)
            except Exception as e:  # an instance that raises counts as failed
                out = {"error": f"{type(e).__name__}: {e}"}
            end = perf_counter()
            intervals.append((t, end))
            outcomes.append(out)
    latencies = [end - t - sampler.cost(t, end) for t, end in intervals]
    speeds = [sampler.speed(t, end) for t, end in intervals]
    result["wall_s"] = sum(latencies)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        problems = tracer.bindings_problems(installed=True)
        tracer.restore()
        problems += tracer.bindings_problems(installed=False)
        result["trace"] = {
            "spans": {name: {k: getattr(s, k) for k in s.__slots__}
                      for name, s in tracer.spans.items()},
            "caches": _cache_stats(),
            "binding_problems": problems,
        }

    reference = json.loads(REFERENCE.read_text())[args.workload]
    failures = [item["name"] for item, out in zip(items, outcomes)
                if not workloads.check(args.workload, item, out, reference)]
    result.update({
        "latencies": latencies,
        "speeds": speeds,
        "attempted": len(items),
        "failed": len(failures),
        "failures": failures[:5],
        "inconclusive": sum(1 for out in outcomes if out.get("verdict") == "inconclusive"),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

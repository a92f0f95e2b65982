"""srlab benchmark: time to verdict, memory and failures on fixed corpora.

Run from the repository root:

    python3 perfbench/run.py --workload cm-corpus --seed 1 --seconds 40 --trace 0

Each workload is a closed loop: one single-threaded client submits the
next instance only after the previous verdict returned. A run repeats
the workload, every repetition in a fresh process (srlab's caches are
process global), until --seconds have passed, and reports medians over
the repetitions. With --trace 1 the repetitions alternate between
untraced and traced ones, and the per-layer metrics come from the traced
ones. The last line of stdout is the JSON result; the lines before it
describe the run and print every metric with its unit.

The times it reports are scaled to a reference speed of the host (see
probe.py): each instance's latency is multiplied by REFERENCE_S over the
median time of the speed probes run around and inside it, and set-up
time by REFERENCE_S over the probes run right after set-up. On a shared
host the unscaled times drift by a third or more within minutes; they
are printed too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from probe import REFERENCE_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 11
SETUP_SAMPLE_S = 0.5  # a set-up-only worker, with its interpreter start
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MMAP_THRESHOLD = 1 << 20
LAYERS = ("linalg", "complexes", "facering", "koszul", "partition", "duality",
          "verdicts", "cli")


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    """Pin BLAS/OpenMP pools to at most nproc so no child oversubscribes the cores.

    Also fix glibc's mmap threshold. By default it rises to the size of the
    largest block freed so far, after which large arrays come from the heap
    and the peak RSS depends on heap layout: a one-line change to the
    benchmark's own code moved the manifolds peak from 579 to 621 MB. With
    a fixed threshold every array of 1 MiB or more is returned to the system
    when freed, and the peak follows the memory that is live.
    """
    env = dict(os.environ)
    env["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)
    # Let workers cache bytecode, so that setup_s is import time, not the
    # compile time of every module, whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    ncpu = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            want = min(int(env.get(var, ncpu)), ncpu)
        except ValueError:
            want = ncpu
        env[var] = str(max(want, 1))
    return env


def _worker(env: dict, workload: str, seed: int, trace: int, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)] + (["--setup-only"] if setup_only else [])
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the two nearest samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _scaled(rep: dict) -> list[float]:
    """Each instance's latency at the probe's reference speed."""
    return [t * REFERENCE_S / s for t, s in zip(rep["latencies"], rep["speeds"])]


def _wall(reps: list[dict]) -> float:
    """Time to solution: the sum over instances of each one's median scaled latency.

    Every repetition submits the same instances, so the median per instance
    drops a repetition's slow spell on that instance without dropping the
    instance.
    """
    return sum(statistics.median(ts) for ts in zip(*map(_scaled, reps)))


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _source_digest() -> str:
    """Identifies the srlab sources where no git metadata is available."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "srlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _per_layer(traced: list[dict], untraced_wall: float) -> dict:
    """Per-layer metrics: medians over the traced repetitions."""
    rows = []
    for rep in traced:
        spans = rep["trace"]["spans"]
        caches = rep["trace"]["caches"]

        def sp(name, key):
            return spans.get(name, {}).get(key, 0)

        m = {}
        for name in ("linalg.rank", "linalg.rref", "linalg.kernel_basis", "linalg.matmul",
                     "linalg.field", "complexes.build", "complexes.cohomology",
                     "facering.quotient", "koszul.differential",
                     "koszul.depth", "koszul.is_cm", "partition.differential",
                     "partition.homology", "duality.build_B", "duality.pd_report",
                     "verdicts.report", "cli.run"):
            m[f"{name}.calls"] = sp(name, "calls")
            m[f"{name}.self_s"] = sp(name, "self_s")
        m["linalg.rank.cells"] = sp("linalg.rank", "cells")
        m["linalg.rank.max_cells"] = sp("linalg.rank", "max_cells")
        m["linalg.rank.work"] = sp("linalg.rank", "work")
        m["linalg.rref.max_cells"] = sp("linalg.rref", "max_cells")
        m["koszul.differential.cells"] = sp("koszul.differential", "cells")
        m["partition.differential.max_cells"] = sp("partition.differential", "max_cells")
        draws = sp("facering.lsop.certificate", "calls")
        m["facering.lsop.samples"] = sp("facering.lsop.sample", "calls")
        m["facering.lsop.draws"] = draws
        m["facering.lsop.accept_ratio"] = (
            sp("facering.lsop.certificate", "accepted") / draws if draws else 0.0)
        m["facering.lsop.self_s"] = (sp("facering.lsop.sample", "self_s")
                                     + sp("facering.lsop.certificate", "self_s"))
        for cache, info in caches.items():
            looked = info["hits"] + info["misses"]
            m[f"{cache}.hit_ratio"] = info["hits"] / looked if looked else 0.0
            m[f"{cache}.entries"] = info["entries"]
        covered = 0.0
        for layer in LAYERS:
            own = sum(s["self_s"] for n, s in spans.items() if n.split(".")[0] == layer)
            m[f"{layer}.self_s"] = own
            covered += own
        m["verdicts.inconclusive_ratio"] = rep["inconclusive"] / rep["attempted"]
        m["trace.wall_s"] = rep["wall_s"]
        m["trace.unaccounted_s"] = rep["wall_s"] - covered
        m["trace.unaccounted_ratio"] = (rep["wall_s"] - covered) / rep["wall_s"]
        rows.append(m)
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    out["trace.overhead_ratio"] = _wall(traced) / untraced_wall
    return out


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("cells"):
        return "cells"
    if name.endswith(".work"):
        return "ops"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "srlab" / "__init__.py").is_file():
        print(f"error: no srlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = _child_env()
    untraced, traced, setups, durations = [], [], [], []
    start = perf_counter()
    try:
        # Start another repetition only while it is expected to end in time.
        # At least two untraced repetitions, so that each instance's median
        # is not one sample; with --trace 1 one of each. Leave time for the
        # set-up samples still missing after the last repetition.
        while (len(untraced) < (1 if args.trace else 2) or (args.trace and not traced)
               or perf_counter() - start + statistics.median(durations)
               + SETUP_SAMPLE_S * max(SETUP_SAMPLES - len(setups) - 1, 0) <= args.seconds):
            trace = 1 if args.trace and len(traced) < len(untraced) else 0
            began = perf_counter()
            rep = _worker(env, args.workload, args.seed, trace)
            durations.append(perf_counter() - began)
            (traced if trace else untraced).append(rep)
            setups.append(rep)
        while len(setups) < SETUP_SAMPLES:
            setups.append(_worker(env, args.workload, args.seed, 0, setup_only=True))
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    reps = untraced + traced
    digests = {rep["digest"] for rep in reps}
    problems = [p for rep in traced for p in rep["trace"]["binding_problems"]]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    # Percentiles per repetition, then the median over repetitions: every
    # repetition submits the same instances, so pooling them would only
    # make the percentile jump between neighbouring instances.
    per_rep = len(untraced[0]["latencies"])
    wall = _wall(untraced)
    # The gated end-to-end metrics of BENCHMARK.json.
    end_to_end = {
        "setup_s": statistics.median(r["setup_s"] * REFERENCE_S / r["setup_probe_s"]
                                     for r in setups),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in untraced),
    }
    # Printed, not gated. A single instance's scaled latency is noisier than
    # a sum over instances: latency_p50_s spread up to 0.15 over ten seeds on
    # manifolds. The 95th percentile is printed only where at least ten
    # samples lie beyond it, which manifolds, with 20 instances, misses. The
    # unscaled times follow the host's speed.
    latency = {"latency_p50_s": statistics.median(_percentile(_scaled(r), 50)
                                                  for r in untraced)}
    if per_rep - per_rep * 95 // 100 >= 10:
        latency["latency_p95_s"] = statistics.median(_percentile(_scaled(r), 95)
                                                     for r in untraced)
    latency["unscaled_setup_s"] = statistics.median(r["setup_s"] for r in setups)
    latency["unscaled_wall_s"] = statistics.median(r["wall_s"] for r in untraced)
    units = {"setup_s": "s", "wall_s": "s", "latency_p50_s": "s", "latency_p95_s": "s",
             "unscaled_setup_s": "s", "unscaled_wall_s": "s", "peak_rss_mb": "MB"}

    print(f"workload: {args.workload}  seed: {args.seed}  inputs digest: {' '.join(sorted(digests))}")
    print(f"commit: {_commit()}  source digest: {_source_digest()}")
    print(f"nproc: {os.cpu_count()}  python: {reps[0]['python']}  numpy: {reps[0]['numpy']}")
    print("threads: " + " ".join(f"{v}={env[v]}" for v in THREAD_VARS)
          + f"  MALLOC_MMAP_THRESHOLD_={env['MALLOC_MMAP_THRESHOLD_']}")
    print(f"repetitions: {len(untraced)} untraced, {len(traced)} traced, each in a fresh process;"
          f" {len(setups)} set-up samples")
    print(f"latency samples: {per_rep} per repetition, {per_rep - per_rep * 95 // 100}"
          f" beyond the 95th percentile" + ("" if "latency_p95_s" in latency
                                           else ", too few to report it"))
    for name, value in {**end_to_end, **latency}.items():
        print(f"  {name:<22} {value:.6g} {units[name]}")
    print(f"  {'error_ratio':<22} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    inconclusive = sum(rep["inconclusive"] for rep in reps)
    print(f"  {'inconclusive_ratio':<22} {inconclusive / attempted:.6g} ratio"
          f" ({inconclusive} of {attempted})")
    for rep in reps:
        if rep["failures"]:
            print(f"  failed instances (first five): {rep['failures']}")
            break
    for p in problems[:5]:
        print(f"  tracer self-test: {p}")

    if args.trace:
        metrics = _per_layer(traced, wall)
        for name, value in metrics.items():
            print(f"  {name:<36} {value:.6g} {_unit(name)}")
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}
    else:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in end_to_end.items()}
    correct = failed == 0 and len(digests) == 1 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

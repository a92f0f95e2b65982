"""Go/no-go checklist the repository promises to keep green.

Eleven checks, each a plain function returning {"passed", "detail"} plus
whatever table it assembled, with a stated wall-clock budget in seconds.
run_all times every check and returns one row per check; the test suite
asserts the rows one by one and the command line prints them.

Random corpora are drawn from fixed seeds so every run sees the same
complexes. A check only counts an instance as evidence when the verdict
machinery is conclusive; inconclusive instances are logged in the detail
string, never silently dropped into "passed".
"""

from __future__ import annotations

import io
import json
import math
import random
import time

from .complexes import (
    RelativeComplex,
    SimplicialComplex,
    as_relative,
    betti_numbers,
    builtin_complex,
    f_h_vectors,
    link_depth,
    random_relative_complex,
    reisner_link_table,
    relative_cohomology_dims,
)
from .duality import build_B, poincare_duality_report
from .facering import lsop_trials, quotient_presentation, trials_until_certified
from .koszul import KoszulComplex, depth, is_algebraically_cm
from .linalg import DEFAULT_PRIME, PrimeField, matmul, rank
from .partition import (
    barycentric_subdivision_structure,
    interior_partition_check,
    partition_homology_dims,
    restriction_matrix,
    total_complex_homology,
)
from .verdicts import (
    VERDICT_HOLDS,
    kuhnel_report,
    lefschetz_report,
    partition_of_unity_report,
)

CORPUS_SEED = 20260814
KOSZUL_SEED = 8


def _big_field() -> PrimeField:
    return PrimeField(DEFAULT_PRIME)


def check_torus_regression() -> dict:
    """Known h-vector and parameter quotient of the 7-vertex torus.

    Drives the actual command line (schenzel on builtin:torus7) and
    cross-checks the h-vector through the f-vector route.
    """
    from .cli import RunConfig, run

    buf = io.StringIO()
    code = run(RunConfig("schenzel", input="builtin:torus7", format="json"),
               out=buf, err=buf)
    data = json.loads(buf.getvalue())
    entries = data["tables"][0]["entries"]
    h = [e["h"] for e in entries[:4]]
    dims = [e["left"] for e in entries[:4]]
    direct = list(f_h_vectors(builtin_complex("torus7")).h)
    ok = (code == 0 and h == [1, 4, 10, -1] and dims == [1, 4, 10, 1]
          and direct == h)
    return {
        "passed": ok,
        "detail": f"exit={code} h={h} quotient dims={dims}",
        "h": h,
        "dims": dims,
    }


def check_partition_oracle() -> dict:
    """Partition homology against plain relative cohomology on 200 random pairs."""
    rng = random.Random(CORPUS_SEED)
    F = _big_field()
    total = 200
    mismatches = 0
    for _ in range(total):
        psi = random_relative_complex(rng)
        table = partition_homology_dims(psi, F)
        coh = relative_cohomology_dims(psi, F)
        ok = True
        for (i, j), v in table.items():
            want = coh.get(i, 0) if j == 0 else 0
            if v != want:
                ok = False
        for i, v in coh.items():
            if table.get((i, 0), 0) != v:
                ok = False
        if not ok:
            mismatches += 1
    return {
        "passed": mismatches == 0,
        "detail": f"{total} random complexes, {mismatches} mismatches",
        "count": total,
        "mismatches": mismatches,
    }


def _reisner_instances():
    F2, F3, F = PrimeField(2), PrimeField(3), _big_field()
    named = [
        ("boundary_simplex_2", F), ("boundary_simplex_3", F),
        ("boundary_simplex_4", F), ("cross_polytope_2", F),
        ("cross_polytope_3", F3), ("simplex_1", F), ("simplex_2", F2),
        ("simplex_3", F), ("disk_with_induced_boundary_2", F),
        ("torus7", F), ("torus7", F2), ("rp2_6", F2), ("rp2_6", F3),
        ("path_2", F), ("path_4", F2), ("two_points", F), ("moebius", F),
    ]
    for name, field in named:
        yield builtin_complex(name), field
    yield as_relative(SimplicialComplex.from_facets(
        (1, 2, 3, 4), [(1, 2, 3), (4,)])), F
    yield as_relative(SimplicialComplex.from_facets(
        (1, 2, 3, 4), [(1, 2), (3, 4)])), F2
    rng = random.Random(CORPUS_SEED)
    cycle = (F2, F3, F)
    for k in range(200):
        yield random_relative_complex(rng), cycle[k % 3]


def check_reisner_agreement() -> dict:
    """Link criterion vs algebraic Cohen-Macaulay over mixed fields.

    The algebraic side is is_algebraically_cm: the Hilbert-function
    certificate of one certified quotient. One link table per instance
    gives the topological verdict and the depth passed to it.
    """
    checked = 0
    inconclusive = 0
    disagreements = []
    for psi, field in _reisner_instances():
        budget = 2000 if field.p < 100 else 20000
        topo = reisner_link_table(psi, field)
        known = None if psi.is_void else link_depth(psi, topo)
        alg = is_algebraically_cm(psi, field, seed=0, trials=3, budget=budget,
                                  known_depth=known)
        if alg["inconclusive"]:
            inconclusive += 1
            continue
        checked += 1
        if topo["cm"] != alg["cm"]:
            disagreements.append((psi.delta.labels, field.p, topo["cm"], alg["cm"]))
    return {
        "passed": checked >= 150 and not disagreements,
        "detail": (f"{checked} conclusive instances agree, "
                   f"{inconclusive} inconclusive (no certified parameters), "
                   f"{len(disagreements)} disagreements"),
        "checked": checked,
        "inconclusive": inconclusive,
        "disagreements": disagreements[:5],
    }


def _covered_instances():
    F2, F3, F = PrimeField(2), PrimeField(3), _big_field()
    return [
        (builtin_complex("torus7"), F),
        (builtin_complex("rp2_6"), F2),
        (builtin_complex("rp2_6"), F3),
        (builtin_complex("boundary_simplex_2"), F),
        (builtin_complex("boundary_simplex_3"), F),
        (builtin_complex("boundary_simplex_4"), F),
    ]


def check_partition_of_unity() -> dict:
    """The binomial homology formula for the reduced complex on the cover list."""
    rows = []
    ok = True
    for psi, field in _covered_instances():
        verdict = "no parameter system"
        for _, theta in lsop_trials(psi, 0, field):
            if theta is None:
                continue
            rep = partition_of_unity_report(psi, theta, field)
            verdict = rep.verdict
            if verdict == VERDICT_HOLDS:
                break
        rows.append((psi.delta.labels, field.p, verdict))
        ok = ok and verdict == VERDICT_HOLDS
    return {
        "passed": ok,
        "detail": "; ".join(f"p={p}: {v}" for _, p, v in rows),
        "rows": rows,
    }


def check_total_complex() -> dict:
    """Homology of the full double complex against the shifted binomial formula."""
    failures = []
    for psi, field in _covered_instances():
        _, theta = trials_until_certified(psi, 0, field)
        if theta is None:
            failures.append((psi.delta.labels, field.p, "no parameter system"))
            continue
        d = psi.dim
        table = total_complex_homology(psi, theta, field)
        bet = betti_numbers(psi, field)
        for j in range(d + 3):
            for i in range(-2, 2 * d + 4):
                want = math.comb(d + 1, j) * bet.get(i + j - d - 1, 0) if j <= d + 1 else 0
                got = table.get((i, j), 0)
                if want != got:
                    failures.append((psi.delta.labels, field.p, (i, j), got, want))
    return {
        "passed": not failures,
        "detail": ("all tables match the binomial formula" if not failures
                   else f"{len(failures)} cells off, first {failures[0]}"),
        "failures": failures[:5],
    }


def check_poincare_duality() -> dict:
    """B of the torus and of simplex boundaries, with a non-duality control."""
    F = _big_field()
    notes = []
    ok = True

    tor = builtin_complex("torus7")
    _, theta = trials_until_certified(tor, 0, F)
    P = build_B(tor.delta, theta, F)
    rep = poincare_duality_report(P)
    dims = P.dims_list(tor.dim + 1)
    ok = ok and dims == [1, 4, 4, 1] and rep["pd"]
    notes.append(f"torus7 B dims {dims} pd={rep['pd']}")

    for k in range(2, 6):
        sphere = builtin_complex(f"boundary_simplex_{k}")
        _, th = trials_until_certified(sphere, 0, F)
        As = quotient_presentation(sphere, th, F)
        Ps = build_B(sphere.delta, th, F)
        jdims = [As.dim(i) - Ps.dim(i) for i in range(max(As.dims) + 1)]
        bdims = Ps.dims_list(sphere.dim + 1)
        palindromic = bdims == bdims[::-1]
        reps = poincare_duality_report(Ps)
        ok = ok and not any(jdims) and palindromic and reps["pd"]
        notes.append(f"S^{k - 1} J={jdims} B={bdims}")

    A = quotient_presentation(tor, theta, F)
    repa = poincare_duality_report(A)
    pair1 = repa["pairings"].get(1, {})
    control = (not repa["pd"]
               and pair1.get("dim_left") == 4 and pair1.get("dim_right") == 10)
    ok = ok and control
    notes.append(f"control A(torus7) pd={repa['pd']} "
                 f"pairing dims {pair1.get('dim_left')} vs {pair1.get('dim_right')}")
    return {"passed": ok, "detail": "; ".join(notes)}


def check_open_star_injectivity() -> dict:
    """Open-star modules inject into A and into B in every positive degree."""
    F = _big_field()
    failures = []
    for name in ("torus7", "boundary_simplex_3"):
        psi = builtin_complex(name)
        _, theta = trials_until_certified(psi, 0, F)
        A = quotient_presentation(psi, theta, F)
        B = build_B(psi.delta, theta, F)
        for vmask in psi.delta.vertex_masks():
            op = psi.open_star(vmask)
            qo = quotient_presentation(op, theta, F)
            for j in range(1, psi.dim + 2):
                # the open-star basis in monomial coordinates of k[Delta]_j
                image = matmul(restriction_matrix(op, psi, j), qo.lift(j), F.p)
                if rank(A.reduce(j, image), F.p) != qo.dim(j):
                    failures.append((name, psi.delta.labels_of(vmask), j, "A"))
                if rank(B.reduce(j, image), F.p) != qo.dim(j):
                    failures.append((name, psi.delta.labels_of(vmask), j, "B"))
    return {
        "passed": not failures,
        "detail": ("every open star injects into A and B" if not failures
                   else f"failures: {failures[:5]}"),
        "failures": failures[:5],
    }


def check_koszul_consistency() -> dict:
    """Top Koszul homology equals the parameter quotient; depth is seed-stable."""
    rng = random.Random(KOSZUL_SEED)
    F = _big_field()
    total = 50
    mismatches = []
    for idx in range(total):
        psi = random_relative_complex(rng)
        thetas = [theta for _, theta in lsop_trials(psi, 0, F)]
        theta = thetas[0]
        if theta is None:
            mismatches.append((idx, "no parameter system"))
            continue
        K = KoszulComplex(psi, theta, F)
        base = quotient_presentation(psi, theta, F)
        for t in range(base.cap + 1):
            if K.homology_dim(len(theta), t) != base.dim(t):
                mismatches.append((idx, "top homology", t))
        if psi.is_void:
            continue
        depths = [depth(psi, th, F) for th in thetas if th is not None]
        if len(set(depths)) > 1:
            mismatches.append((idx, "depth varies", depths))
    return {
        "passed": not mismatches,
        "detail": (f"{total} random complexes consistent" if not mismatches
                   else f"{len(mismatches)} mismatches, first {mismatches[0]}"),
        "mismatches": mismatches[:5],
    }


def check_lefschetz_instances() -> dict:
    """Strong, almost, and subdivision Lefschetz verdicts on the stock list."""
    rows = []
    ok = True
    for name in ("boundary_simplex_2", "boundary_simplex_3", "boundary_simplex_4",
                 "cross_polytope_2", "cross_polytope_3"):
        rep = lefschetz_report(builtin_complex(name), "strong")
        rows.append((name, "strong", rep.verdict))
        ok = ok and rep.verdict == VERDICT_HOLDS
    rep = lefschetz_report(builtin_complex("torus7"), "almost")
    rows.append(("torus7", "almost", rep.verdict))
    ok = ok and rep.verdict == VERDICT_HOLDS
    structure = barycentric_subdivision_structure(builtin_complex("simplex_3").delta)
    rep = lefschetz_report(structure, "subdivision")
    rows.append(("barycentric simplex_3", "subdivision", rep.verdict))
    ok = ok and rep.verdict == VERDICT_HOLDS
    return {
        "passed": ok,
        "detail": "; ".join(f"{n}/{m}: {v}" for n, m, v in rows),
        "rows": rows,
    }


def check_kuhnel_bounds() -> dict:
    """Binomial vertex bounds on the torus and the 6-vertex projective plane."""
    F2 = PrimeField(2)
    rows = []
    ok = True
    for psi, field in ((builtin_complex("torus7"), _big_field()),
                       (builtin_complex("rp2_6"), F2)):
        rep = kuhnel_report(psi.delta, field)
        rows.append((psi.delta.labels, field.p, rep.verdict, rep.tables[0]["entries"]))
        ok = ok and rep.verdict == VERDICT_HOLDS
    torus_entry = rows[0][3][0]
    ok = ok and torus_entry["lhs"] == 1 and torus_entry["rhs"] == 6
    return {
        "passed": ok,
        "detail": "; ".join(f"p={p}: {v} entries={e}" for _, p, v, e in rows),
        "rows": rows,
    }


def check_interior_partition() -> dict:
    """Interior star exactness and injectivity on barycentric disks."""
    F = _big_field()
    rows = []
    ok = True
    for k in (2, 3):
        sigma = builtin_complex(f"simplex_{k}").delta
        bary = sigma.barycentric_subdivision()
        disk = RelativeComplex(bary, bary.boundary_subcomplex())
        _, theta = trials_until_certified(bary, 0, F)
        if theta is None:
            rows.append((k, "no parameter system"))
            ok = False
            continue
        res = interior_partition_check(disk, theta, F)
        kernels_zero = not any(res["kernel_dims"].values())
        good = (res["exact"] and res["injective_below_top"] and kernels_zero
                and res["diagnostics"]["boundary_induced"])
        rows.append((k, res["exact"], res["injective_below_top"], res["kernel_dims"]))
        ok = ok and good
    return {
        "passed": ok,
        "detail": "; ".join(str(r) for r in rows),
        "rows": rows,
    }


CRITERIA = [
    (1, "torus-regression", 5.0, check_torus_regression),
    (2, "partition-homology-oracle", 90.0, check_partition_oracle),
    (3, "reisner-agreement", 120.0, check_reisner_agreement),
    (4, "partition-of-unity", 60.0, check_partition_of_unity),
    (5, "total-complex-formula", 60.0, check_total_complex),
    (6, "poincare-duality", 30.0, check_poincare_duality),
    (7, "open-star-injectivity", 30.0, check_open_star_injectivity),
    (8, "koszul-consistency", 60.0, check_koszul_consistency),
    (9, "lefschetz-instances", 60.0, check_lefschetz_instances),
    (10, "kuhnel-bounds", 5.0, check_kuhnel_bounds),
    (11, "interior-partition", 30.0, check_interior_partition),
]


def run_criterion(number: int) -> dict:
    for num, name, budget, func in CRITERIA:
        if num == number:
            start = time.monotonic()
            res = func()
            elapsed = time.monotonic() - start
            return {
                "number": num,
                "name": name,
                "budget_seconds": budget,
                "seconds": round(elapsed, 3),
                "within_budget": elapsed < budget,
                "passed": bool(res["passed"]),
                "detail": res["detail"],
            }
    raise ValueError(f"no acceptance check numbered {number}")


def run_all(echo=None) -> list[dict]:
    rows = []
    for num, _, _, _ in CRITERIA:
        row = run_criterion(num)
        rows.append(row)
        if echo is not None:
            state = "PASS" if row["passed"] and row["within_budget"] else "FAIL"
            echo(f"[{state}] {row['number']:2d} {row['name']}"
                 f" ({row['seconds']}s / {row['budget_seconds']}s): {row['detail']}")
    return rows

"""Named theorem checkers producing reproducible reports.

Each checker runs an instance-level verification (both sides of an
identity, or agreement of two independent criteria) and wraps the
outcome in a TheoremReport: verdict "holds", "fails", or "inconclusive",
with the prime, the seeds consumed, and the tables that justify the
verdict. Identical inputs and seeds reproduce identical reports.
"""

import hashlib
import json
from math import comb

import numpy as np

from .complexes import (
    _popcount,
    as_relative,
    complex_hash,
    f_h_vectors,
    relative_cohomology_dims,
)
from .duality import (
    DualityError,
    build_B,
    manifold_sanity_check,
    poincare_duality_report,
)
from .facering import (
    LinearFormSequence,
    expected_lsop_length,
    quotient_presentation,
    sample_lsop,
)
from .koszul import is_algebraically_cm
from .linalg import DEFAULT_PRIME, PrimeField, identity, matmul, rank
from .partition import (
    PartitionError,
    SubdivisionStructure,
    reduced_partition_homology,
)

# Below this, a failed generic-position search is evidence of a thin field,
# not of the property failing.
SMALL_PRIME_BOUND = 2 ** 16

VERDICT_HOLDS = "holds"
VERDICT_FAILS = "fails"
VERDICT_INCONCLUSIVE = "inconclusive"


class TheoremReport:
    """One named verification: inputs, per-trial tables, and a verdict."""

    __slots__ = ("theorem", "input_hash", "prime", "seeds", "tables", "verdict",
                 "diagnostics")

    def __init__(self, theorem: str, input_hash: str, prime: int, seeds: list,
                 tables: list, verdict: str, diagnostics: list):
        self.theorem = theorem
        self.input_hash = input_hash
        self.prime = prime
        self.seeds = list(seeds)
        self.tables = tables
        self.verdict = verdict
        self.diagnostics = list(diagnostics)

    @property
    def holds(self) -> bool:
        return self.verdict == VERDICT_HOLDS

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "input_hash": self.input_hash,
            "prime": self.prime,
            "seeds": self.seeds,
            "tables": self.tables,
            "verdict": self.verdict,
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TheoremReport":
        return cls(data["theorem"], data["input_hash"], data["prime"],
                   data["seeds"], data["tables"], data["verdict"],
                   data["diagnostics"])

    def __eq__(self, other) -> bool:
        return isinstance(other, TheoremReport) and self.to_json() == other.to_json()

    def __repr__(self) -> str:
        return f"TheoremReport({self.theorem!r}, verdict={self.verdict!r})"


def _field(field: PrimeField | None) -> PrimeField:
    return field if field is not None else PrimeField(DEFAULT_PRIME)


def _structure_hash(structure: SubdivisionStructure) -> str:
    blob = json.dumps(structure.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def reisner_link_table(psi, field: PrimeField) -> dict:
    """Link-vanishing criterion for Cohen-Macaulayness of a relative complex.

    Requires, for every face tau of Delta including the empty one, that
    the reduced cohomology of lk_tau(Psi) vanishes in all indices i with
    -1 <= i < dim(Psi) - |tau|. Faces whose link is void pass vacuously.
    """
    psi = as_relative(psi)
    if psi.is_void:
        return {"cm": True, "failures": []}
    dim_psi = psi.dim
    failures = []
    for tau in sorted(psi.delta.faces):
        bound = (dim_psi if dim_psi is not None else -1) - _popcount(tau)
        if bound <= -1:
            continue
        coh = relative_cohomology_dims(psi.link(tau), field)
        for i, v in sorted(coh.items()):
            if v and -1 <= i < bound:
                failures.append({"face": list(psi.delta.labels_of(tau)),
                                 "index": i, "dim": int(v)})
    return {"cm": not failures, "failures": failures}


def is_topologically_cm(psi, field: PrimeField) -> bool:
    return reisner_link_table(psi, field)["cm"]


def buchsbaum_offender(psi, field: PrimeField):
    """First nonempty face whose star fails the link criterion, or None."""
    psi = as_relative(psi)
    if psi.is_void:
        return None
    for tau in sorted(psi.delta.faces):
        if tau == 0:
            continue
        if not is_topologically_cm(psi.star(tau), field):
            return psi.delta.labels_of(tau)
    return None


def reisner_report(psi, field: PrimeField | None = None, seed=0,
                   trials: int = 3) -> TheoremReport:
    """Agreement of the link criterion with the Koszul-depth CM test."""
    field = _field(field)
    psi = as_relative(psi)
    topo = reisner_link_table(psi, field)
    alg = is_algebraically_cm(psi, field=field, seed=seed, trials=trials)
    seeds = [row["seed"] for row in alg["trials"]]
    tables = [{
        "topological_cm": topo["cm"],
        "algebraic_cm": alg["cm"],
        "failing_links": topo["failures"],
        "depth": alg["depth"],
        "expected_depth": alg["expected_depth"],
        "trials": alg["trials"],
    }]
    diagnostics = []
    if alg["inconclusive"]:
        verdict = VERDICT_INCONCLUSIVE
        diagnostics.append("no certified parameter system found within budget")
    else:
        verdict = VERDICT_HOLDS if topo["cm"] == alg["cm"] else VERDICT_FAILS
    return TheoremReport("reisner", complex_hash(psi), field.p, seeds, tables,
                         verdict, diagnostics)


def partition_of_unity_report(psi, theta, field: PrimeField | None = None,
                              max_degree: int | None = None) -> TheoremReport:
    """Reduced partition homology versus binomial-weighted Betti numbers."""
    field = _field(field)
    psi = as_relative(psi)
    diagnostics = []
    seeds = [theta.seed] if isinstance(theta, LinearFormSequence) and theta.seed is not None else []
    offender = buchsbaum_offender(psi, field)
    if offender is not None:
        diagnostics.append(f"star of {list(offender)} is not Cohen-Macaulay")
        return TheoremReport("partition-of-unity", complex_hash(psi), field.p,
                             seeds, [], VERDICT_INCONCLUSIVE, diagnostics)
    d = psi.dim if psi.dim is not None else -1
    if max_degree is None:
        max_degree = d + 2
    try:
        left = reduced_partition_homology(psi, theta, field, max_degree=max_degree)
    except PartitionError as e:
        diagnostics.append(str(e))
        return TheoremReport("partition-of-unity", complex_hash(psi), field.p,
                             seeds, [], VERDICT_INCONCLUSIVE, diagnostics)
    betti = relative_cohomology_dims(psi, field)
    entries = []
    holds = True
    for i in range(-1, d + 2):
        for j in range(max_degree + 1):
            lv = int(left.get((i, j), 0))
            rv = comb(d + 1, j) * betti.get(i + j, 0)
            if lv or rv:
                entries.append({"i": i, "j": j, "left": lv, "right": rv})
            holds = holds and lv == rv
    tables = [{"window": {"i": [-1, d + 1], "j": [0, max_degree]},
               "entries": entries}]
    verdict = VERDICT_HOLDS if holds else VERDICT_FAILS
    return TheoremReport("partition-of-unity", complex_hash(psi), field.p,
                         seeds, tables, verdict, diagnostics)


def schenzel_report(psi, theta, field: PrimeField | None = None) -> TheoremReport:
    """Quotient dimensions versus h-vector plus Betti correction."""
    field = _field(field)
    psi = as_relative(psi)
    diagnostics = []
    seeds = [theta.seed] if isinstance(theta, LinearFormSequence) and theta.seed is not None else []
    offender = buchsbaum_offender(psi, field)
    if offender is not None:
        diagnostics.append(f"star of {list(offender)} is not Cohen-Macaulay")
        return TheoremReport("schenzel", complex_hash(psi), field.p, seeds, [],
                             VERDICT_INCONCLUSIVE, diagnostics)
    d = psi.dim if psi.dim is not None else -1
    base = quotient_presentation(psi, theta, field)
    if not base.finite_at_cap:
        diagnostics.append("Theta is not a linear system of parameters")
        return TheoremReport("schenzel", complex_hash(psi), field.p, seeds, [],
                             VERDICT_INCONCLUSIVE, diagnostics)
    h = f_h_vectors(psi).h
    betti = relative_cohomology_dims(psi, field)
    entries = []
    holds = True
    for j in range(d + 3):
        hj = h[j] if j < len(h) else 0
        correction = comb(d + 1, j) * sum(
            (-1) ** (i + j) * betti.get(i, 0) for i in range(j - 1))
        rv = hj + correction
        lv = base.dim(j)
        entries.append({"j": j, "h": hj, "left": lv, "right": rv})
        holds = holds and lv == rv
    tables = [{"entries": entries,
               "left_dims": [e["left"] for e in entries],
               "right_dims": [e["right"] for e in entries]}]
    verdict = VERDICT_HOLDS if holds else VERDICT_FAILS
    return TheoremReport("schenzel", complex_hash(psi), field.p, seeds, tables,
                         verdict, diagnostics)


def dehn_sommerville_check(delta, field: PrimeField | None = None, seed=0,
                           budget: int = 20000) -> TheoremReport:
    """Three independent symmetry checks for sphere candidates.

    Palindromy of the h-vector, palindromy of the B-dimensions, and
    perfection of all duality pairings are each reported; the verdict
    holds only when all three pass, so near-spheres such as manifolds
    show exactly which symmetry survives.
    """
    field = _field(field)
    psi = as_relative(delta)
    diagnostics = []
    try:
        manifold_sanity_check(psi, field)
    except DualityError as e:
        diagnostics.append(str(e))
        return TheoremReport("dehn-sommerville", complex_hash(psi), field.p,
                             [], [], VERDICT_INCONCLUSIVE, diagnostics)
    theta = sample_lsop(psi, expected_lsop_length(psi), seed, field, budget=budget)
    if theta is None:
        diagnostics.append("no certified parameter system found within budget")
        return TheoremReport("dehn-sommerville", complex_hash(psi), field.p,
                             [seed], [], VERDICT_INCONCLUSIVE, diagnostics)
    h = list(f_h_vectors(psi).h)
    h_palindromic = h == h[::-1]
    pres = build_B(psi, theta, field)
    n = pres.fundamental_degree
    b_dims = pres.b_dims_list(n)
    b_palindromic = b_dims == b_dims[::-1]
    try:
        rep = poincare_duality_report(pres)
        pairing_full = rep["routes"]["pairing"]
        pairing_tbl = {str(i): r for i, r in rep["pairings"].items()}
    except DualityError as e:
        pairing_full = False
        pairing_tbl = {}
        diagnostics.append(str(e))
    tables = [
        {"name": "h", "values": h, "palindromic": h_palindromic},
        {"name": "b_dims", "values": b_dims, "palindromic": b_palindromic},
        {"name": "pairing", "full": pairing_full, "ranks": pairing_tbl},
    ]
    verdict = VERDICT_HOLDS if h_palindromic and b_palindromic and pairing_full else VERDICT_FAILS
    return TheoremReport("dehn-sommerville", complex_hash(psi), field.p, [seed],
                         tables, verdict, diagnostics)


LEFSCHETZ_MODES = ("strong", "almost", "subdivision")


def _power_map(mult, dims, ell, j: int, power: int, p: int) -> np.ndarray:
    m = identity(dims(j))
    for step in range(power):
        m = matmul(mult(ell, j + step), m, p)
    return m


def lefschetz_report(target, mode: str, field: PrimeField | None = None, seed=0,
                     trials: int = 3, budget: int = 20000) -> TheoremReport:
    """Injectivity of generic linear-form powers between mirrored degrees.

    strong      ell^(d+1-2j): A_j -> A_{d+1-j} on Cohen-Macaulay complexes
    almost      ell^(d-2j):   B_j -> B_{d-j}   on closed manifolds
    subdivision ell^(d-2i-1): A_i -> A_{d-1-i} on subdivided balls

    Every trial draws a fresh certified parameter system and a fresh
    form; the property holds when some trial passes every degree.  When
    all trials fail over a small field, or no parameter system turns up,
    the verdict is inconclusive: a thin field cannot witness generic
    position.
    """
    field = _field(field)
    p = field.p
    diagnostics = []
    if mode not in LEFSCHETZ_MODES:
        raise ValueError(f"unknown Lefschetz mode {mode!r}")
    if mode == "subdivision":
        if not isinstance(target, SubdivisionStructure):
            raise ValueError("subdivision mode expects a SubdivisionStructure")
        psi = as_relative(target.delta)
        input_hash = _structure_hash(target)
    else:
        psi = as_relative(target)
        input_hash = complex_hash(psi)
    d = psi.dim if psi.dim is not None else -1
    if mode == "strong":
        if not is_topologically_cm(psi, field):
            diagnostics.append("complex is not Cohen-Macaulay")
            return TheoremReport("lefschetz-strong", input_hash, p, [], [],
                                 VERDICT_INCONCLUSIVE, diagnostics)
        jobs = [(j, d + 1 - 2 * j, d + 1 - j) for j in range((d + 1) // 2 + 1)]
    elif mode == "almost":
        try:
            manifold_sanity_check(psi, field)
        except DualityError as e:
            diagnostics.append(str(e))
            return TheoremReport("lefschetz-almost", input_hash, p, [], [],
                                 VERDICT_INCONCLUSIVE, diagnostics)
        jobs = [(j, d - 2 * j, d - j) for j in range(d // 2 + 1)]
    else:
        jobs = [(i, d - 2 * i - 1, d - 1 - i) for i in range((d - 1) // 2 + 1)]
    seeds = []
    trial_rows = []
    passed = False
    found_any = False
    length = expected_lsop_length(psi)
    for k in range(trials):
        s = seed + k if isinstance(seed, int) else f"{seed}:{k}"
        seeds.append(s)
        theta = sample_lsop(psi, length, s, field, budget=budget)
        if theta is None:
            trial_rows.append({"seed": s, "found_lsop": False, "maps": [], "pass": False})
            continue
        found_any = True
        ell_seed = (s << 20) ^ 0x10001 if isinstance(s, int) else f"{s}:ell"
        ell = LinearFormSequence.random(psi, 1, ell_seed, field)[0]
        if mode == "almost":
            pres = build_B(psi, theta, field)
            mult, dims = pres.mult_matrix, pres.b_dim
        else:
            base = quotient_presentation(psi, theta, field)
            mult, dims = base.quotient_mult_matrix, base.dim
        maps = []
        all_inj = True
        for j, power, dst in jobs:
            if power < 0:
                continue
            m = _power_map(mult, dims, ell, j, power, p)
            inj = rank(m, p) == dims(j)
            maps.append({"j": j, "power": power, "source_dim": dims(j),
                         "target_dim": dims(dst), "injective": inj})
            all_inj = all_inj and inj
        trial_rows.append({"seed": s, "found_lsop": True, "maps": maps, "pass": all_inj})
        if all_inj:
            passed = True
            break
    if passed:
        verdict = VERDICT_HOLDS
    elif not found_any:
        verdict = VERDICT_INCONCLUSIVE
        diagnostics.append("no certified parameter system found within budget")
    elif p < SMALL_PRIME_BOUND:
        verdict = VERDICT_INCONCLUSIVE
        diagnostics.append(
            f"all trials failed over F_{p}; small fields may miss generic position")
    else:
        verdict = VERDICT_FAILS
    return TheoremReport(f"lefschetz-{mode}", input_hash, p, seeds,
                         [{"trials": trial_rows}], verdict, diagnostics)


def kuhnel_report(delta, field: PrimeField | None = None, seed=0,
                  budget: int = 20000) -> TheoremReport:
    """Binomial bound on Betti numbers of a closed manifold.

    For each admissible j, checks C(d+1,j)b_{j-1} + C(d+1,j-1)b_{d-j+1}
    <= C(n-d+j, j) with n the vertex count, and the intermediate bound
    dim A_j >= left-hand side computed from an actual quotient.
    """
    field = _field(field)
    psi = as_relative(delta)
    diagnostics = []
    try:
        betti = manifold_sanity_check(psi, field)
    except DualityError as e:
        diagnostics.append(str(e))
        return TheoremReport("kuhnel", complex_hash(psi), field.p, [], [],
                             VERDICT_INCONCLUSIVE, diagnostics)
    d = psi.dim
    nvert = len(psi.delta.labels)
    theta = sample_lsop(psi, d + 1, seed, field, budget=budget)
    base = quotient_presentation(psi, theta, field) if theta is not None else None
    if base is None:
        diagnostics.append("no certified parameter system found within budget")
    entries = []
    binomial_ok = True
    intermediate_ok = True
    for j in range(1, (d + 1) // 2 + 1):
        lhs = comb(d + 1, j) * betti.get(j - 1, 0) + comb(d + 1, j - 1) * betti.get(d - j + 1, 0)
        rhs = comb(nvert - d + j, j)
        dim_a = base.dim(j) if base is not None else None
        entries.append({"j": j, "lhs": lhs, "rhs": rhs, "dim_A": dim_a})
        binomial_ok = binomial_ok and lhs <= rhs
        if dim_a is not None:
            intermediate_ok = intermediate_ok and dim_a >= lhs
    tables = [{"entries": entries}]
    if base is None:
        verdict = VERDICT_INCONCLUSIVE
    else:
        verdict = VERDICT_HOLDS if binomial_ok and intermediate_ok else VERDICT_FAILS
    return TheoremReport("kuhnel", complex_hash(psi), field.p, [seed], tables,
                         verdict, diagnostics)

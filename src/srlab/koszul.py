"""Koszul complexes of linear systems acting on relative face modules.

Position i of K(Theta; k[Psi]) is Lambda^i of a free rank-n module tensored
with the face module. A basis vector is a pair (S, x^alpha) with S an
i-element subset of {0, ..., n-1} and x^alpha a monomial; the differential
sends m * e_S to the sum over t outside S of

    (-1)^{#{s in S : s < t}} (theta_t m) * e_{S + t},

raising the coefficient degree of m by one. In the shifted grading
deg(alpha) + n - i the differential preserves degree, so each shifted
degree is an honest cochain complex; the natural grading deg(alpha) gives
a staircase whose homology at (i, t) sits between the maps in from
(i-1, t-1) and out to (i+1, t+1).

One builder, ``koszul_step``, makes every Koszul map in srlab, as a
``SparseMatrix`` holding only the nonzeros: the maps of K(Theta; k[Psi])
here, and the vertical maps of the partition complex tensored with Koszul
(``partition.DoubleComplexSlice``), where the module is a direct sum of
star modules. It takes the module only through its multiplication
pattern, the support pattern of x_v on monomials that is shared by every
form and field: ``facering._mult_pattern`` for k[Psi], and for a direct
sum the one ``partition.PartitionComplexSpec.mult_pattern`` filters out of
k[Delta]'s. All blocks e_S -> e_{S + u} come out of one numpy broadcast of
that pattern over the (subset, form) pairs. A dense map would have
C(n, i + 1) dim k[Psi]_{t+1} by C(n, i) dim k[Psi]_t cells, of which each
column holds at most n times the number of vertices nonzeros.

Depth is the smallest i with nonzero homology; for a certified linear
system of parameters it equals dim + 1 exactly on Cohen-Macaulay modules.
The CM test itself decides by the Hilbert function of one quotient and
builds no Koszul complex: when that says not CM, the depth is read off
the link table by Hochster's formula (``complexes.link_depth``). Koszul
``depth`` stays an independent route, for acceptance check 08 and the
tests.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .complexes import as_relative, link_depth, reisner_link_table
from .facering import (
    LinearFormSequence,
    _mult_pattern,
    expected_lsop_length,
    hilbert_certificate,
    monomial_basis,
    trials_until_certified,
)
from .linalg import DEFAULT_PRIME, LazyHomology, PrimeField, SparseMatrix

GRADINGS = ("natural", "shifted")


class KoszulError(ValueError):
    pass


def koszul_step(pattern, dims: tuple[int, int], theta, i: int, p: int) -> SparseMatrix:
    """The Koszul map on a module, wedge i at degree t to wedge i + 1 at degree t + 1.

    The module is given by its multiplication pattern from degree t to
    t + 1 (``facering._mult_pattern``, or the direct-sum pattern a
    ``partition.PartitionComplexSpec`` keeps) and dims, its dimensions
    (m_t, m_{t+1}). Rows and columns are ordered subset-major: i-subsets S
    of the forms lexicographically, then the module's monomial basis. The
    block e_S -> e_{S + u} is the pattern carrying theta_u's coefficients,
    with sign (-1)^{#{s in S : s < u}}; all blocks come out of one
    broadcast over the (subset, form) pairs, listed subset-major and by
    form. A side whose wedge index lies outside [0, n] or whose dimension
    is 0 is empty, and then ``pattern`` is not read (it may be None).
    """
    n = len(theta)
    msrc, mdst = dims
    shape = (math.comb(n, i + 1) * mdst if i >= -1 else 0,
             math.comb(n, i) * msrc if i >= 0 else 0)
    if 0 in shape:
        return SparseMatrix(shape, [], [], [], p)
    dst_index = {S: k for k, S in enumerate(combinations(range(n), i + 1))}
    pairs = [(dst_index[tuple(sorted(S + (u,)))], ci, u, sum(1 for s in S if s < u) % 2)
             for ci, S in enumerate(combinations(range(n), i)) for u in range(n) if u not in S]
    ri, ci, u, odd = (np.array(x, dtype=np.int64) for x in zip(*pairs))
    pr, pc, pv = pattern
    vals = (np.array([list(form) for form in theta], dtype=np.int64) % p)[u[:, None], pv]
    vals[odd == 1] = -vals[odd == 1] % p
    rows = (ri * mdst)[:, None] + pr
    cols = (ci * msrc)[:, None] + pc
    return SparseMatrix(shape, rows.ravel(), cols.ravel(), vals.ravel(), p)


class KoszulComplex:
    """K(Theta; k[Psi]) assembled one coefficient degree at a time.

    Each differential is the one-module ``koszul_step``, a ``SparseMatrix``:
    subsets are ordered lexicographically, monomials inside each subset
    block in the fixed monomial-basis order, so every matrix is
    reproducible. Homology comes from a ``LazyHomology`` over the cells
    (i, t) with step (1, 1): the map out of position i at degree t is the
    map into position i + 1 at degree t + 1, so each rank serves two cells.
    """

    def __init__(self, psi, theta, field: PrimeField):
        self.psi = as_relative(psi)
        if not isinstance(theta, LinearFormSequence):
            theta = LinearFormSequence(theta, field.p)
        if theta.p != field.p:
            raise KoszulError("form coefficients live in a different prime field")
        self.theta = theta
        self.field = field
        self.n = len(theta)
        self._homology = LazyHomology(self.space_dim, self.differential, (1, 1), field.p)

    def module_dim(self, t: int) -> int:
        if t < 0:
            return 0
        return len(monomial_basis(self.psi, t))

    def space_dim(self, i: int, t: int) -> int:
        if i < 0 or i > self.n or t < 0:
            return 0
        return math.comb(self.n, i) * self.module_dim(t)

    def differential(self, i: int, t: int) -> SparseMatrix:
        """Matrix of K^i at coefficient degree t into K^{i+1} at degree t + 1."""
        dims = (self.module_dim(t), self.module_dim(t + 1))
        pattern = _mult_pattern(self.psi, t) if 0 not in dims else None
        return koszul_step(pattern, dims, self.theta, i, self.field.p)

    def homology_dim(self, i: int, t: int) -> int:
        """dim of the homology at position i, coefficient degree t."""
        return self._homology.homology(i, t)


def _default_window(psi) -> int:
    d = psi.dim
    return (d if d is not None else -1) + 3


def koszul_homology_dims(psi, theta, field: PrimeField, grading: str = "shifted",
                         max_degree: int | None = None) -> dict[tuple[int, int], int]:
    """Table {(i, j): dim H^i(K(Theta; k[Psi]))_j} for the chosen grading.

    i runs over [0, n] and j over [0, max_degree]; max_degree defaults to
    dim(Psi) + 3. Natural j is the coefficient degree; shifted j is
    coefficient degree + n - i.
    """
    if grading not in GRADINGS:
        raise KoszulError(f"grading must be one of {GRADINGS}")
    psi = as_relative(psi)
    K = KoszulComplex(psi, theta, field)
    if max_degree is None:
        max_degree = _default_window(psi)
    out: dict[tuple[int, int], int] = {}
    for i in range(K.n + 1):
        for j in range(max_degree + 1):
            t = j if grading == "natural" else j - (K.n - i)
            out[(i, j)] = K.homology_dim(i, t)
    return out


def depth(psi, theta, field: PrimeField) -> int:
    """Smallest i with H^i(K(Theta; k[Psi])) nonzero.

    Scans coefficient degrees up to dim + 3; the top homology
    M/<Theta>M is nonzero in the lowest generator degree of a nonzero
    module, so the scan terminates for every non-void input.
    """
    psi = as_relative(psi)
    if psi.is_void:
        raise KoszulError("depth is undefined for the zero module")
    K = KoszulComplex(psi, theta, field)
    for i in range(K.n + 1):
        for t in range(_default_window(psi) + 1):
            if K.homology_dim(i, t) > 0:
                return i
    raise KoszulError("no nonzero Koszul homology in the degree window")


def is_algebraically_cm(psi, field: PrimeField | None = None, seed=0, trials: int = 3,
                        budget: int = 20000, known_depth: int | None = None) -> dict:
    """Cohen-Macaulay test: Hilbert-function certificate, link depth when not CM.

    The trials come from ``lsop_trials`` and stop at the first certified
    Theta (``trials_until_certified``): each draws its own coefficient
    stream and rejection-samples until the l.s.o.p. certificate passes; a
    trial whose budget runs out is recorded with found_lsop False. The
    certified Theta decides CM by ``hilbert_certificate``; neither the
    verdict nor the depth depends on Theta. If it holds, depth is dim + 1 (CM means
    full depth for every l.s.o.p.). Otherwise the depth is known_depth when
    given, taken as is; if not, it is read off ``reisner_link_table`` by
    Hochster's formula (``link_depth``; Stanley, Combinatorics and
    Commutative Algebra, 2nd ed., Ch. II Sec. 4; cited for absolute
    complexes, checked on relative ones by the tests), so no Koszul complex
    is built. inconclusive is True when no trial completed (possible over tiny
    fields where parameter systems are scarce or absent).
    """
    psi = as_relative(psi)
    if field is None:
        field = PrimeField(DEFAULT_PRIME)
    expected = expected_lsop_length(psi)
    if psi.is_void:
        return {"cm": True, "expected_depth": 0, "depth": None, "prime": field.p,
                "trials": [], "inconclusive": False, "note": "zero module"}
    seeds, theta = trials_until_certified(psi, seed, field, trials, budget)
    trial_rows = [{"seed": s, "found_lsop": False, "depth": None} for s in seeds]
    cm = dep = None
    if theta is not None:
        cm = hilbert_certificate(psi, theta, field)
        if cm:
            dep = expected
        elif known_depth is not None:
            dep = known_depth
        else:
            dep = link_depth(psi, reisner_link_table(psi, field))
        trial_rows[-1].update(found_lsop=True, depth=dep)
    return {
        "cm": bool(cm),
        "expected_depth": expected,
        "depth": dep,
        "prime": field.p,
        "trials": trial_rows,
        "inconclusive": cm is None,
    }

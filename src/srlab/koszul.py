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
(i-1, t-1) and out to (i+1, t+1). Depth is the smallest i with nonzero
homology; for a certified linear system of parameters it equals dim + 1
exactly on Cohen-Macaulay modules. The CM test itself decides by the
Hilbert function of one quotient. When that says not CM it reports a depth
given by the caller (``reisner_report`` reads it off the link table), or
else scans Koszul depth once, on the first certified Theta: depth does not
depend on Theta, so later trials record the same value.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .complexes import as_relative
from .facering import (
    LinearFormSequence,
    expected_lsop_length,
    hilbert_certificate,
    lsop_trials,
    monomial_basis,
    multiplication_matrix,
)
from .linalg import DEFAULT_PRIME, LazyHomology, PrimeField

GRADINGS = ("natural", "shifted")


class KoszulError(ValueError):
    pass


class KoszulComplex:
    """K(Theta; k[Psi]) assembled one coefficient degree at a time.

    Subsets are ordered lexicographically, monomials inside each subset
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

    def differential(self, i: int, t: int) -> np.ndarray:
        """Matrix of K^i at coefficient degree t into K^{i+1} at degree t + 1."""
        rows = self.space_dim(i + 1, t + 1)
        cols = self.space_dim(i, t)
        mat = np.zeros((rows, cols), dtype=np.int64)
        if rows == 0 or cols == 0:
            return mat
        p = self.field.p
        msrc = self.module_dim(t)
        mdst = self.module_dim(t + 1)
        src_subsets = list(combinations(range(self.n), i))
        dst_offset = {S: k * mdst for k, S in enumerate(combinations(range(self.n), i + 1))}
        mults = [multiplication_matrix(self.psi, form, t, self.field) for form in self.theta]
        for ci, S in enumerate(src_subsets):
            inside = set(S)
            col0 = ci * msrc
            for t_add in range(self.n):
                if t_add in inside:
                    continue
                block = mults[t_add]
                if sum(1 for s in S if s < t_add) % 2:
                    block = (p - block) % p
                row0 = dst_offset[tuple(sorted(S + (t_add,)))]
                mat[row0:row0 + mdst, col0:col0 + msrc] = block
        return mat

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


def depth(psi, theta, field: PrimeField, max_degree: int | None = None) -> int:
    """Smallest i with H^i(K(Theta; k[Psi])) nonzero.

    Scans coefficient degrees up to max_degree (default dim + 3); the top
    homology M/<Theta>M is nonzero in the lowest generator degree of a
    nonzero module, so the scan terminates for every non-void input.
    """
    psi = as_relative(psi)
    if psi.is_void:
        raise KoszulError("depth is undefined for the zero module")
    K = KoszulComplex(psi, theta, field)
    cap = max_degree if max_degree is not None else _default_window(psi)
    for i in range(K.n + 1):
        for t in range(cap + 1):
            if K.homology_dim(i, t) > 0:
                return i
    raise KoszulError("no nonzero Koszul homology in the degree window")


def is_algebraically_cm(psi, field: PrimeField | None = None, seed=0, trials: int = 3,
                        budget: int = 20000, max_degree: int | None = None,
                        known_depth: int | None = None) -> dict:
    """Cohen-Macaulay test: Hilbert-function certificate, depth when not CM.

    The trials come from ``lsop_trials``: each draws its own coefficient
    stream and rejection-samples until the l.s.o.p. certificate passes; a
    trial whose budget runs out is recorded with found_lsop False and
    contributes no verdict. The first certified Theta decides CM by
    ``hilbert_certificate``. If it holds, depth is dim + 1 (CM means full
    depth for every l.s.o.p.), the trial is recorded with that depth and
    the loop stops. Otherwise the depth is known_depth when given, taken
    as is; if not, it is the Koszul ``depth`` of that first certified Theta
    with coefficient degrees up to max_degree, which bounds only this scan,
    and a scan that reaches dim + 1 on a non-CM module saw too few degrees
    and raises KoszulError. Depth does not depend on Theta, so the scan runs
    at most once and every later certified trial records the same depth.
    inconclusive is True when no trial completed (possible over tiny fields
    where parameter systems are scarce or absent).
    """
    psi = as_relative(psi)
    if field is None:
        field = PrimeField(DEFAULT_PRIME)
    expected = expected_lsop_length(psi)
    if psi.is_void:
        return {"cm": True, "expected_depth": 0, "depth": None, "prime": field.p,
                "trials": [], "inconclusive": False, "note": "zero module"}
    trial_rows = []
    dep = None
    cm = None
    for s, theta in lsop_trials(psi, seed, field, trials, budget):
        if theta is None:
            trial_rows.append({"seed": s, "found_lsop": False, "depth": None})
            continue
        if cm is None:
            cm = hilbert_certificate(psi, theta, field)
            if cm:
                dep = expected
            elif known_depth is not None:
                dep = known_depth
            else:
                dep = depth(psi, theta, field, max_degree=max_degree)
                if dep == expected:
                    raise KoszulError("degree window too narrow to find the depth")
        trial_rows.append({"seed": s, "found_lsop": True, "depth": dep})
        if cm:
            break
    return {
        "cm": bool(cm),
        "expected_depth": expected,
        "depth": dep,
        "prime": field.p,
        "trials": trial_rows,
        "inconclusive": cm is None,
    }

"""Graded pieces of face rings and relative face modules.

The degree-j piece of k[Psi] has the monomials x^alpha with |alpha| = j
and support(alpha) a face of Delta outside Gamma as a basis. Everything
here is phrased in those coordinates: multiplication by a linear form is
a matrix, the quotient A = k[Psi]/<Theta> is computed degree by degree
by eliminating the column space of the multiplication maps, and coset
representatives are the non-pivot monomials of a fixed-order elimination
so that every downstream matrix is reproducible bit for bit.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

import numpy as np

from .complexes import RelativeComplex, as_relative, _bit_positions, _popcount
from .linalg import PrimeField, matmul, rank, rref


class FaceRingError(ValueError):
    pass


class MonomialBasis:
    """Ordered basis of k[Psi]_j: faces in mask order, compositions in lex order."""

    __slots__ = ("psi", "degree", "exponents", "index", "n")

    def __init__(self, psi: RelativeComplex, degree: int, exponents: tuple[tuple[int, ...], ...]):
        self.psi = psi
        self.degree = degree
        self.exponents = exponents
        self.index = {e: i for i, e in enumerate(exponents)}
        self.n = len(psi.delta.labels)

    def __len__(self) -> int:
        return len(self.exponents)

    def __iter__(self):
        return iter(self.exponents)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.exponents[i]

    def monomial_label(self, i: int) -> str:
        alpha = self.exponents[i]
        labels = self.psi.delta.labels
        parts = [f"x[{labels[v]}]" + (f"^{e}" if e > 1 else "")
                 for v, e in enumerate(alpha) if e]
        return "*".join(parts) if parts else "1"


def _compositions(total: int, parts: int):
    """Positive integer compositions of total into parts slots, lex order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def monomial_basis(psi: RelativeComplex, degree: int) -> MonomialBasis:
    """All monomials of degree j supported on faces of Psi."""
    if degree < 0:
        raise FaceRingError("degree must be nonnegative")
    n = len(psi.delta.labels)
    faces = psi.faces()
    out: list[tuple[int, ...]] = []
    if degree == 0:
        if 0 in faces:
            out.append((0,) * n)
        return MonomialBasis(psi, 0, tuple(out))
    for card in range(1, degree + 1):
        for mask in psi.faces_of_dim(card - 1):
            positions = _bit_positions(mask)
            for comp in _compositions(degree, card):
                alpha = [0] * n
                for pos, e in zip(positions, comp):
                    alpha[pos] = e
                out.append(tuple(alpha))
    return MonomialBasis(psi, degree, tuple(out))


def _hilbert_by_face_counts(psi, up_to: int) -> list[int]:
    """Hilbert function via supports: each m-face contributes C(j-1, m-1) in degree j.

    Second route behind hilbert_series_coeffs, kept separate so the two
    can be compared against each other and against monomial enumeration.
    """
    psi = as_relative(psi)
    if up_to < 0:
        raise FaceRingError("up_to must be nonnegative")
    faces = psi.faces()
    counts: dict[int, int] = {}
    for f in faces:
        counts[_popcount(f)] = counts.get(_popcount(f), 0) + 1
    coeffs = []
    for j in range(up_to + 1):
        c = counts.get(0, 0) if j == 0 else 0
        for m, cnt in counts.items():
            if 1 <= m <= j:
                c += cnt * math.comb(j - 1, m - 1)
        coeffs.append(c)
    return coeffs


class LinearFormSequence:
    """Theta = (theta_1, ..., theta_m): degree-1 forms with one coefficient per vertex."""

    __slots__ = ("forms", "seed", "p")

    def __init__(self, forms, p: int, seed=None):
        self.forms = tuple(tuple(int(c) % p for c in row) for row in forms)
        self.seed = seed
        self.p = p

    @classmethod
    def random(cls, psi, count: int, seed, field: PrimeField) -> "LinearFormSequence":
        """Uniform coefficients, deterministic for a fixed seed."""
        psi = as_relative(psi)
        n = len(psi.delta.labels)
        rng = random.Random(seed)
        forms = [[rng.randrange(field.p) for _ in range(n)] for _ in range(count)]
        return cls(forms, field.p, seed=seed)

    def __len__(self) -> int:
        return len(self.forms)

    def __iter__(self):
        return iter(self.forms)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.forms[i]

    def array(self) -> np.ndarray:
        if not self.forms:
            return np.zeros((0, 0), dtype=np.int64)
        return np.array(self.forms, dtype=np.int64)

    def __repr__(self) -> str:
        return f"LinearFormSequence(m={len(self.forms)}, p={self.p}, seed={self.seed!r})"


@lru_cache(maxsize=None)
def _mult_matrix(psi: RelativeComplex, coeffs: tuple[int, ...], j: int, p: int) -> np.ndarray:
    src = monomial_basis(psi, j)
    dst = monomial_basis(psi, j + 1)
    mat = np.zeros((len(dst), len(src)), dtype=np.int64)
    delta_faces = psi.delta.faces
    for col, alpha in enumerate(src):
        # support of alpha | v must stay a face of Delta; leaving Gamma is automatic
        supp = 0
        for v, e in enumerate(alpha):
            if e:
                supp |= 1 << v
        for v, c in enumerate(coeffs):
            if c == 0:
                continue
            if (supp | (1 << v)) not in delta_faces:
                continue
            beta = alpha[:v] + (alpha[v] + 1,) + alpha[v + 1:]
            mat[dst.index[beta], col] = (mat[dst.index[beta], col] + c) % p
    return mat


def multiplication_matrix(psi, form, j: int, field: PrimeField) -> np.ndarray:
    """Matrix of multiplication by a degree-1 form from k[Psi]_j to k[Psi]_{j+1}."""
    psi = as_relative(psi)
    coeffs = tuple(int(c) % field.p for c in form)
    if len(coeffs) != len(psi.delta.labels):
        raise FaceRingError("form needs one coefficient per ground-set vertex")
    return _mult_matrix(psi, coeffs, j, field.p).copy()


def variable_form(psi, v, field: PrimeField) -> tuple[int, ...]:
    """The coordinate form x_v."""
    psi = as_relative(psi)
    idx = psi.delta.index[v]
    return tuple(1 if i == idx else 0 for i in range(len(psi.delta.labels)))


def _generator_max_degree(psi: RelativeComplex) -> int:
    """Max cardinality of a minimal face of Psi (module generator degrees)."""
    faces = psi.faces()
    if not faces:
        return 0
    gamma = psi.gamma.faces
    best = 0
    for f in faces:
        minimal = True
        for i in _bit_positions(f):
            if (f ^ (1 << i)) not in gamma:
                minimal = False
                break
        if minimal:
            best = max(best, _popcount(f))
    return best


class GradedQuotientPresentation:
    """A = k[Psi]/<Theta> degree by degree, in frozen quotient coordinates.

    For each degree j the relation space is sum_t theta_t * k[Psi]_{j-1};
    a fixed-order RREF of its span (relations as rows) yields pivot
    monomials, and the non-pivot monomials represent a basis of A_j.
    """

    def __init__(self, psi, theta: LinearFormSequence, field: PrimeField,
                 cap: int | None = None):
        psi = as_relative(psi)
        if theta.p != field.p:
            raise FaceRingError("Theta and field use different moduli")
        self.psi = psi
        self.theta = theta
        self.field = field
        d = psi.dim
        if cap is None:
            cap = (d if d is not None else -1) + 3
        self.cap = cap
        self.dims: dict[int, int] = {}
        self._free: dict[int, np.ndarray] = {}
        self._pivots: dict[int, np.ndarray] = {}
        self._rfree: dict[int, np.ndarray] = {}
        self.vanishing_degree: int | None = None
        self.finite_at_cap = True
        self._build()

    def _build(self) -> None:
        p = self.field.p
        gen_max = _generator_max_degree(self.psi)
        for j in range(self.cap + 1):
            basis = monomial_basis(self.psi, j)
            nb = len(basis)
            if j == 0 or nb == 0:
                rel_rows = np.zeros((0, nb), dtype=np.int64)
            else:
                blocks = [_mult_matrix(self.psi, f, j - 1, p) for f in self.theta]
                rel = np.hstack(blocks) if blocks else np.zeros((nb, 0), dtype=np.int64)
                rel_rows = rel.T
            red, pivots = rref(rel_rows, p)
            piv = np.array(pivots, dtype=np.int64)
            free = np.array([c for c in range(nb) if c not in set(pivots)], dtype=np.int64)
            self._pivots[j] = piv
            self._free[j] = free
            self._rfree[j] = red[: len(piv)][:, free] if len(piv) else np.zeros((0, len(free)), dtype=np.int64)
            self.dims[j] = len(free)
            if self.dims[j] == 0 and j >= gen_max:
                self.vanishing_degree = j
                break
        else:
            # never vanished inside the cap: the quotient is (or looks) infinite
            self.finite_at_cap = False

    def dim(self, j: int) -> int:
        if j < 0:
            return 0
        if j in self.dims:
            return self.dims[j]
        if self.vanishing_degree is not None and j > self.vanishing_degree:
            return 0
        raise FaceRingError(f"degree {j} beyond computed cap {self.cap}")

    def dims_list(self, up_to: int | None = None) -> list[int]:
        if up_to is None:
            up_to = max(self.dims)
        return [self.dim(j) for j in range(up_to + 1)]

    def top_degree(self) -> int:
        nz = [j for j, v in self.dims.items() if v > 0]
        return max(nz) if nz else -1

    def basis(self, j: int) -> MonomialBasis:
        return monomial_basis(self.psi, j)

    def representatives(self, j: int) -> list[tuple[int, ...]]:
        basis = monomial_basis(self.psi, j)
        return [basis[int(i)] for i in self._free.get(j, [])]

    def reduce(self, j: int, vectors: np.ndarray) -> np.ndarray:
        """Map columns in k[Psi]_j coordinates to quotient coordinates of A_j."""
        p = self.field.p
        if j not in self._free:
            if self.vanishing_degree is not None and j > self.vanishing_degree:
                return np.zeros((0, vectors.shape[1]), dtype=np.int64)
            raise FaceRingError(f"degree {j} beyond computed cap {self.cap}")
        free, piv, rf = self._free[j], self._pivots[j], self._rfree[j]
        vectors = np.asarray(vectors, dtype=np.int64) % p
        out = vectors[free, :] if len(free) else np.zeros((0, vectors.shape[1]), dtype=np.int64)
        if len(piv):
            out = (out - matmul(rf.T, vectors[piv, :], p)) % p
        return out

    def lift(self, j: int) -> np.ndarray:
        """Embed A_j coordinates into k[Psi]_j via the representative monomials."""
        nb = len(monomial_basis(self.psi, j))
        free = self._free[j]
        m = np.zeros((nb, len(free)), dtype=np.int64)
        for k, f in enumerate(free):
            m[int(f), k] = 1
        return m

    def quotient_mult_matrix(self, form, j: int) -> np.ndarray:
        """Multiplication by a degree-1 form as a map A_j -> A_{j+1}."""
        p = self.field.p
        coeffs = tuple(int(c) % p for c in form)
        if self.dim(j) == 0 or self.dim(j + 1) == 0:
            return np.zeros((self.dim(j + 1), self.dim(j)), dtype=np.int64)
        raw = _mult_matrix(self.psi, coeffs, j, p)
        lifted = raw[:, self._free[j]]
        return self.reduce(j + 1, lifted)


def quotient_presentation(psi, theta: LinearFormSequence, field: PrimeField,
                          cap: int | None = None) -> GradedQuotientPresentation:
    return GradedQuotientPresentation(psi, theta, field, cap=cap)


def expected_lsop_length(psi) -> int:
    """Max cardinality of a face of Delta outside Gamma."""
    psi = as_relative(psi)
    d = psi.dim
    return 0 if d is None else d + 1


@lru_cache(maxsize=16)
def _maximal_columns(psi: RelativeComplex) -> tuple[tuple[int, ...], ...]:
    """Vertex positions of each nonempty maximal face of Psi.

    The O(F^2) scan runs once per complex, not once per Theta draw of
    sample_lsop. The faces keep the iteration order of psi.faces(), the
    order in which the certificate checks them.
    """
    faces = psi.faces()
    maximal = [f for f in faces if not any(f != g and f & g == f for g in faces)]
    return tuple(cols for cols in map(_bit_positions, maximal) if cols)


def lsop_certificate(psi, forms, field: PrimeField) -> bool:
    """Exact finiteness test: Theta restricted to every maximal face has full rank.

    V(Theta) meets the coordinate subspace of a maximal support face sigma
    only at 0 iff the coefficient submatrix on sigma's columns has rank
    |sigma|; the quotient M/<Theta>M is finite iff this holds for all
    maximal faces of Psi.
    """
    psi = as_relative(psi)
    nverts = len(psi.delta.labels)
    arr = np.array([list(f) for f in forms], dtype=np.int64).reshape(len(forms), nverts)
    for cols in _maximal_columns(psi):
        if arr.shape[0] == 0 or rank(arr[:, cols], field.p) < len(cols):
            return False
    return True


def sample_lsop(psi, length: int, seed, field: PrimeField,
                budget: int = 20000) -> LinearFormSequence | None:
    """First certified l.s.o.p. from the seeded stream; None if the budget runs out.

    Over the default large prime the first draw passes essentially always;
    over tiny fields the good locus can be a sub-percent fraction of all
    coefficient matrices (rp2_6 over F_2: 840 of 2^18), so rejection is
    what makes small-characteristic verdicts reproducible.
    """
    psi = as_relative(psi)
    n = len(psi.delta.labels)
    rng = random.Random(seed)
    for _ in range(budget):
        forms = [[rng.randrange(field.p) for _ in range(n)] for _ in range(length)]
        if lsop_certificate(psi, forms, field):
            return LinearFormSequence(forms, field.p, seed=seed)
    return None


def random_linear_forms(delta, count: int, seed, field: PrimeField) -> LinearFormSequence:
    """Uniform degree-1 forms over the ground set, reproducible per seed."""
    return LinearFormSequence.random(delta, count, seed, field)


def hilbert_series_coeffs(psi, up_to: int) -> list[int]:
    """Hilbert function of k[Psi] by expanding the rational series.

    Expands sum_sigma t^|sigma| (1-t)^(n-|sigma|) / (1-t)^n truncated at
    up_to, grouping faces by cardinality. Independent of the monomial
    enumeration route, which it must match degree by degree.
    """
    psi = as_relative(psi)
    if up_to < 0:
        raise FaceRingError("up_to must be nonnegative")
    if psi.is_void:
        return [0] * (up_to + 1)
    n = len(psi.delta.labels)
    d = psi.dim if psi.dim is not None else -1
    counts = [len(psi.faces_of_dim(card - 1)) for card in range(d + 2)]
    num = [0] * (up_to + 1)
    for card, f in enumerate(counts):
        if f == 0:
            continue
        for k in range(min(up_to - card, n - card) + 1):
            num[card + k] += f * ((-1) ** k) * math.comb(n - card, k)
    if n == 0:
        return num
    return [sum(num[j - k] * math.comb(n + k - 1, k) for k in range(j + 1))
            for j in range(up_to + 1)]


def is_lsop(psi, theta: LinearFormSequence, field: PrimeField) -> dict:
    """Theta is an l.s.o.p. iff it has the expected length and A is finite."""
    psi = as_relative(psi)
    expected = expected_lsop_length(psi)
    pres = GradedQuotientPresentation(psi, theta, field)
    finite = pres.vanishing_degree is not None
    return {
        "is_lsop": len(theta) == expected and finite,
        "expected_length": expected,
        "length": len(theta),
        "vanishing_degree": pres.vanishing_degree,
        "dims": pres.dims_list(),
    }

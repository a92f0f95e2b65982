"""Graded pieces of face rings and relative face modules.

The degree-j piece of k[Psi] has the monomials x^alpha with |alpha| = j
and support(alpha) a face of Delta outside Gamma as a basis. Everything
here is phrased in those coordinates: multiplication by a linear form is
a matrix, built fresh from a support pattern that is cached once per
complex and degree (read-only, shared by every form and field), the
quotient A = k[Psi]/<Theta> is
computed degree by degree, one form at a time, by eliminating the
relations each form adds, and coset representatives are the non-pivot
monomials of the reduced row echelon form of all relations, so that
every downstream matrix is reproducible bit for bit.

Theta is drawn from a seeded randrange stream and kept when it passes the
exact finiteness test on every maximal face (Kind-Kleinschmidt). The test
has two paths with the same answer: over small fields each face's
coefficient submatrix is looked up in a cached, read-only table of full
column rank over all such matrices (at most 2^16 of them), otherwise the
submatrices are eliminated. The path never changes which draws pass, so
a seed gives the same Theta either way.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

import numpy as np

from .complexes import (
    RelativeComplex,
    as_relative,
    f_h_vectors,
    _bit_positions,
    _is_maximal,
    _popcount,
)
from .linalg import FrozenQuotient, PrimeField, kernel_basis


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


# Entries held by each of monomial_basis and _mult_pattern, keyed by (Psi,
# degree). The benchmark's cm-corpus run (reisner_report on 200 complexes)
# leaves 354 and 147, so a bound above that evicts nothing a run reads again,
# and a long-lived process no longer grows with every complex it has seen.
_CACHE_ENTRIES = 512


@lru_cache(maxsize=_CACHE_ENTRIES)
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


def support_monomial_count(j: int, m: int) -> int:
    """Number of degree-j monomials whose support is a fixed face of m vertices.

    A positive exponent on each of the m vertices summing to j: C(j-1, m-1)
    compositions for m >= 1, and the constant monomial alone for m = 0.
    """
    if m == 0:
        return 1 if j == 0 else 0
    return math.comb(j - 1, m - 1) if j >= 1 else 0


class LinearFormSequence:
    """Theta = (theta_1, ..., theta_m): degree-1 forms with one coefficient per vertex."""

    __slots__ = ("forms", "seed", "p")

    def __init__(self, forms, p: int, seed=None):
        self.forms = tuple(tuple(int(c) % p for c in row) for row in forms)
        self.seed = seed
        self.p = p

    @classmethod
    def random(cls, psi, count: int, seed, field: PrimeField) -> "LinearFormSequence":
        """Uniform coefficients: random.Random(seed).randrange(p), form by form."""
        psi = as_relative(psi)
        n = len(psi.delta.labels)
        forms = _uniform(random.Random(seed), field.p, count * n).reshape(count, n)
        return cls(forms.tolist(), field.p, seed=seed)

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


@lru_cache(maxsize=_CACHE_ENTRIES)
def _mult_pattern(psi: RelativeComplex, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero pattern of multiplication by a linear form, k[Psi]_j -> k[Psi]_{j+1}.

    (rows, cols, verts): x^alpha of column cols[k] times x_v for v =
    verts[k] is the monomial of row rows[k], one entry for each pair
    (alpha, v) whose support stays a face. A form with coefficients c
    has c[verts[k]] at (rows[k], cols[k]); distinct v give distinct
    monomials, so the positions are distinct. The pattern depends on
    neither the field nor the form, so it is built once per (Psi, j) and
    shared, as read-only int32/int16 arrays.
    """
    src = monomial_basis(psi, j)
    dst = monomial_basis(psi, j + 1)
    delta_faces = psi.delta.faces
    rows: list[int] = []
    cols: list[int] = []
    verts: list[int] = []
    for col, alpha in enumerate(src):
        # support of alpha | v must stay a face of Delta; leaving Gamma is automatic
        supp = 0
        for v, e in enumerate(alpha):
            if e:
                supp |= 1 << v
        for v in range(len(alpha)):
            if (supp | (1 << v)) in delta_faces:
                rows.append(dst.index[alpha[:v] + (alpha[v] + 1,) + alpha[v + 1:]])
                cols.append(col)
                verts.append(v)
    out = (np.array(rows, dtype=np.int32), np.array(cols, dtype=np.int32),
           np.array(verts, dtype=np.int16))
    for a in out:
        a.flags.writeable = False
    return out


def _mult_matrix(psi: RelativeComplex, coeffs: tuple[int, ...], j: int, p: int) -> np.ndarray:
    """Multiplication by the form ``coeffs`` from k[Psi]_j to k[Psi]_{j+1}, a fresh array."""
    rows, cols, verts = _mult_pattern(psi, j)
    mat = np.zeros((len(monomial_basis(psi, j + 1)), len(monomial_basis(psi, j))),
                   dtype=np.int64)
    mat[rows, cols] = np.array([c % p for c in coeffs], dtype=np.int64)[verts]
    return mat


def multiplication_matrix(psi, form, j: int, field: PrimeField) -> np.ndarray:
    """Matrix of multiplication by a degree-1 form from k[Psi]_j to k[Psi]_{j+1}."""
    psi = as_relative(psi)
    coeffs = tuple(int(c) % field.p for c in form)
    if len(coeffs) != len(psi.delta.labels):
        raise FaceRingError("form needs one coefficient per ground-set vertex")
    return _mult_matrix(psi, coeffs, j, field.p)


def _generator_max_degree(faces) -> int:
    """Max cardinality of a face none of whose facets is in ``faces`` (generator degrees)."""
    return max((_popcount(f) for f in faces
                if not any(f ^ (1 << i) in faces for i in _bit_positions(f))), default=0)


def _staged_quotients(theta: LinearFormSequence, p: int, width, mult, cap: int,
                     gen_max: int, last: int | None) -> tuple[dict, int | None]:
    """The staged build of ``GradedQuotientPresentation`` on any graded module.

    ``width(j)`` is the size of the module's degree-j monomial basis and
    ``mult(form, t)`` the dense matrix of a form from degree t to t + 1.
    The build stops at the first degree j >= gen_max (the top generator
    degree) whose quotient is 0, at degree last + 1 without eliminating it,
    or past cap. Returns ({j: quotient} over the degrees eliminated, the
    degree where the module vanishes, or None if it did not inside cap).
    """
    quotients: dict[int, FrozenQuotient] = {}
    # below[i]: the free monomials of the module mod (theta_1..theta_i) one degree down;
    # degree -1 has none
    below = [np.zeros(0, dtype=np.intp)] * len(theta)
    for j in range(cap + 1):
        if last is not None and j > last:
            return quotients, j
        q = FrozenQuotient(np.zeros((0, width(j)), dtype=np.int64), p)
        free = [q.free]
        for form, cols in zip(theta, below):
            if cols.size and q.dim:
                q.extend(mult(form, j - 1)[:, cols].T)
            free.append(q.free)
        below = free
        quotients[j] = q
        if q.dim == 0 and j >= gen_max:
            return quotients, j
    return quotients, None


class GradedQuotientPresentation:
    """A = k[Psi]/<Theta> degree by degree, in frozen quotient coordinates.

    For each degree j the relation space is sum_t theta_t * k[Psi]_{j-1};
    a ``FrozenQuotient`` of k[Psi]_j by its span (relations as rows) takes
    the non-pivot monomials of the RREF as the basis of A_j. Past the
    vanishing degree A_j = 0; other degrees outside the computed range
    raise FaceRingError.

    The relations are added in stages, one form at a time. Let Q_i =
    k[Psi]/(theta_1..theta_i) and R_{i,j} its free monomials in degree j.
    Then

        (theta_1..theta_i)_j = (theta_1..theta_{i-1})_j + theta_i * R_{i-1,j-1},

    because k[Psi]_{j-1} = span(R_{i-1,j-1}) + (theta_1..theta_{i-1})_{j-1}
    and theta_i times the second summand lies in (theta_1..theta_{i-1})_j.
    This holds for any Theta and any relative Psi. So stage i of degree j
    extends the quotient only by the columns R_{i-1,j-1} of the
    multiplication matrix of theta_i, and the free monomials of every
    stage one degree down are all the state kept between degrees. The
    last stage spans the whole relation space, and the RREF of a space is
    unique: pivots, free monomials and coset coordinates are those of one
    elimination of all n * dim k[Psi]_{j-1} relation rows, while on a CM
    complex every row the stages eliminate is a pivot.

    When Theta passes ``lsop_certificate``, A_j = 0 for every j > d =
    dim Psi + 1, so the build stops at degree d + 1 without eliminating
    it (Kind-Kleinschmidt; Stanley, Combinatorics and Commutative
    Algebra, 2nd ed.). Proof, for relative Psi and any number of forms:
    take a monomial m whose support F (a face of Psi) has deg m > |F|, and
    a vertex v whose exponent in m is at least 2. The columns of Theta at
    F are independent, so x_v = sum_i c_i theta_i + l with l a linear
    form supported off F. Then m = (m/x_v) sum_i c_i theta_i + (m/x_v) l,
    and each monomial of (m/x_v) l is 0 in k[Psi] or has a strictly
    larger support, still a face of Psi. By induction on the support,
    m lies in <Theta> plus the span of the squarefree face monomials,
    whose degrees are at most d. ``is_lsop`` keeps the full elimination,
    so finiteness there is decided by the quotient alone.
    """

    def __init__(self, psi, theta: LinearFormSequence, field: PrimeField,
                 cap: int | None = None, *, _stop_when_certified: bool = True):
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
        p = field.p
        # A_j = 0 for j > last by the lemma in the class docstring
        last = None
        if _stop_when_certified and len(theta) and lsop_certificate(psi, theta, field):
            last = expected_lsop_length(psi)
        self._quotients, self.vanishing_degree = _staged_quotients(
            theta, p, lambda j: len(monomial_basis(psi, j)),
            lambda form, t: _mult_matrix(psi, form, t, p),
            cap, _generator_max_degree(psi.faces()), last)
        self.dims = {j: q.dim for j, q in self._quotients.items()}
        # a quotient that never vanished inside the cap is (or looks) infinite
        self.finite_at_cap = self.vanishing_degree is not None
        if self.finite_at_cap:
            self.dims[self.vanishing_degree] = 0

    def _at(self, j: int) -> FrozenQuotient | None:
        """The quotient at degree j; None from the vanishing degree on where none is built."""
        q = self._quotients.get(j)
        if q is None and (self.vanishing_degree is None or j < self.vanishing_degree):
            raise FaceRingError(f"degree {j} beyond computed cap {self.cap}")
        return q

    def dim(self, j: int) -> int:
        if j < 0:
            return 0
        q = self._at(j)
        return q.dim if q is not None else 0

    def dims_list(self, up_to: int | None = None) -> list[int]:
        if up_to is None:
            up_to = max(self.dims)
        return [self.dim(j) for j in range(up_to + 1)]

    def top_degree(self) -> int:
        nz = [j for j, v in self.dims.items() if v > 0]
        return max(nz) if nz else -1

    def reduce(self, j: int, vectors: np.ndarray) -> np.ndarray:
        """Map columns in k[Psi]_j coordinates to quotient coordinates of A_j."""
        q = self._at(j)
        if q is None:
            return np.zeros((0, vectors.shape[1]), dtype=np.int64)
        return q.reduce(vectors)

    def coordinates(self, j: int) -> np.ndarray:
        """The A_j coordinates of every monomial of k[Psi]_j, one column each."""
        q = self._at(j)
        if q is None:
            return np.zeros((0, len(monomial_basis(self.psi, j))), dtype=np.int64)
        return q.coordinates()

    def lift(self, j: int) -> np.ndarray:
        """Embed A_j coordinates into k[Psi]_j via the representative monomials."""
        q = self._at(j)
        if q is None:
            return np.zeros((len(monomial_basis(self.psi, j)), 0), dtype=np.int64)
        return q.lift()

    def quotient_mult_matrix(self, form, j: int) -> np.ndarray:
        """Multiplication by a degree-1 form as a map A_j -> A_{j+1}."""
        p = self.field.p
        coeffs = tuple(int(c) % p for c in form)
        if self.dim(j) == 0 or self.dim(j + 1) == 0:
            return np.zeros((self.dim(j + 1), self.dim(j)), dtype=np.int64)
        raw = _mult_matrix(self.psi, coeffs, j, p)
        return self.reduce(j + 1, raw[:, self._quotients[j].free])

    def restriction_kernel(self, j: int, subcomplexes) -> np.ndarray:
        """A basis of ker(A_j -> sum_K A(K)_j) as columns in A_j coordinates.

        Each K of ``subcomplexes`` is a subcomplex of Delta given by its set
        of faces, and A(K) = k[K]/<Theta>. Restriction k[Delta] -> k[K] is a
        surjective ring map that kills exactly the monomials whose support
        is not a face of K, so <Theta> k[K] is the image of <Theta> and

            A(K) = A / N_K,   N_K = span of those monomials in A.

        No quotient of K is built: the A_j coordinates of the monomials
        outside K span N_K, one ``FrozenQuotient`` by them is the map
        A_j -> A(K)_j, and the kernel of the stacked maps is returned (all
        of A_j when there is no K). Each A(K) is a quotient of A, so it is
        finite when A is. A relative Psi is refused: its stars are not
        quotients of A.
        """
        if not self.psi.is_absolute:
            raise FaceRingError("restriction kernels are defined for absolute complexes")
        dim = self.dim(j)
        if dim == 0:
            return np.zeros((0, 0), dtype=np.int64)
        coords = self.coordinates(j)
        basis = monomial_basis(self.psi, j)
        # uint64 holds the support of every vertex index up to MAX_VERTICES = 64
        bits = np.left_shift(np.uint64(1), np.arange(basis.n, dtype=np.uint64))
        supports, where = np.unique((np.array(basis.exponents) > 0) @ bits, return_inverse=True)
        p = self.field.p
        maps = [np.zeros((0, dim), dtype=np.int64)]
        for faces in subcomplexes:
            outside = np.array([int(s) not in faces for s in supports])[where]
            maps.append(FrozenQuotient(coords[:, outside].T, p).coordinates())
        return kernel_basis(np.vstack(maps), p)


def quotient_presentation(psi, theta: LinearFormSequence, field: PrimeField,
                          cap: int | None = None) -> GradedQuotientPresentation:
    return GradedQuotientPresentation(psi, theta, field, cap=cap)


def hilbert_certificate(psi, theta: LinearFormSequence, field: PrimeField) -> bool:
    """Stanley's CM criterion for a certified l.s.o.p. Theta of a non-void Psi.

    k[Psi] is Cohen-Macaulay iff dim_k (k[Psi]/Theta)_j = h_j for every j.
    True iff the quotient vanishes inside its cap and its Hilbert function
    equals the h-vector, both zero-padded to a common length. Any
    certified Theta decides, so one quotient replaces a Koszul depth scan.
    """
    pres = quotient_presentation(psi, theta, field)
    if pres.vanishing_degree is None:
        return False
    dims = pres.dims_list()
    h = list(f_h_vectors(psi).h)
    width = max(len(dims), len(h))
    return dims + [0] * (width - len(dims)) == h + [0] * (width - len(h))


def expected_lsop_length(psi) -> int:
    """Max cardinality of a face of Delta outside Gamma."""
    psi = as_relative(psi)
    d = psi.dim
    return 0 if d is None else d + 1


# Largest number of coefficients sample_lsop draws and certifies at once.
_BLOCK_COEFFS = 1 << 15


def _uniform(rng: random.Random, p: int, count: int) -> np.ndarray:
    """The next count values of rng.randrange(p), drawn in bulk, as int64.

    The stream is exact because PrimeField caps p at 2^31 - 1: CPython's
    randrange(p) calls getrandbits(k) with k = p.bit_length() <= 31, which
    is one 32-bit Mersenne Twister word shifted right by 32 - k, and tries
    again while the value is >= p. getrandbits(32 * m) returns the next m
    words with the first one least significant, so its little-endian bytes
    are the words in draw order. Each round takes one word per value still
    missing, a number of tries every run of randrange needs, so the
    generator ends in the state that count randrange(p) calls leave.
    """
    shift = 32 - p.bit_length()
    out = np.empty(count, dtype=np.int64)
    got = 0
    while got < count:
        m = count - got
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4")
        kept = words >> shift
        kept = kept[kept < p]
        out[got:got + kept.size] = kept
        got += kept.size
    return out


@lru_cache(maxsize=16)
def _maximal_columns(psi: RelativeComplex) -> tuple[np.ndarray, ...]:
    """Vertex positions of the nonempty maximal faces of Psi, grouped by size.

    One read-only (faces, size) index array per face size, sizes ascending.
    A face is maximal when none of its one-vertex extensions is a face of
    Psi (``complexes._is_maximal``), an O(F n) scan run once per complex,
    not once per block of Theta draws of sample_lsop.
    """
    faces = psi.faces()
    free = (1 << len(psi.delta.labels)) - 1
    maximal = [f for f in faces if _is_maximal(f, faces, free)]
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for cols in map(_bit_positions, maximal):
        if cols:
            by_size.setdefault(len(cols), []).append(cols)
    groups = tuple(np.array(by_size[size], dtype=np.intp) for size in sorted(by_size))
    for g in groups:
        g.flags.writeable = False
    return groups


def _full_column_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """Mask over a (count, rows, cols) stack with entries in [0, p): full column rank mod p.

    Fraction-free elimination: column c takes the first row at or below c
    with a nonzero entry as its pivot row, and each row r below becomes
    pivot * r - r[c] * pivot_row, reduced mod p. No inverse is needed, and
    with p < 2^31 every product stays below 2^62. Overwrites mats.
    """
    count, _, cols = mats.shape
    every = np.arange(count)
    full = np.ones(count, dtype=bool)
    for c in range(cols):
        nonzero = mats[:, c:, c] != 0
        full &= nonzero.any(axis=1)
        pivot = c + nonzero.argmax(axis=1)
        top = mats[every, c].copy()
        mats[every, c] = mats[every, pivot]
        mats[every, pivot] = top
        below = mats[:, c + 1:, c + 1:]
        below[...] = (mats[:, c:c + 1, c:c + 1] * below
                      - mats[:, c + 1:, c:c + 1] * mats[:, c:c + 1, c + 1:]) % p
    return full


# Maximal faces _certified checks at once before it drops the failed draws.
_FACE_CHUNK = 8
# Largest number of matrices _rank_table tabulates.
_TABLE_CELLS = 1 << 16


@lru_cache(maxsize=16)
def _rank_table(p: int, length: int, size: int) -> np.ndarray:
    """Read-only mask over all p^(length * size) length x size matrices mod p: full column rank.

    Entry i is the matrix whose entry (r, m) is base-p digit r + length * m
    of i: column m has the code sum_r a[r, m] * p^r, and i is the sum of
    code_m * (p^length)^m. The table grows one column at a time: a matrix
    has full column rank iff its first columns do and its last column lies
    outside their span, so each new column repeats the table once per code
    and every prefix strikes out the codes of its p^m span vectors. No
    matrix is eliminated, and no array held has more than
    length * p^(length * size) entries.
    """
    rows = p ** np.arange(length, dtype=np.int64)
    table = np.ones(1, dtype=bool)  # the one length x 0 matrix
    for m in range(size):
        prefixes = np.arange(table.size, dtype=np.int64)
        columns = (prefixes[:, None] // p ** np.arange(length * m, dtype=np.int64) % p
                   ).reshape(table.size, m, length)
        coeffs = np.arange(p ** m, dtype=np.int64)[:, None] // p ** np.arange(m, dtype=np.int64) % p
        span = (coeffs @ columns % p) @ rows  # (prefixes, p^m) codes
        grown = np.broadcast_to(table, (p ** length, table.size)).copy()
        grown[span, prefixes[:, None]] = False
        table = grown.reshape(-1)
    table.flags.writeable = False
    return table


def _certified(block: np.ndarray, psi: RelativeComplex, p: int) -> np.ndarray:
    """Mask over a (draws, length, n) block of coefficients in [0, p): the l.s.o.p. draws.

    V(Theta) meets the coordinate subspace of a maximal support face sigma
    only at 0 iff the coefficient submatrix on sigma's columns has rank
    |sigma|; the quotient M/<Theta>M is finite iff this holds for all
    maximal faces of Psi, so no draw passes when a face has more than
    length vertices. The faces are taken _FACE_CHUNK at a time, size group
    by size group; the draws a chunk fails are dropped, and the scan stops
    when none are left. Over small fields most draws fail on the first
    faces. A chunk is checked in one of two ways, with the same answer:

    - table: when p^(length * size) <= _TABLE_CELLS for the largest face
      size (F_2 and F_3 on small complexes), each vertex column of each
      draw becomes one integer code, each face the index of its length x
      size submatrix, and the answer is read from _rank_table;
    - elimination: otherwise (the large default prime, longer forms), the
      chunk is gathered into one (live draws * faces, length, size) stack
      and eliminated at once by _full_column_rank.
    """
    draws, length, _ = block.shape
    groups = _maximal_columns(psi)
    if groups and groups[-1].shape[1] > length:
        return np.zeros(draws, dtype=bool)
    table = bool(groups) and p ** (length * groups[-1].shape[1]) <= _TABLE_CELLS
    # the table path keeps one (draws, n) code per column, the other the block itself
    data = p ** np.arange(length, dtype=np.int64) @ block if table else block
    live = np.arange(draws)
    for cols in groups:
        faces, size = cols.shape
        if table:
            ranks = _rank_table(p, length, size)
            weights = (p ** length) ** np.arange(size, dtype=np.int64)
        for start in range(0, faces, _FACE_CHUNK):
            chunk = cols[start:start + _FACE_CHUNK]
            if table:
                keep = ranks[data[:, chunk] @ weights].all(axis=1)
            else:
                k = len(chunk)
                stack = data[:, :, chunk].transpose(0, 2, 1, 3).reshape(live.size * k, length, size)
                keep = _full_column_rank(stack, p).reshape(live.size, k).all(axis=1)
            if not keep.all():
                live, data = live[keep], data[keep]
                if not live.size:
                    return np.zeros(draws, dtype=bool)
    ok = np.zeros(draws, dtype=bool)
    ok[live] = True
    return ok


def lsop_certificate(psi, forms, field: PrimeField) -> bool:
    """Exact finiteness test: Theta restricted to every maximal face has full rank.

    The one-draw call of _certified, the test sample_lsop applies to each
    block of draws from the seeded randrange stream, so forms pass here
    exactly when sample_lsop accepts them as a draw, in whichever block
    they come. Entries are read mod p. Over small fields the answer is
    read from _rank_table (built on first use), otherwise eliminated; both
    paths give the same answer.
    """
    psi = as_relative(psi)
    nverts = len(psi.delta.labels)
    block = np.array([list(f) for f in forms], dtype=np.int64).reshape(1, len(forms), nverts)
    return bool(_certified(block % field.p, psi, field.p)[0])


def sample_lsop(psi, length: int, seed, field: PrimeField,
                budget: int = 20000) -> LinearFormSequence | None:
    """First certified l.s.o.p. from the seeded stream; None if the budget runs out.

    Draw t is the next length * n values of random.Random(seed).randrange(p),
    form by form, exactly as a loop of randrange calls would take them;
    _uniform reads the same values in bulk. Draws are certified in blocks
    of 1, 4, 16, ... draws, capped at _BLOCK_COEFFS coefficients and at the
    draws left in the budget. Blocks are consecutive slices of one stream
    and each returns its first certified draw, so the block size never
    changes which Theta is returned, and None comes after exactly budget
    draws. Whether _certified reads a block's verdicts from _rank_table or
    eliminates them, it returns the same mask, so neither the stream, nor
    the block schedule, nor the Theta returned depends on the path.

    Over the default large prime the first draw passes essentially always;
    over tiny fields the good locus can be a sub-percent fraction of all
    coefficient matrices (rp2_6 over F_2: 840 of 2^18), so rejection is
    what makes small-characteristic verdicts reproducible.
    """
    psi = as_relative(psi)
    n = len(psi.delta.labels)
    length = max(length, 0)
    rng = random.Random(seed)
    per_draw = length * n
    cap = max(1, _BLOCK_COEFFS // max(per_draw, 1))
    size = 1
    done = 0
    while done < budget:
        draws = min(size, cap, budget - done)
        block = _uniform(rng, field.p, draws * per_draw).reshape(draws, length, n)
        hits = np.flatnonzero(_certified(block, psi, field.p))
        if hits.size:
            return LinearFormSequence(block[hits[0]].tolist(), field.p, seed=seed)
        done += draws
        size *= 4
    return None


def _no_lsop(psi: RelativeComplex, length: int, p: int, budget: int) -> bool:
    """True when no length x n coefficient matrix mod p is certified, found by trying all.

    Tries them only when there are at most budget of them, the draws one
    trial of sample_lsop may take; otherwise returns False.
    """
    n = len(psi.delta.labels)
    count = p ** (length * n)
    if count > budget:
        return False
    # matrix k has the base-p digits of k as its entries, row by row
    digits = np.arange(count)[:, None] // p ** np.arange(length * n) % p
    return not _certified(digits.reshape(count, length, n), psi, p).any()


def lsop_trials(psi, seed, field: PrimeField, trials: int = 3, budget: int = 20000):
    """The seeded trial stream: (seed_k, Theta or None) for k < trials.

    Trial k runs sample_lsop for an l.s.o.p. of the expected length with
    seed_k = seed + k for an int seed and f"{seed}:{k}" otherwise; Theta
    is None when the trial's budget runs out. Every retry over parameter
    systems draws from this stream, so a seed means the same Theta
    everywhere. Trials are sampled only as the stream is consumed.

    When a trial runs out and the whole coefficient space is no larger
    than the budget, the space is certified once (``_no_lsop``). If no
    matrix in it passes, every later trial's stream would run out too, so
    those trials yield None without drawing.
    """
    psi = as_relative(psi)
    length = expected_lsop_length(psi)
    none_exists = None
    for k in range(trials):
        s = seed + k if isinstance(seed, int) else f"{seed}:{k}"
        theta = None if none_exists else sample_lsop(psi, length, s, field, budget=budget)
        yield s, theta
        if theta is None and none_exists is None:
            none_exists = _no_lsop(psi, length, field.p, budget)


def trials_until_certified(psi, seed, field: PrimeField, trials: int = 3,
                           budget: int = 20000) -> tuple:
    """(seeds consumed, Theta or None): lsop_trials up to its first certified Theta."""
    seeds = []
    for s, theta in lsop_trials(psi, seed, field, trials, budget):
        seeds.append(s)
        if theta is not None:
            return seeds, theta
    return seeds, None


def first_lsop(psi, seed, field: PrimeField, trials: int = 3,
               budget: int = 20000) -> tuple:
    """The first certified trial of lsop_trials as (seed_k, Theta); (None, None) if none."""
    seeds, theta = trials_until_certified(psi, seed, field, trials, budget)
    return (seeds[-1], theta) if theta is not None else (None, None)


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
    pres = GradedQuotientPresentation(psi, theta, field, _stop_when_certified=False)
    finite = pres.vanishing_degree is not None
    return {
        "is_lsop": len(theta) == expected and finite,
        "expected_length": expected,
        "length": len(theta),
        "vanishing_degree": pres.vanishing_degree,
        "dims": pres.dims_list(),
    }

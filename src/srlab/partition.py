"""Star-cover complexes of relative simplicial complexes.

The partition complex of Psi keeps k[Psi] in position -1 and, in position
i >= 0, the direct sum of star modules k[st_tau Psi] over faces tau of
Delta with |tau| = i + 1. The differential restricts each star to the
stars of its one-larger cofaces with Cech signs from the global vertex
order; homology concentrates in coarse degree 0 where it computes the
relative cohomology of Psi. A linear system acts summandwise, giving the
reduced complex behind the partition-of-unity dimension identity, and
tensoring with the Koszul complex gives double complexes totalized slice
by slice.

The complex is finely graded, and its homology is read monomial by
monomial. A restriction sends a monomial to itself or to 0, so in degree
j the complex is the direct sum, over the degree-j monomials, of the
complexes they span. The piece of a monomial with support sigma has one
basis vector per summand whose module contains sigma, and between two of
them the sign of the summand pair: it is a small Cech complex C_sigma
that depends on sigma alone. So H^i_j is the sum over faces sigma of
h^i(C_sigma) times the number of degree-j monomials with support sigma,
an exact block diagonalisation of the degree-j differential.

The double complex needs the maps themselves, as its Koszul maps do not
respect supports. Every summand module lies on Delta's ground set with
faces of Delta, so its degree-j monomial basis is a subsequence of that
of k[Delta] (Stanley, Combinatorics and Commutative Algebra, Ch. II): the
spec holds it as a sorted index array into ``monomial_basis(Delta, j)``.
A restriction intersects two such selections, and a position's Koszul
pattern is Delta's multiplication pattern filtered to its selections, so
no summand's own basis or pattern is ever built.

A star is a face selection too. A spec takes its stars in one complex,
its base: sigma lies in st_tau base iff sigma + tau is a face of base,
so one pass over Delta's faces finds each star as sorted indices into
Delta's faces, and the same selections give each support piece its
summands. The partition complex of Psi takes the stars of all faces of
Delta in Psi itself; the interior complex of a disk takes the stars of
its strongly interior faces (every vertex off the boundary) in Delta,
with the absolute face ring up front. No star is built as a complex: the
reduced complex takes each summand's quotient on its selections, for
absolute and relative base alike, and checks Theta once, on the base (a
face sigma of st_tau base lies in the face sigma + tau of base).

The interior and subdivision checks need only the kernel of A =
k[Delta]/<Theta> into the quotients of the interior vertex stars, resp.
the top cells of a cell structure; it is read off A alone
(``GradedQuotientPresentation.restriction_kernel``).
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import NamedTuple

import numpy as np

from .complexes import (
    ComplexError,
    RelativeComplex,
    SimplicialComplex,
    as_relative,
    relative_cohomology_dims,
    _bit_positions,
    _cochain_faces,
    _insertion_sign,
    _popcount,
)
from .facering import (
    FaceRingError,
    LinearFormSequence,
    _generator_max_degree,
    _mult_pattern,
    _staged_quotients,
    lsop_certificate,
    monomial_basis,
    quotient_presentation,
    support_monomial_count,
)
from .koszul import koszul_step
from .linalg import LazyHomology, PrimeField, SparseMatrix


class PartitionError(ValueError):
    pass


def _runs(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The ranges [starts[k], starts[k] + lens[k]) concatenated in order."""
    return np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())


def _locate(table: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Insertion positions of ``keys`` in the sorted array ``table``, and which keys it holds."""
    pos = np.searchsorted(table, keys)
    if not table.size:
        return pos, np.zeros(keys.shape, dtype=bool)
    return pos, table[np.minimum(pos, table.size - 1)] == keys


class _PositionBasis(NamedTuple):
    """One position's degree-j basis as selections of Delta's degree-j basis."""

    flat: np.ndarray  # the summands' selections, concatenated
    sels: list  # each summand's selection, a view of flat
    offsets: tuple  # each summand's offset in the direct sum, then the sum's dimension
    width: int  # len(monomial_basis(Delta, j)), above every selected index

    def owners(self) -> np.ndarray:
        """The summand of every entry of flat."""
        return np.repeat(np.arange(len(self.sels)), np.diff(self.offsets))

    def keys(self) -> np.ndarray:
        """summand * width + monomial for every entry of flat: sorted, as each selection is."""
        return self.owners() * self.width + self.flat


def restriction_matrix(src, dst, j: int) -> np.ndarray:
    """Restriction k[src]_j -> k[dst]_j as a dense 0/1 matrix, built on every call."""
    src, dst = as_relative(src), as_relative(dst)
    index = monomial_basis(src, j).index
    basis = monomial_basis(dst, j)
    mat = np.zeros((len(basis), len(index)), dtype=np.int64)
    for r, alpha in enumerate(basis):
        if alpha in index:
            mat[r, index[alpha]] = 1
    return mat


class PartitionComplexSpec:
    """Columns of a star-cover complex, one summand per chosen face.

    positions maps the cohomological index i to the ordered list of its
    summands' descriptors, face masks of Delta; the summand of tau is
    k[st_tau base], its star in the complex ``base``. The constructor
    holds every summand by its faces, a selection of Delta's found by one
    pass over Delta's faces per descriptor.

    Every summand module lives on Delta's ground set and its faces are
    faces of Delta, so its degree-j monomial basis is a subsequence of
    Delta's (both list faces by size, then mask, then compositions in lex
    order). The spec holds it as a selection: the sorted positions of the
    summand's monomials in ``monomial_basis(Delta, j)``, built for all
    summands of a position at once from the face runs of Delta's basis,
    with each summand's offset in the direct sum (``_basis``). Keyed by
    summand * len(monomial_basis(Delta, j)) + monomial, a position's
    selections form one sorted array, so one ``searchsorted`` finds every
    restriction of position i into position i + 1 at once, over all signed
    summand pairs (``_restrictions``), and the multiplication pattern of a
    position's direct sum is Delta's ``_mult_pattern`` filtered to the
    selections the same way (``mult_pattern``). No summand's own basis or
    pattern is built, and no map is built pair by pair.

    ``differential(i, j)`` is the map of position i into position i + 1 in
    degree j on monomial bases, built once per (i, j, p) and kept with the
    spec: each slice of a total complex tiles the same maps. Selections,
    patterns and the signed summand pairs of each position are kept too.
    ``homology_dims`` never builds it: it ranks the support piece C_sigma
    of every face sigma of the summand modules (see the module
    docstring), whose map of position i has the Cech sign of every pair
    tau, tau + v of descriptors whose modules both contain sigma, the
    entry the monomials of support sigma get in the degree-j
    differential. The summands holding each sigma are read off the same
    face selections (``_supports``), and faces whose descriptor lists
    agree share one piece.
    """

    __slots__ = ("psi", "positions", "base", "_ambient", "_masks", "_sizes", "_faces",
                 "_sels", "_links", "_patterns", "_maps")

    def __init__(self, psi: RelativeComplex, positions: dict, base: RelativeComplex):
        self.psi = psi
        self.positions = positions
        self.base = base
        self._ambient = RelativeComplex(psi.delta)
        # Delta's faces in the order its monomial bases list them: by size, then mask
        by_size = _cochain_faces(self._ambient)
        self._masks = [f for faces in by_size for f in faces]
        self._sizes = [m for m, faces in enumerate(by_size) for _ in faces]
        # position -> each summand's faces as sorted indices into _masks
        in_base = base.faces()
        self._faces = {i: [[k for k, f in enumerate(self._masks) if f | tau in in_base]
                           for tau in descs]
                       for i, descs in positions.items()}
        # (position, degree) -> one selection per summand
        self._sels: dict[tuple[int, int], _PositionBasis] = {}
        # position -> [(s, d, sign)] over the summand pairs with a nonzero sign
        self._links: dict[int, list[tuple[int, int, int]]] = {}
        self._patterns: dict[tuple[int, int], tuple] = {}
        self._maps: dict[tuple[int, int, int], SparseMatrix] = {}

    @classmethod
    def full(cls, psi) -> "PartitionComplexSpec":
        """Stars in Psi of every face of Delta."""
        psi = as_relative(psi)
        positions: dict[int, list] = {}
        for tau in sorted(psi.delta.faces):
            positions.setdefault(_popcount(tau) - 1, []).append(tau)
        return cls(psi, positions, psi)

    @classmethod
    def interior(cls, disk) -> "PartitionComplexSpec":
        """Stars in Delta of the strongly interior faces of a disk pair (Delta, boundary)."""
        disk = as_relative(disk)
        delta = disk.delta
        interior = 0
        for v in delta.vertex_masks():
            if v not in disk.gamma.faces:
                interior |= v
        positions: dict[int, list] = {-1: [0]}
        for tau in sorted(delta.faces):
            if tau and tau & interior == tau:
                positions.setdefault(_popcount(tau) - 1, []).append(tau)
        return cls(disk, positions, RelativeComplex(delta))

    @property
    def max_position(self) -> int:
        return max(self.positions, default=-1)

    def _star_faces(self, i: int) -> list[frozenset[int]]:
        """The faces of every summand at position i, as a set of face masks each."""
        return [frozenset(self._masks[k] for k in star) for star in self._faces.get(i, [])]

    def _basis(self, i: int, j: int) -> _PositionBasis:
        """Position i's degree-j basis as selections of Delta's basis, built once per (i, j).

        The degree-j monomials of Delta come in one run per face, of
        ``support_monomial_count(j, |face|)`` compositions, so a summand's
        selection is the concatenated runs of its faces. Empty for j < 0.
        """
        got = self._sels.get((i, j))
        if got is None:
            sizes, stars = self._sizes, self._faces.get(i, [])
            counts = [support_monomial_count(j, m) for m in range(max(sizes, default=0) + 1)]
            lens = np.array(counts, dtype=np.int64)[sizes]
            faces = np.array([k for star in stars for k in star], dtype=np.int64)
            owner = np.repeat(np.arange(len(stars)), [len(star) for star in stars])
            flat = _runs((np.cumsum(lens) - lens)[faces], lens[faces])
            flat.setflags(write=False)
            dims = np.bincount(owner, lens[faces], minlength=len(stars))
            offsets = (0, *np.cumsum(dims, dtype=np.int64).tolist())
            sels = [flat[a:b] for a, b in zip(offsets, offsets[1:])]
            got = self._sels[i, j] = _PositionBasis(flat, sels, offsets, int(lens.sum()))
        return got

    def summand_dims(self, i: int, j: int) -> tuple[int, ...]:
        """Degree-j dimension of each summand at position i."""
        offsets = self._basis(i, j).offsets
        return tuple(b - a for a, b in zip(offsets, offsets[1:]))

    def space_dim(self, i: int, j: int) -> int:
        return self._basis(i, j).offsets[-1]

    def mult_pattern(self, i: int, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Multiplication pattern of the direct sum at position i, degree t to t + 1.

        The concatenated ``facering._mult_pattern`` of the summands, each
        shifted by its offset in the sum, read off Delta's pattern: an
        entry x^alpha -> x^alpha x_v belongs to a summand when both
        monomials lie in its selections. Delta's pattern is column-major
        with v ascending, as each summand's is, so the filtered entries keep
        the order of the summands' own patterns. Built once per (i, t).
        """
        pat = self._patterns.get((i, t))
        if pat is None:
            rows, cols, verts = _mult_pattern(self._ambient, t)
            src, dst = self._basis(i, t), self._basis(i, t + 1)
            colptr = np.searchsorted(cols, np.arange(len(monomial_basis(self._ambient, t)) + 1))
            counts = colptr[src.flat + 1] - colptr[src.flat]
            entries = _runs(colptr[src.flat], counts)
            col = np.repeat(np.arange(src.flat.size), counts)
            row, hit = _locate(dst.keys(), src.owners()[col] * dst.width + rows[entries])
            pat = self._patterns[i, t] = (row[hit], col[hit], verts[entries[hit]])
            for x in pat:
                x.setflags(write=False)
        return pat

    def _signed_pairs(self, i: int) -> list[tuple[int, int, int]]:
        """(s, d, sign) for the summand pairs of positions i, i + 1, sorted by s, then d.

        The summand of tau is paired with that of each face tau + v one
        vertex larger, with the Cech sign of v in tau + v.
        """
        links = self._links.get(i)
        if links is None:
            src, dst = self.positions.get(i, []), self.positions.get(i + 1, [])
            where = {desc: s for s, desc in enumerate(src)}
            links = self._links[i] = sorted(
                (where[ddesc ^ (1 << b)], d, _insertion_sign(ddesc, b))
                for d, ddesc in enumerate(dst) for b in _bit_positions(ddesc)
                if ddesc ^ (1 << b) in where)
        return links

    def _restrictions(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Every restriction of position i into position i + 1 in degree j, from one search.

        Returns (rows, cols, stops). The entries of the k-th pair of
        ``_signed_pairs(i)`` are [stops[k], stops[k + 1]) of rows and cols,
        in the coordinates of the two direct sums: that pair's restriction
        sends the monomial at column cols[e] to the one at row rows[e] and
        every other monomial to 0, as it need not be onto. Rows ascend
        within a pair.

        A monomial of the target summand d is hit by the source summand s
        when s's selection holds it, so every pair's targets, keyed by
        s * width + monomial, are located at once among position i's keys:
        the key found is the column itself.
        """
        src, dst = self._basis(i, j), self._basis(i + 1, j)
        links = self._signed_pairs(i)
        pair_s = np.array([s for s, _, _ in links], dtype=np.int64)
        pair_d = np.array([d for _, d, _ in links], dtype=np.int64)
        offsets = np.array(dst.offsets, dtype=np.int64)
        starts = offsets[pair_d]
        lens = offsets[pair_d + 1] - starts
        rows = _runs(starts, lens)
        cols, hit = _locate(src.keys(), np.repeat(pair_s * src.width, lens) + dst.flat[rows])
        stops = np.concatenate(([0], np.cumsum(hit)))[np.cumsum(np.concatenate(([0], lens)))]
        return rows[hit], cols[hit], stops.tolist()

    def differential(self, i: int, j: int, field: PrimeField) -> SparseMatrix:
        """Matrix of position i into position i + 1 at coarse degree j, built once.

        The stored map is shared by every caller, so its arrays are read-only.
        """
        key = (i, j, field.p)
        m = self._maps.get(key)
        if m is not None:
            return m
        rows, cols, stops = self._restrictions(i, j)
        signs = np.array([sign for _, _, sign in self._signed_pairs(i)], dtype=np.int64)
        m = self._maps[key] = SparseMatrix((self.space_dim(i + 1, j), self.space_dim(i, j)),
                                           rows, cols, np.repeat(signs, np.diff(stops)), field.p)
        for x in (m.rows, m.cols, m.vals):
            x.setflags(write=False)
        return m

    def _supports(self, max_degree: int) -> dict[tuple, dict[int, int]]:
        """{descriptors per position: {|sigma|: count}} over faces |sigma| <= max_degree.

        A key lists, for each position from -1 to the top, the descriptors
        of the summands whose module contains sigma, in summand order. It is
        read off the star table, and faces held by the same summands share
        one key.
        """
        top = self.max_position
        # summands numbered across positions from -1 up
        where = [(i, tau) for i in range(-1, top + 1) for tau in self.positions.get(i, [])]
        holders: dict[int, list[int]] = {}
        for g, star in enumerate(star for i in range(-1, top + 1)
                                 for star in self._faces.get(i, [])):
            for k in star:
                holders.setdefault(k, []).append(g)
        sizes = self._sizes
        groups: dict[tuple, dict[int, int]] = {}
        for k, held in holders.items():
            m = sizes[k]
            if m <= max_degree:
                counts = groups.setdefault(tuple(held), {})
                counts[m] = counts.get(m, 0) + 1
        out: dict[tuple, dict[int, int]] = {}
        for held, counts in groups.items():
            lists: list[list] = [[] for _ in range(top + 2)]
            for g in held:
                i, desc = where[g]
                lists[i + 1].append(desc)
            out[tuple(map(tuple, lists))] = counts
        return out

    def _piece_homology(self, key: tuple, p: int) -> tuple[int, ...]:
        """(h^-1, ..., h^top) of the support piece with descriptors ``key``.

        Its map of position i has the Cech sign from the summand of tau to
        that of each tau + v, found from tau + v's vertices.
        """
        top = len(key) - 2

        def dim(i: int) -> int:
            return len(key[i + 1]) if -1 <= i <= top else 0

        def signs(i: int) -> np.ndarray:
            at = {desc: c for c, desc in enumerate(key[i + 1])}
            rows = [[0] * len(at) for _ in key[i + 2]]
            for row, desc in zip(rows, key[i + 2]):
                for v in _bit_positions(desc):
                    c = at.get(desc ^ (1 << v))
                    if c is not None:
                        row[c] = _insertion_sign(desc, v) % p
            return np.array(rows, dtype=np.int64)

        lazy = LazyHomology(dim, signs, (1,), p)
        return tuple(lazy.homology(i) for i in range(-1, top + 1))

    def homology_dims(self, field: PrimeField, max_degree: int | None = None) -> dict:
        """{(i, j): dim} over i in [-1, max position], j in [0, max_degree].

        H^i_j = sum over faces sigma of h^i(C_sigma) times the number of
        degree-j monomials with support sigma.
        """
        max_degree = _window(self.psi, max_degree)
        table = {(i, j): 0 for i in range(-1, self.max_position + 1)
                 for j in range(max_degree + 1)}
        for key, sizes in self._supports(max_degree).items():
            for i, h in enumerate(self._piece_homology(key, field.p), start=-1):
                if h:
                    for m, count in sizes.items():
                        for j in range(m, max_degree + 1):
                            table[i, j] += h * count * support_monomial_count(j, m)
        return table


def _window(psi, max_degree: int | None) -> int:
    """max_degree, defaulting to dim(Psi) + 2."""
    if max_degree is None:
        d = psi.dim
        max_degree = (d if d is not None else -1) + 2
    return max_degree


def partition_homology_dims(psi, field: PrimeField,
                            max_degree: int | None = None) -> dict:
    """Homology table of the full star-cover complex of Psi."""
    return PartitionComplexSpec.full(psi).homology_dims(field, max_degree)


class ReducedPartitionComplex:
    """The star-cover complex with every summand replaced by its quotient.

    Summand k[st_tau base]/<Theta> is presented in degree j on the spec's
    selection of Delta's monomials, which lists them in the star's own
    basis order. Its relations are its slice of the position's
    ``mult_pattern``, which drops a product leaving the star as k[st_tau base]
    does, eliminated on ``GradedQuotientPresentation``'s staged schedule
    (``facering._staged_quotients``); the RREF is unique, so the free
    monomials are those of the star's own presentation. Theta is checked
    once, on the spec's base: a face sigma of st_tau base lies in the face
    sigma + tau of base, and M/<Theta>M is finite iff Theta has full rank
    on every maximal face of M.

    The Cech differential descends because restriction commutes with
    multiplication by linear forms. A lift is a column selection, so the
    block into target summand d is d's ``reduce`` of its rows of the spec's
    ``differential(i, j)`` at the sources' free columns.
    """

    def __init__(self, pspec: PartitionComplexSpec, theta: LinearFormSequence,
                 field: PrimeField):
        if theta.p != field.p:
            raise FaceRingError("Theta and field use different moduli")
        self.pspec = pspec
        self.theta = theta
        self.field = field
        if not lsop_certificate(pspec.base, theta, field):
            raise PartitionError("Theta is not a parameter system for the summand at 0")
        # position -> one {degree: FrozenQuotient} per summand; a degree left out is 0
        self.quotients = {i: [self._summand_quotients(i, s, faces)
                              for s, faces in enumerate(pspec._star_faces(i))]
                          for i in range(-1, pspec.max_position + 1)}

    def _summand_quotients(self, i: int, s: int, faces: frozenset[int]) -> dict:
        """The degreewise quotients of the s-th summand at position i, whose faces are ``faces``."""
        pspec, p = self.pspec, self.field.p

        def mult(form, t: int) -> np.ndarray:
            rows, cols, verts = pspec.mult_pattern(i, t)
            src, dst = pspec._basis(i, t).offsets, pspec._basis(i, t + 1).offsets
            lo, hi = np.searchsorted(cols, src[s:s + 2])
            mat = np.zeros((dst[s + 1] - dst[s], src[s + 1] - src[s]), dtype=np.int64)
            mat[rows[lo:hi] - dst[s], cols[lo:hi] - src[s]] = (np.array(form) % p)[verts[lo:hi]]
            return mat

        last = max(map(_popcount, faces), default=0)
        quotients, _ = _staged_quotients(self.theta, p, lambda j: pspec.summand_dims(i, j)[s],
                                         mult, last + 1, _generator_max_degree(faces), last)
        return quotients

    def space_dim(self, i: int, j: int) -> int:
        return sum(q[j].dim for q in self.quotients.get(i, []) if j in q)

    def differential(self, i: int, j: int) -> np.ndarray:
        src, dst = self.quotients.get(i, []), self.quotients.get(i + 1, [])
        col_at, row_at = self.pspec._basis(i, j).offsets, self.pspec._basis(i + 1, j).offsets
        free = [col_at[s] + q[j].free for s, q in enumerate(src) if j in q]
        free = np.concatenate(free) if free else np.zeros(0, dtype=np.int64)
        # every source monomial's column in quotient coordinates, -1 off the free ones
        column = np.full(col_at[-1], -1)
        column[free] = np.arange(free.size)
        m = self.pspec.differential(i, j, self.field)
        kept = np.flatnonzero(column[m.cols] >= 0)
        kept = kept[np.argsort(m.rows[kept])]
        rows, cols, vals = m.rows[kept], column[m.cols[kept]], m.vals[kept]
        bounds = np.searchsorted(rows, row_at)
        blocks = [np.zeros((0, free.size), dtype=np.int64)]
        for d, q in enumerate(dst):
            if j in q and q[j].dim:
                a, b = bounds[d], bounds[d + 1]
                moved = np.zeros((row_at[d + 1] - row_at[d], free.size), dtype=np.int64)
                moved[rows[a:b] - row_at[d], cols[a:b]] = vals[a:b]
                blocks.append(q[j].reduce(moved))
        return np.vstack(blocks)

    def homology_dims(self, max_degree: int | None = None) -> dict:
        """{(i, j): dim} over i in [-1, max position], j in [0, max_degree]."""
        h = LazyHomology(self.space_dim, self.differential, (1, 0), self.field.p)
        return {(i, j): h.homology(i, j) for i in range(-1, self.pspec.max_position + 1)
                for j in range(_window(self.pspec.psi, max_degree) + 1)}


def reduced_partition_homology(psi, theta: LinearFormSequence, field: PrimeField,
                               max_degree: int | None = None) -> dict:
    """Homology table of P*/<Theta> for the partition complex of Psi."""
    pspec = PartitionComplexSpec.full(psi)
    return ReducedPartitionComplex(pspec, theta, field).homology_dims(max_degree)


class DoubleComplexSlice:
    """One internal degree of the star-cover complex tensored with Koszul.

    The (a, b) block is position a of the star complex at coefficient
    degree t = j - n + b, tensored with the b-th wedge of k^n; the
    horizontal map restricts stars and the vertical map is the Koszul
    step, which commute. The total differential applies the vertical map
    with sign (-1)^a and squares to zero.

    The three maps are ``SparseMatrix`` instances, a fraction of a percent
    full: the horizontal map tiles the sparse star-cover differential
    that the spec keeps for every slice, one broadcast copy per wedge
    basis vector, and the vertical map is ``koszul.koszul_step``, the
    builder behind ``KoszulComplex`` as well, on the direct-sum pattern the
    spec keeps for position a (``PartitionComplexSpec.mult_pattern``),
    read off Delta's. The total differential places them with the
    totalization signs (Weibel, An Introduction to Homological Algebra,
    5.6). Only ``rank`` consumes them.
    """

    def __init__(self, pspec: PartitionComplexSpec, theta: LinearFormSequence,
                 field: PrimeField, j: int):
        self.pspec = pspec
        self.theta = theta
        self.field = field
        self.j = j
        self.n = len(theta)

    def _t(self, b: int) -> int:
        return self.j - self.n + b

    def grid_dim(self, a: int, b: int) -> int:
        if b < 0 or b > self.n:
            return 0
        t = self._t(b)
        if t < 0:
            return 0
        return math.comb(self.n, b) * self.pspec.space_dim(a, t)

    def horizontal(self, a: int, b: int) -> SparseMatrix:
        """Star restriction (a, b) -> (a + 1, b), one copy per wedge basis vector."""
        pd = self.pspec.differential(a, self._t(b), self.field)
        wedge = np.arange(math.comb(self.n, b))[:, None]
        rows, cols = pd.shape
        return SparseMatrix((wedge.size * rows, wedge.size * cols),
                            (wedge * rows + pd.rows).ravel(), (wedge * cols + pd.cols).ravel(),
                            np.broadcast_to(pd.vals, (wedge.size, pd.vals.size)).ravel(),
                            self.field.p)

    def vertical(self, a: int, b: int) -> SparseMatrix:
        """Koszul step (a, b) -> (a, b + 1), summandwise multiplication."""
        t = self._t(b)
        dims = (self.pspec.space_dim(a, t), self.pspec.space_dim(a, t + 1))
        pattern = self.pspec.mult_pattern(a, t) if 0 not in dims else None
        return koszul_step(pattern, dims, self.theta, b, self.field.p)

    def _pairs(self, k: int) -> list[tuple[int, int]]:
        out = []
        for a in range(-1, self.pspec.max_position + 1):
            b = k - a
            if 0 <= b <= self.n and self._t(b) >= 0:
                out.append((a, b))
        return out

    def tot_dim(self, k: int) -> int:
        return sum(self.grid_dim(a, b) for a, b in self._pairs(k))

    def tot_differential(self, k: int) -> SparseMatrix:
        src = self._pairs(k)
        dst = self._pairs(k + 1)
        src_dims = [self.grid_dim(a, b) for a, b in src]
        dst_dims = [self.grid_dim(a, b) for a, b in dst]
        offs_src = np.cumsum([0] + src_dims).tolist()
        offs_dst = np.cumsum([0] + dst_dims).tolist()
        dpos = {ab: k2 for k2, ab in enumerate(dst)}
        blocks = []
        for ci, (a, b) in enumerate(src):
            if src_dims[ci] == 0:
                continue
            hi = dpos.get((a + 1, b))
            if hi is not None and dst_dims[hi]:
                blocks.append((offs_dst[hi], offs_src[ci], self.horizontal(a, b), 1))
            vi = dpos.get((a, b + 1))
            if vi is not None and dst_dims[vi]:
                blocks.append((offs_dst[vi], offs_src[ci], self.vertical(a, b),
                               -1 if a % 2 else 1))
        return SparseMatrix.from_blocks((offs_dst[-1], offs_src[-1]), blocks, self.field.p)

    def homology_dims(self) -> dict[int, int]:
        h = LazyHomology(self.tot_dim, self.tot_differential, (1,), self.field.p)
        return {k: h.homology(k) for k in range(-1, self.pspec.max_position + self.n + 1)}


def total_complex_homology(psi, theta: LinearFormSequence, field: PrimeField,
                           max_degree: int | None = None) -> dict:
    """{(i, j): dim H^i(Tot)_j} for the full star-cover complex tensored with Koszul."""
    psi = as_relative(psi)
    pspec = PartitionComplexSpec.full(psi)
    out = {}
    for j in range(_window(psi, max_degree) + 1):
        for i, dim in DoubleComplexSlice(pspec, theta, field, j).homology_dims().items():
            out[(i, j)] = dim
    return out


def _restriction_kernel_dims(delta: SimplicialComplex, subcomplexes, theta: LinearFormSequence,
                             field: PrimeField, max_degree: int) -> dict[int, int]:
    """{j: dim ker(A_j -> sum_K A(K)_j)} for j in [0, max_degree], A = k[Delta]/<Theta>.

    subcomplexes gives each K by its faces. Each A(K) is a quotient of A,
    so all of them are finite once A is.
    """
    A = quotient_presentation(RelativeComplex(delta), theta, field)
    if not A.finite_at_cap:
        raise PartitionError("Theta is not a parameter system for Delta")
    return {j: A.restriction_kernel(j, subcomplexes).shape[1] for j in range(max_degree + 1)}


def interior_partition_check(disk, theta: LinearFormSequence, field: PrimeField,
                             max_degree: int | None = None) -> dict:
    """Exactness of the interior star complex and injectivity of its front map.

    The front map restricts A = k[Delta]/<Theta> to the quotients of the
    stars of the interior vertices; its kernel is read off A
    (``_restriction_kernel_dims``).

    The verdict carries the sanity flags rather than gating on them: a
    pair whose boundary is not induced (or that is not a disk at all)
    still gets computed, with the failure visible in the diagnostics.
    """
    disk = as_relative(disk)
    delta = disk.delta
    d = delta.dim if delta.dim is not None else -1
    pspec = PartitionComplexSpec.interior(disk)
    window = max_degree if max_degree is not None else d + 2

    interior_labels = [delta.labels[i] for v in pspec.positions.get(0, [])
                       for i in _bit_positions(v)]
    gamma_vertices = [delta.labels[i] for v in delta.vertex_masks()
                      if v in disk.gamma.faces for i in _bit_positions(v)]
    boundary_induced = delta.induced(gamma_vertices) == disk.gamma
    acyclic = not any(relative_cohomology_dims(RelativeComplex(delta), field).values())
    bound_coh = relative_cohomology_dims(RelativeComplex(disk.gamma), field)
    sphere = all(dim == (1 if i == d - 1 else 0) for i, dim in bound_coh.items())

    table = pspec.homology_dims(field, max_degree=window)
    exact = not any(table.values())

    kernels = _restriction_kernel_dims(delta, pspec._star_faces(0), theta, field, d)
    injective = not any(kernels.values())

    return {
        "exact": exact,
        "injective_below_top": injective,
        "kernel_dims": kernels,
        "diagnostics": {
            "dim": d,
            "interior_vertices": sorted(interior_labels, key=str),
            "boundary_induced": boundary_induced,
            "delta_acyclic": acyclic,
            "boundary_is_sphere": sphere,
        },
    }


class SubdivisionStructure:
    """A coarse cell structure subdividing a simplicial complex.

    Every cell record declares the facets of its subdivided subcomplex
    inside delta and the facets of its subdivided boundary. Validation
    closes both inside delta, checks purity, checks that top cells cover
    every facet of delta, matches each boundary against the declared
    cells one dimension down, and orients every cell by propagating a
    fundamental chain over its top simplices; incidence signs come from
    comparing the boundary of that chain with the chains of the boundary
    cells.
    """

    def __init__(self, delta: SimplicialComplex, cells: list[dict]):
        if delta.is_void or delta.dim is None:
            raise PartitionError("subdivision structure needs a nonvoid complex")
        self.delta = delta
        self.dim = delta.dim
        self.cells = []
        for idx, rec in enumerate(cells):
            try:
                self.cells.append(self._prepare_cell(rec))
            except (KeyError, ComplexError, PartitionError) as exc:
                raise PartitionError(f"cell {idx}: {exc}") from exc
        self._validate_cover()
        self.incidence: dict[int, list[int]] = {}
        self.incidence_signs: dict[tuple[int, int], int] = {}
        self._match_boundaries()

    def _prepare_cell(self, rec: dict) -> dict:
        dim = int(rec["dim"])
        sub = SimplicialComplex.from_facets(self.delta.labels, rec["facets"])
        if not sub.faces <= self.delta.faces:
            raise PartitionError("declared subcomplex is not inside the ambient complex")
        if sub.dim != dim or not sub.is_pure():
            raise PartitionError(f"subcomplex is not pure of dimension {dim}")
        boundary = SimplicialComplex.from_facets(self.delta.labels,
                                                 rec.get("boundary_facets", []))
        if not boundary.faces <= sub.faces:
            raise PartitionError("declared boundary is not inside the cell")
        chain = _fundamental_chain(sub)
        bvert = [self.delta.labels[i] for m in boundary.faces for i in _bit_positions(m)]
        induced = self.delta.induced(sorted(set(bvert), key=str)) == boundary
        return {"dim": dim, "subcomplex": sub, "boundary": boundary,
                "chain": chain, "boundary_induced": induced}

    def _validate_cover(self) -> None:
        top = [c for c in self.cells if c["dim"] == self.dim]
        if not top:
            raise PartitionError("no top-dimensional cells declared")
        covered = set()
        for c in top:
            covered |= set(c["subcomplex"].facets())
        if covered != set(self.delta.facets()):
            raise PartitionError("top cells do not cover the facets of the complex")

    def _match_boundaries(self) -> None:
        by_dim: dict[int, list[int]] = {}
        for idx, c in enumerate(self.cells):
            by_dim.setdefault(c["dim"], []).append(idx)
        for idx, c in enumerate(self.cells):
            s = c["dim"]
            if s == 0:
                self.incidence[idx] = []
                continue
            walls = by_dim.get(s - 1, [])
            bfaces = c["boundary"].faces
            below = [w for w in walls
                     if self.cells[w]["subcomplex"].faces <= bfaces]
            union = set()
            for w in below:
                union |= self.cells[w]["subcomplex"].faces
            if union != bfaces:
                raise PartitionError(
                    f"cell {idx}: declared boundary is not covered by cells below")
            self.incidence[idx] = below
            bcoef = _chain_boundary(c["chain"])
            seen = set()
            for w in below:
                wfacets = self.cells[w]["subcomplex"].facets()
                if seen & set(wfacets):
                    raise PartitionError(f"cell {idx}: boundary cells overlap")
                seen |= set(wfacets)
                sign = None
                for f in wfacets:
                    coef = bcoef.get(f, 0)
                    want = self.cells[w]["chain"][f]
                    if coef not in (want, -want) or coef == 0:
                        raise PartitionError(
                            f"cell {idx}: boundary chain does not match cell {w}")
                    this = 1 if coef == want else -1
                    if sign is None:
                        sign = this
                    elif sign != this:
                        raise PartitionError(
                            f"cell {idx}: inconsistent orientation against cell {w}")
                self.incidence_signs[(idx, w)] = sign
            uncovered = set(bcoef) - seen
            if any(bcoef[f] for f in uncovered):
                raise PartitionError(
                    f"cell {idx}: geometric boundary leaks outside declared cells")

    def boundary_induced_ok(self) -> tuple[bool, list[int]]:
        """Induced-boundary flag for every cell of dimension >= dim/2."""
        failing = [idx for idx, c in enumerate(self.cells)
                   if 2 * c["dim"] >= self.dim and not c["boundary_induced"]]
        return not failing, failing

    @classmethod
    def from_json(cls, data: dict) -> "SubdivisionStructure":
        delta = SimplicialComplex.from_facets(
            tuple(data["delta"]["vertices"]), data["delta"]["facets"])
        return cls(delta, data["sigma"])

    def to_json(self) -> dict:
        return {
            "delta": {"vertices": list(self.delta.labels),
                      "facets": [list(self.delta.labels_of(f)) for f in self.delta.facets()]},
            "sigma": [
                {"dim": c["dim"],
                 "facets": [list(self.delta.labels_of(f)) for f in c["subcomplex"].facets()],
                 "boundary_facets": [list(self.delta.labels_of(f))
                                     for f in c["boundary"].facets()]}
                for c in self.cells
            ],
        }


def _fundamental_chain(sub: SimplicialComplex) -> dict[int, int]:
    """Coefficients +-1 on the facets making the boundary vanish on interior ridges."""
    facets = sub.facets()
    if sub.dim == 0:
        return {f: 1 for f in facets}
    ridges = sub.ridge_facets()
    if any(len(owners) > 2 for owners in ridges.values()):
        raise PartitionError("a ridge lies in more than two facets")
    chain = {facets[0]: 1}
    queue = [facets[0]]
    while queue:
        f = queue.pop()
        for i in _bit_positions(f):
            r = f ^ (1 << i)
            owners = ridges[r]
            if len(owners) != 2:
                continue
            g = owners[0] if owners[1] == f else owners[1]
            want = -chain[f] * _insertion_sign(r, i) * _insertion_sign(r, (g ^ r).bit_length() - 1)
            if g in chain:
                if chain[g] != want:
                    raise PartitionError("cell subdivision is not orientable")
            else:
                chain[g] = want
                queue.append(g)
    if len(chain) != len(facets):
        raise PartitionError("cell subdivision is not strongly connected")
    return chain


def _chain_boundary(chain: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for f, c in chain.items():
        for i in _bit_positions(f):
            r = f ^ (1 << i)
            out[r] = out.get(r, 0) + c * _insertion_sign(f, i)
    return {r: c for r, c in out.items() if c}


def barycentric_subdivision_structure(sigma: SimplicialComplex) -> SubdivisionStructure:
    """Cell structure of sigma realized inside its barycentric subdivision."""
    if sigma.is_void or sigma.dim is None or sigma.dim < 0:
        raise PartitionError("need a complex with at least one vertex")
    delta = sigma.barycentric_subdivision()

    def bary_label(mask: int) -> str:
        return "|".join(str(v) for v in sigma.labels_of(mask))

    def flags(mask: int) -> list[list[str]]:
        out = []
        for perm in permutations(_bit_positions(mask)):
            acc = 0
            chain = []
            for b in perm:
                acc |= 1 << b
                chain.append(bary_label(acc))
            out.append(chain)
        return out

    cells = []
    for m in sorted((f for f in sigma.faces if f), key=lambda m: (_popcount(m), m)):
        boundary = []
        for i in _bit_positions(m):
            sub = m ^ (1 << i)
            if sub:
                boundary.extend(flags(sub))
        cells.append({"dim": _popcount(m) - 1, "facets": flags(m),
                      "boundary_facets": boundary})
    return SubdivisionStructure(delta, cells)


def subdivision_partition_check(structure: SubdivisionStructure,
                                theta: LinearFormSequence, field: PrimeField) -> dict:
    """Kernel of k[Delta]/<Theta> into the quotients of the top cells, degreewise.

    Passes when the kernel vanishes in every degree up to half the
    dimension. The induced-boundary flags are reported, not enforced.
    """
    d = structure.dim
    cells = [c["subcomplex"].faces for c in structure.cells if c["dim"] == d]
    kernels = _restriction_kernel_dims(structure.delta, cells, theta, field, d + 1)
    ok, failing = structure.boundary_induced_ok()
    return {
        "kernel_dims": kernels,
        "pass": not any(dim for j, dim in kernels.items() if j <= d // 2),
        "boundary_induced_ok": ok,
        "failing_cells": failing,
        "dim": d,
    }

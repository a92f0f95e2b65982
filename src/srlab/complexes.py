"""Simplicial and relative simplicial complexes.

A complex lives on an ordered ground set of at most 64 vertex labels;
faces are stored as bitmasks over that order, so subset tests, links,
stars and deletions are O(1) bit operations. The global vertex order
(declaration order of the ground set) is the source of every boundary,
coboundary and partition-complex sign downstream: the sign of v's place
in face + v, (-1)^#{u in face : u < v}, has its one home in
``_insertion_sign``.

Conventions that matter and are easy to get wrong:

* the void complex (no faces at all) is different from {emptyset};
  only the latter has reduced cohomology, namely H^{-1} = k;
* a relative complex Psi = (Delta, Gamma) has faces(Psi) =
  faces(Delta) minus faces(Gamma); Gamma may be void, which recovers
  the absolute case;
* cohomology is reduced, with the empty face sitting in dimension -1.

Every face link is read off Psi's own cochain complex. For a face tau
of Delta, rho -> rho - tau maps the faces of Psi containing tau onto the
faces of lk_tau Psi, shifting dimension by |tau|, and the coboundary of
Psi restricted to those faces is the link's up to the diagonal sign

    eps(rho) = (-1)^(sum over w in rho - tau of #{u in tau : u < w}).

Proof: the entry of rho -> rho + v is (-1)^#{u in rho : u < v} in Psi and
(-1)^#{u in rho - tau : u < v} in the link, and they differ by
(-1)^#{u in tau : u < v} = eps(rho + v) eps(rho). A diagonal +-1 change
of basis keeps every rank, so ``FaceLinkCohomology`` ranks submatrices of
Psi's coboundaries and never builds a link. Reisner's criterion and the
depth of k[Psi] by Hochster's formula are read off that one table
(``reisner_link_table``, ``link_depth``).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .linalg import LazyHomology, PrimeField

MAX_VERTICES = 64


class ComplexError(ValueError):
    pass


def _bit_positions(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _submasks(mask: int):
    """Every submask of mask, from mask itself down to 0."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _insertion_sign(face: int, v: int) -> int:
    """(-1)^#{u in face : u < v}, the sign of vertex v's place in face + v."""
    return -1 if _popcount(face & ((1 << v) - 1)) % 2 else 1


def _is_maximal(face: int, faces, free: int) -> bool:
    """No one-vertex extension of face by a vertex of ``free`` lies in faces.

    In a family closed under subsets inside a complex, such as the faces
    of Delta - Gamma, this is maximality: a larger face contains some
    face + v, which then lies in the family too.
    """
    return not any(face | (1 << v) in faces for v in _bit_positions(free & ~face))


class SimplicialComplex:
    """An immutable downward-closed family of faces over an ordered ground set."""

    __slots__ = ("labels", "index", "faces", "_facets_cache", "_by_card")

    def __init__(self, labels, faces, _closed=False):
        labels = tuple(labels)
        if len(labels) > MAX_VERTICES:
            raise ComplexError(f"ground set has {len(labels)} vertices; cap is {MAX_VERTICES}")
        if len(set(labels)) != len(labels):
            raise ComplexError("duplicate vertex labels in ground set")
        self.labels = labels
        self.index = {v: i for i, v in enumerate(labels)}
        # a _closed caller hands over a frozenset of Python ints
        self.faces = faces if _closed else self._close(frozenset(int(f) for f in faces))
        self._facets_cache = None
        self._by_card = None

    @staticmethod
    def _close(faces: frozenset[int]) -> frozenset[int]:
        closed = set()
        for f in faces:
            if f not in closed:
                closed.update(_submasks(f))
        return frozenset(closed)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_facets(cls, labels, facet_list, void: bool = False) -> "SimplicialComplex":
        """Downward closure of the given facets; [] gives {emptyset} unless void."""
        labels = tuple(labels)
        if void:
            if facet_list:
                raise ComplexError("void complex cannot have facets")
            return cls(labels, frozenset(), _closed=True)
        index = {v: i for i, v in enumerate(labels)}
        masks = set()
        for facet in facet_list:
            m = 0
            for v in facet:
                if v not in index:
                    raise ComplexError(f"unknown vertex label {v!r}")
                m |= 1 << index[v]
            masks.add(m)
        masks.add(0)
        return cls(labels, masks)

    @classmethod
    def void_complex(cls, labels) -> "SimplicialComplex":
        return cls(labels, frozenset(), _closed=True)

    @classmethod
    def empty_faces_only(cls, labels) -> "SimplicialComplex":
        """The complex {emptyset}."""
        return cls(labels, frozenset([0]), _closed=True)

    # -- basic queries ---------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.faces

    @property
    def dim(self):
        """Max face dimension; -1 for {emptyset}, None for the void complex."""
        if not self.faces:
            return None
        return max(_popcount(f) for f in self.faces) - 1

    def mask_of(self, face) -> int:
        m = 0
        for v in face:
            if v not in self.index:
                raise ComplexError(f"unknown vertex label {v!r}")
            m |= 1 << self.index[v]
        return m

    def labels_of(self, mask: int) -> tuple:
        return tuple(self.labels[i] for i in _bit_positions(mask))

    def faces_by_cardinality(self) -> dict[int, list[int]]:
        if self._by_card is None:
            by = {}
            for f in self.faces:
                by.setdefault(_popcount(f), []).append(f)
            for lst in by.values():
                lst.sort()
            self._by_card = by
        return self._by_card

    def faces_of_dim(self, k: int) -> list[int]:
        """Sorted masks of k-dimensional faces (k = -1 is the empty face)."""
        return list(self.faces_by_cardinality().get(k + 1, []))

    def facets(self) -> list[int]:
        if self._facets_cache is None:
            free = (1 << len(self.labels)) - 1
            self._facets_cache = sorted(f for f in self.faces if _is_maximal(f, self.faces, free))
        return list(self._facets_cache)

    def ridge_facets(self) -> dict[int, list[int]]:
        """{face one vertex short of a facet: the facets it is short of, in order}.

        In a pure complex the keys are the ridges, each with every facet
        containing it.
        """
        out: dict[int, list[int]] = {}
        for f in self.facets():
            for i in _bit_positions(f):
                out.setdefault(f ^ (1 << i), []).append(f)
        return out

    def vertex_masks(self) -> list[int]:
        return self.faces_of_dim(0)

    def is_pure(self) -> bool:
        if self.is_void:
            return True
        d = self.dim
        return all(_popcount(f) - 1 == d for f in self.facets())

    def __eq__(self, other) -> bool:
        return (isinstance(other, SimplicialComplex)
                and self.labels == other.labels and self.faces == other.faces)

    def __hash__(self) -> int:
        return hash((self.labels, self.faces))

    def __repr__(self) -> str:
        if self.is_void:
            return f"SimplicialComplex(void on {len(self.labels)} vertices)"
        return (f"SimplicialComplex({len(self.labels)} vertices, "
                f"{len(self.faces)} faces, dim {self.dim})")

    # -- local operations --------------------------------------------------

    def link(self, tau) -> "SimplicialComplex":
        """lk_tau = {sigma : sigma disjoint from tau, sigma | tau a face}."""
        t = tau if isinstance(tau, int) else self.mask_of(tau)
        faces = frozenset(f ^ t for f in self.faces if f & t == t)
        return SimplicialComplex(self.labels, faces, _closed=True)

    def star(self, tau) -> "SimplicialComplex":
        """st_tau = {sigma : sigma | tau a face}."""
        t = tau if isinstance(tau, int) else self.mask_of(tau)
        faces = frozenset(f for f in self.faces if (f | t) in self.faces)
        return SimplicialComplex(self.labels, faces, _closed=True)

    def deletion(self, tau) -> "SimplicialComplex":
        """Delta - tau: the maximal subcomplex whose faces do not contain tau."""
        t = tau if isinstance(tau, int) else self.mask_of(tau)
        faces = frozenset(f for f in self.faces if f & t != t)
        return SimplicialComplex(self.labels, faces, _closed=True)

    def induced(self, vertex_labels) -> "SimplicialComplex":
        w = self.mask_of(vertex_labels)
        faces = frozenset(f for f in self.faces if f & ~w == 0)
        return SimplicialComplex(self.labels, faces, _closed=True)

    def union(self, other: "SimplicialComplex") -> "SimplicialComplex":
        if self.labels != other.labels:
            raise ComplexError("union requires identical ground sets")
        return SimplicialComplex(self.labels, self.faces | other.faces, _closed=True)

    def join(self, other: "SimplicialComplex") -> "SimplicialComplex":
        """Faces are unions of one face from each; join with void is void."""
        if set(self.labels) & set(other.labels):
            raise ComplexError("join requires disjoint ground sets")
        labels = self.labels + other.labels
        shift = len(self.labels)
        faces = frozenset(f | (g << shift) for f in self.faces for g in other.faces)
        return SimplicialComplex(labels, faces, _closed=True)

    def cone(self, apex) -> "SimplicialComplex":
        if apex in self.index:
            raise ComplexError(f"apex label {apex!r} already in ground set")
        return self.join(SimplicialComplex.from_facets((apex,), [[apex]]))

    def boundary_subcomplex(self) -> "SimplicialComplex":
        """Closure of the ridges lying in exactly one facet (for pure complexes)."""
        if self.is_void or self.dim is None or self.dim < 0:
            return SimplicialComplex.void_complex(self.labels)
        boundary_ridges = [r for r, owners in self.ridge_facets().items() if len(owners) == 1]
        if not boundary_ridges:
            return SimplicialComplex.void_complex(self.labels)
        return SimplicialComplex(self.labels, frozenset(boundary_ridges))

    def barycentric_subdivision(self) -> "SimplicialComplex":
        """Vertices are the nonempty faces, faces are chains under inclusion."""
        if self.is_void:
            raise ComplexError("cannot subdivide the void complex")
        nonempty = sorted((f for f in self.faces if f), key=lambda m: (_popcount(m), m))
        if len(nonempty) > MAX_VERTICES:
            raise ComplexError("barycentric subdivision exceeds the vertex cap")
        labels = tuple("|".join(str(v) for v in self.labels_of(m)) for m in nonempty)
        pos = {m: i for i, m in enumerate(nonempty)}
        chains: set[int] = set()

        def grow(chain_mask: int, top: int) -> None:
            chains.add(chain_mask)
            for m in nonempty:
                if m != top and m & top == m and _popcount(m) < _popcount(top):
                    grow(chain_mask | (1 << pos[m]), m)

        for m in nonempty:
            grow(1 << pos[m], m)
        chains.add(0)
        return SimplicialComplex(labels, frozenset(chains), _closed=True)


class RelativeComplex:
    """A pair Psi = (Delta, Gamma) with Gamma a subcomplex of Delta (possibly void).

    The faces of Psi are computed once, and are Delta's own set when Gamma
    is void; dim is computed on first use.
    """

    __slots__ = ("delta", "gamma", "_faces", "_dim")

    def __init__(self, delta: SimplicialComplex, gamma: SimplicialComplex | None = None):
        if gamma is None:
            gamma = SimplicialComplex.void_complex(delta.labels)
        if gamma.labels != delta.labels:
            raise ComplexError("Gamma must live on the same ground set as Delta")
        if not gamma.faces <= delta.faces:
            raise ComplexError("Gamma is not a subcomplex of Delta")
        self.delta = delta
        self.gamma = gamma
        self._faces = delta.faces if gamma.is_void else delta.faces - gamma.faces
        self._dim = -2  # not computed yet

    @property
    def is_absolute(self) -> bool:
        return self.gamma.is_void

    def faces(self) -> frozenset[int]:
        return self._faces

    @property
    def is_void(self) -> bool:
        return not self._faces

    @property
    def dim(self):
        if self._dim == -2:
            self._dim = max(map(_popcount, self._faces)) - 1 if self._faces else None
        return self._dim

    def faces_of_dim(self, k: int) -> list[int]:
        gamma_faces = self.gamma.faces
        return [f for f in self.delta.faces_of_dim(k) if f not in gamma_faces]

    def link(self, tau) -> "RelativeComplex":
        t = tau if isinstance(tau, int) else self.delta.mask_of(tau)
        if t not in self.delta.faces:
            raise ComplexError("link of a non-face")
        return RelativeComplex(self.delta.link(t), self.gamma.link(t))

    def star(self, tau) -> "RelativeComplex":
        t = tau if isinstance(tau, int) else self.delta.mask_of(tau)
        if t not in self.delta.faces:
            raise ComplexError("star of a non-face")
        return RelativeComplex(self.delta.star(t), self.gamma.star(t))

    def open_star(self, tau) -> "RelativeComplex":
        """st°_tau: faces of st_tau Delta containing tau and outside st_tau Gamma."""
        t = tau if isinstance(tau, int) else self.delta.mask_of(tau)
        if t not in self.delta.faces:
            raise ComplexError("open star of a non-face")
        st_d = self.delta.star(t)
        st_g = self.gamma.star(t)
        return RelativeComplex(st_d, st_g.union(st_d.deletion(t)))

    def deletion(self, tau) -> SimplicialComplex:
        t = tau if isinstance(tau, int) else self.delta.mask_of(tau)
        return self.delta.deletion(t)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RelativeComplex)
                and self.delta == other.delta and self.gamma == other.gamma)

    def __hash__(self) -> int:
        return hash((self.delta, self.gamma))

    def __repr__(self) -> str:
        kind = "absolute" if self.is_absolute else "relative"
        return f"RelativeComplex({kind}, {len(self.faces())} faces, dim {self.dim})"


def as_relative(c) -> RelativeComplex:
    if isinstance(c, RelativeComplex):
        return c
    if isinstance(c, SimplicialComplex):
        return RelativeComplex(c)
    raise ComplexError(f"not a complex: {c!r}")


# -- f/h vectors ------------------------------------------------------------


@dataclass(frozen=True)
class FVector:
    """Face counts f_{-1..d} and the h-vector h_0..h_{d+1} of a relative complex."""

    f: tuple[int, ...]
    h: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.f) - 2


def f_h_vectors(psi) -> FVector:
    """Count faces per dimension and transform via sum f_i x^{i+1}(1-x)^{d-i}."""
    psi = as_relative(psi)
    if psi.is_void:
        raise ComplexError("f/h-vectors of the void complex are undefined")
    d = psi.dim
    f = tuple(len(psi.faces_of_dim(i)) for i in range(-1, d + 1))
    # h-polynomial = sum_{i=-1}^{d} f_i x^{i+1} (1-x)^{d-i}; each term has degree d+1
    h = np.zeros(d + 2, dtype=object)
    for i in range(-1, d + 1):
        one_minus_x = np.ones(1, dtype=object)
        for _ in range(d - i):
            one_minus_x = np.convolve(one_minus_x, np.array([1, -1], dtype=object))
        h[i + 1:] += f[i + 1] * one_minus_x
    return FVector(f=f, h=tuple(int(c) for c in h))


def euler_characteristic(psi) -> int:
    """Reduced Euler characteristic: alternating sum including the empty face."""
    psi = as_relative(psi)
    if psi.is_void:
        return 0
    return sum((-1) ** i * len(psi.faces_of_dim(i)) for i in range(-1, psi.dim + 1))


# -- relative simplicial cohomology -----------------------------------------


def _cochain_faces(psi: RelativeComplex) -> list[list[int]]:
    """Psi's faces by dimension: list k holds dimension k - 1, sorted by mask, up to dim Psi."""
    by_card = psi.delta.faces_by_cardinality()
    gamma = psi.gamma.faces
    bases = [[f for f in by_card.get(m, ()) if f not in gamma]
             for m in range(max(by_card, default=-1) + 1)]
    while bases and not bases[-1]:
        bases.pop()
    return bases


def coboundary_matrices(psi, field: PrimeField) -> tuple[dict[int, int], dict[int, np.ndarray]]:
    """Reduced relative cochain complex: spaces and coboundaries indexed -1..dim.

    The coboundary out of dimension i has the entry
    ``_insertion_sign(sigma, v)`` from each face sigma to each face
    sigma + v of Psi, found by dropping one vertex at a time from the faces
    of dimension i + 1. Vertex k of sigma + v, counted from 0, has k
    vertices of sigma below it, so that sign is (-1)^k.
    """
    bases = _cochain_faces(as_relative(psi))
    dims = {i: len(b) for i, b in enumerate(bases, start=-1)}
    diffs = {}
    for i in range(-1, len(bases) - 2):
        where = {f: k for k, f in enumerate(bases[i + 1])}
        rows, cols, vals = [], [], []
        for row, rho in enumerate(bases[i + 2]):
            for k, v in enumerate(_bit_positions(rho)):
                col = where.get(rho ^ (1 << v))
                if col is not None:
                    rows.append(row)
                    cols.append(col)
                    vals.append(field.p - 1 if k % 2 else 1)
        mat = diffs[i] = np.zeros((dims[i + 1], dims[i]), dtype=np.int64)
        mat[rows, cols] = vals
    return dims, diffs


class FaceLinkCohomology:
    """Reduced cohomology over F_p of the link of every face of Delta in Psi.

    ``table[tau]`` equals ``relative_cohomology_dims(psi.link(tau), field)``:
    {i: dim} over i in -1..dim lk_tau Psi, and {} when the link is void (no
    face of Psi contains tau). No link is built. The link's cochains of
    dimension i are Psi's on the faces of dimension i + |tau| containing
    tau, and its coboundaries are Psi's coboundary matrices restricted to
    those faces, up to a sign change that keeps every rank (see the module
    docstring).

    Psi's coboundaries are built once, with the table. The faces containing
    each tau are found by one pass over the submasks of Psi's faces, made
    when the first nonempty tau is asked for. Each entry is ranked on first
    demand and then kept. The entry of the empty face is the cohomology of
    Psi itself, which ``relative_cohomology_dims`` reads. A table serves one
    (Psi, field); a caller that needs it twice passes it on.
    """

    __slots__ = ("psi", "field", "_dims", "_diffs", "_above", "_table")

    def __init__(self, psi, field: PrimeField):
        self.psi = as_relative(psi)
        self.field = field
        self._dims, self._diffs = coboundary_matrices(self.psi, field)
        # tau -> {dimension i: positions in Psi's i-faces of those containing tau}
        self._above: dict[int, dict[int, list[int]]] | None = None
        self._table: dict[int, dict[int, int]] = {}

    def _faces_above(self) -> dict[int, dict[int, list[int]]]:
        if self._above is None:
            above: dict[int, dict[int, list[int]]] = {}
            for i, faces in enumerate(_cochain_faces(self.psi), start=-1):
                for k, rho in enumerate(faces):
                    for tau in _submasks(rho):
                        above.setdefault(tau, {}).setdefault(i, []).append(k)
            self._above = above
        return self._above

    def __getitem__(self, tau: int) -> dict[int, int]:
        got = self._table.get(tau)
        if got is None:
            got = self._table[tau] = self._link(tau)
        return got

    def _link(self, tau: int) -> dict[int, int]:
        if not tau:
            dims, top = self._dims, len(self._dims) - 2
            h = LazyHomology(lambda i: dims.get(i, 0), self._diffs.__getitem__, (1,),
                             self.field.p)
            return {i: h.homology(i) for i in range(-1, top + 1)}
        if tau not in self.psi.delta.faces:
            raise ComplexError("link of a non-face")
        above = self._faces_above().get(tau)
        if above is None:
            return {}
        t = _popcount(tau)

        def diff(i: int) -> np.ndarray:
            return self._diffs[i + t][above[i + t + 1]][:, above[i + t]]

        h = LazyHomology(lambda i: len(above.get(i + t, ())), diff, (1,), self.field.p)
        return {i: h.homology(i) for i in range(-1, max(above) - t + 1)}


def reisner_link_table(psi, field: PrimeField) -> dict:
    """Link-vanishing criterion for Cohen-Macaulayness of a relative complex.

    Requires, for every face tau of Delta including the empty one, that
    the reduced cohomology of lk_tau(Psi) vanishes in all indices i with
    -1 <= i < dim(Psi) - |tau|. Faces whose link is void pass vacuously.

    The failures also give the depth. By Hochster's formula for the local
    cohomology of a face ring (Stanley, Combinatorics and Commutative
    Algebra, 2nd ed., Ch. II Sec. 4), H^i_m(k[Psi]) is nonzero exactly
    when some face tau has H~^(i - |tau| - 1)(lk tau) nonzero, and the top
    one, i = dim + 1, is nonzero for every nonzero module. Depth is the
    smallest such i, so

        depth = 1 + min(dim Psi, min over failures (tau, j) of j + |tau|)

    (``link_depth``). The formula is cited for absolute complexes; for
    relative ones it is checked against Koszul depth by the tests.

    Every link is read off one ``FaceLinkCohomology`` of Psi.
    """
    psi = as_relative(psi)
    if psi.is_void:
        return {"cm": True, "failures": []}
    dim_psi = psi.dim
    links = FaceLinkCohomology(psi, field)
    failures = []
    for tau in sorted(psi.delta.faces):
        bound = dim_psi - _popcount(tau)
        if bound <= -1:
            continue
        for i, v in sorted(links[tau].items()):
            if v and -1 <= i < bound:
                failures.append({"face": list(psi.delta.labels_of(tau)),
                                 "index": i, "dim": int(v)})
    return {"cm": not failures, "failures": failures}


def link_depth(psi, table: dict) -> int:
    """Depth of k[Psi] read off its ``reisner_link_table`` (Hochster's formula)."""
    return 1 + min([as_relative(psi).dim] +
                   [f["index"] + len(f["face"]) for f in table["failures"]])


def relative_cohomology_dims(psi, field: PrimeField) -> dict[int, int]:
    """Reduced cohomology dims of the pair over F_p, indices -1..dim.

    The empty face's entry of ``FaceLinkCohomology``: its link is Psi.
    """
    return FaceLinkCohomology(psi, field)[0]


def betti_numbers(psi, field: PrimeField) -> dict[int, int]:
    return relative_cohomology_dims(psi, field)


# -- builtin corpus ----------------------------------------------------------


def _load_frozen(name: str) -> dict:
    with resources.files("srlab.data").joinpath(f"{name}.json").open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _simplex(k: int) -> RelativeComplex:
    verts = list(range(1, k + 2))
    return RelativeComplex(SimplicialComplex.from_facets(verts, [verts]))


def _boundary_simplex(k: int) -> RelativeComplex:
    verts = list(range(1, k + 2))
    facets = [[v for v in verts if v != w] for w in verts]
    return RelativeComplex(SimplicialComplex.from_facets(verts, facets))


def _cross_polytope(k: int) -> RelativeComplex:
    """Boundary of the k-dimensional cross polytope: a (k-1)-sphere on 2k vertices."""
    verts = []
    for i in range(1, k + 1):
        verts.extend([f"{i}+", f"{i}-"])
    facets = [[]]
    for i in range(1, k + 1):
        facets = [f + [s] for f in facets for s in (f"{i}+", f"{i}-")]
    return RelativeComplex(SimplicialComplex.from_facets(verts, facets))


def _disk_with_induced_boundary(k: int) -> RelativeComplex:
    """Cone over the boundary of the k-simplex; the boundary sphere is induced."""
    base = _boundary_simplex(k).delta
    apex = "apex"
    delta = base.cone(apex)
    boundary = SimplicialComplex.from_facets(
        delta.labels, [list(base.labels_of(f)) for f in base.facets()])
    return RelativeComplex(delta, boundary)


def _path(k: int) -> RelativeComplex:
    verts = list(range(1, k + 1))
    facets = [[i, i + 1] for i in range(1, k)] if k > 1 else [[1]]
    return RelativeComplex(SimplicialComplex.from_facets(verts, facets))


def builtin_complex(name: str) -> RelativeComplex:
    """Named corpus members; parametrized names use an underscore suffix."""
    fixed = {"torus7", "rp2_6", "moebius", "two_points"}
    if name in fixed:
        data = _load_frozen(name)
        return relative_from_json(data)
    for prefix, builder, lo in (
        ("simplex_", _simplex, 0),
        ("boundary_simplex_", _boundary_simplex, 1),
        ("cross_polytope_", _cross_polytope, 1),
        ("disk_with_induced_boundary_", _disk_with_induced_boundary, 1),
        ("path_", _path, 1),
    ):
        if name.startswith(prefix):
            suffix = name[len(prefix):]
            if not suffix.isdigit():
                raise ComplexError(f"bad parameter in builtin name {name!r}")
            k = int(suffix)
            if k < lo:
                raise ComplexError(f"parameter out of range in builtin name {name!r}")
            return builder(k)
    raise ComplexError(f"unknown builtin complex {name!r}")


BUILTIN_EXAMPLES = (
    "simplex_2", "boundary_simplex_3", "cross_polytope_3", "torus7",
    "rp2_6", "moebius", "disk_with_induced_boundary_2", "two_points", "path_4",
)


# -- JSON round trip ----------------------------------------------------------


def relative_from_json(data: dict) -> RelativeComplex:
    if not isinstance(data, dict):
        raise ComplexError("complex JSON must be an object")
    if "vertices" not in data:
        raise ComplexError("complex JSON is missing the 'vertices' field")
    verts = data["vertices"]
    if not isinstance(verts, list):
        raise ComplexError("'vertices' must be a list of labels")
    void = bool(data.get("void", False))
    facets = data.get("facets", [])
    if not isinstance(facets, list):
        raise ComplexError("'facets' must be a list of faces")
    delta = SimplicialComplex.from_facets(verts, facets, void=void)
    if "gamma_facets" in data and data["gamma_facets"] is not None:
        gfacets = data["gamma_facets"]
        if not isinstance(gfacets, list):
            raise ComplexError("'gamma_facets' must be a list of faces")
        gamma = SimplicialComplex.from_facets(verts, gfacets)
        if not gamma.faces <= delta.faces:
            raise ComplexError("gamma_facets are not faces of the complex")
    else:
        gamma = SimplicialComplex.void_complex(delta.labels)
    return RelativeComplex(delta, gamma)


def relative_to_json(psi: RelativeComplex) -> dict:
    out: dict = {"vertices": list(psi.delta.labels)}
    if psi.delta.is_void:
        out["facets"] = []
        out["void"] = True
        return out
    out["facets"] = [list(psi.delta.labels_of(f)) for f in psi.delta.facets()]
    if not psi.gamma.is_void:
        out["gamma_facets"] = [list(psi.gamma.labels_of(f)) for f in psi.gamma.facets()]
    return out


def complex_hash(psi: RelativeComplex) -> str:
    payload = json.dumps(relative_to_json(psi), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# -- randomized corpus --------------------------------------------------------


def random_relative_complex(rng: random.Random, max_vertices: int = 6) -> RelativeComplex:
    """Small random relative complex; the workhorse of the oracle corpora."""
    n = rng.randint(1, max_vertices)
    verts = list(range(1, n + 1))
    n_facets = rng.randint(1, max(2, n))
    facets = []
    for _ in range(n_facets):
        size = rng.randint(1, min(n, 4))
        facets.append(rng.sample(verts, size))
    delta = SimplicialComplex.from_facets(verts, facets)
    roll = rng.random()
    if roll < 0.45:
        gamma = SimplicialComplex.void_complex(delta.labels)
    elif roll < 0.55:
        gamma = SimplicialComplex.empty_faces_only(delta.labels)
    else:
        candidates = sorted(delta.faces)
        picks = rng.sample(candidates, min(len(candidates), rng.randint(1, 3)))
        gamma = SimplicialComplex(delta.labels, frozenset(picks))
        if gamma.faces == delta.faces:
            gamma = SimplicialComplex.empty_faces_only(delta.labels)
    return RelativeComplex(delta, gamma)

import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from srlab import facering, koszul, partition
from srlab.complexes import (
    BUILTIN_EXAMPLES,
    RelativeComplex,
    SimplicialComplex,
    builtin_complex,
    random_relative_complex,
    relative_cohomology_dims,
)
from srlab.duality import build_B
from srlab.facering import (
    LinearFormSequence,
    expected_lsop_length,
    monomial_basis,
    sample_lsop,
)
from srlab.linalg import DEFAULT_PRIME, PrimeField, matmul, rank
from srlab.partition import (
    DoubleComplexSlice,
    PartitionComplexSpec,
    PartitionError,
    ReducedPartitionComplex,
    SubdivisionStructure,
    barycentric_subdivision_structure,
    interior_partition_check,
    partition_homology_dims,
    reduced_partition_homology,
    restriction_matrix,
    subdivision_partition_check,
    total_complex_homology,
)
from test_koszul import dense_koszul_step, direct_sum_pattern

F = PrimeField(DEFAULT_PRIME)


def lsop(psi, seed=0):
    theta = sample_lsop(psi, expected_lsop_length(psi), seed, F)
    assert theta is not None
    return theta


def test_empty_complex_has_only_the_front_column():
    psi = RelativeComplex(SimplicialComplex.from_facets((1,), []))
    assert partition_homology_dims(psi, F, max_degree=0) == {(-1, 0): 1}


def test_star_cover_homology_equals_simplicial_cohomology():
    rng = random.Random(2024)
    cases = [builtin_complex("torus7"), builtin_complex("boundary_simplex_3")]
    cases += [random_relative_complex(rng, max_vertices=5) for _ in range(25)]
    for psi in cases:
        table = partition_homology_dims(psi, F)
        coh = relative_cohomology_dims(psi, F)
        for (i, j), dim in table.items():
            assert dim == (coh.get(i, 0) if j == 0 else 0)


def test_wide_windows_build_no_monomial_matrices(monkeypatch):
    # the support route ranks small Cech pieces; a fallback to the degree-j
    # matrices would fill the monomial_basis cache and map monomials
    psi = builtin_complex("cross_polytope_4")
    mapped = []
    restrictions = PartitionComplexSpec._restrictions
    monkeypatch.setattr(PartitionComplexSpec, "_restrictions",
                        lambda *args: mapped.append(args) or restrictions(*args))

    def cache():
        return monomial_basis.cache_info().misses, monomial_basis.cache_info().currsize

    before = cache()
    table = partition_homology_dims(psi, F, max_degree=8)
    assert cache() == before and not mapped
    assert len(table) == 5 * 9
    assert {k: v for k, v in table.items() if v} == {(3, 0): 1}
    # the spy sees the maps of the matrix route
    PartitionComplexSpec.full(psi).differential(-1, 1, F)
    assert mapped


def test_partition_module_keeps_no_cache():
    # a module-level cache here would grow with every complex ever seen;
    # the imported monomial_basis is facering's
    assert not [name for name, value in vars(partition).items()
                if hasattr(value, "cache_info")
                and getattr(value, "__module__", None) == partition.__name__]
    assert hasattr(partition.monomial_basis, "cache_info")


def test_front_restrictions_are_unsigned():
    tor = builtin_complex("torus7")
    pspec = PartitionComplexSpec.full(tor)
    for j in (0, 1, 2):
        mat = pspec.differential(-1, j, F).toarray()
        assert set(np.unique(mat)) <= {0, 1}


def test_cech_differential_squares_to_zero():
    tor = builtin_complex("torus7")
    pspec = PartitionComplexSpec.full(tor)
    for i in range(-1, pspec.max_position):
        for j in (1, 2):
            d0, d1 = (pspec.differential(k, j, F).toarray() for k in (i, i + 1))
            m2 = d1 @ d0 % F.p
            assert not m2.any()


def test_restriction_matrix_kills_foreign_monomials():
    tor = builtin_complex("torus7")
    v = tor.delta.vertex_masks()[0]
    star = tor.star(v)
    for j in (1, 2):
        src = monomial_basis(tor, j)
        dst = monomial_basis(star, j)
        mat = restriction_matrix(tor, star, j)
        assert mat.shape == (len(dst), len(src))
        for col, alpha in enumerate(src):
            column = mat[:, col]
            if alpha in dst.index:
                assert column.sum() == 1 and column[dst.index[alpha]] == 1
            else:
                assert not column.any()


def _block_sign(src_desc, dst_desc) -> int:
    """The Cech sign of the summand pair tau -> tau + v, 0 for any other pair."""
    extra = dst_desc & ~src_desc
    if src_desc & dst_desc != src_desc or bin(extra).count("1") != 1:
        return 0
    return -1 if bin(dst_desc & (extra - 1)).count("1") % 2 else 1


def _summands(pspec, i):
    """(descriptor, built module) for every summand at position i."""
    return [(tau, pspec.base.star(tau)) for tau in pspec.positions.get(i, [])]


def _dense_differential(pspec, i, j, p):
    """Position i into position i + 1: restriction matrices signed by ``_block_sign``."""
    src, dst = _summands(pspec, i), _summands(pspec, i + 1)
    if not src or not dst:
        return None
    return np.block([[_block_sign(sdesc, ddesc) * restriction_matrix(smod, dmod, j) % p
                      for sdesc, smod in src] for ddesc, dmod in dst])


def _relative_pairs(seed, count):
    """``count`` random pairs (Delta, Gamma) with Gamma not void."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        psi = random_relative_complex(rng)
        if psi.gamma.faces and psi.delta.dim is not None and psi.delta.dim >= 0:
            out.append(psi)
    return out


def _variant_specs():
    """Full specs, absolute and relative with Gamma not void, and interior specs."""
    bary = SimplicialComplex.from_facets((1, 2, 3), [(1, 2, 3)]).barycentric_subdivision()
    specs = [PartitionComplexSpec.full(builtin_complex(name))
             for name in ("torus7", "boundary_simplex_3", "moebius", "two_points")]
    specs += [PartitionComplexSpec.full(psi) for psi in _relative_pairs(3, 12)]
    specs += [PartitionComplexSpec.interior(RelativeComplex(bary, bary.boundary_subcomplex())),
              PartitionComplexSpec.interior(builtin_complex("disk_with_induced_boundary_2"))]
    return specs


def test_selections_pick_each_summand_basis_out_of_delta():
    specs = _variant_specs()
    full, interior = specs[:-2], specs[-2:]
    assert all(spec.base is spec.psi for spec in full)
    assert any(not spec.psi.is_absolute for spec in full)
    for spec in interior:
        assert spec.base is not spec.psi and spec.base == RelativeComplex(spec.psi.delta)
    for pspec in specs:
        ambient = RelativeComplex(pspec.psi.delta)
        dim = pspec.psi.delta.dim
        for i in range(-1, pspec.max_position + 1):
            for j in range(dim + 4):
                delta_basis = monomial_basis(ambient, j).exponents
                sels = pspec._basis(i, j).sels
                assert len(sels) == len(_summands(pspec, i))
                for sel, (_, mod) in zip(sels, _summands(pspec, i)):
                    assert np.all(np.diff(sel) > 0)
                    assert [delta_basis[k] for k in sel] == list(monomial_basis(mod, j).exponents)
                assert pspec.summand_dims(i, j) == tuple(len(monomial_basis(mod, j))
                                                         for _, mod in _summands(pspec, i))
            assert pspec.space_dim(i, -1) == 0


def test_position_patterns_concatenate_the_summand_patterns():
    for pspec in _variant_specs():
        dim = pspec.psi.delta.dim
        for i in range(-1, pspec.max_position + 1):
            for t in range(dim + 3):
                got = pspec.mult_pattern(i, t)
                assert pspec.mult_pattern(i, t) is got
                want = direct_sum_pattern([mod for _, mod in _summands(pspec, i)], t)
                for x, y in zip(got, want):
                    assert not x.flags.writeable and x.tolist() == y.tolist()


def test_vertical_maps_of_every_variant_equal_the_dense_koszul_step():
    specs = _variant_specs()
    for pspec in specs[:1] + specs[4:5] + specs[-2:]:
        psi = RelativeComplex(pspec.psi.delta)
        for p in (3, DEFAULT_PRIME):
            field = PrimeField(p)
            theta = LinearFormSequence.random(psi, expected_lsop_length(psi), 7, field)
            for j in range(psi.dim + 3):
                sl = DoubleComplexSlice(pspec, theta, field, j)
                for a in range(-1, pspec.max_position + 1):
                    for b in range(sl.n):
                        got = sl.vertical(a, b).toarray()
                        assert np.array_equal(got, _dense_vertical(sl, a, b))


def test_total_complex_builds_bases_and_patterns_on_delta_only(monkeypatch):
    seen = []
    for module in (facering, partition, koszul):
        for name in ("monomial_basis", "_mult_pattern"):
            if hasattr(module, name):
                real = getattr(module, name)
                monkeypatch.setattr(module, name, lambda psi, j, real=real, name=name:
                                    seen.append((name, psi)) or real(psi, j))
    for psi in (builtin_complex("torus7"), builtin_complex("disk_with_induced_boundary_2")):
        seen.clear()
        theta = lsop(psi)
        table = total_complex_homology(psi, theta, F)
        assert any(table.values())
        assert {name for name, _ in seen} == {"monomial_basis", "_mult_pattern"}
        assert {mod for _, mod in seen} == {RelativeComplex(psi.delta)}


def test_sparse_differential_equals_signed_restriction_matrices(monkeypatch):
    specs = _variant_specs()
    degrees = []
    basis = partition.monomial_basis
    monkeypatch.setattr(partition, "monomial_basis",
                        lambda mod, j: degrees.append(j) or basis(mod, j))
    for pspec in specs:
        dim = pspec.psi.dim if pspec.psi.dim is not None else -1
        for i in range(-1, pspec.max_position + 1):
            for j in (0, 1, 2, dim + 3):
                got = pspec.differential(i, j, F)
                want = _dense_differential(pspec, i, j, F.p)
                if want is None:
                    assert got.shape[0] * got.shape[1] == 0
                else:
                    assert np.array_equal(got.toarray(), want)
            degrees.clear()
            got = pspec.differential(i, -1, F)
            assert got.shape == (0, 0) and not got.vals.size
            assert all(j >= 0 for j in degrees)


def _index_map(src, dst):
    """Restriction between two summands in degree j as index arrays (cols, rows).

    src and dst are the summands' selections. The map sends the monomial
    at cols[k] of src's basis to the one at rows[k] of dst's and every
    other monomial to 0. One search per summand pair: the oracle for the
    spec's single keyed search over all pairs.
    """
    pos = np.searchsorted(src, dst)
    hit = pos < src.size
    hit[hit] = src[pos[hit]] == dst[hit]
    rows = np.flatnonzero(hit)
    return pos[rows], rows


def _pairwise_differential(pspec, i, j, p):
    """Position i into position i + 1 in degree j, one ``_index_map`` per signed pair."""
    src, dst = pspec._basis(i, j).sels, pspec._basis(i + 1, j).sels
    cols = np.cumsum([0] + [x.size for x in src])
    rows = np.cumsum([0] + [x.size for x in dst])
    m = np.zeros((rows[-1], cols[-1]), dtype=np.int64)
    for s, d, sign in pspec._signed_pairs(i):
        c, r = _index_map(src[s], dst[d])
        m[rows[d] + r, cols[s] + c] = sign % p
    return m


def _oracle_homology(dims, maps, top, window, p):
    """{(i, j): dim - rank in - rank out} from dense maps, i in [-1, top], j in [0, window]."""
    def rk(i, j):
        m = maps(i, j) if -1 <= i < top else None
        return rank(m, p) if m is not None and m.size else 0
    return {(i, j): dims(i, j) - rk(i - 1, j) - rk(i, j)
            for i in range(-1, top + 1) for j in range(window + 1)}


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
def test_keyed_star_cover_maps_equal_the_pairwise_index_maps(p):
    field = PrimeField(p)
    specs = [PartitionComplexSpec.full(builtin_complex(name)) for name in BUILTIN_EXAMPLES]
    specs += _variant_specs()
    for pspec in specs:
        window = partition._window(pspec.psi, None)
        for i in range(-1, pspec.max_position + 1):
            for j in range(-1, window + 1):
                got = pspec.differential(i, j, field)
                assert np.array_equal(got.toarray(), _pairwise_differential(pspec, i, j, p))


class _StarQuotientRoute:
    """The reduced complex with every summand built as a complex: the oracle.

    Each star k[st_tau Psi] gets its own quotient presentation on its own
    monomial basis, and is gated on its own finiteness, in summand order.
    The block of a signed summand pair is the restriction matrix applied
    to the source's lift, reduced in the target's coordinates; restriction
    between relative stars need not be onto.
    """

    def __init__(self, pspec, theta, field):
        self.pspec, self.field = pspec, field
        self.quotients = {}
        for i in range(-1, pspec.max_position + 1):
            self.quotients[i] = []
            for tau, mod in _summands(pspec, i):
                q = facering.quotient_presentation(mod, theta, field)
                if not q.finite_at_cap:
                    raise PartitionError(f"Theta is not a parameter system for the summand at {tau!r}")
                self.quotients[i].append((tau, mod, q))

    def space_dim(self, i, j):
        return sum(q.dim(j) for _, _, q in self.quotients.get(i, []))

    def not_onto(self, i, j):
        """Signed pairs between nonzero quotients whose target has faces the source lacks."""
        return sum(bool(_block_sign(s, d) and sq.dim(j) and dq.dim(j)
                        and set(dmod.faces()) - set(smod.faces()))
                   for d, dmod, dq in self.quotients[i + 1] for s, smod, sq in self.quotients[i])

    def differential(self, i, j):
        p = self.field.p
        src, dst = self.quotients.get(i, []), self.quotients.get(i + 1, [])
        mat = np.zeros((self.space_dim(i + 1, j), self.space_dim(i, j)), dtype=np.int64)
        row = 0
        for ddesc, dmod, dq in dst:
            col = 0
            for sdesc, smod, sq in src:
                sign = _block_sign(sdesc, ddesc)
                if sign and sq.dim(j) and dq.dim(j):
                    moved = matmul(restriction_matrix(smod, dmod, j), sq.lift(j), p)
                    mat[row:row + dq.dim(j), col:col + sq.dim(j)] = sign * dq.reduce(j, moved) % p
                col += sq.dim(j)
            row += dq.dim(j)
        return mat


@pytest.mark.parametrize("p", [2, 3, 5, DEFAULT_PRIME])
def test_reduced_differential_equals_the_restriction_matrix_route(p):
    field = PrimeField(p)
    specs = [PartitionComplexSpec.full(builtin_complex(name)) for name in BUILTIN_EXAMPLES]
    specs += _variant_specs()
    specs += [PartitionComplexSpec.full(psi) for psi in _relative_pairs(p % 1000, 60)]
    checked = {"builtin": 0, "relative": 0, "not_onto": 0}
    for pspec in specs:
        psi = pspec.psi
        theta = sample_lsop(psi, expected_lsop_length(psi), 0, field, budget=4000)
        if theta is None:
            continue
        reduced = ReducedPartitionComplex(pspec, theta, field)
        oracle = _StarQuotientRoute(pspec, theta, field)
        window = partition._window(psi, None)
        for i in range(-1, pspec.max_position + 1):
            for j in range(-1, window + 1):
                assert reduced.space_dim(i, j) == oracle.space_dim(i, j)
                if i < pspec.max_position:
                    assert np.array_equal(reduced.differential(i, j), oracle.differential(i, j))
                    checked["not_onto"] += j >= 0 and oracle.not_onto(i, j)
        want = _oracle_homology(oracle.space_dim, oracle.differential, pspec.max_position,
                                window, p)
        assert reduced.homology_dims() == want
        checked["relative" if not psi.is_absolute else "builtin"] += 1
    assert checked["builtin"] >= 10 and checked["relative"] >= 50 and checked["not_onto"]


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
def test_reduced_complex_gate_agrees_with_the_star_quotients(p):
    # one certificate of Theta on Psi stands for the finiteness of every star
    field = PrimeField(p)
    rng = random.Random(71 + p % 1000)
    cases = [builtin_complex(name) for name in BUILTIN_EXAMPLES] + _relative_pairs(p % 1000, 25)
    outcomes = set()
    for psi in cases:
        n, length = len(psi.delta.labels), expected_lsop_length(psi)
        for theta in (LinearFormSequence([(0,) * n] * length, p),
                      LinearFormSequence.random(psi, max(length - 1, 0), rng.randrange(999), field),
                      LinearFormSequence.random(psi, length, rng.randrange(999), field)):
            pspec = PartitionComplexSpec.full(psi)
            errors = []
            for route in (ReducedPartitionComplex, _StarQuotientRoute):
                try:
                    route(pspec, theta, field)
                    errors.append(None)
                except PartitionError as e:
                    errors.append(str(e))
            assert errors[0] == errors[1]
            outcomes.add(errors[0])
    assert outcomes == {None, "Theta is not a parameter system for the summand at 0"}


def test_reduced_complex_caches_bases_and_patterns_of_delta_only():
    # every summand's quotient is taken on Delta's monomials: the
    # caches gain no entry keyed by a star
    psi = builtin_complex("boundary_simplex_5")
    theta = lsop(psi)
    caches = (facering.monomial_basis, facering._mult_pattern)
    for cache in caches:
        cache.cache_clear()
    assert any(reduced_partition_homology(psi, theta, F).values())
    for cache in caches:
        held, hits = cache.cache_info().currsize, cache.cache_info().hits
        for j in range(psi.dim + 5):
            cache(psi, j)
        assert held and cache.cache_info().hits - hits == held


def _fine_slice_dims(psi, alpha):
    """Homology of the single-monomial piece of the star-cover complex."""
    pspec = PartitionComplexSpec.full(psi)
    j = sum(alpha)
    sel = {}
    for i in range(-1, pspec.max_position + 1):
        rows = []
        off = 0
        for _, mod in _summands(pspec, i):
            basis = monomial_basis(mod, j)
            idx = basis.index.get(tuple(alpha))
            if idx is not None:
                rows.append(off + idx)
            off += len(basis)
        sel[i] = rows
    ranks = {}
    for i in range(-1, pspec.max_position + 1):
        if sel[i] and sel.get(i + 1):
            sub = pspec.differential(i, j, F).toarray()[np.ix_(sel[i + 1], sel[i])]
            ranks[i] = rank(sub, F.p)
        else:
            ranks[i] = 0
    return {i: len(sel[i]) - ranks[i] - ranks.get(i - 1, 0)
            for i in range(-1, pspec.max_position + 1)}


def test_fine_pieces_compute_star_cohomology():
    # the slice of a single monomial is a Cech complex of the star of its support
    rng = random.Random(5150)
    cases = [builtin_complex("torus7")]
    cases += [random_relative_complex(rng, max_vertices=5) for _ in range(6)]
    for psi in cases:
        if psi.is_void or psi.delta.dim is None:
            continue
        faces = [f for f in psi.delta.faces if f]
        for _ in range(3):
            S = rng.choice(faces)
            verts = [i for i in range(len(psi.delta.labels)) if S >> i & 1]
            alpha = [0] * len(psi.delta.labels)
            for v in verts:
                alpha[v] = 1
            alpha[rng.choice(verts)] += rng.randint(0, 2)
            got = _fine_slice_dims(psi, alpha)
            want = relative_cohomology_dims(psi.star(S), F)
            assert all(got.get(i, 0) == want.get(i, 0) for i in set(got) | set(want))
    tor = builtin_complex("torus7")
    unit = _fine_slice_dims(tor, [0] * 7)
    assert {i: v for i, v in unit.items() if v} == {1: 2, 2: 1}


def test_reduced_tables_match_the_binomial_formula():
    bs3 = builtin_complex("boundary_simplex_3")
    table = reduced_partition_homology(bs3, lsop(bs3), F)
    assert {k: v for k, v in table.items() if v} == {
        (-1, 3): 1, (0, 2): 3, (1, 1): 3, (2, 0): 1}

    tor = builtin_complex("torus7")
    table = reduced_partition_homology(tor, lsop(tor), F)
    assert {k: v for k, v in table.items() if v} == {
        (-1, 2): 6, (-1, 3): 1, (0, 1): 6, (0, 2): 3, (1, 0): 2, (1, 1): 3, (2, 0): 1}

    rp2 = builtin_complex("rp2_6")
    for q in (2, 3):
        field = PrimeField(q)
        theta = sample_lsop(rp2, 3, 0, field, budget=4000)
        table = reduced_partition_homology(rp2, theta, field)
        coh = relative_cohomology_dims(rp2, field)
        d = rp2.dim
        for (i, j), dim in table.items():
            assert dim == math.comb(d + 1, j) * coh.get(i + j, 0)


def test_cones_have_exact_reduced_complexes():
    s3 = builtin_complex("simplex_3")
    table = reduced_partition_homology(s3, lsop(s3), F)
    assert not any(table.values())


def test_nonpure_complex_breaks_the_binomial_formula():
    # two isolated points next to an edge: stars come in mixed dimensions,
    # so the unity formula over-counts the front kernel
    psi = RelativeComplex(SimplicialComplex.from_facets((1, 2, 3, 4), [(1,), (2,), (3, 4)]))
    table = reduced_partition_homology(psi, lsop(psi), F)
    coh = relative_cohomology_dims(psi, F)
    assert table[(-1, 1)] == 2
    assert math.comb(psi.dim + 1, 1) * coh.get(0, 0) == 4


def test_reduced_complex_requires_parameter_systems():
    bow = RelativeComplex(SimplicialComplex.from_facets((1, 2, 3, 4, 5), [(1, 2, 3), (3, 4, 5)]))
    zero = LinearFormSequence([(0,) * 5] * 3, F.p)
    with pytest.raises(PartitionError):
        ReducedPartitionComplex(PartitionComplexSpec.full(bow), zero, F)


def test_front_kernel_agrees_with_the_duality_ideal():
    # the star-quotient route, independent of build_B's: dim - rank of the
    # map out of position -1 of the whole reduced complex, which presents
    # every star by a quotient of its own
    tor = builtin_complex("torus7")
    theta = lsop(tor)
    reduced = ReducedPartitionComplex(PartitionComplexSpec.full(tor), theta, F)
    kernels = {j: reduced.space_dim(-1, j) - rank(reduced.differential(-1, j), F.p)
               for j in range(4)}
    A = facering.quotient_presentation(tor, theta, F)
    B = build_B(tor.delta, theta, F)
    j_dims = [A.dim(j) - B.dim(j) for j in range(4)]
    assert [kernels[j] for j in range(3)] == j_dims[:3] == [0, 0, 6]
    # degree d+1 keeps the fundamental class: the raw kernel is everything,
    # the duality ideal projects it away
    assert kernels[3] == 1 and j_dims[3] == 0


def _face_mask_specs():
    """Full specs of every builtin and of relative pairs, one with Psi void, and interior specs."""
    specs = _variant_specs()
    specs += [PartitionComplexSpec.full(builtin_complex(name)) for name in BUILTIN_EXAMPLES]
    path = builtin_complex("path_4").delta
    specs.append(PartitionComplexSpec.full(RelativeComplex(path, path)))
    # vertex 63 sets the top bit of a 64-bit mask
    wide = SimplicialComplex.from_facets(range(64), [(0, 62, 63), (1, 63), (1, 2, 3)])
    specs.append(PartitionComplexSpec.full(RelativeComplex(
        wide, SimplicialComplex.from_facets(range(64), [(62, 63), (2,)]))))
    return specs


def test_star_selections_are_the_faces_of_the_built_stars():
    def order(f):
        return bin(f).count("1"), f

    for pspec in _face_mask_specs():
        masks = pspec._masks
        assert masks == sorted(pspec.psi.delta.faces, key=order)
        assert pspec._sizes == [bin(f).count("1") for f in masks]
        for i in range(-1, pspec.max_position + 1):
            assert len(pspec._faces[i]) == len(pspec.positions[i])
            for s, tau in enumerate(pspec.positions[i]):
                want = sorted(pspec.base.star(tau).faces(), key=order)
                assert [masks[k] for k in pspec._faces[i][s]] == want
                assert pspec._star_faces(i)[s] == pspec.base.star(tau).faces()


def _supports_of_built_stars(pspec, max_degree):
    """``_supports`` read off every summand's built module, face by face."""
    top = pspec.max_position
    lists = {}
    for i in range(-1, top + 1):
        for desc in pspec.positions[i]:
            for sigma in pspec.base.star(desc).faces():
                lists.setdefault(sigma, [[] for _ in range(top + 2)])[i + 1].append(desc)
    out = {}
    for sigma, descs in lists.items():
        m = bin(sigma).count("1")
        if m <= max_degree:
            sizes = out.setdefault(tuple(map(tuple, descs)), {})
            sizes[m] = sizes.get(m, 0) + 1
    return out


def test_supports_read_off_the_selections_equal_those_of_the_built_stars():
    for pspec in _face_mask_specs():
        dim = pspec.psi.delta.dim
        for max_degree in (0, 1, dim + 2):
            assert pspec._supports(max_degree) == _supports_of_built_stars(pspec, max_degree)


def test_double_complex_commutes_and_total_squares_to_zero():
    mo = builtin_complex("moebius")
    sl = DoubleComplexSlice(PartitionComplexSpec.full(mo), lsop(mo), F, 2)
    p = F.p
    for a in (-1, 0, 1):
        for b in (0, 1):
            lhs = sl.vertical(a + 1, b).toarray() @ sl.horizontal(a, b).toarray() % p
            rhs = sl.horizontal(a, b + 1).toarray() @ sl.vertical(a, b).toarray() % p
            assert np.array_equal(lhs, rhs)
    for k in (-1, 0, 1, 2):
        m2 = sl.tot_differential(k + 1).toarray() @ sl.tot_differential(k).toarray() % p
        assert not m2.any()


def _dense_horizontal(sl, a, b):
    """The star restriction of a double complex slice as one dense Kronecker product."""
    pd = sl.pspec.differential(a, sl._t(b), sl.field).toarray()
    return np.kron(np.eye(math.comb(sl.n, b), dtype=np.int64), pd)


def _dense_vertical(sl, a, b):
    """The Koszul step of a double complex slice, assembled densely block by block."""
    if b < 0 or b >= sl.n:
        return np.zeros((sl.grid_dim(a, b + 1), sl.grid_dim(a, b)), dtype=np.int64)
    return dense_koszul_step([mod for _, mod in _summands(sl.pspec, a)], sl.theta, b,
                             sl._t(b), sl.field)


def _dense_tot_differential(sl, k):
    """The total differential of a double complex slice, assembled densely."""
    src, dst = sl._pairs(k), sl._pairs(k + 1)
    src_dims = [sl.grid_dim(a, b) for a, b in src]
    dst_dims = [sl.grid_dim(a, b) for a, b in dst]
    offs_src = np.cumsum([0] + src_dims)
    offs_dst = np.cumsum([0] + dst_dims)
    mat = np.zeros((sum(dst_dims), sum(src_dims)), dtype=np.int64)
    if not mat.size:
        return mat
    p = sl.field.p
    dpos = {ab: k2 for k2, ab in enumerate(dst)}
    for ci, (a, b) in enumerate(src):
        if src_dims[ci] == 0:
            continue
        hi = dpos.get((a + 1, b))
        if hi is not None and dst_dims[hi]:
            mat[offs_dst[hi]:offs_dst[hi + 1], offs_src[ci]:offs_src[ci + 1]] = \
                _dense_horizontal(sl, a, b)
        vi = dpos.get((a, b + 1))
        if vi is not None and dst_dims[vi]:
            block = _dense_vertical(sl, a, b)
            if a % 2:
                block = (p - block) % p
            mat[offs_dst[vi]:offs_dst[vi + 1], offs_src[ci]:offs_src[ci + 1]] = block
    return mat


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
@pytest.mark.parametrize("name", ["moebius", "torus7", "rp2_6", "boundary_simplex_3"])
def test_sparse_double_complex_equals_the_dense_assembly(name, p):
    psi = builtin_complex(name)
    field = PrimeField(p)
    pspec = PartitionComplexSpec.full(psi)
    # any forms do: the builders do not need a parameter system
    theta = LinearFormSequence.random(psi, expected_lsop_length(psi), 3, field)
    for j in range(psi.dim + 3):
        sl = DoubleComplexSlice(pspec, theta, field, j)
        for k in range(-2, pspec.max_position + sl.n + 2):
            got = sl.tot_differential(k)
            assert got.shape == (sl.tot_dim(k + 1), sl.tot_dim(k))
            assert np.array_equal(got.toarray(), _dense_tot_differential(sl, k))
        for a in range(-1, pspec.max_position + 1):
            for b in range(-1, sl.n + 1):
                assert np.array_equal(sl.vertical(a, b).toarray(), _dense_vertical(sl, a, b))
                if b >= 0:
                    assert np.array_equal(sl.horizontal(a, b).toarray(),
                                          _dense_horizontal(sl, a, b))


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_total_complex_of_boundary_simplex_4_stays_small_in_memory():
    # The dense total differentials of this instance peaked at 415-443 MB. The
    # child reports VmHWM, its own peak RSS since exec: its ru_maxrss would
    # also count the peak of the test process that started it.
    code = textwrap.dedent("""
        from srlab import (PrimeField, builtin_complex, expected_lsop_length, sample_lsop,
                           total_complex_homology)
        field = PrimeField(2147483647)
        psi = builtin_complex("boundary_simplex_4")
        theta = next(t for t in (sample_lsop(psi, expected_lsop_length(psi), s, field)
                                 for s in (0, 1, 2)) if t is not None)
        table = total_complex_homology(psi, theta, field)
        print(sorted(k for k, v in table.items() if v))
        with open("/proc/self/status") as status:
            print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    table, peak_kib = out.splitlines()
    # a 3-sphere: C(4, j) in total degree i = 7 - j, j = 0..4
    assert table == str([(7 - j, j) for j in range(4, -1, -1)])
    assert int(peak_kib) < 200 * 1024


def test_exact_columns_force_an_exact_total_complex():
    s2 = builtin_complex("simplex_2")
    pspec = PartitionComplexSpec.full(s2)
    theta = lsop(s2)
    p = F.p
    for j in (1, 2):
        sl = DoubleComplexSlice(pspec, theta, F, j)
        for a in range(-1, pspec.max_position + 1):
            for b in range(sl.n + 1):
                hom = sl.grid_dim(a, b) - rank(sl.vertical(a, b), p) \
                    - rank(sl.vertical(a, b - 1), p)
                assert hom == 0
        assert not any(sl.homology_dims().values())


def test_total_complex_table_of_a_sphere():
    bs3 = builtin_complex("boundary_simplex_3")
    d = bs3.dim
    table = total_complex_homology(bs3, lsop(bs3), F)
    assert {k: v for k, v in table.items() if v} == {
        (2, 3): 1, (3, 2): 3, (4, 1): 3, (5, 0): 1}
    for (i, j), dim in table.items():
        want = math.comb(d + 1, j) if i + j - d - 1 == 2 and j <= d + 1 else 0
        assert dim == want


def test_total_complex_assembles_each_star_cover_map_once(monkeypatch):
    # every slice of the total complex tiles the maps of the same spec, and
    # the spec keeps each (i, j) map after building it
    assembled = []
    real = PartitionComplexSpec._restrictions

    def spy(self, i, j):
        assembled.append((id(self), i, j))
        return real(self, i, j)

    monkeypatch.setattr(PartitionComplexSpec, "_restrictions", spy)
    bs4 = builtin_complex("boundary_simplex_4")
    table = total_complex_homology(bs4, lsop(bs4), F)
    assert {k: v for k, v in table.items() if v} == {(7 - j, j): math.comb(4, j)
                                                     for j in range(5)}
    assert len({spec for spec, _, _ in assembled}) == 1
    assert len(assembled) == len(set(assembled)) > 20


def test_stored_star_cover_maps_are_read_only():
    pspec = PartitionComplexSpec.full(builtin_complex("torus7"))
    d = pspec.differential(0, 2, F)
    assert pspec.differential(0, 2, F) is d
    assert pspec.differential(0, 2, PrimeField(3)) is not d
    assert not any(x.flags.writeable for x in (d.rows, d.cols, d.vals))


def test_interior_check_on_a_subdivided_disk():
    bary = SimplicialComplex.from_facets((1, 2, 3), [(1, 2, 3)]).barycentric_subdivision()
    disk = RelativeComplex(bary, bary.boundary_subcomplex())
    res = interior_partition_check(disk, lsop(disk), F)
    assert res["exact"] and res["injective_below_top"]
    diag = res["diagnostics"]
    assert diag["boundary_induced"] and diag["delta_acyclic"] and diag["boundary_is_sphere"]
    assert not any(res["kernel_dims"].values())


def test_interior_check_flags_a_disk_without_interior_vertices():
    tri = SimplicialComplex.from_facets((1, 2, 3), [(1, 2, 3)])
    disk = RelativeComplex(tri, tri.boundary_subcomplex())
    res = interior_partition_check(disk, lsop(disk), F)
    assert not res["exact"] and not res["injective_below_top"]
    assert res["kernel_dims"] == {0: 1, 1: 0, 2: 0}
    assert res["diagnostics"]["interior_vertices"] == []
    # the closure of the boundary vertices is the whole triangle
    assert not res["diagnostics"]["boundary_induced"]
    assert res["diagnostics"]["delta_acyclic"] and res["diagnostics"]["boundary_is_sphere"]


def test_interior_check_on_a_cone_with_interior_apex():
    cone = SimplicialComplex.from_facets((0, 1, 2, 3), [(0, 1, 2), (0, 2, 3), (0, 1, 3)])
    disk = RelativeComplex(cone, cone.boundary_subcomplex())
    res = interior_partition_check(disk, lsop(disk), F)
    assert res["exact"] and res["injective_below_top"]
    assert res["diagnostics"]["interior_vertices"] == [0]


def test_subdivision_checks_pass_on_barycentric_structures():
    single = barycentric_subdivision_structure(
        SimplicialComplex.from_facets((1, 2, 3), [(1, 2, 3)]))
    res = subdivision_partition_check(single, lsop(RelativeComplex(single.delta)), F)
    assert res["pass"] and res["boundary_induced_ok"] and not res["failing_cells"]
    assert res["kernel_dims"] == {0: 0, 1: 0, 2: 0, 3: 0}

    glued = barycentric_subdivision_structure(
        SimplicialComplex.from_facets((1, 2, 3, 4), [(1, 2, 3), (1, 3, 4)]))
    res = subdivision_partition_check(glued, lsop(RelativeComplex(glued.delta)), F)
    assert res["pass"] and res["boundary_induced_ok"]
    # the kernel above half the dimension is real but outside the gate
    assert res["kernel_dims"] == {0: 0, 1: 0, 2: 1, 3: 0}


def test_checks_refuse_forms_that_are_no_parameter_system():
    disk = builtin_complex("disk_with_induced_boundary_2")
    zero = LinearFormSequence([(0,) * len(disk.delta.labels)] * 3, F.p)
    with pytest.raises(PartitionError, match="parameter system"):
        interior_partition_check(disk, zero, F)
    glued = barycentric_subdivision_structure(
        SimplicialComplex.from_facets((1, 2, 3, 4), [(1, 2, 3), (1, 3, 4)]))
    zero = LinearFormSequence([(0,) * len(glued.delta.labels)] * 3, F.p)
    with pytest.raises(PartitionError, match="parameter system"):
        subdivision_partition_check(glued, zero, F)


def _stellar_disk(rng, dim, moves):
    """The dim-simplex after ``moves`` random stellar subdivisions, with its boundary.

    Each move cones a new vertex over a face of two or more vertices, so
    the result is still a ball; a move on an interior face adds an
    interior vertex, and no move leaves none.
    """
    facets = [frozenset(range(dim + 1))]
    for v in range(dim + 1, dim + 1 + moves):
        tau = frozenset(rng.sample(sorted(rng.choice(facets)), rng.randint(2, dim + 1)))
        facets = [g for f in facets
                  for g in ([f - {t} | {v} for t in tau] if tau <= f else [f])]
    delta = SimplicialComplex.from_facets(range(dim + 1 + moves), [sorted(f) for f in facets])
    return RelativeComplex(delta, delta.boundary_subcomplex())


def _star_quotient_kernel_dims(delta, subcomplexes, theta, field, max_degree):
    """dim ker(A_j -> sum_K A(K)_j) with one quotient presentation per K.

    The independent route: each A(K) is presented on its own, and the
    block of K is the restriction matrix k[Delta]_j -> k[K]_j applied to
    A's representatives, reduced in A(K)'s coordinates.
    """
    A = facering.quotient_presentation(delta, theta, field)
    quotients = [(K, facering.quotient_presentation(K, theta, field)) for K in subcomplexes]
    assert A.finite_at_cap and all(q.finite_at_cap for _, q in quotients)
    out = {}
    for j in range(max_degree + 1):
        blocks = [np.zeros((0, A.dim(j)), dtype=np.int64)]
        blocks += [q.reduce(j, matmul(restriction_matrix(delta, K, j), A.lift(j), field.p))
                   for K, q in quotients]
        stacked = np.vstack(blocks)
        out[j] = A.dim(j) - (rank(stacked, field.p) if stacked.size else 0)
    return out


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
def test_restriction_kernels_equal_the_star_quotient_route(p):
    field = PrimeField(p)
    rng = random.Random(4100 + p % 1000)
    disks = [_stellar_disk(rng, 2, 0)]  # a triangle: no interior vertex, no summand
    disks += [_stellar_disk(rng, rng.choice((1, 2, 2, 3)), rng.randint(1, 4)) for _ in range(20)]
    sigmas = [SimplicialComplex.from_facets((1, 2, 3, 4), [(1, 2, 3), (1, 3, 4)])]
    for _ in range(8):
        size = rng.choice((2, 3))
        facets = {tuple(sorted(rng.sample(range(5), size))) for _ in range(rng.randint(1, 3))}
        sigmas.append(SimplicialComplex.from_facets(range(5), sorted(facets)))
    checked = {"interior": 0, "subdivision": 0, "empty": 0, "nonzero": 0}
    for disk in disks:
        delta = RelativeComplex(disk.delta)
        theta = sample_lsop(delta, expected_lsop_length(delta), 0, field, budget=4000)
        if theta is None:
            continue
        stars = [disk.delta.star(v) for v in disk.delta.vertex_masks()
                 if v not in disk.gamma.faces]
        want = _star_quotient_kernel_dims(disk.delta, stars, theta, field, disk.delta.dim)
        assert interior_partition_check(disk, theta, field)["kernel_dims"] == want
        checked["interior"] += 1
        checked["empty"] += not stars
        checked["nonzero"] += any(want.values())
    for sigma in sigmas:
        st = barycentric_subdivision_structure(sigma)
        delta = RelativeComplex(st.delta)
        theta = sample_lsop(delta, expected_lsop_length(delta), 0, field, budget=4000)
        if theta is None:
            continue
        cells = [c["subcomplex"] for c in st.cells if c["dim"] == st.dim]
        want = _star_quotient_kernel_dims(st.delta, cells, theta, field, st.dim + 1)
        assert subdivision_partition_check(st, theta, field)["kernel_dims"] == want
        checked["subdivision"] += 1
        checked["nonzero"] += any(want.values())
    assert checked["interior"] >= 15 and checked["subdivision"] >= 5
    assert checked["empty"] and checked["nonzero"] > checked["empty"]


def test_subdivision_round_trip_preserves_incidence():
    st = barycentric_subdivision_structure(
        SimplicialComplex.from_facets((1, 2, 3, 4), [(1, 2, 3), (1, 3, 4)]))
    again = SubdivisionStructure.from_json(st.to_json())
    assert again.incidence_signs == st.incidence_signs
    assert again.incidence == st.incidence
    # the cellular boundary squares to zero: every cell two dimensions down
    # is reached through its walls with cancelling signs
    signs = st.incidence_signs
    for cell, walls in st.incidence.items():
        through: dict[int, int] = {}
        for w in walls:
            for u in st.incidence[w]:
                through[u] = through.get(u, 0) + signs[cell, w] * signs[w, u]
        assert not any(through.values())
    assert any(len(st.incidence[w]) for walls in st.incidence.values() for w in walls)


def test_fundamental_chains_cancel_on_every_interior_ridge():
    # in a barycentric subdivision two adjacent flags drop the vertex at the
    # same place, so only these vertex orders tell the two facets' signs apart
    for name in ("simplex_2", "path_4", "boundary_simplex_3", "cross_polytope_3", "torus7",
                 "disk_with_induced_boundary_2"):
        delta = builtin_complex(name).delta
        facets = delta.facets()
        chain = partition._fundamental_chain(delta)
        assert sorted(chain) == facets and set(chain.values()) <= {1, -1}
        boundary = [r for r in sorted(delta.faces) if bin(r).count("1") == delta.dim
                    and sum(f & r == r for f in facets) == 1]
        assert sorted(partition._chain_boundary(chain)) == boundary
    for name in ("rp2_6", "moebius"):
        with pytest.raises(PartitionError, match="not orientable"):
            partition._fundamental_chain(builtin_complex(name).delta)


def test_subdivision_structure_validation_errors():
    st = barycentric_subdivision_structure(
        SimplicialComplex.from_facets((1, 2, 3, 4), [(1, 2, 3), (1, 3, 4)]))
    data = st.to_json()
    top = next(i for i, c in enumerate(data["sigma"]) if c["dim"] == 2)
    broken = {"delta": data["delta"],
              "sigma": [c for i, c in enumerate(data["sigma"]) if i != top]}
    with pytest.raises(PartitionError, match="cover"):
        SubdivisionStructure.from_json(broken)

    book = SimplicialComplex.from_facets((1, 2, 3, 4, 5), [(1, 2, 3), (1, 2, 4), (1, 2, 5)])
    with pytest.raises(PartitionError, match="more than two"):
        SubdivisionStructure(book, [{"dim": 2, "facets": [(1, 2, 3), (1, 2, 4), (1, 2, 5)],
                                     "boundary_facets": []}])

    mo = builtin_complex("moebius").delta
    with pytest.raises(PartitionError, match="orientable"):
        SubdivisionStructure(mo, [{"dim": 2,
                                   "facets": [list(mo.labels_of(f)) for f in mo.facets()],
                                   "boundary_facets": []}])

    two = SimplicialComplex.from_facets((1, 2, 3, 4), [(1, 2, 3), (1, 3, 4)])
    with pytest.raises(PartitionError, match="not inside"):
        SubdivisionStructure(two, [{"dim": 2, "facets": [(1, 2, 4)], "boundary_facets": []}])

    tri = SimplicialComplex.from_facets((1, 2, 3), [(1, 2, 3)])
    with pytest.raises(PartitionError, match="unknown vertex"):
        SubdivisionStructure(tri, [{"dim": 2, "facets": [(1, 2, 4)], "boundary_facets": []}])

"""LazyHomology drops the columns the map into a cell pivoted on; its tables
must equal dim - rank - rank with every differential ranked whole.

Each oracle below ranks the unreduced matrices of one chain (a Koszul
strand, a degree of a partition complex, a double-complex slice) through
``rank`` alone and compares the result with the library's table.
"""

import random

import pytest

from srlab.complexes import (
    RelativeComplex,
    SimplicialComplex,
    builtin_complex,
    random_relative_complex,
)
from srlab.facering import expected_lsop_length, sample_lsop
from srlab.koszul import KoszulComplex, koszul_homology_dims
from srlab.linalg import DEFAULT_PRIME, PrimeField, rank
from srlab.partition import (
    DoubleComplexSlice,
    PartitionComplexSpec,
    ReducedPartitionComplex,
    partition_homology_dims,
    reduced_partition_homology,
)

F = PrimeField(DEFAULT_PRIME)


def _full_rank_homology(dims: dict, diffs: dict, p: int) -> dict:
    """{i: dim C^i - rank d^(i-1) - rank d^i}, every d^i ranked whole."""
    ranks = {i: rank(d, p) for i, d in diffs.items()}
    return {i: dim - ranks.get(i - 1, 0) - ranks.get(i, 0) for i, dim in dims.items()}


def _theta(psi, field):
    theta = sample_lsop(psi, expected_lsop_length(psi), 0, field, budget=4000)
    assert theta is not None
    return theta


@pytest.mark.parametrize("name,q", [("torus7", DEFAULT_PRIME), ("moebius", DEFAULT_PRIME),
                                    ("rp2_6", DEFAULT_PRIME), ("rp2_6", 2)])
def test_koszul_tables_match_full_ranks(name, q):
    psi = builtin_complex(name)
    field = PrimeField(q)
    theta = _theta(psi, field)
    K = KoszulComplex(psi, theta, field)
    n, top = K.n, psi.dim + 3
    # the strand of shifted degree j holds K^i at coefficient degree j - n + i
    strands = {}
    for j in range(top + n + 1):
        dims = {i: K.space_dim(i, j - n + i) for i in range(n + 1)}
        diffs = {i: K.differential(i, j - n + i) for i in range(n)}
        strands[j] = _full_rank_homology(dims, diffs, q)
    shifted = koszul_homology_dims(psi, theta, field, grading="shifted", max_degree=top)
    natural = koszul_homology_dims(psi, theta, field, grading="natural", max_degree=top)
    assert shifted == {(i, j): strands[j][i] for i in range(n + 1) for j in range(top + 1)}
    assert natural == {(i, t): strands[t + n - i][i] for i in range(n + 1)
                       for t in range(top + 1)}
    assert any(shifted.values())


def _partition_oracle(space_dim, differential, top: int, max_degree: int, p: int) -> dict:
    out = {}
    for j in range(max_degree + 1):
        dims = {i: space_dim(i, j) for i in range(-1, top + 1)}
        diffs = {i: differential(i, j) for i in range(-1, top)}
        for i, h in _full_rank_homology(dims, diffs, p).items():
            out[(i, j)] = h
    return out


def _gammas(psi, rng):
    """Delta of psi over a void Gamma, over {emptyset} and over a proper Gamma."""
    delta = psi.delta
    proper = psi.gamma
    if not proper.vertex_masks():
        proper = SimplicialComplex(delta.labels, [rng.choice(delta.vertex_masks())])
    return [RelativeComplex(delta),
            RelativeComplex(delta, SimplicialComplex.empty_faces_only(delta.labels)),
            RelativeComplex(delta, proper)]


def _support_route_matches_oracle(pspec, field, dim):
    """Every window of the support route against the matrix oracle on the widest."""
    windows = (0, 1, dim + 2, dim + 5)
    want = _partition_oracle(pspec.space_dim, lambda i, j: pspec.differential(i, j, field),
                             pspec.max_position, windows[-1], field.p)
    for w in windows:
        assert pspec.homology_dims(field, max_degree=w) == {
            (i, j): h for (i, j), h in want.items() if j <= w}
    return want


def test_partition_tables_match_full_ranks_on_random_pairs():
    rng = random.Random(909)
    checked = 0
    while checked < 20:
        psi = random_relative_complex(rng, max_vertices=5)
        if psi.delta.dim is None or psi.delta.dim < 0:
            continue
        checked += 1
        for pair in _gammas(psi, rng):
            dim = pair.dim if pair.dim is not None else -1
            for q in (2, 3, DEFAULT_PRIME):
                want = _support_route_matches_oracle(PartitionComplexSpec.full(pair),
                                                     PrimeField(q), dim)
                if q == DEFAULT_PRIME:
                    assert partition_homology_dims(pair, F) == {
                        (i, j): h for (i, j), h in want.items() if j <= dim + 2}

        if psi.is_void:
            continue
        pspec = PartitionComplexSpec.full(psi)
        theta = _theta(psi, F)
        reduced = ReducedPartitionComplex(pspec, theta, F)
        want = _partition_oracle(reduced.space_dim, reduced.differential,
                                 pspec.max_position, psi.dim + 2, F.p)
        assert reduced_partition_homology(psi, theta, F) == want


def _disk(facets):
    delta = SimplicialComplex.from_facets(range(6), facets)
    return RelativeComplex(delta, delta.boundary_subcomplex())


@pytest.mark.parametrize("disk,exact", [
    (builtin_complex("disk_with_induced_boundary_2"), True),
    (_disk([(0, v, v % 5 + 1) for v in range(1, 6)]), True),  # cone with apex 0
    (_disk([(1, 2, 3)]), False),  # no interior vertex: only k[Delta] in front
], ids=["induced_disk", "pentagon_cone", "triangle"])
@pytest.mark.parametrize("q", [2, 3, DEFAULT_PRIME])
def test_interior_tables_match_full_ranks(disk, exact, q):
    pspec = PartitionComplexSpec.interior(disk)
    want = _support_route_matches_oracle(pspec, PrimeField(q), disk.delta.dim)
    assert exact == (not any(want.values()))


def _barycentric_triangle_disk():
    bary = SimplicialComplex.from_facets((1, 2, 3), [(1, 2, 3)]).barycentric_subdivision()
    return RelativeComplex(bary, bary.boundary_subcomplex())


@pytest.mark.parametrize("disk", [builtin_complex("disk_with_induced_boundary_2"),
                                  _barycentric_triangle_disk()],
                         ids=["induced_disk", "barycentric_triangle"])
@pytest.mark.parametrize("q", [2, 3, DEFAULT_PRIME])
def test_reduced_interior_tables_match_full_ranks(disk, q):
    field = PrimeField(q)
    pspec = PartitionComplexSpec.interior(disk)
    reduced = ReducedPartitionComplex(pspec, _theta(disk.delta, field), field)
    top = disk.delta.dim + 2
    want = _partition_oracle(reduced.space_dim, reduced.differential,
                             pspec.max_position, top, q)
    assert reduced.homology_dims(max_degree=top) == want


@pytest.mark.parametrize("name,q", [("rp2_6", 2), ("rp2_6", 3), ("torus7", DEFAULT_PRIME),
                                    ("boundary_simplex_3", DEFAULT_PRIME)])
def test_total_complex_tables_match_full_ranks(name, q):
    psi = builtin_complex(name)
    field = PrimeField(q)
    theta = _theta(psi, field)
    pspec = PartitionComplexSpec.full(psi)
    nonzero = 0
    for j in range(psi.dim + 3):
        sl = DoubleComplexSlice(pspec, theta, field, j)
        ks = range(-1, pspec.max_position + sl.n + 1)
        dims = {k: sl.tot_dim(k) for k in ks}
        diffs = {k: sl.tot_differential(k) for k in ks if k + 1 in dims}
        want = _full_rank_homology(dims, diffs, q)
        assert DoubleComplexSlice(pspec, theta, field, j).homology_dims() == want
        nonzero += sum(want.values())
    # RP^2 has no reduced cohomology over F_3, so neither has its total complex
    assert bool(nonzero) == ((name, q) != ("rp2_6", 3))

"""LazyHomology drops the columns the map into a cell pivoted on; its tables
must equal dim - rank - rank with every differential ranked whole.

Each oracle below ranks the unreduced matrices of one chain (a Koszul
strand, a degree of a partition complex, a double-complex slice) through
``rank`` alone and compares the result with the library's table.
"""

import random

import pytest

from srlab.complexes import builtin_complex, random_relative_complex
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


def test_partition_tables_match_full_ranks_on_random_pairs():
    rng = random.Random(909)
    checked = 0
    while checked < 20:
        psi = random_relative_complex(rng, max_vertices=5)
        if psi.is_void:
            continue
        checked += 1
        max_degree = psi.dim + 2
        pspec = PartitionComplexSpec.full(psi)
        want = _partition_oracle(pspec.space_dim,
                                 lambda i, j: pspec.differential(i, j, F),
                                 pspec.max_position, max_degree, F.p)
        assert partition_homology_dims(psi, F) == want

        theta = _theta(psi, F)
        reduced = ReducedPartitionComplex(pspec, theta, F)
        want = _partition_oracle(reduced.space_dim, reduced.differential,
                                 pspec.max_position, max_degree, F.p)
        assert reduced_partition_homology(psi, theta, F) == want


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

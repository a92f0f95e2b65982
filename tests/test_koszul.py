import math
from itertools import combinations

import numpy as np
import pytest

from srlab import koszul
from srlab.complexes import (
    BUILTIN_EXAMPLES,
    RelativeComplex,
    SimplicialComplex,
    builtin_complex,
    random_relative_complex,
)
from srlab.facering import (
    LinearFormSequence,
    _mult_pattern,
    expected_lsop_length,
    hilbert_certificate,
    lsop_trials,
    monomial_basis,
    multiplication_matrix,
    quotient_presentation,
    sample_lsop,
)
from srlab.koszul import KoszulComplex, KoszulError, depth, is_algebraically_cm, koszul_homology_dims
from srlab.linalg import DEFAULT_PRIME, PrimeField, SparseMatrix, kernel_basis, rank

import random

from test_facering import variable_form

F = PrimeField(DEFAULT_PRIME)


def lsop(psi, seed=0, field=F):
    theta = sample_lsop(psi, expected_lsop_length(psi), seed, field)
    assert theta is not None
    return theta


def test_point_homology_is_one_dimensional_at_the_top():
    pt = builtin_complex("simplex_0")
    theta = [variable_form(pt, pt.delta.labels[0], F)]
    K = KoszulComplex(pt, theta, F)
    nonzero = [(i, t, K.homology_dim(i, t)) for i in range(K.n + 1)
               for t in range(5) if K.homology_dim(i, t)]
    assert nonzero == [(1, 0, 1)]


def test_sphere_homology_concentrated_in_top_position():
    bs3 = builtin_complex("boundary_simplex_3")
    table = koszul_homology_dims(bs3, lsop(bs3), F)
    assert {k: v for k, v in table.items() if v} == {(3, 0): 1, (3, 1): 1, (3, 2): 1, (3, 3): 1}


def test_torus_shifted_homology_table():
    tor = builtin_complex("torus7")
    table = koszul_homology_dims(tor, lsop(tor), F)
    # position 2 obstruction is the rank-2 cohomology of the torus
    assert {k: v for k, v in table.items() if v} == {
        (2, 3): 2, (3, 0): 1, (3, 1): 4, (3, 2): 10, (3, 3): 1}


def test_shifted_and_natural_gradings_are_reindexings():
    tor = builtin_complex("torus7")
    theta = lsop(tor)
    shifted = koszul_homology_dims(tor, theta, F, grading="shifted", max_degree=5)
    natural = koszul_homology_dims(tor, theta, F, grading="natural", max_degree=5)
    n = len(theta)
    for (i, j), dim in shifted.items():
        t = j - (n - i)
        if 0 <= t <= 5:
            assert natural[(i, t)] == dim
    assert {k: v for k, v in natural.items() if v} == {
        (2, 2): 2, (3, 0): 1, (3, 1): 4, (3, 2): 10, (3, 3): 1}
    with pytest.raises(KoszulError):
        koszul_homology_dims(tor, theta, F, grading="weighted")


def test_top_position_recovers_the_quotient_dimensions():
    rng = random.Random(91)
    seen = 0
    for _ in range(12):
        psi = random_relative_complex(rng, max_vertices=5)
        if psi.is_void:
            continue
        theta = sample_lsop(psi, expected_lsop_length(psi), rng.randint(0, 10**6), F)
        if theta is None:
            continue
        K = KoszulComplex(psi, theta, F)
        q = quotient_presentation(psi, theta, F)
        for t in range(q.cap + 1):
            assert K.homology_dim(K.n, t) == q.dim(t)
        seen += 1
    assert seen >= 6


def dense_koszul_step(modules, theta, i, t, field):
    """The Koszul map on the direct sum of modules, 0 <= i < n, assembled densely.

    Each form acts by the block diagonal of its multiplication matrices on
    the summands; the block e_S -> e_{S + u} carries theta_u with sign
    (-1)^{#{s in S : s < u}}.
    """
    n = len(theta)
    msrc = sum(len(monomial_basis(mod, t)) for mod in modules) if t >= 0 else 0
    mdst = sum(len(monomial_basis(mod, t + 1)) for mod in modules) if t >= -1 else 0
    mat = np.zeros((math.comb(n, i + 1) * mdst, math.comb(n, i) * msrc), dtype=np.int64)
    if not mat.size:
        return mat
    p = field.p
    dst_index = {S: k for k, S in enumerate(combinations(range(n), i + 1))}
    mults = {}
    for u in range(n):
        diag = np.zeros((mdst, msrc), dtype=np.int64)
        r = c = 0
        for mod in modules:
            sb = len(monomial_basis(mod, t))
            db = len(monomial_basis(mod, t + 1))
            if sb and db:
                diag[r:r + db, c:c + sb] = multiplication_matrix(mod, theta[u], t, field)
            r += db
            c += sb
        mults[u] = diag
    for ci, S in enumerate(combinations(range(n), i)):
        for u in range(n):
            if u in S:
                continue
            block = mults[u]
            if sum(1 for s in S if s < u) % 2:
                block = (p - block) % p
            ri = dst_index[tuple(sorted(S + (u,)))]
            mat[ri * mdst:(ri + 1) * mdst, ci * msrc:(ci + 1) * msrc] = block
    return mat


def _sum_dims(modules, t):
    """(dim M_t, dim M_{t+1}) of the direct sum M of modules; 0 in negative degree."""
    return tuple(sum(len(monomial_basis(mod, s)) for mod in modules) if s >= 0 else 0
                 for s in (t, t + 1))


def direct_sum_pattern(modules, t):
    """The summands' multiplication patterns from degree t, down the diagonal of the sum."""
    rows, cols, verts = [], [], []
    r = c = 0
    for mod in modules:
        pr, pc, pv = _mult_pattern(mod, t)
        rows.append(pr + r)
        cols.append(pc + c)
        verts.append(pv)
        r += len(monomial_basis(mod, t + 1))
        c += len(monomial_basis(mod, t))
    return tuple(np.concatenate(x) for x in (rows, cols, verts))


def blockwise_koszul_step(modules, theta, i, t, p):
    """The Koszul map as one SparseMatrix per form placed block by block.

    Each form's matrix carries the summands' patterns down its diagonal;
    the block e_S -> e_{S + u} is placed for S lexicographic, then u
    ascending, negated for an odd count of s < u.
    """
    n = len(theta)
    msrc, mdst = _sum_dims(modules, t)
    shape = (math.comb(n, i + 1) * mdst if i >= -1 else 0, math.comb(n, i) * msrc if i >= 0 else 0)
    if 0 in shape:
        return SparseMatrix(shape, [], [], [], p)
    rows, cols, verts = direct_sum_pattern(modules, t)
    mults = [SparseMatrix((mdst, msrc), rows, cols, np.array(form, dtype=np.int64)[verts], p)
             for form in theta]
    dst_index = {S: k for k, S in enumerate(combinations(range(n), i + 1))}
    blocks = []
    for ci, S in enumerate(combinations(range(n), i)):
        for u in range(n):
            if u not in S:
                sign = -1 if sum(1 for s in S if s < u) % 2 else 1
                ri = dst_index[tuple(sorted(S + (u,)))]
                blocks.append((ri * mdst, ci * msrc, mults[u], sign))
    return SparseMatrix.from_blocks(shape, blocks, p)


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
def test_broadcast_koszul_step_keeps_the_blockwise_entry_order(p):
    # the same (rows, cols, vals) in the same order keep every pivot sequence
    field = PrimeField(p)
    for name in ("torus7", "disk_with_induced_boundary_2", "two_points"):
        psi = builtin_complex(name)
        theta = LinearFormSequence.random(psi, expected_lsop_length(psi), 11, field)
        stars = [psi.star(v) for v in psi.delta.vertex_masks()]
        for modules in ([psi], stars):
            for t in range(-1, psi.dim + 3):
                pattern = direct_sum_pattern(modules, t) if t >= 0 else None
                for i in range(-1, len(theta) + 2):
                    got = koszul.koszul_step(pattern, _sum_dims(modules, t), theta, i, p)
                    want = blockwise_koszul_step(modules, theta, i, t, p)
                    assert got.shape == want.shape
                    for x, y in ((got.rows, want.rows), (got.cols, want.cols),
                                 (got.vals, want.vals)):
                        assert x.dtype == y.dtype and x.tolist() == y.tolist()


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
@pytest.mark.parametrize("name", sorted(BUILTIN_EXAMPLES))
def test_sparse_koszul_differential_equals_the_dense_assembly(name, p):
    psi = builtin_complex(name)
    field = PrimeField(p)
    # any forms do: the builder does not need a parameter system
    theta = LinearFormSequence.random(psi, expected_lsop_length(psi), 5, field)
    K = KoszulComplex(psi, theta, field)
    for i in range(-1, K.n + 2):
        for t in range(-1, psi.dim + 4):
            got = K.differential(i, t)
            assert isinstance(got, SparseMatrix)
            assert got.shape == (K.space_dim(i + 1, t + 1), K.space_dim(i, t))
            if 0 <= i < K.n:
                assert np.array_equal(got.toarray(), dense_koszul_step([psi], theta, i, t, field))
            else:
                assert got.rows.size == 0


def test_differential_squares_to_zero():
    for name in ("boundary_simplex_2", "two_points", "moebius"):
        psi = builtin_complex(name)
        theta = lsop(psi)
        K = KoszulComplex(psi, theta, F)
        for i in range(K.n):
            for t in range(3):
                left = K.differential(i + 1, t + 1).toarray()
                right = K.differential(i, t).toarray()
                if left.size and right.size:
                    assert not (left @ right % F.p).any()


def test_wedge_differential_signs_on_an_edge():
    edge = builtin_complex("simplex_1")
    a, b = edge.delta.labels
    theta = [variable_form(edge, a, F), variable_form(edge, b, F)]
    K = KoszulComplex(edge, theta, F)
    p = F.p
    # degree-1 monomial basis is (x_a, x_b); e_0 picks up -theta_1, e_1 picks up +theta_0
    assert K.differential(1, 0).toarray().tolist() == [[0, 1], [p - 1, 0]]
    assert K.differential(0, 0).toarray().tolist() == [[1], [0], [0], [1]]


def test_depth_oracles():
    assert depth(builtin_complex("boundary_simplex_3"),
                 lsop(builtin_complex("boundary_simplex_3")), F) == 3
    assert depth(builtin_complex("torus7"), lsop(builtin_complex("torus7")), F) == 2
    tp = builtin_complex("two_points")
    assert depth(tp, lsop(tp), F) == 1


def test_nonpure_complex_has_low_depth():
    # two isolated points next to an edge: dimension 1 but depth only 1
    psi = RelativeComplex(SimplicialComplex.from_facets((1, 2, 3, 4), [(1,), (2,), (3, 4)]))
    assert expected_lsop_length(psi) == 2
    theta = lsop(psi)
    assert depth(psi, theta, F) == 1
    natural = koszul_homology_dims(psi, theta, F, grading="natural", max_degree=4)
    assert sum(v for (i, _), v in natural.items() if i == 1) > 0
    assert all(v == 0 for (i, _), v in natural.items() if i == 0)


def test_depth_is_seed_independent():
    for name in ("torus7", "boundary_simplex_2", "moebius"):
        psi = builtin_complex(name)
        depths = {depth(psi, lsop(psi, seed=s), F) for s in (0, 1, 2)}
        assert len(depths) == 1


def test_forms_in_the_ideal_annihilate_homology():
    cases = [
        builtin_complex("boundary_simplex_2"),
        RelativeComplex(SimplicialComplex.from_facets((1, 2, 3, 4), [(1,), (2,), (3, 4)])),
    ]
    p = F.p
    checked = 0
    for psi in cases:
        theta = lsop(psi)
        K = KoszulComplex(psi, theta, F)
        combo = tuple((theta[0][k] + theta[-1][k]) % p for k in range(len(theta[0])))
        for i in range(K.n + 1):
            for t in range(5):
                if K.homology_dim(i, t) <= 0 or K.module_dim(t) == 0:
                    continue
                out = K.differential(i, t).toarray()
                cycles = kernel_basis(out, p) if out.size else np.eye(K.space_dim(i, t), dtype=np.int64)
                boundaries = K.differential(i - 1, t).toarray()
                for z in (theta[0], combo):
                    mult = np.kron(np.eye(math.comb(K.n, i), dtype=np.int64),
                                   multiplication_matrix(psi, z, t, F))
                    for col in range(cycles.shape[1]):
                        w = mult @ cycles[:, col] % p
                        nxt = K.differential(i, t + 1).toarray()
                        if nxt.size:
                            assert not (nxt @ w % p).any()
                        stacked = np.hstack([boundaries, w[:, None]]) if boundaries.size else w[:, None]
                        assert rank(stacked, p) == rank(boundaries, p)
                        checked += 1
    assert checked >= 20


def test_long_sequences_vanish_in_the_low_shifted_window():
    # dimension-k sphere with n = d+1 > k+1 generic forms: positions up to
    # k+1 carry nothing in shifted degrees up to d/2 once the quotient has
    # the full multiplication property
    cases = [("boundary_simplex_2", 4), ("cross_polytope_2", 4),
             ("boundary_simplex_3", 4), ("boundary_simplex_2", 5)]
    from srlab.facering import lsop_certificate, random_linear_forms
    for name, n in cases:
        psi = builtin_complex(name)
        k = psi.dim
        d = n - 1
        theta = None
        for s in range(5):
            cand = random_linear_forms(psi.delta, n, s, F)
            if lsop_certificate(psi, list(cand)[:k + 1], F):
                theta = cand
                break
        assert theta is not None
        table = koszul_homology_dims(psi, theta, F, max_degree=d // 2 + 1)
        assert all(v == 0 for (i, j), v in table.items() if i <= k + 1 and j <= d // 2)
        assert any(v for (i, j), v in table.items() if i > k + 1)


def test_cm_verdicts_on_known_complexes():
    res = is_algebraically_cm(builtin_complex("boundary_simplex_3"))
    assert res["cm"] and res["depth"] == res["expected_depth"] == 3
    assert res["trials"] == [{"seed": 0, "found_lsop": True, "depth": 3}]
    assert not res["inconclusive"] and res["prime"] == DEFAULT_PRIME

    res = is_algebraically_cm(builtin_complex("torus7"))
    assert not res["cm"] and res["depth"] == 2 and res["expected_depth"] == 3
    assert all(row["found_lsop"] for row in res["trials"])

    res = is_algebraically_cm(builtin_complex("rp2_6"), PrimeField(2), budget=4000)
    assert not res["cm"] and res["depth"] == 2

    res = is_algebraically_cm(builtin_complex("rp2_6"), PrimeField(3), budget=4000)
    assert res["cm"] and res["depth"] == 3


def test_cm_takes_a_known_depth_without_scanning(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("depth computed although it was given")

    monkeypatch.setattr(koszul, "depth", refuse)
    monkeypatch.setattr(koszul, "reisner_link_table", refuse)
    torus = builtin_complex("torus7")
    res = is_algebraically_cm(torus, known_depth=2)
    assert not res["cm"] and res["depth"] == 2
    assert [row["depth"] for row in res["trials"]] == [2]
    # a given full depth under a non-CM certificate is recorded, not raised:
    # the caller compares the routes
    res = is_algebraically_cm(torus, known_depth=3)
    assert not res["cm"] and res["depth"] == res["expected_depth"] == 3
    # a CM certificate records full depth whatever was given
    res = is_algebraically_cm(builtin_complex("boundary_simplex_3"), known_depth=1)
    assert res["cm"] and res["trials"] == [{"seed": 0, "found_lsop": True, "depth": 3}]


def _assert_routes_agree(psi, field) -> set[bool]:
    """Hilbert certificate vs Koszul depth on every certified trial; returns the verdicts."""
    expected = expected_lsop_length(psi)
    budget = 2000 if field.p < 100 else 20000
    verdicts = set()
    for _, theta in lsop_trials(psi, 0, field, trials=3, budget=budget):
        if theta is not None:
            cm = hilbert_certificate(psi, theta, field)
            assert cm == (depth(psi, theta, field) == expected)
            verdicts.add(cm)
    return verdicts


ROUTE_FIELDS = (PrimeField(2), PrimeField(3), F)


@pytest.mark.parametrize("field", ROUTE_FIELDS, ids=lambda f: str(f.p))
@pytest.mark.parametrize("name", sorted(BUILTIN_EXAMPLES))
def test_hilbert_certificate_agrees_with_koszul_depth_on_builtins(name, field):
    _assert_routes_agree(builtin_complex(name), field)


def test_hilbert_certificate_agrees_with_koszul_depth_on_random_pairs():
    rng = random.Random(2024)
    cases = [psi for psi in (random_relative_complex(rng) for _ in range(100)) if not psi.is_void]
    assert any(not psi.is_absolute for psi in cases)
    assert any(len({bin(f).count("1") for f in psi.delta.facets()}) > 1 for psi in cases)
    verdicts = set()
    for k, psi in enumerate(cases):
        verdicts |= _assert_routes_agree(psi, ROUTE_FIELDS[k % 3])
    assert verdicts == {True, False}


def test_cm_on_the_zero_module_is_vacuously_true():
    void = RelativeComplex(SimplicialComplex.void_complex((1, 2)))
    res = is_algebraically_cm(void)
    assert res["cm"] and res["note"] == "zero module"
    with pytest.raises(KoszulError):
        depth(void, LinearFormSequence([], F.p), F)


def test_depth_requires_a_window_that_sees_homology():
    disk = builtin_complex("disk_with_induced_boundary_2")
    theta = lsop(disk)
    assert depth(disk, theta, F) == 3


def test_mismatched_coefficient_fields_are_rejected():
    psi = builtin_complex("two_points")
    theta = LinearFormSequence([(1, 1)], 7)
    with pytest.raises(KoszulError):
        KoszulComplex(psi, theta, PrimeField(11))


def test_positions_outside_the_complex_are_zero():
    psi = builtin_complex("simplex_1")
    theta = lsop(psi)
    K = KoszulComplex(psi, theta, F)
    assert K.space_dim(-1, 2) == 0
    assert K.space_dim(K.n + 1, 2) == 0
    assert K.homology_dim(0, -1) == 0
    assert K.homology_dim(K.n + 1, 3) == 0

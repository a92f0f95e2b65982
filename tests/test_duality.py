import random

import numpy as np
import pytest

from srlab import facering
from srlab.complexes import (
    BUILTIN_EXAMPLES,
    FaceLinkCohomology,
    RelativeComplex,
    SimplicialComplex,
    _popcount,
    as_relative,
    betti_numbers,
    builtin_complex,
    f_h_vectors,
    random_relative_complex,
)
from srlab.duality import (
    DualityError,
    _ClosedManifold,
    build_B,
    cone_lemma_check,
    is_poincare_duality_algebra,
    manifold_sanity_check,
    pairing_rank,
    poincare_duality_report,
    socle_dims,
)
from srlab.facering import (
    LinearFormSequence,
    expected_lsop_length,
    monomial_basis,
    quotient_presentation,
    sample_lsop,
)
from srlab.linalg import DEFAULT_PRIME, FrozenQuotient, PrimeField, kernel_basis, matmul, rank
from srlab.partition import PartitionComplexSpec, ReducedPartitionComplex, restriction_matrix

F = PrimeField(DEFAULT_PRIME)


def lsop(psi, seed=0, field=F, budget=20000):
    theta = sample_lsop(psi, expected_lsop_length(psi), seed, field, budget=budget)
    assert theta is not None
    return theta


def vertex_stars(delta):
    """The face set of every vertex star of delta, in vertex order."""
    return [frozenset(f for f in delta.faces if f | v in delta.faces) for v in delta.vertex_masks()]


def j_bases(A):
    """{i: J_i} for i < n = dim + 1: the kernel of A_i -> directsum_v A(st_v)_i in A_i coordinates."""
    stars = vertex_stars(A.psi.delta)
    return {i: A.restriction_kernel(i, stars) for i in range(A.psi.dim + 1)}


def j_dims(A, B, up_to):
    """dim J_i = dim A_i - dim B_i for i <= up_to."""
    return [A.dim(i) - B.dim(i) for i in range(up_to + 1)]


def annihilator_ok(A) -> bool:
    """Check x_v * J_i = 0 in A_{i+1} for every vertex v and degree i."""
    nvert = len(A.psi.delta.labels)
    for i, jb in j_bases(A).items():
        if jb.shape[1] == 0:
            continue
        for k in range(nvert):
            unit = tuple(int(m == k) for m in range(nvert))
            if matmul(A.quotient_mult_matrix(unit, i), jb, A.field.p).any():
                return False
    return True


def test_manifold_sanity_check_names_offending_faces():
    tor = builtin_complex("torus7")
    assert manifold_sanity_check(tor.delta, F) == {-1: 0, 0: 0, 1: 2, 2: 1}

    with pytest.raises(DualityError, match=r"link of face \(1,\)"):
        manifold_sanity_check(builtin_complex("moebius").delta, F)
    with pytest.raises(DualityError, match=r"link of face \(1,\)"):
        manifold_sanity_check(builtin_complex("path_4").delta, F)
    with pytest.raises(DualityError, match="not connected"):
        manifold_sanity_check(builtin_complex("two_points").delta, F)

    # vertex 1 of the bowtie has a single edge as its link, a ball not a sphere
    bow = SimplicialComplex.from_facets((1, 2, 3, 4, 5), [(1, 2, 3), (3, 4, 5)])
    with pytest.raises(DualityError, match=r"link of face \(1,\)"):
        manifold_sanity_check(bow, F)
    with pytest.raises(DualityError, match="not pure"):
        manifold_sanity_check(SimplicialComplex.from_facets((1, 2, 3), [(1, 2), (3,)]), F)
    with pytest.raises(DualityError, match="void"):
        manifold_sanity_check(SimplicialComplex.void_complex((1,)), F)


def test_sphere_quotient_is_already_self_dual():
    bs3 = builtin_complex("boundary_simplex_3")
    theta = lsop(bs3)
    P = build_B(bs3.delta, theta, F)
    assert j_dims(quotient_presentation(bs3, theta, F), P, 3) == [0, 0, 0, 0]
    assert P.dims_list(3) == [1, 1, 1, 1]
    assert is_poincare_duality_algebra(P)
    assert socle_dims(P) == {3: 1}
    assert pairing_rank(P, 1) == {"rank": 1, "full": True, "dim_left": 1, "dim_right": 1}
    assert pairing_rank(P, 0)["full"]


def test_torus_duality_quotient():
    tor = builtin_complex("torus7")
    theta = lsop(tor)
    P = build_B(tor.delta, theta, F)
    A = quotient_presentation(tor, theta, F)
    assert P.dims_list(3) == [1, 4, 4, 1]
    assert j_dims(A, P, 3) == [0, 0, 6, 0]
    assert _ClosedManifold(tor, F).betti == {-1: 0, 0: 0, 1: 2, 2: 1}
    assert annihilator_ok(A)
    rep = poincare_duality_report(P)
    assert rep["fundamental_degree"] == 3
    assert rep["pd"] and rep["routes"] == {"pairing": True, "socle": True}
    assert rep["pairings"][1] == {"rank": 4, "full": True, "dim_left": 4, "dim_right": 4}
    assert rep["socle"] == {3: 1}


def _star_route_j_bases(delta, theta, field):
    """J_i as the kernel of A_i -> A(st_v)_i through one quotient per vertex star."""
    psi = as_relative(delta)
    p = field.p
    base = quotient_presentation(psi, theta, field)
    stars = [(st, quotient_presentation(st, theta, field))
             for st in map(psi.star, psi.delta.vertex_masks())]
    out = {}
    for i in range(psi.dim + 1):
        if base.dim(i) == 0:
            out[i] = np.zeros((0, 0), dtype=np.int64)
            continue
        lift = base.lift(i)
        blocks = [q.reduce(i, matmul(restriction_matrix(psi, st, i), lift, p)) for st, q in stars]
        out[i] = kernel_basis(np.vstack(blocks), p)
    return out


@pytest.mark.parametrize("name,p", [
    ("torus7", DEFAULT_PRIME), ("rp2_6", 2), ("rp2_6", 3),
    ("boundary_simplex_3", DEFAULT_PRIME), ("boundary_simplex_4", DEFAULT_PRIME),
    ("boundary_simplex_5", DEFAULT_PRIME), ("cross_polytope_3", DEFAULT_PRIME),
    ("cross_polytope_4", DEFAULT_PRIME),
])
def test_j_bases_match_the_star_quotient_route(name, p):
    psi = builtin_complex(name)
    field = PrimeField(p)
    nonzero = 0
    for seed in range(4):
        theta = lsop(psi, seed, field)
        A = quotient_presentation(psi, theta, field)
        got_bases = j_bases(A)
        want = _star_route_j_bases(psi.delta, theta, field)
        # from degree n on J is zero, in build_B as in the definition
        B = build_B(psi.delta, theta, field)
        assert all(B.dim(i) == A.dim(i) for i in A.dims if i not in want)
        for i, jb in want.items():
            got = got_bases[i]
            assert got.dtype == jb.dtype and got.shape == jb.shape
            assert got.tobytes() == jb.tobytes()
            nonzero += jb.shape[1]
    # the torus and the projective plane over F_2 have J_2 != 0 at every seed
    assert nonzero == {"torus7": 24, "rp2_6": 12 if p == 2 else 0}.get(name, 0)


def test_j_bases_match_the_star_quotient_route_on_64_vertices():
    # an 8 x 8 grid torus uses every vertex index up to the cap, 63 included
    def v(i, j):
        return (i % 8) * 8 + j % 8

    facets = [f for i in range(8) for j in range(8)
              for f in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)), (v(i, j), v(i, j + 1), v(i + 1, j + 1)))]
    tor = SimplicialComplex.from_facets(range(64), facets)
    theta = lsop(as_relative(tor))
    got = j_bases(quotient_presentation(tor, theta, F))
    want = _star_route_j_bases(tor, theta, F)
    for i, jb in want.items():
        assert got[i].shape == jb.shape and got[i].tobytes() == jb.tobytes()
    assert [jb.shape[1] for jb in want.values()] == [0, 0, 6]


def test_build_B_builds_one_quotient_and_no_restriction(monkeypatch):
    built = []
    init = facering.GradedQuotientPresentation.__init__

    def spy(self, psi, *args, **kwargs):
        built.append(psi)
        init(self, psi, *args, **kwargs)

    monkeypatch.setattr(facering.GradedQuotientPresentation, "__init__", spy)
    mapped = []
    restrictions = PartitionComplexSpec._restrictions
    monkeypatch.setattr(PartitionComplexSpec, "_restrictions",
                        lambda *args: mapped.append(args) or restrictions(*args))
    for name in ("torus7", "cross_polytope_3"):
        psi = builtin_complex(name)
        theta = lsop(psi)
        built.clear()
        P = build_B(psi.delta, theta, F)
        assert built == [psi] and not mapped
        A = quotient_presentation(psi, theta, F)
        assert j_dims(A, P, psi.dim + 1)[2] == (6 if name == "torus7" else 0)
    # the spy sees the maps of a star-cover differential
    PartitionComplexSpec.full(psi).differential(-1, 1, F)
    assert mapped


def _sanity_check_by_links(delta, field):
    """``manifold_sanity_check`` with the Betti numbers of every face link computed.

    Returns the Betti numbers, or the message of the error it raises.
    """
    try:
        dc = as_relative(delta).delta
        d = dc.dim
        if d is None or dc.is_void:
            raise DualityError("the void complex is not a manifold candidate")
        if not dc.is_pure():
            raise DualityError("complex is not pure")
        bet = betti_numbers(as_relative(dc), field)
        if bet.get(0, 0) != 0:
            raise DualityError("complex is not connected")
        for tau in sorted(dc.faces):
            if tau == 0:
                continue
            expected = d - _popcount(tau)
            got = {i: v for i, v in betti_numbers(as_relative(dc.link(tau)), field).items() if v}
            if got != {expected: 1}:
                raise DualityError(
                    f"link of face {dc.labels_of(tau)} is not a homology "
                    f"{expected}-sphere over F_{field.p}")
        return bet
    except DualityError as exc:
        return str(exc)


def _sanity_outcome(delta, field):
    try:
        return manifold_sanity_check(delta, field)
    except DualityError as exc:
        return str(exc)


# pure connected 2-complexes whose first offender in face order is the ridge (1, 2)
RIDGE_IN_ONE_FACET = [(3, 4, 5), (3, 4, 6), (1, 2, 4), (1, 3, 5), (1, 5, 6), (2, 3, 4), (2, 3, 5),
                      (2, 4, 5), (1, 4, 6), (1, 3, 4)]
RIDGE_IN_THREE_FACETS = [(2, 3, 6), (3, 4, 5), (1, 2, 3), (1, 2, 6), (1, 2, 4), (1, 5, 6),
                         (1, 4, 6), (3, 4, 6), (2, 5, 6)]


@pytest.mark.parametrize("facets,owners", [(RIDGE_IN_ONE_FACET, 1), (RIDGE_IN_THREE_FACETS, 3)])
def test_ridges_off_two_facets_raise_as_their_links_do(facets, owners):
    delta = SimplicialComplex.from_facets(tuple(range(1, 7)), facets)
    assert sum(set(f) >= {1, 2} for f in facets) == owners
    for field in (PrimeField(2), PrimeField(3), F):
        with pytest.raises(DualityError) as err:
            manifold_sanity_check(delta, field)
        assert str(err.value) == (f"link of face (1, 2) is not a homology 0-sphere "
                                  f"over F_{field.p}")
        assert str(err.value) == _sanity_check_by_links(delta, field)
    # in a graph the ridges are the vertices: vertex 1 lies on three edges, vertex 4 on one
    claw = SimplicialComplex.from_facets((1, 2, 3, 4), [(1, 2), (1, 3), (1, 4), (2, 3)])
    assert _sanity_outcome(claw, F) == _sanity_check_by_links(claw, F) == (
        f"link of face (1,) is not a homology 0-sphere over F_{F.p}")


def test_sanity_check_counts_facets_and_ridges_and_agrees_with_every_link():
    rng = random.Random(21)
    cases = [builtin_complex(name).delta for name in BUILTIN_EXAMPLES]
    cases += [builtin_complex(name).delta for name in
              ("boundary_simplex_4", "cross_polytope_4", "path_2")]
    cases += [SimplicialComplex.from_facets((1, 2, 3, 4), edges) for edges in
              ([(1, 2), (2, 3), (3, 4), (1, 4)], [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])]
    cases += [SimplicialComplex.from_facets(tuple(range(1, 7)), f)
              for f in (RIDGE_IN_ONE_FACET, RIDGE_IN_THREE_FACETS)]
    cases += [random_relative_complex(rng, max_vertices=6).delta for _ in range(60)]
    passed = 0
    for delta in cases:
        for field in (PrimeField(2), PrimeField(3), F):
            want = _sanity_check_by_links(delta, field)
            assert _sanity_outcome(delta, field) == want
            passed += isinstance(want, dict)
    assert passed >= 15


def test_sanity_check_computes_no_facet_or_ridge_link(monkeypatch):
    linked = []
    real = FaceLinkCohomology._link
    monkeypatch.setattr(FaceLinkCohomology, "_link",
                        lambda table, tau: linked.append(tau) or real(table, tau))
    tor = builtin_complex("torus7").delta
    assert manifold_sanity_check(tor, F) == {-1: 0, 0: 0, 1: 2, 2: 1}
    # the whole complex, then the seven vertex links only, each read off the one table
    assert linked == [0] + tor.vertex_masks()


def test_unquotiented_torus_algebra_is_not_self_dual():
    tor = builtin_complex("torus7")
    A = quotient_presentation(tor, lsop(tor), F)
    rep = poincare_duality_report(A)
    assert not rep["pd"]
    assert rep["fundamental_degree"] == 3 and rep["vanish_above_fundamental"]
    assert rep["pairings"][1] == {"rank": 4, "full": False, "dim_left": 4, "dim_right": 10}
    assert rep["socle"] == {2: 6, 3: 1}


def test_projective_plane_splits_by_field():
    rp2 = builtin_complex("rp2_6")

    f2 = PrimeField(2)
    theta = lsop(rp2, field=f2, budget=4000)
    P = build_B(rp2.delta, theta, f2)
    A = quotient_presentation(rp2, theta, f2)
    assert P.dims_list(3) == [1, 3, 3, 1]
    assert j_dims(A, P, 3) == [0, 0, 3, 0]
    assert _ClosedManifold(rp2, f2).betti[2] == 1
    assert is_poincare_duality_algebra(P)
    assert annihilator_ok(A)
    # J by the star-quotient route: dim - rank of the map out of position -1
    reduced = ReducedPartitionComplex(PartitionComplexSpec.full(rp2), theta, f2)
    assert [reduced.space_dim(-1, j) - rank(reduced.differential(-1, j), 2)
            for j in range(3)] == j_dims(A, P, 2)

    f3 = PrimeField(3)
    theta = lsop(rp2, field=f3, budget=4000)
    P = build_B(rp2.delta, theta, f3)
    assert P.dims_list(3) == [1, 3, 6, 0]
    assert j_dims(quotient_presentation(rp2, theta, f3), P, 3) == [0, 0, 0, 0]
    assert _ClosedManifold(rp2, f3).betti[2] == 0
    assert not is_poincare_duality_algebra(P)
    assert socle_dims(P) == {2: 6}
    with pytest.raises(DualityError, match="dimension 0, expected 1"):
        pairing_rank(P, 1)


def test_socle_of_a_fat_point_quotient():
    # two points cut by one generic form leave k[x]/<x^2>
    two = builtin_complex("two_points")
    A = quotient_presentation(two, lsop(two), F)
    assert A.dims_list(2) == [1, 1, 0]
    assert socle_dims(A) == {1: 1}


def test_cone_lemma_on_spheres_and_the_point():
    bs3 = builtin_complex("boundary_simplex_3")
    theta = lsop(bs3)
    for v in bs3.delta.labels:
        res = cone_lemma_check(bs3.delta, v, theta, F)
        assert res["pass"] and res["prime"] == F.p
        assert [res["degrees"][j]["star_dim"] for j in range(4)] == [1, 1, 1, 0]
        assert all(row["bijective"] for row in res["degrees"].values())

    pt = builtin_complex("simplex_0")
    res = cone_lemma_check(pt.delta, pt.delta.labels[0], lsop(pt), F)
    assert res["pass"]
    assert res["degrees"][0] == {"star_dim": 1, "shifted_open_dim": 1, "bijective": True}


def test_cone_lemma_on_every_torus_vertex():
    tor = builtin_complex("torus7")
    theta = lsop(tor)
    for v in tor.delta.labels:
        assert cone_lemma_check(tor.delta, v, theta, F)["pass"]


def test_open_stars_embed_into_A_and_B():
    tor = builtin_complex("torus7")
    theta = lsop(tor)
    A = quotient_presentation(tor, theta, F)
    P = build_B(tor.delta, theta, F)
    p = F.p
    for vmask in tor.delta.vertex_masks()[:3]:
        open_star = tor.open_star(vmask)
        q = quotient_presentation(open_star, theta, F)
        for j in range(1, tor.dim + 2):
            if q.dim(j) == 0:
                continue
            inc = restriction_matrix(tor, open_star, j).T
            image = matmul(inc, q.lift(j), p)
            assert rank(A.reduce(j, image), p) == q.dim(j)
            assert rank(P.reduce(j, image), p) == q.dim(j)


def test_sphere_h_vectors_and_B_dims_are_palindromic():
    for name in ("boundary_simplex_2", "cross_polytope_2"):
        psi = builtin_complex(name)
        h = f_h_vectors(psi).h
        assert list(h) == list(reversed(h))
        P = build_B(psi.delta, lsop(psi), F)
        dims = P.dims_list(psi.dim + 1)
        assert dims == dims[::-1]


def test_build_B_input_validation():
    tor = builtin_complex("torus7")
    theta = lsop(tor)

    bary = SimplicialComplex.from_facets((1, 2, 3), [(1, 2, 3)]).barycentric_subdivision()
    disk = RelativeComplex(bary, bary.boundary_subcomplex())
    with pytest.raises(DualityError, match="absolute"):
        build_B(disk, sample_lsop(disk, 3, 0, F), F)

    with pytest.raises(DualityError, match="different moduli"):
        build_B(tor.delta, LinearFormSequence([(1,) * 7] * 3, 7), F)

    zero = LinearFormSequence([(0,) * 7] * 3, F.p)
    with pytest.raises(DualityError, match="linear system of parameters"):
        build_B(tor.delta, zero, F)


class _BOverA:
    """B = A/J held in A coordinates: a ``FrozenQuotient`` of each A_i by J_i.

    The basis representatives are ``A.lift @ lift``, and a pairing entry
    multiplies two representatives monomial by monomial and reduces the
    sum through A_n and then B_n. An oracle for ``build_B``, which holds
    B as a quotient of k[Delta] instead.
    """

    def __init__(self, A):
        self.A = A
        self.p = A.field.p
        self.n = A.psi.dim + 1
        bases = j_bases(A)
        self.quotients = {i: FrozenQuotient(bases[i].T if i in bases
                                            else np.zeros((0, A.dim(i)), dtype=np.int64), self.p)
                          for i in A.dims}

    def dim(self, i):
        return self.quotients[i].dim if i in self.quotients else self.A.dim(i)

    def j_dim(self, i):
        return self.quotients[i].pivots.size if i in self.quotients else 0

    def mult_matrix(self, form, i):
        if self.dim(i) == 0 or self.dim(i + 1) == 0:
            return np.zeros((self.dim(i + 1), self.dim(i)), dtype=np.int64)
        raw = matmul(self.A.quotient_mult_matrix(form, i), self.quotients[i].lift(), self.p)
        return self.quotients[i + 1].reduce(raw)

    def pairing_rank(self, i):
        A, p, n = self.A, self.p, self.n
        if self.dim(n) != 1:
            raise DualityError(f"fundamental degree {n} has dimension {self.dim(n)}, expected 1")
        bi, bj = self.dim(i), self.dim(n - i)
        if bi == 0 or bj == 0:
            return {"rank": 0, "full": bi == bj, "dim_left": bi, "dim_right": bj}
        reps_i = matmul(A.lift(i), self.quotients[i].lift(), p)
        reps_j = matmul(A.lift(n - i), self.quotients[n - i].lift(), p)
        basis_i, basis_j = monomial_basis(A.psi, i), monomial_basis(A.psi, n - i)
        basis_n = monomial_basis(A.psi, n)
        mat = np.zeros((bi, bj), dtype=np.int64)
        for a in range(bi):
            for b in range(bj):
                acc = np.zeros((len(basis_n), 1), dtype=np.int64)
                for r1 in np.nonzero(reps_i[:, a])[0]:
                    for r2 in np.nonzero(reps_j[:, b])[0]:
                        target = basis_n.index.get(
                            tuple(x + y for x, y in zip(basis_i[int(r1)], basis_j[int(r2)])))
                        if target is not None:
                            acc[target, 0] = (acc[target, 0]
                                              + int(reps_i[r1, a]) * int(reps_j[r2, b])) % p
                mat[a, b] = int(self.quotients[n].reduce(A.reduce(n, acc))[0, 0])
        r = rank(mat, p)
        return {"rank": int(r), "full": r == bi == bj, "dim_left": bi, "dim_right": bj}

    def socle_dims(self):
        nvert = len(self.A.psi.delta.labels)
        out = {}
        for i in sorted(self.A.dims):
            if self.dim(i) == 0:
                continue
            blocks = [self.mult_matrix(tuple(int(m == k) for m in range(nvert)), i)
                      for k in range(nvert)]
            s = self.dim(i) - rank(np.vstack(blocks), self.p)
            if s:
                out[i] = s
        return out

    def pd(self):
        n = self.n
        vanish_above = all(self.dim(i) == 0 for i in self.A.dims if i > n)
        pairing = vanish_above and self.dim(n) == 1 and all(
            self.pairing_rank(i)["full"] for i in range(n + 1))
        socle = vanish_above and self.socle_dims() == {n: 1}
        assert pairing == socle
        return pairing


@pytest.mark.parametrize("name", ["torus7", "rp2_6", "boundary_simplex_3", "boundary_simplex_4",
                                  "boundary_simplex_5", "cross_polytope_3", "cross_polytope_4"])
@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
def test_B_agrees_with_the_quotient_over_A_coordinates(name, p):
    psi = builtin_complex(name)
    field = PrimeField(p)
    _ClosedManifold(psi, field)
    checked = 0
    for seed in range(4):
        theta = sample_lsop(psi, expected_lsop_length(psi), seed, field, budget=4000)
        if theta is None:
            continue
        B = build_B(psi.delta, theta, field)
        old = _BOverA(quotient_presentation(psi, theta, field))
        n = psi.dim + 1
        assert [B.dim(i) for i in old.A.dims] == [old.dim(i) for i in old.A.dims]
        assert [old.A.dim(i) - B.dim(i) for i in old.A.dims] == [old.j_dim(i) for i in old.A.dims]
        for i in range(n + 1):
            if old.dim(n) == 1:
                assert pairing_rank(B, i) == old.pairing_rank(i)
            else:
                with pytest.raises(DualityError, match="expected 1"):
                    pairing_rank(B, i)
        assert socle_dims(B) == old.socle_dims()
        assert poincare_duality_report(B)["pd"] == old.pd()
        checked += 1
    # no draw within the budget certifies torus7 over F_2; every other seed does
    assert checked == (0 if (name, p) == ("torus7", 2) else 4)


@pytest.mark.parametrize("name,p", [("torus7", DEFAULT_PRIME), ("rp2_6", 2), ("rp2_6", 3),
                                    ("cross_polytope_3", DEFAULT_PRIME),
                                    ("boundary_simplex_4", DEFAULT_PRIME)])
def test_B_is_the_one_shot_quotient_of_the_monomials(name, p):
    psi = builtin_complex(name)
    field = PrimeField(p)
    theta = lsop(psi, field=field, budget=4000)
    A = quotient_presentation(psi, theta, field)
    bases = j_bases(A)
    B = build_B(psi.delta, theta, field)
    assert B.dims.keys() == A.dims.keys()
    for i, qa in A._quotients.items():
        width = qa.pivots.size + qa.dim
        rref_rows = np.zeros((qa.pivots.size, width), dtype=np.int64)
        rref_rows[np.arange(qa.pivots.size), qa.pivots] = 1
        rref_rows[:, qa.free] = qa.rfree
        jb = bases.get(i, np.zeros((qa.dim, 0), dtype=np.int64))
        lifted = np.zeros((jb.shape[1], width), dtype=np.int64)
        lifted[:, qa.free] = jb.T
        want = FrozenQuotient(np.vstack([rref_rows, lifted]), p)
        got = B._quotients[i]
        for attr in ("pivots", "free", "rfree"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (i, attr)
        assert B.dim(i) == want.dim


def test_plain_A_reports_at_dim_plus_one():
    # n = dim Psi + 1 for A as for B; the torus is the control of acceptance check 06
    tor = builtin_complex("torus7")
    assert poincare_duality_report(quotient_presentation(tor, lsop(tor), F))["fundamental_degree"] == 3
    two = builtin_complex("two_points")
    rep = poincare_duality_report(quotient_presentation(two, lsop(two), F))
    assert rep["fundamental_degree"] == 1 and rep["pd"]

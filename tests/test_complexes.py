import json
import random

import pytest

from srlab import facering
from srlab.complexes import (
    BUILTIN_EXAMPLES,
    ComplexError,
    FaceLinkCohomology,
    RelativeComplex,
    SimplicialComplex,
    as_relative,
    betti_numbers,
    builtin_complex,
    coboundary_matrices,
    complex_hash,
    euler_characteristic,
    f_h_vectors,
    random_relative_complex,
    relative_cohomology_dims,
    relative_from_json,
    relative_to_json,
    _cochain_faces,
    _insertion_sign,
)
from srlab.linalg import DEFAULT_PRIME, PrimeField

F = PrimeField(DEFAULT_PRIME)
F2 = PrimeField(2)
F3 = PrimeField(3)


def test_from_facets_closes_downward():
    c = SimplicialComplex.from_facets((1, 2, 3), [(1, 2, 3)])
    assert len(c.faces) == 8
    assert c.dim == 2
    assert c.is_pure()


def test_ground_set_order_is_declaration_order():
    c = SimplicialComplex.from_facets(("b", "a"), [("b",), ("a",)])
    assert c.labels == ("b", "a")
    assert c.mask_of(("b",)) == 1
    assert c.mask_of(("a",)) == 2


def test_gamma_must_be_subcomplex():
    delta = SimplicialComplex.from_facets((1, 2, 3), [(1, 2)])
    gamma = SimplicialComplex.from_facets((1, 2, 3), [(2, 3)])
    with pytest.raises(ComplexError):
        RelativeComplex(delta, gamma)


def test_relative_faces_exclude_gamma():
    delta = SimplicialComplex.from_facets((1, 2, 3), [(1, 2, 3)])
    gamma = SimplicialComplex.from_facets((1, 2, 3), [(1, 2)])
    psi = RelativeComplex(delta, gamma)
    faces = set(psi.faces())
    assert delta.mask_of((1, 2)) not in faces
    assert delta.mask_of((1, 2, 3)) in faces
    assert 0 not in faces  # empty face sits in Gamma


def test_relative_complex_computes_its_faces_and_dim_once():
    tor = builtin_complex("torus7")
    # over a void Gamma the faces are Delta's own set
    assert tor.faces() is tor.faces() is tor.delta.faces
    for psi in [tor] + [random_relative_complex(random.Random(k)) for k in range(40)]:
        faces = psi.faces()
        assert psi.faces() is faces and faces == psi.delta.faces - psi.gamma.faces
        want = max(bin(f).count("1") for f in faces) - 1 if faces else None
        assert psi.dim == want and psi.dim == want
        assert psi.is_void == (not faces)


def test_torus_f_h_vectors():
    fv = f_h_vectors(builtin_complex("torus7"))
    assert fv.f == (1, 7, 21, 14)
    assert fv.h == (1, 4, 10, -1)


def test_sphere_h_vector_all_ones():
    for k in range(2, 6):
        fv = f_h_vectors(builtin_complex(f"boundary_simplex_{k}"))
        assert fv.h == (1,) * (k + 1)


def test_fvec_void_rejected():
    delta = SimplicialComplex.from_facets((1,), [(1,)])
    with pytest.raises(ComplexError):
        f_h_vectors(RelativeComplex(delta, delta))


def test_betti_oracles():
    assert betti_numbers(builtin_complex("torus7"), F) == {-1: 0, 0: 0, 1: 2, 2: 1}
    assert betti_numbers(builtin_complex("rp2_6"), F2) == {-1: 0, 0: 0, 1: 1, 2: 1}
    assert betti_numbers(builtin_complex("rp2_6"), F3) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert betti_numbers(builtin_complex("moebius"), F) == {-1: 0, 0: 0, 1: 1, 2: 0}
    assert betti_numbers(builtin_complex("two_points"), F) == {-1: 0, 0: 1}
    for k in range(2, 5):
        b = betti_numbers(builtin_complex(f"boundary_simplex_{k}"), F)
        assert all(v == (1 if i == k - 1 else 0) for i, v in b.items())


def test_relative_disk_cohomology_concentrated_on_top():
    psi = builtin_complex("disk_with_induced_boundary_2")
    b = betti_numbers(psi, F)
    assert all(v == (1 if i == 2 else 0) for i, v in b.items())


def test_cross_polytope_is_a_sphere():
    for k in (2, 3):
        b = betti_numbers(builtin_complex(f"cross_polytope_{k}"), F)
        assert all(v == (1 if i == k - 1 else 0) for i, v in b.items())


def test_euler_matches_alternating_betti_sum():
    rng = random.Random(401)
    for _ in range(40):
        psi = random_relative_complex(rng)
        b = betti_numbers(psi, F)
        assert euler_characteristic(psi) == sum((-1) ** i * v for i, v in b.items())


def test_torus_betti_field_independent():
    # torsion-free homology, so every coefficient field sees the same dims
    tor = builtin_complex("torus7")
    assert betti_numbers(tor, F2) == betti_numbers(tor, F3) == betti_numbers(tor, F)


def test_link_of_torus_vertex_is_circle():
    tor = builtin_complex("torus7").delta
    for vmask in tor.vertex_masks():
        link = tor.link(vmask)
        b = betti_numbers(as_relative(link), F)
        assert all(v == (1 if i == 1 else 0) for i, v in b.items())


def test_star_is_cone_hence_acyclic():
    tor = builtin_complex("torus7")
    for vmask in tor.delta.vertex_masks():
        star = tor.star(vmask)
        assert not any(betti_numbers(star, F).values())


def test_open_star_complement_is_closed():
    tor = builtin_complex("torus7")
    vmask = next(iter(tor.delta.vertex_masks()))
    op = tor.open_star(vmask)
    assert not op.is_absolute
    for face in op.faces():
        assert face & vmask


def test_boundary_subcomplex_of_solid_simplex():
    solid = builtin_complex("simplex_3").delta
    boundary = solid.boundary_subcomplex()
    assert boundary.faces == builtin_complex("boundary_simplex_3").delta.faces


def test_barycentric_subdivision_counts():
    tri = builtin_complex("simplex_2").delta
    bary = tri.barycentric_subdivision()
    assert len(bary.labels) == 7
    fv = f_h_vectors(as_relative(bary))
    assert fv.f == (1, 7, 12, 6)
    assert euler_characteristic(as_relative(bary)) == 0


def test_barycentric_subdivision_preserves_cohomology():
    sphere = builtin_complex("boundary_simplex_3").delta
    bary = sphere.barycentric_subdivision()
    assert betti_numbers(as_relative(bary), F) == betti_numbers(as_relative(sphere), F)


def test_induced_subcomplex():
    tor = builtin_complex("torus7").delta
    sub = tor.induced([1, 2, 3])
    assert all(set(tor.labels_of(f)) <= {1, 2, 3} for f in sub.faces if f)


def test_closed_face_sets_are_kept_as_frozensets_of_python_ints():
    # a face set handed over as closed is kept as it is, not rebuilt, so
    # every operation that hands one over must build it of Python ints
    tor = builtin_complex("torus7").delta
    v = tor.vertex_masks()[0]
    built = [tor.link(v), tor.star(v), tor.deletion(v), tor.induced([1, 2, 3]),
             tor.union(tor.star(v)), tor.cone("apex"), tor.barycentric_subdivision(),
             SimplicialComplex.void_complex(tor.labels),
             SimplicialComplex.empty_faces_only(tor.labels),
             SimplicialComplex.from_facets(tor.labels, [], void=True)]
    for c in built:
        assert type(c.faces) is frozenset and all(type(f) is int for f in c.faces)
    faces = frozenset({0, 1})
    assert SimplicialComplex((1,), faces, _closed=True).faces is faces


def test_json_round_trip_and_hash_stability():
    for name in ("torus7", "rp2_6", "disk_with_induced_boundary_2", "path_4"):
        psi = builtin_complex(name)
        data = relative_to_json(psi)
        back = relative_from_json(json.loads(json.dumps(data)))
        assert back.delta.faces == psi.delta.faces
        assert back.gamma.faces == psi.gamma.faces
        assert complex_hash(back) == complex_hash(psi)


def test_json_empty_facets_means_empty_complex():
    psi = relative_from_json({"vertices": ["a"], "facets": []})
    assert list(psi.faces()) == [0]
    assert psi.dim == -1


def test_json_gamma_absent_vs_empty():
    base = {"vertices": [1, 2], "facets": [[1, 2]]}
    absolute = relative_from_json(dict(base))
    assert absolute.is_absolute
    pair = relative_from_json(dict(base, gamma_facets=[]))
    assert not pair.is_absolute  # Gamma = {empty face}, so psi loses the unit


def test_json_rejects_gamma_outside_delta():
    with pytest.raises(ComplexError):
        relative_from_json({"vertices": [1, 2, 3], "facets": [[1, 2]],
                            "gamma_facets": [[2, 3]]})


def test_builtin_unknown_and_bad_parameter():
    with pytest.raises(ComplexError):
        builtin_complex("nosuch")
    with pytest.raises(ComplexError):
        builtin_complex("boundary_simplex_0")
    with pytest.raises(ComplexError):
        builtin_complex("path_x")


def test_random_generator_is_deterministic():
    a = [complex_hash(random_relative_complex(random.Random(9))) for _ in range(1)]
    b = [complex_hash(random_relative_complex(random.Random(9))) for _ in range(1)]
    assert a == b
    rng = random.Random(10)
    sizes = {len(random_relative_complex(rng).delta.labels) for _ in range(50)}
    assert sizes <= set(range(1, 7)) and len(sizes) > 1


def _relative_cases(seed: int, count: int) -> list:
    """Every builtin, then ``count`` random pairs."""
    rng = random.Random(seed)
    return ([builtin_complex(name) for name in BUILTIN_EXAMPLES]
            + [random_relative_complex(rng) for _ in range(count)])


def test_link_table_equals_the_cohomology_of_every_built_link():
    in_gamma = void = relative = 0
    for psi in _relative_cases(22, 120):
        relative += not psi.is_absolute
        for field in (F2, F3, F):
            links = FaceLinkCohomology(psi, field)
            assert links[0] == relative_cohomology_dims(psi, field)
            for tau in sorted(psi.delta.faces):
                want = relative_cohomology_dims(psi.link(tau), field)
                assert links[tau] == want
                in_gamma += tau in psi.gamma.faces
                void += want == {}
    assert relative >= 40 and in_gamma >= 100 and void >= 50


def test_link_table_sees_the_torus_links_and_rejects_non_faces():
    tor = builtin_complex("torus7")
    links = FaceLinkCohomology(tor, F)
    assert links[0] == {-1: 0, 0: 0, 1: 2, 2: 1}
    # a vertex link is a circle, an edge link two points, a triangle link {empty face}
    for tau in tor.delta.faces - {0}:
        assert {i: v for i, v in links[tau].items() if v} == {2 - bin(tau).count("1"): 1}
    missing = next(m for m in range(1, 1 << 7) if m not in tor.delta.faces)
    with pytest.raises(ComplexError):
        links[missing]


def _pairwise_maximal(faces) -> list[int]:
    """The faces contained in no other face, by comparing every pair."""
    return [f for f in faces if not any(f != g and f & g == f for g in faces)]


def test_maximal_faces_are_found_by_one_vertex_extensions():
    for psi in _relative_cases(23, 150):
        for c in (psi.delta, psi.gamma):
            assert c.facets() == sorted(_pairwise_maximal(c.faces))
        groups = facering._maximal_columns(psi)
        maximal = [f for f in _pairwise_maximal(psi.faces()) if f]
        want = [[[v for v in range(len(psi.delta.labels)) if f >> v & 1]
                 for f in maximal if bin(f).count("1") == size]
                for size in sorted({bin(f).count("1") for f in maximal})]
        assert [g.tolist() for g in groups] == want



def _cech_sign(tau: int, bit: int) -> int:
    """The sign partition.py's support pieces once computed for tau + v, bit = 1 << v."""
    return -1 if bin(tau & (bit - 1)).count("1") % 2 else 1


def _incidence(facet: int, ridge: int) -> int:
    """The sign partition.py's cell chains once gave a ridge in a facet."""
    missing = facet ^ ridge
    return -1 if bin(facet & (missing - 1)).count("1") % 2 else 1


def test_insertion_sign_counts_the_vertices_below():
    for face in range(1 << 7):
        for v in range(7):
            below = sum(1 for u in range(v) if face >> u & 1)
            want = (-1) ** below
            assert _insertion_sign(face, v) == want
            assert _cech_sign(face, 1 << v) == want
            assert _incidence(face | 1 << v, face & ~(1 << v)) == want


def test_coboundary_entries_are_insertion_signs():
    for name in BUILTIN_EXAMPLES:
        psi = builtin_complex(name)
        bases = _cochain_faces(psi)
        for field in (F3, F):
            _, diffs = coboundary_matrices(psi, field)
            for i, mat in diffs.items():
                want = [[_insertion_sign(sigma, (rho ^ sigma).bit_length() - 1) % field.p
                         if sigma & rho == sigma and bin(rho ^ sigma).count("1") == 1 else 0
                         for sigma in bases[i + 1]] for rho in bases[i + 2]]
                assert mat.tolist() == want


def test_ridge_facets_equal_a_scan_of_every_face():
    for psi in _relative_cases(29, 60):
        for c in (psi.delta, psi.gamma):
            facets = c.facets()
            want = {}
            for r in sorted(c.faces):
                owners = [f for f in facets
                          if f & r == r and bin(f).count("1") == bin(r).count("1") + 1]
                if owners:
                    want[r] = owners
            assert c.ridge_facets() == want

"""Tests for the theorem verdict reports."""

import io
import itertools
import json
import random

import pytest

from srlab import koszul, verdicts
from srlab.cli import RunConfig, run
from srlab.complexes import (
    BUILTIN_EXAMPLES,
    RelativeComplex,
    SimplicialComplex,
    builtin_complex,
    random_relative_complex,
)
from srlab.duality import manifold_sanity_check
from srlab.facering import LinearFormSequence, expected_lsop_length, lsop_trials, sample_lsop
from srlab.linalg import DEFAULT_PRIME, PrimeField
from srlab.partition import (
    barycentric_subdivision_structure,
    partition_homology_dims,
    total_complex_homology,
)
from srlab.verdicts import (
    TheoremReport,
    buchsbaum_offender,
    dehn_sommerville_check,
    kuhnel_report,
    lefschetz_report,
    link_depth,
    partition_of_unity_report,
    reisner_link_table,
    reisner_report,
    schenzel_report,
)

F = PrimeField(DEFAULT_PRIME)


def lsop(psi, seed=0, field=F, budget=20000):
    return sample_lsop(psi, expected_lsop_length(psi), seed, field, budget=budget)


def test_report_serialization_round_trip():
    rep = reisner_report(builtin_complex("torus7"))
    blob = rep.to_json()
    assert sorted(blob.keys()) == [
        "diagnostics",
        "input_hash",
        "prime",
        "seeds",
        "tables",
        "theorem",
        "verdict",
    ]
    # the payload must survive a real serialization pass, not just a dict copy
    restored = TheoremReport.from_json(json.loads(json.dumps(blob)))
    assert restored == rep
    assert restored.holds is rep.holds


def test_reports_are_reproducible():
    a = reisner_report(builtin_complex("torus7"))
    b = reisner_report(builtin_complex("torus7"))
    assert a == b
    x = lefschetz_report(builtin_complex("boundary_simplex_3"), mode="strong")
    y = lefschetz_report(builtin_complex("boundary_simplex_3"), mode="strong")
    assert json.dumps(x.to_json(), sort_keys=True) == json.dumps(y.to_json(), sort_keys=True)


def test_reisner_routes_agree_on_a_sphere_and_the_torus():
    rep = reisner_report(builtin_complex("boundary_simplex_3"))
    assert rep.verdict == "holds"
    assert rep.tables[0]["topological_cm"] is True
    assert rep.tables[0]["algebraic_cm"] is True
    assert rep.tables[0]["failing_links"] == []

    rep = reisner_report(builtin_complex("torus7"))
    assert rep.verdict == "holds"
    table = rep.tables[0]
    assert table["topological_cm"] is False
    assert table["algebraic_cm"] is False
    # the only obstruction is the degree-1 cohomology of the full complex
    assert table["failing_links"] == [{"face": [], "index": 1, "dim": 2}]
    assert table["depth"] == 2
    assert table["expected_depth"] == 3
    assert all(row["found_lsop"] and row["depth"] == 2 for row in table["trials"])


def test_reisner_link_table_matches_the_report():
    table = reisner_link_table(builtin_complex("torus7"), F)
    assert table == {"cm": False, "failures": [{"face": [], "index": 1, "dim": 2}]}


def test_reisner_on_a_relative_pair_with_a_dangling_edge():
    # two triangles glued along an edge plus an edge hanging off vertex 4,
    # relative to one of the triangles
    rep = reisner_report(_dangling_edge_pair())
    assert rep.verdict == "holds"
    table = rep.tables[0]
    assert table["topological_cm"] is False
    assert table["algebraic_cm"] is False
    assert [row["face"] for row in table["failing_links"]] == [[4], [4, 5]]
    assert table["depth"] == 2
    assert table["expected_depth"] == 3


def test_reisner_is_inconclusive_without_a_parameter_system():
    # the complete graph on 5 vertices has no lsop over F_2: the five columns
    # of any candidate would have to be pairwise independent in a plane with
    # only three nonzero vectors
    k5 = SimplicialComplex.from_facets(
        tuple(range(1, 6)), list(itertools.combinations(range(1, 6), 2))
    )
    rep = reisner_report(RelativeComplex(k5), PrimeField(2), trials=2)
    assert rep.verdict == "inconclusive"
    assert rep.diagnostics == ["no certified parameter system found within budget"]
    # K_4 has none either; no depth is reported without one
    k4 = SimplicialComplex.from_facets(
        (1, 2, 3, 4), list(itertools.combinations((1, 2, 3, 4), 2))
    )
    rep = reisner_report(RelativeComplex(k4), PrimeField(2))
    assert rep.verdict == "inconclusive"
    table = rep.tables[0]
    assert table["depth"] is None
    assert [row["found_lsop"] for row in table["trials"]] == [False] * 3


def _dangling_edge_pair():
    delta = SimplicialComplex.from_facets(
        (1, 2, 3, 4, 5), [(1, 2, 3), (1, 2, 4), (4, 5)]
    )
    gamma = SimplicialComplex.from_facets((1, 2, 3, 4, 5), [(1, 2, 4)])
    return RelativeComplex(delta, gamma)


def test_link_depth_agrees_with_koszul_depth_on_random_pairs():
    """Hochster's formula against the Koszul scan of a certified Theta.

    Hochster's formula for local cohomology is cited for absolute
    complexes only; on relative pairs the link-table depth rests on this
    comparison.
    """
    rng = random.Random(1105)
    fields = (PrimeField(2), PrimeField(3), F)
    conclusive = []
    for k in range(200):
        psi = random_relative_complex(rng)
        field = fields[k % 3]
        if psi.is_void:
            continue
        budget = 2000 if field.p < 100 else 20000
        theta = next((t for _, t in lsop_trials(psi, 0, field, 3, budget)
                      if t is not None), None)
        if theta is None:
            continue
        conclusive.append(psi)
        table = reisner_link_table(psi, field)
        assert link_depth(psi, table) == koszul.depth(psi, theta, field)
    assert len(conclusive) >= 150
    assert {psi.is_absolute for psi in conclusive} == {True, False}
    assert any(link_depth(psi, reisner_link_table(psi, F)) < expected_lsop_length(psi)
               for psi in conclusive)


@pytest.mark.parametrize("psi, field", [
    (builtin_complex("torus7"), F),
    (builtin_complex("rp2_6"), PrimeField(2)),
    (_dangling_edge_pair(), F),
], ids=["torus7", "rp2_6-F2", "relative-pair"])
def test_reisner_report_builds_no_koszul_complex(psi, field, monkeypatch):
    seed, theta = next((s, t) for s, t in lsop_trials(psi, 0, field) if t is not None)
    want = koszul.depth(psi, theta, field)

    def refuse(*args, **kwargs):
        raise AssertionError("reisner_report built a Koszul complex")

    monkeypatch.setattr(koszul, "depth", refuse)
    monkeypatch.setattr(koszul.KoszulComplex, "__init__", refuse)
    table = reisner_report(psi, field).tables[0]
    assert [row["seed"] for row in table["trials"] if row["found_lsop"]] == [seed]
    assert table["depth"] == want < table["expected_depth"]


def test_reisner_route_disagreement_is_a_failing_verdict(monkeypatch):
    # a full link depth under a non-CM certificate: the routes disagree
    monkeypatch.setattr(koszul, "hilbert_certificate", lambda *args: False)
    rep = reisner_report(builtin_complex("boundary_simplex_3"))
    assert rep.verdict == "fails"
    table = rep.tables[0]
    assert table["topological_cm"] is True and table["algebraic_cm"] is False
    assert table["depth"] == table["expected_depth"] == 3


def test_partition_of_unity_on_the_torus():
    psi = builtin_complex("torus7")
    theta = lsop(psi)
    rep = partition_of_unity_report(psi, theta)
    assert rep.verdict == "holds"
    assert rep.seeds == [0]
    table = rep.tables[0]
    assert table["window"] == {"i": [-1, 3], "j": [0, 4]}
    assert all(row["left"] == row["right"] for row in table["entries"])
    assert {"i": -1, "j": 2, "left": 6, "right": 6} in table["entries"]
    assert len(table["entries"]) == 7


def test_partition_of_unity_on_the_projective_plane():
    psi = builtin_complex("rp2_6")
    field = PrimeField(2)
    rep = partition_of_unity_report(psi, lsop(psi, field=field, budget=4000), field)
    assert rep.verdict == "holds"
    cells = [(row["i"], row["j"], row["left"]) for row in rep.tables[0]["entries"]]
    assert cells == [
        (-1, 2, 3),
        (-1, 3, 1),
        (0, 1, 3),
        (0, 2, 3),
        (1, 0, 1),
        (1, 1, 3),
        (2, 0, 1),
    ]


def test_partition_of_unity_flags_a_star_that_is_not_cm():
    # the bowtie's middle vertex has a disconnected link, so its star fails
    # the Cohen-Macaulay precondition and the verdict must not be "fails"
    psi = RelativeComplex(
        SimplicialComplex.from_facets((1, 2, 3, 4, 5), [(1, 2, 3), (3, 4, 5)])
    )
    assert buchsbaum_offender(psi, F) == (3,)
    rep = partition_of_unity_report(psi, lsop(psi))
    assert rep.verdict == "inconclusive"
    assert rep.diagnostics == ["star of [3] is not Cohen-Macaulay"]
    assert rep.tables == []


def test_schenzel_window_on_the_torus():
    psi = builtin_complex("torus7")
    rep = schenzel_report(psi, lsop(psi))
    assert rep.verdict == "holds"
    assert rep.tables[0]["left_dims"] == [1, 4, 10, 1, 0]
    assert rep.tables[0]["right_dims"] == [1, 4, 10, 1, 0]


def test_schenzel_correction_splits_by_field_on_the_projective_plane():
    psi = builtin_complex("rp2_6")
    for p, dims in [(2, [1, 3, 6, 1, 0]), (3, [1, 3, 6, 0, 0])]:
        field = PrimeField(p)
        rep = schenzel_report(psi, lsop(psi, field=field, budget=4000), field)
        assert rep.verdict == "holds"
        table = rep.tables[0]
        assert table["left_dims"] == dims
        assert table["right_dims"] == dims
        # the h-vector is field independent; only the correction term moves
        assert [row["h"] for row in table["entries"]] == [1, 3, 6, 0, 0]


def test_schenzel_correction_vanishes_for_spheres():
    psi = builtin_complex("boundary_simplex_2")
    rep = schenzel_report(psi, lsop(psi))
    assert rep.verdict == "holds"
    table = rep.tables[0]
    assert table["left_dims"] == table["right_dims"]
    assert table["right_dims"] == [row["h"] for row in table["entries"]]
    assert table["right_dims"] == [1, 1, 1, 0]


def test_schenzel_requires_a_parameter_system():
    psi = builtin_complex("torus7")
    zero = LinearFormSequence([[0] * 7] * 3, DEFAULT_PRIME)
    rep = schenzel_report(psi, zero)
    assert rep.verdict == "inconclusive"
    assert rep.diagnostics == ["Theta is not a linear system of parameters"]


def test_dehn_sommerville_on_polytope_boundaries():
    for name, h in [
        ("boundary_simplex_4", [1, 1, 1, 1, 1]),
        ("cross_polytope_3", [1, 3, 3, 1]),
    ]:
        rep = dehn_sommerville_check(builtin_complex(name))
        assert rep.verdict == "holds"
        hv, bd, pairing = rep.tables
        assert hv == {"name": "h", "values": h, "palindromic": True}
        assert bd["values"] == h and bd["palindromic"] is True
        assert pairing["full"] is True


def test_dehn_sommerville_reports_each_route_on_the_torus():
    # the torus h-vector is not palindromic, but the quotient dimensions and
    # the pairing still behave like an orientable manifold; the check must
    # report the three routes separately instead of one merged flag
    rep = dehn_sommerville_check(builtin_complex("torus7"))
    assert rep.verdict == "fails"
    hv, bd, pairing = rep.tables
    assert hv["values"] == [1, 4, 10, -1]
    assert hv["palindromic"] is False
    assert bd["values"] == [1, 4, 4, 1]
    assert bd["palindromic"] is True
    assert pairing["full"] is True


def test_dehn_sommerville_needs_a_manifold():
    rep = dehn_sommerville_check(builtin_complex("moebius"))
    assert rep.verdict == "inconclusive"
    assert rep.diagnostics == [
        "link of face (1,) is not a homology 1-sphere over F_2147483647"
    ]


def test_strong_lefschetz_on_a_sphere():
    rep = lefschetz_report(builtin_complex("boundary_simplex_3"), mode="strong")
    assert rep.theorem == "lefschetz-strong"
    assert rep.verdict == "holds"
    trial = rep.tables[0]["trials"][0]
    assert trial["pass"] is True
    assert trial["maps"] == [
        {"j": 0, "power": 3, "source_dim": 1, "target_dim": 1, "injective": True},
        {"j": 1, "power": 1, "source_dim": 1, "target_dim": 1, "injective": True},
    ]


def test_almost_lefschetz_on_the_torus():
    rep = lefschetz_report(builtin_complex("torus7"), mode="almost")
    assert rep.verdict == "holds"
    trial = rep.tables[0]["trials"][0]
    assert trial["maps"] == [
        {"j": 0, "power": 2, "source_dim": 1, "target_dim": 4, "injective": True},
        {"j": 1, "power": 0, "source_dim": 4, "target_dim": 4, "injective": True},
    ]


def test_subdivision_lefschetz_on_a_barycentric_ball():
    struct = barycentric_subdivision_structure(builtin_complex("simplex_3").delta)
    rep = lefschetz_report(struct, mode="subdivision")
    assert rep.theorem == "lefschetz-subdivision"
    assert rep.verdict == "holds"
    trial = rep.tables[0]["trials"][0]
    assert trial["maps"] == [
        {"j": 0, "power": 2, "source_dim": 1, "target_dim": 11, "injective": True},
        {"j": 1, "power": 0, "source_dim": 11, "target_dim": 11, "injective": True},
    ]


def test_lefschetz_input_validation():
    psi = builtin_complex("torus7")
    with pytest.raises(ValueError, match="unknown Lefschetz mode"):
        lefschetz_report(psi, mode="weak")
    with pytest.raises(ValueError, match="expects a SubdivisionStructure"):
        lefschetz_report(psi, mode="subdivision")


def test_strong_lefschetz_needs_a_cm_complex():
    rep = lefschetz_report(builtin_complex("torus7"), mode="strong")
    assert rep.verdict == "inconclusive"
    assert rep.diagnostics == ["complex is not Cohen-Macaulay"]


def test_kuhnel_bounds_on_small_manifolds():
    cases = [
        ("torus7", F, {"j": 1, "lhs": 1, "rhs": 6, "dim_A": 4}),
        ("rp2_6", PrimeField(2), {"j": 1, "lhs": 1, "rhs": 5, "dim_A": 3}),
        ("boundary_simplex_3", F, {"j": 1, "lhs": 1, "rhs": 3, "dim_A": 1}),
    ]
    for name, field, entry in cases:
        rep = kuhnel_report(builtin_complex(name), field)
        assert rep.verdict == "holds"
        assert rep.tables[0]["entries"] == [entry]


def test_kuhnel_needs_a_manifold():
    rep = kuhnel_report(builtin_complex("moebius"), F)
    assert rep.verdict == "inconclusive"
    assert rep.diagnostics == [
        "link of face (1,) is not a homology 1-sphere over F_2147483647"
    ]


def _relative_sphere():
    """The 2-sphere boundary_simplex_3 relative to its vertex 1: a closed manifold Delta, a nonvoid Gamma."""
    bs3 = builtin_complex("boundary_simplex_3").delta
    return RelativeComplex(bs3, bs3.induced([1]))


def test_each_manifold_report_runs_the_sanity_check_once(monkeypatch):
    from srlab import duality

    calls = []
    real = duality.manifold_sanity_check

    def spy(delta, field):
        calls.append(field.p)
        return real(delta, field)

    # the reports and the CLI reach the check only through duality's gate
    assert not hasattr(verdicts, "manifold_sanity_check")
    monkeypatch.setattr(duality, "manifold_sanity_check", spy)
    tor = builtin_complex("torus7")
    for report in (lambda: dehn_sommerville_check(tor),
                   lambda: lefschetz_report(tor, "almost", trials=3),
                   lambda: kuhnel_report(tor),
                   lambda: run(RunConfig(command="pd", input="builtin:torus7"),
                               io.StringIO(), io.StringIO()),
                   lambda: duality.build_B(tor, lsop(tor), F)):
        calls.clear()
        report()
        assert calls == [F.p]
    # the public entry keeps its gate; the private one refuses relative pairs
    with pytest.raises(duality.DualityError, match="not a homology"):
        duality.build_B(builtin_complex("moebius"), lsop(builtin_complex("moebius")), F)
    with pytest.raises(duality.DualityError, match="absolute"):
        duality._ClosedManifold(_relative_sphere(), F)


def test_manifold_reports_refuse_a_relative_pair_before_drawing_theta(monkeypatch):
    from srlab import facering

    draws = []
    real = facering.sample_lsop

    def spy(*args, **kwargs):
        draws.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(facering, "sample_lsop", spy)
    pair = _relative_sphere()
    assert not pair.is_absolute
    for name, report in (("kuhnel", kuhnel_report),
                         ("dehn-sommerville", dehn_sommerville_check),
                         ("lefschetz-almost", lambda psi: lefschetz_report(psi, "almost"))):
        rep = report(pair)
        # Delta passes the sphere-link check, so absoluteness alone refuses the pair
        assert (rep.theorem, rep.verdict, rep.seeds, rep.tables) == (name, "inconclusive", [], [])
        assert rep.diagnostics == ["B is defined for absolute complexes"]
    assert draws == []


def _offender_star_by_star(psi, field):
    """``buchsbaum_offender`` by running ``reisner_link_table`` on the star of every face."""
    for tau in sorted(psi.delta.faces):
        if tau and not reisner_link_table(psi.star(tau), field)["cm"]:
            return psi.delta.labels_of(tau)
    return None


def test_buchsbaum_lookup_agrees_with_the_star_by_star_route():
    rng = random.Random(2201)
    cases = [builtin_complex(name) for name in BUILTIN_EXAMPLES]
    cases.append(RelativeComplex(SimplicialComplex.from_facets((1, 2, 3, 4, 5),
                                                               [(1, 2, 3), (3, 4, 5)])))
    cases += [random_relative_complex(rng) for _ in range(200)]
    relative = offenders = 0
    for psi in cases:
        for field in (PrimeField(2), PrimeField(3), F):
            want = _offender_star_by_star(psi, field)
            assert buchsbaum_offender(psi, field) == want
            relative += not psi.is_absolute
            offenders += want is not None
    assert relative >= 250 and offenders >= 100


def test_link_and_star_readers_build_no_complex_per_face(monkeypatch):
    built = []
    real = SimplicialComplex.__init__

    def spy(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(SimplicialComplex, "__init__", spy)
    tor = builtin_complex("torus7")
    theta = lsop(tor)
    for run in (lambda: reisner_link_table(tor, F), lambda: manifold_sanity_check(tor, F),
                lambda: buchsbaum_offender(tor, F), lambda: partition_homology_dims(tor, F),
                lambda: total_complex_homology(tor, theta, F)):
        built.clear()
        run()
        # at most the void Gamma of one absolute wrapper of Delta, against 43 faces
        assert len(built) <= 1


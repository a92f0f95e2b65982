import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srlab.complexes import (
    RelativeComplex,
    SimplicialComplex,
    as_relative,
    builtin_complex,
    random_relative_complex,
)
from srlab.facering import (
    FaceRingError,
    LinearFormSequence,
    _hilbert_by_face_counts,
    expected_lsop_length,
    first_lsop,
    hilbert_series_coeffs,
    is_lsop,
    lsop_certificate,
    lsop_trials,
    monomial_basis,
    multiplication_matrix,
    quotient_presentation,
    random_linear_forms,
    sample_lsop,
    variable_form,
)
from srlab.linalg import DEFAULT_PRIME, PrimeField, matmul

F = PrimeField(DEFAULT_PRIME)
F2 = PrimeField(2)


def lsop(psi, field=F, seed=0):
    theta = sample_lsop(psi, expected_lsop_length(psi), seed, field)
    assert theta is not None
    return theta


def test_monomial_basis_degree_zero():
    tor = builtin_complex("torus7")
    assert list(monomial_basis(tor, 0)) == [(0,) * 7]
    pair = builtin_complex("disk_with_induced_boundary_2")
    assert list(monomial_basis(pair, 0)) == []  # empty face sits in Gamma


def test_monomial_supports_are_faces():
    psi = builtin_complex("rp2_6")
    for alpha in monomial_basis(psi, 3):
        support = 0
        for i, e in enumerate(alpha):
            if e:
                support |= 1 << i
        assert support in psi.delta.faces


def test_monomial_basis_order_is_stable():
    psi = builtin_complex("torus7")
    a = list(monomial_basis(psi, 2))
    b = list(monomial_basis(psi, 2))
    assert a == b == sorted(a, key=a.index)


def test_hilbert_torus_coefficients():
    assert hilbert_series_coeffs(builtin_complex("torus7"), 3) == [1, 7, 28, 63]


def test_hilbert_routes_agree_with_enumeration():
    rng = random.Random(77)
    cases = [random_relative_complex(rng) for _ in range(30)]
    cases += [builtin_complex(n) for n in
              ("torus7", "rp2_6", "moebius", "disk_with_induced_boundary_2",
               "two_points", "path_4")]
    for psi in cases:
        series = hilbert_series_coeffs(psi, 5)
        by_faces = _hilbert_by_face_counts(psi, 5)
        counted = [len(monomial_basis(psi, j)) for j in range(6)]
        assert series == by_faces == counted


def test_hilbert_of_cone_is_cumulative_sum():
    # coning multiplies the series by 1/(1-t)
    for name in ("torus7", "boundary_simplex_3", "path_4"):
        base = builtin_complex(name).delta
        apex = "apex"
        cone = SimplicialComplex.from_facets(
            base.labels + (apex,),
            [base.labels_of(f) + (apex,) for f in base.facets()])
        hb = hilbert_series_coeffs(as_relative(base), 6)
        hc = hilbert_series_coeffs(as_relative(cone), 6)
        assert hc == [sum(hb[: j + 1]) for j in range(7)]


def test_hilbert_macaulay_growth_bound():
    rng = random.Random(78)
    for _ in range(25):
        psi = random_relative_complex(rng)
        if not psi.is_absolute:
            continue
        coeffs = hilbert_series_coeffs(psi, 6)
        g = coeffs[1]
        for j in range(1, 7):
            assert coeffs[j] <= math.comb(g + j - 1, j)


def test_hilbert_rejects_negative_window():
    with pytest.raises(FaceRingError):
        hilbert_series_coeffs(builtin_complex("torus7"), -1)


def test_linear_forms_deterministic_per_seed():
    tor = builtin_complex("torus7")
    a = random_linear_forms(tor, 3, 5, F)
    b = random_linear_forms(tor, 3, 5, F)
    c = random_linear_forms(tor, 3, 6, F)
    assert a.forms == b.forms
    assert a.forms != c.forms
    assert all(len(f) == 7 for f in a.forms)
    assert all(0 <= x < F.p for f in a.forms for x in f)


def test_multiplication_matrix_validates_length():
    tor = builtin_complex("torus7")
    with pytest.raises(FaceRingError):
        multiplication_matrix(tor, (1, 2), 1, F)


def test_multiplication_is_linear_in_the_form():
    psi = builtin_complex("rp2_6")
    rng = np.random.default_rng(2)
    f = tuple(int(x) for x in rng.integers(0, F.p, size=6))
    g = tuple(int(x) for x in rng.integers(0, F.p, size=6))
    fg = tuple((a + b) % F.p for a, b in zip(f, g))
    mf = multiplication_matrix(psi, f, 1, F)
    mg = multiplication_matrix(psi, g, 1, F)
    assert np.array_equal((mf + mg) % F.p, multiplication_matrix(psi, fg, 1, F))


def test_variable_multiplication_hits_single_monomials():
    psi = builtin_complex("torus7")
    m = multiplication_matrix(psi, variable_form(psi, 1, F), 1, F)
    assert set(np.count_nonzero(m, axis=0)) <= {0, 1}
    assert set(m.ravel()) <= {0, 1}


def test_expected_lsop_length():
    assert expected_lsop_length(builtin_complex("torus7")) == 3
    assert expected_lsop_length(builtin_complex("two_points")) == 1
    empty_only = RelativeComplex(SimplicialComplex.from_facets(("a",), []))
    assert expected_lsop_length(empty_only) == 0


def test_sample_lsop_deterministic_and_certified():
    tor = builtin_complex("torus7")
    t1 = sample_lsop(tor, 3, 0, F)
    t2 = sample_lsop(tor, 3, 0, F)
    assert t1.forms == t2.forms
    assert lsop_certificate(tor, t1, F)
    res = is_lsop(tor, t1, F)
    assert res["is_lsop"] and res["expected_length"] == 3 and res["length"] == 3


def test_zero_forms_are_not_an_lsop():
    tor = builtin_complex("torus7")
    zero = LinearFormSequence([(0,) * 7] * 3, F.p)
    res = is_lsop(tor, zero, F)
    assert not res["is_lsop"]
    assert not lsop_certificate(tor, zero, F)


def test_wrong_length_is_not_an_lsop():
    tor = builtin_complex("torus7")
    short = LinearFormSequence(lsop(tor).forms[:2], F.p)
    res = is_lsop(tor, short, F)
    assert not res["is_lsop"] and res["length"] == 2


def test_quotient_dims_torus():
    tor = builtin_complex("torus7")
    A = quotient_presentation(tor, lsop(tor), F)
    assert A.dims_list(4) == [1, 4, 10, 1, 0]
    assert A.top_degree() == 3
    assert A.finite_at_cap
    assert A.vanishing_degree == 4


def test_quotient_dims_spheres_match_h_vector():
    for k in range(2, 5):
        psi = builtin_complex(f"boundary_simplex_{k}")
        A = quotient_presentation(psi, lsop(psi), F)
        assert A.dims_list(k) == [1] * (k + 1)


def test_reduce_after_lift_is_identity():
    tor = builtin_complex("torus7")
    A = quotient_presentation(tor, lsop(tor), F)
    for j in range(4):
        got = A.reduce(j, A.lift(j))
        assert np.array_equal(got, np.eye(A.dim(j), dtype=np.int64))


def test_relations_reduce_to_zero():
    tor = builtin_complex("torus7")
    theta = lsop(tor)
    A = quotient_presentation(tor, theta, F)
    for j in range(1, 4):
        for f in theta.forms:
            m = multiplication_matrix(tor, f, j - 1, F)
            assert not np.any(A.reduce(j, m))


def test_quotient_mult_matrix_matches_raw_route():
    tor = builtin_complex("torus7")
    theta = lsop(tor)
    A = quotient_presentation(tor, theta, F)
    form = random_linear_forms(tor, 1, 12, F)[0]
    for j in range(3):
        q = A.quotient_mult_matrix(form, j)
        raw = multiplication_matrix(tor, form, j, F)
        via_lift = A.reduce(j + 1, matmul(raw, A.lift(j), F.p))
        assert np.array_equal(q, via_lift)


def test_non_lsop_quotient_is_infinite_at_cap():
    tor = builtin_complex("torus7")
    zero = LinearFormSequence([(0,) * 7] * 3, F.p)
    A = quotient_presentation(tor, zero, F)
    assert not A.finite_at_cap


def test_small_field_sampling_can_fail_gracefully():
    tor = builtin_complex("torus7")
    theta = sample_lsop(tor, 3, 0, F2, budget=4)
    assert theta is None or lsop_certificate(tor, theta, F2)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_quotient_dims_bounded_by_module_dims(seed):
    psi = random_relative_complex(random.Random(seed))
    theta = sample_lsop(psi, expected_lsop_length(psi), 0, F)
    if theta is None:
        return
    A = quotient_presentation(psi, theta, F)
    for j in range(A.cap + 1):
        if j in A.dims:
            assert A.dims[j] <= len(monomial_basis(psi, j))


def test_quotient_degrees_past_vanishing_are_zero_and_others_raise():
    tor = builtin_complex("torus7")
    A = quotient_presentation(tor, lsop(tor), F)
    past = A.vanishing_degree + 3
    nb = len(monomial_basis(tor, past))
    assert A.dim(past) == 0
    assert A.lift(past).shape == (nb, 0)
    assert A.reduce(past, np.ones((nb, 2), dtype=np.int64)).shape == (0, 2)
    zero = LinearFormSequence([(0,) * 7] * 3, F.p)
    B = quotient_presentation(tor, zero, F)
    for call in (lambda: B.dim(B.cap + 1), lambda: B.lift(B.cap + 1),
                 lambda: B.reduce(B.cap + 1, np.zeros((1, 1), dtype=np.int64))):
        with pytest.raises(FaceRingError):
            call()


def test_lsop_trials_seed_rule_and_first_certified_trial():
    tor = builtin_complex("torus7")
    trials = list(lsop_trials(tor, 5, F, trials=3))
    assert [s for s, _ in trials] == [5, 6, 7]
    for s, theta in trials:
        assert theta.forms == sample_lsop(tor, 3, s, F).forms
    assert [s for s, _ in lsop_trials(tor, "run", F, trials=2)] == ["run:0", "run:1"]
    assert list(lsop_trials(tor, 0, F, trials=0)) == []
    # an edge over F_2 with one draw per trial: 6 of 16 draws are certified,
    # and first_lsop returns the first certified trial of the stream
    edge = builtin_complex("simplex_1")
    stream = list(lsop_trials(edge, 1, F2, trials=20, budget=1))
    hits = [(s, th.forms) for s, th in stream if th is not None]
    assert 0 < len(hits) < len(stream) and stream[0][1] is None
    s, theta = first_lsop(edge, 1, F2, trials=20, budget=1)
    assert (s, theta.forms) == hits[0]
    assert first_lsop(edge, 0, F2, trials=0) == (None, None)

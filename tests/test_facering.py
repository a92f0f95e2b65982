import math
import random
import subprocess
import sys
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srlab.complexes import (
    RelativeComplex,
    SimplicialComplex,
    _popcount,
    as_relative,
    builtin_complex,
    random_relative_complex,
)
from srlab import facering
from srlab.complexes import BUILTIN_EXAMPLES
from srlab.facering import (
    FaceRingError,
    GradedQuotientPresentation,
    LinearFormSequence,
    _CACHE_ENTRIES,
    _TABLE_CELLS,
    _certified,
    _full_column_rank,
    _generator_max_degree,
    _maximal_columns,
    _mult_matrix,
    _mult_pattern,
    _rank_table,
    _uniform,
    expected_lsop_length,
    hilbert_series_coeffs,
    is_lsop,
    lsop_certificate,
    lsop_trials,
    monomial_basis,
    multiplication_matrix,
    quotient_presentation,
    random_linear_forms,
    sample_lsop,
    support_monomial_count,
    trials_until_certified,
)
from srlab.linalg import DEFAULT_PRIME, PrimeField, matmul, rref

F = PrimeField(DEFAULT_PRIME)
F2 = PrimeField(2)


def lsop(psi, field=F, seed=0):
    theta = sample_lsop(psi, expected_lsop_length(psi), seed, field)
    assert theta is not None
    return theta


def variable_form(psi, v, field: PrimeField) -> tuple[int, ...]:
    """The coordinate form x_v."""
    psi = as_relative(psi)
    idx = psi.delta.index[v]
    return tuple(1 if i == idx else 0 for i in range(len(psi.delta.labels)))


def _hilbert_by_face_counts(psi, up_to: int) -> list[int]:
    """Hilbert function via supports: each m-face contributes C(j-1, m-1) in degree j.

    A route independent of ``hilbert_series_coeffs``, so the two can be
    compared against each other and against monomial enumeration.
    """
    counts: dict[int, int] = {}
    for f in as_relative(psi).faces():
        counts[_popcount(f)] = counts.get(_popcount(f), 0) + 1
    return [sum(cnt * support_monomial_count(j, m) for m, cnt in counts.items())
            for j in range(up_to + 1)]


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


def _loop_mult_matrix(psi, coeffs, j, p):
    """Multiplication by a form, one monomial and one vertex at a time."""
    src = monomial_basis(psi, j)
    dst = monomial_basis(psi, j + 1)
    mat = np.zeros((len(dst), len(src)), dtype=np.int64)
    for col, alpha in enumerate(src):
        supp = sum(1 << v for v, e in enumerate(alpha) if e)
        for v, c in enumerate(coeffs):
            if c == 0 or (supp | (1 << v)) not in psi.delta.faces:
                continue
            beta = alpha[:v] + (alpha[v] + 1,) + alpha[v + 1:]
            mat[dst.index[beta], col] = (mat[dst.index[beta], col] + c) % p
    return mat


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
@pytest.mark.parametrize("name", sorted(BUILTIN_EXAMPLES))
def test_multiplication_matrix_matches_the_monomial_loop(name, p):
    psi = as_relative(builtin_complex(name))
    n = len(psi.delta.labels)
    rng = random.Random(f"{name}:{p}")
    forms = [tuple(rng.randrange(p) for _ in range(n)),
             tuple(0 if v % 2 else rng.randrange(1, p) for v in range(n)),   # zeros
             tuple(p * rng.randrange(1, 4) + rng.randrange(p) for _ in range(n)),  # >= p
             (0,) * n]
    for j in range(psi.dim + 3):
        for form in forms:
            got = _mult_matrix(psi, form, j, p)
            assert got.flags.writeable
            assert np.array_equal(got, _loop_mult_matrix(psi, form, j, p)), (j, form)


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


def _stacked_quotient(psi, theta, field, cap):
    """Oracle: per degree, one rref of the relation rows of all forms, stacked.

    Returns ({j: (pivots, free, rfree)}, vanishing degree or None).
    """
    psi = as_relative(psi)
    p = field.p
    gen_max = _generator_max_degree(psi.faces())
    out = {}
    for j in range(cap + 1):
        nb = len(monomial_basis(psi, j))
        if j == 0 or nb == 0 or len(theta) == 0:
            rows = np.zeros((0, nb), dtype=np.int64)
        else:
            rows = np.hstack([multiplication_matrix(psi, f, j - 1, field) for f in theta]).T
        red, pivots = rref(rows, p)
        free = [c for c in range(nb) if c not in set(pivots)]
        out[j] = (pivots, free, red[:len(pivots)][:, free].tolist())
        if not free and j >= gen_max:
            return out, j
    return out, None


def _matches_stacked_quotient(psi, theta, field, cap=None):
    A = quotient_presentation(psi, theta, field, cap=cap)
    want, vanishing = _stacked_quotient(psi, theta, field, A.cap)
    assert A.vanishing_degree == vanishing
    assert A.finite_at_cap == (vanishing is not None)
    assert A.dims == {j: len(free) for j, (_, free, _) in want.items()}
    for j, (pivots, free, rfree) in want.items():
        q = A._at(j)
        if q is None:
            # a certified Theta stops the build at degree dim + 2 without
            # eliminating it; the oracle's full elimination must find A_j = 0
            assert lsop_certificate(psi, theta, field)
            assert j == vanishing == expected_lsop_length(psi) + 1
            assert free == [] and A.dims[j] == 0
            continue
        assert q.pivots.tolist() == pivots
        assert q.free.tolist() == free
        assert q.rfree.tolist() == rfree
    return A


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
@pytest.mark.parametrize("name", BUILTIN_EXAMPLES + (
    "boundary_simplex_4", "boundary_simplex_5", "cross_polytope_4"))
def test_staged_quotient_matches_the_stacked_rref(name, p):
    psi = builtin_complex(name)
    field = PrimeField(p)
    _, theta = trials_until_certified(psi, 0, field)
    if theta is None:  # no certified l.s.o.p. in budget: any forms of the right length
        theta = random_linear_forms(psi, expected_lsop_length(psi), 0, field)
    _matches_stacked_quotient(psi, theta, field)


@pytest.mark.parametrize("p", [2, DEFAULT_PRIME])
def test_staged_quotient_matches_the_stacked_rref_off_lsop(p):
    field = PrimeField(p)
    tor = builtin_complex("torus7")
    theta = random_linear_forms(tor, 3, 4, field)
    zero = LinearFormSequence([(0,) * 7] * 3, p)
    assert not _matches_stacked_quotient(tor, zero, field).finite_at_cap
    short = LinearFormSequence(theta.forms[:2], p)
    assert not _matches_stacked_quotient(tor, short, field).finite_at_cap
    empty = _matches_stacked_quotient(tor, LinearFormSequence([], p), field, cap=3)
    assert empty.dims[3] == len(monomial_basis(tor, 3))
    # a relative pair and forms that all agree: Theta is not finite on it
    pair = builtin_complex("disk_with_induced_boundary_2")
    n = len(pair.delta.labels)
    same = LinearFormSequence([theta.forms[0][:n]] * expected_lsop_length(pair), p)
    assert not lsop_certificate(pair, same, field)
    assert not _matches_stacked_quotient(pair, same, field).finite_at_cap
    for seed in range(4):
        psi = random_relative_complex(random.Random(seed))
        forms = random_linear_forms(psi, expected_lsop_length(psi), seed, field)
        _matches_stacked_quotient(psi, forms, field, cap=4)


def _mult_degrees(monkeypatch):
    """Record the source degree of every _mult_matrix call the quotient makes."""
    seen = []
    real = facering._mult_matrix

    def spy(psi, coeffs, j, p):
        seen.append(j)
        return real(psi, coeffs, j, p)

    monkeypatch.setattr(facering, "_mult_matrix", spy)
    return seen


def test_is_lsop_decides_finiteness_by_elimination_alone(monkeypatch):
    tor = builtin_complex("torus7")
    zero = LinearFormSequence([(0,) * 7] * 3, F.p)
    monkeypatch.setattr(facering, "lsop_certificate", lambda psi, forms, field: True)
    # the patched certificate reaches the quotient: it now stops at degree 4
    assert quotient_presentation(tor, zero, F).vanishing_degree == 4
    res = is_lsop(tor, zero, F)
    assert res["is_lsop"] is False and res["vanishing_degree"] is None


def test_uncertified_forms_still_eliminate_the_top_degree(monkeypatch):
    tor = builtin_complex("torus7")
    theta = random_linear_forms(tor, 3, 0, F2)
    assert not lsop_certificate(tor, theta, F2)
    seen = _mult_degrees(monkeypatch)
    A = quotient_presentation(tor, theta, F2)
    d = expected_lsop_length(tor)
    assert d in seen and not A.finite_at_cap
    assert all(A._at(j) is not None for j in range(A.cap + 1))


def test_certified_quotient_skips_the_vanishing_degree(monkeypatch):
    psi = builtin_complex("boundary_simplex_5")
    theta = lsop(psi)
    d = expected_lsop_length(psi)
    seen = _mult_degrees(monkeypatch)
    A = quotient_presentation(psi, theta, F)
    assert A.vanishing_degree == d + 1 and seen and d not in seen
    seen.clear()
    full = GradedQuotientPresentation(psi, theta, F, _stop_when_certified=False)
    assert d in seen and full.dims == A.dims
    # past the last built degree every accessor answers as the full build does
    for name in ("torus7", "disk_with_induced_boundary_2"):
        psi = builtin_complex(name)
        theta = lsop(psi)
        d = expected_lsop_length(psi)
        A = quotient_presentation(psi, theta, F)
        full = GradedQuotientPresentation(psi, theta, F, _stop_when_certified=False)
        assert A.vanishing_degree == full.vanishing_degree == d + 1
        assert A._at(d + 1) is None and full._at(d + 1) is not None
        nb = len(monomial_basis(psi, d + 1))
        vecs = np.ones((nb, 2), dtype=np.int64)
        form = random_linear_forms(psi, 1, 3, F)[0]
        assert A.dim(d + 1) == full.dim(d + 1) == 0
        for got, want in ((A.reduce(d + 1, vecs), full.reduce(d + 1, vecs)),
                          (A.coordinates(d + 1), full.coordinates(d + 1)),
                          (A.lift(d + 1), full.lift(d + 1)),
                          (A.quotient_mult_matrix(form, d),
                           full.quotient_mult_matrix(form, d))):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert not got.any() and not want.any()


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
def test_certified_quotient_is_bounded_by_the_face_counts(p):
    # A is spanned by the squarefree face monomials: dim A_j <= #{j-element faces}
    field = PrimeField(p)
    cases = [builtin_complex(name) for name in BUILTIN_EXAMPLES]
    rng = random.Random(16)
    cases += [random_relative_complex(rng) for _ in range(30)]
    checked = 0
    for psi in cases:
        psi = as_relative(psi)
        theta = sample_lsop(psi, expected_lsop_length(psi), 0, field)
        if theta is None:
            continue
        A = quotient_presentation(psi, theta, field)
        faces = psi.faces()
        d = expected_lsop_length(psi)
        assert A.vanishing_degree is not None and A.vanishing_degree <= d + 1
        for j in range(A.vanishing_degree + 1):
            count = sum(1 for f in faces if _popcount(f) == j)
            assert A.dim(j) <= count, (psi, j)
        checked += 1
    assert checked >= 30


def test_cached_multiplication_matrices_are_read_only():
    # the cache holds the support pattern; every matrix is built fresh from it
    tor = builtin_complex("torus7")
    form = (1, 2, 3, 4, 5, 6, 0)
    cached = _mult_pattern(tor, 1)
    for a in cached:
        with pytest.raises(ValueError):
            a[0] = 1
    fresh = multiplication_matrix(tor, form, 1, F)
    fresh[0, 0] = 1  # the public function hands out a writable array
    assert _mult_matrix(tor, form, 1, F.p) is not _mult_matrix(tor, form, 1, F.p)
    assert _mult_pattern(tor, 1) is cached


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
    assert A.coordinates(past).shape == (0, nb)
    zero = LinearFormSequence([(0,) * 7] * 3, F.p)
    B = quotient_presentation(tor, zero, F)
    for call in (lambda: B.dim(B.cap + 1), lambda: B.lift(B.cap + 1),
                 lambda: B.coordinates(B.cap + 1),
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
    # and trials_until_certified reads the stream up to its first certified trial
    edge = builtin_complex("simplex_1")
    stream = list(lsop_trials(edge, 1, F2, trials=20, budget=1))
    hits = [(s, th.forms) for s, th in stream if th is not None]
    assert 0 < len(hits) < len(stream) and stream[0][1] is None
    seeds, theta = trials_until_certified(edge, 1, F2, trials=20, budget=1)
    assert seeds == [s for s, _ in stream[:len(seeds)]]
    assert (seeds[-1], theta.forms) == hits[0]
    assert trials_until_certified(edge, 0, F2, trials=0) == ([], None)


def _k4_graph():
    return RelativeComplex(SimplicialComplex.from_facets(
        (1, 2, 3, 4), list(combinations((1, 2, 3, 4), 2))))


def test_trials_after_an_exhausted_one_stop_drawing_when_no_lsop_exists(monkeypatch):
    # K_4 over F_2 would need four pairwise independent columns in F_2^2,
    # which has three nonzero vectors; its 2^8 coefficient matrices all fail
    k4 = _k4_graph()
    assert facering._no_lsop(k4, 2, 2, 20000)
    assert not any(lsop_certificate(k4, np.array(m).reshape(2, 4), F2)
                   for m in product((0, 1), repeat=8))
    calls = []
    real = facering.sample_lsop
    monkeypatch.setattr(facering, "sample_lsop",
                        lambda *args, **kw: calls.append(args[2]) or real(*args, **kw))
    assert list(lsop_trials(k4, 4, F2, trials=3)) == [(4, None), (5, None), (6, None)]
    assert calls == [4]
    # the later trials give what their own streams give
    monkeypatch.undo()
    assert [sample_lsop(k4, 2, s, F2) for s in (5, 6)] == [None, None]


def test_an_exhausted_trial_keeps_the_stream_when_an_lsop_exists():
    # two points over F_2: one of the four forms is certified, so a trial
    # of budget 4 runs out now and then though the space holds an l.s.o.p.
    two = builtin_complex("two_points")
    assert not facering._no_lsop(two, 1, 2, 4)
    stream = list(lsop_trials(two, 2, F2, trials=3, budget=4))
    assert stream[0][1] is None and stream[1][1] is not None
    for s, theta in stream:
        want = sample_lsop(two, 1, s, F2, budget=4)
        assert (theta is None and want is None) or theta.forms == want.forms
    # too large a space for the budget is never tried
    assert not facering._no_lsop(_k4_graph(), 2, 2, 255)


# -- the seeded coefficient stream and the block sampler ------------------------

PRIMES = (2, 3, 5, 65537, 2**31 - 1)


def _untemper(y: int) -> int:
    """Inverse of the Mersenne Twister output tempering."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(5):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x
    for _ in range(3):
        x = y ^ (x >> 11)
    return x & 0xFFFFFFFF


def _rng_with_next_words(words) -> random.Random:
    """A generator whose next 32-bit outputs are the given words."""
    rng = random.Random(0)
    _, state, gauss = rng.getstate()
    mt = [_untemper(w) for w in words] + list(state[len(words):624])
    rng.setstate((3, tuple(mt) + (0,), gauss))
    return rng


def _randrange_tries(rng: random.Random, p: int, count: int) -> int:
    """How many getrandbits words count calls of rng.randrange(p) consume."""
    k, tries, got = p.bit_length(), 0, 0
    while got < count:
        tries += 1
        got += rng.getrandbits(k) < p
    return tries


@pytest.mark.parametrize("seed", [0, 11, -5, "run:3"])
@pytest.mark.parametrize("p", PRIMES)
def test_uniform_is_the_randrange_stream(seed, p):
    for count in (0, 1, 2, 700, 5000):
        want_rng, got_rng = random.Random(seed), random.Random(seed)
        want = [want_rng.randrange(p) for _ in range(count)]
        got = _uniform(got_rng, p, count)
        assert got.dtype == np.int64 and got.tolist() == want
        assert got_rng.random() == want_rng.random()
    if p < 2**31 - 1:  # the large count rejects some words at every other prime
        assert _randrange_tries(random.Random(seed), p, 700) > 700


def test_uniform_rejects_like_randrange_at_the_largest_prime():
    # over 2^31 - 1 a word is rejected only when it is 0xFFFFFFFE or 0xFFFFFFFF
    words = [0xFFFFFFFF, 5, 0xFFFFFFFE, 0xFFFFFFFD]
    assert _rng_with_next_words(words).getrandbits(32 * 4).to_bytes(16, "little") == \
        b"".join(w.to_bytes(4, "little") for w in words)
    p = 2**31 - 1
    for count in (1, 2, 3):
        want_rng, got_rng = _rng_with_next_words(words), _rng_with_next_words(words)
        want = [want_rng.randrange(p) for _ in range(count)]
        assert _uniform(got_rng, p, count).tolist() == want
        assert got_rng.random() == want_rng.random()
    assert want[:2] == [2, p - 1]


def test_random_forms_read_the_randrange_stream():
    tor = builtin_complex("torus7")
    for p in (2, 3, DEFAULT_PRIME):
        rng = random.Random("ell")
        want = [[rng.randrange(p) for _ in range(7)] for _ in range(3)]
        assert [list(f) for f in random_linear_forms(tor, 3, "ell", PrimeField(p))] == want


def _gauss_jordan_rank(rows: list[list[int]], p: int) -> int:
    rows = [[x % p for x in r] for r in rows]
    rk = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rk, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = pow(rows[rk][c], -1, p)
        rows[rk] = [x * inv % p for x in rows[rk]]
        for i in range(len(rows)):
            if i != rk and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rk])]
        rk += 1
    return rk


def _maximal_supports(psi) -> list[list[int]]:
    faces = psi.faces()
    n = len(psi.delta.labels)
    return [[v for v in range(n) if f >> v & 1] for f in faces
            if f and not any(f != g and f & g == f for g in faces)]


def _reference_certificate(psi, forms, p: int) -> bool:
    return all(_gauss_jordan_rank([[row[v] for v in cols] for row in forms], p) == len(cols)
               for cols in _maximal_supports(psi))


def _reference_first_draw(psi, length: int, seed, p: int, budget: int):
    """(index, forms) of the first certified draw of a randrange loop, or None."""
    n = len(psi.delta.labels)
    if any(len(cols) > length for cols in _maximal_supports(psi)):
        return None  # fewer rows than a face's columns: no draw has full rank
    rng = random.Random(seed)
    for k in range(budget):
        forms = [[rng.randrange(p) for _ in range(n)] for _ in range(length)]
        if _reference_certificate(psi, forms, p):
            return k, forms
    return None


# blocks of 1, 4 and 16 draws end after 1, 5 and 21 draws; test each edge and its neighbours
BUDGETS = (0, 1, 2, 3, 4, 5, 6, 20, 21, 22, 20000)


def _assert_sampler_matches_reference(psi, p: int, seed) -> None:
    field = PrimeField(p)
    e = expected_lsop_length(psi)
    drawn = []

    def counted(block, *args):
        drawn.append(len(block))
        return _certified(block, *args)

    for length in (e - 1, e, e + 1):
        ref = _reference_first_draw(psi, length, seed, p, max(BUDGETS))
        for budget in BUDGETS:
            drawn.clear()
            with mock.patch.object(facering, "_certified", counted):
                theta = sample_lsop(psi, length, seed, field, budget=budget)
            if ref is None or ref[0] >= budget:
                assert theta is None, (length, budget)
                assert sum(drawn) == budget, (length, budget)
            else:
                assert theta is not None, (length, budget)
                assert [list(f) for f in theta.forms] == ref[1]
                assert theta.seed == seed and theta.p == p
                assert ref[0] < sum(drawn) <= budget


@pytest.mark.parametrize("p", (2, 3, DEFAULT_PRIME))
@pytest.mark.parametrize("name", sorted(BUILTIN_EXAMPLES))
def test_sample_lsop_matches_a_randrange_loop_on_builtins(name, p):
    _assert_sampler_matches_reference(builtin_complex(name), p, seed=4)


@pytest.mark.parametrize("p", (2, 3, DEFAULT_PRIME))
def test_sample_lsop_matches_a_randrange_loop_on_random_pairs(p):
    rng = random.Random(909)
    cases = [random_relative_complex(rng) for _ in range(25)]
    sizes = [{len(c) for c in _maximal_supports(psi)} for psi in cases]
    assert any(len(s) > 1 for s in sizes)  # some are not pure
    assert any(not psi.is_absolute for psi in cases)
    # expected length 0, so length -1 too: only the empty face, and nothing at all
    edge = SimplicialComplex.from_facets(("a", "b"), [("a", "b")])
    cases += [RelativeComplex(SimplicialComplex.from_facets(("a",), [])),
              RelativeComplex(edge, edge)]
    for i, psi in enumerate(cases):
        _assert_sampler_matches_reference(psi, p, seed=f"pair:{i}")


def test_lsop_certificate_edge_cases():
    tor = builtin_complex("torus7")
    empty_only = RelativeComplex(SimplicialComplex.from_facets(("a",), []))
    # zero forms: certify only a complex without nonempty faces
    assert not lsop_certificate(tor, [], F)
    assert lsop_certificate(empty_only, [], F)
    # fewer forms than a face's size never certify
    assert not lsop_certificate(tor, lsop(tor).forms[:2], F)
    # mixed face sizes: a triangle, an edge and an isolated vertex
    mixed = as_relative(SimplicialComplex.from_facets(
        (1, 2, 3, 4, 5), [(1, 2, 3), (3, 4), (5,)]))
    good = [(1, 0, 0, 1, 1), (0, 1, 0, 0, 0), (0, 0, 1, 1, 0)]
    assert lsop_certificate(mixed, good, F)
    flat_edge = [(1, 0, 0, 0, 1), (0, 1, 0, 0, 0), (0, 0, 1, 1, 0)]  # columns 3, 4 dependent
    no_vertex = [(1, 0, 0, 1, 0), (0, 1, 0, 0, 0), (0, 0, 1, 1, 0)]  # column 5 is zero
    assert not lsop_certificate(mixed, flat_edge, F)
    assert not lsop_certificate(mixed, no_vertex, F)
    # entries are read mod p: multiples of p are zero, negative entries count
    assert lsop_certificate(mixed, [[c - 2 * F2.p for c in f] for f in good], F2)
    assert not lsop_certificate(mixed, [f[:4] + (F.p,) for f in no_vertex], F)
    rng = random.Random(6)
    for _ in range(200):
        forms = [[rng.randrange(3) for _ in range(5)] for _ in range(rng.randint(0, 4))]
        want = _reference_certificate(mixed, forms, 3)
        assert lsop_certificate(mixed, forms, PrimeField(3)) == want


def test_certified_blocks_match_the_per_draw_certificate():
    # torus7 over F_2 certifies no draw; the mixed complex has 10 isolated
    # vertices, 9 disjoint edges and a triangle, so draws fail in every chunk
    tor = builtin_complex("torus7")
    facets = [[v] for v in range(1, 11)] + [[v, v + 1] for v in range(11, 29, 2)] + [[29, 30, 31]]
    mixed = as_relative(SimplicialComplex.from_facets(range(1, 32), facets))
    rng = random.Random(17)
    accepted = 0
    for psi in (tor, mixed):
        n = len(psi.delta.labels)
        for p in (2, 3):
            field = PrimeField(p)
            for draws in (1, 2, 7, 40, 300):
                block = np.array([rng.randrange(p) for _ in range(draws * 3 * n)],
                                 dtype=np.int64).reshape(draws, 3, n)
                got = _certified(block.copy(), psi, p)
                want = [lsop_certificate(psi, block[k].tolist(), field) for k in range(draws)]
                assert got.tolist() == want
                assert want == [_reference_certificate(psi, block[k].tolist(), p)
                                for k in range(draws)]
                accepted += sum(want)
    assert accepted  # a block that certifies nothing would not test the kept draws


# every (p, length, size) with a rank table, p in {2, 3, 5, 7} and size <= length
TABLED = [(p, length, size) for p in (2, 3, 5, 7) for length in range(1, 17)
          for size in range(1, length + 1) if p ** (length * size) <= _TABLE_CELLS]


def _all_matrices(p: int, length: int, size: int) -> np.ndarray:
    """Every length x size matrix mod p; entry (r, m) of matrix i is base-p digit r + length * m of i."""
    cells = length * size
    digits = np.indices((p,) * cells).reshape(cells, -1)[::-1].T  # digit j of i in column j
    return np.ascontiguousarray(digits.reshape(-1, size, length).transpose(0, 2, 1))


def _tabled_and_eliminated(block: np.ndarray, psi, p: int) -> list[bool]:
    """_certified on block by the table path and by elimination, which must agree."""
    got = _certified(block.copy(), psi, p)
    with mock.patch.object(facering, "_TABLE_CELLS", 0):
        want = _certified(block.copy(), psi, p)
    assert got.tolist() == want.tolist()
    return got.tolist()


@pytest.mark.parametrize("p, length, size", TABLED)
def test_rank_table_is_full_column_rank_of_every_matrix(p, length, size):
    mats = _all_matrices(p, length, size)
    table = _rank_table(p, length, size)
    assert table.dtype == bool and table.shape == (p ** (length * size),)
    assert not table.flags.writeable
    assert table.tolist() == _full_column_rank(mats.copy(), p).tolist()
    rng = random.Random(f"{p},{length},{size}")
    for i in rng.sample(range(len(mats)), min(len(mats), 50)):
        assert table[i] == (_gauss_jordan_rank(mats[i].tolist(), p) == size)


def test_rank_table_counts_the_invertible_matrices():
    # |GL_n(F_p)| = prod_k (p^n - p^k)
    for p, n in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (7, 2), (3, 3)):
        assert _rank_table(p, n, n).sum() == math.prod(p ** n - p ** k for k in range(n))


@pytest.mark.parametrize("p, length, size", TABLED)
def test_table_path_matches_elimination_and_the_reference(p, length, size):
    # the boundary of a size-simplex, and for size > 1 an isolated vertex too,
    # so the maximal faces come in two sizes
    facets = [list(f) for f in combinations(range(size + 1), size)]
    if size > 1:
        facets.append([size + 1])
    psi = as_relative(SimplicialComplex.from_facets(range(size + 2), facets))
    n = len(psi.delta.labels)
    rng = random.Random(f"table:{p},{length},{size}")
    block = np.array([rng.randrange(p) for _ in range(40 * length * n)],
                     dtype=np.int64).reshape(40, length, n)
    _rank_table.cache_clear()
    got = _tabled_and_eliminated(block, psi, p)
    assert got == [_reference_certificate(psi, block[k].tolist(), p) for k in range(40)]
    assert _rank_table.cache_info().currsize >= 1  # the table path ran


def test_table_path_edge_cases():
    rng = random.Random(23)

    def block_for(psi, p, length, draws):
        n = len(psi.delta.labels)
        return np.array([rng.randrange(p) for _ in range(draws * length * n)],
                        dtype=np.int64).reshape(draws, length, n)

    # more faces than one chunk: K_6 has 15 edges, with an isolated vertex beside it
    k6 = as_relative(SimplicialComplex.from_facets(
        range(7), [list(e) for e in combinations(range(6), 2)] + [[6]]))
    assert max(len(c) for c in _maximal_columns(k6)) > facering._FACE_CHUNK
    accepted = 0
    for p, length in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (5, 3), (7, 2)):
        block = block_for(k6, p, length, 300)
        got = _tabled_and_eliminated(block, k6, p)
        assert got == [_reference_certificate(k6, block[k].tolist(), p) for k in range(300)]
        accepted += sum(got)
    assert accepted
    # a face larger than length: no draw passes and no table is built
    tri = as_relative(SimplicialComplex.from_facets((1, 2, 3, 4), [(1, 2, 3), (4,)]))
    _rank_table.cache_clear()
    for p in (2, 3):
        assert _tabled_and_eliminated(block_for(tri, p, 2, 20), tri, p) == [False] * 20
    assert _rank_table.cache_info().currsize == 0
    # no nonempty maximal face: every draw passes, also with no forms at all
    empty_only = RelativeComplex(SimplicialComplex.from_facets(("a",), []))
    edge = SimplicialComplex.from_facets(("a", "b"), [("a", "b")])
    for psi in (empty_only, RelativeComplex(edge, edge)):
        assert _maximal_columns(psi) == ()
        for length in (0, 1, 2):
            assert _tabled_and_eliminated(block_for(psi, 2, length, 5), psi, 2) == [True] * 5
    assert _rank_table.cache_info().currsize == 0


def test_sample_lsop_at_the_table_cap_past_it_and_without_an_lsop():
    # boundary_simplex_4 has five facets of size 4: over F_2 at length 4 the
    # table has exactly 2^16 entries; at length 5 (2^20), and over F_3 at
    # length 4 (3^16), sampling falls back to elimination
    sphere = builtin_complex("boundary_simplex_4")
    assert [c.shape[1] for c in _maximal_columns(as_relative(sphere))] == [4]
    assert expected_lsop_length(sphere) == 4
    _rank_table.cache_clear()
    _assert_sampler_matches_reference(sphere, 2, seed=4)
    assert _rank_table.cache_info().currsize == 1
    assert _rank_table(2, 4, 4).size == _TABLE_CELLS
    _rank_table.cache_clear()
    _assert_sampler_matches_reference(sphere, 3, seed=4)
    assert _rank_table.cache_info().currsize == 0
    # K_4 over F_2 has no l.s.o.p. of length 2: four pairwise independent
    # columns in F_2^2, which has three nonzero vectors. Every budget is
    # used up draw by draw (the helper counts them).
    k4 = as_relative(SimplicialComplex.from_facets((1, 2, 3, 4), list(combinations((1, 2, 3, 4), 2))))
    assert expected_lsop_length(k4) == 2
    assert sample_lsop(k4, 2, 4, F2) is None
    _assert_sampler_matches_reference(k4, 2, seed=4)


def test_rank_table_cache_is_bounded_and_read_only():
    assert _rank_table.cache_info().maxsize is not None
    _rank_table.cache_clear()
    for name in ("torus7", "rp2_6", "boundary_simplex_3"):
        lsop(builtin_complex(name), F, seed=1)
    assert _rank_table.cache_info().currsize == 0  # the large prime never tabulates
    keys = set()
    for name in ("torus7", "rp2_6", "moebius", "path_4", "two_points"):
        psi = as_relative(builtin_complex(name))
        length = expected_lsop_length(psi)
        sizes = [c.shape[1] for c in _maximal_columns(psi)]
        for p in (2, 3):
            sample_lsop(psi, length, 1, PrimeField(p), budget=200)
            if p ** (length * sizes[-1]) <= _TABLE_CELLS:
                keys.update((p, length, size) for size in sizes)
    assert keys and _rank_table.cache_info().currsize <= len(keys)
    for key in keys:
        table = _rank_table(*key)
        assert table.size <= _TABLE_CELLS and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = not table[0]
    assert _rank_table.cache_info().currsize == len(keys)


def test_monomial_caches_are_bounded():
    caches = (monomial_basis, _mult_pattern)
    assert all(cache.cache_info().maxsize == _CACHE_ENTRIES for cache in caches)
    for cache in caches:
        cache.cache_clear()
    # more distinct complexes than either cache holds: one vertex each, told apart by label
    for v in range(_CACHE_ENTRIES + 1):
        point = as_relative(SimplicialComplex.from_facets((v,), [(v,)]))
        assert _mult_pattern(point, 1)[0].tolist() == [0]
    try:
        assert all(cache.cache_info().currsize == _CACHE_ENTRIES for cache in caches)
    finally:
        for cache in caches:
            cache.cache_clear()


def test_importing_srlab_builds_no_rank_table():
    code = ("import srlab, srlab.cli; from srlab import facering; "
            "print(facering._rank_table.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "0"


def test_restriction_kernel_refuses_a_relative_complex():
    disk = builtin_complex("disk_with_induced_boundary_2")
    theta = sample_lsop(disk, expected_lsop_length(disk), 0, F)
    A = quotient_presentation(disk, theta, F)
    with pytest.raises(FaceRingError, match="absolute"):
        A.restriction_kernel(1, [disk.delta.faces])

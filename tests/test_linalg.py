import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srlab import linalg
from srlab.complexes import as_relative, builtin_complex, coboundary_matrices
from srlab.facering import _mult_matrix, _mult_pattern, trials_until_certified
from srlab.linalg import (
    DEFAULT_PRIME,
    FrozenQuotient,
    LazyHomology,
    LinAlgError,
    MAX_PRIME,
    PrimeField,
    SparseMatrix,
    _PEEL_ROUNDS,
    _TINY_CELLS,
    _eliminate,
    _list_eliminate,
    _markowitz_rank,
    _peel_singletons,
    identity,
    is_prime,
    kernel_basis,
    matmul,
    rank,
    rref,
)
from srlab.partition import (
    DoubleComplexSlice,
    PartitionComplexSpec,
    restriction_matrix,
    total_complex_homology,
)

F = PrimeField(DEFAULT_PRIME)


def test_prime_field_rejects_composites_and_huge_moduli():
    with pytest.raises(LinAlgError):
        PrimeField(10)
    with pytest.raises(LinAlgError):
        PrimeField(1)
    with pytest.raises(LinAlgError):
        PrimeField(2147483647 + 2)
    assert PrimeField(2).p == 2
    assert PrimeField(2147483647).p == 2147483647


def test_is_prime_small_table():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division():
    # trial division of every n < 2 * 10^5 at once, by each d up to its square root
    n = np.arange(200_000)
    prime = n >= 2
    for d in range(2, math.isqrt(n.size) + 1):
        prime &= (n % d != 0) | (n == d)
    assert [k for k in range(n.size) if is_prime(k)] == np.flatnonzero(prime).tolist()
    # strong pseudoprimes to base 2, and composites around 2^31
    for n in (2047, 3277, 4033, 4681, 8321):
        assert not is_prime(n) and not _trial_division(n)
    near = range(2**31 - 40, 2**31 + 40)
    assert [n for n in near if is_prime(n)] == [n for n in near if _trial_division(n)]
    assert is_prime(2147483647) and is_prime(2147483629) and not is_prime(2147483649)


def test_is_prime_range_covers_every_field():
    assert MAX_PRIME < 3_215_031_751
    # the least strong pseudoprime to 2, 3, 5 and 7 is past the exact range
    with pytest.raises(LinAlgError):
        is_prime(3_215_031_751)


def test_inverse_roundtrip():
    f = PrimeField(101)
    for a in range(1, 101):
        assert a * f.inverse(a) % 101 == 1
    with pytest.raises(ZeroDivisionError):
        f.inverse(0)


def test_matmul_matches_python_bigints():
    rng = np.random.default_rng(3)
    a = rng.integers(0, DEFAULT_PRIME, size=(7, 5), dtype=np.int64)
    b = rng.integers(0, DEFAULT_PRIME, size=(5, 4), dtype=np.int64)
    got = matmul(a, b, DEFAULT_PRIME)
    want = [[sum(int(a[i, k]) * int(b[k, j]) for k in range(5)) % DEFAULT_PRIME
             for j in range(4)] for i in range(7)]
    assert got.tolist() == want


def test_rank_known_values():
    assert rank(identity(4), 7) == 4
    assert rank(np.zeros((3, 5), dtype=np.int64), 7) == 0
    assert rank(np.zeros((0, 5), dtype=np.int64), 7) == 0
    m = np.array([[1, 2], [2, 4]])
    assert rank(m, 5) == 1
    # 2*3 = 6 = 1 mod 5, so the rows become dependent only mod 5
    m = np.array([[1, 2], [3, 1]])
    assert rank(m, 5) == 1
    assert rank(m, 7) == 2


def test_rref_idempotent_and_reproducible():
    rng = np.random.default_rng(11)
    m = rng.integers(0, 13, size=(6, 9), dtype=np.int64)
    red, piv = rref(m, 13)
    red2, piv2 = rref(red, 13)
    assert piv == piv2 == sorted(piv)
    assert np.array_equal(red, red2)
    red3, piv3 = rref(m, 13)
    assert np.array_equal(red, red3) and piv == piv3


def test_kernel_basis_spans_kernel():
    rng = np.random.default_rng(5)
    for trial in range(20):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        m = rng.integers(0, 13, size=(rows, cols), dtype=np.int64)
        k = kernel_basis(m, 13)
        assert k.shape[0] == cols
        assert not np.any(matmul(m, k, 13))
        assert rank(m, 13) + k.shape[1] == cols
        if k.shape[1]:
            assert rank(k, 13) == k.shape[1]


def test_markowitz_rank_agrees_with_frozen_elimination():
    rng = np.random.default_rng(7)
    for trial in range(12):
        rows = int(rng.integers(30, 90))
        cols = int(rng.integers(30, 90))
        m = np.zeros((rows, cols), dtype=np.int64)
        nnz = int(rng.integers(1, rows * cols // 8))
        r = rng.integers(0, rows, size=nnz)
        c = rng.integers(0, cols, size=nnz)
        m[r, c] = rng.integers(1, 97, size=nnz)
        _, piv = _eliminate(m, 97, reduced=False)
        assert _markowitz_rank(SparseMatrix.from_dense(m, 97), 97) == len(piv)


def test_markowitz_rank_densifies_the_live_block_past_its_budget(monkeypatch):
    # under 1/20 full, but random: it fills in
    rng = np.random.default_rng(4)
    m = _random_matrix(rng, (700, 690), 97, 0.045)
    assert np.count_nonzero(m) * 20 < m.size
    handed = []
    real = linalg._eliminate

    def spy(sub, p, reduced, **kwargs):
        handed.append(np.asarray(sub) % p)
        return real(sub, p, reduced, **kwargs)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    got = rank(m, 97)
    assert len(handed) == 1
    sub = handed[0]
    # only live rows and columns are densified, and some pivots came first
    assert sub.any(axis=1).all() and sub.any(axis=0).all()
    assert sub.shape[0] < 700 and sub.shape[1] < 690
    _, piv = real(m, 97, reduced=False)
    assert got == len(piv)


@pytest.mark.parametrize("name,p", [("rp2_6", 2), ("rp2_6", 3), ("torus7", DEFAULT_PRIME),
                                    ("boundary_simplex_3", DEFAULT_PRIME)])
def test_markowitz_rank_on_total_complex_differentials(monkeypatch, name, p):
    psi = builtin_complex(name)
    field = PrimeField(p)
    _, theta = trials_until_certified(psi, 0, field)
    spec = PartitionComplexSpec.full(psi)
    real = linalg._eliminate
    densified = []

    def spy(*args, **kwargs):
        densified.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    checked = 0
    for j in range(psi.dim + 2):
        sl = DoubleComplexSlice(spec, theta, field, j)
        for k in range(-1, spec.max_position + sl.n + 1):
            d = sl.tot_differential(k)
            if not d.vals.size:
                continue
            for a in (d, d.T):
                dense = a.toarray()
                want = len(real(dense, p, False)[1])
                found = []
                assert _markowitz_rank(a, p, pivots=found) == want, (j, k)
                rows = [i for i, _ in found]
                assert len(set(rows)) == len({c for _, c in found}) == want
                assert len(real(dense[rows], p, False)[1]) == want
                checked += 1
    assert checked > 20
    assert densified == []


def test_rank_uses_sparse_path_on_large_sparse_input():
    # under 1/20 full
    m = np.zeros((600, 600), dtype=np.int64)
    rng = np.random.default_rng(1)
    r = rng.integers(0, 600, size=4000)
    c = rng.integers(0, 600, size=4000)
    m[r, c] = rng.integers(1, DEFAULT_PRIME, size=4000)
    mt = m[: 300]
    _, piv = _eliminate(mt.T, DEFAULT_PRIME, reduced=False)
    assert rank(mt, DEFAULT_PRIME) == len(piv)
    _, piv_full = _eliminate(m, DEFAULT_PRIME, reduced=False)
    assert rank(m, DEFAULT_PRIME) == len(piv_full)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([2, 3, 13, 101]),
       st.integers(1, 7), st.integers(1, 7))
def test_rank_transpose_invariant_and_bounded(seed, p, rows, cols):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
    r = rank(m, p)
    assert r == rank(m.T, p)
    assert 0 <= r <= min(rows, cols)
    stacked = np.vstack([m, m])
    assert rank(stacked, p) == r


def _oracle_rref(m, p):
    """Gauss-Jordan over Python ints, rows held as {column: value} dicts."""
    rows = [{j: x % p for j, x in enumerate(row) if x % p} for row in m.tolist()]
    pivots = []
    for c in range(m.shape[1]):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if i is None:
            continue
        inv = pow(rows[i][c], -1, p)
        piv = {j: v * inv % p for j, v in rows[i].items()}
        rows[i] = rows[r]
        rows[r] = piv
        for k, row in enumerate(rows):
            if k == r or c not in row:
                continue
            f = row[c]
            for j, v in piv.items():
                x = (row.get(j, 0) - f * v) % p
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
        pivots.append(c)
    dense = [[row.get(j, 0) for j in range(m.shape[1])] for row in rows]
    return dense, pivots


def _random_matrix(rng, shape, p, density):
    """Entries drawn from [-p, 2p), so the kernel has to reduce them."""
    m = rng.integers(-p, 2 * p, size=shape, dtype=np.int64)
    return m * (rng.random(shape) < density)


def _low_rank_matrix(rng, shape, p, density, k):
    """Every row a multiple of one of k random rows: rank <= k, many parallel rows."""
    basis = _random_matrix(rng, (k, shape[1]), p, density)
    pick = rng.integers(0, k, size=shape[0])
    return basis[pick] * rng.integers(1, p, size=(shape[0], 1), dtype=np.int64) % p


def _sign_matrix(rng, shape, p, density):
    """Entries +-1, spelt -1, p - 1, p + 1 and -p - 1, so the kernel has to reduce them."""
    spellings = np.array([-1, p - 1, p + 1, -p - 1], dtype=np.int64)
    return spellings[rng.integers(0, 4, size=shape)] * (rng.random(shape) < density)


# (shape, density, entries, regimes, name). entries: None for random ones,
# an int k for a rank <= k matrix, "signs" for +-1 ones, "doubled" for +-2
# ones. regimes: the kernel sequences rank() may run, kernels in order joined
# by "+", sequences by "|". rank() eliminates along the shorter axis, so a
# wide shape is transposed first. The test id is shape<k>-density-entries-name,
# and name defaults to regimes. A name that differs is the kernel the case took
# when rank() had a unit path for +-1 matrices, kept so that test ids are stable.
_STRADDLES = "sparse|sparse+dense|dense"  # about 1/20 full: the draw falls either side
KERNEL_CASES = [
    pytest.param(shape, density, entries, regimes,
                 id=f"shape{k}-{density}-{entries}-{name or regimes}")
    for k, (shape, density, entries, regimes, name) in enumerate([
        ((8, 8), 0.7, None, "list", None),        # exactly _TINY_CELLS
        ((8, 8), 0.2, None, "list", None),
        ((4, 16), 0.7, None, "list", None),
        ((16, 4), 0.7, None, "list", None),
        ((5, 13), 0.7, None, "dense", None),      # one cell past the cutoff
        ((13, 5), 0.7, None, "dense", None),
        ((1, 65), 1.0, None, "dense", None),
        ((30, 47), 0.3, None, "dense", None),
        ((47, 30), 0.3, None, "dense", None),
        ((500, 500), 0.006, None, "sparse", "dense"),
        ((500, 501), 0.006, None, "sparse", None),
        ((501, 500), 0.006, None, "sparse", None),
        ((501, 500), 0.01, 100, "sparse", None),
        ((501, 500), 0.2, 12, "dense", None),
        ((5, 13), 0.7, "signs", "dense", "unit"),
        ((40, 90), 0.05, "signs", _STRADDLES, "unit"),
        ((90, 40), 0.05, "signs", _STRADDLES, "unit"),
        ((40, 90), 0.05, "doubled", _STRADDLES, "dense"),
        ((500, 500), 0.004, "signs", "sparse", "unit"),
        ((501, 500), 0.004, "signs", "sparse", None),
        ((60, 60), 0.5, "signs", "dense", "unit+dense"),
        ((200, 300), 0.01, "signs", "sparse", None),
    ])
]


def _kernel_matrix(p, shape, density, entries):
    """The matrix of one KERNEL_CASES entry over F_p."""
    rng = np.random.default_rng([p % 1000, *shape, int(1000 * density)])
    if entries is None:
        return _random_matrix(rng, shape, p, density)
    if entries in ("signs", "doubled"):
        return _sign_matrix(rng, shape, p, density) * (2 if entries == "doubled" else 1)
    return _low_rank_matrix(rng, shape, p, density, entries)


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
@pytest.mark.parametrize("shape,density,entries,regimes", KERNEL_CASES)
def test_kernel_regimes_match_python_gauss_jordan(monkeypatch, p, shape, density, entries,
                                                  regimes):
    assert 8 * 8 == _TINY_CELLS
    m = _kernel_matrix(p, shape, density, entries)
    if m.size > _TINY_CELLS and "|" not in regimes:
        # past the list path, fill alone picks the regime, and each case is clear of 1/20
        assert (np.count_nonzero(m) * 20 < m.size) == regimes.startswith("sparse")
    taken = []
    for name in ("_list_eliminate", "_markowitz_rank", "_eliminate"):
        real = getattr(linalg, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            taken.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(linalg, name, spy)
    want, want_piv = _oracle_rref(m, p)
    assert rank(m, p) == len(want_piv)
    kernel = {"_list_eliminate": "list", "_markowitz_rank": "sparse", "_eliminate": "dense"}
    assert "+".join(kernel[name] for name in taken) in regimes.split("|")
    red, piv = rref(m, p)
    assert piv == want_piv
    assert red.tolist() == want


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
@pytest.mark.parametrize("entries", ["signs", None])
@pytest.mark.parametrize("shape,density", [((520, 490), 0.005), ((490, 520), 0.008)])
def test_markowitz_rank_matches_python_gauss_jordan(monkeypatch, p, entries, shape, density):
    rng = np.random.default_rng([p % 1000, *shape, entries is None])
    if entries == "signs":
        m = _sign_matrix(rng, shape, p, density)
    else:
        m = _random_matrix(rng, shape, p, density)
    assert np.count_nonzero(m) * 20 < m.size
    taken = []
    for name in ("_markowitz_rank", "_eliminate"):
        real = getattr(linalg, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            taken.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(linalg, name, spy)
    _, want = _oracle_rref(m, p)
    sparse = SparseMatrix.from_dense(m, p)
    assert rank(m, p) == rank(sparse, p) == rank(sparse.T, p) == len(want)
    assert taken == ["_markowitz_rank"] * 3


def test_sparse_matrix_drops_zeros_and_keeps_empty_rows_and_columns():
    p = 7
    # row 1 and columns 0 and 4 hold nothing; 14 and -7 are zero mod 7
    a = SparseMatrix((4, 6), [0, 0, 2, 2, 3, 1, 3], [1, 2, 1, 3, 5, 2, 3],
                     [3, 14, -4, 1, 8, -7, 2], p)
    assert a.vals.tolist() == [3, 3, 1, 1, 2]
    assert a.rows.tolist() == [0, 2, 2, 3, 3] and a.cols.tolist() == [1, 1, 3, 5, 3]
    dense = a.toarray()
    assert dense.tolist() == [[0, 3, 0, 0, 0, 0], [0] * 6, [0, 3, 0, 1, 0, 0],
                              [0, 0, 0, 2, 0, 1]]
    assert np.array_equal(a.T.toarray(), dense.T)
    assert rank(a, p) == rank(a.T, p) == len(_oracle_rref(dense, p)[1]) == 3
    assert rank(SparseMatrix((3, 3), [0, 1], [0, 1], [7, 21], p), p) == 0
    assert rank(SparseMatrix((0, 5), [], [], [], p), p) == 0
    assert rank(SparseMatrix((4, 0), [], [], [], p), p) == 0
    with pytest.raises(LinAlgError, match="outside"):
        SparseMatrix((2, 2), [0, 2], [0, 0], [1, 1], p)


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
def test_sparse_matrix_from_dense_round_trips_reduced_entries(p):
    rng = np.random.default_rng(p % 1000)
    for shape in [(0, 3), (3, 0), (1, 1), (9, 14), (40, 23)]:
        m = _random_matrix(rng, shape, p, 0.3)
        a = SparseMatrix.from_dense(m, p)
        assert a.shape == shape and isinstance(a.shape[0], int)
        assert np.array_equal(a.toarray(), m % p)
        assert a.vals.size == np.count_nonzero(m % p) and ((a.vals > 0) & (a.vals < p)).all()


def test_sparse_matrix_blocks_are_placed_with_their_signs():
    p = 5
    b = SparseMatrix.from_dense(np.array([[1, 0], [2, 3]]), p)
    a = SparseMatrix.from_blocks((4, 5), [(0, 0, b, 1), (2, 3, b, -1)], p)
    want = np.zeros((4, 5), dtype=np.int64)
    want[:2, :2] = [[1, 0], [2, 3]]
    want[2:, 3:] = [[4, 0], [3, 2]]
    assert np.array_equal(a.toarray(), want)
    assert SparseMatrix.from_blocks((2, 2), [], p).vals.size == 0


def test_entry_points_leave_their_input_untouched():
    p = 7
    rng = np.random.default_rng(17)
    tor = builtin_complex("torus7")
    pattern = _mult_pattern(tor, 1)
    torus = as_relative(tor)
    star = as_relative(tor.star(tor.delta.vertex_masks()[0]))
    restriction = restriction_matrix(torus, star, 3)
    assert restriction.size > _TINY_CELLS
    inputs = [
        _mult_matrix(tor, (1, 2, 3, 4, 5, 6, 0), 1, p),        # built from the cached pattern
        restriction,                                            # sparse regime, from dense
        rng.integers(-20, 20, size=(3, 4), dtype=np.int64),     # list regime
        rng.integers(-20, 20, size=(9, 14), dtype=np.int64),    # dense regime
        rng.integers(-20, 20, size=(14, 9), dtype=np.int64).T,  # non-contiguous view
        _sign_matrix(rng, (30, 45), p, 0.1),                    # dense regime, +-1 entries
        _random_matrix(rng, (600, 500), p, 0.003),              # sparse regime
    ]
    for m in inputs:
        before = m.copy()
        m.setflags(write=False)  # a write now raises instead of corrupting silently
        rank(m, p)
        rref(m, p)
        kernel_basis(m, p)
        FrozenQuotient(m[:1], p).extend(m)  # the list regime for the 3 x 4 input
        assert np.array_equal(m, before)
    sparse = SparseMatrix.from_dense(_random_matrix(rng, (600, 500), p, 0.003), p)
    arrays = (sparse.rows, sparse.cols, sparse.vals)
    before = [x.copy() for x in arrays]
    for x in arrays:
        x.setflags(write=False)
    rank(sparse, p)
    rank(sparse.T, p)
    assert all(np.array_equal(x, y) for x, y in zip(arrays, before))
    assert all(not a.flags.writeable for a in pattern)
    assert _mult_pattern(tor, 1) is pattern


def test_frozen_quotient_coordinates():
    rng = np.random.default_rng(3)
    p = 7
    rows = rng.integers(0, p, size=(4, 9), dtype=np.int64)
    rows[3] = (rows[0] + 2 * rows[1]) % p
    q = FrozenQuotient(rows, p)
    r = rank(rows, p)
    assert q.dim == 9 - r and q.pivots.size == r
    assert sorted(q.pivots.tolist() + q.free.tolist()) == list(range(9))
    assert np.array_equal(q.reduce(q.lift()), identity(q.dim))
    assert not np.any(q.reduce(rows.T))
    v = rng.integers(0, p, size=(9, 5), dtype=np.int64)
    w = q.reduce(v)
    # v - lift(reduce(v)) lies in the row span, so it adds nothing to the rank
    back = (v - matmul(q.lift(), w, p)) % p
    assert rank(np.vstack([rows, back.T]), p) == r
    empty = FrozenQuotient(np.zeros((0, 3), dtype=np.int64), p)
    assert empty.dim == 3 and np.array_equal(empty.reduce(identity(3)), identity(3))


def _same_quotient(q, want):
    for name in ("pivots", "free", "rfree"):
        got, exp = getattr(q, name), getattr(want, name)
        assert got.dtype == exp.dtype == np.int64 and got.shape == exp.shape
        assert got.tolist() == exp.tolist()
    assert q.rfree.shape == (q.pivots.size, q.dim)
    assert type(q.dim) is int and q.dim == want.dim


@pytest.mark.parametrize("p", [2, 3, 7, DEFAULT_PRIME])
def test_frozen_quotient_extended_in_batches_equals_the_stacked_quotient(p):
    rng = np.random.default_rng(p % 1000)
    for trial in range(12):
        n = int(rng.integers(1, 14))
        k = int(rng.integers(1, n + 1))
        rows = (_low_rank_matrix(rng, (int(rng.integers(1, 2 * n)), n), p, 0.5, k)
                if trial % 2 else _random_matrix(rng, (int(rng.integers(1, n + 2)), n), p, 0.4))
        cuts = np.sort(rng.integers(0, rows.shape[0] + 1, size=3))
        batches = [np.zeros((0, n), dtype=np.int64)]                        # empty batch
        for a, b in zip([0, *cuts], [*cuts, rows.shape[0]]):
            batches.append(rows[a:b])
            batches.append(np.zeros((int(rng.integers(1, 3)), n), dtype=np.int64))  # zero rows
            seen = np.vstack(batches)
            mix = rng.integers(-2, 3, size=(int(rng.integers(1, 4)), seen.shape[0]))
            batches.append(mix @ seen % p)                                    # fully dependent
        q = FrozenQuotient(batches[0], p)
        for b in batches[1:]:
            q.extend(b)
        _same_quotient(q, FrozenQuotient(np.vstack(batches), p))
        _same_quotient(q, FrozenQuotient(rows, p))


def _quotient_through(monkeypatch, cut, batches, p):
    """The quotient by ``batches``, one extend each, with the list regime's cut set to ``cut``."""
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_TINY_CELLS", cut)
        q = FrozenQuotient(batches[0], p)
        for b in batches[1:]:
            q.extend(b)
    return q


def _extend_batches(rng, p):
    """Batch sequences for FrozenQuotient, each starting with the rows it is built from.

    Rows have entries in [-2p, 2p), so negative ones and ones >= p; the
    sequences hold zero rows, rows dependent on earlier ones, a quotient
    that reaches dim 0, and extends of exactly _TINY_CELLS and
    _TINY_CELLS + 1 cells (new rows plus held pivot rows, times the width).
    """
    def raw(k, n):
        return rng.integers(-2 * p, 2 * p, size=(k, n), dtype=np.int64)

    cases = [
        [raw(8, 8)],                                               # 64 cells
        [raw(5, 13)],                                              # 65 cells
        [raw(1, 16), raw(3, 16)],                                  # 1 held + 3 new = 64 cells
        [raw(1, 13), raw(4, 13)],                                  # 1 held + 4 new = 65 cells
        [raw(2, 6), raw(3, 6), raw(3, 6)],                         # reaches dim 0
        [np.zeros((2, 7), dtype=np.int64), raw(1, 7), np.zeros((3, 7), dtype=np.int64)],
        [rng.integers(-2, 3, size=(2, 9)) * p, raw(2, 9)],         # rows = 0 mod p
    ]
    for _ in range(16):
        n = int(rng.integers(1, 12))
        batches = [raw(int(rng.integers(0, 3)), n)]
        for _ in range(int(rng.integers(1, 5))):
            seen = np.vstack(batches)
            new = raw(int(rng.integers(1, 4)), n)
            if seen.shape[0] and rng.random() < 0.5:
                mix = rng.integers(-2, 3, size=(new.shape[0], seen.shape[0]))
                new = mix @ seen                                    # dependent on earlier rows
            batches.append(new)
        cases.append(batches)
    return cases


@pytest.mark.parametrize("p", [2, 3, 5, MAX_PRIME])
def test_frozen_quotient_list_regime_equals_the_numpy_path(monkeypatch, p):
    rng = np.random.default_rng(p % 1000 + 11)
    cases = _extend_batches(rng, p)
    dims = set()
    for batches in cases:
        before = [b.copy() for b in batches]
        on_lists = _quotient_through(monkeypatch, 1 << 30, batches, p)
        on_numpy = _quotient_through(monkeypatch, -1, batches, p)
        _same_quotient(on_lists, on_numpy)
        _same_quotient(on_lists, FrozenQuotient(np.vstack(batches), p))
        assert all(np.array_equal(b, c) for b, c in zip(batches, before))
        dims.add(on_lists.dim == 0)
    assert dims == {True, False}


def test_small_extends_eliminate_on_lists(monkeypatch):
    p = 7
    called = []
    for name in ("rref", "_eliminate"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *a, _real=real, _name=name, **k:
                            called.append(_name) or _real(*a, **k))
    rng = np.random.default_rng(29)
    held = rng.integers(1, p, size=(1, 16), dtype=np.int64)
    q = FrozenQuotient(held, p)                                     # 16 cells
    q.extend(rng.integers(0, p, size=(3, 16), dtype=np.int64))      # (3 + 1) * 16 = 64 cells
    assert called == [] and q.pivots.size == 4
    q = FrozenQuotient(held[:, :13], p)
    q.extend(rng.integers(0, p, size=(4, 13), dtype=np.int64))      # (4 + 1) * 13 = 65 cells
    assert called == ["rref", "_eliminate"] and q.pivots.size == 5


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
def test_list_elimination_equals_the_dense_regime(p):
    rng = np.random.default_rng([p % 1000, 64])
    ranks = set()
    for trial in range(300):
        rows = int(rng.integers(1, 17))
        cols = int(rng.integers(1, _TINY_CELLS // rows + 1))
        if trial % 3:
            m = _random_matrix(rng, (rows, cols), p, rng.random())
        else:
            m = _low_rank_matrix(rng, (rows, cols), p, rng.random(), int(rng.integers(1, 4)))
        given = m.tolist()
        red, piv = rref(m, p)
        for reduced in (True, False):
            want, got = [], []
            _, want_cols = _eliminate(m, p, reduced, pivots=want)
            echelon, got_cols = _list_eliminate(given, p, reduced, pivots=got)
            # unreduced, the rows are left unscaled, so only rank and pivots are compared
            assert got_cols == want_cols == piv and got == want
            if reduced:
                assert echelon == red.tolist()
        assert given == m.tolist()
        ranks.add(len(piv) == min(rows, cols))
    assert ranks == {True, False}


def test_frozen_quotient_extension_edge_cases():
    p = 7
    q = FrozenQuotient(identity(3), p)
    assert q.dim == 0
    q.extend(np.array([[1, 2, 3]]))  # nothing is left to quotient by
    _same_quotient(q, FrozenQuotient(identity(3), p))
    q = FrozenQuotient(np.array([[1, 1, 0]]), p)
    q.extend(np.array([[0, 1, 1], [1, 0, 6]]))  # the second row is the first minus the new one
    _same_quotient(q, FrozenQuotient(np.array([[1, 1, 0], [0, 1, 1]]), p))
    with pytest.raises(LinAlgError, match="width"):
        q.extend(np.zeros((1, 4), dtype=np.int64))


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
def test_frozen_quotient_coordinates_equal_reduced_unit_vectors(p):
    rng = np.random.default_rng(p % 1000 + 5)
    cases = [np.zeros((0, 5), dtype=np.int64),              # no pivots
             np.zeros((3, 4), dtype=np.int64),              # zero rows, no pivots
             identity(4),                                   # dim 0
             np.zeros((0, 0), dtype=np.int64)]              # F_p^0
    for trial in range(20):
        n = int(rng.integers(1, 12))
        cases.append(_low_rank_matrix(rng, (int(rng.integers(1, 2 * n)), n), p, 0.5,
                                      int(rng.integers(1, n + 1)))
                     if trial % 2 else _random_matrix(rng, (int(rng.integers(1, n + 2)), n), p, 0.4))
    dims = set()
    for rows in cases:
        q = FrozenQuotient(rows, p)
        n = rows.shape[1]
        got = q.coordinates()
        assert got.dtype == np.int64 and got.shape == (q.dim, n)
        assert np.array_equal(got, q.reduce(identity(n)))
        dims.add((q.dim == 0, q.pivots.size == 0))
    assert {(True, False), (False, True)} <= dims


def test_lazy_homology_builds_each_needed_matrix_once():
    d0 = np.array([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    dims = {0: 3, 1: 3}
    built = []

    def differential(i):
        built.append(i)
        return d0

    h = LazyHomology(lambda i: dims.get(i, 0), differential, (1,), 7)
    assert h.homology(0) == 1
    assert h.homology(1) == 1
    assert h.homology(5) == 0
    # the maps into 0 and out of 1 have a zero side and are never built
    assert built == [0]


def _pivot_rows(m, p, want_rank):
    """The pivot rows rank() reports for m, checked to be want_rank distinct rows."""
    rows = []
    assert rank(m, p, pivot_rows=rows) == want_rank
    assert len(rows) == len(set(rows)) == want_rank
    return rows


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
@pytest.mark.parametrize("shape,density,entries,regimes", KERNEL_CASES)
def test_pivot_rows_hold_the_rank_in_every_regime(monkeypatch, p, shape, density, entries,
                                                  regimes):
    # the matrices of test_kernel_regimes_match_python_gauss_jordan, so the regimes hold
    m = _kernel_matrix(p, shape, density, entries)
    want = rank(m, p)
    taken = []
    for name in ("_list_eliminate", "_markowitz_rank", "_eliminate"):
        real = getattr(linalg, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            taken.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(linalg, name, spy)
    kernel = {"_list_eliminate": "list", "_markowitz_rank": "sparse", "_eliminate": "dense"}
    sparse = SparseMatrix.from_dense(m, p)
    # both orientations: rank() transposes the wider one, whose pivot rows are then
    # the pivot columns of its kernel
    for a, dense, sequences in [(m, m, regimes.split("|")),
                                (m.T, m.T, regimes.split("|")),
                                (sparse, m, ["sparse", "sparse+dense"]),
                                (sparse.T, m.T, ["sparse", "sparse+dense"])]:
        taken.clear()
        rows = _pivot_rows(a, p, want)
        assert "+".join(kernel[name] for name in taken) in sequences
        assert rank(dense[rows], p) == want


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
def test_pivot_rows_survive_the_densify_fallback(monkeypatch, p):
    rng = np.random.default_rng([p % 1000, 60, 50])
    m = _random_matrix(rng, (60, 50), p, 0.5)
    taken = []
    for name in ("_markowitz_rank", "_eliminate"):
        real = getattr(linalg, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            taken.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(linalg, name, spy)
    want = len(_oracle_rref(m, p)[1])
    sparse = SparseMatrix.from_dense(m, p)
    for a, dense in [(sparse, m), (sparse.T, m.T)]:
        taken.clear()
        rows = _pivot_rows(a, p, want)
        # fills in: the live block left after some pivots is eliminated densely
        assert taken == ["_markowitz_rank", "_eliminate"]
        assert rank(dense[rows], p) == want


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
@pytest.mark.parametrize("name", ["boundary_simplex_5", "cross_polytope_4",
                                  "barycentric boundary_simplex_3"])
def test_coboundary_ranks_and_pivot_rows_match_python_gauss_jordan(p, name):
    # +-1 matrices; those past the list path here are over 1/20 full and take the dense path
    if name.startswith("barycentric"):
        psi = builtin_complex(name.split()[1]).delta.barycentric_subdivision()
    else:
        psi = builtin_complex(name)
    _, diffs = coboundary_matrices(psi, PrimeField(p))
    assert any(m.size > _TINY_CELLS for m in diffs.values())
    for i, m in diffs.items():
        want = len(_oracle_rref(m, p)[1])
        rows = _pivot_rows(m, p, want)
        assert len(_oracle_rref(m[rows], p)[1]) == want, i


def _peel_case(name, rng, p):
    """(matrix, pivots the peel takes, entries it leaves) for one structure; values mod p vary."""
    def fill(positions, shape):
        m = np.zeros(shape, dtype=np.int64)
        for i, j in positions:
            m[i, j] = rng.integers(1, p)
        return m

    def cycle(n):
        # every row and column of the n x n block holds two entries
        return [(i, (i + k) % n) for i in range(n) for k in (0, 1)]

    if name == "triangular":
        # unit diagonal and a few entries below it, rows and columns permuted
        n = 40
        shape_rng = np.random.default_rng(11)
        below = [(i, j) for i in range(n) for j in range(i) if shape_rng.random() < 0.06]
        m = fill(below, (n, n)) + np.eye(n, dtype=np.int64)
        return m[shape_rng.permutation(n)][:, shape_rng.permutation(n)], n, 0
    if name == "same column":
        # rows 0 and 1 are singletons in column 0; a cycle on rows 2-4 x columns 1-3
        return fill([(0, 0), (1, 0)] + [(2 + i, 1 + j) for i, j in cycle(3)], (5, 4)), 1, 6
    if name == "one row holds two columns":
        # columns 0 and 1 are singletons in row 0; a cycle on rows 1-3 x columns 2-4
        return fill([(0, 0), (0, 1), (0, 2)] + [(1 + i, 2 + j) for i, j in cycle(3)],
                    (4, 5)), 1, 6
    if name == "chain":
        # upper bidiagonal: one row and one column singleton, each opening the next
        n = 6
        return fill([(i, i) for i in range(n)] + [(i, i + 1) for i in range(n - 1)],
                    (n, n)), n, 0
    assert name == "no singletons"
    return fill(cycle(5) + [(0, 2), (3, 1)], (5, 5)), 0, 12


PEEL_CASES = ["triangular", "same column", "one row holds two columns", "chain",
              "no singletons"]


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
@pytest.mark.parametrize("name", PEEL_CASES)
def test_singleton_peel_matches_python_gauss_jordan(p, name):
    rng = np.random.default_rng([p % 1000, PEEL_CASES.index(name)])
    m, taken, left = _peel_case(name, rng, p)
    want = len(_oracle_rref(m, p)[1])
    sparse = SparseMatrix.from_dense(m, p)
    for a, dense in [(sparse, m), (sparse.T, m.T)]:
        arrays = (a.rows, a.cols, a.vals)
        before = [x.copy() for x in arrays]
        for x in arrays:
            x.setflags(write=False)
        peeled, live = _peel_singletons(a)
        assert len(peeled) == taken and live[0].size == left
        if not taken:
            assert all(np.array_equal(x, y) for x, y in zip(live, arrays))
        found = []
        assert _markowitz_rank(a, p, pivots=found) == want
        assert found[:taken] == peeled
        rows = [i for i, _ in found]
        cols = [j for _, j in found]
        assert len(set(rows)) == len(set(cols)) == want
        assert rank(dense[rows], p) == want
        # the pivots hold a nonsingular minor
        assert rank(dense[np.ix_(rows, cols)], p) == want
        assert all(np.array_equal(x, y) for x, y in zip(arrays, before))


def test_chain_of_singletons_opens_round_by_round():
    # only one row and one column are singletons at the start; the peel
    # still takes every pivot, so later rounds found the rest
    m, taken, _ = _peel_case("chain", np.random.default_rng(0), 7)
    a = SparseMatrix.from_dense(m, 7)
    first = [np.bincount(x)[x] == 1 for x in (a.rows, a.cols)]
    assert sum(int(f.sum()) for f in first) == 2 < taken
    assert len(_peel_singletons(a)[0]) == taken


def test_singleton_peel_stops_on_a_long_chain():
    # a bidiagonal chain opens one row and one column singleton per round;
    # after _PEEL_ROUNDS rounds the peel leaves the rest to the row dicts
    # instead of making numpy passes over the whole chain for every pivot
    n = 4000
    i = np.arange(n)
    a = SparseMatrix((n, n), np.r_[i, i[:-1]], np.r_[i, i[:-1] + 1], np.ones(2 * n - 1), 7)
    peeled, live = _peel_singletons(a)
    assert len(peeled) == 2 * _PEEL_ROUNDS and live[0].size == 2 * n - 1 - 4 * _PEEL_ROUNDS
    found = []
    assert _markowitz_rank(a, 7, pivots=found) == n
    assert len({i for i, _ in found}) == len({j for _, j in found}) == n


def test_peel_carries_the_total_complex(monkeypatch):
    # most pivots of the total differentials, as LazyHomology ranks them, need
    # no arithmetic; a change that lost the peel would put them back in Python
    psi = builtin_complex("boundary_simplex_3")
    _, theta = trials_until_certified(psi, 0, F)
    counts = {"peeled": 0, "rank": 0}
    real_peel, real_rank = linalg._peel_singletons, linalg._markowitz_rank

    def peel(a):
        out = real_peel(a)
        counts["peeled"] += len(out[0])
        return out

    def markowitz(a, p, **kwargs):
        r = real_rank(a, p, **kwargs)
        counts["rank"] += r
        return r

    monkeypatch.setattr(linalg, "_peel_singletons", peel)
    monkeypatch.setattr(linalg, "_markowitz_rank", markowitz)
    table = total_complex_homology(psi, theta, F)
    assert {k: v for k, v in table.items() if v} == {(2, 3): 1, (3, 2): 3, (4, 1): 3, (5, 0): 1}
    assert counts["rank"] > 1000
    assert 2 * counts["peeled"] >= counts["rank"]


def _scattered_remainder_case(rng, p, shape=(300, 260), block=(14, 11)):
    """A matrix whose peel leaves one block on scattered high rows and columns.

    Outside the block every row is paired with a column it alone holds,
    and may hold block columns too; so the peel deletes it by a column
    singleton, and what is left is the block, where every row and column
    holds at least two entries. Returns the matrix, the block's rows and
    its columns.
    """
    nrows, ncols = shape
    brows = np.sort(rng.choice(np.arange(nrows // 2, nrows), block[0], replace=False))
    bcols = np.sort(rng.choice(np.arange(ncols // 2, ncols), block[1], replace=False))
    m = np.zeros(shape, dtype=np.int64)
    sub = _random_matrix(rng, block, p, 0.5) % p
    for k in range(max(block)):  # a cycle keeps two entries in every row and column
        for i, j in ((k % block[0], k % block[1]), (k % block[0], (k + 1) % block[1])):
            sub[i, j] = sub[i, j] or rng.integers(1, p)
    m[np.ix_(brows, bcols)] = sub
    rest_rows = np.setdiff1d(np.arange(nrows), brows)
    rest_cols = rng.permutation(np.setdiff1d(np.arange(ncols), bcols))
    for i, j in zip(rest_rows, rest_cols):
        m[i, j] = rng.integers(1, p)
        m[i, bcols[rng.random(block[1]) < 0.2]] = 1
    return m, brows, bcols


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
def test_markowitz_rank_reports_pivots_of_a_scattered_remainder_in_input_coordinates(p):
    rng = np.random.default_rng([p % 1000, 21])
    for _ in range(3):
        m, brows, bcols = _scattered_remainder_case(rng, p)
        want = len(_oracle_rref(m, p)[1])
        sparse = SparseMatrix.from_dense(m, p)
        for a, dense, (live_rows, live_cols) in [(sparse, m, (brows, bcols)),
                                                  (sparse.T, m.T, (bcols, brows))]:
            peeled, live = _peel_singletons(a)
            # the peel leaves exactly the block, on high and scattered indices
            assert set(live[0].tolist()) == set(live_rows.tolist())
            assert set(live[1].tolist()) == set(live_cols.tolist())
            found = []
            assert _markowitz_rank(a, p, pivots=found) == want
            assert found[:len(peeled)] == peeled
            rows = [i for i, _ in found]
            cols = [j for _, j in found]
            assert len(set(rows)) == len(set(cols)) == want
            # the pivots past the peel are the block's, as rows and columns of a
            assert {i for i, _ in found[len(peeled):]} <= set(live_rows.tolist())
            assert {j for _, j in found[len(peeled):]} <= set(live_cols.tolist())
            assert len(found) > len(peeled)
            assert rank(dense[rows], p) == want
            assert rank(dense[np.ix_(rows, cols)], p) == want

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srlab import linalg
from srlab.complexes import as_relative, builtin_complex
from srlab.facering import _mult_matrix
from srlab.linalg import (
    ChainComplexSpec,
    DEFAULT_PRIME,
    LinAlgError,
    PrimeField,
    _LARGE_CELLS,
    _TINY_CELLS,
    _eliminate,
    _sparse_rank,
    identity,
    is_prime,
    kernel_basis,
    matmul,
    rank,
    rref,
)
from srlab.partition import _restriction

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


def test_sparse_rank_agrees_with_frozen_elimination():
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
        assert _sparse_rank(m, 97) == len(piv)


def test_sparse_rank_densifies_when_the_active_block_fills(monkeypatch):
    rng = np.random.default_rng(4)
    m = _random_matrix(rng, (700, 690), 97, 0.045)
    handed = []
    real = linalg._eliminate

    def spy(sub, p, reduced):
        handed.append(np.asarray(sub) % p)
        return real(sub, p, reduced)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    got = _sparse_rank(m, 97)
    assert len(handed) == 1
    sub = handed[0]
    live = np.count_nonzero(sub.any(axis=0))
    # the running counts must match the block they describe when the switch fires
    assert sub.shape[0] * live > 250_000
    assert np.count_nonzero(sub) * 4 > sub.shape[0] * live
    _, piv = real(m, 97, reduced=False)
    assert got == len(piv)


def test_rank_uses_sparse_path_on_large_sparse_input():
    # above the size threshold with density under 1/20
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


def test_chain_complex_rejects_bad_composition():
    d0 = np.array([[1], [1]])
    d1 = np.array([[1, 0]])
    with pytest.raises(LinAlgError):
        ChainComplexSpec({0: 1, 1: 2, 2: 1}, {0: d0, 1: d1}, PrimeField(5))


def test_chain_complex_circle_homology():
    # triangle boundary as a cochain complex: H^0 = H^1 = k
    d0 = np.array([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    spec = ChainComplexSpec({0: 3, 1: 3}, {0: d0}, PrimeField(7))
    assert spec.homology_dims() == {0: 1, 1: 1}


def test_chain_complex_shape_mismatch():
    with pytest.raises(LinAlgError):
        ChainComplexSpec({0: 2, 1: 2}, {0: np.zeros((3, 2), dtype=np.int64)},
                         PrimeField(5))


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


# (shape, density, entries, regimes). entries: None for random ones, an int
# k for a rank <= k matrix, "signs" for +-1 ones, "doubled" for +-2 ones.
# regimes: the kernels rank() must run, in order, joined by "+". rank()
# eliminates along the shorter axis, so a wide shape is transposed first.
KERNEL_CASES = [
    ((8, 8), 0.7, None, "list"),        # exactly _TINY_CELLS
    ((8, 8), 0.2, None, "list"),
    ((4, 16), 0.7, None, "list"),
    ((16, 4), 0.7, None, "list"),
    ((5, 13), 0.7, None, "dense"),      # one cell past the cutoff
    ((13, 5), 0.7, None, "dense"),
    ((1, 65), 1.0, None, "dense"),
    ((30, 47), 0.3, None, "dense"),
    ((47, 30), 0.3, None, "dense"),
    ((500, 500), 0.006, None, "dense"),   # 250,000 cells: not past the size threshold
    ((500, 501), 0.006, None, "sparse"),
    ((501, 500), 0.006, None, "sparse"),
    ((501, 500), 0.01, 100, "sparse"),
    ((501, 500), 0.2, 12, "dense"),       # past the size threshold but 1/20 full
    ((5, 13), 0.7, "signs", "unit"),
    ((40, 90), 0.05, "signs", "unit"),
    ((90, 40), 0.05, "signs", "unit"),
    ((40, 90), 0.05, "doubled", "dense"),
    ((500, 500), 0.004, "signs", "unit"),
    ((501, 500), 0.004, "signs", "sparse"),  # unit, but past the size threshold
    ((60, 60), 0.5, "signs", "unit+dense"),  # fills in: runs out of work budget
]


def _expected_regimes(shape, p, regimes):
    """The allowed kernel sequences: over F_2 and F_3 every matrix is a unit matrix."""
    cells = shape[0] * shape[1]
    if p in (2, 3) and _TINY_CELLS < cells <= _LARGE_CELLS and not regimes.startswith("unit"):
        return ["unit", "unit+dense"]  # whether it fills in depends on the draw
    return [regimes]


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
@pytest.mark.parametrize("shape,density,entries,regimes", KERNEL_CASES)
def test_kernel_regimes_match_python_gauss_jordan(monkeypatch, p, shape, density, entries,
                                                  regimes):
    assert 8 * 8 == _TINY_CELLS
    assert _LARGE_CELLS == 500 * 500
    rng = np.random.default_rng([p % 1000, *shape, int(1000 * density)])
    if entries is None:
        m = _random_matrix(rng, shape, p, density)
    elif entries in ("signs", "doubled"):
        m = _sign_matrix(rng, shape, p, density) * (2 if entries == "doubled" else 1)
    else:
        m = _low_rank_matrix(rng, shape, p, density, entries)
    taken = []
    for name in ("_list_rank", "_unit_rank", "_sparse_rank", "_eliminate"):
        real = getattr(linalg, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            taken.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(linalg, name, spy)
    want, want_piv = _oracle_rref(m, p)
    assert rank(m, p) == len(want_piv)
    kernel = {"_list_rank": "list", "_unit_rank": "unit", "_sparse_rank": "sparse",
              "_eliminate": "dense"}
    assert "+".join(kernel[name] for name in taken) in _expected_regimes(shape, p, regimes)
    red, piv = rref(m, p)
    assert piv == want_piv
    assert red.tolist() == want


def test_entry_points_leave_their_input_untouched():
    p = 7
    rng = np.random.default_rng(17)
    shared = _mult_matrix(builtin_complex("torus7"), (1, 2, 3, 4, 5, 6, 0), 1, p)
    tor = builtin_complex("torus7")
    torus = as_relative(tor)
    star = as_relative(tor.star(tor.delta.vertex_masks()[0]))
    restriction = _restriction(torus, star, 3)
    assert restriction.size > _TINY_CELLS
    inputs = [
        shared,
        restriction,                                            # unit regime, cached
        rng.integers(-20, 20, size=(3, 4), dtype=np.int64),     # list regime
        rng.integers(-20, 20, size=(9, 14), dtype=np.int64),    # dense regime
        rng.integers(-20, 20, size=(14, 9), dtype=np.int64).T,  # non-contiguous view
        _sign_matrix(rng, (30, 45), p, 0.1),                    # unit regime
        _random_matrix(rng, (600, 500), p, 0.003),              # sparse regime
    ]
    for m in inputs:
        before = m.copy()
        if m is not shared and m is not restriction:
            m.setflags(write=False)  # a write now raises instead of corrupting silently
        rank(m, p)
        rref(m, p)
        kernel_basis(m, p)
        assert np.array_equal(m, before)
    assert _mult_matrix(builtin_complex("torus7"), (1, 2, 3, 4, 5, 6, 0), 1, p) is shared
    assert _restriction(torus, star, 3) is restriction

"""Exact linear algebra over a prime field F_p.

Matrices are dense numpy int64 arrays. Inputs may hold unreduced entries
(the -1 signs of a coboundary, say); every result has entries in [0, p).
The modulus is capped at 2^31 - 1 so that a single multiply-accumulate
step of Gaussian elimination stays inside int64; matrix products use a
16-bit split so the accumulated dot products are exact as well.

Elimination runs in one of four regimes, chosen from the input's shape,
fill and entries:

- list path: ``rank`` of a matrix with at most ``_TINY_CELLS`` entries
  eliminates on Python ints, where numpy's per-call cost would dominate;
  the l.s.o.p. certificate's checks are nearly all this small;
- unit path: ``rank`` of a larger matrix of at most ``_LARGE_CELLS``
  cells whose nonzero entries are all 1 or p - 1 mod p (coboundaries,
  restrictions, Cech-signed blocks, and every matrix over F_2 or F_3)
  eliminates rows held as ``{column: value}`` dicts in ``_unit_rank``.
  Such matrices fill in little, so the work follows the nonzeros, not
  the cells. The eliminator gives up once it has made more dict updates
  than the matrix has cells, and the matrix goes to the dense path;
- dense path: ``_eliminate`` scans columns left to right with a frozen
  pivot order and updates the rows below (or, reduced, around) each pivot
  as one slice ``m[targets, c:]``;
- sparse path: ``rank`` of a matrix with more than ``_LARGE_CELLS``
  cells, under 1/20 of them nonzero, pivots greedily for low fill in
  ``_sparse_rank``. Unit matrices this large stay there: testing the
  entries means finding the nonzeros of every large matrix, which costs
  more on the large non-unit differentials than it saves on the rest.

Rank does not depend on the pivot order, and the reduced row echelon form
of a matrix is unique, so ``rref`` and ``kernel_basis`` return the same
arrays however the kernel is written; the frozen order pins down only the
unreduced echelon form.

No entry point mutates its argument: each works on one reduced copy made
per call. Callers rely on this, since the cached multiplication matrices
of ``facering`` are shared arrays.

Everything downstream (cohomology, Hilbert functions, Koszul and
partition homology, pairing ranks) reduces to rank/kernel computations
done here.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_PRIME = 2147483647  # 2^31 - 1

# Largest modulus for which (p-1) + (p-1)^2 < 2^63 holds with room to spare.
MAX_PRIME = 2147483647

# Up to this many cells, rank() eliminates on Python ints: below it a numpy
# call costs more than the arithmetic it performs.
_TINY_CELLS = 64

# Up to this many cells, rank() tries the unit path; above it, sparse input
# takes the sparse path.
_LARGE_CELLS = 250_000


class LinAlgError(ValueError):
    pass


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division (moduli are < 2^31.5)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


class PrimeField:
    """The field F_p; stands in for an infinite field via random sampling."""

    def __init__(self, p: int = DEFAULT_PRIME):
        if not isinstance(p, int):
            raise LinAlgError(f"modulus must be an integer, got {type(p).__name__}")
        if p > MAX_PRIME:
            raise LinAlgError(f"modulus {p} exceeds the supported cap {MAX_PRIME}")
        if not is_prime(p):
            raise LinAlgError(f"modulus {p} is not prime")
        self.p = p

    def inverse(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in F_p")
        return pow(a, -1, self.p)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact A @ B mod p.

    Entries are < 2^31, so a @ b overflows int64 once the inner dimension
    exceeds 2; splitting a into 16-bit halves keeps every accumulated dot
    product below 2^63 for inner dimensions up to 2^16.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape[-1] != b.shape[0]:
        raise LinAlgError(f"shape mismatch for matmul: {a.shape} @ {b.shape}")
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
    if a.shape[-1] > (1 << 16):
        raise LinAlgError("inner dimension too large for exact int64 matmul")
    hi = a >> 16
    lo = a & 0xFFFF
    return (((hi @ b) % p << 16) + lo @ b) % p


def _eliminate(m: np.ndarray, p: int, reduced: bool) -> tuple[np.ndarray, list[int]]:
    """Row echelon form (reduced if asked) and pivot columns; the dense regime.

    Columns are scanned left to right and the first nonzero row at or
    below the cursor is used as pivot. This frozen order fixes the
    unreduced echelon form; the reduced form is unique whatever the order,
    so ``rref`` output and the coset representatives read off it do not
    depend on it. Each pivot clears its column in one slice update of the
    rows ``m[targets, c:]``. The input is not modified: the working array
    is the one copy that reducing it mod p makes.
    """
    m = np.asarray(m, dtype=np.int64) % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r, c:] = m[r, c:] * inv % p
        if reduced:
            targets = np.nonzero(m[:, c])[0]
            targets = targets[targets != r]
        else:
            # the swap moved a row that is zero in column c to i
            targets = r + nz[1:]
        if targets.size:
            m[targets, c:] = (m[targets, c:] - m[targets, c][:, None] * m[r, c:]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def _list_rank(rows: list[list[int]], p: int) -> int:
    """Rank by Gaussian elimination on Python ints; the list regime for tiny matrices."""
    rows = [[x % p for x in row] for row in rows]
    n = len(rows)
    r = 0
    for c in range(len(rows[0])):
        for i in range(r, n):
            if rows[i][c]:
                break
        else:
            continue
        piv = rows[i]
        rows[i], rows[r] = rows[r], piv
        inv = pow(piv[c], -1, p)
        for j in range(r + 1, n):
            f = rows[j][c]
            if f:
                f = f * inv % p
                rows[j] = [(a - f * b) % p for a, b in zip(rows[j], piv)]
        r += 1
        if r == n:
            break
    return r


def _unit_rows(m: np.ndarray, p: int) -> list[dict[int, int]] | None:
    """The nonzero rows of m as {column: value} dicts, shortest first.

    None unless every entry nonzero mod p is 1 or p - 1. One pass over
    the cells finds the nonzeros; the rest of the work follows them.
    """
    r, c = np.nonzero(m)
    v = m[r, c] % p
    if not v.all():
        keep = np.flatnonzero(v)
        r, c, v = r[keep], c[keep], v[keep]
    if not np.all((v == 1) | (v == p - 1)):
        return None
    counts = np.bincount(r, minlength=m.shape[0])
    # A stable sort by row length keeps each row's entries together.
    order = np.argsort(counts[r], kind="stable")
    cols = c[order].tolist()
    vals = v[order].tolist()
    ends = np.cumsum(np.sort(counts[counts > 0])).tolist()
    return [dict(zip(cols[a:b], vals[a:b])) for a, b in zip([0] + ends, ends)]


def _unit_rank(rows: list[dict[int, int]], p: int, budget: int) -> int | None:
    """Rank of row dicts with entries in [1, p), by reducing on leading columns.

    Each row is reduced by the pivot row of its leading (least) column
    until that column has no pivot yet; the row, scaled to lead with 1,
    becomes its pivot. The rows are consumed. None once more than
    ``budget`` dict updates have been made: on a matrix that fills in,
    the dense path is faster.
    """
    pivots: dict[int, dict[int, int]] = {}
    work = 0
    for row in rows:
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            f = row[lead]
            if piv is None:
                if f != 1:
                    inv = pow(f, -1, p)
                    row = {j: x * inv % p for j, x in row.items()}
                pivots[lead] = row
                break
            for j, x in piv.items():
                y = (row.get(j, 0) - f * x) % p
                if y:
                    row[j] = y
                else:
                    del row[j]
            work += len(piv)
            if work > budget:
                return None
    return len(pivots)


def rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns."""
    return _eliminate(m, p, reduced=True)


def _sparse_rank(m: np.ndarray, p: int) -> int:
    """Rank by greedy low-fill elimination, for large sparse matrices.

    Rank does not depend on pivot order, so each step pivots in the
    sparsest active column and row to limit fill-in. Active rows always
    hold zeros in retired columns, which keeps the bookkeeping to two
    nonzero-count vectors. If fill-in densifies the active block anyway,
    the leftover submatrix is handed to the frozen-order eliminator.
    """
    m = np.asarray(m, dtype=np.int64) % p
    rows, cols = m.shape
    rowmask = np.ones(rows, dtype=bool)
    colmask = np.ones(cols, dtype=bool)
    rowcnt = np.count_nonzero(m, axis=1)
    colcnt = np.count_nonzero(m, axis=0)
    active_nnz = int(rowcnt.sum())
    r = 0
    while True:
        live = np.nonzero(colmask & (colcnt > 0))[0]
        if live.size == 0:
            return r
        active_cells = (rows - r) * live.size
        if active_cells > 250_000 and active_nnz * 4 > active_cells:
            sub = m[np.ix_(np.nonzero(rowmask)[0], np.nonzero(colmask)[0])]
            _, pivots = _eliminate(sub, p, reduced=False)
            return r + len(pivots)
        c = int(live[np.argmin(colcnt[live])])
        in_col = np.nonzero((m[:, c] != 0) & rowmask)[0]
        if in_col.size == 0:
            colcnt[c] = 0
            continue
        pr = int(in_col[np.argmin(rowcnt[in_col])])
        piv_cols = np.nonzero(m[pr])[0]
        targets = in_col[in_col != pr]
        if targets.size:
            inv = pow(int(m[pr, c]), -1, p)
            factors = m[targets, c] * inv % p
            block = m[np.ix_(targets, piv_cols)]
            before = block != 0
            block = (block - factors[:, None] * m[pr, piv_cols][None, :]) % p
            m[np.ix_(targets, piv_cols)] = block
            after = block != 0
            colcnt[piv_cols] += after.sum(axis=0) - before.sum(axis=0)
            grown = after.sum(axis=1) - before.sum(axis=1)
            rowcnt[targets] += grown
            active_nnz += int(grown.sum())
        active_nnz -= piv_cols.size
        colcnt[piv_cols] -= 1
        rowmask[pr] = False
        colmask[c] = False
        r += 1


def rank(m: np.ndarray, p: int) -> int:
    """Rank over F_p; 0 for empty matrices.

    The regime follows the input (see the module docstring): tiny matrices
    take the list path, unit matrices of at most ``_LARGE_CELLS`` cells
    the unit path within its work budget, larger sparse ones the sparse
    path, and the rest the dense path.
    """
    m = np.asarray(m, dtype=np.int64)
    if m.shape[0] == 0 or m.shape[1] == 0:
        return 0
    # Eliminating along the shorter axis is faster and rank is transpose-invariant.
    if m.shape[1] > m.shape[0]:
        m = m.T
    if m.size <= _TINY_CELLS:
        return _list_rank(m.tolist(), p)
    if m.size <= _LARGE_CELLS:
        # The shorter axis holds the row dicts: fewer rows to build, and less
        # fill-in on coboundaries than the other way round.
        rows = _unit_rows(m.T, p)
        if rows is not None:
            r = _unit_rank(rows, p, m.size)
            if r is not None:
                return r
    elif np.count_nonzero(m) * 20 < m.size:
        return _sparse_rank(m, p)
    _, pivots = _eliminate(m, p, reduced=False)
    return len(pivots)


def kernel_basis(m: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of {v : Mv = 0}; shape (cols, nullity)."""
    m = np.asarray(m, dtype=np.int64)
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return identity(cols)
    red, pivots = _eliminate(m, p, reduced=True)
    is_pivot = np.zeros(cols, dtype=bool)
    is_pivot[pivots] = True
    free = np.flatnonzero(~is_pivot)
    basis = np.zeros((cols, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    # Row r of an RREF is zero left of its pivot, so this sets only pivots c < f.
    basis[pivots, :] = -red[:len(pivots), free] % p
    return basis


class ChainComplexSpec:
    """A finite cohomologically graded complex of F_p spaces.

    dims[i] is the dimension at index i for i in [lo, hi]; diffs[i] is the
    matrix of d^i: C^i -> C^{i+1} (shape dims[i+1] x dims[i]). Missing
    differentials are zero maps.
    """

    def __init__(self, dims: dict[int, int], diffs: dict[int, np.ndarray], field: PrimeField,
                 check: bool = True):
        dims = dict(dims)
        if dims:
            self.lo = min(dims)
            self.hi = max(dims)
            for i in range(self.lo, self.hi + 1):
                dims.setdefault(i, 0)
        else:
            self.lo, self.hi = 0, -1
        self.dims = dims
        self.diffs = {i: np.asarray(d, dtype=np.int64) % field.p for i, d in diffs.items()}
        self.field = field
        for i, d in self.diffs.items():
            expect = (self.dims.get(i + 1, 0), self.dims.get(i, 0))
            if d.shape != expect:
                raise LinAlgError(f"differential at {i} has shape {d.shape}, expected {expect}")
        if check:
            self.check_complex()

    def check_complex(self) -> None:
        p = self.field.p
        for i in sorted(self.diffs):
            nxt = self.diffs.get(i + 1)
            if nxt is None or nxt.size == 0 or self.diffs[i].size == 0:
                continue
            comp = matmul(nxt, self.diffs[i], p)
            if np.any(comp):
                raise LinAlgError(f"composition d^{i + 1} d^{i} is nonzero: not a complex")

    def homology_dims(self) -> dict[int, int]:
        p = self.field.p
        ranks = {i: rank(d, p) for i, d in self.diffs.items()}
        out = {}
        for i in range(self.lo, self.hi + 1):
            out[i] = self.dims[i] - ranks.get(i, 0) - ranks.get(i - 1, 0)
            if out[i] < 0:
                raise LinAlgError(f"negative homology dimension at index {i}: invalid complex")
        return out

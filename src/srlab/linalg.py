"""Exact linear algebra over a prime field F_p.

Matrices are dense numpy int64 arrays, except that ``rank`` also takes a
``SparseMatrix``, which holds only the nonzeros; the Koszul and
total-complex differentials are built that way, the large ones being a
fraction of a percent full. Inputs may hold unreduced entries (the -1
signs of a coboundary, say); every result has entries in [0, p). The
modulus is capped at 2^31 - 1 so that a single multiply-accumulate step
of Gaussian elimination stays inside int64; matrix products use a 16-bit
split so the accumulated dot products are exact as well.

Elimination runs in one of three regimes, chosen from the input's type,
size and fill:

- list path: ``rank`` of a matrix with at most ``_TINY_CELLS`` entries
  eliminates on Python ints with ``_list_eliminate``, where numpy's
  per-call cost would dominate; the l.s.o.p. certificate's checks are
  nearly all this small. So does ``FrozenQuotient.extend``, reduced,
  when its new rows and the pivot rows it holds come to at most
  ``_TINY_CELLS`` cells, as most of the staged Hilbert certificate's
  extends by one degree-1 row do;
- sparse path: ``rank`` of a ``SparseMatrix``, or of a larger dense
  matrix under 1/20 of whose cells are nonzero, runs ``_markowitz_rank``.
  It first peels singletons in numpy: a row or a column with one live
  entry is a pivot that deletes its column or its row and updates
  nothing, and rounds of ``np.bincount`` find them. Each is alone in its
  row or column among what is live when it is taken, so the peeled pivots
  hold a block-triangular nonsingular minor, which the pivots of the rest
  extend. What is left is pivoted Markowitz-style on row dicts: row
  first, on the shortest live row, found through a bucket queue on row
  lengths, in its column with the fewest live rows. Past as many dict
  updates as the matrix has cells, the rows and columns still live go to
  the dense path as one block;
- dense path: everything else, and every ``rref``, ``kernel_basis`` and
  larger ``FrozenQuotient.extend``.
  ``_eliminate`` scans columns left to right with a frozen pivot order
  and updates the rows below (or, reduced, around) each pivot as one
  slice ``m[targets, c:]``.

Rank does not depend on the pivot order, and the reduced row echelon form
of a matrix is unique, so ``rref`` and ``kernel_basis`` return the same
arrays however the kernel is written; the frozen order pins down only the
unreduced echelon form. Every regime can also report the rows its pivots
came from (``rank(..., pivot_rows=...)``); which rows they are depends on
the regime, but they are always ``rank`` independent rows of the input.

No entry point mutates its argument: each works on one reduced copy made
per call. The cached multiplication patterns of ``facering`` are
shared, read-only arrays.

Everything downstream (cohomology, Hilbert functions, Koszul and
partition homology, pairing ranks) reduces to rank/kernel computations
done here. The two moves the complexes and quotients downstream are
built from have one home each here as well: ``LazyHomology`` reads
homology off a complex as dim - rank - rank, ranking each differential
without the columns that the map into its source pivoted on, and
``FrozenQuotient`` quotients a space by a span in frozen coordinates,
extending the span batch by batch.
"""

from __future__ import annotations

import numpy as np

DEFAULT_PRIME = 2147483647  # 2^31 - 1

# Largest modulus for which (p-1) + (p-1)^2 < 2^63 holds with room to spare.
MAX_PRIME = 2147483647

# Up to this many cells, rank() eliminates on Python ints: below it a numpy
# call costs more than the arithmetic it performs.
_TINY_CELLS = 64

# The singleton peel runs at most this many rounds. Each round makes a few
# numpy passes over the entries still live, so the cap keeps the peel linear
# in the nonzeros; a long chain of singletons that opens one pivot per round
# is left to the row dicts, which take it one cheap pivot at a time.
_PEEL_ROUNDS = 16


class LinAlgError(ValueError):
    pass


# Miller-Rabin with these bases is exact below 3,215,031,751, past MAX_PRIME.
_MR_BASES = (2, 3, 5, 7)
_MR_LIMIT = 3_215_031_751


def is_prime(n: int) -> bool:
    """Deterministic primality for n < 3,215,031,751: strong probable prime to 2, 3, 5, 7.

    Jaeschke (Math. Comp. 61, 1993): 3,215,031,751 is the least composite
    that is a strong pseudoprime to all four bases.
    """
    if n >= _MR_LIMIT:
        raise LinAlgError(f"is_prime is exact only below {_MR_LIMIT}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
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


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


class SparseMatrix:
    """A matrix over F_p held by its nonzeros.

    ``rows``, ``cols`` and ``vals`` are int64 arrays with one entry per
    nonzero position and values in [1, p); ``shape`` is a pair of ints.
    The constructor reduces the values mod p and drops the zeros; the
    positions must be distinct and inside the shape.
    """

    __slots__ = ("shape", "rows", "cols", "vals")

    def __init__(self, shape: tuple[int, int], rows, cols, vals, p: int):
        self.shape = (int(shape[0]), int(shape[1]))
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.int64) % p
        keep = np.flatnonzero(vals)
        if keep.size < vals.size:
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        if rows.size and not (0 <= rows.min() and rows.max() < self.shape[0]
                              and 0 <= cols.min() and cols.max() < self.shape[1]):
            raise LinAlgError(f"an entry lies outside a {self.shape} matrix")
        self.rows, self.cols, self.vals = rows, cols, vals

    @classmethod
    def from_dense(cls, m: np.ndarray, p: int) -> "SparseMatrix":
        m = np.asarray(m, dtype=np.int64)
        r, c = np.nonzero(m)
        return cls(m.shape, r, c, m[r, c], p)

    @classmethod
    def from_blocks(cls, shape: tuple[int, int], blocks, p: int) -> "SparseMatrix":
        """The matrix with each (row, col, block, sign) of ``blocks`` placed at (row, col).

        A block with sign -1 is placed negated; the blocks must not overlap.
        """
        parts = [(b.rows + r, b.cols + c, b.vals if sign > 0 else p - b.vals)
                 for r, c, b, sign in blocks if b.vals.size]
        if not parts:
            return cls(shape, [], [], [], p)
        return cls(shape, *(np.concatenate(x) for x in zip(*parts)), p)

    @property
    def T(self) -> "SparseMatrix":
        t = object.__new__(SparseMatrix)
        t.shape = self.shape[::-1]
        t.rows, t.cols, t.vals = self.cols, self.rows, self.vals
        return t

    def toarray(self) -> np.ndarray:
        m = np.zeros(self.shape, dtype=np.int64)
        m[self.rows, self.cols] = self.vals
        return m


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


def _eliminate(m: np.ndarray, p: int, reduced: bool, *,
               pivots: list | None = None) -> tuple[np.ndarray, list[int]]:
    """Row echelon form (reduced if asked) and pivot columns; the dense regime.

    Columns are scanned left to right and the first nonzero row at or
    below the cursor is used as pivot. This frozen order fixes the
    unreduced echelon form; the reduced form is unique whatever the order,
    so ``rref`` output and the coset representatives read off it do not
    depend on it. Each pivot clears its column in one slice update of the
    rows ``m[targets, c:]``. The input is not modified: the working array
    is the one copy that reducing it mod p makes. If ``pivots`` is given,
    each pivot's (row of the input, column) is appended to it.
    """
    m = np.asarray(m, dtype=np.int64) % p
    rows, cols = m.shape
    pivot_cols: list[int] = []
    order = list(range(rows))  # order[k]: the input row now at row k
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
            order[r], order[i] = order[i], order[r]
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
        pivot_cols.append(c)
        if pivots is not None:
            pivots.append((order[r], c))
        r += 1
    return m, pivot_cols


def _list_eliminate(rows: list[list[int]], p: int, reduced: bool, *,
                    pivots: list | None = None) -> tuple[list[list[int]], list[int]]:
    """``_eliminate`` on Python ints; the list regime for tiny matrices.

    The same frozen pivot order, row tracking and result: the rows after
    elimination and the pivot columns. Reduced, the rows are the RREF.
    Unreduced, each pivot clears only the rows below it and its own row is
    not scaled, which saves a pass per pivot; the rank and the pivots are
    ``_eliminate``'s, but the rows differ from its echelon form by one
    scale each. The input is not modified.
    """
    rows = [[x % p for x in row] for row in rows]
    n = len(rows)
    order = list(range(n))  # order[k]: the input row now at row k
    cols: list[int] = []
    r = 0
    for c in range(len(rows[0])):
        for i in range(r, n):
            if rows[i][c]:
                break
        else:
            continue
        piv = rows[i]
        inv = pow(piv[c], -1, p)
        if reduced:
            piv = [x * inv % p for x in piv]
            inv = 1
        rows[i], rows[r] = rows[r], piv
        order[i], order[r] = order[r], order[i]
        for j in range(0 if reduced else r + 1, n):
            f = rows[j][c]
            if f and j != r:
                f = f * inv % p
                rows[j] = [(a - f * b) % p for a, b in zip(rows[j], piv)]
        cols.append(c)
        if pivots is not None:
            pivots.append((order[r], c))
        r += 1
        if r == n:
            break
    return rows, cols


def rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns."""
    return _eliminate(m, p, reduced=True)


def _peel_singletons(a: SparseMatrix) -> tuple[list[tuple[int, int]], tuple]:
    """Pivots of ``a`` that need no arithmetic, and the nonzeros left after them.

    A row with one live entry is a pivot that only deletes its column; a
    column with one live entry is a pivot that only deletes its row. Each
    round finds the row singletons by ``np.bincount``, takes one per
    column and drops those columns, then does the same for column
    singletons and rows. Deleting them can make new singletons, so the
    rounds go on until one finds none, for at most ``_PEEL_ROUNDS``; the
    row dicts take any singletons left, so where the peel stops changes
    only the speed. Returns the pivots as (row, column) of ``a`` and the
    (rows, cols, vals) of the entries still live, in ``a``'s coordinates;
    ``a`` is not modified.

    Every pivot, when taken, is the only live entry of its row or of its
    column, and everything taken later lies in live rows and columns. So
    ordered as taken, the pivot minor is block triangular with nonzero
    diagonal, and any nonsingular minor of what is left extends it.
    """
    r, c, v = a.rows, a.cols, a.vals
    found: list[tuple[np.ndarray, np.ndarray]] = [(r[:0], c[:0])]
    peeled = True
    for _ in range(_PEEL_ROUNDS):
        if not (peeled and r.size):
            break
        peeled = False
        for by_row in (True, False):
            own, other = (r, c) if by_row else (c, r)
            single = np.bincount(own)[own] == 1
            if not single.any():
                continue
            # one singleton per line it hits; the others there are left empty
            hit, first = np.unique(other[single], return_index=True)
            lines = own[single][first]
            found.append((lines, hit) if by_row else (hit, lines))
            dead = np.zeros(a.shape[1] if by_row else a.shape[0], dtype=bool)
            dead[hit] = True
            keep = ~dead[other]
            r, c, v = r[keep], c[keep], v[keep]
            peeled = True
    rows, cols = (np.concatenate(x).tolist() for x in zip(*found))
    return list(zip(rows, cols)), (r, c, v)


def _markowitz_rank(a: SparseMatrix, p: int, *, pivots: list | None = None) -> int:
    """Rank of a sparse matrix by Markowitz pivoting on row dicts; the sparse regime.

    First ``_peel_singletons`` takes, in vectorised numpy rounds, every
    pivot that is the only live entry of its row or its column: such a
    pivot deletes its column or its row and updates nothing. On the
    total-complex differentials that is most of the pivots. Each peeled
    pivot is alone in its row or column among what is live when it is
    taken, so the peeled pivots form a block-triangular nonsingular minor
    that any nonsingular minor of the rest extends; the ranks add up, and
    the reported pivots stay ``rank`` independent rows and columns.

    What is left is renumbered: its rows and columns are numbered from 0
    in their order in ``a``, so the row dicts, column sets and buckets below
    cover only the live block, not the whole matrix, and each pivot is
    mapped back to ``a``'s row and column when it is reported. The live
    rows become ``{column: value}`` row dicts, and each live column
    keeps the set of live rows that hold it. Every step pivots on the
    shortest live row, in the column of that row with the fewest live
    rows: the update costs (row length - 1) * (column count - 1) dict
    updates, and the rule keeps both factors small, so fill-in stays low.
    A row singleton the peel left is still a free pivot: it only leaves
    its column. Rank does not depend on the pivot order. A bucket queue
    indexed by row length finds the shortest row: a row whose length
    changes is queued again under its new length, and an entry whose
    length is out of date is skipped when popped. Once more dict updates
    have been made than ``a`` has cells, the live rows and columns are
    handed to ``_eliminate`` as one dense block, a safety net against
    fill-in. If ``pivots`` is given, each pivot's (row, column) of ``a`` is
    appended to it.
    """
    peeled, (live_rows, live_cols, vals) = _peel_singletons(a)
    if pivots is not None:
        pivots.extend(peeled)
    # number the live rows and columns from 0; row_of and col_of map them back to a's
    row_of, live_rows = np.unique(live_rows, return_inverse=True)
    col_of, live_cols = np.unique(live_cols, return_inverse=True)
    row_of, col_of = row_of.tolist(), col_of.tolist()
    ncols = len(col_of)
    rows: list[dict[int, int] | None] = [{} for _ in row_of]
    holders: list[set[int]] = [set() for _ in col_of]
    for i, j, x in zip(live_rows.tolist(), live_cols.tolist(), vals.tolist()):
        rows[i][j] = x
        holders[j].add(i)
    # the dicts hold these entries now; free the arrays before eliminating
    del live_rows, live_cols, vals
    # buckets[k]: rows queued when they held k entries; a row never holds more than ncols
    buckets: list[list[int]] = [[] for _ in range(ncols + 1)]
    for i, row in enumerate(rows):
        buckets[len(row)].append(i)
    budget = a.shape[0] * a.shape[1]
    work = 0
    r = len(peeled)
    short = 1
    while short <= ncols:
        if not buckets[short]:
            short += 1
            continue
        pr = buckets[short].pop()
        piv = rows[pr]
        if piv is None or len(piv) != short:
            continue
        c = min(piv, key=lambda j: len(holders[j]))
        if pivots is not None:
            pivots.append((row_of[pr], col_of[c]))
        rows[pr] = None
        targets = holders[c]
        holders[c] = set()
        targets.discard(pr)
        inv = pow(piv.pop(c), -1, p)
        rest = list(piv.items())
        for j, _ in rest:
            holders[j].discard(pr)
        for t in targets:
            row = rows[t]
            before = len(row)
            f = row.pop(c) * inv % p
            for j, x in rest:
                y = row.get(j)
                if y is None:
                    row[j] = -f * x % p
                    holders[j].add(t)
                else:
                    y = (y - f * x) % p
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                        holders[j].discard(t)
            k = len(row)
            if k and k != before:
                buckets[k].append(t)
                if k < short:
                    short = k
        work += len(targets) * len(rest)
        r += 1
        if work > budget:
            return r + _dense_rank_of_live(rows, holders, row_of, col_of, p, pivots)
    return r


def _dense_rank_of_live(rows: list, holders: list[set[int]], row_of: list[int],
                        col_of: list[int], p: int, pivots: list | None) -> int:
    """Rank of the live rows and columns left by ``_markowitz_rank``, densified.

    rows and holders are numbered from 0, and row_of and col_of give the
    sparse matrix's row and column of each. If ``pivots`` is given, each
    pivot's (row, column) of the sparse matrix is appended to it.
    """
    live_rows = [i for i, row in enumerate(rows) if row]
    live_cols = [j for j, held in enumerate(holders) if held]
    position = {j: k for k, j in enumerate(live_cols)}
    sub = np.zeros((len(live_rows), len(live_cols)), dtype=np.int64)
    for k, i in enumerate(live_rows):
        sub[k, [position[j] for j in rows[i]]] = list(rows[i].values())
    found: list[tuple[int, int]] = []
    _, cols = _eliminate(sub, p, False, pivots=found)
    if pivots is not None:
        pivots.extend((row_of[live_rows[i]], col_of[live_cols[j]]) for i, j in found)
    return len(cols)


def rank(m: np.ndarray | SparseMatrix, p: int, *, pivot_rows: list | None = None) -> int:
    """Rank over F_p; 0 for empty matrices.

    The regime follows the input (see the module docstring): a
    ``SparseMatrix`` takes the sparse path, a matrix of at most
    ``_TINY_CELLS`` cells the list path, a larger one under 1/20 full the
    sparse path, and the rest the dense path.

    If ``pivot_rows`` is given, the rows of ``m`` that hold the pivots of
    the elimination are appended to it: ``rank`` distinct row indices
    whose rows of ``m`` are independent. Every regime reports them.
    """
    if not isinstance(m, SparseMatrix):
        m = np.asarray(m, dtype=np.int64)
    if m.shape[0] == 0 or m.shape[1] == 0:
        return 0
    pivots = None if pivot_rows is None else []
    # Eliminating along the shorter axis is faster and rank is transpose-invariant.
    flip = m.shape[1] > m.shape[0]
    r = _tall_rank(m.T if flip else m, p, pivots)
    if pivot_rows is not None:
        pivot_rows.extend(j if flip else i for i, j in pivots)
    return r


def _tall_rank(m: np.ndarray | SparseMatrix, p: int, pivots: list | None) -> int:
    """``rank`` of a matrix with at least as many rows as columns, in the
    regime its type, size and fill pick (see ``rank``).

    If ``pivots`` is given, each pivot's (row, column) is appended to it.
    """
    if isinstance(m, SparseMatrix):
        return _markowitz_rank(m, p, pivots=pivots)
    if m.size <= _TINY_CELLS:
        return len(_list_eliminate(m.tolist(), p, False, pivots=pivots)[1])
    if np.count_nonzero(m) * 20 < m.size:
        return _markowitz_rank(SparseMatrix.from_dense(m, p), p, pivots=pivots)
    _, cols = _eliminate(m, p, False, pivots=pivots)
    return len(cols)


def _free_columns(pivots: list[int], cols: int) -> np.ndarray:
    """The non-pivot columns of an echelon form, in increasing order."""
    is_pivot = np.zeros(cols, dtype=bool)
    is_pivot[pivots] = True
    return np.flatnonzero(~is_pivot)


def kernel_basis(m: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of {v : Mv = 0}; shape (cols, nullity)."""
    m = np.asarray(m, dtype=np.int64)
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return identity(cols)
    red, pivots = _eliminate(m, p, reduced=True)
    free = _free_columns(pivots, cols)
    basis = np.zeros((cols, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    # Row r of an RREF is zero left of its pivot, so this sets only pivots c < f.
    basis[pivots, :] = -red[:len(pivots), free] % p
    return basis


# Cells of the largest block of products _minus_product forms at once.
_PRODUCT_CELLS = 1 << 20


def _minus_product(x: np.ndarray, s: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """(x - s @ y) mod p for s and y with entries in [0, p), by the nonzeros of s.

    Row i of x loses s[i, c] * y[c] for every nonzero s[i, c], so the work
    follows the nonzeros of s, not its cells. Each product is reduced mod p
    before the products of one row are summed, so the sums stay inside
    int64. The nonzeros are taken in blocks of at most _PRODUCT_CELLS
    product cells; within a block each row of x is updated once. x is
    overwritten.
    """
    i, c = np.nonzero(s)
    step = max(1, _PRODUCT_CELLS // max(y.shape[1], 1))
    for a in range(0, i.size, step):
        ib, cb = i[a:a + step], c[a:a + step]
        terms = s[ib, cb][:, None] * y[cb] % p
        starts = np.flatnonzero(np.r_[True, ib[1:] != ib[:-1]])
        x[ib[starts]] -= np.add.reduceat(terms, starts, axis=0)
    return x % p


class FrozenQuotient:
    """F_p^n modulo the span of the rows of a matrix, in frozen coordinates.

    The RREF of the spanning rows gives the pivot columns and the free
    columns; the free coordinates are the coordinates of the quotient,
    whose dimension is ``dim``. ``rfree`` holds the pivot rows of the
    RREF restricted to the free columns: a vector v reduces to
    v[free] - rfree^T v[pivots], and ``lift`` embeds the quotient back
    through the unit vectors of the free columns. The RREF is unique, so
    these coordinates do not depend on how the span was written down.

    ``extend`` quotients further by more rows, in place. The new rows are
    reduced to their free coordinates, their RREF gives the new pivots
    among the free columns, and those columns are cleared from the old
    pivot rows. The result is the RREF of all rows given so far, so a
    quotient built in batches equals the one built from the stacked rows,
    while the elimination works only on the columns still free.

    Reducing and clearing are both x - s @ y with a factor s that is
    mostly zeros here: vectors in monomial coordinates (relation rows,
    restrictions, lifted unit vectors) on the pivot columns, and the RREF
    rows on the new pivot columns. ``_minus_product`` does that work by
    the nonzeros of s. An extend whose new rows and held pivot rows come
    to at most ``_TINY_CELLS`` cells takes the same steps on Python ints
    instead (``_extend_on_lists``), where numpy's per-call cost would
    outweigh the arithmetic; the RREF is unique, so both paths store the
    same int64 ``pivots``, ``free`` and ``rfree``.
    """

    __slots__ = ("p", "pivots", "free", "rfree", "dim")

    def __init__(self, rows: np.ndarray, p: int):
        rows = np.asarray(rows, dtype=np.int64)
        n = rows.shape[1]
        self.p = p
        self.pivots = np.zeros(0, dtype=np.int64)
        self.free = np.arange(n)
        self.rfree = np.zeros((0, n), dtype=np.int64)
        self.dim = n
        self.extend(rows)

    def extend(self, rows: np.ndarray) -> None:
        """Quotient further by the span of the rows of ``rows`` (shape k x n)."""
        p = self.p
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape[1] != self.pivots.size + self.dim:
            raise LinAlgError(f"rows of width {rows.shape[1]} extend a quotient of "
                              f"F_p^{self.pivots.size + self.dim}")
        if rows.shape[0] == 0 or self.dim == 0:
            return
        if (rows.shape[0] + self.pivots.size) * rows.shape[1] <= _TINY_CELLS:
            self._extend_on_lists(rows.tolist())
            return
        red, fresh = rref(self.reduce(rows.T).T, p)
        if not fresh:
            return
        red = red[:len(fresh)]
        old = _minus_product(self.rfree.copy(), self.rfree[:, fresh], red, p)
        pivots = np.concatenate([self.pivots, self.free[fresh]])
        order = np.argsort(pivots)
        keep = _free_columns(fresh, self.dim)
        self.pivots = pivots[order]
        self.rfree = np.vstack([old, red])[order][:, keep]
        self.free = self.free[keep]
        self.dim = self.free.size

    def _extend_on_lists(self, rows: list[list[int]]) -> None:
        """``extend`` by a few rows of a small quotient, on Python ints.

        The same four steps as the numpy path (reduce the rows to free
        coordinates, take their RREF, clear its pivot columns from the old
        pivot rows, sort the pivot rows by column) give the same RREF of
        all rows so far, hence the same ``pivots``, ``free`` and ``rfree``.
        """
        p = self.p
        free, pivots, rfree = self.free.tolist(), self.pivots.tolist(), self.rfree.tolist()
        reduced = []
        for row in rows:
            v = [row[c] % p for c in free]
            for c, held in zip(pivots, rfree):
                f = row[c] % p
                if f:
                    v = [(a - f * b) % p for a, b in zip(v, held)]
            reduced.append(v)
        red, fresh = _list_eliminate(reduced, p, True)
        if not fresh:
            return
        red = red[:len(fresh)]
        for k, held in enumerate(rfree):
            # red is reduced, so clearing one fresh column leaves the others as they were
            for c, new in zip(fresh, red):
                f = held[c]
                if f:
                    held = [(a - f * b) % p for a, b in zip(held, new)]
            rfree[k] = held
        merged = sorted(zip(pivots + [free[c] for c in fresh], rfree + red))
        is_fresh = set(fresh)
        keep = [j for j in range(len(free)) if j not in is_fresh]
        self.pivots = np.array([c for c, _ in merged], dtype=np.int64)
        self.rfree = np.array([[row[j] for j in keep] for _, row in merged],
                              dtype=np.int64).reshape(len(merged), len(keep))
        self.free = np.array([free[j] for j in keep], dtype=np.int64)
        self.dim = len(keep)

    def reduce(self, vectors: np.ndarray) -> np.ndarray:
        """Quotient coordinates of the columns of ``vectors``."""
        p = self.p
        rows = np.asarray(vectors, dtype=np.int64).T % p
        return _minus_product(rows[:, self.free], rows[:, self.pivots], self.rfree, p).T

    def coordinates(self) -> np.ndarray:
        """The (dim x n) quotient coordinates of the n unit vectors, reduce(identity(n)).

        A free column is its own unit vector and pivot column k is
        -rfree[k] mod p, so no n x n identity is built.
        """
        m = np.zeros((self.dim, self.pivots.size + self.dim), dtype=np.int64)
        m[np.arange(self.dim), self.free] = 1
        m[:, self.pivots] = (-self.rfree % self.p).T
        return m

    def lift(self) -> np.ndarray:
        """The (n x dim) embedding of quotient coordinates as free unit vectors."""
        m = np.zeros((self.pivots.size + self.dim, self.dim), dtype=np.int64)
        m[self.free, np.arange(self.dim)] = 1
        return m


def _without_columns(m: np.ndarray | SparseMatrix, cols: list[int]) -> np.ndarray | SparseMatrix:
    """m with the columns ``cols`` removed, the others kept in order."""
    keep = np.ones(m.shape[1], dtype=bool)
    keep[cols] = False
    if not isinstance(m, SparseMatrix):
        return np.asarray(m)[:, keep]
    take = keep[m.cols]
    out = object.__new__(SparseMatrix)
    out.shape = (m.shape[0], int(keep.sum()))
    out.rows, out.cols, out.vals = m.rows[take], (np.cumsum(keep) - 1)[m.cols[take]], m.vals[take]
    return out


class LazyHomology:
    """Homology dimensions of a complex read off cell by cell.

    A cell is a tuple of indices; ``dim(*cell)`` is the dimension of its
    space and ``differential(*cell)`` the matrix of the map out of it,
    which lands at ``cell + step``. Then

        H(cell) = dim(cell) - rank(into cell) - rank(out of cell),

    where a rank whose source or target has dimension 0 is 0 without
    building the matrix. Each rank is computed once, on first demand, so
    a scan that stops at the first nonzero cell builds no later matrix.

    The cells must form a complex: the map out of a cell kills the image
    of the map into it. Each rank is then taken on the fewest columns it
    needs (Kaczynski-Mrozek-Slusarek, Comput. Math. Appl. 1998):

        if ranking d_in pivots on the rows Y of the cell, those rows hold a
        nonsingular minor, so im d_in is a complement of the coordinates
        outside Y; d_out kills im d_in, so rank d_out = rank d_out[:, not Y].

    ``rank_out_of`` keeps the pivot rows of every rank it computes and drops
    the columns Y when the map into the cell has been ranked. ``homology``
    ranks the map into a cell before the map out of it, so a scan in
    increasing order drops them at every cell.
    """

    def __init__(self, dim, differential, step: tuple[int, ...], p: int):
        self._dim = dim
        self._differential = differential
        self._step = step
        self._p = p
        self._ranks: dict[tuple[int, ...], int] = {}
        # cell -> the rows of its space that the rank of the map into it pivoted on
        self._pivot_rows: dict[tuple[int, ...], list[int]] = {}

    def rank_out_of(self, cell: tuple[int, ...]) -> int:
        """Rank of the differential out of ``cell``."""
        r = self._ranks.get(cell)
        if r is None:
            target = tuple(a + b for a, b in zip(cell, self._step))
            if self._dim(*cell) == 0 or self._dim(*target) == 0:
                r = 0
            else:
                m = self._differential(*cell)
                drop = self._pivot_rows.get(cell)
                if drop:
                    m = _without_columns(m, drop)
                rows: list[int] = []
                r = rank(m, self._p, pivot_rows=rows)
                self._pivot_rows[target] = rows
            self._ranks[cell] = r
        return r

    def homology(self, *cell: int) -> int:
        source = tuple(a - b for a, b in zip(cell, self._step))
        return self._dim(*cell) - self.rank_out_of(source) - self.rank_out_of(cell)

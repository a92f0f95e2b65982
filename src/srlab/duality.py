"""Poincare duality quotients B = A/J for closed manifolds.

A = k[Delta]/<Theta> is the artinian reduction of the face ring of a
closed connected d-manifold Delta.  A is usually not a Poincare duality
algebra: the topology of Delta plants socle elements below the top
degree.  The repair quotients by the degreewise kernel of the star
restriction,

    J_i = ker( A_i -> directsum_v A(st_v Delta)_i )   for i <= d,
    J_{d+1} = 0,

giving B = A/J with fundamental degree n = d+1.  Whenever the top
cohomology of Delta over the working field is one dimensional, B carries
a perfect multiplication pairing B_i x B_{n-i} -> B_n.  This module
builds B in frozen coordinates, checks the cone lemma that drives the
construction, and verifies duality by two independent routes: pairing
ranks into the fundamental class, and socle concentration in degree n.

No star quotient is built: A(st_v Delta) = A/N_v, N_v the span of the
monomials whose support together with v is not a face, so J is read off
A alone by ``GradedQuotientPresentation.restriction_kernel``.  Its other
two callers are in ``partition``: the interior check (stars of the
interior vertices of a disk) and the subdivision check (top cells).

``build_B`` and the closed-manifold commands pass one gate, the
constructor of ``_ClosedManifold``, before any Theta is drawn; it keeps
the Betti numbers and builds B for each Theta.
"""

import numpy as np

from .complexes import (
    FaceLinkCohomology,
    as_relative,
    _bit_positions,
    _popcount,
)
from .facering import (
    GradedQuotientPresentation,
    LinearFormSequence,
    monomial_basis,
    quotient_presentation,
)
from .linalg import FrozenQuotient, PrimeField, matmul, rank


class DualityError(ValueError):
    pass


def _as_forms(theta, p: int) -> LinearFormSequence:
    if isinstance(theta, LinearFormSequence):
        if theta.p != p:
            raise DualityError("Theta and field use different moduli")
        return theta
    return LinearFormSequence(theta, p)


def _unit_form(n: int, idx: int) -> tuple[int, ...]:
    return tuple(1 if k == idx else 0 for k in range(n))


def manifold_sanity_check(delta, field: PrimeField) -> dict[int, int]:
    """Purity, connectivity, and sphere links of all nonempty faces.

    Raises DualityError naming the first offending face; returns the
    Betti numbers of the whole complex when everything passes.  The
    check is homological (PL-manifold recognition is undecidable in
    general), so it admits F_p-homology manifolds.

    Facets and ridges are decided by counting.  In a pure complex the
    link of a facet is {empty face}, a (-1)-sphere, and the link of a
    ridge has one vertex per facet containing it, so it is a homology
    0-sphere exactly when two facets contain the ridge. The other links,
    and the Betti numbers, are read off one ``FaceLinkCohomology``.
    """
    dc = as_relative(delta).delta
    d = dc.dim
    if d is None or dc.is_void:
        raise DualityError("the void complex is not a manifold candidate")
    if not dc.is_pure():
        raise DualityError("complex is not pure")
    links = FaceLinkCohomology(dc, field)
    bet = links[0]
    if bet.get(0, 0) != 0:
        raise DualityError("complex is not connected")
    cofacets: dict[int, int] = {}  # ridge -> number of facets containing it
    for f in dc.facets():
        for b in _bit_positions(f):
            cofacets[f ^ (1 << b)] = cofacets.get(f ^ (1 << b), 0) + 1
    for tau in sorted(dc.faces):
        expected = d - _popcount(tau)
        if tau == 0 or expected == -1:
            continue
        if expected == 0:
            sphere = cofacets[tau] == 2
        else:
            sphere = {i: v for i, v in links[tau].items() if v} == {expected: 1}
        if not sphere:
            raise DualityError(
                f"link of face {dc.labels_of(tau)} is not a homology "
                f"{expected}-sphere over F_{field.p}")
    return bet


class DualityPresentation:
    """B_i = A_i / J_i in frozen coordinates.

    J arrives as a basis (columns, in the quotient coordinates of A_i)
    per degree; a ``FrozenQuotient`` of A_i by its span takes the free
    coordinates as the basis of B_i.  Degrees with no J entry get
    J_i = 0, so a plain graded quotient can be viewed as a presentation
    with B = A.  Outside the base's computed degrees B_i = 0 where
    A_i = 0, and any other degree raises DualityError.
    """

    def __init__(self, psi, base: GradedQuotientPresentation, j_bases: dict,
                 fundamental_degree: int, diagnostics: dict | None = None):
        self.psi = psi
        self.base = base
        self.field = base.field
        self.fundamental_degree = fundamental_degree
        self.diagnostics = diagnostics or {}
        self.j_dims: dict[int, int] = {}
        self.b_dims: dict[int, int] = {}
        self._quotients: dict[int, FrozenQuotient] = {}
        self._j_bases: dict[int, np.ndarray] = {}
        for i in sorted(base.dims):
            jb = j_bases.get(i)
            if jb is None:
                jb = np.zeros((base.dims[i], 0), dtype=np.int64)
            self._j_bases[i] = jb
            q = FrozenQuotient(jb.T, self.field.p)
            self._quotients[i] = q
            self.j_dims[i] = q.pivots.size
            self.b_dims[i] = q.dim

    def j_dim(self, i: int) -> int:
        return self.j_dims.get(i, 0)

    def b_dim(self, i: int) -> int:
        if i in self.b_dims:
            return self.b_dims[i]
        return self.base.dim(i)

    def b_dims_list(self, up_to: int | None = None) -> list[int]:
        if up_to is None:
            up_to = max(self.b_dims, default=0)
        return [self.b_dim(i) for i in range(up_to + 1)]

    def j_dims_list(self, up_to: int | None = None) -> list[int]:
        if up_to is None:
            up_to = max(self.j_dims, default=0)
        return [self.j_dim(i) for i in range(up_to + 1)]

    def b_reduce(self, i: int, vectors: np.ndarray) -> np.ndarray:
        """Map columns in A_i quotient coordinates to B_i coordinates."""
        q = self._quotients.get(i)
        if q is None:
            if self.base.dim(i) == 0:
                return np.zeros((0, np.shape(vectors)[1]), dtype=np.int64)
            raise DualityError(f"degree {i} beyond computed range")
        return q.reduce(vectors)

    def b_lift(self, i: int) -> np.ndarray:
        """Embed B_i coordinates into A_i via the free-coordinate section."""
        q = self._quotients.get(i)
        if q is None:
            return np.zeros((self.base.dim(i), 0), dtype=np.int64)
        return q.lift()

    def monomial_rep(self, i: int) -> np.ndarray:
        """Representative polynomials of the B_i basis, in monomial coordinates."""
        return matmul(self.base.lift(i), self.b_lift(i), self.field.p)

    def mult_matrix(self, form, i: int) -> np.ndarray:
        """Multiplication by a degree-1 form as a map B_i -> B_{i+1}."""
        if self.b_dim(i) == 0 or self.b_dim(i + 1) == 0:
            return np.zeros((self.b_dim(i + 1), self.b_dim(i)), dtype=np.int64)
        raw = self.base.quotient_mult_matrix(form, i)
        return self.b_reduce(i + 1, matmul(raw, self.b_lift(i), self.field.p))


_RELATIVE = "B is defined for absolute complexes"


class _ClosedManifold:
    """The closed-manifold gate: ``manifold_sanity_check`` on Delta, then absoluteness.

    ``betti`` are the Betti numbers the check returns; ``B`` is built past the gate.
    """

    def __init__(self, psi, field: PrimeField):
        psi = as_relative(psi)
        self.betti = manifold_sanity_check(psi.delta, field)
        if not psi.is_absolute:
            raise DualityError(_RELATIVE)
        self.psi = psi
        self.field = field

    def B(self, theta, cap: int | None = None) -> DualityPresentation:
        """A = k[Delta]/Theta modulo the kernel J of the star restriction.

        Only A is built: for each degree i < n, J_i is
        ``restriction_kernel(i, stars)`` with the face sets of the vertex
        stars.  Each A(st_v) is a quotient of A, so once A is finite every
        star quotient is finite too and needs no check of its own.
        """
        dc = self.psi.delta
        n = dc.dim + 1
        base = quotient_presentation(self.psi, _as_forms(theta, self.field.p), self.field,
                                     cap=cap)
        if not base.finite_at_cap:
            raise DualityError("Theta is not a linear system of parameters for this complex")
        # the faces of st_v Delta, without building it as a complex
        stars = [frozenset(f for f in dc.faces if f | v in dc.faces) for v in dc.vertex_masks()]
        j_bases = {i: base.restriction_kernel(i, stars) for i in range(n)}
        diagnostics = {
            "betti": {int(k): int(v) for k, v in self.betti.items()},
            "orientable_like": self.betti.get(dc.dim, 0) == 1,
        }
        return DualityPresentation(self.psi, base, j_bases, n, diagnostics)


def build_B(delta, theta, field: PrimeField, cap: int | None = None) -> DualityPresentation:
    """``_ClosedManifold(delta, field).B(theta, cap)``, refusing a relative pair first.

    The manifold sanity check is a hard gate.  The orientability proxy
    dim H^d = 1 is only recorded in the diagnostics: without it B has no
    fundamental class and the duality verdict comes out false, which is
    the honest answer rather than a refusal to construct the quotient.
    """
    if not as_relative(delta).is_absolute:
        raise DualityError(_RELATIVE)
    return _ClosedManifold(delta, field).B(theta, cap)


def _pd_view(P) -> DualityPresentation:
    if isinstance(P, DualityPresentation):
        return P
    if isinstance(P, GradedQuotientPresentation):
        return DualityPresentation(P.psi, P, {}, max(P.top_degree(), 0))
    raise DualityError("expected a quotient presentation or a duality presentation")


def cone_lemma_check(delta, v, theta, field: PrimeField, max_degree: int | None = None) -> dict:
    """Verify A(st_v)_j = A(open st_v)_{j+1} via multiplication by x_v.

    The star of a vertex is a cone with apex v, so x_v maps its face
    module isomorphically onto the ideal of monomials supported on v,
    shifting degrees by one.  The check compares dimensions and tests
    the full rank of the multiplication in quotient coordinates.
    """
    psi = as_relative(delta)
    p = field.p
    forms = _as_forms(theta, p)
    vmask = psi.delta.mask_of([v])
    vidx = psi.delta.labels.index(v)
    star = psi.star(vmask)
    open_star = psi.open_star(vmask)
    q_star = quotient_presentation(star, forms, field)
    q_open = quotient_presentation(open_star, forms, field)
    if not (q_star.finite_at_cap and q_open.finite_at_cap):
        raise DualityError(f"Theta does not cut the star of {v!r} to finite length")
    if max_degree is None:
        max_degree = max(q_star.top_degree(), q_open.top_degree() - 1, 0) + 1
    degrees = {}
    ok = True
    for j in range(max_degree + 1):
        a = q_star.dim(j)
        b = q_open.dim(j + 1)
        src = monomial_basis(star, j)
        dst = monomial_basis(open_star, j + 1)
        raw = np.zeros((len(dst), len(src)), dtype=np.int64)
        for col, alpha in enumerate(src):
            beta = tuple(e + 1 if k == vidx else e for k, e in enumerate(alpha))
            row = dst.index.get(beta)
            if row is not None:
                raw[row, col] = 1
        mq = q_open.reduce(j + 1, matmul(raw, q_star.lift(j), p))
        bij = a == b and rank(mq, p) == a
        ok = ok and bij
        degrees[j] = {"star_dim": a, "shifted_open_dim": b, "bijective": bool(bij)}
    return {"vertex": v, "prime": p, "window": max_degree, "pass": ok, "degrees": degrees}


def socle_dims(P) -> dict[int, int]:
    """Joint kernel of all degree-1 multiplications, per degree.

    Accepts a DualityPresentation (socle of B) or a plain
    GradedQuotientPresentation (socle of A).  Returns only the nonzero
    entries.
    """
    view = _pd_view(P)
    p = view.field.p
    nvert = len(view.psi.delta.labels)
    out: dict[int, int] = {}
    for i in sorted(view.base.dims):
        bdim = view.b_dim(i)
        if bdim == 0:
            continue
        blocks = [view.mult_matrix(_unit_form(nvert, k), i) for k in range(nvert)]
        stacked = np.vstack(blocks) if blocks else np.zeros((0, bdim), dtype=np.int64)
        s = bdim - rank(stacked, p)
        if s:
            out[i] = s
    return out


def pairing_rank(P, i: int) -> dict:
    """Rank of the multiplication pairing B_i x B_{n-i} -> B_n = k.

    The matrix entry at (a, b) is the fundamental-class coefficient of
    the product of the a-th B_i and b-th B_{n-i} basis representatives;
    full means the pairing is perfect between the two degrees.
    """
    view = _pd_view(P)
    p = view.field.p
    n = view.fundamental_degree
    if view.b_dim(n) != 1:
        raise DualityError(
            f"fundamental degree {n} has dimension {view.b_dim(n)}, expected 1")
    bi = view.b_dim(i)
    bj = view.b_dim(n - i)
    if bi == 0 or bj == 0:
        return {"rank": 0, "full": bi == bj, "dim_left": bi, "dim_right": bj}
    reps_i = view.monomial_rep(i)
    reps_j = view.monomial_rep(n - i)
    basis_i = monomial_basis(view.psi, i)
    basis_j = monomial_basis(view.psi, n - i)
    basis_n = monomial_basis(view.psi, n)
    mat = np.zeros((bi, bj), dtype=np.int64)
    for a in range(bi):
        rows_a = [(r, int(reps_i[r, a])) for r in np.nonzero(reps_i[:, a])[0]]
        for b in range(bj):
            acc = np.zeros((len(basis_n), 1), dtype=np.int64)
            for r2 in np.nonzero(reps_j[:, b])[0]:
                gamma = basis_j[int(r2)]
                c2 = int(reps_j[r2, b])
                for r1, c1 in rows_a:
                    alpha = basis_i[int(r1)]
                    target = basis_n.index.get(tuple(x + y for x, y in zip(alpha, gamma)))
                    if target is not None:
                        acc[target, 0] = (acc[target, 0] + c1 * c2) % p
            coeff = view.b_reduce(n, view.base.reduce(n, acc))
            mat[a, b] = int(coeff[0, 0]) if coeff.size else 0
    r = rank(mat, p)
    return {"rank": int(r), "full": r == bi == bj, "dim_left": bi, "dim_right": bj}


def poincare_duality_report(P) -> dict:
    """Both duality routes: perfect pairings and socle concentration.

    The two conditions are equivalent for standard graded algebras, so a
    disagreement means the computation is broken and raises rather than
    guessing which side to trust.
    """
    view = _pd_view(P)
    n = view.fundamental_degree
    vanish_above = all(view.b_dim(i) == 0 for i in view.base.dims if i > n)
    fundamental_ok = view.b_dim(n) == 1
    pairings = {}
    pairing_route = vanish_above and fundamental_ok
    if fundamental_ok:
        for i in range(n + 1):
            pairings[i] = pairing_rank(view, i)
            pairing_route = pairing_route and pairings[i]["full"]
    socle = socle_dims(view)
    socle_route = vanish_above and socle == {n: 1}
    if pairing_route != socle_route:
        raise DualityError("pairing and socle duality routes disagree")
    return {
        "pd": pairing_route,
        "fundamental_degree": n,
        "b_dims": view.b_dims_list(n),
        "vanish_above_fundamental": vanish_above,
        "fundamental_dim": view.b_dim(n),
        "pairings": pairings,
        "socle": socle,
        "routes": {"pairing": pairing_route, "socle": socle_route},
    }


def is_poincare_duality_algebra(P) -> bool:
    return poincare_duality_report(P)["pd"]

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
a perfect multiplication pairing B_i x B_{n-i} -> B_n.  B is k[Delta]
modulo Theta + J, a graded quotient of k[Delta] like A, so it is held as
a ``GradedQuotientPresentation``: A's quotient of each degree extended
in place by J_i, with the free monomials as its basis.  This module
builds B, checks the cone lemma that drives the construction, and
verifies duality of any such presentation (B, or A itself) by two
independent routes: pairing ranks into the fundamental class, and socle
concentration in degree n = dim Psi + 1.

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
    _popcount,
)
from .facering import (
    GradedQuotientPresentation,
    LinearFormSequence,
    expected_lsop_length,
    monomial_basis,
    quotient_presentation,
)
from .linalg import PrimeField, matmul, rank


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
    ridges = dc.ridge_facets()
    for tau in sorted(dc.faces):
        expected = d - _popcount(tau)
        if tau == 0 or expected == -1:
            continue
        if expected == 0:
            sphere = len(ridges[tau]) == 2
        else:
            sphere = {i: v for i, v in links[tau].items() if v} == {expected: 1}
        if not sphere:
            raise DualityError(
                f"link of face {dc.labels_of(tau)} is not a homology "
                f"{expected}-sphere over F_{field.p}")
    return bet


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

    def B(self, theta) -> GradedQuotientPresentation:
        """B = k[Delta]/(Theta + J): A = k[Delta]/Theta, each degree extended by J in place.

        For each degree i < n, J_i is ``restriction_kernel(i, stars)``
        with the face sets of the vertex stars, read off A_i before A_i is
        extended by it. Each A(st_v) is a quotient of A, so once A is
        finite every star quotient is finite too and needs no check of its
        own.
        """
        dc = self.psi.delta
        pres = quotient_presentation(self.psi, _as_forms(theta, self.field.p), self.field)
        if not pres.finite_at_cap:
            raise DualityError("Theta is not a linear system of parameters for this complex")
        stars = [dc.star(v).faces for v in dc.vertex_masks()]
        for i in range(dc.dim + 1):
            pres.extend(i, pres.restriction_kernel(i, stars))
        return pres


def build_B(delta, theta, field: PrimeField) -> GradedQuotientPresentation:
    """``_ClosedManifold(delta, field).B(theta)``, refusing a relative pair first.

    The manifold sanity check is a hard gate; orientability is not. When
    dim H^d != 1 (the Betti numbers are ``_ClosedManifold.betti``), B has
    no fundamental class and the duality verdict comes out false, which is
    the honest answer rather than a refusal to construct the quotient.
    """
    if not as_relative(delta).is_absolute:
        raise DualityError(_RELATIVE)
    return _ClosedManifold(delta, field).B(theta)


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


def socle_dims(P: GradedQuotientPresentation) -> dict[int, int]:
    """Joint kernel of all degree-1 multiplications, per degree; only the nonzero entries."""
    p = P.field.p
    nvert = len(P.psi.delta.labels)
    out: dict[int, int] = {}
    for i in sorted(P.dims):
        dim = P.dim(i)
        if dim == 0:
            continue
        stacked = np.vstack([np.zeros((0, dim), dtype=np.int64)]
                            + [P.quotient_mult_matrix(_unit_form(nvert, k), i)
                               for k in range(nvert)])
        s = dim - rank(stacked, p)
        if s:
            out[i] = s
    return out


def pairing_rank(P: GradedQuotientPresentation, i: int) -> dict:
    """Rank of the multiplication pairing P_i x P_{n-i} -> P_n = k, n = dim Psi + 1.

    The basis of each degree is its free monomials, so the matrix entry
    at (a, b) is the P_n coordinate of the product of the a-th and b-th
    of them (0 when its support is not a face); full means the pairing is
    perfect between the two degrees.
    """
    n = expected_lsop_length(P.psi)
    if P.dim(n) != 1:
        raise DualityError(
            f"fundamental degree {n} has dimension {P.dim(n)}, expected 1")
    bi = P.dim(i)
    bj = P.dim(n - i)
    if bi == 0 or bj == 0:
        return {"rank": 0, "full": bi == bj, "dim_left": bi, "dim_right": bj}
    fundamental = P.coordinates(n)[0]
    index = monomial_basis(P.psi, n).index
    right = P.basis(n - i)
    mat = np.zeros((bi, bj), dtype=np.int64)
    for a, alpha in enumerate(P.basis(i)):
        for b, gamma in enumerate(right):
            k = index.get(tuple(x + y for x, y in zip(alpha, gamma)))
            if k is not None:
                mat[a, b] = fundamental[k]
    r = rank(mat, P.field.p)
    return {"rank": int(r), "full": r == bi == bj, "dim_left": bi, "dim_right": bj}


def poincare_duality_report(P: GradedQuotientPresentation) -> dict:
    """Both duality routes, perfect pairings and socle concentration, at n = dim Psi + 1.

    The two conditions are equivalent for standard graded algebras, so a
    disagreement means the computation is broken and raises rather than
    guessing which side to trust.
    """
    n = expected_lsop_length(P.psi)
    vanish_above = all(P.dim(i) == 0 for i in P.dims if i > n)
    fundamental_ok = P.dim(n) == 1
    pairings = {}
    pairing_route = vanish_above and fundamental_ok
    if fundamental_ok:
        for i in range(n + 1):
            pairings[i] = pairing_rank(P, i)
            pairing_route = pairing_route and pairings[i]["full"]
    socle = socle_dims(P)
    socle_route = vanish_above and socle == {n: 1}
    if pairing_route != socle_route:
        raise DualityError("pairing and socle duality routes disagree")
    return {
        "pd": pairing_route,
        "fundamental_degree": n,
        "b_dims": P.dims_list(n),
        "vanish_above_fundamental": vanish_above,
        "fundamental_dim": P.dim(n),
        "pairings": pairings,
        "socle": socle,
        "routes": {"pairing": pairing_route, "socle": socle_route},
    }


def is_poincare_duality_algebra(P: GradedQuotientPresentation) -> bool:
    return poincare_duality_report(P)["pd"]

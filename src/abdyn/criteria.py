"""Regularizability decision engine.

A degenerating family of polarized abelian varieties with automorphism f is
described by the fiber dimension g, the characteristic polynomial of the
induced action on the first integral cohomology (one polynomial serves all
fibers), the torus rank r of the semi-abelian central fiber of its Néron
model (r = 0 means the family does not degenerate), the polynomial degree
growth exponent k (deg_1(f^n) ~ n^{2k}, defined when the first dynamical
degree is 1), and a finite-order flag.

The decision rules, evaluated first-match-wins but all asserted mutually
consistent:

  R1  r = 0                                   -> Regularizable
  R2  finite order, or k = 0 (bounded degree growth:
      an iterate acts by translation)          -> Regularizable
  R3  cyclotomic-free charpoly and r > 0       -> NotRegularizable
  R4  lambda_1 = 1 and 2k > max{r, 2g-2r-1}    -> NotRegularizable
  R5  g = 2 lookup table (the (k,r) = (1,2) cell is genuinely open)

Note R2 requires bounded growth, not merely a cyclotomic charpoly: unipotent
actions have cyclotomic charpoly but unbounded degree growth and can be
non-regularizable (that is exactly what R4 detects), so a charpoly-only
version of R2 would contradict R4.
"""

from __future__ import annotations

from collections import namedtuple

from .degrees import unipotent_index_of_power
from .errors import ContractError
from .exactalg import (IntMatrix, _bareiss, char_poly, char_poly_split,
                       cyclotomic_split, image_lattice, kernel_completion)

REGULARIZABLE = "Regularizable"
NOT_REGULARIZABLE = "NotRegularizable"
UNDETERMINED = "Undetermined"


class FamilyDescriptor(namedtuple("FamilyDescriptor", "g charpoly r k finite_order")):
    """A family's data: g, charpoly (an IntPolynomial of degree 2g), r and k
    (None when unknown) and finite_order.  The cyclotomic split of charpoly
    is the one kept on the polynomial (cyclotomic_split): the checks below
    and decide_regularizable share it with any caller that split it first."""
    __slots__ = ()

    def __new__(cls, g, charpoly, r=None, k=None, finite_order=False):
        if g < 1:
            raise ContractError("g must be >= 1")
        if charpoly.degree != 2 * g:
            raise ContractError("charpoly degree must be 2g")
        if not charpoly.is_monic():
            raise ContractError("charpoly must be monic")
        if charpoly.coeffs[0] not in (1, -1):
            raise ContractError("charpoly constant term must be +/-1")
        if r is not None and not (0 <= r <= g):
            raise ContractError("r must lie in 0..g")
        if k is not None and not (0 <= k <= g - 1):
            raise ContractError("k must lie in 0..g-1")
        # constant term +/-1: all roots are roots of unity (Kronecker)
        # exactly when the cyclotomic part exhausts the charpoly
        unit = cyclotomic_split(charpoly)[1].is_one()
        if finite_order and not unit:
            raise ContractError("inconsistent: finite_order with cyclotomic-free factor")
        if k is not None and not unit:
            raise ContractError(
                "inconsistent: k is defined only when lambda_1 = 1 "
                "(charpoly must be a product of cyclotomics)")
        if finite_order and k not in (None, 0):
            raise ContractError("inconsistent: finite order forces k = 0")
        return super().__new__(cls, g, charpoly, r, k, finite_order)


class Verdict(namedtuple("Verdict", "status reasons")):
    """A decision status and the (rule, theorem, detail) reasons it cites,
    at least one."""
    __slots__ = ()

    def __new__(cls, status, reasons):
        if not reasons:
            raise ContractError("a verdict must cite at least one reason")
        return super().__new__(cls, status, reasons)

    def to_json_dict(self):
        return {"status": self.status,
                "reasons": [{"rule": r, "theorem": t, "detail": d}
                            for (r, t, d) in self.reasons]}


def theoremB_bound(g, r):
    """Upper bound for 2k when a degenerating regularizable family has
    torus rank r: max{r, 2g - 2r - 1}."""
    if not (0 <= r <= g):
        raise ContractError("need 0 <= r <= g")
    return max(r, 2 * g - 2 * r - 1)


_G2_TABLE = {
    # (k, r) -> status; None entries mean "genuinely open"
    (0, 0): REGULARIZABLE, (0, 1): REGULARIZABLE, (0, 2): REGULARIZABLE,
    (1, 0): REGULARIZABLE,
    (1, 1): NOT_REGULARIZABLE,
    (1, 2): UNDETERMINED,
}


def decide_regularizable(desc):
    """Apply the decision rules to a family descriptor.

    First-match-wins for the returned status; all fired rules are collected
    and asserted consistent (the underlying theorems never conflict, so a
    disagreement is a bug and raises)."""
    P, Q, _ = cyclotomic_split(desc.charpoly)
    unit, cyc_free = Q.is_one(), P.is_one()
    fired = []

    if desc.r == 0:
        fired.append(("R1", "non-degenerating criterion",
                      "r = 0: the family does not degenerate", REGULARIZABLE))
    if desc.finite_order or desc.k == 0:
        fired.append(("R2", "finite-order / translation criterion",
                      "an iterate acts by translation", REGULARIZABLE))
    if cyc_free and desc.r is not None and desc.r > 0:
        fired.append(("R3", "degeneration criterion (contrapositive)",
                      "cyclotomic-free action on a degenerating family",
                      NOT_REGULARIZABLE))
    if unit and desc.k is not None and desc.r is not None:
        bound = theoremB_bound(desc.g, desc.r)
        if 2 * desc.k > bound:
            fired.append(("R4", "decomposition bound",
                          f"2k = {2 * desc.k} exceeds max{{r, 2g-2r-1}} = {bound}",
                          NOT_REGULARIZABLE))
    if desc.g == 2 and desc.k is not None and desc.r is not None:
        status = _G2_TABLE.get((desc.k, desc.r))
        if status is not None:
            detail = "g = 2 table lookup"
            if status == UNDETERMINED:
                detail += " (open cell)"
            fired.append(("R5", "g = 2 table", detail, status))

    definite = {s for (_, _, _, s) in fired if s != UNDETERMINED}
    if len(definite) > 1:
        raise AssertionError(f"decision rules disagree: {fired}")

    if fired:
        status = fired[0][3]
        return Verdict(status, tuple((r, t, d) for (r, t, d, _) in fired))
    detail = "no rule applies"
    if desc.r is None:
        detail += "; provide monodromy data (torus rank r)"
    return Verdict(UNDETERMINED, (("none", "insufficient data", detail),))


def growth_exponent_k(u_A_rat):
    """The exponent k with deg_1(f^n) ~ n^{2k} for an abelian part with
    first dynamical degree 1, from the unipotent index of the unipotent
    power: k = j_A - 1.  The char poly and split are the ones kept on
    u_A_rat (char_poly_split)."""
    if not u_A_rat.is_square() or u_A_rat.rows % 2 != 0:
        raise ContractError("u_A_rat must be square of even size 2g")
    g = u_A_rat.rows // 2
    _, _, Q, orders = char_poly_split(u_A_rat)
    if not Q.is_one():
        raise ContractError("k undefined: lambda_1 > 1 (charpoly not cyclotomic)")
    j_A = unipotent_index_of_power(u_A_rat, orders)
    k = max(j_A - 1, 0)
    if k > g - 1:
        raise ContractError(
            f"unipotent index {j_A} exceeds g = {g}: not a valid rational "
            "representation of an abelian-variety automorphism")
    return k


def split_invariant_subfamily(u):
    """Split Z^n along the cyclotomic / cyclotomic-free factorization
    char_poly(u) = P * Q into the saturated invariant lattices
    L0 = Z^n intersect ker P(u) and L1 = Z^n intersect ker Q(u); returns
    (L0 rows, L1 rows, index of L0 + L1 in Z^n), each lattice a tuple of
    basis row tuples.  P and Q are the split kept on char_poly(u)
    (char_poly_split).

    P and Q are coprime, so by the primary decomposition theorem (Hoffman &
    Kunze, Linear Algebra, 2nd ed., 6.8) Q^n is the direct sum of ker P(u)
    and ker Q(u), and u has characteristic polynomial exactly P on the first
    and exactly Q on the second.  So P and Q are the char polys of u on L0
    and L1, with no solve in their bases, and rank L0 = deg P and
    rank L1 = deg Q are checked in their place.  Only the factor F of lower
    degree is evaluated: the other, G, has ker G(u) = im F(u)
    (image_lattice), with the basis kernel_completion(G(u)) gives, as it
    depends on its input's row space alone.  The index is |det [L0; L1]|,
    the last pivot of one _bareiss pass over the stacked rows.  When one
    factor is 1 the other is char_poly(u), which kills u (Cayley-Hamilton),
    so its lattice is Z^n, given by the identity rows, and the other is 0."""
    if not u.is_square():
        raise ContractError("expected a square matrix")
    cp = char_poly(u)
    if abs(cp[0]) != 1:  # det u = (-1)^n cp(0)
        raise ContractError("expected det = +/-1")
    n = u.rows
    P, Q, _ = cyclotomic_split(cp)
    if P.is_one() or Q.is_one():
        whole = tuple(map(tuple, IntMatrix.identity(n).to_rows()))
        return ((), whole, 1) if P.is_one() else (whole, (), 1)
    F = min(P, Q, key=lambda p: p.degree)
    Fu = F.eval_matrix(u)
    T, k = kernel_completion(Fu)
    LF, LG = tuple(map(tuple, T[:k])), image_lattice(Fu)
    L0, L1 = (LF, LG) if F is P else (LG, LF)
    if (len(L0), len(L1)) != (P.degree, Q.degree):
        raise AssertionError("lattice rank != factor degree")  # pragma: no cover
    pivots, d = _bareiss(list(L0 + L1), n)
    assert len(pivots) == n
    return L0, L1, abs(d)

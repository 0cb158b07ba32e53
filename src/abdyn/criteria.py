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

from dataclasses import dataclass, field

from .degrees import unipotent_index_of_power
from .errors import ContractError
from .exactalg import (IntMatrix, IntPolynomial, char_poly, cyclotomic_split,
                       cyclotomic_split_with_orders, kernel_lattice,
                       kronecker_is_roots_of_unity, solve)

REGULARIZABLE = "Regularizable"
NOT_REGULARIZABLE = "NotRegularizable"
UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class FamilyDescriptor:
    g: int
    charpoly: IntPolynomial
    r: int | None = None
    k: int | None = None
    finite_order: bool = False

    def __post_init__(self):
        if self.g < 1:
            raise ContractError("g must be >= 1")
        if self.charpoly.degree != 2 * self.g:
            raise ContractError("charpoly degree must be 2g")
        if not self.charpoly.is_monic():
            raise ContractError("charpoly must be monic")
        if self.charpoly.coeffs[0] not in (1, -1):
            raise ContractError("charpoly constant term must be +/-1")
        if self.r is not None and not (0 <= self.r <= self.g):
            raise ContractError("r must lie in 0..g")
        if self.k is not None and not (0 <= self.k <= self.g - 1):
            raise ContractError("k must lie in 0..g-1")
        unit = kronecker_is_roots_of_unity(self.charpoly)
        if self.finite_order and not unit:
            raise ContractError("inconsistent: finite_order with cyclotomic-free factor")
        if self.k is not None and not unit:
            raise ContractError(
                "inconsistent: k is defined only when lambda_1 = 1 "
                "(charpoly must be a product of cyclotomics)")
        if self.finite_order and self.k not in (None, 0):
            raise ContractError("inconsistent: finite order forces k = 0")


@dataclass(frozen=True)
class Verdict:
    status: str
    reasons: tuple = field(default=())

    def __post_init__(self):
        if not self.reasons:
            raise ContractError("a verdict must cite at least one reason")

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
    P, Q = cyclotomic_split(desc.charpoly)
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
    power: k = j_A - 1."""
    if not u_A_rat.is_square() or u_A_rat.rows % 2 != 0:
        raise ContractError("u_A_rat must be square of even size 2g")
    g = u_A_rat.rows // 2
    _, Q, orders = cyclotomic_split_with_orders(char_poly(u_A_rat))
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
    """Split Z^{2g} along the cyclotomic / cyclotomic-free factorization of
    char_poly(u) into the saturated invariant lattices L0 = ker P(u) and
    L1 = ker Q(u); returns (L0, L1, index of L0 + L1 in Z^{2g})."""
    if not u.is_square():
        raise ContractError("expected a square matrix")
    if abs(u.det()) != 1:
        raise ContractError("expected det = +/-1")
    n = u.rows
    P, Q = cyclotomic_split(char_poly(u))
    L0 = kernel_lattice(P, u)
    L1 = kernel_lattice(Q, u)
    if L0.rank + L1.rank != n:
        raise AssertionError("rank sum != ambient dimension")  # pragma: no cover
    stacked = IntMatrix.from_rows(list(L0.basis) + list(L1.basis))
    index = abs(stacked.det())
    assert index >= 1
    return L0, L1, index


def _basis_coordinates(u, lat):
    """Coordinates of u(v) in the basis of lat for each basis vector v: one
    exact solve with the images as right-hand sides (None where u(v) leaves
    the rational span)."""
    A = [list(col) for col in zip(*lat.basis)]
    return solve(A, *(u.mat_vec(v) for v in lat.basis))


def lattice_is_invariant(u, lat):
    """Exact check that u maps the sublattice into itself."""
    if lat.rank == 0:
        return True
    return all(x is not None and all(c.denominator == 1 for c in x)
               for x in _basis_coordinates(u, lat))


def restricted_char_poly(u, lat):
    """Characteristic polynomial of u restricted to an invariant sublattice,
    computed exactly in the basis of the sublattice."""
    if lat.rank == 0:
        return IntPolynomial([1])
    coords = _basis_coordinates(u, lat)
    if any(x is None or any(c.denominator != 1 for c in x) for x in coords):
        raise ContractError("sublattice is not invariant under u")
    return char_poly(IntMatrix.from_rows([[int(c) for c in x] for x in coords]))

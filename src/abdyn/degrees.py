"""Dynamical degrees of automorphisms of semi-abelian varieties.

A semi-abelian variety 1 -> T -> G -> A -> 1 carries an automorphism f whose
differential splits into a torus part u_T (an r x r lattice automorphism) and
an abelian part, represented here by its rational representation u_A_rat (a
2g x 2g lattice automorphism carrying each analytic eigenvalue together with
its conjugate).  The k-th degree of f^n grows like

    max_{j+l=k, j<=g, l<=r}  |Lambda^{j,j} u_A^n| * |Lambda^l u_T^n|,

so the dynamical degrees have the closed form

    lambda_k = max_{j+l=k}  (prod of top-l torus moduli) * (prod of top-j
               analytic abelian moduli)^2.

The (j,j)-norm on the abelian part equals the 2j-th real exterior power norm
of u_A_rat up to bounded constants (the rational representation doubles every
analytic modulus).  Each part's spectral facts (det, moduli, the exact unit
test, its cyclotomic orders) come from one characteristic polynomial and one
cyclotomic split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractError, DimensionError
from .exactalg import (IntMatrix, char_poly, cyclotomic_split_with_orders,
                       eigenvalue_moduli)


@dataclass(frozen=True)
class SemiAbelianAut:
    """Automorphism of a semi-abelian variety with torus rank r and abelian
    dimension g, given by the two lattice automorphisms."""
    r: int
    g: int
    u_T: IntMatrix | None = None
    u_A_rat: IntMatrix | None = None

    def __post_init__(self):
        if self.r < 0 or self.g < 0:
            raise ContractError("r and g must be nonnegative")
        if self.r > 0:
            if self.u_T is None or self.u_T.rows != self.r or self.u_T.cols != self.r:
                raise DimensionError("u_T must be r x r")
        elif self.u_T is not None:
            raise DimensionError("u_T given for torus rank r = 0")
        if self.g > 0:
            if self.u_A_rat is None or self.u_A_rat.rows != 2 * self.g \
                    or self.u_A_rat.cols != 2 * self.g:
                raise DimensionError("u_A_rat must be 2g x 2g")
        elif self.u_A_rat is not None:
            raise DimensionError("u_A_rat given for abelian dimension g = 0")

    def validate(self, tol=1e-9):
        """Check the lattice-automorphism and doubled-moduli invariants."""
        _spectra(self, tol)
        return self


@dataclass(frozen=True)
class DegreeProfile:
    """Dynamical degrees lambda_0..lambda_{r+g} and, where the degree growth
    is polynomial (lambda_k = 1), the known integer exponents d_k (None when
    no closed form is available; only k = 0, 1 and the top k have one)."""
    lambdas: tuple
    growth_exponents: tuple

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(x) for x in self.lambdas))
        object.__setattr__(self, "growth_exponents", tuple(self.growth_exponents))
        ls = self.lambdas
        if not ls or ls[0] != 1.0 or ls[-1] != 1.0:
            raise ContractError("lambda_0 and lambda_top must be exactly 1")
        if any(x < 1.0 - 1e-12 for x in ls):
            raise ContractError("dynamical degrees must be >= 1")
        for i in range(1, len(ls) - 1):
            if ls[i] ** 2 < ls[i - 1] * ls[i + 1] * (1 - 1e-9):
                raise ContractError("profile is not log-concave")

    def to_json_dict(self):
        return {"lambdas": list(self.lambdas),
                "growth_exponents": list(self.growth_exponents)}


def _part_spectrum(M, name, tol):
    """(moduli, orders) of one part from one char poly and one cyclotomic
    split: the descending (modulus, multiplicity) groups, and the orders
    {m: multiplicity} of its cyclotomic factors when they exhaust the char
    poly (None otherwise)."""
    cp = char_poly(M)
    if abs(cp.coeffs[0]) != 1:  # det M = (-1)^n cp(0)
        raise ContractError(f"{name} must have det +/-1")
    P, Q, orders = cyclotomic_split_with_orders(cp)
    return eigenvalue_moduli(cp, tol, split=(P, Q)), (orders if Q.is_one() else None)


def _spectra(aut, tol):
    """The (moduli, orders) of the torus and abelian parts (None for an
    absent part), after checking det +/-1 and the doubled abelian moduli."""
    torus = _part_spectrum(aut.u_T, "u_T", tol) if aut.r else None
    abelian = _part_spectrum(aut.u_A_rat, "u_A_rat", tol) if aut.g else None
    if abelian and any(mult % 2 for _, mult in abelian[0]):
        raise ContractError(
            "u_A_rat moduli are not a doubled multiset: "
            "not a rational representation of an abelian part")
    return torus, abelian


def unipotent_index_of_power(M, orders):
    """Unipotent index of M^n0, where n0 = lcm(orders) for the orders
    {m: multiplicity} of the cyclotomic factors exhausting char_poly(M):
    M^n0 is unipotent, so this is the least j >= 1 with (M^n0 - I)^j = 0
    (0 for an empty matrix)."""
    if M.rows == 0:
        return 0
    N = M ** math.lcm(*orders) - IntMatrix.identity(M.rows)
    power, j = N, 1
    while any(any(row) for row in power.to_rows()):
        power, j = power @ N, j + 1
    return j


def semiabelian_degrees(aut, tol=1e-9):
    """The full degree profile of the automorphism, by the closed formula.
    When every eigenvalue is a root of unity (decided exactly) all lambda_k
    are 1, and deg_1(f^n) ~ n^d with d = max{j_T - 1, 2(j_A - 1), 0} for the
    unipotent indices of the torus and abelian parts, taken on their
    unipotent powers (degrees never decay, hence the clamp at 0)."""
    torus, abelian = _spectra(aut, tol)
    r, g = aut.r, aut.g
    exponents = [None] * (r + g + 1)
    exponents[0] = exponents[-1] = 0
    if all(part is None or part[1] is not None for part in (torus, abelian)):
        j_T = unipotent_index_of_power(aut.u_T, torus[1]) if r else 0
        j_A = unipotent_index_of_power(aut.u_A_rat, abelian[1]) if g else 0
        if r + g >= 1:
            exponents[1] = max(j_T - 1, 2 * (j_A - 1), 0)
        return DegreeProfile((1.0,) * (r + g + 1), tuple(exponents))
    # descending moduli; the analytic ones are half of the doubled multiset
    taus = [mod for mod, mult in torus[0] for _ in range(mult)] if torus else []
    alphas = [mod for mod, mult in abelian[0] for _ in range(mult // 2)] if abelian else []
    lambdas = [max(math.prod(taus[:l]) * math.prod(alphas[:j - l]) ** 2
                   for l in range(max(0, j - g), min(j, r) + 1))
               for j in range(r + g + 1)]
    lambdas[0] = lambdas[-1] = 1.0
    # clean up float fuzz at unit entries
    lambdas = [1.0 if abs(x - 1.0) <= 10 * tol else x for x in lambdas]
    return DegreeProfile(tuple(lambdas), tuple(exponents))


def first_degree_data(aut, tol=1e-9):
    """(lambda_1, d): the first dynamical degree and, when lambda_1 = 1
    (decided exactly via the cyclotomic test), the integer d with
    deg_1(f^n) ~ n^d (see semiabelian_degrees); d is None otherwise.  The
    point (r = g = 0) gives (1.0, 0)."""
    if aut.r + aut.g == 0:
        return 1.0, 0
    profile = semiabelian_degrees(aut, tol)
    return profile.lambdas[1], profile.growth_exponents[1]


def product_Eg_degrees(M, tol=1e-9):
    """Degree profile of the induced map on the g-fold product of an elliptic
    curve: lambda_k = (product of the top k eigenvalue moduli of M)^2.

    Equivalent to semiabelian_degrees with r=0 and u_A_rat = M + M block
    diagonal (a complex-structure-compatible basis)."""
    if not M.is_square():
        raise DimensionError("expected a square matrix")
    if abs(M.det()) != 1:
        raise ContractError("expected det = +/-1")
    aut = SemiAbelianAut(r=0, g=M.rows, u_A_rat=IntMatrix.block_diag(M, M))
    return semiabelian_degrees(aut, tol)


def blowup_restriction_degrees(lambdas_on_Z, N, c):
    """Degrees of the induced map on the exceptional divisor of the blow-up
    of an invariant center Z of codimension c in an N-fold:
    lambda_i = max over j in [max{0,i-c+1}, min{i, N-c}] of lambda_j(f|_Z)."""
    if not (1 <= c <= N):
        raise ContractError("need 1 <= c <= N")
    if len(lambdas_on_Z) != N - c + 1:
        raise ContractError("lambdas_on_Z must list degrees 0..N-c")
    out = []
    for i in range(N):
        lo, hi = max(0, i - c + 1), min(i, N - c)
        if lo > hi:
            raise ContractError("empty degree window")  # pragma: no cover
        out.append(max(lambdas_on_Z[lo:hi + 1]))
    return out


def restriction_inequality_check(lambdas_full, lambdas_sub, c, tol=1e-9):
    """Check lambda_k(f|_Z) <= min{lambda_k(f), lambda_{k+c}(f)} for an
    invariant subvariety of codimension c."""
    if len(lambdas_sub) != len(lambdas_full) - c:
        raise ContractError("length mismatch: dim Z must be N - c")
    for k, sub in enumerate(lambdas_sub):
        if sub > min(lambdas_full[k], lambdas_full[k + c]) + tol:
            return False
    return True

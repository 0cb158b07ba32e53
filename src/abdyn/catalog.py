"""Example families: units in totally real fields, Type I unit actions,
quaternion reduced norms, and the classification of automorphism types for
fiber dimension g <= 5.

Units in real quadratic fields are found by the continued-fraction algorithm
for x^2 - d y^2 = +/-1; we work in the (possibly non-maximal) order Z[sqrt d]
throughout, which is harmless up to isogeny and recorded here.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .errors import ContractError
from .exactalg import (INT_BOUND, MAX_INT_DIGITS, IntMatrix, IntPolynomial, char_poly,
                       cyclotomic_split)


# ---------------------------------------------------------------------------
# Pell units
# ---------------------------------------------------------------------------

def pell_fundamental_unit(d):
    """Fundamental solution (x, y, norm) of x^2 - d y^2 = +/-1 with x, y > 0
    minimal, by the continued-fraction expansion of sqrt(d).  ContractError
    once a convergent h reaches INT_BOUND: such a unit cannot be written out.
    The convergents grow at least like the Fibonacci numbers, so the loop
    ends within about 20,600 steps."""
    if d <= 1:
        raise ContractError("need d > 1")
    a0 = math.isqrt(d)
    if a0 * a0 == d:
        raise ContractError("d must not be a perfect square")
    # continued fraction of sqrt(d): a_i with convergents h_i / k_i, and
    # h_i^2 - d k_i^2 = +/-den_{i+1}, so the norm is +/-1 exactly at den = 1
    m, den, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while True:
        if h >= INT_BOUND:
            raise ContractError(f"the fundamental unit of Z[sqrt {d}] has more "
                                f"than {MAX_INT_DIGITS} digits")
        m = den * a - m
        den = (d - m * m) // den
        if den == 1:
            return h, k, h * h - d * k * k
        a = (a0 + m) // den
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev


def unit_minpoly(d):
    """Minimal polynomial T^2 - 2x T + norm of the fundamental unit
    x + y sqrt(d) of Z[sqrt d]."""
    x, _, norm = pell_fundamental_unit(d)
    return IntPolynomial([norm, -2 * x, 1])


# ---------------------------------------------------------------------------
# Type I construction
# ---------------------------------------------------------------------------

def unit_multiplication_matrix(minpoly, copies):
    """Rational representation of multiplication by a unit on the module
    O_K^copies + O_K^copies: the companion matrix of the unit's minimal
    polynomial, block-repeated 2*copies times."""
    if not minpoly.is_monic():
        raise ContractError("minpoly must be monic")
    if minpoly.coeffs[0] not in (1, -1):
        raise ContractError("not a unit: constant term must be +/-1")
    if copies < 1:
        raise ContractError("copies must be >= 1")
    if minpoly.degree == 0:
        raise ContractError("minpoly must have degree >= 1")
    block = IntMatrix.companion(minpoly)
    return IntMatrix.block_diag(*([block] * (2 * copies)))


# ---------------------------------------------------------------------------
# quaternion algebras
# ---------------------------------------------------------------------------

class QuaternionAlgebra(namedtuple("QuaternionAlgebra", "a b")):
    """Rational quaternion algebra with i^2 = a, j^2 = b, ij = -ji (a and b
    nonzero Fractions)."""
    __slots__ = ()

    def __new__(cls, a, b):
        a, b = Fraction(a), Fraction(b)
        if a == 0 or b == 0:
            raise ContractError("a and b must be nonzero")
        return super().__new__(cls, a, b)


class Quaternion(namedtuple("Quaternion", "alpha beta gamma delta")):
    """The quaternion alpha + beta i + gamma j + delta ij, its coordinates
    Fractions."""
    __slots__ = ()

    def __new__(cls, alpha, beta, gamma, delta):
        return super().__new__(cls, Fraction(alpha), Fraction(beta),
                               Fraction(gamma), Fraction(delta))


def quaternion_nrd(alg, q):
    """Reduced norm alpha^2 - a beta^2 - b gamma^2 + ab delta^2."""
    a, b = alg.a, alg.b
    return (q.alpha ** 2 - a * q.beta ** 2 - b * q.gamma ** 2
            + a * b * q.delta ** 2)


def quaternion_trd(q):
    """Reduced trace 2 alpha."""
    return 2 * q.alpha


def quaternion_reduced_charpoly(alg, q):
    """T^2 - trd T + nrd, integral when the entries are."""
    nrd = quaternion_nrd(alg, q)
    trd = quaternion_trd(q)
    if nrd.denominator != 1 or trd.denominator != 1:
        raise ContractError("reduced charpoly is integral only for integral traces/norms")
    return IntPolynomial([int(nrd), -int(trd), 1])


def quaternion_norm_one_search(alg, height):
    """All integer-coordinate quaternions with |coords| <= height, reduced
    norm +/-1 and reduced trace outside {0, +/-1, +/-2} (excluding the
    obvious finite-order elements).  Each hit is returned with its reduced
    characteristic polynomial and cyclotomic-free status."""
    if height < 0:
        raise ContractError("height must be >= 0")
    hits = []
    rng = range(-height, height + 1)
    for coords in itertools.product(rng, repeat=4):
        q = Quaternion(*coords)
        nrd = quaternion_nrd(alg, q)
        if nrd not in (1, -1):
            continue
        trd = quaternion_trd(q)
        if trd in (0, 1, -1, 2, -2):
            continue
        rc = quaternion_reduced_charpoly(alg, q)
        hits.append((q, rc, cyclotomic_split(rc)[0].is_one()))
    return hits


def quaternion_rational_rep(alg, q, g):
    """Rational representation of multiplication by an integral quaternion of
    reduced norm +/-1 on a 2g-dimensional lattice: companion of the reduced
    charpoly, block-repeated g times (the reduced charpoly identity
    char = rc^{2g/de} with de = 2 here)."""
    rc = quaternion_reduced_charpoly(alg, q)
    comp = IntMatrix.companion(rc)
    return IntMatrix.block_diag(*([comp] * g))


def reduced_charpoly_relation_check(rational_rep, reduced_charpoly, exponent):
    """char_poly(rational_rep) == reduced_charpoly^exponent, exactly."""
    if exponent < 1 or int(exponent) != exponent:
        raise ContractError("exponent must be a positive integer")
    return char_poly(rational_rep) == reduced_charpoly ** int(exponent)


# ---------------------------------------------------------------------------
# classification g <= 5
# ---------------------------------------------------------------------------

class ClassificationCase(namedtuple("ClassificationCase",
                                     "id g albert_type parameters description m")):
    """One automorphism type: its id, fiber dimension g, Albert type (None
    for generically non-simple products), parameters (l, e, d where
    applicable), description and moduli dimension m."""
    __slots__ = ()


_CASES = (
    ClassificationCase("2.1", 2, None, {"l": 2, "e": 1},
                       "square of an elliptic curve, unit = hyperbolic "
                       "integer matrix", 1),
    ClassificationCase("2.2", 2, "I", {"l": 1, "e": 2},
                       "generically simple, real multiplication by a real "
                       "quadratic field, unit of the field", 2),
    ClassificationCase("3.1", 3, None, {"l": 3, "e": 1},
                       "cube of an elliptic curve", 1),
    ClassificationCase("3.2", 3, "I", {"l": 1, "e": 3},
                       "generically simple, real multiplication by a totally "
                       "real cubic field", 3),
    ClassificationCase("4.1", 4, None, {"l": 4, "e": 1},
                       "fourth power of an elliptic curve", 1),
    ClassificationCase("4.2", 4, None, {},
                       "product of an elliptic-curve square and a real-"
                       "multiplication surface, units in two real quadratic "
                       "fields", 2),
    ClassificationCase("4.3", 4, None, {},
                       "product of two real-multiplication surfaces with "
                       "units in two real quadratic fields", 4),
    ClassificationCase("4.4", 4, None, {},
                       "square of a real-multiplication surface, unit = "
                       "2x2 matrix over the real quadratic integers", 2),
    ClassificationCase("4.5", 4, "I", {"l": 1, "e": 4},
                       "generically simple, totally real quartic field", 4),
    ClassificationCase("4.6", 4, "I", {"l": 2, "e": 2},
                       "generically simple, real multiplication by a real "
                       "quadratic field, second construction", 6),
    ClassificationCase("4.7", 4, "II", {"l": 1, "e": 2, "d": 2},
                       "generically simple, totally indefinite quaternion "
                       "algebra over a real quadratic field", 2),
    ClassificationCase("4.8", 4, "II", {"l": 2, "e": 1, "d": 2},
                       "generically simple, totally indefinite quaternion "
                       "algebra over Q on a 2-dimensional module", 3),
    ClassificationCase("5.1", 5, None, {"l": 5, "e": 1},
                       "fifth power of an elliptic curve", 1),
    ClassificationCase("5.2", 5, None, {},
                       "product of an elliptic curve power and a real-"
                       "multiplication factor", 4),
    ClassificationCase("5.3", 5, None, {},
                       "product of a surface and a threefold with real "
                       "multiplication", 3),
    ClassificationCase("5.4", 5, None, {},
                       "product with a totally real quintic-field factor", 5),
    ClassificationCase("5.5", 5, "I", {"l": 1, "e": 5},
                       "generically simple, totally real quintic field", 5),
)


def classification_cases(g):
    """The fixed classification table of automorphism types for 2 <= g <= 5."""
    if not (2 <= g <= 5):
        raise ContractError("classification is tabulated for 2 <= g <= 5")
    return [c for c in _CASES if c.g == g]


def moduli_dim_formula(case):
    """The moduli-dimension formula for the simple Albert-type cases:
    type I: m = (e/2) l (l+1) as a rational that must be integral;
    type II: the same expression.  Returns None when no formula applies."""
    if case.albert_type in ("I", "II") and "l" in case.parameters:
        l = case.parameters["l"]
        e = case.parameters["e"]
        val = Fraction(e, 2) * l * (l + 1)
        return int(val) if val.denominator == 1 else None
    return None


# ---------------------------------------------------------------------------
# family builders for the CLI / end-to-end pipeline
# ---------------------------------------------------------------------------

def build_case_matrices(case_id, d=2):
    """Concrete matrix for a buildable case: returns (label, automorphism),
    the automorphism being its rational representation.  Its char poly and
    cyclotomic split are kept on the matrix (exactalg.char_poly_split).  d
    selects the real quadratic field where one is needed."""
    if case_id == "2.1":
        M = IntMatrix.from_rows([[2, 1], [1, 1]])
        auto = IntMatrix.block_diag(M, M)
        label = "unit = [[2,1],[1,1]] acting on E^2"
    elif case_id == "2.2":
        auto = unit_multiplication_matrix(unit_minpoly(d), copies=1)
        label = f"fundamental unit of Z[sqrt {d}] acting on a RM surface"
    elif case_id == "3.1":
        # N in GL_3(Z) acts on E^3 as N (+) N; char poly T^3 - 4T^2 + 3T + 1
        N = IntMatrix.from_rows([[2, 1, 0], [1, 1, 1], [0, 1, 1]])
        auto = IntMatrix.block_diag(N, N)
        label = "N = [[2,1,0],[1,1,1],[0,1,1]] acting on E^3"
    elif case_id == "3.2":
        # totally real cubic unit: T^3 - T^2 - 2T + 1 (the 7th-root trace field)
        p = IntPolynomial([1, -2, -1, 1])
        auto = unit_multiplication_matrix(p, copies=1)
        label = "totally real cubic unit"
    elif case_id == "4.5":
        # totally real quartic unit: T^4 - 4T^2 - T + 1 is not monic-unit; use
        # the Lehmer-ish quartic T^4 - T^3 - 3T^2 + T + 1 (constant term 1)
        p = IntPolynomial([1, 1, -3, -1, 1])
        auto = unit_multiplication_matrix(p, copies=1)
        label = "totally real quartic unit"
    elif case_id == "4.8":
        alg = QuaternionAlgebra(2, 3)
        q = Quaternion(3, 2, 0, 0)
        auto = quaternion_rational_rep(alg, q, g=4)
        label = "norm-one quaternion (3 + 2i) in (2,3 | Q) on a 2-module"
    elif case_id == "5.5":
        # totally real quintic unit: minimal polynomial of 2cos(2*pi/11)
        p = IntPolynomial([1, 3, -3, -4, 1, 1])
        auto = unit_multiplication_matrix(p, copies=1)
        label = "totally real quintic unit"
    else:
        raise ContractError(f"case {case_id} has no concrete matrix builder "
                            "(classification metadata only)")
    return label, auto

"""Finite-precision analyzer of translation orbit closures.

A translation by alpha on a complex torus V/Lambda has orbit closure a real
subtorus; its dimension and complex structure are controlled by the rational
relation lattice of the real dual coordinates x_1..x_2g of alpha:

    L = { q integer : q . x  is rational },     h = 2g - dim L.

Each relation q gives a real linear form l_q on V and the complex-linear form
u_q(v) = l_q(v) - i l_q(iv); the intersection of the kernels of the u_q is
the maximal complex subspace A of the orbit-closure tangent space, of complex
dimension s.  Then r = h - 2s, the orbit is dense iff h = 2g, and the closure
is totally real iff s = 0.

Relations are found by lattice-basis reduction on the augmented vector
(x_1, .., x_2g, 1) scaled by 1/tol, so results are certificates at a stated
height bound, never proofs of absence.  The reduction is exactalg's
lll_reduce, the integral LLL of Cohen (A Course in Computational Algebraic
Number Theory, Alg. 2.6.7), exact in integers throughout.

The coordinates x and the inverse of the basis matrix are exact up to one
rounding: every float is a dyadic rational, so one exact elimination in
integers (exactalg's _bareiss, on [A | v | I] with the denominators of each
column of A, and of v, cleared) gives both, and each entry is rounded to a
float once, by an int true division.  A period lattice in Riemann's normal
form Z^g + Omega Z^g has g unit basis vectors, whose pivots cost nothing.
The rank of the complex forms is read from singular values computed by
one-sided Jacobi (Hestenes), which keeps small singular values accurate
relative to their size, as the rank band needs (Demmel & Veselic, SIAM J.
Matrix Anal. Appl. 13, 1992).
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from operator import mul

from .errors import ContractError, DimensionError, NumericIndeterminacyError
from .exactalg import _bareiss, lll_reduce

# Bases with ||A||_F ||A^-1||_F above this are refused; the product is
# within a factor 2g of the 2-norm condition number of A.
COND_LIMIT = 1e12
JACOBI_MAX_SWEEPS = 30


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------

class NumericLattice(namedtuple("NumericLattice", "g basis polarization")):
    """A rank-2g lattice in C^g: basis vectors as complex g-vectors (2g
    tuples of complex numbers), plus an optional integer symplectic
    polarization matrix on the basis."""
    __slots__ = ()

    def __new__(cls, g, basis, polarization=None):
        basis = tuple(tuple(map(complex, v)) for v in basis)
        if len(basis) != 2 * g or any(len(v) != g for v in basis):
            raise ContractError("need 2g basis vectors of length g")
        E = polarization
        if E is not None:
            if E.rows != 2 * g or E.cols != 2 * g:
                raise ContractError("polarization must be 2g x 2g")
            if E != E.transpose() * (-1):
                raise ContractError("polarization must be skew-symmetric")
        return super().__new__(cls, g, basis, polarization)


class Relation(namedtuple("Relation", "q q_prime residual")):
    """A relation: the integer 2g-vector q, the denominator-cleared rational
    value q_prime of q . x, and the residual |q . x - q_prime| (a float)."""
    __slots__ = ()

    def to_json_dict(self):
        return {"q": [str(x) for x in self.q], "q_prime": str(self.q_prime),
                "residual": self.residual}


class OrbitReport(namedtuple("OrbitReport",
                             "h s r relations dense totally_real height_bound tol")):
    """Orbit-closure dimensions h, s, r = h - 2s, the relations found, the
    density and total-reality flags, and the height bound and tolerance of
    the search."""
    __slots__ = ()

    def __new__(cls, h, s, r, relations, dense, totally_real, height_bound, tol):
        g2 = h + len(relations)
        assert 0 <= h <= g2
        assert 0 <= 2 * s <= h
        assert r == h - 2 * s
        return super().__new__(cls, h, s, r, relations, dense, totally_real,
                               height_bound, tol)

    def to_json_dict(self):
        return {"h": self.h, "s": self.s, "r": self.r,
                "relations": [rel.to_json_dict() for rel in self.relations],
                "dense": self.dense, "totally_real": self.totally_real,
                "height_bound": self.height_bound, "tol": self.tol}


# ---------------------------------------------------------------------------
# coordinates and relations
# ---------------------------------------------------------------------------

def _real(v):
    """A complex vector in the coordinates (Re z_1..Re z_g, Im z_1..Im z_g)."""
    return [z.real for z in v] + [z.imag for z in v]


def real_dual_coords(lattice, v):
    """(x, columns of A^-1): the coordinates x with v = sum x_j e_j as a
    real combination of the lattice basis, residual-checked, where the
    columns of A are the basis vectors in real coordinates.

    Floats are dyadic rationals, so A x = v and A Y = I are solved exactly by
    one _bareiss pass over the integer rows [A' | M v | I], A' = A diag(D),
    D_j the lcm of the denominators of column j of A and M that of v, so a
    unit column stays one and its pivot costs no row operation.  From its
    solutions y and Y', x_i = D_i y_i / M and Y_ij = D_i Y'_ij, each rounded
    to a float once.  Bases with ||A||_F ||A^-1||_F > COND_LIMIT are
    refused, and a v without g coordinates raises DimensionError."""
    n = 2 * lattice.g
    v = tuple(map(complex, v))
    if len(v) != lattice.g:
        raise DimensionError("alpha must have g coordinates")
    cols = [_real(b) for b in lattice.basis]
    rhs = _real(v)
    # powers of two: each lcm of denominators is the largest
    scaled, D = [], []
    for col in cols:
        ratios = [t.as_integer_ratio() for t in col]
        m = max([q for _, q in ratios])
        scaled.append([p * (m // q) for p, q in ratios])
        D.append(m)
    ratios = [t.as_integer_ratio() for t in rhs]
    M = max([q for _, q in ratios])
    aug = [[*row, p * (M // q), *(0,) * i, 1, *(0,) * (n - 1 - i)]
           for i, (row, (p, q)) in enumerate(zip(zip(*scaled), ratios))]
    pivots, d = _bareiss(aug, n)
    if len(pivots) < n:
        raise NumericIndeterminacyError("lattice basis is ill-conditioned")
    # row i now holds d y_i and d Y'_i; with d > 0 (its sign moved into D,
    # so that no zero turns into -0.0), int true division rounds each exact
    # quotient once
    if d < 0:
        d, D = -d, [-m for m in D]
    try:
        x, *inverse = [[m * t / e for m, t in zip(D, col)]
                       for e, col in zip((d * M, *[d] * n), list(zip(*aug))[n:])]
    except OverflowError:
        raise NumericIndeterminacyError(
            "a coordinate or an entry of A^-1 is beyond the float range") from None
    norms = math.hypot(*itertools.chain(*cols)) * math.hypot(*itertools.chain(*inverse))
    if not norms <= COND_LIMIT:  # also true for nan
        raise NumericIndeterminacyError("lattice basis is ill-conditioned")
    # hypot scales internally, where a sum of squares would overflow
    resid = math.hypot(*(sum(map(mul, row, x)) - r for row, r in zip(zip(*cols), rhs)))
    scale = max(1.0, math.hypot(*rhs))
    if not resid <= 1e-10 * scale:
        raise NumericIndeterminacyError(f"reconstruction residual {resid} too large")
    return tuple(x), inverse


def _independent(vectors):
    """Indices of the greedy independent subset of integer vectors: each is
    kept unless it lies in the rational span of the earlier ones.  These are
    the pivot columns of the matrix with the vectors as its columns."""
    pivots, _ = _bareiss([list(col) for col in zip(*vectors)], len(vectors))
    return pivots


def _round_scaled(scale, t):
    """round(scale * t) for the LLL rows; a product beyond the float range
    has no integer to round to."""
    s = scale * t
    if not math.isfinite(s):
        raise NumericIndeterminacyError(
            f"coordinate {t!r} scaled by 1/tol = {scale} is not finite")
    return round(s)


def relation_lattice(coords, height_bound=50, tol=1e-10):
    """Integer relations q with q . x rational, certified at the given height
    bound: LLL on the augmented vector (x_1..x_2g, 1) scaled by 1/tol.  Each
    returned Relation carries q, the denominator-cleared rational value
    q' = q . x (an integer because the search works on (x, 1)), and the float
    residual |q . x - q'|."""
    if height_bound < 1:
        raise ContractError("height bound must be >= 1")
    if not 0 < tol < math.inf:  # also false for nan
        raise ContractError("tol must be positive and finite")
    if 1.0 / tol == math.inf:
        raise ContractError(f"tol = {tol!r} is too small: 1/tol is beyond the float range")
    n = len(coords)
    scale = round(1.0 / tol)
    rows = [[int(i == j) for j in range(n + 1)] + [_round_scaled(scale, x)]
            for i, x in enumerate(coords)]
    rows.append([0] * n + [1, scale])
    # q . x at height H is known to about n H 2^-52 max(1, |x_i|), no better
    if n and tol / (n * 2.0 ** -52 * max(1.0, *map(abs, coords))) < height_bound:
        raise ContractError(f"tol = {tol!r} is below the float resolution of q . x "
                            f"at height {height_bound}")
    found = []
    for *q, m, _ in lll_reduce(rows):
        if not any(q):
            continue
        residual = abs(sum(map(mul, q, coords)) + m)
        if residual >= tol or max(abs(m), *map(abs, q)) > height_bound:
            continue
        found.append(Relation(q=tuple(q), q_prime=-m, residual=float(residual)))
    # keep an independent subset (rank of the q-parts over Q)
    found.sort(key=lambda r: max(map(abs, r.q)))
    return [found[i] for i in _independent([rel.q for rel in found])]


def _complex_forms(inverse, relations, g):
    """Rows of the matrix of the complex-linear forms u_q in the standard
    coordinates of C^g.  With w = q A^-1 (inverse: the columns of A^-1),
    l_q(e_k) = w_k and l_q(i e_k) = w_{g+k}, so u_q(e_k) = w_k - i w_{g+k}."""
    rows = []
    for rel in relations:
        w = [sum(map(mul, rel.q, col)) for col in inverse]
        rows.append([complex(w[k], -w[g + k]) for k in range(g)])
    return rows


def _singular_values(rows):
    """Singular values of a complex matrix, largest first, by one-sided
    Jacobi (Hestenes): plane rotations orthogonalize the columns of the
    matrix or of its transpose, whichever has fewer, and the column norms
    are then the singular values.  The entries are scaled by a power of two
    first, so that no sum of squares overflows or underflows."""
    cols = [list(r) for r in rows] if len(rows) < len(rows[0]) else \
        [list(c) for c in zip(*rows)]
    big = max(map(abs, itertools.chain.from_iterable(map(_real, cols))))
    if not big < math.inf:
        raise NumericIndeterminacyError("a complex form is beyond the float range")
    e = math.frexp(big)[1]
    cols = [[complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in c]
            for c in cols]
    eps = len(cols[0]) * 2.0 ** -52
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for p, q in itertools.combinations(range(len(cols)), 2):
            cp, cq = cols[p], cols[q]
            a = sum(z.real * z.real + z.imag * z.imag for z in cp)
            b = sum(z.real * z.real + z.imag * z.imag for z in cq)
            c = sum(x.conjugate() * y for x, y in zip(cp, cq))
            if abs(c) <= eps * math.sqrt(a * b):
                continue
            rotated = True
            # rotate (cp, cq * conj(phase)) by the real angle that zeroes
            # their inner product |c|
            zeta = (b - a) / (2 * abs(c))
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            cs = 1 / math.hypot(1.0, t)
            sn = cs * t
            phase = (c / abs(c)).conjugate()
            cols[p] = [cs * x - sn * phase * y for x, y in zip(cp, cq)]
            cols[q] = [sn * x + cs * phase * y for x, y in zip(cp, cq)]
        if not rotated:
            try:
                return sorted((math.ldexp(math.hypot(*_real(c)), e) for c in cols),
                              reverse=True)
            except OverflowError:
                raise NumericIndeterminacyError(
                    "a singular value is beyond the float range") from None
    raise NumericIndeterminacyError(
        f"singular values did not converge in {JACOBI_MAX_SWEEPS} Jacobi sweeps")


def _rank_with_band(sv, tol):
    """Rank decision with an explicit indeterminacy band: singular values in
    (tol*smax, 10*tol*smax) are refused."""
    if len(sv) == 0:
        return 0
    smax = max(float(sv[0]), 1.0)
    lo, hi = tol * smax, 10 * tol * smax
    if any(lo < s < hi for s in sv):
        raise NumericIndeterminacyError(
            "borderline singular value inside the indeterminacy band; "
            "choose a different tol")
    return int(sum(s >= hi for s in sv))


def orbit_dims(lattice, alpha, height_bound=50, tol=1e-10):
    """Compute the orbit-closure report (h, s, r) for translation by alpha."""
    coords, inverse = real_dual_coords(lattice, alpha)
    relations = relation_lattice(coords, height_bound, tol)
    g = lattice.g
    h = 2 * g - len(relations)
    s = g
    if relations:
        C = _complex_forms(inverse, relations, g)
        s -= _rank_with_band(_singular_values(C), tol)
    r = h - 2 * s
    if r < 0:
        raise NumericIndeterminacyError(
            "inconsistent (h, s): relation search and rank decision disagree")
    return OrbitReport(h=h, s=s, r=r, relations=tuple(relations),
                       dense=(h == 2 * g), totally_real=(s == 0),
                       height_bound=height_bound, tol=tol)

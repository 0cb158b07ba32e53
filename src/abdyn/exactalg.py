"""Exact integer linear algebra and polynomial arithmetic.

Everything here runs on arbitrary-precision Python integers (Fractions where a
division is unavoidable): characteristic polynomials, cyclotomic factor
extraction, unipotent indices and saturated kernel lattices.  These are the
carriers of the induced action on the first integral cohomology of a fiber,
so exactness is not negotiable; floating point appears only in
eigenvalue_moduli, which is explicitly numeric.

Two exact kernels carry the linear algebra.  Ranks, determinants,
positive-definiteness tests and rational linear solves (solve) all run one
fraction-free Gauss-Jordan elimination, _bareiss (Bareiss 1968), on
denominator-cleared integer rows.  Integral lattice questions run one
integral LLL, lll_reduce (Cohen, Alg. 2.6.7): kernel lattices, unimodular
completions (kernel_completion) and the gcd of maximal minors that decides
saturation (minor_gcd).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, lcm

import numpy as np

from .errors import ContractError, DimensionError, NumericIndeterminacyError


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class IntPolynomial:
    """Integer polynomial with coefficients ascending by degree.

    The zero polynomial is represented by an empty coefficient tuple; for
    everything else the leading coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (1,)

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPolynomial([other])
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "IntPolynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*T" if c != 1 else "T")
            else:
                terms.append(f"{c}*T^{i}" if c != 1 else f"T^{i}")
        return "IntPolynomial(" + " + ".join(reversed(terms)) + ")"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial([self[i] + other[i] for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial([self[i] - other[i] for i in range(n)])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    def __pow__(self, k):
        assert k >= 0
        out = IntPolynomial([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divmod_monic(self, divisor):
        """Exact division with remainder by a monic integer polynomial.

        Quotient and remainder stay integral because the divisor is monic.
        """
        if not divisor.is_monic():
            raise ContractError("divisor must be monic")
        rem = list(self.coeffs)
        d = divisor.degree
        if len(rem) - 1 < d:
            return IntPolynomial([]), IntPolynomial(rem)
        quot = [0] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            quot[i - d] = c
            for j in range(d + 1):
                rem[i - d + j] -= c * divisor.coeffs[j]
        return IntPolynomial(quot), IntPolynomial(rem)

    def divides(self, other):
        """True iff self (monic) divides other exactly."""
        _, r = other.divmod_monic(self)
        return r.is_zero()

    def eval_matrix(self, M):
        """Evaluate at a square IntMatrix (Horner)."""
        n = M.rows
        acc = IntMatrix.zero(n, n)
        for c in reversed(self.coeffs):
            acc = acc @ M + IntMatrix.identity(n) * c
        return acc

    def float_coeffs_descending(self):
        return [float(c) for c in reversed(self.coeffs)]


ONE = IntPolynomial([1])


@lru_cache(maxsize=None)
def cyclotomic(m):
    """The m-th cyclotomic polynomial, by the classical recursive division
    Phi_m = (x^m - 1) / prod_{d | m, d < m} Phi_d."""
    assert m >= 1
    num = IntPolynomial([-1] + [0] * (m - 1) + [1])  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            q, r = num.divmod_monic(cyclotomic(d))
            assert r.is_zero()
            num = q
    return num


def _totient(m):
    result = m
    p = 2
    mm = m
    while p * p <= mm:
        if mm % p == 0:
            while mm % p == 0:
                mm //= p
            result -= result // p
        p += 1
    if mm > 1:
        result -= result // mm
    return result


@lru_cache(maxsize=None)
def cyclotomic_orders(max_degree):
    """All m with phi(m) <= max_degree (phi(m) >= sqrt(m/2) bounds the scan)."""
    if max_degree < 1:
        return ()
    bound = 2 * max_degree * max_degree + 1
    return tuple(m for m in range(1, bound + 1) if _totient(m) <= max_degree)


def cyclotomic_split_with_orders(p):
    """Like cyclotomic_split but also reports {m: multiplicity} of the
    cyclotomic factors removed."""
    if not p.is_monic():
        raise ContractError("cyclotomic_split requires a monic polynomial")
    P = ONE
    Q = p
    orders = {}
    for m in cyclotomic_orders(p.degree):
        phi = cyclotomic(m)
        if phi.degree > Q.degree:
            continue
        while True:
            q, r = Q.divmod_monic(phi)
            if not r.is_zero():
                break
            Q = q
            P = P * phi
            orders[m] = orders.get(m, 0) + 1
            if Q.degree < phi.degree:
                break
    return P, Q, orders


def cyclotomic_split(p):
    """Factor p = P * Q with P the full cyclotomic part (with multiplicity)
    and Q cyclotomic-free.  Exact integer arithmetic throughout."""
    P, Q, _ = cyclotomic_split_with_orders(p)
    return P, Q


def is_cyclotomic_free(p):
    """True iff no cyclotomic polynomial divides p."""
    P, _ = cyclotomic_split(p)
    return P.is_one()


def kronecker_is_roots_of_unity(p):
    """True iff every root of the monic integer polynomial p is a root of
    unity.  By Kronecker's theorem (nonzero constant term, all roots on the
    closed unit disk <=> roots of unity) this is equivalent to the cyclotomic
    part exhausting p."""
    if not p.is_monic():
        raise ContractError("expected a monic polynomial")
    if p.coeffs[0] == 0:
        raise ContractError("zero constant term: 0 is a root, not a root of unity")
    _, Q = cyclotomic_split(p)
    return Q.is_one()


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class IntMatrix:
    """Dense integer matrix, row-major, arbitrary precision."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(int(e) for e in entries)
        if rows * cols != len(entries):
            raise DimensionError("rows*cols != len(entries)")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @staticmethod
    def from_rows(rows_of_entries):
        rows = len(rows_of_entries)
        cols = len(rows_of_entries[0]) if rows else 0
        if any(len(r) != cols for r in rows_of_entries):
            raise DimensionError("ragged rows")
        return IntMatrix(rows, cols, [e for r in rows_of_entries for e in r])

    @staticmethod
    def identity(n):
        return IntMatrix(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @staticmethod
    def zero(rows, cols):
        return IntMatrix(rows, cols, [0] * (rows * cols))

    @staticmethod
    def block_diag(*blocks):
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        out = [[0] * m for _ in range(n)]
        i0 = j0 = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    out[i0 + i][j0 + j] = b[i, j]
            i0 += b.rows
            j0 += b.cols
        return IntMatrix.from_rows(out)

    @staticmethod
    def companion(p):
        """Companion matrix of a monic polynomial."""
        if not p.is_monic() or p.degree < 1:
            raise ContractError("companion matrix needs a monic polynomial of degree >= 1")
        n = p.degree
        rows = [[0] * n for _ in range(n)]
        for i in range(1, n):
            rows[i][i - 1] = 1
        for i in range(n):
            rows[i][n - 1] = -p.coeffs[i]
        return IntMatrix.from_rows(rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({self.to_rows()})"

    def is_square(self):
        return self.rows == self.cols

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in addition")
        return IntMatrix(self.rows, self.cols,
                         [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in subtraction")
        return IntMatrix(self.rows, self.cols,
                         [a - b for a, b in zip(self.entries, other.entries)])

    def __mul__(self, scalar):
        return IntMatrix(self.rows, self.cols, [e * scalar for e in self.entries])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise DimensionError("inner dimension mismatch")
        a, b = self.to_rows(), other.to_rows()
        out = []
        for i in range(self.rows):
            ai = a[i]
            for j in range(other.cols):
                out.append(sum(ai[k] * b[k][j] for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, out)

    def mat_vec(self, v):
        if self.cols != len(v):
            raise DimensionError("vector length mismatch")
        return tuple(sum(self[i, k] * v[k] for k in range(self.cols))
                     for i in range(self.rows))

    def __pow__(self, k):
        if not self.is_square():
            raise DimensionError("power of non-square matrix")
        assert k >= 0
        out = IntMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         [self[i, j] for j in range(self.cols) for i in range(self.rows)])

    def trace(self):
        if not self.is_square():
            raise DimensionError("trace of non-square matrix")
        return sum(self[i, i] for i in range(self.rows))

    def det(self):
        """Determinant by fraction-free Bareiss elimination."""
        if not self.is_square():
            raise DimensionError("determinant of non-square matrix")
        pivots, d = _bareiss(self.to_rows(), self.cols)
        return d if len(pivots) == self.rows else 0

    def rank(self):
        """Exact rank over Q (fraction-free Bareiss elimination)."""
        pivots, _ = _bareiss(self.to_rows(), self.cols)
        return len(pivots)

    def to_numpy(self):
        return np.array(self.to_rows(), dtype=float)


def _bareiss(a, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of the integer
    rows a, in place, over their first ncols columns; later columns (right-
    hand sides) are carried along.  Returns (pivot columns, d).

    Every step divides exactly by the previous pivot, so all entries stay
    integral and bounded by minors of the input.  A row exchange also
    negates the row moved down, which keeps the determinant: for a square a
    of full rank d = det(a).  On return, pivot row i holds d in its pivot
    column and 0 in the other pivot columns, and the rows below the pivots
    are zero in the first ncols columns."""
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], [-x for x in a[r]]
        pr = a[r]
        piv = pr[c]
        for i, row in enumerate(a):
            f = row[c]
            if i != r and (f or piv != prev):
                a[i] = [(piv * x - f * y) // prev for x, y in zip(row, pr)]
        pivots.append(c)
        prev = piv
    return pivots, prev


LLL_DELTA = Fraction(99, 100)  # the Lovasz constant of lll_reduce


def lll_reduce(rows):
    """LLL reduction of linearly independent integer row vectors; returns
    the reduced rows.

    Integral LLL (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.6.7): it keeps the Gram determinants d_i of the first i rows and
    the integers lam[i][j] = mu_ij * d_{j+1}, and updates both in place with
    exact integer divisions.  Row k is size-reduced against rows k-1..0
    (nearest integer, ties to even) before the Lovasz test
    d_{k+1} d_{k-1} + lam[k][k-1]^2 >= LLL_DELTA d_k^2.

    Raises ContractError if the rows are linearly dependent (some d_i = 0)."""
    b = [[int(x) for x in row] for row in rows]
    n = len(b)
    if n == 0:
        return []
    p, q_delta = LLL_DELTA.numerator, LLL_DELTA.denominator

    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(b[i], b[j]))
            for t in range(j):
                u = (d[t + 1] * u - lam[i][t] * lam[j][t]) // d[t]
            if j < i:
                lam[i][j] = u
            else:
                d[i + 1] = u
        if d[i + 1] == 0:
            raise ContractError("lll_reduce needs linearly independent rows")

    k = 1
    while k < n:
        # size reduction
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            if 2 * abs(lk[j]) <= d[j + 1]:
                continue
            q = round(Fraction(lk[j], d[j + 1]))  # ties to even
            b[k] = [x - q * y for x, y in zip(b[k], b[j])]
            lk[j] -= q * d[j + 1]
            lj = lam[j]
            for t in range(j):
                lk[t] -= q * lj[t]
        lkk = lk[k - 1]
        if q_delta * (d[k + 1] * d[k - 1] + lkk * lkk) >= p * d[k] * d[k]:
            k += 1
            continue
        # swap rows k-1 and k
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lk[j], lam[k - 1][j] = lam[k - 1][j], lk[j]
        B = (d[k - 1] * d[k + 1] + lkk * lkk) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lkk * t) // d[k]
            li[k - 1] = (B * t + lkk * li[k]) // d[k + 1]
        d[k] = B
        k = max(k - 1, 1)
    return b


def _cleared(row):
    """A row of integers and Fractions times the lcm of its denominators."""
    m = lcm(*(x.denominator for x in row))
    return [x.numerator * (m // x.denominator) for x in row]


def solve(A, *rhs):
    """Exact solutions of A x = b over Q for each right-hand side b.

    A is a list of m rows of n integers or Fractions (m >= n allowed).
    Returns one entry per b: the unique solution as a list of Fractions, or
    None when that system is inconsistent; every entry is None when A has
    rank below n."""
    n = len(A[0]) if A else 0
    a = [_cleared(list(row) + [b[i] for b in rhs]) for i, row in enumerate(A)]
    pivots, d = _bareiss(a, n)
    if len(pivots) < n:
        return [None] * len(rhs)
    return [None if any(row[n + k] for row in a[n:])
            else [Fraction(a[i][n + k], d) for i in range(n)]
            for k in range(len(rhs))]


def is_positive_definite(rows):
    """Sylvester's criterion for a symmetric matrix of integers or
    Fractions: every leading principal minor is positive.  Clearing each
    row's denominators scales the minors by positive factors only."""
    a = [_cleared(list(row)) for row in rows]
    return all(IntMatrix.from_rows([row[:k] for row in a[:k]]).det() > 0
               for k in range(1, len(a) + 1))


def char_poly(M):
    """Characteristic polynomial det(T*I - M), monic, exact.

    Computed by the Berkowitz algorithm: division-free, so arbitrary-precision
    integers survive untouched even after matrix powers blow the entries up.
    """
    if not M.is_square():
        raise DimensionError("char_poly requires a square matrix")
    vec = _berkowitz(M.to_rows())
    return IntPolynomial(list(reversed(vec)))


def _berkowitz(a):
    """Coefficients of det(T*I - A), descending, for a list-of-lists A."""
    n = len(a)
    if n == 0:
        return [1]
    if n == 1:
        return [1, -a[0][0]]
    sub = [row[1:] for row in a[1:]]
    prev = _berkowitz(sub)  # length n
    row0 = a[0][1:]
    col0 = [a[i][0] for i in range(1, n)]
    # items = [1, -a00, -(R C), -(R A' C), ..., -(R A'^{n-2} C)], length n+1
    items = [1, -a[0][0]]
    vec = col0
    for _ in range(n - 1):
        items.append(-sum(r * v for r, v in zip(row0, vec)))
        vec = [sum(sub[i][k] * vec[k] for k in range(n - 1)) for i in range(n - 1)]
    out = []
    for i in range(n + 1):
        s = 0
        for j in range(min(i, n - 1) + 1):
            if 0 <= i - j <= n:
                s += items[i - j] * prev[j]
        out.append(s)
    return out


def unipotent_index(M):
    """Smallest j >= 1 with (M - I)^j vanishing on the generalized eigenspace
    of the eigenvalue 1; returns 0 when 1 is not an eigenvalue."""
    if not M.is_square():
        raise DimensionError("unipotent_index requires a square matrix")
    n = M.rows
    if n == 0:
        return 0
    cp = char_poly(M)
    t_minus_1 = IntPolynomial([-1, 1])
    mult = 0
    while t_minus_1.divides(cp):
        cp, _ = cp.divmod_monic(t_minus_1)
        mult += 1
    if mult == 0:
        return 0
    # rank (M-I)^j drops to n - mult exactly when the nilpotent part on the
    # generalized 1-eigenspace is exhausted
    N = M - IntMatrix.identity(n)
    power = IntMatrix.identity(n)
    for j in range(1, mult + 1):
        power = power @ N
        if power.rank() == n - mult:
            return j
    raise AssertionError("rank stabilization failed")  # pragma: no cover


def quasi_unipotent_order(M):
    """Smallest n >= 1 with M^n unipotent, or None if the characteristic
    polynomial is not a product of cyclotomics."""
    if not M.is_square():
        raise DimensionError("quasi_unipotent_order requires a square matrix")
    if M.rows == 0:
        return 1
    if abs(M.det()) != 1:
        raise ContractError("expected det = +/-1")
    _, Q, orders = cyclotomic_split_with_orders(char_poly(M))
    if not Q.is_one():
        return None
    return lcm(*orders.keys()) if orders else 1


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

KERNEL_SCALE = 1 << 16  # first weight c of the kernel block in kernel_completion


def kernel_completion(K):
    """(T, k) for an m x n IntMatrix K: T is a unimodular n x n integer
    matrix, as a list of rows, whose first k = n - rank K rows span the
    kernel lattice Z^n intersect ker K.

    LLL reduction of the rows [c K^T | I] gives rows [c T K^T | T] with T
    unimodular (Havas, Majewski & Matthews, Exp. Math. 7, 1998; Cohen, A
    Course in Computational Algebraic Number Theory, 2.7).  The rows with a
    zero left block must number n - rank K (rank from _bareiss); c is
    squared until they do.  Being rows of a unimodular matrix, they span a
    saturated lattice, so all of Z^n intersect ker K.  The other rows
    follow in their reduced order."""
    n = K.cols
    k = n - K.rank()
    T = IntMatrix.identity(n).to_rows()
    if k in (0, n):
        return T, k
    m = K.rows
    cols = K.transpose().to_rows()
    c = KERNEL_SCALE
    while True:
        reduced = lll_reduce([[c * x for x in col] + e for col, e in zip(cols, T)])
        kernel = [r[m:] for r in reduced if not any(r[:m])]
        if len(kernel) == k:
            return kernel + [r[m:] for r in reduced if any(r[:m])], k
        c *= c


def minor_gcd(rows):
    """The gcd of the maximal minors of the k x m integer matrix A with the
    given rows (1 for k = 0): 0 exactly when the rows are dependent, 1
    exactly when they extend to a basis of Z^m, and otherwise the index of
    their span in its saturation.

    The rows _bareiss reduces to are d A_P^-1 A, all maximal minors by
    Cramer's rule; if their gcd is 1 it is the answer.  Otherwise, with
    (T, m - k) = kernel_completion(A) and R the rows of T after the kernel
    rows, A T^T = [0 | A R^T], and the unimodular T^T keeps the gcd of the
    maximal minors (Cauchy-Binet): it is |det(A R^T)|."""
    if not rows:
        return 1
    A = IntMatrix.from_rows([list(r) for r in rows])
    a = A.to_rows()
    pivots, _ = _bareiss(a, A.cols)
    if len(pivots) < A.rows:
        return 0
    if gcd(*(x for row in a for x in row)) == 1:
        return 1
    T, k = kernel_completion(A)
    return abs((A @ IntMatrix.from_rows(T[k:]).transpose()).det())


@dataclass(frozen=True)
class Sublattice:
    """A sublattice of Z^ambient_rank given by a basis of integer vectors."""
    ambient_rank: int
    basis: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(tuple(int(x) for x in v) for v in self.basis))
        for v in self.basis:
            if len(v) != self.ambient_rank:
                raise DimensionError("basis vector length != ambient rank")
        if self.basis:
            m = IntMatrix.from_rows(list(self.basis))
            if m.rank() != len(self.basis):
                raise ContractError("basis vectors are linearly dependent")

    @property
    def rank(self):
        return len(self.basis)

    def check_saturated(self):
        """Saturation <=> torsion-free quotient <=> the maximal minors of
        the basis have gcd 1."""
        return minor_gcd(self.basis) == 1


def kernel_lattice(p, M):
    """The saturated sublattice Z^n intersect ker p(M): the kernel rows of
    kernel_completion(p(M))."""
    if not M.is_square():
        raise DimensionError("kernel_lattice requires a square matrix")
    T, k = kernel_completion(p.eval_matrix(M))
    return Sublattice(ambient_rank=M.rows, basis=tuple(T[:k]))


# ---------------------------------------------------------------------------
# numeric eigenvalue moduli
# ---------------------------------------------------------------------------

def _frac_poly_divmod(a, b):
    """Division with remainder for coefficient lists of Fractions (ascending)."""
    from fractions import Fraction
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    quot = [Fraction(0)] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] / lead
        if c == 0:
            continue
        quot[i - db] = c
        for j in range(db + 1):
            a[i - db + j] -= c * b[j]
    while a and a[-1] == 0:
        a.pop()
    return quot, a


def poly_gcd(p, q):
    """Monic gcd over Q of two integer polynomials; the result is an
    IntPolynomial (monic rational factors of a monic integer polynomial are
    integral by Gauss's lemma)."""
    from fractions import Fraction
    a = [Fraction(c) for c in p.coeffs]
    b = [Fraction(c) for c in q.coeffs]
    while b:
        _, r = _frac_poly_divmod(a, b)
        a, b = b, r
    if not a:
        return IntPolynomial([])
    a = [c / a[-1] for c in a]
    if any(c.denominator != 1 for c in a):  # pragma: no cover
        raise AssertionError("gcd of monic integer polynomials must be integral")
    return IntPolynomial([int(c) for c in a])


def squarefree_decomposition(p):
    """Yun's algorithm: p = prod f_i^i with the f_i squarefree and coprime;
    returns [(f_i, i)] for the nontrivial factors."""
    if not p.is_monic() or p.degree < 1:
        raise ContractError("squarefree decomposition needs monic degree >= 1")
    dp = IntPolynomial([i * c for i, c in enumerate(p.coeffs)][1:])
    g = poly_gcd(p, dp)
    if g.degree == 0:
        return [(p, 1)]
    w, rem = p.divmod_monic(g)
    assert rem.is_zero()
    out = []
    i = 1
    while w.degree >= 1:
        y = poly_gcd(w, g)
        fac, rem = w.divmod_monic(y)
        assert rem.is_zero()
        if fac.degree >= 1:
            out.append((fac, i))
        g, rem = g.divmod_monic(y)
        assert rem.is_zero()
        w = y
        i += 1
    assert g.degree == 0
    return out


def eigenvalue_moduli(p, tol=1e-9, split=None):
    """Descending list of (modulus, multiplicity) for the roots of p.

    The cyclotomic part is stripped first and contributes an exact modulus 1;
    the cyclotomic-free part is handled numerically, with moduli grouped when
    within tol of each other (Salem polynomials have genuinely equal moduli
    that the numerics must not split).  A caller that already holds the
    (P, Q) of cyclotomic_split(p) passes it as split."""
    if not p.is_monic() or p.degree < 1:
        raise ContractError("eigenvalue_moduli requires a monic polynomial of degree >= 1")
    if not 0 < tol < inf:  # also false for nan
        raise ContractError("tol must be positive and finite")
    P, Q = split if split is not None else cyclotomic_split(p)
    groups = []  # list of [modulus, multiplicity]
    if Q.degree >= 1:
        # exact squarefree decomposition first: the root finder only ever
        # sees simple roots, so repeated factors cannot scatter numerically
        moduli = []
        for factor, mult in squarefree_decomposition(Q):
            with np.errstate(all="raise"):
                try:
                    roots = np.roots(factor.float_coeffs_descending())
                except FloatingPointError as exc:  # pragma: no cover
                    raise NumericIndeterminacyError(f"root finder failed: {exc}") from exc
            if not np.all(np.isfinite(roots)):  # pragma: no cover
                raise NumericIndeterminacyError("root finder returned non-finite roots")
            moduli.extend((abs(z), mult) for z in roots)
        for mod, mult in sorted(moduli, reverse=True):
            for grp in groups:
                if abs(grp[0] - mod) <= tol * max(1.0, abs(grp[0])):
                    grp[1] += mult
                    break
            else:
                groups.append([float(mod), mult])
    if P.degree >= 1:
        for grp in groups:
            if abs(grp[0] - 1.0) <= tol:
                grp[0] = 1.0
                grp[1] += P.degree
                break
        else:
            groups.append([1.0, P.degree])
    groups.sort(key=lambda g: -g[0])
    assert sum(g[1] for g in groups) == p.degree
    return [(g[0], g[1]) for g in groups]

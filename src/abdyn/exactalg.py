"""Exact integer linear algebra and polynomial arithmetic.

Everything here runs on arbitrary-precision Python integers: characteristic
polynomials, cyclotomic factor extraction, polynomial gcds and saturated
kernel lattices.  These carry the induced action on the first integral
cohomology of a fiber, so exactness is not negotiable.  A Fraction remains
only in LLL_DELTA; a matrix of ints and Fractions is read exactly through
one clearing, _cleared, to integer rows over the lcm of all its
denominators (is_positive_definite and toroidal.face_set).  Floating point
appears only in eigenvalue_moduli, which imports numpy when it finds roots.

Two exact kernels carry the linear algebra.  Ranks, determinants, the
coordinate solve of orbit.real_dual_coords (on its floats' integer ratios),
the maximal minors of minor_gcd, the echelon rows of kernel_completion and
the left null space of image_lattice all run one fraction-free Gauss-Jordan
elimination, _bareiss (Bareiss 1968), on denominator-cleared integer row
lists, with row exchanges.  The one Bareiss loop without them,
_definite_adjugate, runs over [A | I], so its pivots are the leading
principal minors: it gives toroidal.GammaData the definiteness, det B' and
adj(B') of B' in one pass, and is_positive_definite is its verdict.  Lattice
questions run one integral LLL, lll_reduce (Cohen, Alg. 2.6.7), held to its
proven swap bound: unimodular completions of echelon rows (_completion: of
K's for kernel lattices, and of the left null space of K, which comes in
echelon form, for image_lattice), and the gcd of maximal minors when the
reduced entries have a common factor.  Dense products (matrix products and
powers, Horner evaluation at a matrix, matrix-vector products and the
Berkowitz steps) all run one inner-product kernel, _mat_mul, on plain rows
and columns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, isqrt, lcm, prod
from operator import add, mul, sub

from .errors import ContractError, DimensionError, NumericIndeterminacyError

# Decimal digits of the longest integer on the wire: the bound of the integer
# schema, and Python's default limit on int-string conversion (3.11 on)
MAX_INT_DIGITS = 4300
INT_BOUND = 10 ** MAX_INT_DIGITS  # an integer is written when |x| < INT_BOUND

# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class IntPolynomial:
    """Integer polynomial with coefficients ascending by degree.

    The zero polynomial is represented by an empty coefficient tuple; for
    everything else the leading coefficient is nonzero.
    """

    __slots__ = ("coeffs", "_split")  # _split: see cyclotomic_split

    def __init__(self, coeffs):
        self.coeffs = IntPolynomial._of([int(c) for c in coeffs]).coeffs

    @staticmethod
    def _of(cs):
        """From a list of ints (internal results): no conversion, and the
        trailing zeros are popped in place."""
        while cs and cs[-1] == 0:
            cs.pop()
        p = object.__new__(IntPolynomial)
        p.coeffs = tuple(cs)
        return p

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
        return IntPolynomial._of([self[i] + other[i] for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial._of([self[i] - other[i] for i in range(n)])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial._of([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return IntPolynomial._of([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial._of(out)

    def __pow__(self, k):
        assert k >= 0
        out = self if k else ONE
        for bit in bin(k)[3:]:  # left to right, after the leading 1
            out = out * out
            if bit == "1":
                out = out * self
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
            return IntPolynomial._of([]), IntPolynomial._of(rem)
        quot = [0] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            quot[i - d] = c
            for j in range(d + 1):
                rem[i - d + j] -= c * divisor.coeffs[j]
        return IntPolynomial._of(quot), IntPolynomial._of(rem)

    def eval_matrix(self, M):
        """Evaluate at a square IntMatrix: Horner on a list of rows from
        lead * M, each later coefficient added on the diagonal in place, so
        a degree-d polynomial costs d - 1 matrix products."""
        n, cs = M.rows, self.coeffs[::-1]
        cols = M._columns()
        acc = [cs[0] * x for x in M.entries] if len(cs) > 1 else [0] * (n * n)
        for k, c in enumerate(cs[len(cs) > 1:]):
            if k:
                acc = _mat_mul([acc[i * n:(i + 1) * n] for i in range(n)], cols)
            for i in range(0, n * n, n + 1):
                acc[i] += c
        return IntMatrix._of(n, n, acc)


ONE = IntPolynomial([1])


def _substitute(p, k):
    """p(x^k)."""
    cs = [0] * (k * p.degree + 1)
    cs[::k] = p.coeffs
    return IntPolynomial._of(cs)


@lru_cache(maxsize=None)
def cyclotomic(m):
    """The m-th cyclotomic polynomial.  With rad(m) the product of the
    primes dividing m, Phi_m(x) = Phi_rad(m)(x^(m / rad m)), and for a
    squarefree m = n p with p prime, Phi_m(x) = Phi_n(x^p) / Phi_n(x)."""
    assert m >= 1
    if m == 1:
        return IntPolynomial._of([-1, 1])
    primes, rest, p = [], m, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    rad = prod(primes)
    if rad != m:
        return _substitute(cyclotomic(rad), m // rad)
    n = m // primes[-1]
    q, r = _substitute(cyclotomic(n), primes[-1]).divmod_monic(cyclotomic(n))
    assert r.is_zero()
    return q


@lru_cache(maxsize=None)
def cyclotomic_orders(max_degree):
    """All (m, phi(m)) with phi(m) <= max_degree, ascending in m.  phi is
    multiplicative with phi(p^k) = p^(k-1) (p - 1), so each such m is a
    product of prime powers whose phis multiply to at most max_degree, and
    its primes have p - 1 <= max_degree: one sieve of the primes up to
    max_degree + 1 gives them all."""
    if max_degree < 1:
        return ()
    top = max_degree + 1
    sieve = bytearray([1]) * (top + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(top) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, top + 1, p)))
    primes = [p for p in range(2, top + 1) if sieve[p]]
    found = [(1, 1)]

    def extend(start, m, phi):
        for i in range(start, len(primes)):
            p = primes[i]
            m_p, phi_p = m * p, phi * (p - 1)
            if phi_p > max_degree:
                return  # and so for every later, larger prime
            while phi_p <= max_degree:
                found.append((m_p, phi_p))
                extend(i + 1, m_p, phi_p)
                m_p, phi_p = m_p * p, phi_p * p

    extend(0, 1, 1)
    return tuple(sorted(found))


def _values(p):
    """(p(2), p(3)) for an integer polynomial p, by Horner."""
    at2 = at3 = 0
    for c in reversed(p.coeffs):
        at2, at3 = 2 * at2 + c, 3 * at3 + c
    return at2, at3


@lru_cache(maxsize=None)
def _cyclotomic_values(m):
    """(Phi_m(2), Phi_m(3)), both positive."""
    return _values(cyclotomic(m))


def cyclotomic_split(p):
    """(P, Q, orders): p = P * Q with P the full cyclotomic part (with
    multiplicity) and Q cyclotomic-free, and {m: multiplicity} of the
    cyclotomic factors Phi_m removed, in ascending m; p is cyclotomic-free
    exactly when P is 1.  Exact integer arithmetic throughout.  Phi_m
    divides Q in Z[x] only if Phi_m(a) divides Q(a) for every integer a: at
    a = 2 and 3 this rules out most m with no polynomial division.  It is
    computed once per object and kept on p, for every consumer of p (who
    must not mutate the orders)."""
    if getattr(p, "_split", None) is not None:
        return p._split
    if not p.is_monic():
        raise ContractError("cyclotomic_split requires a monic polynomial")
    Q, (at2, at3) = p, _values(p)
    orders = {}
    for m, phi_m in cyclotomic_orders(p.degree):
        if Q.degree < 1:
            break
        if phi_m > Q.degree:
            continue
        c2, c3 = _cyclotomic_values(m)
        while at2 % c2 == 0 and at3 % c3 == 0:
            q, r = Q.divmod_monic(cyclotomic(m))
            if not r.is_zero():
                break
            Q, at2, at3 = q, at2 // c2, at3 // c3
            orders[m] = orders.get(m, 0) + 1
            if Q.degree < phi_m:
                break
    p._split = p.divmod_monic(Q)[0], Q, orders
    return p._split


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class IntMatrix:
    """Dense integer matrix, row-major, arbitrary precision."""

    __slots__ = ("rows", "cols", "entries", "_char_poly")  # _char_poly: see char_poly

    def __init__(self, rows, cols, entries):
        entries = tuple(int(e) for e in entries)
        if rows * cols != len(entries):
            raise DimensionError("rows*cols != len(entries)")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @staticmethod
    def _of(rows, cols, entries):
        """From row-major ints (internal results): no conversion or check."""
        m = object.__new__(IntMatrix)
        m.rows, m.cols, m.entries = rows, cols, tuple(entries)
        return m

    @staticmethod
    def from_rows(rows_of_entries):
        rows = len(rows_of_entries)
        cols = len(rows_of_entries[0]) if rows else 0
        if any(len(r) != cols for r in rows_of_entries):
            raise DimensionError("ragged rows")
        return IntMatrix(rows, cols, [e for r in rows_of_entries for e in r])

    @staticmethod
    def identity(n):
        return IntMatrix._of(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @staticmethod
    def block_diag(*blocks):
        m = sum(b.cols for b in blocks)
        rows, j0 = [], 0
        for b in blocks:
            rows += [[0] * j0 + list(r) + [0] * (m - j0 - b.cols) for r in b._rows()]
            j0 += b.cols
        return IntMatrix.from_rows(rows)

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

    def _rows(self):
        c = self.cols
        return [self.entries[i * c:(i + 1) * c] for i in range(self.rows)]

    def _columns(self):
        return [self.entries[j::self.cols] for j in range(self.cols)]

    def to_rows(self):
        return list(map(list, self._rows()))

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
        return IntMatrix._of(self.rows, self.cols, map(add, self.entries, other.entries))

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in subtraction")
        return IntMatrix._of(self.rows, self.cols, map(sub, self.entries, other.entries))

    def __mul__(self, scalar):
        return IntMatrix(self.rows, self.cols, [e * scalar for e in self.entries])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise DimensionError("inner dimension mismatch")
        return IntMatrix._of(self.rows, other.cols, _mat_mul(self._rows(), other._columns()))

    def __pow__(self, k):
        if not self.is_square():
            raise DimensionError("power of non-square matrix")
        assert k >= 0
        out = self if k else IntMatrix.identity(self.rows)
        for bit in bin(k)[3:]:  # left to right, after the leading 1
            out = out @ out
            if bit == "1":
                out = out @ self
        return out

    def transpose(self):
        return IntMatrix._of(self.cols, self.rows, [x for c in self._columns() for x in c])

    def det(self):
        """Determinant by fraction-free Bareiss elimination."""
        if not self.is_square():
            raise DimensionError("determinant of non-square matrix")
        pivots, d = _bareiss(self._rows(), self.cols)
        return d if len(pivots) == self.rows else 0

    def rank(self):
        """Exact rank over Q (fraction-free Bareiss elimination)."""
        pivots, _ = _bareiss(self._rows(), self.cols)
        return len(pivots)


def _mat_mul(rows, cols):
    """The inner product of each row with each column, row-major: the
    entries of a product, given its left factor's rows and its right
    factor's columns as sequences of ints."""
    return [sum(map(mul, r, c)) for r in rows for c in cols]


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

    Integral LLL as published (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.6.7): it keeps the Gram determinants d_i of the
    first i rows and the integers lam[k][j] = mu_kj * d_{j+1}, computes those
    of row k when k first reaches it (k_max), and updates both in place with
    exact integer divisions.  Row 0 is reached once, for its Gram data.  A
    step at row k >= 1 size-reduces it against row k-1 (the nearest integer
    to lam[k][k-1] / d_k, ties to even, from one divmod) and makes the
    Lovasz test d_{k+1} d_{k-1} + lam[k][k-1]^2 >= LLL_DELTA d_k^2: if it
    fails, rows k-1 and k swap and the rows up to k_max are updated, and if
    it passes, row k is size-reduced against rows k-2..0.

    A swap lowers the product of the d_i reached by a factor below
    LLL_DELTA = 99/100, and a first reach raises it by d_{k+1} >= 1, so the
    swaps stay below 70 (> ln 2 / ln(100/99)) times the sum of the d_{k+1}'s
    bit lengths; past that an AssertionError (an internal fault) is raised.

    Raises ContractError if the rows are linearly dependent (some d_i = 0)."""
    b = [[int(x) for x in row] for row in rows]
    n = len(b)
    p, q_delta = LLL_DELTA.numerator, LLL_DELTA.denominator
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    k, k_max, swaps_left = 0, -1, 0
    while k < n:
        lk = lam[k]
        if k > k_max:  # the Gram-Schmidt data of row k, first reached
            k_max = k
            bk = b[k]
            for j in range(k + 1):
                lj = lam[j]
                u = sum(map(mul, bk, b[j]))
                for t in range(j):
                    u = (d[t + 1] * u - lk[t] * lj[t]) // d[t]
                lk[j] = u
            d[k + 1] = lk[k]
            if not lk[k]:
                raise ContractError("lll_reduce needs linearly independent rows")
            swaps_left += 70 * lk[k].bit_length()
            if not k:
                k = 1
                continue
        dk, lkk, lm = d[k], lk[k - 1], lam[k - 1]
        if 2 * abs(lkk) > dk:
            # floor(lkk / dk + 1/2), less 1 on an odd tie
            q, r = divmod(2 * lkk + dk, 2 * dk)
            if not r and q & 1:
                q -= 1
            b[k] = list(map(sub, b[k], map(q.__mul__, b[k - 1])))
            lk[k - 1] = lkk = lkk - q * dk
            for t in range(k - 1):
                lk[t] -= q * lm[t]
        dk1 = d[k + 1]
        g = dk1 * d[k - 1] + lkk * lkk  # d_k times the new d_k of a swap
        if q_delta * g < p * dk * dk:
            # the Lovasz test fails: swap rows k-1 and k
            swaps_left -= 1
            if not swaps_left:
                raise AssertionError("lll_reduce passed its proven swap bound")
            b[k], b[k - 1] = b[k - 1], b[k]
            for t in range(k - 1):
                lk[t], lm[t] = lm[t], lk[t]
            B = g // dk
            for li in lam[k + 1:k_max + 1]:
                t = li[k]
                li[k] = (dk1 * li[k - 1] - lkk * t) // dk
                li[k - 1] = (B * t + lkk * li[k]) // dk1
            d[k] = B
            k -= k > 1  # k = max(k - 1, 1)
            continue
        for j in range(k - 2, -1, -1):
            dj, lkj = d[j + 1], lk[j]
            if 2 * abs(lkj) > dj:
                q, r = divmod(2 * lkj + dj, 2 * dj)
                if not r and q & 1:
                    q -= 1
                b[k] = list(map(sub, b[k], map(q.__mul__, b[j])))
                lk[j] = lkj - q * dj
                for t in range(j):
                    lk[t] -= q * lam[j][t]
        k += 1
    return b


def _cleared(rows):
    """The rows of ints and Fractions times the lcm of all their
    denominators: integer rows, a positive multiple of the matrix."""
    D = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (D // x.denominator) for x in row] for row in rows]


def _definite_adjugate(rows):
    """(det A, the rows of adj(A)) for the integer rows of a square A whose
    leading principal minors, the pivots of a Bareiss pass over [A | I] with
    no row exchange, are all positive; else None."""
    n = len(rows)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for c in range(n):
        pr = a[c]
        piv = pr[c]
        if piv <= 0:
            return None
        for i, row in enumerate(a):
            f = row[c]
            if i != c and (f or piv != prev):
                a[i] = [(piv * x - f * y) // prev for x, y in zip(row, pr)]
        prev = piv
    return prev, [row[n:] for row in a]


def is_positive_definite(rows):
    """Sylvester's criterion for a symmetric matrix of integers or
    Fractions: every leading principal minor is positive, the verdict of
    _definite_adjugate on the rows _cleared, which scales the minors by
    positive factors only."""
    return _definite_adjugate(_cleared(rows)) is not None


def char_poly(M):
    """Characteristic polynomial det(T*I - M), monic, exact.

    Computed by the Berkowitz algorithm: division-free, so arbitrary-precision
    integers survive untouched even after matrix powers blow the entries up.
    It runs once per matrix object, and the result is kept on M.
    """
    if not M.is_square():
        raise DimensionError("char_poly requires a square matrix")
    if getattr(M, "_char_poly", None) is None:
        M._char_poly = IntPolynomial._of(_berkowitz(M._rows())[::-1])
    return M._char_poly


def char_poly_split(M):
    """(cp, P, Q, orders): the characteristic polynomial of the square
    matrix M and its cyclotomic_split, each kept on its object
    (M, cp), so a second call on M computes nothing."""
    cp = char_poly(M)
    return (cp, *cyclotomic_split(cp))


def _berkowitz(a):
    """Coefficients of det(T*I - A), descending, for a list-of-lists A: for
    each trailing block [[a_ii, R], [C, A']] of size m, from the last up,
    the Toeplitz product of [1, -a_ii, -(R C), -(R A' C), ..,
    -(R A'^(m-2) C)] with the coefficients of A'."""
    n = len(a)
    poly = [1]
    for i in range(n - 1, -1, -1):
        rest = [row[i + 1:] for row in a[i + 1:]]
        row0 = a[i][i + 1:]
        vec = [row[i] for row in a[i + 1:]]
        items = [1, -a[i][i]]
        for t in range(n - 1 - i):
            if t:  # A'^t C from A'^(t-1) C; none is made after the last
                vec = _mat_mul(rest, (vec,))
            items.append(-sum(map(mul, row0, vec)))
        # the Toeplitz product: out[j] = sum_t items[j - t] poly[t]
        poly = [sum(map(mul, items[j::-1], poly)) for j in range(len(poly) + 1)]
    return poly


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

KERNEL_SCALE = 1 << 16  # first weight c of the kernel block in _completion


def kernel_completion(K):
    """(T, k) for an m x n IntMatrix K: T is a unimodular n x n integer
    matrix, as a list of rows, whose first k = n - rank K rows span the
    kernel lattice Z^n intersect ker K.

    One _bareiss pass gives rank K and the echelon rows for _completion:
    its rank K nonzero rows, with K's row space over Q."""
    n = K.cols
    a = K._rows()
    return _completion(a[:len(_bareiss(a, n)[0])], n)


def _completion(rows, n):
    """(T, k) of kernel_completion, from the r rows of K's reduced echelon
    form up to row scales: LLL reduction of the rows [c E^T | I], of length
    r + n, with E the rows over their contents, gives rows [c T E^T | T]
    with T unimodular (Havas, Majewski & Matthews, Exp. Math. 7, 1998;
    Cohen, A Course in Computational Algebraic Number Theory, 2.7).  The
    k = n - r rows with a zero left block come first; c is squared until
    there are k.  As rows of a unimodular T they span a saturated lattice:
    all of Z^n intersect ker E = Z^n intersect ker K.  The others keep LLL
    order.  E is K's primitive reduced echelon form up to row signs, which
    leave every LLL step unchanged: T depends on the row space of K alone."""
    r = len(rows)
    k = n - r
    T = IntMatrix.identity(n).to_rows()
    if k in (0, n):
        return T, k
    cols = list(zip(*([x // g for x in row] for row in rows for g in [gcd(*row)])))
    c = KERNEL_SCALE
    while True:
        reduced = lll_reduce([[c * x for x in col] + e for col, e in zip(cols, T)])
        kernel = [v[r:] for v in reduced if not any(v[:r])]
        if len(kernel) == k:
            return kernel + [v[r:] for v in reduced if any(v[:r])], k
        c *= c


def minor_gcd(rows):
    """The gcd of the maximal minors of the k x m integer matrix A with the
    given rows (1 for k = 0): 0 exactly when the rows are dependent, 1
    exactly when they extend to a basis of Z^m, and otherwise the index of
    their span in its saturation.

    The row lists _bareiss reduces to are d A_P^-1 A, all maximal minors by
    Cramer's rule; if their gcd is 1 it is the answer.  Otherwise (the only
    branch that builds an IntMatrix), with (T, m - k) = kernel_completion(A)
    and R the rows of T after the kernel rows, A T^T = [0 | A R^T], and the
    unimodular T^T keeps the gcd of the maximal minors (Cauchy-Binet): it is
    |det(A R^T)|."""
    if not rows:
        return 1
    a = [list(r) for r in rows]
    if len({len(r) for r in a}) > 1:
        raise DimensionError("ragged rows")
    pivots, _ = _bareiss(a, len(a[0]))
    if len(pivots) < len(a):
        return 0
    if gcd(*(x for row in a for x in row)) == 1:
        return 1
    A = IntMatrix.from_rows(rows)
    T, k = kernel_completion(A)
    return abs((A @ IntMatrix.from_rows(T[k:]).transpose()).det())


def image_lattice(K):
    """A basis of Z^n intersect im K for an n x m IntMatrix K, as a tuple of
    row tuples: the kernel rows of the _completion of K's left null space,
    from one _bareiss pass on K's columns, reversed so that pivots are taken
    right to left.  The null row of each free column f then has d at f and
    0 at the other free columns and before f: by ascending f, the rows are
    the null space's reduced echelon form, scaled."""
    n = K.rows
    a = [col[::-1] for col in K._columns()]
    pivots, d = _bareiss(a, n)
    rows = dict(zip(pivots, a))
    N = [[-rows[j][f] if j in rows else d * (j == f) for j in range(n - 1, -1, -1)]
         for f in range(n - 1, -1, -1) if f not in rows]
    T, k = _completion(N, n)
    return tuple(map(tuple, T[:k]))


# ---------------------------------------------------------------------------
# numeric eigenvalue moduli
# ---------------------------------------------------------------------------

def _primitive(cs):
    """The coefficient list cs over its content, leading coefficient > 0."""
    g = gcd(*cs) if cs and cs[-1] > 0 else -gcd(*cs)
    return [c // g for c in cs]


def poly_gcd(p, q):
    """The gcd of two integer polynomials, primitive with a positive leading
    coefficient (0 when both are 0): their monic gcd over Q when one of them
    is monic (Gauss's lemma).  A primitive pseudo-remainder sequence in
    integers (Cohen, A Course in Computational Algebraic Number Theory, Alg.
    3.3.1); each step scales the dividend by lead(b) / gcd(lead(b), lead(a))."""
    a, b = _primitive(list(p.coeffs)), _primitive(list(q.coeffs))
    while b:
        while len(a) >= len(b):
            h = gcd(a[-1], b[-1])
            f, c, k = b[-1] // h, a[-1] // h, len(a) - len(b)
            a = [f * x for x in a[:k]] + [f * x - c * y for x, y in zip(a[k:], b)]
            while a and a[-1] == 0:
                a.pop()
        a, b = b, _primitive(a)
    return IntPolynomial._of(a)


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


def eigenvalue_moduli(p, tol=1e-9):
    """Descending list of (modulus, multiplicity) for the roots of p.

    The cyclotomic part is stripped first and contributes an exact modulus 1;
    the cyclotomic-free part is handled numerically, with moduli grouped when
    within tol of each other (Salem polynomials have genuinely equal moduli
    that the numerics must not split).  The split is the one kept on p
    (cyclotomic_split), so a caller that split p shares it."""
    if not p.is_monic() or p.degree < 1:
        raise ContractError("eigenvalue_moduli requires a monic polynomial of degree >= 1")
    if not 0 < tol < inf:  # also false for nan
        raise ContractError("tol must be positive and finite")
    P, Q, _ = cyclotomic_split(p)
    groups = []  # list of [modulus, multiplicity]
    if Q.degree >= 1:
        import numpy as np
        # exact squarefree decomposition first: the root finder only ever
        # sees simple roots, so repeated factors cannot scatter numerically
        moduli = []
        for factor, mult in squarefree_decomposition(Q):
            # numpy.roots without its wrapper, on the same companion matrix;
            # a squarefree factor has at most one zero root
            zeros = 0 if factor.coeffs[0] else 1
            try:
                row = [-float(c) for c in reversed(factor.coeffs[zeros:-1])]
            except OverflowError:  # from float() of a coefficient
                raise NumericIndeterminacyError(
                    "a char poly coefficient is beyond the float range") from None
            roots = [0.0] * zeros
            if row:
                companion = np.eye(len(row), k=-1)
                companion[0] = row
                roots += np.linalg.eigvals(companion).tolist()
            if not np.isfinite(roots).all():  # pragma: no cover
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

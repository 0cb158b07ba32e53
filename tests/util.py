"""Shared test helpers: random unimodular matrices, exact inverses, and a
reference LLL."""

import random
from fractions import Fraction

from abdyn.exactalg import IntMatrix


def random_unimodular(n, rng, entry_bound=3, steps=None):
    """Random unimodular integer matrix built from elementary row operations
    (add +/-1 times another row, swap, negate), rejecting steps that push any
    entry beyond entry_bound.  det is always +/-1 by construction."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if steps is None:
        steps = 4 * n
    done = 0
    attempts = 0
    while done < steps and attempts < 50 * steps:
        attempts += 1
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if op == 0 and n > 1:
            s = rng.choice((1, -1))
            cand = [rows[i][c] + s * rows[j][c] for c in range(n)]
            if max(abs(x) for x in cand) <= entry_bound:
                rows[i] = cand
                done += 1
        elif op == 1 and n > 1:
            rows[i], rows[j] = rows[j], rows[i]
            done += 1
        else:
            rows[i] = [-x for x in rows[i]]
            done += 1
    return IntMatrix.from_rows(rows)


def exact_inverse(M):
    """Exact inverse of a unimodular IntMatrix (Fraction Gauss-Jordan,
    result verified integral)."""
    n = M.rows
    aug = [[Fraction(M[i, j]) for j in range(n)]
           + [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    inv = [[aug[i][n + j] for j in range(n)] for i in range(n)]
    assert all(x.denominator == 1 for row in inv for x in row)
    return IntMatrix.from_rows([[int(x) for x in row] for row in inv])


def conjugate(M, U):
    """U M U^{-1}, exactly."""
    return U @ M @ exact_inverse(U)


def random_rng(seed):
    return random.Random(seed)


def reference_lll(rows, delta=Fraction(99, 100)):
    """Reference LLL for differential tests: recomputes the exact rational
    Gram-Schmidt after every size reduction and every swap.  Same operation
    order as abdyn.exactalg.lll_reduce (full size reduction of row k against
    rows k-1..0 with round-half-even, then the Lovasz test), so both must
    return identical rows on independent input."""
    b = [[int(x) for x in row] for row in rows]
    n = len(b)
    if n == 0:
        return []

    def gram_schmidt():
        bstar = []
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = []
        for i in range(n):
            v = [Fraction(x) for x in b[i]]
            for j in range(i):
                if norms[j] == 0:
                    mu[i][j] = Fraction(0)
                    continue
                mu[i][j] = Fraction(
                    sum(Fraction(b[i][k]) * bstar[j][k] for k in range(len(v))),
                    1) / norms[j]
                v = [x - mu[i][j] * y for x, y in zip(v, bstar[j])]
            bstar.append(v)
            norms.append(sum(x * x for x in v))
        return bstar, mu, norms

    bstar, mu, norms = gram_schmidt()
    k = 1
    while k < n:
        # size reduction
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q != 0:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                bstar, mu, norms = gram_schmidt()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            bstar, mu, norms = gram_schmidt()
            k = max(k - 1, 1)
    return b


def _sym_det(m):
    """Determinant by cofactor expansion (tiny matrices)."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _sym_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def brute_force_delaunay_cells(Q):
    """Delaunay cells of Z^n under the positive definite metric Q (rows of
    Fractions), up to Z^n-translation, by exhaustive search in sympy
    Rational arithmetic: every lattice simplex with 0 as its smallest vertex
    whose circumsphere has no lattice point inside or on it.  Returns
    (cells, sum of |det|), each cell a sorted vertex tuple.

    The search box is justified without any reduction theory: every point
    lies within rho of a corner of its unit cube, so the covering radius
    satisfies 4 rho^2 <= bound = max_s s.Q.s over s in {-1, 1}^n.  A
    Delaunay cell at 0 has circumradius <= rho, so its vertices, and every
    lattice point its circumsphere holds, lie in the ball q.Q.q <= bound.
    Raises AssertionError on a cospherical configuration."""
    import itertools

    import sympy

    n = len(Q)
    Q = [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in Q]

    def apply(p):
        return [sum(Q[i][j] * p[j] for j in range(n)) for i in range(n)]

    def form(p):
        return sum(a * b for a, b in zip(p, apply(p)))

    bound = max(form(s) for s in itertools.product((-1, 1), repeat=n))
    inv = sympy.Matrix(Q).inv()
    box = [int(sympy.floor(sympy.sqrt(bound * inv[i, i]))) for i in range(n)]
    ball = [p for p in itertools.product(*[range(-b, b + 1) for b in box])
            if form(p) <= bound]
    Qp = {p: apply(p) for p in ball}
    norm = {p: form(p) for p in ball}
    zero = (0,) * n
    positive = [p for p in ball if p > zero]
    near = {(a, b) for a, b in itertools.combinations(positive, 2)
            if form([x - y for x, y in zip(a, b)]) <= bound}
    cells = set()
    for T in itertools.combinations(positive, n):
        if any(pair not in near for pair in itertools.combinations(T, 2)):
            continue
        # circumcenter c: 2 p.Q.c = p.Q.p for each vertex p != 0 (Cramer)
        A = [[2 * x for x in Qp[p]] for p in T]
        d = _sym_det(A)
        if d == 0:
            continue
        rhs = [norm[p] for p in T]
        c = [_sym_det([row[:j] + [r] + row[j + 1:] for row, r in zip(A, rhs)]) / d
             for j in range(n)]
        if 4 * form(c) > bound:
            continue
        # |q - c|^2 - |c|^2 = q.Q.q - 2 c.Q.q, and |c| is the circumradius
        on_sphere = False
        for q in ball:
            if q != zero and q not in T:
                power = norm[q] - 2 * sum(a * b for a, b in zip(c, Qp[q]))
                if power < 0:
                    break
                on_sphere |= power == 0
        else:
            assert not on_sphere, "cospherical configuration"
            cells.add(tuple(sorted((zero, *T))))
    return cells, sum(abs(_sym_det([list(v) for v in cell[1:]])) for cell in cells)

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
    order as abdyn.orbit.lll_reduce (full size reduction of row k against
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

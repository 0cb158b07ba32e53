"""Shared test helpers: random unimodular matrices, exact inverses, two
reference LLLs (exact Gram-Schmidt, and the integral LLL with Fraction
rounding: fraction_lll_reduce), brute-force Delaunay cells, the reference
root-of-unity test, unipotent index and quasi-unipotent order, the numeric
degree-growth oracle (exterior-power norm sequences and their growth fit),
the reference fan certification (one sorted tuple per face, Selling in Fractions,
and the face set of the cells: reference_face_set; the report named by set
difference against it: reference_fan_report),
the reference monodromy normalization on IntMatrix (reference_nakamura_data)
and the reduced row echelon form in Fractions (fraction_rref),
the reference orbit analysis (numpy solve, inverse and SVD:
reference_orbit_dims; the coordinate solve in Fractions:
fraction_real_dual_coords), and the code that no command reaches: the
polarized splitting split_A_B, the finite-order approximants, the Type I
lattice construction type_I_lattice, the Gamma-action gamma_act,
translate_cone and canonical_cone, check_saturated, lattice_is_invariant,
poly_from_json, and the exact solve over Q with the restricted char poly
on it (solve, restricted_char_poly, mat_vec); the conjugated block sums
of the split tests (block_sum, BLOCK_SUM_DRAWS); the cyclotomic split by
plain trial division (reference_cyclotomic_split) and the root moduli from
numpy.roots (numpy_roots_moduli); the counts of the spectrum computations
(count_spectrum_runs); the kernel completion by LLL of [c K^T | I] on K
itself (reference_kernel_completion); the kernel lattice of p(M) from
kernel_completion (kernel_lattice), the image lattice from kernel_completion
of a left null space (reference_image_lattice) and the split that evaluates
both factors (reference_split_invariant_subfamily)."""

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from abdyn import exactalg
from abdyn.errors import ContractError, DimensionError, NumericIndeterminacyError
from abdyn.exactalg import (IntMatrix, IntPolynomial, char_poly,
                            cyclotomic, cyclotomic_orders, cyclotomic_split,
                            is_positive_definite, kernel_completion,
                            minor_gcd, squarefree_decomposition)
from abdyn.orbit import (COND_LIMIT, NumericLattice, OrbitReport, _independent,
                         _rank_with_band, _round_scaled, lll_reduce, orbit_dims,
                         relation_lattice)
from abdyn.serialize import validate_schema
from abdyn.toroidal import (FanReport, GammaData, _canonical_gens,
                            _coset_representatives, _reduce_mod_period,
                            _translate)

def count_spectrum_runs(monkeypatch):
    """A dict that counts, from now until the monkeypatch is undone, the
    top-level Berkowitz runs ("berkowitz"; its recursive calls are not
    counted) and the bodies of cyclotomic_split ("split"; each
    looks up cyclotomic_orders once)."""
    counts = {"berkowitz": 0, "split": 0}
    berkowitz, orders = exactalg._berkowitz, exactalg.cyclotomic_orders
    depth = [0]

    def counting_berkowitz(a):
        counts["berkowitz"] += depth[0] == 0
        depth[0] += 1
        try:
            return berkowitz(a)
        finally:
            depth[0] -= 1

    def counting_orders(max_degree):
        counts["split"] += 1
        return orders(max_degree)

    monkeypatch.setattr(exactalg, "_berkowitz", counting_berkowitz)
    monkeypatch.setattr(exactalg, "cyclotomic_orders", counting_orders)
    return counts


GROWTH_WINDOW = 12  # window of fit_growth's peak and window-smoothed fits


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


CYCLOTOMIC_BLOCKS = [cyclotomic(m) for m in (1, 2, 3, 4, 5, 6, 8, 10, 12)]
FREE_BLOCKS = [IntPolynomial(c) for c in ([1, -3, 1], [-1, -1, 1], [1, -4, 1],
                                          [-1, -1, 0, 1], [1, -1, -1, -1, 1])]
# The draws of block_sum: cyclotomic blocks, cyclotomic-free blocks, glued,
# seed.  Either list may be empty (not both: callers assume(cyc or free)).
BLOCK_SUM_DRAWS = (st.lists(st.sampled_from(CYCLOTOMIC_BLOCKS), max_size=3),
                   st.lists(st.sampled_from(FREE_BLOCKS), max_size=2),
                   st.booleans(), st.integers(0, 2 ** 32))


def block_sum(cyc, free, glued, seed):
    """(u, P, Q) with u = U C U^-1 and C = [[A, X], [0, B]]: A a block sum of
    the companion matrices of cyc (product P), B one of free (product Q), X
    zero or, when glued, random (the index of L0 + L1 can then exceed 1),
    and U a random unimodular matrix."""
    rng = random.Random(seed)
    P = Q = IntPolynomial([1])
    for p in cyc:
        P = P * p
    for p in free:
        Q = Q * p
    a, n = P.degree, P.degree + Q.degree
    C = IntMatrix.block_diag(*(IntMatrix.companion(p) for p in cyc + free)).to_rows()
    for i in range(a if glued else 0):
        C[i][a:] = [rng.randint(-2, 2) for _ in range(n - a)]
    return conjugate(IntMatrix.from_rows(C), random_unimodular(n, rng)), P, Q


def random_rng(seed):
    return random.Random(seed)


def to_numpy(M):
    """An IntMatrix as a float numpy array."""
    return np.array(M.to_rows(), dtype=float)


def kronecker_is_roots_of_unity(p):
    """True iff every root of the monic integer polynomial p is a root of
    unity.  By Kronecker's theorem (nonzero constant term, all roots on the
    closed unit disk <=> roots of unity) this is equivalent to the cyclotomic
    part exhausting p."""
    if not p.is_monic():
        raise ContractError("expected a monic polynomial")
    if p.coeffs[0] == 0:
        raise ContractError("zero constant term: 0 is a root, not a root of unity")
    _, Q, _ = cyclotomic_split(p)
    return Q.is_one()


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
    _, Q, orders = cyclotomic_split(char_poly(M))
    if not Q.is_one():
        return None
    return math.lcm(*orders.keys()) if orders else 1


def reference_cyclotomic_split(p):
    """(P, Q, orders) of cyclotomic_split by plain trial
    division: every Phi_m with phi(m) <= deg p, in ascending m, divided out
    while it divides."""
    Q, orders = p, {}
    for m, _phi in cyclotomic_orders(p.degree):
        while Q.degree >= 1 and cyclotomic(m).divides(Q):
            Q = Q.divmod_monic(cyclotomic(m))[0]
            orders[m] = orders.get(m, 0) + 1
    return p.divmod_monic(Q)[0], Q, orders


def numpy_roots_moduli(Q):
    """(modulus, multiplicity) of each root of each squarefree factor of the
    monic Q, from numpy.roots on the factor, sorted descending: the moduli
    eigenvalue_moduli groups when Q is cyclotomic-free."""
    moduli = []
    for factor, mult in squarefree_decomposition(Q):
        roots = np.roots([float(c) for c in reversed(factor.coeffs)])
        moduli.extend((abs(z), mult) for z in roots)
    return sorted(moduli, reverse=True)


def reference_lll(rows, delta=Fraction(99, 100)):
    """Reference LLL for differential tests: recomputes the exact rational
    Gram-Schmidt after every size reduction and every swap.  Full size
    reduction of row k against rows k-1..0 with round-half-even, then the
    Lovasz test.  abdyn.exactalg.lll_reduce defers the reductions against
    rows k-2..0 until the test passes; the test reads mu[k][k-1] alone, and
    the deferred steps are the same ones in the same order, so both must
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


def fraction_lll_reduce(rows, delta=Fraction(99, 100)):
    """The integral LLL of abdyn.exactalg.lll_reduce (Cohen, Alg. 2.6.7) as
    it was before its rounding ran on plain integers, and before it computed
    the Gram-Schmidt data of a row when first reaching it: each
    size-reduction step rounds Fraction(lam[k][j], d[j+1]) with round()
    (ties to even), and all the data are computed, and dependent rows
    refused, before the first step.  The reference of the differential
    tests of that rounding and of that order."""
    b = [[int(x) for x in row] for row in rows]
    n = len(b)
    if n == 0:
        return []
    p, q_delta = delta.numerator, delta.denominator
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


def _sym_det(m):
    """Determinant by cofactor expansion (tiny matrices)."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _sym_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _empty_circumspheres(Q):
    """(T, on) for every lattice simplex {0} + T with 0 as its smallest
    vertex whose circumsphere under the positive definite metric Q (rows of
    ints or Fractions) has no lattice point inside: on is the sorted tuple
    of the lattice points on it, 0 and T among them.  Exhaustive search in
    integers, on D Q for the lcm D of the denominators, which has the same
    spheres.

    The search ball is justified without any reduction theory: Babai's
    nearest plane (the coordinates rounded from the last, along the
    Gram-Schmidt vectors of the unit vectors under Q) puts every point
    within sqrt(sum_i |e_i*|^2) / 2 of a lattice point, and |e_i*|^2 =
    d_i / d_{i-1} for the leading principal minors d_i of Q.  So the
    covering radius satisfies 4 rho^2 <= bound = sum_i d_i / d_{i-1}.  A
    Delaunay cell at 0 has circumradius r <= rho, so its vertices, and
    every lattice point on or in its circumsphere, lie in the ball q.Q.q <=
    4 r^2 <= bound."""
    n = len(Q)
    D = math.lcm(*(Fraction(x).denominator for row in Q for x in row))
    Q = [[int(x * D) for x in row] for row in Q]

    def apply(p):
        return [sum(Q[i][j] * p[j] for j in range(n)) for i in range(n)]

    def form(p):
        return sum(a * b for a, b in zip(p, apply(p)))

    minors = [1] + [_sym_det([row[:i] for row in Q[:i]]) for i in range(1, n + 1)]
    bound = sum(Fraction(d, c) for c, d in zip(minors, minors[1:]))
    # |x_i| <= sqrt(bound * (Q^-1)_ii) on the ball, (Q^-1)_ii = minor_ii / det Q
    det = minors[-1]
    box = [math.isqrt(math.floor(bound * _sym_det([row[:i] + row[i + 1:] for k, row in enumerate(Q)
                                                    if k != i]) / det))
           if n > 1 else math.isqrt(math.floor(bound / det)) for i in range(n)]
    ball = [p for p in itertools.product(*[range(-b, b + 1) for b in box])
            if form(p) <= bound]
    ball.sort(key=form)  # a point inside a sphere is most often a short one
    Qp = {p: apply(p) for p in ball}
    norm = {p: form(p) for p in ball}
    zero = (0,) * n
    positive = sorted(p for p in ball if p > zero)
    # the points within the ball's bound of each: a cell's edges are at most
    # 2 r long, so its vertices are pairwise near
    near = {a: {b for b in positive if form([x - y for x, y in zip(a, b)]) <= bound}
            for a in positive}

    def simplices(T, rest):
        """The n-vertex extensions of T by points of rest near each other."""
        if len(T) == n:
            yield T
            return
        for k, b in enumerate(rest):
            yield from simplices(T + (b,), [c for c in rest[k + 1:] if c in near[b]])

    for T in simplices((), positive):
        # circumcenter c = num / d: 2 p.Q.c = p.Q.p for each vertex p != 0 (Cramer)
        A = [[2 * x for x in Qp[p]] for p in T]
        d = _sym_det(A)
        if d == 0:
            continue
        rhs = [norm[p] for p in T]
        num = [_sym_det([row[:j] + [r] + row[j + 1:] for row, r in zip(A, rhs)])
               for j in range(n)]
        if d < 0:
            d, num = -d, [-x for x in num]
        if 4 * form(num) > bound * d * d:
            continue
        # d (|q - c|^2 - |c|^2) = d q.Q.q - 2 num.Q.q, and |c| is the circumradius
        on = [zero]
        for q in ball:
            if q != zero:
                power = d * norm[q] - 2 * sum(a * b for a, b in zip(num, Qp[q]))
                if power < 0:
                    break
                if power == 0:
                    on.append(q)
        else:
            yield T, tuple(sorted(on))


def _in_basis(Q, basis):
    """(B Q B^T, the map of a vertex tuple back to the coordinates of Q,
    with the smallest vertex moved to 0) for the rows B of a basis of Z^n,
    default the unit vectors.  B Q B^T has the Delaunay cells of Q, written
    in B; a reduced basis keeps the search ball of _empty_circumspheres
    small, and any basis gives the same cells."""
    n = len(Q)
    B = [[int(i == j) for j in range(n)] for i in range(n)] if basis is None else basis
    assert abs(_sym_det([list(b) for b in B])) == 1, "not a basis of Z^n"
    BQB = [[sum(B[i][k] * Fraction(Q[k][l]) * B[j][l] for k in range(n) for l in range(n))
            for j in range(n)] for i in range(n)]

    def back(cell):
        pts = sorted(tuple(sum(y * b[i] for y, b in zip(p, B)) for i in range(n)) for p in cell)
        return tuple(tuple(x - y for x, y in zip(p, pts[0])) for p in pts)
    return BQB, back


def brute_force_delaunay_cells(Q, basis=None):
    """Delaunay cells of Z^n under the positive definite metric Q, up to
    Z^n-translation, by exhaustive search (_empty_circumspheres, run in the
    rows of basis: _in_basis): every lattice simplex with 0 as its smallest
    vertex whose circumsphere has no other lattice point inside or on it.
    Returns (cells, sum of |det|), each cell a sorted vertex tuple.  Raises
    AssertionError on a cospherical configuration."""
    BQB, back = _in_basis(Q, basis)
    cells = set()
    for T, on in _empty_circumspheres(BQB):
        assert len(on) == len(T) + 1, "cospherical configuration"
        cells.add(back(on))
    return cells, sum(abs(_sym_det([list(v) for v in cell[1:]])) for cell in cells)


def brute_force_delaunay_polytopes(Q, basis=None):
    """The Delaunay cells of Z^n under the positive definite metric Q,
    cospherical ones included, up to Z^n-translation: the lattice points on
    each empty circumsphere (_empty_circumspheres, run in the rows of
    basis), moved so the smallest is 0, as sorted tuples.  Each cell with 0
    as its smallest vertex holds a simplex of its vertices with 0 as its
    smallest vertex, so the search finds it."""
    BQB, back = _in_basis(Q, basis)
    return {back(on) for _, on in _empty_circumspheres(BQB)}


def compound_matrix(M, l):
    """Exact l-th compound (exterior power) of an integer matrix: entries are
    the l x l minors, indexed by sorted l-subsets of rows/columns."""
    from itertools import combinations
    if not M.is_square():
        raise DimensionError("compound of non-square matrix")
    n = M.rows
    if not (0 <= l <= n):
        raise ContractError("compound order out of range")
    if l == 0:
        return IntMatrix.identity(1)
    subs = list(combinations(range(n), l))
    rows = []
    for rsub in subs:
        row = []
        for csub in subs:
            minor = IntMatrix.from_rows([[M[i, j] for j in csub] for i in rsub])
            row.append(minor.det())
        rows.append(row)
    return IntMatrix.from_rows(rows)


def _log_norm_sequence(C, n_max):
    """log of the Frobenius norm of C^n for n = 1..n_max, powering in float
    with per-step rescaling (so huge growth stays in range).  Frobenius norms
    have the same growth as operator norms, and their squares are exact
    exponential-polynomial sequences, which the growth fit exploits."""
    mat = to_numpy(C)
    acc = np.eye(mat.shape[0])
    log_scale = 0.0
    out = []
    for _ in range(n_max):
        acc = acc @ mat
        norm = np.linalg.norm(acc)
        out.append(log_scale + math.log(norm))
        # rescale to keep entries near unit size
        acc = acc / norm
        log_scale += math.log(norm)
    return out


def degree_sequence_numeric(aut, k, n_max=25):
    """Brute-force degree oracle: for n = 1..n_max the value

        max_{0<=j<=k, j<=g, k-j<=r}  |Lambda^{2j} u_A_rat^n| * |Lambda^{k-j} u_T^n|

    Exterior powers are taken exactly on the integer matrices (compound
    matrices) once, then powered in float with rescaling; this keeps the
    norms well-conditioned even when singular values of the powers span many
    orders of magnitude, and everything accumulates in the log domain."""
    aut.validate()
    if not (0 <= k <= aut.r + aut.g):
        raise ContractError("k out of range")
    if n_max < 1:
        raise ContractError("n_max must be >= 1")
    logs_A = {0: [0.0] * n_max}
    logs_T = {0: [0.0] * n_max}
    for j in range(1, min(k, aut.g) + 1):
        logs_A[2 * j] = _log_norm_sequence(compound_matrix(aut.u_A_rat, 2 * j), n_max)
    for l in range(1, min(k, aut.r) + 1):
        logs_T[l] = _log_norm_sequence(compound_matrix(aut.u_T, l), n_max)
    out = []
    for idx in range(n_max):
        best = float("-inf")
        for j in range(0, min(k, aut.g) + 1):
            l = k - j
            if l < 0 or l > aut.r:
                continue
            best = max(best, logs_A[2 * j][idx] + logs_T[l][idx])
        out.append(math.exp(best))
    return out


def _dominant_rate(values):
    """Exponential growth rate log(dominant root) of a sequence whose squares
    satisfy a linear recurrence, via an autoregressive (Prony-type) fit.

    Squared Frobenius norms of powers of a fixed matrix are exact
    exponential-polynomial sequences (their frequencies are pairwise products
    of eigenvalues), so on the tail of the numeric degree oracle this recovers
    log lambda to near machine precision, including through bounded
    quasi-periodic factors that defeat a plain regression.  Returns None when
    no fitted recurrence order explains the data."""

    def scan(u, slack=1):
        m = len(u)
        # divide out a rough geometric trend so the samples stay well-scaled
        mu = (u[-1] - u[0]) / (m - 1)
        z = np.array([math.exp(t - mu * (i + 1)) for i, t in enumerate(u)])
        exact, best = None, None
        for p in range(1, m):
            if m - p < p + slack:  # keep the system overdetermined
                break
            rows = np.array([z[i:i + p] for i in range(m - p)])
            rhs = z[p:]
            coef, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
            resid = np.linalg.norm(rows @ coef - rhs)
            resid /= max(np.linalg.norm(rhs), 1e-300)
            roots = np.roots(np.concatenate([[1.0], -coef[::-1]]))
            # a fitted multiple root splits into a cluster whose moduli
            # scatter symmetrically in log scale; the geometric mean of the
            # cluster cancels the scatter
            top = max(abs(r) for r in roots)
            seed = max(roots, key=abs)
            cluster, rest = [seed], [r for r in roots if r is not seed]
            changed = True
            while changed:
                changed = False
                for r in rest[:]:
                    if any(abs(r - c) < 0.15 * top for c in cluster):
                        cluster.append(r)
                        rest.remove(r)
                        changed = True
            mods = [abs(r) for r in cluster]
            gmean = math.exp(sum(math.log(x) for x in mods) / len(mods))
            rate = (mu + math.log(gmean)) / 2.0
            # smallest machine-exact order wins; higher orders only scatter
            # the dominant root further
            if resid < 1e-12:
                exact = rate
                break
            if best is None or resid < best[0]:
                best = (resid, rate)
        return exact, best

    u = [2.0 * math.log(max(v, 1e-300)) for v in values]
    if len(u) < 6:
        return None
    exact_full, best_full = scan(u)
    if exact_full is not None:
        return exact_full
    if len(u) >= 20:
        # near fits on one window can hide an early switch between branches
        # or slowly decaying subdominant terms; accept only when an
        # independent low-order fit on the tail corroborates the rate
        exact_tail, best_tail = scan(u[-14:], slack=4)
        tail = exact_tail if exact_tail is not None else \
            (best_tail[1] if best_tail and best_tail[0] < 1e-3 else None)
        if tail is not None and best_full is not None \
                and best_full[0] < 1e-3 and abs(best_full[1] - tail) < 2e-3:
            return best_full[1]
        return None
    if best_full is not None and best_full[0] < 1e-8:
        return best_full[1]
    return None


def _select_growth_model(logreg, linreg, y):
    """Least squares for log a ~ c + d*logreg + L*linreg, with model
    selection: when the restricted model without the linear term explains the
    points essentially as well, the sequence is subexponential and L is 0
    exactly (a genuine exponential rate would leave a large restricted
    residual, since desk-scale rates are bounded away from 0)."""
    ones = np.ones(len(y))
    X_full = np.column_stack([ones, logreg, linreg])
    coef, *_ = np.linalg.lstsq(X_full, y, rcond=None)
    full_rms = np.linalg.norm(X_full @ coef - y) / math.sqrt(len(y))
    X_sub = np.column_stack([ones, logreg])
    sub, *_ = np.linalg.lstsq(X_sub, y, rcond=None)
    sub_rms = np.linalg.norm(X_sub @ sub - y) / math.sqrt(len(y))
    # over a narrow window log n is nearly linear, so the restricted model can
    # mimic exponential growth -- but only with an implausibly large exponent
    # (about L times the mean index); genuine polynomial exponents are small
    if sub_rms < max(4.0 * full_rms, 1e-3) and abs(sub[1]) < 8.0:
        return 0.0, float(sub[1])
    return float(coef[2]), float(coef[1])


def fit_growth(values):
    """Fit the growth model log a_n ~ c + d*log n + L*n; returns (L, d).

    L (the log of the dynamical degree) comes from the autoregressive
    dominant-root fit when one explains the data, else from a regression of
    trailing-window maxima.  The window max is insensitive to periodic or
    quasi-periodic factors (a bounded factor hits its peak once per window) and
    to pointwise switching between branches of the same growth rate, so it
    stays flat exactly when the sequence is bounded."""
    n_max = len(values)
    ys = [math.log(max(v, 1e-300)) for v in values]
    if n_max >= GROWTH_WINDOW + 2:
        # interior local maxima are the support points of the upper envelope;
        # through them, periodic and quasi-periodic factors contribute only a
        # constant, so the growth model fits them cleanly
        peaks = [(i + 1, ys[i]) for i in range(1, n_max - 1)
                 if ys[i] >= ys[i - 1] and ys[i] >= ys[i + 1]]
        peaks = [(p, v) for j, (p, v) in enumerate(peaks)
                 if j == 0 or peaks[j - 1][0] != p - 1]  # drop plateau runs
        if len(peaks) >= 2 and max(v for _, v in peaks) \
                - min(v for _, v in peaks) < 1e-9:
            L, d = 0.0, 0.0  # bounded: the envelope is flat
        elif len(peaks) >= 4:
            pos = np.array([p for p, _ in peaks], dtype=float)
            L, d = _select_growth_model(np.log(pos), pos,
                                        np.array([v for _, v in peaks]))
        else:
            # few or no interior peaks (monotone-ish data): regress
            # window-smoothed logs over the last few windows, where
            # subdominant eigenvalue terms have decayed
            w = GROWTH_WINDOW
            ns = list(range(1, n_max - w + 2))[-4:]
            smooth = [sum(ys[n - 1:n - 1 + w]) / w for n in ns]
            mlog = np.array([sum(math.log(n + i) for i in range(w)) / w for n in ns])
            mid = np.array([n + (w - 1) / 2 for n in ns])
            L, d = _select_growth_model(mlog, mid, np.array(smooth))
        refined = _dominant_rate(values)
        if refined is not None:
            if abs(refined) < 0.02 and L == 0.0:
                # a fitted multiple root near 1 scatters by ~eps^(1/mult), so
                # a tiny autoregressive rate on data the subexponential model
                # already explains is noise: the rate is exactly 0 (desk-scale
                # spectral radii are bounded away from 1 from above)
                return 0.0, d
            L = refined
        return L, d
    # short sequences: plain joint regression over the tail
    ns = np.arange(max(2, n_max // 2), n_max + 1, dtype=float)
    tail = np.array([ys[int(n) - 1] for n in ns])
    X = np.column_stack([np.ones_like(ns), np.log(ns), ns])
    coef, *_ = np.linalg.lstsq(X, tail, rcond=None)
    return float(coef[2]), float(coef[1])


# ---------------------------------------------------------------------------
# library helpers that no command reaches: the Gamma-action on points and
# cones, the Gamma-canonical cone, saturation and invariance of a
# sublattice, and the polynomial reader
# ---------------------------------------------------------------------------

def gamma_shift(gamma, beta):
    """The period beta * B' (a row vector; B' is symmetric)."""
    return tuple(sum(x * y for x, y in zip(row, beta)) for row in gamma.rows)


def gamma_act(gamma_data, beta, point):
    """The Gamma-action on N x Z: (alpha, beta).(a, b, k) = (a, b + k*beta*B', k)."""
    a, b, k = point
    a, b, beta = (tuple(int(x) for x in v) for v in (a, b, beta))
    if len(a) != gamma_data.g_prime or len(b) != gamma_data.r_prime \
            or len(beta) != gamma_data.r_prime:
        raise DimensionError("point/beta dimensions do not match GammaData")
    shift = gamma_shift(gamma_data, beta)
    return (a, tuple(bi + k * s for bi, s in zip(b, shift)), int(k))


def translate_cone(cone, beta, gamma):
    """The cone (a generator tuple) moved by the Gamma-translation beta, sorted."""
    return tuple(sorted(_translate(cone, gamma_shift(gamma, beta), gamma.g_prime)))


def canonical_cone(cone, gamma):
    """Canonical representative under Gamma of a cone, a generator tuple in
    any order (toroidal._canonical_gens on its sorted generators)."""
    return _canonical_gens(tuple(sorted(cone)), gamma)


def reference_kernel_completion(K):
    """(T, k) as exactalg.kernel_completion defines them, built on K itself
    in place of its echelon rows: rank K from IntMatrix.rank, and LLL of the
    rows [c K^T | I], of length m + n.  The kernel lattice is the same; its
    reduced basis, and the rows after it, can differ."""
    n = K.cols
    k = n - K.rank()
    T = IntMatrix.identity(n).to_rows()
    if k in (0, n):
        return T, k
    m = K.rows
    cols = K._columns()
    c = exactalg.KERNEL_SCALE
    while True:
        reduced = lll_reduce([[c * x for x in col] + e for col, e in zip(cols, T)])
        kernel = [r[m:] for r in reduced if not any(r[:m])]
        if len(kernel) == k:
            return kernel + [r[m:] for r in reduced if any(r[:m])], k
        c *= c


def reference_image_lattice(K):
    """exactalg.image_lattice as it was built before its null rows came in
    echelon form: one left-to-right _bareiss pass on K's columns, the null
    row of each free column f with d at f, and the kernel rows of
    kernel_completion of those rows, which eliminates them again."""
    n = K.rows
    a = [list(col) for col in K._columns()]
    pivots, d = exactalg._bareiss(a, n)
    rows = dict(zip(pivots, a))
    N = [[-rows[j][f] if j in rows else d * (j == f) for j in range(n)]
         for f in range(n) if f not in rows]
    T, k = kernel_completion(IntMatrix._of(len(N), n, [x for row in N for x in row]))
    return tuple(map(tuple, T[:k]))


def kernel_lattice(p, M):
    """A basis of the saturated sublattice Z^n intersect ker p(M), as a tuple
    of row tuples: the kernel rows of kernel_completion(p(M))."""
    if not M.is_square():
        raise DimensionError("kernel_lattice requires a square matrix")
    T, k = kernel_completion(p.eval_matrix(M))
    return tuple(map(tuple, T[:k]))


def reference_split_invariant_subfamily(u):
    """criteria.split_invariant_subfamily as it was built before it
    evaluated one factor: L0 and L1 are the kernel lattices of P(u) and of
    Q(u), both evaluated (kernel_lattice), and the index is |det [L0; L1]|."""
    P, Q, _ = cyclotomic_split(char_poly(u))
    if P.is_one() or Q.is_one():
        whole = tuple(map(tuple, IntMatrix.identity(u.rows).to_rows()))
        return ((), whole, 1) if P.is_one() else (whole, (), 1)
    L0, L1 = kernel_lattice(P, u), kernel_lattice(Q, u)
    return L0, L1, abs(IntMatrix.from_rows(L0 + L1).det())


def check_saturated(lat):
    """Saturation of a sublattice (its basis rows) <=> torsion-free quotient
    <=> the maximal minors of its basis have gcd 1."""
    return minor_gcd(lat) == 1


def solve(A, *rhs):
    """Exact solutions of A x = b over Q for each right-hand side b, from
    one _bareiss pass over the denominator-cleared rows [A_i | b_i ..].

    A is a list of m rows of n ints, Fractions or floats (m >= n allowed;
    floats are read exactly).  Returns one entry per b: the unique solution
    as a list of Fractions, or None when that system is inconsistent; every
    entry is None when A has rank below n."""
    n = len(A[0]) if A else 0
    a = [exactalg._cleared(list(row) + [b[i] for b in rhs]) for i, row in enumerate(A)]
    pivots, d = exactalg._bareiss(a, n)
    if len(pivots) < n:
        return [None] * len(rhs)
    return [None if any(row[n + k] for row in a[n:])
            else [Fraction(a[i][n + k], d) for i in range(n)]
            for k in range(len(rhs))]


def mat_vec(M, v):
    """The IntMatrix M times the integer vector v, as a tuple: one column
    through the matrix product."""
    if M.cols != len(v):
        raise DimensionError("vector length mismatch")
    return (M @ IntMatrix(len(v), 1, v)).entries


def _basis_coordinates(u, lat):
    """Coordinates of u(v) in the basis rows lat for each basis vector v: one
    exact solve with the images as right-hand sides (None where u(v) leaves
    the rational span)."""
    A = [list(col) for col in zip(*lat)]
    return solve(A, *(mat_vec(u, v) for v in lat))


def restricted_char_poly(u, lat):
    """Characteristic polynomial of u restricted to an invariant sublattice,
    computed exactly in its basis rows lat."""
    if not lat:
        return IntPolynomial([1])
    coords = _basis_coordinates(u, lat)
    if any(x is None or any(c.denominator != 1 for c in x) for x in coords):
        raise ContractError("sublattice is not invariant under u")
    return char_poly(IntMatrix.from_rows([[int(c) for c in x] for x in coords]))


def lattice_is_invariant(u, lat):
    """Exact check that u maps the sublattice with basis rows lat into itself."""
    if not lat:
        return True
    return all(x is not None and all(c.denominator == 1 for c in x)
               for x in _basis_coordinates(u, lat))


def poly_from_json(obj):
    """An IntPolynomial from its wire form (checked against its schema)."""
    validate_schema(obj, "polynomial")
    return IntPolynomial([int(c) for c in obj])


# ---------------------------------------------------------------------------
# reference fan certification: one sorted generator tuple per face, each
# canonicalized on its own, Selling reduction in Fractions and a tiling
# check on the cells, kept as the oracle of
# toroidal.validate_fan and toroidal.section_extends
# ---------------------------------------------------------------------------

def _quad_form(Q, v, w):
    """v^T Q w over Fractions."""
    return sum(Fraction(v[i]) * Q[i][j] * Fraction(w[j])
               for i in range(len(v)) for j in range(len(w)))


def elementary_symmetric(rp):
    """The r'(r'+1)/2 elementary symmetric matrices E_1, E_2, .. of
    toroidal._obtuse_superbase, in its order: for a <= b row by row, the
    one with 1 at (a, b) and (b, a) and 0 elsewhere."""
    return [[[Fraction(int({i, j} == {a, b})) for j in range(rp)] for i in range(rp)]
            for a in range(rp) for b in range(a, rp)]


def epsilon_metric(Q, eps):
    """Q + sum_k eps^k E_k (elementary_symmetric), for a concrete eps."""
    rp = len(Q)
    out = [[Fraction(x) for x in row] for row in Q]
    for k, E in enumerate(elementary_symmetric(rp), 1):
        out = [[x + eps ** k * e for x, e in zip(row, erow)] for row, erow in zip(out, E)]
    return out


def reference_obtuse_superbase(Q):
    """Selling reduction in exact rationals under Q + sum_k eps^k E_k for an
    infinitesimal eps > 0 (see toroidal._obtuse_superbase): each parameter
    is the tuple of its values under Q, E_1, E_2, .., compared
    lexicographically with the zero tuple."""
    rp = len(Q)
    forms = [Q] + elementary_symmetric(rp)
    zero = (0,) * len(forms)
    vs = [(-1,) * rp] + [tuple(int(i == j) for j in range(rp)) for i in range(rp)]
    # the other r' - 1 vectors absorb 2 v_i, so sum v = 0 is kept
    step = 2 if rp == 2 else 1
    pairs = list(itertools.combinations(range(rp + 1), 2))
    while True:
        p = {(i, j): tuple(_quad_form(F, vs[i], vs[j]) for F in forms) for i, j in pairs}
        assert zero not in p.values()
        i, j = next((ij for ij in pairs if p[ij] > zero), (None, None))
        if i is None:
            return vs
        vi = vs[i]
        vs = [tuple(-x for x in vi) if k == i else v if k == j
              else tuple(x + step * y for x, y in zip(v, vi)) for k, v in enumerate(vs)]


def _cell_volumes(cells):
    """|det| of each simplex (a tuple of r'+1 integer vertices): r'! times
    its volume, so the volumes of a tiling of one fundamental cell sum to
    det B' * r'!."""
    return [abs(IntMatrix.from_rows([[x - y for x, y in zip(v, cell[0])]
                                     for v in cell[1:]]).det()) for cell in cells]


def reference_delaunay_cells(gamma, Q):
    """The Delaunay cells of toroidal._delaunay_faces, one Gamma-fundamental
    set: the simplices of the Selling superbase translated to each coset
    representative, sorted, with the tiling check on the cell volumes; for a
    cospherical Q, those of its triangulation by Q + eps-terms."""
    rp = gamma.r_prime
    reps = _coset_representatives(gamma)
    cells = []
    for order in itertools.permutations(reference_obtuse_superbase(Q)[1:]):
        pts = sorted(itertools.accumulate(
            order, lambda p, v: tuple(x + y for x, y in zip(p, v)), initial=(0,) * rp))
        # the translate whose first vertex is the representative c is canonical
        cells += [tuple(tuple(x - y + z for x, y, z in zip(p, pts[0], c)) for p in pts)
                  for c in reps]
    cells.sort()
    # the canonical cells must tile one fundamental cell
    assert sum(_cell_volumes(cells)) == gamma.det * math.factorial(rp), \
        "cells do not tile the fundamental cell"
    return cells


def _reference_cell_cone(cell, g_prime):
    """The cone over a height-1 cell with abelian block 0, sorted."""
    return tuple(sorted((0,) * g_prime + v + (1,) for v in cell))


def reference_cone_faces(cone):
    """All proper and improper faces (simplicial: every generator subset),
    each sorted."""
    cone = sorted(cone)
    for size in range(len(cone) + 1):
        yield from itertools.combinations(cone, size)


def reference_canonical_cone(cone, gamma):
    """Canonical representative of a cone (a generator tuple in any order)
    under Gamma-translation, sorted: translate so the lexicographically
    smallest generator's torus block lies in the fundamental cell (cones
    with every generator at height 1 only)."""
    cone = tuple(sorted(cone))
    if not cone or any(v[-1] != 1 for v in cone):
        return cone  # no canonical translation defined; leave as-is
    _, beta = _reduce_mod_period(cone[0][gamma.g_prime:-1], gamma)
    return translate_cone(cone, tuple(-x for x in beta), gamma)


def reference_face_set(cells, gamma):
    """toroidal._delaunay_faces one face at a time: the canonical cone of
    every face of the cone over every cell."""
    return {reference_canonical_cone(face, gamma) for cell in cells
            for face in reference_cone_faces(_reference_cell_cone(cell, gamma.g_prime))}


def reference_metric_cells(fan):
    """(the reference Delaunay cells of the fan's metric, None), a
    cospherical one triangulated as in reference_obtuse_superbase, or (None,
    why it has none)."""
    gamma, Q = fan.gamma, fan.metric
    rp = gamma.r_prime
    if rp > 3:  # obtuse superbases need not exist, and the steps differ
        return None, "Delaunay cells are computed for r' <= 3 only"
    if any(Q[i][j] != Q[j][i] for i in range(rp) for j in range(i)):
        return None, "metric is not symmetric"
    # first: the Selling loop need not end on an indefinite form
    if not is_positive_definite(Q):
        return None, "metric is not positive definite"
    return reference_delaunay_cells(gamma, Q), None


def reference_delaunay_violations(fan, canon):
    """Why the fan is not the Delaunay fan of its metric (empty if it is)."""
    cells, unmet = reference_metric_cells(fan)
    if unmet:
        return [unmet]
    gamma = fan.gamma
    gp = gamma.g_prime
    violations = []
    if any(len(v) != gamma.g + 1 or any(v[:gp]) or v[-1] != 1
           for c in fan.cones for v in c):
        violations.append("a generator is not of the form (0, b, 1)")
    if {canon(c) for c in fan.maximal_cones()} \
            != {_reference_cell_cone(c, gp) for c in cells}:
        violations.append("maximal cones are not the Delaunay cells of the metric")
    return violations


def reference_validate_fan(fan):
    """The cone-by-cone certification, with a sorted tuple per face and per
    canonical form, kept as the oracle of whether a fan is ok: per-cone
    invariants, face closure, Gamma-duplicates, the ray form, the covering
    volume and the maximal cones against the cells of the metric.  Returns
    a toroidal.FanReport in the texts of that pass."""
    gamma = fan.gamma
    gp, rp = gamma.g_prime, gamma.r_prime
    violations = []
    non_regular = []
    canon = functools.cache(functools.partial(reference_canonical_cone, gamma=gamma))
    canon_seen = {}
    for idx, cone in enumerate(fan.cones):
        gens = tuple(sorted(cone))
        if gens:  # the zero cone takes only the duplicate check
            for v in gens:
                if len(v) != gamma.g + 1:
                    violations.append(f"cone {idx}: generator dimension != g+1")
                    continue
                if math.gcd(*v) != 1:
                    violations.append(f"cone {idx}: non-primitive generator {v}")
                if v[-1] < 0:
                    violations.append(f"cone {idx}: negative height generator {v}")
            index = minor_gcd(gens)
            if index == 0:
                violations.append(
                    f"cone {idx}: generators dependent (not simplicial / not strongly convex)")
            if all(v[-1] == 0 for v in gens):
                violations.append(f"cone {idx}: contained in N x {{0}}")
            # regularity: generators extend to a basis of the saturated span lattice
            if index > 1:
                non_regular.append(idx)
        # Gamma-duplicates
        c = canon(cone)
        if c in canon_seen:
            violations.append(
                f"cone {idx}: Gamma-duplicate of cone {canon_seen[c]}")
        else:
            canon_seen[c] = idx
    # face closure up to Gamma
    fan_canon = {canon(c) for c in fan.cones}
    for idx, cone in enumerate(fan.cones):
        for face in reference_cone_faces(cone):
            if canon(face) not in fan_canon:
                violations.append(f"cone {idx}: missing face {face}")
    # every cone is a face of a maximal cone, up to Gamma
    max_faces = {canon(face) for c in fan.maximal_cones() for face in reference_cone_faces(c)}
    for idx, cone in enumerate(fan.cones):
        if canon(cone) not in max_faces:
            violations.append(f"cone {idx}: not a face of a maximal cone")
    # ray condition
    for idx, cone in enumerate(fan.cones):
        if len(cone) == 1:
            (v,) = cone
            if any(x != 0 for x in v[:gp]) or v[-1] != 1:
                violations.append(f"ray {idx}: not of the form (0, b, 1): {v}")
    # covering / invariance proxy: maximal height-1 cells tile a fundamental
    # cell (a cone with a generator of the wrong length is reported above)
    max_cones = [c for c in fan.cones if len(c) == rp + 1
                 and all(len(v) == gamma.g + 1 for v in c)]
    if all(all(v[-1] == 1 for v in c) for c in max_cones):
        vols = _cell_volumes([[v[gp:gp + rp] for v in c] for c in max_cones])
        total = sum(vols)
        covol = gamma.det * math.factorial(rp)
        if 0 in vols:
            violations.append("degenerate maximal cell")
        elif total != covol:
            violations.append(
                f"height-1 cells do not tile the fundamental cell "
                f"(volume {total}/{math.factorial(rp)} vs covolume {covol}/{math.factorial(rp)}): "
                "Gamma-invariance/covering violated")
    violations += reference_delaunay_violations(fan, canon)
    return FanReport(tuple(violations), tuple(non_regular))


def reference_fan_report(fan):
    """The FanReport that toroidal.validate_fan gives, from the reference
    face set and canonical cones: the metric's reason alone if it has no
    cells; else, cone by cone, a generator of a length other than g + 1 or
    a canonical form outside the face set (each "not a cone of the Delaunay
    fan of the metric") or seen before ("Gamma-duplicate of cone j"), then
    every face no cone stands for, by dimension and generators ("missing
    cone"); and, if any, every cone of g + 1-coordinate generators whose
    maximal minors have a gcd above 1."""
    gamma = fan.gamma
    cells, unmet = reference_metric_cells(fan)
    if unmet:
        return FanReport((unmet,), ())
    faces = reference_face_set(cells, gamma)
    long_enough = [all(len(v) == gamma.g + 1 for v in c) for c in fan.cones]
    violations, seen = [], {}
    for idx, cone in enumerate(fan.cones):
        c = reference_canonical_cone(cone, gamma) if long_enough[idx] else None
        if c in seen:
            violations.append(f"cone {idx}: Gamma-duplicate of cone {seen[c]}")
            continue
        if c is not None:
            seen[c] = idx
        if c not in faces:
            violations.append(f"cone {idx}: not a cone of the Delaunay fan of the metric")
    violations += [f"missing cone {c}" for c in sorted(faces.difference(seen),
                                                       key=lambda c: (len(c), c))]
    if not violations:
        return FanReport((), ())
    return FanReport(tuple(violations), tuple(
        idx for idx, c in enumerate(fan.cones) if long_enough[idx] and minor_gcd(c) > 1))


def reference_section_extends(n_phi, fan):
    """toroidal.section_extends on the reference certification: refused with
    the first violation of reference_fan_report."""
    gamma = fan.gamma
    n_phi = tuple(int(x) for x in n_phi)
    if len(n_phi) != gamma.g:
        raise DimensionError("n_phi must have g coordinates")
    violations = reference_fan_report(fan).violations
    if violations:
        raise ContractError(f"not the Delaunay fan of its metric: {violations[0]}")
    return not any(n_phi[:gamma.g_prime])


def reference_nakamura_data(M):
    """(B, W, GammaData) of toroidal.monodromy_to_B and nakamura_data, on
    IntMatrix throughout, kept as the reference: unipotence by 2g successive
    products, definiteness by one IntMatrix determinant per leading minor,
    and W B W^T and rank B computed once more for the GammaData."""
    g = M.rows // 2
    N = M - IntMatrix.identity(2 * g)
    power = IntMatrix.identity(2 * g)
    for _ in range(2 * g):
        power = power @ N
    if power != IntMatrix.zero(2 * g, 2 * g):
        raise ContractError("monodromy is not unipotent: pass a unipotent power M^n")
    if any(M[i, j] != int(i == j) or M[g + i, j] or M[g + i, g + j] != int(i == j)
           for i in range(g) for j in range(g)):
        raise ContractError("monodromy is not in the block shape [[I, B], [0, I]]")
    B = IntMatrix.from_rows([[M[i, g + j] for j in range(g)] for i in range(g)])
    if B != B.transpose():
        raise ContractError("period translation matrix is not symmetric")
    T, k = kernel_completion(B)
    pivot_cols = [next(j for j, x in enumerate(row) if x) for row in fraction_rref(T[:k])]
    units = IntMatrix.identity(g).to_rows()
    W = IntMatrix.from_rows(T[:k] + [units[j] for j in range(g) if j not in pivot_cols])
    if abs(W.det()) != 1:
        W = IntMatrix.from_rows(T)
    WB = W @ B @ W.transpose()
    assert all(WB[i, j] == 0 for i in range(g) for j in range(g) if i < k or j < k)
    Bp = [[WB[i, j] for j in range(k, g)] for i in range(k, g)]
    if any(IntMatrix.from_rows([row[:n] for row in Bp[:n]]).det() <= 0
           for n in range(1, g - k + 1)):
        raise ContractError("period translation matrix is not positive semi-definite")
    r_prime = B.rank()
    if r_prime == 0:
        raise ContractError("non-degenerating monodromy (B = 0): no fan to build")
    return B, W, GammaData(g_prime=g - r_prime, r_prime=r_prime,
                           Bprime=IntMatrix.from_rows(Bp))


def fraction_rref(rows):
    """The non-zero rows of the reduced row echelon form of the given rows,
    in Fractions, ordered by pivot column."""
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        r += 1
    return a[:r]


# ---------------------------------------------------------------------------
# orbit closures: the numpy reference, the polarized splitting and the
# finite-order approximants; catalog: the Type I lattice
# ---------------------------------------------------------------------------

def real_matrix(lattice):
    """2g x 2g real matrix whose columns are the basis vectors in the
    coordinates (Re z_1..Re z_g, Im z_1..Im z_g)."""
    cols = []
    for v in lattice.basis:
        cols.append([z.real for z in v] + [z.imag for z in v])
    return np.array(cols, dtype=float).T


def reference_real_dual_coords(lattice, v, tol=1e-10):
    """Coordinates x with v = sum x_j e_j as a real combination of the
    lattice basis; residual-checked."""
    A = real_matrix(lattice)
    if np.linalg.cond(A) > 1e12:
        raise NumericIndeterminacyError("lattice basis is ill-conditioned")
    v = tuple(complex(z) for z in v)
    rhs = np.array([z.real for z in v] + [z.imag for z in v], dtype=float)
    x = np.linalg.solve(A, rhs)
    # hypot scales internally, where a sum of squares would overflow
    resid = math.hypot(*(A @ x - rhs))
    scale = max(1.0, math.hypot(*rhs))
    if resid > 1e-10 * scale:
        raise NumericIndeterminacyError(f"reconstruction residual {resid} too large")
    return tuple(float(t) for t in x)


def _fraction_solve(A, rhs):
    """Gauss-Jordan elimination over Q of the square A against each
    right-hand side; None when A is singular."""
    n = len(A)
    a = [[Fraction(t) for t in row] + [Fraction(b[i]) for b in rhs]
         for i, row in enumerate(A)]
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c]), None)
        if p is None:
            return None
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [[a[i][n + k] for i in range(n)] for k in range(len(rhs))]


def fraction_real_dual_coords(lattice, v):
    """(x, columns of A^-1) of abdyn.orbit.real_dual_coords as it was
    before its solve read floats as integers: every float
    as a Fraction, an exact solve over Q, each entry rounded once by
    float(Fraction), and the same checks and refusals."""
    n = 2 * lattice.g
    cols = [[z.real for z in b] + [z.imag for z in b] for b in lattice.basis]
    A = list(zip(*cols))
    v = tuple(complex(z) for z in v)
    rhs = [z.real for z in v] + [z.imag for z in v]
    solved = _fraction_solve(A, [rhs] + [[int(i == k) for i in range(n)] for k in range(n)])
    if solved is None:
        raise NumericIndeterminacyError("lattice basis is ill-conditioned")
    x, *inverse = solved
    try:
        x = tuple(float(t) for t in x)
        inverse = [[float(t) for t in col] for col in inverse]
    except OverflowError:
        raise NumericIndeterminacyError(
            "a coordinate or an entry of A^-1 is beyond the float range") from None
    norms = math.hypot(*itertools.chain(*cols)) * math.hypot(*itertools.chain(*inverse))
    if not norms <= COND_LIMIT:
        raise NumericIndeterminacyError("lattice basis is ill-conditioned")
    resid = math.hypot(*(sum(a * t for a, t in zip(row, x)) - r
                         for row, r in zip(A, rhs)))
    if not resid <= 1e-10 * max(1.0, math.hypot(*rhs)):
        raise NumericIndeterminacyError(f"reconstruction residual {resid} too large")
    return x, inverse


def reference_complex_forms(lattice, relations):
    """Rows of the matrix of the complex-linear forms u_q in the standard
    coordinates of C^g."""
    A = real_matrix(lattice)
    Ainv = np.linalg.inv(A)
    g = lattice.g

    def ell(q, v):
        """the real form l_q evaluated at a complex g-vector v"""
        rhs = np.array([z.real for z in v] + [z.imag for z in v], dtype=float)
        return float(np.dot(q, Ainv @ rhs))

    rows = []
    for rel in relations:
        q = np.array(rel.q, dtype=float)
        row = []
        for k in range(g):
            e = [0j] * g
            e[k] = 1.0 + 0j
            ie = [0j] * g
            ie[k] = 1j
            row.append(ell(q, e) - 1j * ell(q, ie))
        rows.append(row)
    return np.array(rows, dtype=complex) if rows else np.zeros((0, g), dtype=complex)


def reference_orbit_dims(lattice, alpha, height_bound=50, tol=1e-10):
    """Compute the orbit-closure report (h, s, r) for translation by alpha."""
    coords = reference_real_dual_coords(lattice, alpha, tol)
    relations = relation_lattice(coords, height_bound, tol)
    g = lattice.g
    h = 2 * g - len(relations)
    C = reference_complex_forms(lattice, relations)
    if C.shape[0] == 0:
        s = g
    else:
        sv = np.linalg.svd(C, compute_uv=False)
        rank = _rank_with_band(sv, tol)
        s = g - rank
    r = h - 2 * s
    if r < 0:
        raise NumericIndeterminacyError(
            "inconsistent (h, s): relation search and rank decision disagree")
    return OrbitReport(h=h, s=s, r=r, relations=tuple(relations),
                       dense=(h == 2 * g), totally_real=(s == 0),
                       height_bound=height_bound, tol=tol)


def _complex_subspace_basis(C, g, tol):
    """Orthonormal basis (rows) of the null space of the complex form matrix."""
    if C.shape[0] == 0:
        return np.eye(g, dtype=complex)
    u, sv, vh = np.linalg.svd(C)
    rank = _rank_with_band(sv, tol)
    return vh[rank:].conj()


def _hermitian_form(lattice):
    """The polarization's hermitian form H(v, w) = E(iv, w) + i E(v, w) as a
    g x g matrix in standard coordinates (linear in the first argument)."""
    E = np.array(lattice.polarization.to_rows(), dtype=float)
    A = real_matrix(lattice)
    Ainv = np.linalg.inv(A)
    g = lattice.g

    def E_real(v, w):
        xv = Ainv @ np.array([z.real for z in v] + [z.imag for z in v])
        xw = Ainv @ np.array([z.real for z in w] + [z.imag for z in w])
        return float(xv @ E @ xw)

    H = np.zeros((g, g), dtype=complex)
    basis = np.eye(g, dtype=complex)
    for a in range(g):
        for b in range(g):
            v, w = basis[a], basis[b]
            H[a, b] = E_real(1j * v, w) + 1j * E_real(v, w)
    return H


def _sublattice_in_subspace(lattice, proj_perp, tol):
    """Integer combinations of the lattice basis lying in a complex subspace
    (those annihilated by the projection onto its orthocomplement), found by
    LLL with 1/tol scaling.  Returns the integer coefficient vectors."""
    g2 = 2 * lattice.g
    scale = round(1.0 / tol)
    tails = []
    for v in lattice.basis:
        w = proj_perp @ np.array(v, dtype=complex)
        tails.append([w.real, w.imag])
    dim_t = 2 * proj_perp.shape[0]
    rows = []
    for i in range(g2):
        row = [0] * g2
        row[i] = 1
        flat = np.concatenate(tails[i])
        row += [_round_scaled(scale, t) for t in flat]
        rows.append(row)
    reduced = lll_reduce(rows)
    coeffs = []
    for row in reduced:
        q = row[:g2]
        tail = row[g2:]
        if all(x == 0 for x in q):
            continue
        # exact residual check in float
        vec = sum(np.array(lattice.basis[i], dtype=complex) * q[i] for i in range(g2))
        resid = float(np.linalg.norm(proj_perp @ vec))
        if resid < 100 * tol * max(1.0, float(np.linalg.norm(vec))):
            coeffs.append(q)
    return [coeffs[i] for i in _independent(coeffs)]


def split_A_B(lattice, alpha, height_bound=50, tol=1e-10):
    """Split the ambient polarized torus along the orbit closure of alpha:
    A = maximal complex subspace of the closure's tangent space, B = its
    polarization-orthogonal complement; alpha = a + b along the splitting.
    Returns (A_basis, B_basis, a, b) with the bases as orthonormal complex
    row matrices, and asserts that translation by a is dense on the induced
    subtorus of A and translation by b has totally real closure in B."""
    if lattice.polarization is None:
        raise ContractError("split_A_B needs a polarization")
    g = lattice.g
    coords = reference_real_dual_coords(lattice, alpha, tol)
    relations = relation_lattice(coords, height_bound, tol)
    C = reference_complex_forms(lattice, relations)
    A_basis = _complex_subspace_basis(C, g, tol)  # s rows
    s = A_basis.shape[0]
    H = _hermitian_form(lattice)
    # B = H-orthogonal complement of A: w with H(a_i, w) = 0 for all i
    if s == 0:
        B_basis = np.eye(g, dtype=complex)
    elif s == g:
        B_basis = np.zeros((0, g), dtype=complex)
    else:
        # H(a_i, w) = a_i^T H w-bar?  With H linear in the first argument and
        # antilinear in the second: H(a, w) = sum a_j H[j,k] conj(w_k).
        Mcond = A_basis @ H  # rows: k -> coefficient of conj(w_k)
        _, sv, vh = np.linalg.svd(Mcond)
        rank = _rank_with_band(sv, tol)
        B_basis = vh[rank:]  # null space of conj(w) -> conjugate back
        B_basis = B_basis.conj()
    # split alpha
    stack = np.vstack([A_basis, B_basis]).T  # g x g complex
    coeffs = np.linalg.solve(stack, np.array(alpha, dtype=complex))
    a_vec = (A_basis.T @ coeffs[:s]) if s else np.zeros(g, dtype=complex)
    b_vec = np.array(alpha, dtype=complex) - a_vec
    # assert the structure on the induced subtori
    if s > 0:
        subA = _induced_sublattice(lattice, A_basis, tol)
        repA = orbit_dims(subA, tuple((A_basis.conj() @ a_vec).tolist()),
                          height_bound, tol)
        if not repA.dense:
            raise NumericIndeterminacyError("A-component is not dense on its subtorus")
    if s < g:
        subB = _induced_sublattice(lattice, B_basis, tol)
        repB = orbit_dims(subB, tuple((B_basis.conj() @ b_vec).tolist()),
                          height_bound, tol)
        if not repB.totally_real:
            raise NumericIndeterminacyError("B-component closure is not totally real")
    return A_basis, B_basis, tuple(a_vec.tolist()), tuple(b_vec.tolist())


def _induced_sublattice(lattice, sub_basis, tol):
    """NumericLattice induced on a complex subspace (orthonormal row basis):
    lattice points inside the subspace, in subspace coordinates."""
    s = sub_basis.shape[0]
    g = lattice.g
    # orthocomplement projector
    P = np.eye(g, dtype=complex) - sub_basis.T @ sub_basis.conj()
    # reduce the projector to its row space for the tail coordinates
    u, sv, vh = np.linalg.svd(P)
    rank = int(sum(sv > 0.5))  # projector: singular values are 0/1
    proj = vh[:rank].conj() if rank else np.zeros((0, g), dtype=complex)
    coeffs = _sublattice_in_subspace(lattice, proj, tol)
    if len(coeffs) != 2 * s:
        raise NumericIndeterminacyError(
            f"sublattice rank {len(coeffs)} != 2s = {2 * s}: raise the height bound")
    new_basis = []
    for q in coeffs:
        vec = sum(np.array(lattice.basis[i], dtype=complex) * q[i]
                  for i in range(2 * g))
        new_basis.append(tuple((sub_basis.conj() @ vec).tolist()))
    # restrict the polarization exactly (integer congruence)
    pol = None
    if lattice.polarization is not None:
        Q = IntMatrix.from_rows(coeffs)
        pol = Q @ lattice.polarization @ Q.transpose()
    return NumericLattice(g=s, basis=tuple(new_basis), polarization=pol)


@dataclass(frozen=True)
class Approximant:
    denominator: int
    beta: tuple      # Fractions
    distance: float  # sup-norm distance to alpha
    extends: bool    # B . beta integral (the section-extension condition)

    def to_json_dict(self):
        return {"denominator": self.denominator,
                "beta": [str(x) for x in self.beta],
                "distance": self.distance, "extends": self.extends}


def finite_order_approximations(alpha_pi_coords, denominators, B, tol=1e-9):
    """Rational approximants of a translation vector expressed in the basis
    of the lattice of its invariant subtorus: for each denominator q,
    beta = round(q * alpha)/q, tagged with the extension condition
    B . beta in Z^g (checked exactly on the rationals when shapes allow)."""
    coords = [float(x) for x in alpha_pi_coords]
    out = []
    for q in denominators:
        if q < 1:
            raise ContractError("denominators must be >= 1")
        beta = tuple(Fraction(round(q * x), q) for x in coords)
        distance = max(abs(float(bx) - x) for bx, x in zip(beta, coords)) \
            if coords else 0.0
        extends = False
        if B is not None and B.cols == len(beta):
            image = [sum(B[i, j] * beta[j] for j in range(B.cols))
                     for i in range(B.rows)]
            extends = all(x.denominator == 1 for x in image)
        out.append(Approximant(denominator=int(q), beta=beta,
                               distance=float(distance), extends=extends))
    return out


def _minpoly_from_embeddings(embeddings, tol=1e-6):
    """Recover the integer minimal polynomial prod (T - iota_j(mu)) from the
    real embeddings of a totally real algebraic unit."""
    coeffs = np.poly(list(embeddings))  # descending, float
    ints = [round(c) for c in coeffs]
    if any(abs(c - i) > tol for c, i in zip(coeffs, ints)):
        raise ContractError("embeddings do not round to an integer polynomial")
    p = IntPolynomial(list(reversed(ints)))
    if not p.is_monic():
        raise ContractError("embeddings do not define a monic polynomial")
    return p


def type_I_lattice(Z, unit_embeddings, tol=1e-8):
    """The Type I family datum: for e totally real embeddings and period
    matrices Z_1..Z_e (complex symmetric l x l, positive imaginary part), the
    lattice spanned by lambda_z(alpha, beta) = (alpha_1 Z_1 + beta_1, ...)
    over a Z-basis of O_K^l + O_K^l (O_K realized as Z[mu]), the polarization
    E(v, w) = sum_j Im(v_j (Im Z_j)^{-1} conj(w_j)) as an integer matrix on
    that basis, and the integer matrix of the diagonal unit action
    (mu_1 I_l, ..., mu_e I_l).

    Returns (NumericLattice, automorphism IntMatrix)."""
    e = len(Z)
    Zs = [np.atleast_2d(np.array(zj, dtype=complex)) for zj in Z]
    l = Zs[0].shape[0]
    for zj in Zs:
        if zj.shape != (l, l):
            raise ContractError("all Z_j must be l x l")
        if not np.allclose(zj, zj.T, atol=tol):
            raise ContractError("Z_j must be symmetric")
        if np.linalg.eigvalsh(zj.imag).min() <= 0:
            raise ContractError("Im Z_j must be positive definite")
    if len(unit_embeddings) != e:
        raise ContractError("need one embedding per Z_j")
    minpoly = _minpoly_from_embeddings(unit_embeddings)
    if minpoly.coeffs[0] not in (1, -1):
        raise ContractError("embeddings are not those of a unit")
    g = l * e
    # Z-basis of O_K^l + O_K^l: (mu^s e_m) in the alpha block, then the beta
    # block, s = 0..e-1, m = 0..l-1.  Embedding into C^g, coordinates grouped
    # by j (blocks of size l).
    basis = []
    powers = [[iota ** s for s in range(e)] for iota in unit_embeddings]
    for s in range(e):
        for m in range(l):
            vec = np.zeros(g, dtype=complex)
            for j in range(e):
                vec[j * l:(j + 1) * l] += powers[j][s] * Zs[j][:, m]
            basis.append(tuple(vec.tolist()))
    for s in range(e):
        for m in range(l):
            vec = np.zeros(g, dtype=complex)
            for j in range(e):
                vec[j * l + m] += powers[j][s]
            basis.append(tuple(vec.tolist()))
    # polarization on the basis, rounded from the analytic formula and
    # verified integral
    imZinv = [np.linalg.inv(zj.imag) for zj in Zs]

    def E_form(v, w):
        total = 0.0
        for j in range(e):
            vj = np.array(v[j * l:(j + 1) * l])
            wj = np.array(w[j * l:(j + 1) * l])
            total += float(np.imag(vj @ imZinv[j] @ wj.conj()))
        return total

    n = 2 * g
    Erows = []
    for i in range(n):
        row = []
        for k in range(n):
            val = E_form(basis[i], basis[k])
            r = round(val)
            if abs(val - r) > 1e-6:
                raise ContractError(
                    f"polarization is not integral on the basis: E[{i},{k}] = {val}")
            row.append(r)
        Erows.append(row)
    E = IntMatrix.from_rows(Erows)
    lattice = NumericLattice(g=g, basis=tuple(basis), polarization=E)
    # automorphism: multiplication by mu on both O_K^l blocks
    comp = IntMatrix.companion(minpoly) if minpoly.degree > 1 \
        else IntMatrix.from_rows([[-minpoly.coeffs[0]]])
    # mu acts on the (s, m) basis by the companion structure in s, identity in m
    block = _tensor_with_identity(comp, l)
    auto = IntMatrix.block_diag(block, block)
    return lattice, auto


def _tensor_with_identity(C, l):
    """Kronecker product C (x) I_l as an IntMatrix."""
    e = C.rows
    rows = [[0] * (e * l) for _ in range(e * l)]
    for s in range(e):
        for t in range(e):
            if C[s, t] == 0:
                continue
            for m in range(l):
                rows[s * l + m][t * l + m] = C[s, t]
    return IntMatrix.from_rows(rows)

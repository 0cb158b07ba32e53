"""Shared test helpers: random unimodular matrices, exact inverses, a
reference LLL, brute-force Delaunay cells, and the numeric degree-growth
oracle (exterior-power norm sequences and their growth fit)."""

import math
import random
from fractions import Fraction

import numpy as np

from abdyn.errors import ContractError, DimensionError
from abdyn.exactalg import IntMatrix

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
    mat = C.to_numpy()
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

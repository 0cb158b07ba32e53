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
analytic modulus), which is what the numeric oracle computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .exactalg import (IntMatrix, char_poly, eigenvalue_moduli, expand_moduli,
                       kronecker_is_roots_of_unity, quasi_unipotent_order,
                       unipotent_index)

GROWTH_WINDOW = 12  # window of fit_growth's peak and window-smoothed fits


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
        if self.g > 0:
            if self.u_A_rat is None or self.u_A_rat.rows != 2 * self.g \
                    or self.u_A_rat.cols != 2 * self.g:
                raise DimensionError("u_A_rat must be 2g x 2g")

    def validate(self, tol=1e-9):
        """Check the lattice-automorphism and doubled-moduli invariants."""
        if self.r > 0 and abs(self.u_T.det()) != 1:
            raise ContractError("u_T must have det +/-1")
        if self.g > 0:
            if abs(self.u_A_rat.det()) != 1:
                raise ContractError("u_A_rat must have det +/-1")
            for _, mult in eigenvalue_moduli(char_poly(self.u_A_rat), tol):
                if mult % 2 != 0:
                    raise ContractError(
                        "u_A_rat moduli are not a doubled multiset: "
                        "not a rational representation of an abelian part")
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


def _torus_moduli(aut, tol):
    if aut.r == 0:
        return []
    return expand_moduli(eigenvalue_moduli(char_poly(aut.u_T), tol))


def _abelian_moduli(aut, tol):
    """Descending analytic moduli: half of the doubled rational-rep multiset."""
    if aut.g == 0:
        return []
    out = []
    for mod, mult in eigenvalue_moduli(char_poly(aut.u_A_rat), tol):
        out.extend([mod] * (mult // 2))
    return out


def _unipotent_index_of_power(M):
    """Unipotent index after passing to the unipotent power of M."""
    if M is None or M.rows == 0:
        return 0
    n0 = quasi_unipotent_order(M)
    assert n0 is not None
    return unipotent_index(M ** n0)


def semiabelian_degrees(aut, tol=1e-9):
    """The full degree profile of the automorphism, by the closed formula."""
    aut.validate(tol)
    taus = _torus_moduli(aut, tol)
    alphas = _abelian_moduli(aut, tol)
    r, g = aut.r, aut.g
    # exact unit-degree detection: both characteristic polynomials cyclotomic
    all_unit = ((r == 0 or kronecker_is_roots_of_unity(char_poly(aut.u_T))) and
                (g == 0 or kronecker_is_roots_of_unity(char_poly(aut.u_A_rat))))
    lambdas = []
    for j in range(r + g + 1):
        if all_unit:
            lambdas.append(1.0)
            continue
        best = 0.0
        for l in range(max(0, j - g), min(j, r) + 1):
            k = j - l  # abelian slots
            val = math.prod(taus[:l]) * math.prod(alphas[:k]) ** 2
            best = max(best, val)
        lambdas.append(best)
    lambdas[0] = 1.0
    lambdas[-1] = 1.0
    # clean up float fuzz at unit entries
    lambdas = [1.0 if abs(x - 1.0) <= 10 * tol else x for x in lambdas]
    exponents = [None] * (r + g + 1)
    exponents[0] = 0
    exponents[-1] = 0
    if all_unit:
        lam1, d = first_degree_data(aut, tol)
        assert lam1 == 1.0
        if r + g >= 1:
            exponents[1] = d
    return DegreeProfile(tuple(lambdas), tuple(exponents))


def first_degree_data(aut, tol=1e-9):
    """(lambda_1, d): the first dynamical degree, and when lambda_1 = 1
    (decided exactly via the cyclotomic test) the integer d with
    deg_1(f^n) ~ n^d, namely d = max{j_T - 1, 2(j_A - 1)} for the unipotent
    indices of the torus and abelian parts (taken on the unipotent power;
    parts without eigenvalue 1 contribute index 0 and the max is clamped at
    0 since degrees never decay)."""
    aut.validate(tol)
    unit_T = aut.r == 0 or kronecker_is_roots_of_unity(char_poly(aut.u_T))
    unit_A = aut.g == 0 or kronecker_is_roots_of_unity(char_poly(aut.u_A_rat))
    if unit_T and unit_A:
        j_T = _unipotent_index_of_power(aut.u_T) if aut.r else 0
        j_A = _unipotent_index_of_power(aut.u_A_rat) if aut.g else 0
        d = max(j_T - 1, 2 * (j_A - 1), 0)
        return 1.0, d
    taus = _torus_moduli(aut, tol)
    alphas = _abelian_moduli(aut, tol)
    lam1 = max([taus[0] if taus else 1.0, alphas[0] ** 2 if alphas else 1.0])
    return lam1, None


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

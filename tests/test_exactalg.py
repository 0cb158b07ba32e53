"""Exact polynomial / matrix algebra tests (values frozen from independent
hand computation or construction oracles)."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from sympy.matrices import normalforms
from sympy.polys.domains import QQ, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import hermite_normal_form
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from abdyn import exactalg
from abdyn.errors import ContractError, DimensionError
from abdyn.criteria import decide_regularizable
from abdyn.exactalg import (ONE, IntMatrix, IntPolynomial, char_poly, char_poly_split,
                            cyclotomic, cyclotomic_orders, cyclotomic_split,
                            eigenvalue_moduli, image_lattice, is_positive_definite,
                            kernel_completion, minor_gcd, poly_gcd, squarefree_decomposition)
from abdyn.serialize import family_descriptor_from_json
from abdyn.toroidal import GammaData, _reduce_mod_period, translation_regularizable
from util import (check_saturated, count_spectrum_runs, kernel_lattice, nakamura_data,
                  kronecker_is_roots_of_unity, mat_vec, numpy_roots_moduli,
                  quasi_unipotent_order, random_unimodular, reference_cyclotomic_split,
                  reference_image_lattice, reference_kernel_completion, solve, to_numpy,
                  unipotent_index)

GOLDEN2 = IntMatrix.from_rows([[2, 1], [1, 1]])
ROT4 = IntMatrix.from_rows([[0, -1], [1, 0]])


def P(*coeffs):
    return IntPolynomial(list(coeffs))


# --- char_poly ---------------------------------------------------------------

def test_char_poly_golden():
    assert char_poly(GOLDEN2) == P(1, -3, 1)  # T^2 - 3T + 1


def test_char_poly_identity():
    for n in (1, 2, 4):
        assert char_poly(IntMatrix.identity(n)) == P(-1, 1) ** n


def test_char_poly_rotation():
    assert char_poly(ROT4) == P(1, 0, 1)  # T^2 + 1


def test_char_poly_nonsquare():
    with pytest.raises(DimensionError):
        char_poly(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_spectrum_is_kept_on_its_object_only(monkeypatch):
    """char_poly and the cyclotomic split run once per object and are kept
    on it: an equal but distinct matrix or polynomial computes its own (no
    cache keyed by value), and equality, hashing and repr ignore what is
    kept."""
    counts = count_spectrum_runs(monkeypatch)
    A = IntMatrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 2]])
    B = IntMatrix.from_rows(A.to_rows())
    seen = (A == B, hash(A) == hash(B), repr(A) == repr(B))
    cp = char_poly(A)
    assert char_poly(A) is cp and counts["berkowitz"] == 1
    assert char_poly(B) == cp and char_poly(B) is not cp and counts["berkowitz"] == 2
    assert (A == B, hash(A) == hash(B), repr(A) == repr(B)) == seen == (True,) * 3
    q = IntPolynomial(cp.coeffs)
    split = cyclotomic_split(cp)
    assert split == (P(1, 0, 1), P(-2, 1), {4: 1})
    assert cyclotomic_split(cp) is split and counts["split"] == 1
    assert char_poly_split(A) == (cp, *split) and counts["split"] == 1
    assert cyclotomic_split(q) == split and counts["split"] == 2
    assert (q == cp, hash(q) == hash(cp), repr(q) == repr(cp)) == (True,) * 3
    assert counts == {"berkowitz": 2, "split": 2}


def test_char_poly_matches_numpy_on_random_matrices():
    import numpy as np
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randrange(2, 6)
        M = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(n)]
                                 for _ in range(n)])
        cp = char_poly(M)
        numeric = np.poly(to_numpy(M))  # descending
        exact = list(reversed([float(c) for c in cp.coeffs]))
        assert all(abs(a - b) < 1e-6 * max(1.0, abs(b))
                   for a, b in zip(exact, numeric))


# --- cyclotomic split / Kronecker -------------------------------------------

def test_split_already_cyclotomic():
    Pc, Q, _ = cyclotomic_split(P(1, -1, 1))  # Phi_6
    assert Pc == P(1, -1, 1) and Q.is_one()


def test_split_cyclotomic_free_quadratic():
    Pc, Q, _ = cyclotomic_split(P(1, -3, 1))
    assert Pc.is_one() and Q == P(1, -3, 1)


def test_split_mixed_cubic():
    # T^3 - 4T^2 + 4T - 1 = (T - 1)(T^2 - 3T + 1)
    Pc, Q, _ = cyclotomic_split(P(-1, 4, -4, 1))
    assert Pc == P(-1, 1) and Q == P(1, -3, 1)


def test_is_cyclotomic_free():
    assert cyclotomic_split(P(1, -3, 1))[0].is_one()
    assert not cyclotomic_split(P(1, 0, 1))[0].is_one()
    assert cyclotomic_split(P(1))[0].is_one()  # constant 1: empty root set


def test_kronecker():
    assert kronecker_is_roots_of_unity(P(-1, 1) ** 2 * P(1, 1))  # (T-1)^2 (T+1)
    assert not kronecker_is_roots_of_unity(P(1, -3, 1))
    assert kronecker_is_roots_of_unity(P(1, 0, -1, 0, 1))  # Phi_12
    with pytest.raises(ContractError):
        kronecker_is_roots_of_unity(P(0, 1))  # zero constant term


def test_cyclotomic_matches_sympy():
    x = sympy.Symbol("x")
    for m in range(1, 301):
        want = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert cyclotomic(m).coeffs == tuple(int(c) for c in want)


def test_cyclotomic_orders_are_all_m_with_small_totient():
    """phi(m) >= sqrt(m / 2) bounds the m to scan for the reference."""
    for degree in [*range(20), 40]:
        want = tuple((m, int(sympy.totient(m))) for m in range(1, 2 * degree ** 2 + 2)
                     if sympy.totient(m) <= degree)
        assert cyclotomic_orders(degree) == want


# Irreducible, cyclotomic-free: Salem (Lehmer's), Pisot, non-reciprocal,
# and constant terms other than +-1
SPLIT_FREE = (P(1, -3, 1), P(-1, -1, 0, 1), P(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1),
              P(-2, 0, 1), P(1, 1, 1), P(3, 0, 0, 1), P(-1, -1, 1), P(5, 0, 0, 0, 1))


SPLIT_ORDERS = {tuple(cyclotomic(m).coeffs): m for m in range(1, 61)}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 60), max_size=3),
       st.lists(st.sampled_from(SPLIT_FREE), max_size=2))
def test_split_matches_sympy_factor_list(ms, free):
    """The split of a product of cyclotomic polynomials and cyclotomic-free
    factors: its cyclotomic part and the {m: multiplicity} of its factors,
    in ascending m, are those of sympy's factorization."""
    p = ONE
    for f in [cyclotomic(m) for m in ms] + free:
        p = p * f
    got_P, got_Q, orders = cyclotomic_split(p)
    x = sympy.Symbol("x")
    want_P, want_orders = sympy.Integer(1), {}
    for f, e in sympy.factor_list(sum(c * x ** i for i, c in enumerate(p.coeffs)))[1]:
        f = sympy.Poly(f, x)
        if f.is_cyclotomic:
            want_orders[SPLIT_ORDERS[tuple(int(c) for c in f.all_coeffs()[::-1])]] = e
            want_P *= f.as_expr() ** e
    want = sympy.Poly(want_P, x).all_coeffs()[::-1]
    assert got_P.coeffs == tuple(int(c) for c in want)
    assert got_P * got_Q == p
    assert orders == want_orders and list(orders) == sorted(orders)


def test_split_of_high_degree_unipotent_charpoly_is_fast():
    """decide on (T - 1)^400 at g = 200: the split stops once the
    cyclotomic-free part is 1, and builds no Phi_m of too high a degree."""
    desc = {"g": 200, "charpoly": [str(c) for c in (P(-1, 1) ** 400).coeffs], "r": 1}
    t0 = time.perf_counter()
    verdict = decide_regularizable(family_descriptor_from_json(desc))
    assert time.perf_counter() - t0 < 1.0
    assert verdict.status == "Undetermined"


@st.composite
def cyclotomic_products(draw):
    ms = draw(st.lists(st.integers(1, 12), min_size=0, max_size=3))
    p = IntPolynomial([1])
    for m in ms:
        p = p * cyclotomic(m)
    # cyclotomic-free tail: T^2 - aT +/- 1 with |a| >= 3 has a root off the
    # unit circle (construction oracle)
    if draw(st.booleans()):
        a = draw(st.integers(3, 9)) * draw(st.sampled_from((1, -1)))
        c = draw(st.sampled_from((1, -1)))
        p = p * IntPolynomial([c, -a, 1])
    return p, ms


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cyclotomic_products())
def test_split_reassembly_and_idempotence(data):
    p, _ = data
    Pc, Q, _ = cyclotomic_split(p)
    assert Pc * Q == p
    Pc2 = cyclotomic_split(Q)[0] if Q.degree >= 1 else IntPolynomial([1])
    assert Pc2.is_one()
    if Pc.degree >= 1:
        assert kronecker_is_roots_of_unity(Pc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(1, 30), st.integers(1, 3)), max_size=3),
       st.lists(st.lists(st.integers(-6, 6), min_size=1, max_size=4), max_size=2))
def test_split_matches_plain_trial_division(powers, tails):
    """The values at 2 and 3 only skip divisions that would fail: the split
    of a product of cyclotomic powers Phi_m^k and arbitrary monic integer
    factors (zero constant terms and cyclotomic ones included) is the one
    plain trial division gives, orders in the same order."""
    p = ONE
    for m, k in powers:
        p = p * cyclotomic(m) ** k
    for tail in tails:
        p = p * IntPolynomial(tail + [1])
    if p.degree < 1:
        p = P(-2, 1)
    got, want = cyclotomic_split(p), reference_cyclotomic_split(p)
    assert (got[0], got[1], list(got[2].items())) == (want[0], want[1], list(want[2].items()))


# --- unipotent index / quasi-unipotent order ---------------------------------

def test_unipotent_index():
    assert unipotent_index(IntMatrix.identity(3)) == 1
    assert unipotent_index(IntMatrix.from_rows([[1, 1], [0, 1]])) == 2
    assert unipotent_index(IntMatrix.companion(P(-1, 1) ** 3)) == 3
    # no eigenvalue 1: convention 0
    assert unipotent_index(GOLDEN2) == 0


def test_unipotent_index_bounded_by_multiplicity():
    rng = random.Random(3)
    for _ in range(10):
        k = rng.randrange(1, 4)
        M = IntMatrix.block_diag(IntMatrix.companion(P(-1, 1) ** k), ROT4)
        cp = char_poly(M)
        mult = 0
        q = cp
        while True:
            quo, rem = q.divmod_monic(P(-1, 1))
            if not rem.is_zero():
                break
            mult += 1
            q = quo
        assert 1 <= unipotent_index(M) <= mult


def test_char_poly_matches_sympy():
    """char_poly against sympy's charpoly on seeded integer matrices up to
    10 x 10; every third one is singular (a rank-deficient product)."""
    rng = random.Random(37)
    singular = 0
    for trial in range(60):
        n = rng.randint(1, 10)
        if trial % 3 == 0:
            A = _low_rank(rng, n, n, r=rng.randint(0, n - 1))
        else:
            A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        expected = sympy.Matrix(A).charpoly().all_coeffs()  # descending
        assert list(reversed(char_poly(IntMatrix.from_rows(A)).coeffs)) == expected, A
        singular += expected[-1] == 0
    assert singular >= 20


def test_quasi_unipotent_order():
    assert quasi_unipotent_order(ROT4) == 4
    assert quasi_unipotent_order(IntMatrix.from_rows([[1, 1], [0, 1]])) == 1
    assert quasi_unipotent_order(GOLDEN2) is None


# --- kernel lattices ----------------------------------------------------------

def test_kernel_lattice_full():
    lat = kernel_lattice(P(-1, 1), IntMatrix.identity(3))
    assert len(lat) == 3
    assert check_saturated(lat)


def test_kernel_lattice_rank_one():
    lat = kernel_lattice(P(-1, 1), IntMatrix.from_rows([[1, 0], [0, -1]]))
    assert len(lat) == 1
    assert lat[0] in ((1, 0), (-1, 0))


def test_kernel_lattice_block():
    M = IntMatrix.block_diag(IntMatrix.companion(P(1, 0, 1)),
                             IntMatrix.companion(P(1, -3, 1)))
    lat = kernel_lattice(P(1, -3, 1), M)
    assert len(lat) == 2
    assert all(v[0] == 0 and v[1] == 0 for v in lat)
    assert check_saturated(lat)


def _hnf(rows):
    """sympy's Hermite normal form of the lattice spanned by integer rows."""
    return normalforms.hermite_normal_form(sympy.Matrix(rows).T)


def test_kernel_lattice_matches_sympy():
    """Z^n intersect ker K against sympy: the sympy nullspace, cleared of
    denominators, lies in the lattice (same HNF with and without it); the
    basis has the nullity as rank, lies in ker K, and has invariant factors
    all 1 (saturated).  Together these pin the lattice down."""
    rng = random.Random(41)
    nullities = set()
    for trial in range(60):
        n = rng.randint(1, 10)
        r = n if trial % 10 == 0 else 0 if trial % 10 == 1 else rng.randint(0, n)
        K = _low_rank(rng, n, n, r=r)
        lat = kernel_lattice(P(0, 1), IntMatrix.from_rows(K))  # p(M) = M
        S = sympy.Matrix(K)
        null = [list(v.T * sympy.ilcm(*[x.q for x in v], 1)) for v in S.nullspace()]
        nullities.add((len(lat) == 0, len(lat) == n))
        assert len(lat) == len(null), K
        if not null:
            continue
        basis = [list(v) for v in lat]
        assert all(x == 0 for v in basis for x in S * sympy.Matrix(v)), K
        assert set(normalforms.invariant_factors(sympy.Matrix(basis))) == {1}, K
        assert _hnf(basis + null) == _hnf(basis), K
        T, k = kernel_completion(IntMatrix.from_rows(K))
        assert k == len(lat) and tuple(map(tuple, T[:k])) == lat
        assert abs(sympy.Matrix(T).det()) == 1
    assert nullities == {(True, False), (False, False), (False, True)}


def _zz(rows):
    """The integer rows as a sympy DomainMatrix over ZZ."""
    return DomainMatrix([[ZZ(x) for x in row] for row in rows], (len(rows), len(rows[0])), ZZ)


def test_kernel_completion_at_n_20_to_40_matches_the_full_input_construction():
    """The invariant lattices of split at n = 20-40: L0 = Z^n intersect
    ker P(u) and L1 = Z^n intersect ker Q(u), for u a product of 3n random
    elementary matrices.  For K = P(u) and Q(u), the kernel rows L of
    kernel_completion(K) satisfy K L^T = 0, have the factor's degree as
    rank, come from a T with |det T| = 1, and span the lattice that LLL of
    [c K^T | I] on K itself gives (equal sympy HNF).  sympy's DomainMatrix
    keeps this to a few seconds, where sympy.Matrix takes minutes at n = 40."""
    for n, seed in ((20, 1), (30, 2), (30, 5), (40, 3), (40, 4)):
        u = random_unimodular(n, random.Random(seed), 10 ** 9, 3 * n)
        _, P_, Q_, _ = char_poly_split(u)
        assert P_.degree and Q_.degree
        for factor in (P_, Q_):
            K = factor.eval_matrix(u)
            T, k = kernel_completion(K)
            L = T[:k]
            assert k == factor.degree
            assert (_zz(K.to_rows()) * _zz(L).transpose()).is_zero_matrix
            assert _zz(L).convert_to(QQ).rank() == factor.degree
            assert abs(_zz(T).det()) == 1
            T_ref, k_ref = reference_kernel_completion(K)
            assert k_ref == k
            assert (hermite_normal_form(_zz(L).transpose())
                    == hermite_normal_form(_zz(T_ref[:k]).transpose()))


def test_kernel_completion_eliminates_once(monkeypatch):
    """One kernel_completion call runs _bareiss once, for both the rank and
    the echelon rows, and never IntMatrix.rank; also when c is squared."""
    bareiss_runs, lll_runs = [], []
    bareiss, lll = exactalg._bareiss, exactalg.lll_reduce

    def counting_bareiss(a, ncols):
        bareiss_runs.append(ncols)
        return bareiss(a, ncols)

    def counting_lll(rows):
        lll_runs.append(len(rows))
        return lll(rows)

    def no_rank(self):
        raise AssertionError("kernel_completion called IntMatrix.rank")

    monkeypatch.setattr(exactalg, "_bareiss", counting_bareiss)
    monkeypatch.setattr(exactalg, "lll_reduce", counting_lll)
    monkeypatch.setattr(IntMatrix, "rank", no_rank)
    rng = random.Random(47)
    for K in ([[0, 0], [0, 0]], [[1, 2], [3, 4]], [[1, 2, 3]], [[2, 4, 6], [1, 2, 3]],
              *(_low_rank(rng, rng.randint(1, 6), rng.randint(1, 6)) for _ in range(30)),
              [[1, 1 << 40]]):  # kernel row (1 << 40, -1): c = 2^16 finds no kernel row
        bareiss_runs.clear()
        lll_runs.clear()
        kernel_completion(IntMatrix.from_rows(K))
        assert bareiss_runs == [len(K[0])], K
    assert len(lll_runs) == 2  # c = 2^16, then 2^32 finds it


def test_minor_gcd_matches_sympy_invariant_factors():
    """minor_gcd is the product of the invariant factors (0 below full row
    rank) on random k x m matrices, many with a gcd above 1."""
    rng = random.Random(43)
    seen = set()
    for trial in range(150):
        k, m = rng.randint(1, 5), rng.randint(1, 6)
        A = (_low_rank(rng, k, m) if trial % 3
             else [[rng.randint(-6, 6) for _ in range(m)] for _ in range(k)])
        factors = normalforms.invariant_factors(sympy.Matrix(A))
        expected = math.prod(factors) if len(factors) == k and all(factors) else 0
        got = minor_gcd(A)
        assert got == expected, A
        seen.add(min(got, 2))
    assert seen == {0, 1, 2}
    assert minor_gcd([]) == 1


# --- fraction-free rank, det, solve and definiteness against sympy ------------

def _low_rank(rng, m, n, rational=False, r=None):
    """An m x n matrix of rank at most r, random if not given (product of
    integer m x r and r x n factors); with rational=True each row is scaled
    by a random positive fraction, which keeps the rank."""
    if r is None:
        r = rng.randint(0, min(m, n))
    L = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
    R = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
    A = [[sum(L[i][k] * R[k][j] for k in range(r)) for j in range(n)]
         for i in range(m)]
    if rational:
        A = [[x * Fraction(rng.randint(1, 4), rng.randint(1, 5)) for x in row]
             for row in A]
    return A


def _sympy_unique_solution(A, b):
    """sympy's unique solution of A x = b as Fractions, or None when the
    system is inconsistent or has free parameters."""
    try:
        x, params = sympy.Matrix(A).gauss_jordan_solve(sympy.Matrix(b))
    except ValueError:  # inconsistent
        return None
    if params.shape[0]:
        return None
    return [Fraction(int(v.p), int(v.q)) for v in x]


def test_rank_and_det_match_sympy():
    rng = random.Random(31)
    for _ in range(120):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.4:
            n = m
        if rng.random() < 0.5:
            A = _low_rank(rng, m, n, rational=False)
        else:
            A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        M, S = IntMatrix.from_rows(A), sympy.Matrix(A)
        assert M.rank() == S.rank(), A
        if m == n:
            assert M.det() == S.det(), A


def test_solve_matches_sympy():
    rng = random.Random(32)
    nones = uniques = 0
    for _ in range(120):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.5:
            m = rng.randint(n, 6)  # square or overdetermined
        A = _low_rank(rng, m, n, rational=rng.random() < 0.5) \
            if rng.random() < 0.5 else \
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        x0 = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        consistent = [sum(a * x for a, x in zip(row, x0)) for row in A]
        arbitrary = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m)]
        for b, x in zip((consistent, arbitrary), solve(A, consistent, arbitrary)):
            expected = _sympy_unique_solution(A, b)
            assert x == expected, (A, b)
            nones += x is None
            uniques += x is not None
    # both outcomes, including overdetermined consistent systems, occur
    assert nones > 30 and uniques > 30


def test_solve_small_systems():
    A = [[1, 0], [0, 1], [1, 1]]
    assert solve(A, [1, 2, 3], [1, 2, 4]) == [[1, 2], None]
    assert solve([[1, 2], [2, 4]], [1, 2]) == [None]  # rank 1 < 2 columns
    assert solve([[Fraction(1, 2)]], [Fraction(1, 3)]) == [[Fraction(2, 3)]]


def test_is_positive_definite_matches_sympy():
    rng = random.Random(33)
    seen = set()
    for _ in range(80):
        n = rng.randint(1, 6)
        B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        shift = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        Q = [[sum(B[k][i] * B[k][j] for k in range(n)) + (shift if i == j else 0)
              for j in range(n)] for i in range(n)]
        if rng.random() < 0.5:
            Q = [[x * Fraction(1, 7) for x in row] for row in Q]
        expected = sympy.Matrix(Q).is_positive_definite
        assert is_positive_definite(Q) == expected, Q
        seen.add(expected)
    assert seen == {True, False}


def _sympy_leading_minors_positive(Q):
    """Sylvester's criterion by sympy determinants of the leading minors."""
    S = sympy.Matrix(len(Q), len(Q), [sympy.Rational(x.numerator, x.denominator)
                                      for row in Q for x in row])
    return all(S[:k, :k].det() > 0 for k in range(1, len(Q) + 1))


@st.composite
def symmetric_matrices(draw):
    """Symmetric n x n matrices (n = 0..4) of ints or Fractions with entries
    up to about 10^30: a random symmetric matrix (mostly indefinite), a
    Gram matrix A^T A plus a shift (definite, semidefinite or indefinite),
    or a Gram matrix of fewer rows than columns (semidefinite), each
    optionally congruent by a positive rational diagonal."""
    n = draw(st.integers(0, 4))
    size = draw(st.sampled_from([3, 10 ** 6, 10 ** 15]))
    entry = st.integers(-size, size)
    kind = draw(st.sampled_from(["symmetric", "gram", "semidefinite"]))
    if kind == "symmetric":
        Q = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                Q[i][j] = Q[j][i] = draw(entry) * draw(st.sampled_from([1, size]))
    else:
        k = draw(st.integers(0, max(n - 1, 0))) if kind == "semidefinite" else n
        A = [[draw(entry) for _ in range(n)] for _ in range(k)]
        shift = draw(st.integers(-3, 3)) if kind == "gram" else 0
        Q = [[sum(A[t][i] * A[t][j] for t in range(k)) + (shift if i == j else 0)
              for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        d = [Fraction(draw(st.integers(1, 10 ** 6)), draw(st.integers(1, 10 ** 6)))
             for _ in range(n)]
        Q = [[d[i] * x * d[j] for j, x in enumerate(row)] for i, row in enumerate(Q)]
    return Q


@settings(max_examples=300, deadline=None, derandomize=True)
@given(symmetric_matrices())
@example([])
@example([[0, 1], [1, 0]])
@example([[0, 0], [0, 1]])
@example([[1, 0], [0, 0]])
@example([[1, 1], [1, 1]])
@example([[Fraction(1, 3), 1], [1, 3]])
@example([[Fraction(1, 3), 1], [1, 3 + Fraction(1, 10 ** 30)]])
@example([[10 ** 30, 10 ** 30 - 1], [10 ** 30 - 1, 10 ** 30 - 2]])
@example([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]])
@example([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]])
def test_is_positive_definite_matches_sympy_leading_minors(Q):
    """The one-pass Bareiss pivots decide definiteness exactly as sympy's
    leading principal minors do, for ints, Fractions and huge entries."""
    Qf = [[Fraction(x) for x in row] for row in Q]
    assert is_positive_definite(Q) == _sympy_leading_minors_positive(Qf), Q


@settings(max_examples=200, deadline=None, derandomize=True)
@given(symmetric_matrices())
@example([[2, 1], [1, 2]])
@example([[-1, 0], [0, -1]])
@example([[1, 2], [2, 1]])
def test_definite_adjugate_matches_sympy(Q):
    """The one pass over [A | I] of GammaData, on A = Q times the lcm of
    its denominators: None exactly when sympy's leading principal minors
    are not all positive (det A > 0 is not enough, as for -I), else det A
    and adj(A) as sympy computes them."""
    assume(Q)
    D = math.lcm(*(Fraction(x).denominator for row in Q for x in row))
    A = [[int(Fraction(x) * D) for x in row] for row in Q]
    got = exactalg._definite_adjugate(A)
    if _sympy_leading_minors_positive([[Fraction(x) for x in row] for row in A]):
        S = sympy.Matrix(A)
        assert got == (S.det(), S.adjugate().tolist())
    else:
        assert got is None


@st.composite
def minor_gcd_rows(draw):
    """k x m integer rows, 1 <= k <= m <= 5: random, dependent (a product
    through fewer than k rows) or non-regular (a product by a k x k matrix
    of determinant other than +-1)."""
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, m))
    entry = st.integers(-draw(st.sampled_from([2, 9, 10 ** 6])),
                        draw(st.sampled_from([2, 9, 10 ** 6])))
    kind = draw(st.sampled_from(["random", "dependent", "non-regular"]))
    r = draw(st.integers(0, k - 1)) if kind == "dependent" else k
    R = [[draw(entry) for _ in range(m)] for _ in range(r)]
    if kind == "random":
        return R
    L = [[draw(st.integers(-4, 4)) for _ in range(r)] for _ in range(k)]
    return [[sum(L[i][t] * R[t][j] for t in range(r)) for j in range(m)] for i in range(k)]


@settings(max_examples=250, deadline=None, derandomize=True)
@given(minor_gcd_rows())
@example([[0, 0]])
@example([[2, 4], [1, 3]])
@example([[2, 0, 0], [0, 2, 0]])
@example([[1, 2, 3], [2, 4, 6]])
@example([[6, 10, 15]])
def test_minor_gcd_matches_sympy_maximal_minors(A):
    """minor_gcd is the gcd of every k x k minor of the k x m rows (sympy
    determinants), 0 exactly on dependent rows."""
    k, m = len(A), len(A[0])
    S = sympy.Matrix(A)
    minors = [int(S.extract(list(range(k)), list(cols)).det())
              for cols in itertools.combinations(range(m), k)]
    assert minor_gcd(A) == math.gcd(*minors), A


# B of every fan in the benchmark's fan corpus
FAN_BS = ([[[n]] for n in range(1, 7)]
          + [[[2, 1], [1, 3]], [[1, 0], [0, 1]], [[2, 1], [1, 2]],
             [[2, 1, 0], [1, 2, 0], [0, 0, 0]],
             [[2, 1, 0], [1, 2, 1], [0, 1, 2]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]])


def _random_pd_bprimes(rng, count):
    """Seeded positive definite B' = A^T A + I with r' = 2, 3, a non-zero
    off-diagonal entry and det > 1."""
    out = []
    while len(out) < count:
        n = rng.choice((2, 3))
        A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        B = [[sum(A[k][i] * A[k][j] for k in range(n)) + int(i == j)
              for j in range(n)] for i in range(n)]
        if any(B[i][j] for i in range(n) for j in range(n) if i != j) \
                and sympy.Matrix(B).det() > 1:
            out.append(B)
    return out


def _period_gammas():
    """GammaData of every fan B of the benchmark corpus, then of seeded
    random B'."""
    for B in FAN_BS:
        g = len(B)
        yield nakamura_data(IntMatrix.from_rows(
            [[int(i == j) for j in range(g)] + B[i] for i in range(g)]
            + [[0] * g + [int(i == j) for j in range(g)] for i in range(g)]))
    for B in _random_pd_bprimes(random.Random(35), 12):
        yield GammaData(g_prime=0, r_prime=len(B), Bprime=IntMatrix.from_rows(B))


def test_reduce_mod_period_matches_sympy():
    rng = random.Random(34)
    for gamma in _period_gammas():
        Bp = sympy.Matrix(gamma.Bprime.to_rows())
        Binv = Bp.inv()
        for _ in range(10):
            b = tuple(rng.randint(-12, 12) for _ in range(gamma.r_prime))
            x = sympy.Matrix([b]) * Binv
            beta = tuple(int(sympy.floor(v)) for v in x)
            b0 = tuple(bi - s for bi, s in zip(b, sympy.Matrix([beta]) * Bp))
            assert _reduce_mod_period(b, gamma) == (b0, beta)


def test_translation_regularizable_matches_sympy():
    """N is the least N >= 1 with N * b * B'^-1 integral, and N * b = beta * B'."""
    rng = random.Random(36)
    for gamma in _period_gammas():
        Bp = sympy.Matrix(gamma.Bprime.to_rows())
        Binv = Bp.inv()
        for _ in range(10):
            b = tuple(rng.randint(-12, 12) for _ in range(gamma.r_prime))
            N, beta = translation_regularizable((0,) * gamma.g_prime + b, gamma)[0]
            x = sympy.Matrix([b]) * Binv
            assert all((N * v).is_integer for v in x)
            assert not any(all((m * v).is_integer for v in x) for m in range(1, N))
            assert list(sympy.Matrix([beta]) * Bp) == [N * bi for bi in b]


# --- eigenvalue moduli --------------------------------------------------------

def test_moduli_golden():
    mods = eigenvalue_moduli(P(1, -3, 1))
    assert len(mods) == 2
    assert abs(mods[0][0] - 2.6180339887) < 1e-9 and mods[0][1] == 1
    assert abs(mods[1][0] - 0.3819660113) < 1e-9 and mods[1][1] == 1


def test_moduli_cyclotomic_exact():
    assert eigenvalue_moduli(P(1, -1, 1)) == [(1.0, 2)]


def test_moduli_split_linear():
    mods = eigenvalue_moduli(P(2, -3, 1))  # (T-2)(T-1)
    assert [(round(m, 9), k) for m, k in mods] == [(2.0, 1), (1.0, 1)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=5),
       st.sampled_from((1, -1)))
def test_moduli_product_equals_constant_term(mid, const):
    p = IntPolynomial([const] + mid + [1])
    prod = math.prod(m ** k for m, k in eigenvalue_moduli(p))
    assert abs(prod - abs(const)) < 1e-6 * max(1.0, abs(const))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=5), min_size=1,
                max_size=3),
       st.integers(1, 2))
@example([[0], [1, -3]], 2)   # T^2 (T^2 - 3T + 1)^2
def test_moduli_are_those_of_numpy_roots(tails, power):
    """eigenvalue_moduli builds numpy.roots's companion matrix itself: on the
    cyclotomic-free part Q of a product of monic factors (zero roots and
    repeated factors included) its moduli are bit for bit those of
    numpy.roots on the squarefree factors of Q, grouped the same way."""
    p = ONE
    for tail in tails:
        p = p * IntPolynomial(tail + [1]) ** power
    _, Q, _ = cyclotomic_split(p)
    assume(Q.degree >= 1)
    want = []
    for mod, mult in numpy_roots_moduli(Q):
        for grp in want:
            if abs(grp[0] - mod) <= 1e-9 * max(1.0, abs(grp[0])):
                grp[1] += mult
                break
        else:
            want.append([float(mod), mult])
    assert eigenvalue_moduli(Q) == [(m, k) for m, k in sorted(want, key=lambda g: -g[0])]


# --- dense kernels and the gcd, differentially against sympy -----------------

BIG = 10 ** 30
T = sympy.Symbol("T")


def _sym(M):
    return sympy.Matrix(M.rows, M.cols, list(M.entries))


def _sym_poly(p):
    return sympy.Poly.from_list(list(reversed(p.coeffs)), T)


def _ascending(poly):
    return tuple(int(c) for c in reversed(poly.all_coeffs())) if not poly.is_zero else ()


@st.composite
def int_matrices(draw, rows, cols, bound=BIG):
    entries = draw(st.lists(st.integers(-bound, bound), min_size=rows * cols,
                            max_size=rows * cols))
    return IntMatrix(rows, cols, entries)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10), st.data())
def test_matmul_and_mat_vec_match_sympy(m, k, n, data):
    A, B = data.draw(int_matrices(m, k)), data.draw(int_matrices(k, n))
    AB = A @ B
    assert (AB.rows, AB.cols) == (m, n)
    assert AB.entries == tuple(int(x) for x in _sym(A) * _sym(B))
    v = data.draw(st.lists(st.integers(-BIG, BIG), min_size=k, max_size=k))
    assert mat_vec(A, v) == tuple(int(x) for x in _sym(A) * sympy.Matrix(k, 1, v))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 6), st.integers(0, 13), st.data())
def test_powers_match_sympy(n, k, data):
    M = data.draw(int_matrices(n, n, 10 ** 6))
    assert (M ** k).entries == tuple(int(x) for x in _sym(M) ** k)
    p = IntPolynomial(data.draw(st.lists(st.integers(-BIG, BIG), max_size=5)))
    assert (p ** k).coeffs == _ascending(_sym_poly(p) ** k)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10), st.lists(st.integers(-BIG, BIG), max_size=6), st.data())
def test_eval_matrix_matches_sympy_horner(n, coeffs, data):
    M = data.draw(int_matrices(n, n))
    p = IntPolynomial(coeffs)
    S, acc = _sym(M), sympy.zeros(n, n)
    for c in reversed(p.coeffs):
        acc = acc * S + c * sympy.eye(n)
    got = p.eval_matrix(M)
    assert (got.rows, got.cols) == (n, n)
    assert got.entries == tuple(int(x) for x in acc)


def test_eval_matrix_runs_one_product_less_than_its_degree(monkeypatch):
    """Horner from lead * M: a degree-d polynomial at an n x n matrix runs
    max(d - 1, 0) _mat_mul calls (the zero polynomial has degree -1)."""
    calls = []
    mat_mul = exactalg._mat_mul

    def counting(rows, cols):
        calls.append(len(rows))
        return mat_mul(rows, cols)

    monkeypatch.setattr(exactalg, "_mat_mul", counting)
    for n in (0, 1, 3):
        M = IntMatrix(n, n, range(n * n))
        for degree in range(-1, 7):
            calls.clear()
            IntPolynomial(range(1, degree + 2)).eval_matrix(M)
            assert len(calls) == max(degree - 1, 0), (n, degree)


@st.composite
def ranked_matrices(draw):
    """An n x m integer matrix of rank r, for r from 0 to n and m >= r (so
    m != n too): the product of an n x r factor, whose rows are those of
    I_r and n - r rows with entries within 2^40 / r, with an r x m factor
    [I_r | D] with D in {-1, 0, 1}; the rows of the first and the columns
    of the second are permuted."""
    n = draw(st.integers(0, 6))
    r = draw(st.integers(0, n))
    m = draw(st.integers(r, n + 2))
    unit = [[int(i == j) for j in range(r)] for i in range(r)]
    A = draw(st.permutations(unit + draw(int_matrices(n - r, r, (1 << 40) // max(r, 1))).to_rows()))
    B = [row + draw(int_matrices(1, m - r, 1)).to_rows()[0] for row in unit]
    order = draw(st.permutations(range(m)))
    return IntMatrix(n, r, [x for row in A for x in row]) @ IntMatrix(
        r, m, [row[j] for row in B for j in order])


@example(IntMatrix(3, 4, [0] * 12))
@example(IntMatrix(3, 0, []))
@example(IntMatrix(0, 2, []))
@example(IntMatrix.identity(4))
@example(IntMatrix.from_rows([[1 << 40 if i == j else (7 * i + 3 * j) % 5 - 2 for j in range(7)]
                              for i in range(6)]))
@example(IntMatrix.from_rows([[1 << 40, 3, 5, 7, 11], [2, 1 << 39, 1, 0, 0],
                              [0, 1, 1, 1, -(1 << 40)]]))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(ranked_matrices())
def test_image_lattice_matches_the_kernel_completion_of_its_null_space(K):
    """image_lattice(K), whose null rows of K^T come in echelon form, gives
    row for row the basis of reference_image_lattice, which eliminates K's
    columns left to right and runs kernel_completion on the null rows: the
    printed split bases rest on it."""
    event(f"rank {K.rank()} of {K.rows}")
    got = image_lattice(K)
    assert len(got) == K.rank()
    assert got == reference_image_lattice(K)


# small factors over Z, monic or not, with repeats drawn below
GCD_FACTORS = ((-1, 1), (1, 1), (1, 1, 1), (1, -3, 1), (-1, -1, 0, 1), (3, 2), (1, 0, 5),
               (2, -1, 3))


@st.composite
def factored_polynomials(draw):
    """0, a constant, or a content times a product of drawn factors."""
    kind = draw(st.sampled_from(["zero", "constant", "product", "product"]))
    if kind == "zero":
        return IntPolynomial([])
    p = IntPolynomial([draw(st.sampled_from([1, -1, 2, -6, 12, 10 ** 20]))])
    if kind == "product":
        for f in draw(st.lists(st.sampled_from(GCD_FACTORS), max_size=6)):
            p = p * IntPolynomial(f)
    return p


@settings(max_examples=150, deadline=None, derandomize=True)
@given(factored_polynomials(), factored_polynomials())
def test_poly_gcd_matches_sympy(p, q):
    """The primitive gcd with a positive leading coefficient; monic when an
    input is monic."""
    g = poly_gcd(p, q)
    _, expected = sympy.gcd(_sym_poly(p), _sym_poly(q)).primitive()
    if not expected.is_zero and expected.LC() < 0:
        expected = -expected
    assert g.coeffs == _ascending(expected)
    if p.is_monic() or q.is_monic():
        assert g.is_monic()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([f for f in GCD_FACTORS if f[-1] == 1]), min_size=1,
                max_size=8))
def test_squarefree_decomposition_matches_sympy(factors):
    p = IntPolynomial([1])
    for f in factors:
        p = p * IntPolynomial(f)
    _, expected = sympy.sqf_list(_sym_poly(p))
    got = squarefree_decomposition(p)
    assert sorted((f.coeffs, i) for f, i in got) == \
        sorted((_ascending(f), i) for f, i in expected)

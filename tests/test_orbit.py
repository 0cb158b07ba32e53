"""Orbit-closure analyzer tests."""

import math
import random
from fractions import Fraction

import pytest
from sympy import Matrix, Rational
from sympy.matrices.normalforms import hermite_normal_form

from abdyn import exactalg
from abdyn.errors import ContractError, DimensionError
from abdyn.exactalg import IntMatrix
from abdyn.orbit import (NumericLattice, lll_reduce, orbit_dims, real_dual_coords,
                         relation_lattice)
from util import finite_order_approximations, reference_lll, split_A_B

SQRT2, SQRT3, SQRT5 = math.sqrt(2), math.sqrt(3), math.sqrt(5)


def square_lattice():
    return NumericLattice(g=1, basis=((1,), (1j,)))


def std_polarization(g):
    rows = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        rows[i][g + i] = 1
        rows[g + i][i] = -1
    return IntMatrix.from_rows(rows)


def test_real_dual_coords_examples():
    lat = square_lattice()
    assert max(abs(x - y) for x, y in
               zip(real_dual_coords(lat, (1,))[0], (1.0, 0.0))) < 1e-12
    got = real_dual_coords(lat, (0.5 + 0.25j,))[0]
    assert max(abs(x - y) for x, y in zip(got, (0.5, 0.25))) < 1e-12
    assert max(abs(x) for x in real_dual_coords(lat, (0,))[0]) < 1e-12


@pytest.mark.parametrize("alpha", [(0.5,), (0.5, 0.25j, 0.125)])
def test_alpha_of_the_wrong_length_is_refused(alpha):
    """A g = 2 lattice with an alpha of 1 or 3 coordinates: the solve and
    the report both raise DimensionError, where a short alpha used to end
    in an IndexError and a long one in a report from mixed coordinates."""
    lat = NumericLattice(g=2, basis=[(1, 0), (0, 1), (1j, 0), (0, 1j)])
    for analyze in (real_dual_coords, orbit_dims):
        with pytest.raises(DimensionError, match="alpha must have g coordinates"):
            analyze(lat, alpha)


def test_relation_lattice_sqrt2():
    rels = relation_lattice((SQRT2, 0.0))
    assert len(rels) == 1
    q = rels[0].q
    assert q in ((0, 1), (0, -1)) and rels[0].q_prime == 0


def test_relation_lattice_rationals():
    rels = relation_lattice((0.5, 1 / 3))
    assert len(rels) == 2


def test_relation_lattice_independent_irrationals():
    assert relation_lattice((SQRT2, SQRT3), height_bound=100) == []


def test_orbit_dims_examples():
    lat = square_lattice()
    rep = orbit_dims(lat, (0.5,))
    assert (rep.h, rep.s, rep.r) == (0, 0, 0) and not rep.dense
    rep = orbit_dims(lat, (SQRT2,))
    assert (rep.h, rep.s, rep.r) == (1, 0, 1) and rep.totally_real
    rep = orbit_dims(lat, (SQRT2 + SQRT3 * 1j,))
    assert (rep.h, rep.s, rep.r) == (2, 1, 0) and rep.dense


def test_report_arithmetic_and_serialization():
    rep = orbit_dims(square_lattice(), (SQRT2,))
    assert rep.r == rep.h - 2 * rep.s and 2 * rep.s <= rep.h
    doc = rep.to_json_dict()
    assert doc["h"] == 1 and len(doc["relations"]) == 1


def test_scaling_never_increases_h():
    rng = random.Random(13)
    lat = square_lattice()
    samples = [(0.25,), (SQRT2,), (SQRT2 + SQRT3 * 1j,),
               (rng.random() + rng.random() * 1j,)]
    for alpha in samples:
        h1 = orbit_dims(lat, alpha).h
        for m in (2, 3):
            scaled = tuple(m * z for z in alpha)
            assert orbit_dims(lat, scaled).h <= h1


def test_split_A_B_product_lattice():
    # product of the square lattice and the hexagonal lattice
    w = (1 + 1j * SQRT3) / 2
    basis = ((1, 0), (0, 1), (1j, 0), (0, w))
    lat = NumericLattice(g=2, basis=basis, polarization=std_polarization(2))
    alpha = (SQRT2 + SQRT3 * 1j, SQRT5)
    A_basis, B_basis, a, b = split_A_B(lat, alpha)
    assert len(A_basis) == 1 and len(B_basis) == 1
    # A is the first factor (dense direction), B the second (totally real)
    assert abs(A_basis[0][1]) < 1e-8 and abs(B_basis[0][0]) < 1e-8
    assert abs(a[0] - alpha[0]) < 1e-8 and abs(b[1] - alpha[1]) < 1e-8


def test_split_A_B_extreme_cases():
    lat = NumericLattice(g=1, basis=((1,), (1j,)),
                         polarization=std_polarization(1))
    A_basis, B_basis, a, b = split_A_B(lat, (SQRT2 + SQRT3 * 1j,))
    assert len(A_basis) == 1 and len(B_basis) == 0
    A_basis, B_basis, a, b = split_A_B(lat, (SQRT2,))
    assert len(A_basis) == 0 and len(B_basis) == 1


def test_split_A_B_requires_polarization():
    with pytest.raises(ContractError):
        split_A_B(square_lattice(), (SQRT2 + SQRT3 * 1j,))


def test_finite_order_approximations():
    B = IntMatrix.identity(1)
    approx = finite_order_approximations((1 / 3,), [3], B)
    assert approx[0].distance < 1e-12
    approx = finite_order_approximations((SQRT2,), [10, 100, 1000], B)
    dists = [a.distance for a in approx]
    assert dists[0] < 1 / 20 and dists[1] < 1 / 200 and dists[2] < 1 / 2000
    assert dists == sorted(dists, reverse=True)
    approx = finite_order_approximations((SQRT2, SQRT3), [7],
                                         IntMatrix.identity(2))
    assert tuple(approx[0].beta) == (Fraction(10, 7), Fraction(12, 7))
    assert approx[0].distance < 1 / 14


# ---------------------------------------------------------------------------
# LLL: differential tests against the reference, checked with sympy
# ---------------------------------------------------------------------------

def relation_rows(coords, tol=1e-10):
    """The rows relation_lattice reduces: (identity | round(x/tol)), plus
    (0 .. 0, 1, 1/tol)."""
    n = len(coords)
    scale = round(1.0 / tol)
    rows = []
    for i in range(n):
        row = [0] * (n + 1) + [round(scale * coords[i])]
        row[i] = 1
        rows.append(row)
    rows.append([0] * n + [1, scale])
    return rows


def assert_lll_reduced_basis_of(rows, reduced, delta=(99, 100)):
    """Exact checks with sympy: size-reduced (|mu_ij| <= 1/2), Lovasz
    condition at delta, and the same lattice (equal Hermite normal forms
    of the row lattices).  mu and |b*_j|^2 come from the LDL^T
    decomposition of the Gram matrix."""
    R = Matrix(reduced)
    mu, D = (R * R.T).LDLdecomposition(hermitian=False)
    n = R.rows
    assert all(abs(mu[i, j]) <= Rational(1, 2)
               for i in range(n) for j in range(i))
    d = Rational(*delta)
    for k in range(1, n):
        assert D[k, k] >= (d - mu[k, k - 1] ** 2) * D[k - 1, k - 1]
    assert hermite_normal_form(Matrix(rows).T) == hermite_normal_form(R.T)


def test_lll_matches_reference_on_relation_rows():
    rng = random.Random(2024)
    kinds = {
        "uniform": lambda: rng.uniform(-2, 2),
        "rational": lambda: rng.randint(-9, 9) / rng.randint(1, 9),
        "quadratic": lambda: (rng.randint(-3, 3) * SQRT2
                              + rng.randint(-3, 3) * SQRT3),
    }
    for n in (2, 4, 6):
        for draw in kinds.values():
            rows = relation_rows([draw() for _ in range(n)])
            got = lll_reduce(rows)
            assert got == reference_lll(rows)
            assert_lll_reduced_basis_of(rows, got)


def test_lll_matches_reference_on_small_bases_with_ties():
    rng = random.Random(7)
    cases = []
    while len(cases) < 100:
        n = rng.randint(2, 5)
        # a short first row makes mu_10 = +-1/2, +-3/2 ties common
        rows = [[rng.randint(-1, 1) for _ in range(rng.randint(n, 5))]]
        rows += [[rng.randint(-3, 3) for _ in rows[0]] for _ in range(n - 1)]
        if Matrix(rows).rank() == n:
            cases.append(rows)
    # ties are where the rounding convention decides the output
    first_mu = {Fraction(sum(x * y for x, y in zip(a, b)),
                         sum(x * x for x in a)) for a, b, *_ in cases}
    assert {Fraction(t, 2) for t in (-3, -1, 1, 3)} <= first_mu
    cases += [[[2, 0], [1, 1]], [[2, 0], [-1, 1]], [[2, 0], [3, 1]],
              [[2, 0], [-3, 1]], [[2, 0], [5, 1]]]
    for rows in cases:
        got = lll_reduce(rows)
        assert got == reference_lll(rows)
        assert_lll_reduced_basis_of(rows, got)
    # mu = 1/2 rounds to 0, not 1 as floor(x + 1/2) would
    assert lll_reduce([[2, 0], [1, 1]]) == [[1, 1], [1, -1]]


def test_lll_stops_at_its_proven_swap_bound(monkeypatch):
    """With a Lovasz constant above 1 no bound holds: the identity rows fail
    every test, and lll_reduce raises at its swap budget (70 per bit of
    each first-reached d_{k+1}, 140 here) in place of swapping forever."""
    monkeypatch.setattr(exactalg, "LLL_DELTA", Fraction(101, 100))
    with pytest.raises(AssertionError, match="proven swap bound"):
        lll_reduce([[1, 0], [0, 1]])


def test_lll_rejects_dependent_rows():
    for rows in ([[1, 2], [2, 4]], [[0, 0]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]]):
        with pytest.raises(ContractError):
            lll_reduce(rows)
    assert lll_reduce([]) == []

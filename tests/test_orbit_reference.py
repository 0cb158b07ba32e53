"""The orbit analyzer against its numpy reference: the same (h, s, r),
relations and refusals as numpy's solve, inverse and SVD, and Jacobi
singular values against numpy's SVD."""

import math
import random

import numpy as np
import pytest

from abdyn.errors import NumericIndeterminacyError
from abdyn.orbit import NumericLattice, _singular_values, orbit_dims
from util import reference_orbit_dims

SQRT2 = math.sqrt(2)


def _standard_basis(g, rng):
    return ([[complex(i == j) for i in range(g)] for j in range(g)]
            + [[1j * (i == j) for i in range(g)] for j in range(g)])


def _skew_basis(g, rng):
    """e_1..e_g, Omega e_1..Omega e_g with Omega = X + iY, X symmetric and Y
    symmetric, diagonally dominant (so positive definite)."""
    omega = [[0j] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            y = rng.uniform(1.0, 1.6) if i == j else rng.uniform(-0.2, 0.2)
            omega[i][j] = omega[j][i] = complex(rng.uniform(-0.5, 0.5), y)
    return ([[complex(i == j) for i in range(g)] for j in range(g)]
            + [[omega[i][j] for i in range(g)] for j in range(g)])


def _singular_basis(g, rng):
    """A skew basis whose last vector repeats the first, up to a relative
    1e-14 in one place when the coin says so: ill-conditioned either way."""
    basis = _skew_basis(g, rng)
    basis[-1] = list(basis[0])
    if rng.random() < 0.5:
        basis[-1][0] += 1e-14
    return basis


def _coords(kind, n, rng):
    if kind == "uniform":
        return [rng.random() for _ in range(n)]
    if kind == "rational":
        return [rng.randrange(0, 7) / rng.randrange(1, 8) for _ in range(n)]
    return [rng.randrange(0, 4) / rng.randrange(1, 4)
            + rng.choice((0, 0, 1, -1, 2)) * SQRT2 for _ in range(n)]


def _outcome(analyze, lattice, alpha):
    try:
        rep = analyze(lattice, alpha)
    except NumericIndeterminacyError as exc:
        return "refused", str(exc)
    return (rep.h, rep.s, rep.r, rep.dense, rep.totally_real,
            [(rel.q, rel.q_prime) for rel in rep.relations])


@pytest.mark.parametrize("g", [1, 2, 3])
def test_orbit_dims_matches_numpy_reference(g):
    rng = random.Random(f"orbit-reference:{g}")
    kinds = set()
    for make in (_standard_basis, _skew_basis, _singular_basis):
        for kind in ("uniform", "rational", "quadratic"):
            for _ in range(4):
                basis = make(g, rng)
                x = _coords(kind, 2 * g, rng)
                alpha = [sum(x[j] * basis[j][i] for j in range(2 * g)) for i in range(g)]
                lattice = NumericLattice(g=g, basis=basis)
                got = _outcome(orbit_dims, lattice, alpha)
                assert got == _outcome(reference_orbit_dims, lattice, alpha)
                kinds.add(got[0] if got[0] == "refused" else "report")
                if make is _singular_basis:
                    assert got == ("refused", "lattice basis is ill-conditioned")
    assert kinds == {"refused", "report"}


def _random_complex(rows, cols, rng):
    return np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(cols)]
                     for _ in range(rows)])


def _assert_singular_values_match(M):
    got = _singular_values(M.tolist())
    want = np.linalg.svd(M, compute_uv=False)
    assert len(got) == len(want)
    assert got == sorted(got, reverse=True)
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13 * want[0]
    return got, want


def test_jacobi_singular_values_match_numpy():
    rng = random.Random(11)
    for rows in range(1, 7):
        for cols in range(1, 4):
            for scale in (1.0, 2.0 ** -600, 2.0 ** 600, 3e-5):
                _assert_singular_values_match(scale * _random_complex(rows, cols, rng))
    assert _singular_values([[0j, 0j], [0j, 0j]]) == [0.0, 0.0]


@pytest.mark.parametrize("rank, rows, cols", [(1, 2, 2), (1, 3, 2), (2, 4, 3), (2, 3, 3),
                                              (1, 2, 3), (2, 6, 3)])
def test_jacobi_small_singular_values_near_rank_deficient(rank, rows, cols):
    """A rank-deficient matrix moved by 1e-9 of its size: the small singular
    values, about 1e-9 of the largest, agree with numpy to a relative 1e-4."""
    rng = random.Random(f"near-deficient:{rank}:{rows}:{cols}")
    for _ in range(20):
        M = _random_complex(rows, rank, rng) @ _random_complex(rank, cols, rng)
        E = _random_complex(rows, cols, rng)
        M = M + 1e-9 * np.linalg.norm(M, 2) / np.linalg.norm(E, 2) * E
        got, want = _assert_singular_values_match(M)
        small = want[rank:min(rows, cols)]
        assert len(small) and all(1e-11 < s / want[0] < 1e-8 for s in small)
        assert all(abs(a - b) <= 1e-4 * b for a, b in zip(got[rank:], small))

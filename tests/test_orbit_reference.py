"""The orbit analyzer against its references: the same (h, s, r),
relations and refusals as numpy's solve, inverse and SVD; Jacobi singular
values against numpy's SVD; lll_reduce and the coordinate solve against
their Fraction versions; and no Fraction on the `orbit analyze` path."""

import contextlib
import fractions
import io
import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from abdyn import exactalg
from abdyn.cli import main
from abdyn.errors import ContractError, NumericIndeterminacyError
from abdyn.exactalg import KERNEL_SCALE, IntMatrix, kernel_completion, lll_reduce
from abdyn.orbit import NumericLattice, _singular_values, orbit_dims, real_dual_coords
from util import (CYCLOTOMIC_BLOCKS, FREE_BLOCKS, block_sum, fraction_lll_reduce,
                  fraction_real_dual_coords, reference_orbit_dims,
                  solve)

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


# --- lll_reduce and real_dual_coords against their Fraction versions ------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-10 ** 6, 10 ** 6) | st.integers(-3, 3), min_size=n, max_size=n),
    min_size=1, max_size=n)))
def test_lll_rounding_matches_fraction_rounding(rows):
    """Independent rows with negative entries (small entries make ties at
    |mu| = 3/2, 5/2, ... common): the integer rounding gives the basis of
    the Fraction rounding."""
    assume(IntMatrix.from_rows(rows).rank() == len(rows))
    assert lll_reduce(rows) == fraction_lll_reduce(rows)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-10 ** 6, 10 ** 6) | st.integers(-3, 3), min_size=n + 1,
                      max_size=n + 1), min_size=n, max_size=n),
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), st.integers(0, n))))
def test_lll_refuses_dependent_rows_as_the_fraction_version_does(drawn):
    """Rows of which one, at any place, is an integer combination of the
    others (the zero row among them): lll_reduce computes the Gram data of
    a row when it first reaches it, so it refuses mid-run, with the
    ContractError that fraction_lll_reduce raises before it starts; on
    independent rows the two agree."""
    rows, coefficients, at = drawn
    combination = [sum(c * row[j] for c, row in zip(coefficients, rows))
                   for j in range(len(rows[0]))]
    dependent = rows[:at] + [combination] + rows[at:]
    for case in (dependent, rows):
        assert _lll_outcome(lll_reduce, case) == _lll_outcome(fraction_lll_reduce, case), case
    assert _lll_outcome(lll_reduce, dependent) == "lll_reduce needs linearly independent rows"


def _lll_outcome(reduce, rows):
    """The reduced rows, or the text of the ContractError raised."""
    try:
        return reduce(rows)
    except ContractError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=6))
def test_lll_rounding_matches_fraction_rounding_on_knapsack_rows(xs):
    """Knapsack rows [e_i | round(10^10 x_i)], the shape of the relation
    search."""
    n = len(xs)
    rows = [[int(i == j) for j in range(n)] + [round(1e10 * x)] for i, x in enumerate(xs)]
    assert lll_reduce(rows) == fraction_lll_reduce(rows)


@st.composite
def kernel_completion_rows(draw):
    """The rows [c E^T | I] that kernel_completion first hands to lll_reduce
    for K = F(u), F a factor of the char poly of a seeded conjugated block
    sum u of size 4..12, with c = KERNEL_SCALE or with c = 1 (small entries,
    where mu = +-1/2 ties are common); and in half the cases, one more row
    at a drawn place that is a combination of two of them."""
    n = draw(st.integers(4, 12))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    blocks = [rng.choice(FREE_BLOCKS), rng.choice(CYCLOTOMIC_BLOCKS)]
    while sum(p.degree for p in blocks) < n:
        room = n - sum(p.degree for p in blocks)
        blocks.append(rng.choice([p for p in CYCLOTOMIC_BLOCKS + FREE_BLOCKS
                                  if p.degree <= room]))
    u, P, Q = block_sum([p for p in blocks if p in CYCLOTOMIC_BLOCKS],
                        [p for p in blocks if p in FREE_BLOCKS], rng.random() < 0.5,
                        rng.getrandbits(32))
    calls = []

    def capture(rows):
        calls.append([list(r) for r in rows])
        return lll_reduce(rows)

    saved = exactalg.lll_reduce
    exactalg.lll_reduce = capture
    try:
        kernel_completion(draw(st.sampled_from([P, Q])).eval_matrix(u))
    finally:
        exactalg.lll_reduce = saved
    rows = calls[0]
    if draw(st.booleans()):
        r = len(rows[0]) - n
        rows = [[x // KERNEL_SCALE for x in v[:r]] + v[r:] for v in rows]
    if draw(st.booleans()):
        i, j = rng.sample(range(n), 2)
        a, b = rng.randint(-2, 2), rng.choice((-1, 1))
        rows.insert(draw(st.integers(0, n)), [a * x + b * y for x, y in zip(rows[i], rows[j])])
    return rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kernel_completion_rows())
def test_lll_matches_fraction_lll_on_kernel_completion_rows(rows):
    """The rows of split's kernel completions, dependent ones among them:
    the same reduced rows, or the same refusal, as fraction_lll_reduce."""
    got = _lll_outcome(lll_reduce, rows)
    event("refused" if isinstance(got, str) else "reduced")
    assert got == _lll_outcome(fraction_lll_reduce, rows)


def _bits(t):
    return [float.hex(x) for x in t]


# Basis entries at the edges of the float range: A^-1 beyond it, and
# near-singular bases
SKEW_EXTREMES = (0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e-160, 1e150, 1e300, 0.5, -1.0, 1e-9)


@st.composite
def skew_lattice_and_alpha(draw):
    """A g = 1..3 basis e_1..e_g, Omega e_1..Omega e_g with random Omega
    and a random alpha; in a quarter of the cases the entries may be at the
    float edges and e_1..e_g scaled down."""
    g = draw(st.integers(1, 3))
    entry, scale = st.floats(-2, 2), 1.0
    if draw(st.integers(0, 3)) == 0:
        entry |= st.sampled_from(SKEW_EXTREMES)
        scale = draw(st.sampled_from([1.0, 1e-300, 2.0 ** -1074]))
    basis = [[complex(scale * (i == j)) for i in range(g)] for j in range(g)]
    basis += [[complex(draw(entry), draw(entry) + (i == j)) for i in range(g)]
              for j in range(g)]
    alpha = [complex(draw(entry), draw(entry)) for _ in range(g)]
    return NumericLattice(g=g, basis=basis), alpha


def _coords_outcome(solve_coords, lattice, alpha):
    try:
        x, inverse = solve_coords(lattice, alpha)
    except NumericIndeterminacyError as exc:
        return "refused", str(exc)
    return _bits(x), [_bits(col) for col in inverse]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(skew_lattice_and_alpha())
def test_real_dual_coords_match_fraction_solve(case):
    """Bit-identical x and A^-1, or the same refusal, as the solve in
    Fractions."""
    lattice, alpha = case
    got = _coords_outcome(real_dual_coords, lattice, alpha)
    event(got[1] if got[0] == "refused" else "solved")
    assert got == _coords_outcome(fraction_real_dual_coords, lattice, alpha)


TINY = NumericLattice(g=1, basis=[[5e-324], [5e-324j]])


def test_real_dual_coords_overflow_refused():
    """A basis of subnormals puts A^-1 beyond the float range: both refuse."""
    with pytest.raises(NumericIndeterminacyError, match="beyond the float range"):
        real_dual_coords(TINY, [0.5 + 0.5j])
    with pytest.raises(NumericIndeterminacyError, match="beyond the float range"):
        fraction_real_dual_coords(TINY, [0.5 + 0.5j])


def test_orbit_analyze_builds_no_fraction(monkeypatch):
    """A g = 2 `orbit analyze` on a skew lattice with relations creates no
    Fraction; the counter sees the Fractions of solve."""
    created = []
    new = fractions.Fraction.__new__

    def counting(cls, *args, **kwargs):
        created.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting)
    solve([[2, 1], [1, 1]], [1, 0])
    assert created
    created.clear()
    lattice = {"g": 2, "basis": [[[1, 0], [0, 0]], [[0, 0], [1, 0]],
                                 [[0.3, 1.1], [0.1, 0.05]], [[0.1, 0.05], [-0.2, 1.3]]]}
    alpha = [[0.7071067811865476, 0.1], [0.3333333333333333, 1.4142135623730951]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["orbit", "analyze", "--lattice", json.dumps(lattice),
                     "--alpha", json.dumps(alpha)]) == 0
    assert json.loads(out.getvalue())["result"]["relations"]
    assert created == []


def test_orbit_analyze_solves_its_coordinates_in_one_elimination(monkeypatch):
    """A g = 2 `orbit analyze` with relations runs _bareiss twice: once on
    the 4 rows [A_i m_i | v_i m_i | m_i e_i] of its coordinates (9 entries,
    4 columns eliminated), and once in _independent, on the relations' q
    parts (4 rows)."""
    calls = []
    bareiss = exactalg._bareiss

    def counting(a, ncols):
        calls.append((len(a), len(a[0]) if a else 0, ncols))
        return bareiss(a, ncols)

    for module in [m for name, m in sys.modules.items() if name.startswith("abdyn.")]:
        if getattr(module, "_bareiss", None) is bareiss:
            monkeypatch.setattr(module, "_bareiss", counting)
    lattice = {"g": 2, "basis": [[[1, 0], [0, 0]], [[0, 0], [1, 0]],
                                 [[0.3, 1.1], [0.1, 0.05]], [[0.1, 0.05], [-0.2, 1.3]]]}
    alpha = [[0.7071067811865476, 0.1], [0.3333333333333333, 1.4142135623730951]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["orbit", "analyze", "--lattice", json.dumps(lattice),
                     "--alpha", json.dumps(alpha)]) == 0
    assert json.loads(out.getvalue())["result"]["relations"]
    assert len(calls) == 2
    assert calls[0] == (4, 9, 4)
    assert calls[1][0] == 4

"""Toroidal fan tests: Gamma action, monodromy normalization, Delaunay fans,
validation, section extension, translation regularization."""

import contextlib
import io
import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import Phase, event, example, given, settings
from hypothesis import strategies as st

from abdyn import serialize, toroidal
from abdyn.cli import main
from abdyn.errors import ContractError, DimensionError
from abdyn.exactalg import IntMatrix, is_positive_definite
from abdyn.toroidal import (Fan, GammaData, _coset_representatives,
                            _delaunay_faces, _obtuse_superbase, _reduce_mod_period,
                            central_fiber_combinatorics, delaunay_fan,
                            monodromy_to_B, period_data, section_extends,
                            translation_regularizable, validate_fan)

from util import (brute_force_delaunay_cells, brute_force_delaunay_polytopes, canonical_cone,
                  epsilon_metric, fraction_rref, gamma_act, gamma_shift, nakamura_data,
                  random_unimodular,
                  reference_delaunay_cells,
                  reference_canonical_cone, reference_face_set, reference_fan_faces,
                  reference_fan_of_faces, reference_fan_report, reference_fan_to_json,
                  reference_kernel_completion, reference_nakamura_data,
                  reference_obtuse_superbase, reference_section_extends,
                  reference_validate_fan, translate_cone)


def tate_monodromy(n):
    return IntMatrix.from_rows([[1, n], [0, 1]])


def test_gamma_act_examples():
    gd = GammaData(g_prime=0, r_prime=1, Bprime=IntMatrix.from_rows([[2]]))
    assert gamma_act(gd, (3,), ((), (1,), 1)) == ((), (7,), 1)
    assert gamma_act(gd, (3,), ((), (1,), 0)) == ((), (1,), 0)
    assert gamma_act(gd, (0,), ((), (1,), 1)) == ((), (1,), 1)


def test_monodromy_to_B_tate():
    B, W = monodromy_to_B(tate_monodromy(3))
    assert B == IntMatrix.from_rows([[3]])


def test_monodromy_to_B_identity():
    B, W = monodromy_to_B(IntMatrix.identity(4))
    assert B == IntMatrix(2, 2, [0] * 4)


def test_monodromy_to_B_partial_rank():
    M = IntMatrix.from_rows([[1, 0, 0, 0],
                             [0, 1, 0, 2],
                             [0, 0, 1, 0],
                             [0, 0, 0, 1]])
    B, W = monodromy_to_B(M)
    # W B W^T = diag(0, B') with B' = [2]
    D = W @ B @ W.transpose()
    assert D == IntMatrix.from_rows([[0, 0], [0, 2]])
    gd = nakamura_data(M)
    assert gd.g_prime == 1 and gd.r_prime == 1
    assert gd.Bprime == IntMatrix.from_rows([[2]])


def block_monodromy(B):
    """The normalized unipotent monodromy [[I, B], [0, I]]."""
    g = len(B)
    return IntMatrix.from_rows([[int(i == j) for j in range(g)] + B[i] for i in range(g)]
                               + [[0] * g + [int(i == j) for j in range(g)]
                                  for i in range(g)])


@pytest.mark.parametrize("B", [[[0, 1], [1, 0]], [[1, 0], [0, -1]],
                               [[1, 0, 0], [0, -1, 0], [0, 0, 0]]])
def test_monodromy_rejects_indefinite_B(B):
    with pytest.raises(ContractError, match="not positive semi-definite"):
        monodromy_to_B(block_monodromy(B))


def test_monodromy_accepts_semidefinite_B():
    B, W = monodromy_to_B(block_monodromy([[1, 1], [1, 1]]))
    assert W @ B @ W.transpose() == IntMatrix.from_rows([[0, 0], [0, 1]])
    gd = nakamura_data(block_monodromy([[1, 1], [1, 1]]))
    assert (gd.g_prime, gd.r_prime, gd.Bprime) == (1, 1, IntMatrix.from_rows([[1]]))


def test_gamma_data_period_lattice():
    gd = GammaData(g_prime=0, r_prime=2, Bprime=IntMatrix.from_rows([[2, 1], [1, 2]]))
    assert gd.det == 3 and gd.adj == ((2, -1), (-1, 2))
    assert gamma_shift(gd, (1, -1)) == (1, -1)


def test_monodromy_rejects_non_unipotent():
    """Only the block shape [[I, B], [0, I]] is read, and it is unipotent:
    any other matrix is refused with the block that differs."""
    with pytest.raises(ContractError, match="top-left block must be the identity"):
        monodromy_to_B(IntMatrix.from_rows([[2, 1], [1, 1]]))


def test_tate_fans():
    for n in range(1, 5):
        gd = nakamura_data(tate_monodromy(n))
        fan = delaunay_fan(gd)
        assert validate_fan(fan).ok
        assert central_fiber_combinatorics(fan) == (n, n)


def test_square_lattice_fan():
    gd = GammaData(g_prime=0, r_prime=2, Bprime=IntMatrix.identity(2))
    fan = delaunay_fan(gd, seed=0)
    assert validate_fan(fan).ok
    # square fundamental cell: 1 vertex orbit, 2 triangle orbits
    assert central_fiber_combinatorics(fan) == (1, 2)


def test_fan_with_abelian_block():
    M = IntMatrix.from_rows([[1, 0, 0, 0],
                             [0, 1, 0, 2],
                             [0, 0, 1, 0],
                             [0, 0, 0, 1]])
    gd = nakamura_data(M)
    fan = delaunay_fan(gd)
    assert validate_fan(fan).ok
    # rays live in the span of Gamma.(0,1): abelian coordinate must vanish
    assert not section_extends((1, 0), fan)
    assert section_extends((0, 3), fan)


def test_validate_rejects_linear_subspace_cone():
    gd = GammaData(g_prime=0, r_prime=1, Bprime=IntMatrix.from_rows([[1]]))
    fan = delaunay_fan(gd)
    bad = Fan(cones=fan.cones + (((1, 0),), ((-1, 0),)),
              gamma=gd, metric=fan.metric)
    report = validate_fan(bad)
    assert not report.ok
    assert report.violations == ("cone 3: not a cone of the Delaunay fan of the metric",
                                 "cone 4: not a cone of the Delaunay fan of the metric")


def test_validate_detects_missing_translate():
    # drop a maximal cone: the height-1 cells no longer tile the cell
    gd = nakamura_data(tate_monodromy(2))
    fan = delaunay_fan(gd)
    top = fan.maximal_cones()[0]
    pruned = tuple(c for c in fan.cones if c != top)
    report = validate_fan(Fan(cones=pruned, gamma=gd, metric=fan.metric))
    assert not report.ok
    assert report.violations == (f"missing cone {top}",)


def test_validate_flags_degenerate_maximal_cell():
    """A maximal cone over collinear height-1 points (a cell of volume 0)
    in place of the zero cone is no cone of the fan, and the zero cone is
    missing, as in the reference."""
    gd = GammaData(g_prime=0, r_prime=2, Bprime=IntMatrix.identity(2))
    fan = delaunay_fan(gd)
    flat = ((0, 0, 1), (1, 1, 1), (2, 2, 1))
    bad = Fan(cones=(flat,) + fan.cones[1:], gamma=gd, metric=fan.metric)
    report = validate_fan(bad)
    assert report.violations == ("cone 0: not a cone of the Delaunay fan of the metric",
                                 "missing cone ()")
    assert report == reference_fan_report(bad)
    assert report.ok == reference_validate_fan(bad).ok


def test_fan_file_with_a_repeated_ray_is_refused(tmp_path, capsys):
    """A cone that lists a ray twice is refused when the file is read."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["fan", "build", "--B", "[[2]]"]) == 0
    doc = json.loads(out.getvalue())["result"]
    doc["cones"][-1] = [doc["cones"][-1][0]] * 2
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc))
    assert main(["fan", "validate", str(path)]) == 3
    assert capsys.readouterr().err == "contract error: duplicate cone generators\n"


def test_fan_file_with_two_equal_rays_in_a_cone_is_refused(tmp_path, capsys):
    """A cone that names two distinct ray indices with equal coordinates is
    refused when the file is read, as one that lists a ray twice."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["fan", "build", "--B", "[[2]]"]) == 0
    doc = json.loads(out.getvalue())["result"]
    first = doc["cones"][-1][0]
    doc["rays"].append(list(doc["rays"][first]))
    doc["cones"][-1] = [first, len(doc["rays"]) - 1]
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc))
    for argv in (["fan", "validate", str(path)], ["fan", "extends", "--nphi", "[1]", str(path)]):
        assert main(argv) == 3
        assert capsys.readouterr().err == "contract error: duplicate cone generators\n"


@pytest.mark.parametrize("g_prime, Bprime", [(0, [[2]]), (1, [[2, 1], [1, 2]])], ids=str)
def test_fan_with_reversed_generators_is_accepted(g_prime, Bprime):
    """A Fan built in Python whose cones list their generators in reverse
    order is judged up to that order: validate_fan accepts it, and
    section_extends answers as on the fan as built."""
    gd = GammaData(g_prime=g_prime, r_prime=len(Bprime), Bprime=IntMatrix.from_rows(Bprime))
    fan = delaunay_fan(gd)
    reversed_fan = Fan(cones=tuple(c[::-1] for c in fan.cones), gamma=gd, metric=fan.metric)
    assert reversed_fan.cones != fan.cones
    assert validate_fan(reversed_fan) == validate_fan(fan) == reference_fan_report(reversed_fan)
    assert validate_fan(reversed_fan).ok
    for n_phi in ((0,) * g_prime + (1,) * gd.r_prime, (1,) * g_prime + (3,) * gd.r_prime):
        assert section_extends(n_phi, reversed_fan) == section_extends(n_phi, fan) \
            == reference_section_extends(n_phi, reversed_fan)


def test_cone_with_a_repeated_generator_is_no_cone_of_the_fan():
    """A Fan built in Python may list a generator twice in one cone: such a
    cone is no face of the Delaunay fan, and is reported as one, as in the
    reference; section_extends refuses the fan with that violation."""
    gd = GammaData(g_prime=0, r_prime=1, Bprime=IntMatrix.from_rows([[2]]))
    fan = delaunay_fan(gd)
    ray = next(c for c in fan.cones if len(c) == 1)
    bad = Fan(cones=fan.cones + (ray + ray,), gamma=gd, metric=fan.metric)
    violation = f"cone {len(fan.cones)}: not a cone of the Delaunay fan of the metric"
    report = validate_fan(bad)
    assert report.violations == (violation,) and report.non_regular == ()
    assert report == reference_fan_report(bad)
    assert report.ok == reference_validate_fan(bad).ok
    with pytest.raises(ContractError, match=re.escape(
            f"not the Delaunay fan of its metric: {violation}")):
        section_extends((1,), bad)


def test_section_extends_examples():
    gd = nakamura_data(tate_monodromy(2))
    fan = delaunay_fan(gd)
    assert section_extends((0,), fan)
    assert section_extends((5,), fan)
    assert section_extends((-7,), fan)


def test_canonical_cone_idempotent_on_translates():
    gd = nakamura_data(tate_monodromy(3))
    fan = delaunay_fan(gd)
    for cone in fan.cones:
        for beta in ((1,), (-2,)):
            moved = translate_cone(cone, beta, gd)
            assert canonical_cone(moved, gd) == canonical_cone(cone, gd)


def test_translation_regularizable_examples():
    gd = GammaData(g_prime=0, r_prime=1, Bprime=IntMatrix.from_rows([[2]]))
    assert translation_regularizable((1,), gd) == ((2, (1,)), "")
    assert translation_regularizable((0,), gd) == ((1, (0,)), "")
    gd2 = GammaData(g_prime=0, r_prime=2,
                    Bprime=IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert translation_regularizable((1, 1), gd2) == ((6, (3, 2)), "")


def test_translation_regularizable_diagnostics():
    gd = GammaData(g_prime=1, r_prime=1, Bprime=IntMatrix.from_rows([[2]]))
    res, diag = translation_regularizable((1, 0), gd)
    assert res is None and "abelian" in diag


def test_translation_regularizable_needs_g_coordinates():
    gd = GammaData(g_prime=1, r_prime=1, Bprime=IntMatrix.from_rows([[2]]))
    with pytest.raises(DimensionError):
        translation_regularizable((1,), gd)  # the torus block alone


def test_metric_contract():
    gd = GammaData(g_prime=0, r_prime=2, Bprime=IntMatrix.identity(2))
    with pytest.raises(ContractError):
        delaunay_fan(gd, metric=[[Fraction(1), Fraction(2)],
                                 [Fraction(2), Fraction(1)]])  # not PD
    with pytest.raises(ContractError):
        delaunay_fan(gd, metric="random")  # random metrics come from the CLI


@pytest.mark.parametrize("r_prime, metric, reason", [
    (2, [[1, 2], [0, 1]], "metric is not symmetric"),
    (2, [[1, 2], [2, 1]], "metric is not positive definite"),
    (4, "standard", "Delaunay cells are computed for r' <= 3 only")])
def test_delaunay_fan_raises_the_reason_of_face_set(r_prime, metric, reason):
    """delaunay_fan checks its metric and r' once, through face_set, and
    raises face_set's reason as the ContractError."""
    gd = GammaData(g_prime=0, r_prime=r_prime, Bprime=IntMatrix.identity(r_prime))
    Q = IntMatrix.identity(r_prime).to_rows() if metric == "standard" else metric
    assert toroidal.face_set(gd, [[Fraction(x) for x in row] for row in Q]) == reason
    with pytest.raises(ContractError, match=f"^{re.escape(reason)}$"):
        delaunay_fan(gd, metric=metric)


def _cells(gamma, Q):
    """The Delaunay cells of Z^r' under Q, read off the face set's
    (r'+1)-faces: sorted, each a sorted tuple of height-1 vertices, the
    first in the fundamental cell."""
    rp, gp = gamma.r_prime, gamma.g_prime
    return sorted(tuple(v[gp:-1] for v in face)
                  for face in _delaunay_faces(gamma, Q) if len(face) == rp + 1)


def _generic_metric(n, rng):
    """A^T A + I for a seeded rational A: positive definite, and generic for
    the seeds used (the brute force asserts it)."""
    A = [[Fraction(rng.randint(-4, 4), rng.randint(2, 7)) for _ in range(n)]
         for _ in range(n)]
    return [[sum(A[k][i] * A[k][j] for k in range(n)) + int(i == j)
             for j in range(n)] for i in range(n)]


def test_obtuse_superbase_matches_the_fraction_reference():
    """The Selling reduction in scaled integers returns the superbase of
    the reduction in Fractions, which takes the first pair with a positive
    parameter at each step, each parameter compared as its tuple under Q,
    E_1, E_2, ..: on 400 seeded positive definite metrics of r' = 1..3, in
    ints and in Fractions, skewed ones and cospherical ones among them."""
    rng = random.Random("superbase")
    outcomes = set()
    while len(outcomes) < 400:
        n = rng.randint(1, 3)
        A = [[Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 7])) for _ in range(n)]
             for _ in range(n)]
        Q = [[sum(A[k][i] * A[k][j] for k in range(n)) + rng.randint(0, 2) * int(i == j)
              for j in range(n)] for i in range(n)]
        if rng.random() < 0.3:
            Q = [[int(x) for x in row] for row in Q]
        if not is_positive_definite(Q):
            continue
        assert _obtuse_superbase(Q) == reference_obtuse_superbase(Q), Q
        outcomes.add(repr(Q))


@pytest.mark.parametrize("Bprime", [[[2, 1], [1, 3]], [[1, 0], [0, 1]], [[2, 1], [1, 2]],
                                    [[2, 1, 0], [1, 2, 1], [0, 1, 2]],
                                    [[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
def test_selling_cells_match_brute_force(Bprime):
    """The Selling cells are the empty-circumsphere simplices found by an
    exhaustive sympy search, and they are one Gamma-fundamental set."""
    import sympy

    from abdyn.toroidal import _obtuse_superbase
    rp = len(Bprime)
    gd = GammaData(g_prime=0, r_prime=rp, Bprime=IntMatrix.from_rows(Bprime))
    inv = sympy.Matrix(Bprime).inv()
    rng = random.Random(f"selling:{Bprime}")
    for _ in range(3 if rp == 2 else 2):
        Q = _generic_metric(rp, rng)
        vs = _obtuse_superbase(Q)
        assert [sum(col) for col in zip(*vs)] == [0] * rp
        assert abs(IntMatrix.from_rows([list(v) for v in vs[1:]]).det()) == 1
        expected, volume = brute_force_delaunay_cells(Q)
        assert volume == math.factorial(rp)  # the search found a tiling
        cells = _cells(gd, Q)
        assert len(set(cells)) == len(cells) == gd.det * math.factorial(rp)
        for cell in cells:  # first vertex in the fundamental cell of B'
            assert all(0 <= x < 1 for x in inv * sympy.Matrix(cell[0]))
        at_zero = {tuple(sorted(tuple(x - y for x, y in zip(v, cell[0])) for v in cell))
                   for cell in cells}
        assert at_zero == expected


def test_random_metric_sweep_has_no_indeterminacy():
    """300 r' = 2 builds with seeded random metrics, cospherical ones among
    them: each stores its metric and tiles the fundamental cell with 2 det
    B' triangles."""
    from abdyn.cli import _random_metric
    for B in ([[2, 1], [1, 3]], [[1, 0], [0, 1]], [[2, 1], [1, 2]], [[3, 1], [1, 2]],
              [[2, 1], [1, 4]]):
        gd = GammaData(g_prime=0, r_prime=2, Bprime=IntMatrix.from_rows(B))
        for s in range(60):
            metric = _random_metric(2, s)
            fan = delaunay_fan(gd, metric=metric, seed=s)
            assert fan.metric == tuple(map(tuple, metric))
            assert len(fan.maximal_cones()) == 2 * gd.det


def _zero_parameter_metric(rp, rng):
    """U^T Q U for a seeded unimodular U and the Q under which the superbase
    (-sum e_i, e_1, .., e_r') has the Selling parameters p_ij in 0..3, one
    of them 0 at least: a positive definite small-integer metric with a
    zero Selling parameter, so a cospherical one."""
    while True:
        p = {ij: rng.randint(0, 3) for ij in itertools.combinations(range(rp + 1), 2)}
        # Q_ab = -p_ab off the diagonal, and each row of Q sums to p_0a
        Q = [[p[0, a] + sum(p[min(a, c), max(a, c)] for c in range(1, rp + 1) if c != a)
              if a == b else -p[min(a, b), max(a, b)] for b in range(1, rp + 1)]
             for a in range(1, rp + 1)]
        if 0 in p.values() and is_positive_definite(Q):
            break
    U = random_unimodular(rp, rng).to_rows()
    return [[sum(U[k][i] * Q[k][m] * U[m][j] for k in range(rp) for m in range(rp))
             for j in range(rp)] for i in range(rp)]


def _cospherical_metrics():
    rng = random.Random("cospherical")
    return ([[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
             [[1, 0], [0, Fraction(1, 100000)]]]
            + [_zero_parameter_metric(2 + n % 2, rng) for n in range(200)])


def _in_a_cell(cell, cells):
    """Whether a translate of the vertex tuple cell lies in one of cells.
    Both have 0 as their smallest vertex, so the translation takes 0 to a
    vertex of the cell it lies in."""
    return any(all(tuple(x + y for x, y in zip(v, t)) in P for v in cell)
               for P in map(set, cells) for t in P)


def test_cospherical_cells_match_brute_force_at_a_small_eps():
    """On 203 metrics with a zero Selling parameter (I2, I3, diag(1,
    1/100000), and 200 seeded small-integer ones at r' = 2 and 3): the cells
    of the face set are the brute-force Delaunay cells of Q + sum_k eps^k
    E_k at eps = 10^-6, and each lies in a Delaunay cell of Q itself, of
    which one at least is no simplex.  Each brute force runs in the basis
    of the Fraction reference, which sets its search ball only."""
    eps = Fraction(1, 10 ** 6)
    for Q in _cospherical_metrics():
        rp = len(Q)
        Q = [[Fraction(x) for x in row] for row in Q]
        gd = GammaData(g_prime=0, r_prime=rp, Bprime=IntMatrix.identity(rp))
        cells = _cells(gd, Q)
        basis = reference_obtuse_superbase(Q)[1:]
        expected, volume = brute_force_delaunay_cells(epsilon_metric(Q, eps), basis)
        assert volume == math.factorial(rp) and set(cells) == expected, Q
        own = brute_force_delaunay_polytopes(Q, basis)
        assert max(map(len, own)) > rp + 1, Q
        assert all(_in_a_cell(cell, own) for cell in cells), Q


def _with_metric(fan, metric):
    return Fan(cones=fan.cones, gamma=fan.gamma,
               metric=tuple(tuple(Fraction(x) for x in row) for row in metric))


@pytest.mark.parametrize("metric, violation", [
    ([[-1, 0], [0, 1]], "metric is not positive definite"),
    # cospherical: triangulated like [[1, e], [e, 1]] for a small e > 0
    ([[1, 0], [0, 1]], "cone 6: not a cone of the Delaunay fan of the metric"),
    ([[1, 2], [0, 1]], "metric is not symmetric"),
    # a generic metric whose triangles use the other diagonal
    ([[1, Fraction(1, 3)], [Fraction(1, 3), 1]],
     "cone 6: not a cone of the Delaunay fan of the metric")])
def test_fan_certified_against_its_metric(metric, violation):
    """A metric with no cells is the one violation; against a metric with
    other cells, a cospherical one among them, the cones on the other
    diagonal are named first and the missing ones last."""
    gd = GammaData(g_prime=0, r_prime=2, Bprime=IntMatrix.from_rows([[2, 1], [1, 2]]))
    fan = delaunay_fan(gd, metric=[[1, Fraction(-1, 3)], [Fraction(-1, 3), 1]])
    assert validate_fan(fan).ok and section_extends((1, 1), fan)
    bad = _with_metric(fan, metric)
    report = validate_fan(bad)
    assert report.violations[0] == violation
    assert report.violations[-1] == (violation if not violation.startswith("cone")
                                     else "missing cone ((2, 2, 1), (3, 1, 1), (3, 2, 1))")
    assert report == reference_fan_report(bad)
    with pytest.raises(ContractError,
                       match=re.escape(f"not the Delaunay fan of its metric: {violation}")):
        section_extends((1, 1), bad)


def test_section_extends_rejects_pruned_fan():
    gd = GammaData(g_prime=1, r_prime=2, Bprime=IntMatrix.from_rows([[2, 1], [1, 2]]))
    fan = delaunay_fan(gd, seed=3)
    assert section_extends((0, 4, -1), fan) and not section_extends((1, 0, 0), fan)
    top = fan.maximal_cones()[0]
    pruned = Fan(cones=tuple(c for c in fan.cones if c != top), gamma=gd, metric=fan.metric)
    with pytest.raises(ContractError, match=re.escape(
            f"not the Delaunay fan of its metric: missing cone {top}")):
        section_extends((0, 4, -1), pruned)


def test_fan_certification_needs_r_prime_at_most_3():
    gd = GammaData(g_prime=0, r_prime=4, Bprime=IntMatrix.identity(4))
    fan = Fan(cones=(), gamma=gd,
              metric=tuple(tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)))
    assert validate_fan(fan).violations == ("Delaunay cells are computed for r' <= 3 only",)
    with pytest.raises(ContractError, match="r' <= 3"):
        section_extends((0, 0, 0, 0), fan)


# the B' of the benchmark's fan corpus, as (g', B'), plus g' = 1 at r' = 1
CORPUS_GAMMAS = ([(0, [[n]]) for n in range(1, 7)] + [(1, [[2]])]
                 + [(0, [[2, 1], [1, 3]]), (0, [[1, 0], [0, 1]]), (0, [[2, 1], [1, 2]]),
                    (1, [[2, 1], [1, 2]]),
                    (0, [[2, 1, 0], [1, 2, 1], [0, 1, 2]]), (0, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])])


def _other_cells_metric(fan, rng):
    """A generic metric whose Delaunay cells differ from the fan's (at
    r' >= 2, where the diagonals can flip), or another metric with the same
    cells at r' = 1."""
    gamma = fan.gamma
    own = _delaunay_faces(gamma, fan.metric)
    for _ in range(200):
        Q = _generic_metric(gamma.r_prime, rng)
        if gamma.r_prime == 1 or _delaunay_faces(gamma, Q) != own:
            return Q
    raise AssertionError("no metric with other cells found")


def _mutations(fan, rng):
    """The fan, a valid copy with a maximal cone moved by a Gamma-translate,
    and eight broken copies: a maximal cone dropped, a ray dropped, a
    Gamma-translate of a cone added, a generator scaled to be
    non-primitive, a height-0 cone added, a cone over (0_{g'}, 0, 1) and
    (0_{g'}, 2e_1, 1) added (a non-primitive edge, so a face of no Delaunay
    cell), the zero cone listed twice, a metric with other cells."""
    gamma, cones = fan.gamma, fan.cones
    top, ray = fan.maximal_cones()[0], next(c for c in cones if len(c) == 1)
    e1 = tuple(int(i == 0) for i in range(gamma.r_prime))
    scaled = tuple(sorted(top[:-1] + (tuple(2 * x for x in top[-1]),)))
    flat = ((0,) * gamma.g_prime + e1 + (0,),)
    zero = (0,) * (gamma.g_prime + gamma.r_prime)
    crossing = (zero + (1,), (0,) * gamma.g_prime + tuple(2 * x for x in e1) + (1,))
    edits = {"as built": cones,
             "move a maximal cone": tuple(translate_cone(top, e1, gamma) if c == top else c
                                          for c in cones),
             "drop a maximal cone": tuple(c for c in cones if c != top),
             "drop a ray": tuple(c for c in cones if c != ray),
             "add a translate": cones + (translate_cone(top, e1, gamma),),
             "non-primitive generator": tuple(scaled if c == top else c for c in cones),
             "add a height-0 cone": cones + (flat,),
             "add a crossing cone": cones + (crossing,),
             "duplicate the zero cone": cones + ((),)}
    out = {name: Fan(cones=c, gamma=gamma, metric=fan.metric) for name, c in edits.items()}
    out["other cells"] = Fan(cones=cones, gamma=gamma,
                             metric=tuple(map(tuple, _other_cells_metric(fan, rng))))
    return out


def _accepted(fan):
    """The acceptance test of validate_fan, on the reference face set: every
    generator has g + 1 coordinates, and
    the canonical forms of the cones are distinct and are the face set."""
    gamma = fan.gamma
    cells = reference_delaunay_cells(gamma, fan.metric)
    if any(len(v) != gamma.g + 1 for c in fan.cones for v in c):
        return False
    stored = [reference_canonical_cone(c, gamma) for c in fan.cones]
    return len(set(stored)) == len(stored) and set(stored) == reference_face_set(cells, gamma)


def _outcome(f, *args):
    try:
        return f(*args)
    except ContractError as exc:
        return ("ContractError", str(exc))


@pytest.mark.parametrize("g_prime, Bprime", CORPUS_GAMMAS, ids=str)
def test_validate_fan_matches_reference(g_prime, Bprime):
    """validate_fan and section_extends agree with the reference face set
    (one sorted tuple per face, Selling in Fractions, the tiling check kept)
    on every corpus B', under the standard and a seeded random metric, built
    and after each of eight edits: the violations, in order, and the non-regular cones
    of reference_fan_report, and the same answer or the same refusal.  A fan
    is ok exactly when the cone-by-cone reference accepts it
    (reference_validate_fan) and when its canonical cones are the face set
    of its cells (_accepted).  section_extends refuses exactly the fans
    validate_fan rejects, with the first violation."""
    from abdyn.cli import _random_metric
    rp = len(Bprime)
    gd = GammaData(g_prime=g_prime, r_prime=rp, Bprime=IntMatrix.from_rows(Bprime))
    rng = random.Random(f"reference:{g_prime}:{Bprime}")
    for metric in ("standard", _random_metric(rp, 5)):
        fan = delaunay_fan(gd, metric=metric, seed=7)
        for name, bad in _mutations(fan, rng).items():
            report = validate_fan(bad)
            assert report == reference_fan_report(bad), name
            assert report.ok == reference_validate_fan(bad).ok, name
            assert report.ok == (name in ("as built", "move a maximal cone")
                                 or name == "other cells" and rp == 1)
            assert report.ok == _accepted(bad), name
            for n_phi in ((0,) * g_prime + (1,) * rp, (1,) * g_prime + (2,) * rp):
                outcome = _outcome(section_extends, n_phi, bad)
                assert outcome == _outcome(reference_section_extends, n_phi, bad), name
                # one certificate: refused exactly when rejected, with its first violation
                assert outcome == (not any(n_phi[:g_prime]) if report.ok else (
                    "ContractError",
                    f"not the Delaunay fan of its metric: {report.violations[0]}")), name


def test_validate_fan_reports_short_generators_of_a_maximal_cone():
    """A maximal cone whose generators are shorter than g' + r' + 1 (only a
    Fan built in Python can hold one) is reported, not a traceback, and is
    never canonicalized: under the cospherical standard metric as under a
    generic one, the cone is no cone of the fan and every face is missing,
    as in the reference."""
    gd = GammaData(g_prime=1, r_prime=2, Bprime=IntMatrix.identity(2))
    short = (((0, 1), (1, 1), (2, 1)),)
    for metric in (((1, 0), (0, 1)), ((1, Fraction(1, 3)), (Fraction(1, 3), 1))):
        fan = Fan(cones=short, gamma=gd, metric=metric)
        report = validate_fan(fan)
        assert report == reference_fan_report(fan)
        assert report.ok == reference_validate_fan(fan).ok
        assert not report.ok
        assert report.violations[0] == "cone 0: not a cone of the Delaunay fan of the metric"
        assert report.violations[1:] == tuple(f"missing cone {c}"
                                              for c in delaunay_fan(gd, metric).cones)


def test_validate_fan_rejects_a_cone_that_is_no_face_of_a_maximal_cone():
    """An edge from 0 to (2, 1) crosses the cell {0, (0, 1), (1, 0)} of the
    square lattice: every face of it is in the fan, but it is not a face of
    any maximal cone, so it is no cone of the fan."""
    gd = GammaData(g_prime=0, r_prime=2, Bprime=IntMatrix.identity(2))
    fan = delaunay_fan(gd)
    bad = Fan(cones=fan.cones + (((0, 0, 1), (2, 1, 1)),), gamma=gd, metric=fan.metric)
    report = validate_fan(bad)
    assert report.violations == (
        f"cone {len(fan.cones)}: not a cone of the Delaunay fan of the metric",)
    assert report == reference_fan_report(bad)
    assert report.ok == reference_validate_fan(bad).ok


def _with_long_generators(fan, replace):
    return Fan(cones=tuple(replace.get(c, c) for c in fan.cones),
               gamma=fan.gamma, metric=fan.metric)


def test_a_long_generator_is_not_truncated_into_a_face():
    """Gamma-translation zips a generator with the shift, so (3, 7, 1) at
    B' = [[2]] has the canonical form of the ray (1, 1).  A fan that holds it
    in place of that ray is still rejected, as is one whose maximal cone
    ((1, 1), (2, 1)) is replaced too, and section_extends refuses both."""
    gd = GammaData(g_prime=0, r_prime=1, Bprime=IntMatrix.from_rows([[2]]))
    fan = delaunay_fan(gd)
    assert section_extends((5,), fan)
    ray_only = _with_long_generators(fan, {((1, 1),): ((3, 7, 1),)})
    both = _with_long_generators(fan, {((1, 1),): ((3, 7, 1),),
                                       ((1, 1), (2, 1)): ((3, 7, 1), (4, 9, 1))})
    not_a_cone = "not a cone of the Delaunay fan of the metric"
    for bad, expected in ((ray_only, (f"cone 2: {not_a_cone}", "missing cone ((1, 1),)")),
                          (both, (f"cone 2: {not_a_cone}", f"cone 4: {not_a_cone}",
                                  "missing cone ((1, 1),)", "missing cone ((1, 1), (2, 1))"))):
        report = validate_fan(bad)
        assert not report.ok and report == reference_fan_report(bad)
        assert report.ok == reference_validate_fan(bad).ok
        assert report.violations == expected
        for f in (section_extends, reference_section_extends):
            with pytest.raises(ContractError, match=re.escape(
                    f"not the Delaunay fan of its metric: cone 2: {not_a_cone}")):
                f((5,), bad)


@st.composite
def _gamma_and_metric(draw):
    """(GammaData, metric) with g' = 0..2: r' = 2, 3 from _metric_and_bprime,
    or r' = 1 with B' = [[n]] and a rational metric."""
    g_prime = draw(st.integers(0, 2))
    if draw(st.booleans()):
        Q, B = draw(_metric_and_bprime())
    else:
        Q = [[Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 5)))]]
        B = [[draw(st.integers(1, 12))]]
    return GammaData(g_prime=g_prime, r_prime=len(B), Bprime=IntMatrix.from_rows(B)), Q


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_gamma_and_metric())
def test_face_set_matches_reference(case):
    """_delaunay_faces (each face of the r'! simplices translated to each
    coset representative) is the set of canonical forms of every face of
    the reference cells, built face by face; the Delaunay fan built from it
    is accepted with no non-regular cone, as by the reference."""
    gamma, Q = case
    fan = delaunay_fan(gamma, metric=Q, seed=1)
    event(f"r' = {gamma.r_prime}, det B' = {gamma.det}")
    faces = _delaunay_faces(gamma, fan.metric)
    assert len(set(faces)) == len(faces) and set(faces) == reference_face_set(
        reference_delaunay_cells(gamma, fan.metric), gamma)
    report = validate_fan(fan)
    assert report.ok and not report.non_regular
    assert report == reference_fan_report(fan)
    assert report.ok == reference_validate_fan(fan).ok


# every phase but the two that only minimize and annotate a failing example
ORACLE_PHASES = [p for p in Phase if p not in (Phase.shrink, Phase.explain)]


def _selling_past_the_limit(g_prime, rp):
    """A case of _certificate_case whose metric [[1, N], [N, N^2 + 2]] at
    N = 10^6 (plus a 1 at r' = 3) needs far more Selling steps than
    MAX_SELLING_STEPS, on B' = I.  The reference's Selling in Fractions
    takes about 0.4 s at r' = 2 and 2 s at r' = 3 to reach the limit, so it
    is an explicit example, not a draw."""
    n = 10 ** 6
    Q = [[Fraction(x) for x in row[:rp]] for row in [[1, n, 0], [n, n * n + 2, 0], [0, 0, 1]][:rp]]
    return GammaData(g_prime, rp, IntMatrix.identity(rp)), Q, "Selling past the limit"


@st.composite
def _certificate_case(draw):
    """(GammaData, rational metric, kind) with g' = 0..2 and r' = 1..3.
    "random": A^T A + c I for a rational A; "cospherical": a diagonal
    metric, whose cells are boxes (the identity in half of them); B' = U^T D U
    with U unimodular and det B' = prod D <= 60.  "det above the limit":
    B' = diag(d, 1, ..) with d > MAX_DET_BPRIME, and the standard metric."""
    g_prime, rp = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random"] * 4 + ["cospherical"] * 3 + ["det above the limit"]))
    if kind == "det above the limit":
        d = draw(st.integers(toroidal.MAX_DET_BPRIME + 1, 2 * toroidal.MAX_DET_BPRIME))
        B = [[d if i == j == 0 else int(i == j) for j in range(rp)] for i in range(rp)]
    else:
        D = [draw(st.integers(1, 60))]  # det B', split into r' factors
        for _ in range(rp - 1):
            D.append(draw(st.sampled_from([f for f in range(1, D[0] + 1) if D[0] % f == 0])))
            D[0] //= D[-1]
        U = _unimodular_upper(rp, draw(st.lists(st.integers(-2, 2), min_size=rp * rp,
                                                max_size=rp * rp)))
        B = [[sum(U[k][i] * D[k] * U[k][j] for k in range(rp)) for j in range(rp)]
             for i in range(rp)]
    rational = st.builds(Fraction, st.integers(1, 9), st.integers(1, 5))
    if kind == "random":
        entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
        A = [[draw(entry) for _ in range(rp)] for _ in range(rp)]
        c = draw(rational)
        Q = [[sum(A[k][i] * A[k][j] for k in range(rp)) + c * (i == j) for j in range(rp)]
             for i in range(rp)]
    else:  # the identity, or another diagonal metric if cospherical
        one = st.just(Fraction(1))
        diagonal = rational if kind == "cospherical" and draw(st.booleans()) else one
        Q = [[draw(diagonal) if i == j else Fraction(0) for j in range(rp)] for i in range(rp)]
    gamma = GammaData(g_prime=g_prime, r_prime=rp, Bprime=IntMatrix.from_rows(B))
    return gamma, Q, kind


@settings(max_examples=200, deadline=None, derandomize=True, phases=ORACLE_PHASES)
@given(_certificate_case())
@example(_selling_past_the_limit(0, 2))
@example(_selling_past_the_limit(1, 3))
def test_fan_certificate_matches_the_sorting_construction(case):
    """face_set (its templates ranked, its faces walked in the stored order)
    against tests/util.reference_fan_faces, the construction that sorted
    each chain and subtracted its smallest vertex: the same face set, with
    no repeat; the same stored cones as reference_fan_of_faces, which sorted
    them; the same fan_to_json as reference_fan_to_json; or, above
    MAX_DET_BPRIME and past MAX_SELLING_STEPS, the same refusal text."""
    gamma, Q, kind = case
    event(kind)
    identity = Q == IntMatrix.identity(gamma.r_prime).to_rows()
    event(f"r' = {gamma.r_prime}" + ", the identity" * identity)
    faces, expected = toroidal.face_set(gamma, Q), reference_fan_faces(gamma, Q)
    if not isinstance(expected, set):
        assert isinstance(expected, ContractError)
        assert kind in ("det above the limit", "Selling past the limit")
        assert type(faces) is type(expected) and str(faces) == str(expected)
        with pytest.raises(ContractError, match=f"^{re.escape(str(expected))}$"):
            delaunay_fan(gamma, metric=Q)
        return
    assert kind in ("random", "cospherical")
    assert len(set(faces)) == len(faces) and set(faces) == expected
    fan = delaunay_fan(gamma, metric=Q, seed=3)
    reference = reference_fan_of_faces(expected, gamma, Q, 3)
    assert fan == reference and fan.cones == faces
    assert serialize.fan_to_json(fan) == reference_fan_to_json(reference)


@pytest.mark.parametrize("g_prime, Bprime", CORPUS_GAMMAS, ids=str)
def test_valid_fan_is_certified_by_its_face_set(g_prime, Bprime, monkeypatch):
    """On a valid fan, validate_fan and section_extends compare the stored
    generator tuples with the face set as they are: they canonicalize no
    cone, compute no minor gcd, and reduce no b mod B', as the coset
    representatives, one enumeration per certificate, are walked on
    adj(B') b mod det B'."""
    from abdyn import toroidal
    from abdyn.cli import _random_metric
    gd = GammaData(g_prime=g_prime, r_prime=len(Bprime), Bprime=IntMatrix.from_rows(Bprime))
    enumerations, calls = [], []

    def counting(b, gamma):
        calls.append(b)
        return _reduce_mod_period(b, gamma)

    def representatives(gamma):
        enumerations.append(gamma)
        return _coset_representatives(gamma)

    def refused(name):
        def call(*args):
            raise AssertionError(f"{name} called on a valid fan")
        return call

    for metric in ("standard", _random_metric(gd.r_prime, 5)):
        fan = delaunay_fan(gd, metric=metric, seed=7)
        with monkeypatch.context() as patch:
            patch.setattr(toroidal, "_reduce_mod_period", counting)
            patch.setattr(toroidal, "_coset_representatives", representatives)
            patch.setattr(toroidal, "_canonical_gens", refused("_canonical_gens"))
            patch.setattr(toroidal, "minor_gcd", refused("minor_gcd"))
            calls.clear()
            enumerations.clear()
            assert validate_fan(fan) == toroidal.FanReport((), ())
            assert section_extends((0,) * gd.g, fan)
        assert enumerations == [gd, gd] and not calls, calls


def _unimodular_upper(n, entries):
    return [[1 if i == j else entries[i * n + j] if j > i else 0 for j in range(n)]
            for i in range(n)]


@st.composite
def _metric_and_bprime(draw):
    """r' in {2, 3}; a positive definite metric A^T A + c I with integer or
    rational A and c > 0; B' = U^T D U with U unimodular and det B' =
    prod D <= 12."""
    rp = draw(st.sampled_from([2, 3]))
    small = st.integers(-3, 3)
    entry = st.one_of(small, st.builds(Fraction, small, st.integers(1, 7)))
    A = [[draw(entry) for _ in range(rp)] for _ in range(rp)]
    c = draw(st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(2), Fraction(5, 2)]))
    Q = [[Fraction(sum(A[k][i] * A[k][j] for k in range(rp))) + c * (i == j)
          for j in range(rp)] for i in range(rp)]
    D = [draw(st.integers(1, 12))]  # det B', split into r' factors
    for _ in range(rp - 1):
        D.append(draw(st.sampled_from([f for f in range(1, D[0] + 1) if D[0] % f == 0])))
        D[0] //= D[-1]
    U = _unimodular_upper(rp, draw(st.lists(st.integers(-2, 2), min_size=rp * rp,
                                            max_size=rp * rp)))
    B = [[sum(U[k][i] * D[k] * U[k][j] for k in range(rp)) for j in range(rp)]
         for i in range(rp)]
    return Q, B


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_metric_and_bprime())
def test_delaunay_cells_tile_by_construction(case):
    """The invariant that replaced the tiling check of the Delaunay cells:
    r'! det B' distinct cells, read off the face set's (r'+1)-faces, each of
    |det| 1 with its first vertex in the fundamental cell, equal to the
    cells of the reference (Selling reduction in Fractions, volumes summed),
    on cospherical metrics as on generic ones."""
    import sympy

    Q, B = case
    rp = len(B)
    gd = GammaData(g_prime=0, r_prime=rp, Bprime=IntMatrix.from_rows(B))
    cells = _cells(gd, Q)
    det = sympy.Matrix(B).det()
    event(f"r' = {rp}, det B' = {det}")
    assert len(set(cells)) == len(cells) == math.factorial(rp) * det
    inv = sympy.Matrix(B).inv()
    for cell in cells:
        assert abs(sympy.Matrix([[x - y for x, y in zip(v, cell[0])]
                                 for v in cell[1:]]).det()) == 1
        assert all(0 <= x < 1 for x in inv * sympy.Matrix(cell[0]))
    assert cells == reference_delaunay_cells(gd, Q)


# --- Gamma arithmetic against a Fraction reference -----------------------------

def _random_gammas(rng, count):
    """(GammaData, B'^-1 in Fractions) for seeded positive definite B' =
    A^T A + D (D a positive integer diagonal) with r' = 1..3, det B' <= 1000
    and g' = 0..2; the inverse is the right half of the reduced row echelon
    form of [B' | I]."""
    out = []
    while len(out) < count:
        rp = rng.randint(1, 3)
        A = [[rng.randint(-3, 3) for _ in range(rp)] for _ in range(rp)]
        Bp = [[sum(A[t][i] * A[t][j] for t in range(rp)) + (rng.randint(1, 4) if i == j else 0)
               for j in range(rp)] for i in range(rp)]
        gamma = GammaData(g_prime=rng.randint(0, 2), r_prime=rp, Bprime=IntMatrix.from_rows(Bp))
        if gamma.det <= 1000:
            rref = fraction_rref([row + [int(i == j) for j in range(rp)]
                                  for i, row in enumerate(Bp)])
            out.append((gamma, [row[rp:] for row in rref]))
    return out


def _coords(b, inv):
    """b * B'^-1 (row vector times the symmetric inverse) in Fractions."""
    return [sum(x * row[j] for x, row in zip(b, inv)) for j in range(len(inv))]


def test_gamma_data_matches_fraction_inverse():
    """det B' and adj(B') = det B' * B'^-1, and the period beta * B'."""
    rng = random.Random(51)
    for gamma, inv in _random_gammas(rng, 60):
        Bp = gamma.Bprime.to_rows()
        assert [list(row) for row in gamma.adj] == [[gamma.det * x for x in row] for row in inv]
        assert gamma.det * _fraction_det(inv) == 1
        beta = tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(gamma.r_prime))
        assert gamma_shift(gamma, beta) == tuple(sum(x * row[j] for x, row in zip(beta, Bp))
                                          for j in range(gamma.r_prime))


def _fraction_det(m):
    """det of a Fraction matrix of size 1..3 by cofactor expansion."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _fraction_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def test_reduce_mod_period_matches_fraction_reference():
    """b = b0 + beta * B' with beta = floor(b * B'^-1), so b0 * B'^-1 lies in
    [0, 1)^r', for small and large b."""
    rng = random.Random(52)
    for gamma, inv in _random_gammas(rng, 60):
        Bp = gamma.Bprime.to_rows()
        for size in (12, 10 ** 30):
            b = tuple(rng.randint(-size, size) for _ in range(gamma.r_prime))
            beta = tuple(math.floor(x) for x in _coords(b, inv))
            b0 = tuple(bi - sum(t * row[j] for t, row in zip(beta, Bp)) for j, bi in enumerate(b))
            assert _reduce_mod_period(b, gamma) == (b0, beta), (gamma, b)
            assert all(0 <= x < 1 for x in _coords(b0, inv))


def test_coset_representatives_are_the_fundamental_cell():
    """The det B' representatives are distinct integer points of the half-open
    fundamental cell, which holds exactly det B' of them: so they are all of
    them, one per class of Z^r' / B' Z^r'."""
    rng = random.Random(53)
    for gamma, inv in _random_gammas(rng, 40):
        reps = _coset_representatives(gamma)
        assert len(reps) == len(set(reps)) == gamma.det
        assert all(len(c) == gamma.r_prime and all(type(x) is int for x in c) for c in reps)
        assert all(0 <= x < 1 for c in reps for x in _coords(c, inv))


def test_translation_regularizable_matches_fraction_reference():
    """N is the lcm of the denominators of b * B'^-1 and beta = N b * B'^-1;
    a non-zero abelian block gives None."""
    rng = random.Random(54)
    for gamma, inv in _random_gammas(rng, 60):
        gp = gamma.g_prime
        b = tuple(rng.randint(-12, 12) for _ in range(gamma.r_prime))
        x = _coords(b, inv)
        N = math.lcm(*(v.denominator for v in x))
        assert translation_regularizable((0,) * gp + b, gamma)[0] == (N, tuple(int(N * v) for v in x))
        if gp:
            a = tuple(rng.choice((-1, 1)) for _ in range(gp))
            assert translation_regularizable(a + b, gamma)[0] is None


def test_nakamura_data_matches_reference_on_psd_B():
    """On B = W^T diag(0, B') W with W unimodular (g' = 0..2, r' = 1..3),
    monodromy_to_B and nakamura_data give the B, W and GammaData fields of
    the reference normalization on IntMatrix."""
    rng = random.Random(55)
    for gamma, _ in _random_gammas(rng, 40):
        g, gp = gamma.g, gamma.g_prime
        D = IntMatrix.block_diag(IntMatrix(gp, gp, [0] * (gp * gp)), gamma.Bprime)
        U = random_unimodular(g, rng)
        B = (U.transpose() @ D @ U).to_rows()
        M = IntMatrix.from_rows([[int(i == j) for j in range(g)] + B[i] for i in range(g)]
                                + [[0] * g + [int(i == j) for j in range(g)] for i in range(g)])
        ref_B, ref_W, ref = reference_nakamura_data(M)
        assert monodromy_to_B(M) == (ref_B, ref_W)
        got = nakamura_data(M)
        assert (got.g_prime, got.r_prime, got.Bprime) == (ref.g_prime, ref.r_prime, ref.Bprime)
        assert (got.rows, got.det, got.adj) == (ref.rows, ref.det, ref.adj)
        assert got.r_prime == gamma.r_prime and got.det == gamma.det


def test_period_data_keeps_Bprime_unless_W_is_the_completion(monkeypatch):
    """period_data on B = L L^T (g <= 5) against itself on the kernel
    completion of [c B^T | I] (reference_kernel_completion): r' and det B'
    always agree, and so does B' itself unless W is the completion T, which
    happens when the unit vectors off the kernel rows' pivots do not complete
    them (that det is a property of the kernel lattice, so both sides take
    the same branch).  Only there can the reduced completion rows differ."""
    rng = random.Random(56)
    branches = set()
    for _ in range(300):
        g = rng.randint(1, 5)
        L = [[rng.randint(-3, 3) for _ in range(rng.randint(1, g))] for _ in range(g)]
        B = IntMatrix.from_rows([[sum(map(math.prod, zip(x, y))) for y in L] for x in L])
        if not any(B.entries):
            continue
        W, Bp, rp = period_data(B)
        with monkeypatch.context() as m:
            m.setattr(toroidal, "kernel_completion", reference_kernel_completion)
            _, ref_Bp, ref_rp = period_data(B)
        k = g - rp
        pivots = [next(j for j, x in enumerate(row) if x) for row in fraction_rref(W.to_rows()[:k])]
        units = [[int(i == j) for i in range(g)] for j in range(g) if j not in pivots]
        completion = abs(IntMatrix.from_rows(W.to_rows()[:k] + units).det()) != 1
        branches.add(completion)
        assert (rp, Bp.det()) == (ref_rp, ref_Bp.det()), B
        assert completion or Bp == ref_Bp, B
    assert branches == {False, True}


# --- fan certification builds no IntMatrix per cone -----------------------------

def test_fan_certification_builds_no_intmatrix_per_cone(tmp_path, monkeypatch):
    """`fan validate` and `fan extends` on the Tate I_1 and I_6, A2 and A3
    fans build as many IntMatrix objects on each fan (reading B' and checking
    it), however many cones it has; the counter sees IntMatrix.__init__ and
    IntMatrix._of."""
    counts, sizes = {}, []
    for name, B in (("I1", [[1]]), ("I6", [[6]]), ("A2", [[2, 1], [1, 2]]),
                    ("A3", [[2, 1, 0], [1, 2, 1], [0, 1, 2]])):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["fan", "build", "--B", json.dumps(B), "--seed", "0"]) == 0
        path = tmp_path / f"{name}.json"
        path.write_text(out.getvalue())
        sizes.append(len(json.loads(out.getvalue())["result"]["cones"]))
        built = []
        init, of = IntMatrix.__init__, IntMatrix._of

        def counting_init(self, *args):
            built.append(1)
            init(self, *args)

        def counting_of(*args):
            built.append(1)
            return of(*args)

        with monkeypatch.context() as patch:
            patch.setattr(IntMatrix, "__init__", counting_init)
            patch.setattr(IntMatrix, "_of", staticmethod(counting_of))
            for argv in (["fan", "validate", str(path)],
                         ["fan", "extends", "--nphi", json.dumps([1] * len(B)), str(path)]):
                built.clear()
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0
                counts.setdefault(argv[1], []).append(len(built))
    assert sizes == sorted(set(sizes)), sizes  # the fans grow: 3 to dozens of cones
    assert all(len(set(c)) == 1 and c[0] > 0 for c in counts.values()), (sizes, counts)

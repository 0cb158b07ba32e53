"""Output checks that do not reuse the code under test.

Each check takes a document, its exit code and its stdout text, and returns
a list of problems (empty when the output is right).  The references are
sympy (characteristic polynomials and their factorization over Z), plain
integer arithmetic written here (kernels, determinants, fan volumes,
regularizing powers), and numpy for the orbit residuals.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

# ---------------------------------------------------------------------------
# exact helpers
# ---------------------------------------------------------------------------


def det(rows):
    """Determinant of a square integer matrix (Bareiss, fraction-free)."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def mat_vec(m, v):
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def poly_of_matrix_times(p, m, v):
    """p(M) v for an ascending coefficient list p, by repeated products."""
    acc = [p[0] * x for x in v]
    w = list(v)
    for c in p[1:]:
        w = mat_vec(m, w)
        acc = [a + c * x for a, x in zip(acc, w)]
    return acc


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def rank(rows):
    a = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col] / a[r][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def solve_row(b, m):
    """x with x M = b over Q, for an invertible square M."""
    n = len(m)
    # transpose system: M^T x^T = b^T
    aug = [[Fraction(m[j][i]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [aug[i][n] for i in range(n)]


def ints(seq):
    return [int(x) for x in seq]


# ---------------------------------------------------------------------------
# sympy references (cached: passes repeat some matrices)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def charpoly(matrix):
    """Ascending coefficients of det(T I - M); matrix is a tuple of tuples."""
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    n = len(matrix)
    dm = DomainMatrix([[ZZ(int(x)) for x in row] for row in matrix], (n, n), ZZ)
    return tuple(int(c) for c in reversed(dm.charpoly()))


@lru_cache(maxsize=None)
def cyclotomic_split(poly):
    """(P, Q) ascending: P the product of the cyclotomic factors of poly
    (with multiplicity), Q the rest."""
    from sympy import Poly, symbols
    t = symbols("t")
    _, factors = Poly(list(reversed(poly)), t).factor_list()
    P, Q = [1], [1]
    for f, mult in factors:
        coeffs = [int(c) for c in reversed(f.all_coeffs())]
        if coeffs[-1] < 0:
            coeffs = [-c for c in coeffs]
        for _ in range(mult):
            if f.is_cyclotomic:
                P = poly_mul(P, coeffs)
            else:
                Q = poly_mul(Q, coeffs)
    return tuple(P), tuple(Q)


def _key(matrix):
    return tuple(tuple(int(x) for x in row) for row in matrix)


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def check(doc, code, text, fan_texts):
    """Problems with one document's output ([] when correct)."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        out = json.loads(text)
        result = out["result"]
        return CHECKS[doc.kind](doc, result, fan_texts)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError,
            StopIteration) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def _check_parts(matrix, charpoly_json, cyc_json, free_json):
    problems = []
    cp = charpoly(_key(matrix))
    P, Q = cyclotomic_split(cp)
    if tuple(ints(charpoly_json)) != cp:
        problems.append(f"charpoly {charpoly_json} != sympy {list(cp)}")
    if tuple(poly_mul(ints(cyc_json), ints(free_json))) != cp:
        problems.append("cyclotomic part x free part != charpoly")
    if tuple(ints(cyc_json)) != P or tuple(ints(free_json)) != Q:
        problems.append("cyclotomic split differs from sympy factorization")
    return problems, P, Q


def check_analyze(doc, result, fan_texts):
    matrix = doc.facts["matrix"]
    part = result["parts"]["u_T"]
    problems, P, Q = _check_parts(matrix, part["charpoly"], part["cyclotomic_part"],
                                  part["cyclotomic_free_part"])
    if part["roots_of_unity_only"] != (Q == (1,)):
        problems.append("roots_of_unity_only disagrees with the factorization")
    lambdas = result["degrees"]["lambdas"]
    rho = max(1.0, float(max(abs(np.linalg.eigvals(np.array(matrix, dtype=float))))))
    if len(lambdas) != len(matrix) + 1 or abs(lambdas[1] - rho) > 1e-6 * rho:
        problems.append(f"lambda_1 {lambdas[1:2]} != spectral radius {rho}")
    return problems


def check_split(doc, result, fan_texts):
    u = doc.facts["matrix"]
    cp = charpoly(_key(u))
    P, Q = cyclotomic_split(cp)
    problems = []
    stacked = []
    for name, poly in (("cyclotomic_lattice", P), ("cyclotomic_free_lattice", Q)):
        lat = result[name]
        basis = [ints(v) for v in lat["basis"]]
        if len(basis) != len(poly) - 1:
            problems.append(f"{name}: rank {len(basis)} != degree {len(poly) - 1}")
        for v in basis:
            if any(poly_of_matrix_times(list(poly), u, v)):
                problems.append(f"{name}: basis vector {v} not in the kernel")
                break
        if tuple(ints(lat["charpoly"])) != poly:
            problems.append(f"{name}: restricted charpoly {lat['charpoly']} != {list(poly)}")
        stacked += basis
    if len(stacked) == len(u):
        d = abs(det(stacked))
        if d == 0 or int(result["index"]) != d:
            problems.append(f"index {result['index']} != |det| {d}")
    return problems


def check_decide(doc, result, fan_texts):
    problems = []
    if result["status"] != doc.facts["expected_status"]:
        problems.append(f"status {result['status']} != {doc.facts['expected_status']}")
    rules = {r["rule"] for r in result["reasons"]}
    if doc.facts["expected_status"] == "NotRegularizable" and "k" not in doc.facts["payload"] \
            and "R3" not in rules:
        problems.append("cyclotomic-free degenerating family not decided by R3")
    return problems


def _case_charpoly_problems(doc, result):
    auto = [ints(row) for row in result["automorphism"]]
    problems = []
    if len(auto) != 2 * doc.facts["g"]:
        problems.append(f"automorphism is {len(auto)}x{len(auto)}, expected 2g")
    cp = charpoly(_key(auto))
    if tuple(ints(result["charpoly"])) != cp:
        problems.append(f"charpoly {result['charpoly']} != sympy {list(cp)}")
    return problems, cp


def check_catalog_build(doc, result, fan_texts):
    auto = [ints(row) for row in result["automorphism"]]
    problems, P, Q = _check_parts(auto, result["charpoly"], result["cyclotomic_part"],
                                  result["cyclotomic_free_part"])
    if result["is_cyclotomic_free"] != (P == (1,)):
        problems.append("is_cyclotomic_free disagrees with the factorization")
    fd = result["family_descriptor"]
    if fd["g"] != doc.facts["g"] or fd["r"] != doc.facts["r"]:
        problems.append(f"family descriptor (g, r) = ({fd['g']}, {fd['r']})")
    return problems


def check_end_to_end(doc, result, fan_texts):
    problems, cp = _case_charpoly_problems(doc, result)
    P, _ = cyclotomic_split(cp)
    r = doc.facts["r"]
    if P == (1,):
        expected = "Regularizable" if r == 0 else "NotRegularizable"
        if result["verdict"]["status"] != expected:
            problems.append(f"verdict {result['verdict']['status']} != {expected}")
    lambdas = result["degrees"]["lambdas"]
    if len(lambdas) != doc.facts["g"] + 1 or lambdas[0] != 1.0 or lambdas[-1] != 1.0:
        problems.append(f"degree profile {lambdas} has the wrong shape")
    return problems


# --- fans --------------------------------------------------------------------


def _fan_parts(fan):
    gamma = fan["gamma"]
    gp, rp = gamma["g_prime"], gamma["r_prime"]
    Bp = [ints(row) for row in gamma["Bprime"]]
    rays = [ints(r) for r in fan["rays"]]
    cones = [[rays[i] for i in idxs] for idxs in fan["cones"]]
    return gp, rp, Bp, cones


def fan_problems(doc, fan):
    """Gamma data matches B, and the maximal height-1 cells tile one
    fundamental cell: sum |det| = r'! det B'."""
    gp, rp, Bp, cones = _fan_parts(fan)
    problems = []
    if rp != doc.facts["r_prime"] or gp + rp != doc.facts["g"]:
        problems.append(f"(g', r') = ({gp}, {rp}) does not match B")
    if any(Bp[i][j] != Bp[j][i] for i in range(rp) for j in range(rp)) or \
            any(det([row[:k] for row in Bp[:k]]) <= 0 for k in range(1, rp + 1)):
        problems.append("B' is not symmetric positive definite")
    maximal = [c for c in cones if len(c) == rp + 1]
    if not maximal:
        return problems + ["fan has no maximal cones"]
    total = 0
    for cone in maximal:
        if any(v[-1] != 1 for v in cone):
            return problems + ["maximal cone with a generator off height 1"]
        cell = [v[gp:gp + rp] for v in cone]
        total += abs(det([[cell[i + 1][j] - cell[0][j] for j in range(rp)]
                          for i in range(rp)]))
    covol = math.factorial(rp) * det(Bp)
    if total != covol:
        problems.append(f"cells cover volume {total}, expected r'! det B' = {covol}")
    return problems


def check_fan_build(doc, result, fan_texts):
    return fan_problems(doc, result)


def _built_fan(doc, fan_texts):
    return json.loads(fan_texts[doc.needs])["result"]


def check_fan_validate(doc, result, fan_texts):
    fan = _built_fan(doc, fan_texts)
    _, rp, _, cones = _fan_parts(fan)
    problems = []
    if not result["ok"] or result["violations"]:
        problems.append(f"validation failed: {result['violations'][:3]}")
    rays = sum(1 for c in cones if len(c) == 1)
    maximal = sum(1 for c in cones if len(c) == rp + 1)
    cf = result["central_fiber"]
    if (cf["vertices"], cf["maximal_cells"]) != (rays, maximal):
        problems.append(f"central fiber {cf} != ({rays} rays, {maximal} maximal cells)")
    return problems


def check_fan_extends(doc, result, fan_texts):
    fan = _built_fan(doc, fan_texts)
    gp, rp, Bp, _ = _fan_parts(fan)
    n_phi = doc.facts["n_phi"]
    a, b = n_phi[:gp], n_phi[gp:]
    abelian_zero = not any(a)
    problems = []
    if result["extends"] != abelian_zero:
        problems.append(f"extends = {result['extends']} but abelian block is {a}")
    N, beta = result["regularizing_power"], result["beta"]
    if not abelian_zero:
        if N is not None or beta is not None:
            problems.append("regularizing power reported for a nonzero abelian block")
        return problems
    x = solve_row(b, Bp)
    expected_N = math.lcm(*(xi.denominator for xi in x))
    if N != expected_N:
        problems.append(f"regularizing power {N} != minimal {expected_N}")
    elif [N * bi for bi in b] != [sum(beta[i] * Bp[i][j] for i in range(rp))
                                  for j in range(rp)]:
        problems.append(f"N n_phi != beta B' for N = {N}, beta = {beta}")
    return problems


# --- orbits ------------------------------------------------------------------


def _real_coords(argv):
    lattice = json.loads(argv[argv.index("--lattice") + 1])
    alpha = json.loads(argv[argv.index("--alpha") + 1])
    g = lattice["g"]
    A = np.array([[z[0] for z in v] + [z[1] for z in v] for v in lattice["basis"]],
                 dtype=float).T
    rhs = np.array([z[0] for z in alpha] + [z[1] for z in alpha], dtype=float)
    return g, np.linalg.solve(A, rhs)


def check_orbit_analyze(doc, result, fan_texts):
    g, x = _real_coords(doc.argv)
    tol, height = result["tol"], result["height_bound"]
    rels = result["relations"]
    problems = []
    qs = []
    for rel in rels:
        q = ints(rel["q"])
        qp = int(rel["q_prime"])
        resid = abs(float(np.dot(q, x)) - qp)
        if resid >= tol or rel["residual"] >= tol:
            problems.append(f"relation {q} has residual {resid:.3g} >= tol {tol}")
        if not any(q) or max(abs(v) for v in q + [qp]) > height:
            problems.append(f"relation {q} outside the height bound {height}")
        qs.append(q)
    if qs and rank(qs) != len(qs):
        problems.append("relations are dependent")
    h, s, r = result["h"], result["s"], result["r"]
    if h + len(rels) != 2 * g:
        problems.append(f"h + #relations = {h + len(rels)} != 2g = {2 * g}")
    if r != h - 2 * s or not 0 <= 2 * s <= h:
        problems.append(f"(h, s, r) = ({h}, {s}, {r}) inconsistent")
    if result["dense"] != (h == 2 * g) or result["totally_real"] != (s == 0):
        problems.append("dense / totally_real flags inconsistent with (h, s)")
    expected = doc.facts["expected_h"]
    if expected is not None and h != expected:
        problems.append(f"h = {h}, expected {expected} for {doc.facts['alpha_kind']} alpha")
    return problems


CHECKS = {
    "analyze": check_analyze,
    "split": check_split,
    "decide": check_decide,
    "catalog build": check_catalog_build,
    "end-to-end": check_end_to_end,
    "fan build": check_fan_build,
    "fan validate": check_fan_validate,
    "fan extends": check_fan_extends,
    "orbit analyze": check_orbit_analyze,
}

"""Seeded document corpora for the three benchmark workloads.

A document is one `abdyn` CLI invocation: an argv list, the text fed to
stdin, and the facts the oracle needs to check its output.  A corpus is a
pure function of (workload, seed), so the same seed gives byte-identical
corpora.  Nothing here imports `abdyn`: the inputs are built from first
principles, so the program under test only ever sees the generated JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("fan", "orbit", "algebra")

# Per-document deadlines in seconds, far from normal completion times: the
# slowest fan document (`fan build` on A3) takes 6-8 s and the slowest orbit
# document about 0.11 s, while a `split` caught in Smith-form coefficient
# growth is still running after 40 s and every other algebra document ends
# within 0.03 s.
DEADLINES = {"fan": 60.0, "orbit": 10.0, "algebra": 0.5}


@dataclass
class Doc:
    """One CLI invocation of a workload and what its output must satisfy."""
    key: str           # digest of the inputs; stable across passes and runs
    kind: str          # oracle check to apply, e.g. "fan build"
    argv: list
    stdin: str = ""
    facts: dict = field(default_factory=dict)
    needs: str | None = None   # key of the `fan build` whose output is the file
    timed: bool = True         # False: runs in the warm-up pass only


def _doc(kind, argv, stdin="", facts=None, needs=None, timed=True):
    spec = json.dumps([kind, argv, stdin, needs], sort_keys=True)
    key = hashlib.sha256(spec.encode()).hexdigest()[:16]
    return Doc(key=key, kind=kind, argv=list(argv), stdin=stdin,
               facts=dict(facts or {}), needs=needs, timed=timed)


def generate(workload, seed):
    """The documents of a workload, in the order a pass runs them."""
    if workload == "fan":
        return fan_corpus(seed)
    if workload == "orbit":
        return orbit_corpus(seed)
    if workload == "algebra":
        return algebra_corpus(seed)
    raise ValueError(f"unknown workload {workload!r}")


def corpus_bytes(docs):
    """Canonical serialization of a corpus (for the determinism self-test)."""
    return json.dumps([[d.key, d.kind, d.argv, d.stdin, d.facts, d.needs]
                       for d in docs], sort_keys=True).encode()


# ---------------------------------------------------------------------------
# fan: Delaunay fans of toroidal degenerations
# ---------------------------------------------------------------------------

# Translation matrices B (g x g, symmetric PSD).  r' = rank B.
FAN_BS = (
    [[[n]] for n in range(1, 7)]                      # r' = 1: Tate I_n
    + [[[2, 1], [1, 3]],                              # r' = 2
       [[1, 0], [0, 1]],
       [[2, 1], [1, 2]],
       [[2, 1, 0], [1, 2, 0], [0, 0, 0]]]             # r' = 2, g' = 1
    + [[[2, 1, 0], [1, 2, 1], [0, 1, 2]],             # r' = 3: A3
       [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]             # r' = 3: I3
)
EXTENDS_PER_FAN = 3


def _rank(rows):
    """Rank over Q by fraction-free elimination on integer rows."""
    a = [list(r) for r in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][col] != 0:
                f, p = a[i][col], a[rank][col]
                a[i] = [p * x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def fan_corpus(seed):
    """`fan build` for every B under the standard metric and, for r' <= 2,
    a seeded random metric; `fan validate` on every built fan; then seeded
    `fan extends` queries against the built fan files.

    The builds at r' = 3 take 1.6 s (I3) and 7 s (A3), too long to sample
    often enough within a run on a shared machine, so they run in the
    warm-up pass only; their validate and extends documents are timed."""
    rng = random.Random(f"fan:{seed}")
    # Every build gets --seed: without it, a cospherical standard metric
    # (r' >= 2) is perturbed by an unseeded generator and each call returns
    # another fan after another amount of work.  The seeds come from a fixed
    # stream, not from --seed: some random metrics at r' = 2 fail after 16
    # retries (exit 4), and drawn from --seed the known failures, and with
    # them the timed documents, would change between seeds.
    metric_rng = random.Random("fan:metric")
    standard_rng = random.Random("fan:standard")
    builds = []
    for B in FAN_BS:
        g = len(B)
        r_prime = _rank(B)
        facts = {"B": B, "g": g, "r_prime": r_prime, "metric": "standard"}
        builds.append(_doc("fan build", ["fan", "build", "--B", json.dumps(B),
                                         "--seed", str(standard_rng.randrange(1, 10**6))],
                           facts=facts, timed=r_prime <= 2))
        # Random metrics at r' = 3 take 13-58 s per build at the parent
        # commit and swing with the metric seed, so they stay out.
        if r_prime <= 2:
            metric_seed = metric_rng.randrange(1, 10**6)
            builds.append(_doc("fan build",
                               ["fan", "build", "--B", json.dumps(B),
                                "--metric", "random", "--seed", str(metric_seed)],
                               facts=dict(facts, metric="random")))
    docs = list(builds)
    for b in builds:
        docs.append(_doc("fan validate", ["fan", "validate", "@FAN"],
                         needs=b.key, facts=b.facts))
    for b in builds:
        g, r_prime = b.facts["g"], b.facts["r_prime"]
        g_prime = g - r_prime
        # A query stops at the first cone that holds its point, so on an
        # r' = 3 fan its cost swings from 20 to 140 ms with n_phi; those few
        # queries come from a fixed stream, or p90 would move between seeds.
        q_rng = random.Random(f"fan:extends:{b.key}") if r_prime == 3 else rng
        queries = []
        while len(queries) < EXTENDS_PER_FAN:
            a = [0] * g_prime
            if g_prime and len(queries) % 2 == 1:
                a = [q_rng.choice((-2, -1, 1, 2)) for _ in range(g_prime)]
            n_phi = a + [q_rng.randrange(-6, 7) for _ in range(r_prime)]
            if n_phi not in queries:        # a repeat would be one document less
                queries.append(n_phi)
        for n_phi in queries:
            docs.append(_doc("fan extends",
                             ["fan", "extends", "--nphi", json.dumps(n_phi), "@FAN"],
                             needs=b.key, facts=dict(b.facts, n_phi=n_phi)))
    return docs


# ---------------------------------------------------------------------------
# orbit: translation orbit closures
# ---------------------------------------------------------------------------

# Documents per lattice for each (g, alpha kind).  Per-document times form
# clusters, cheapest first: g = 1 (5-9 ms at the reference speed), then at
# g = 2 rational (h = 0, 15 ms), quad (h = 1, 24 ms), quad2 (h = 2, 34 ms)
# and uniform alpha (h = 4, 48 ms).  These counts (24, 12, 30, 8 and 28
# documents) put the median in the middle of the quad cluster and p90 inside
# the uniform one, away from the edges between clusters, where one document
# more or less on one side moves a quantile by a whole gap.
ORBIT_PER_CELL = {(1, "uniform"): 4, (1, "rational"): 4, (1, "quad"): 4,
                  (2, "uniform"): 14, (2, "rational"): 6, (2, "quad"): 15,
                  (2, "quad2"): 4}
SQRT2, SQRT3 = math.sqrt(2), math.sqrt(3)


def _standard_lattice(g):
    """Basis e_1..e_g, i e_1..i e_g as a list of complex g-vectors."""
    basis = [[complex(i == j) for i in range(g)] for j in range(g)]
    basis += [[1j * (i == j) for i in range(g)] for j in range(g)]
    return basis


def _skew_lattice(g, rng):
    """Period lattice e_1..e_g, Omega e_1..Omega e_g with Omega = X + iY,
    X symmetric and Y symmetric positive definite (Riemann's conditions)."""
    X = [[0.0] * g for _ in range(g)]
    Y = [[0.0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            X[i][j] = X[j][i] = round(rng.uniform(-0.5, 0.5), 6)
            Y[i][j] = Y[j][i] = round(rng.uniform(-0.2, 0.2), 6)
        Y[i][i] = round(rng.uniform(0.9, 1.6), 6)   # diagonally dominant => PD
    basis = [[complex(i == j) for i in range(g)] for j in range(g)]
    basis += [[complex(X[i][j], Y[i][j]) for i in range(g)] for j in range(g)]
    return basis


def _alpha_coords(kind, g, rng):
    """Real dual coordinates x (length 2g) of alpha, and the expected real
    dimension h of the orbit closure where it is known exactly."""
    n = 2 * g
    if kind == "uniform":
        return [rng.random() for _ in range(n)], None
    if kind == "rational":
        return [rng.randrange(0, 7) / rng.randrange(1, 8) for _ in range(n)], 0
    # quadratic irrationals: x = r + s*sqrt2, plus t*sqrt3 for quad2; the
    # relations are the q with q.s = q.t = 0, so h = rank [s; t], which is
    # 1 for quad and 2 for quad2.
    r = [rng.randrange(0, 4) / rng.randrange(1, 4) for _ in range(n)]
    s = [rng.choice((0, 0, 1, -1, 2)) for _ in range(n)]
    if not any(s):
        s[rng.randrange(n)] = 1
    t = [0] * n
    while kind == "quad2" and _rank([s, t]) < 2:
        t = [rng.choice((0, 0, 1, -1)) for _ in range(n)]
    x = [ri + si * SQRT2 + ti * SQRT3 for ri, si, ti in zip(r, s, t)]
    return x, _rank([s, t])


def orbit_corpus(seed):
    rng = random.Random(f"orbit:{seed}")
    docs = []
    for g in (1, 2):
        for lat_name in ("standard", "skew"):
            basis = _standard_lattice(g) if lat_name == "standard" \
                else _skew_lattice(g, rng)
            lattice = {"g": g, "basis": [[[z.real, z.imag] for z in v]
                                         for v in basis]}
            for kind in ("uniform", "rational", "quad", "quad2"):
                cell = set()
                while len(cell) < ORBIT_PER_CELL.get((g, kind), 0):
                    x, h = _alpha_coords(kind, g, rng)
                    if tuple(x) in cell:    # rational alpha can repeat at g = 1
                        continue
                    cell.add(tuple(x))
                    alpha = [sum(x[j] * basis[j][i] for j in range(2 * g))
                             for i in range(g)]
                    docs.append(_doc(
                        "orbit analyze",
                        ["orbit", "analyze", "--lattice", json.dumps(lattice),
                         "--alpha", json.dumps([[z.real, z.imag] for z in alpha])],
                        facts={"g": g, "alpha_kind": kind, "lattice": lat_name,
                               "expected_h": h}))
    # interleave the cells so that no stretch of a pass is all one kind
    rng.shuffle(docs)
    return docs


# ---------------------------------------------------------------------------
# algebra: exact algebra, verdicts, catalog
# ---------------------------------------------------------------------------

# Ascending coefficient lists.
CYCLOTOMIC = {1: [-1, 1], 2: [1, 1], 3: [1, 1, 1], 4: [1, 0, 1],
              5: [1, 1, 1, 1, 1], 6: [1, -1, 1], 8: [1, 0, 0, 0, 1],
              10: [1, -1, 1, -1, 1], 12: [1, 0, -1, 0, 1]}
# Monic, constant term +-1, no cyclotomic factor.
CYCLOTOMIC_FREE = ([1, -3, 1], [-1, -1, 1], [1, -4, 1], [-1, -1, 0, 1],
                   [-1, -3, 0, 1], [1, 1, -3, -1, 1], [1, 3, -3, -4, 1, 1])
CATALOG_CASES = {"2.1": 2, "2.2": 2, "3.1": 3, "3.2": 3, "4.5": 4, "4.8": 4,
                 "5.5": 5}
G2_TABLE = {(0, 0): "Regularizable", (0, 1): "Regularizable",
            (0, 2): "Regularizable", (1, 0): "Regularizable",
            (1, 1): "NotRegularizable", (1, 2): "Undetermined"}
MATRICES_PER_SIZE = 5
# Smith-form coefficient growth keeps about one `split` in six at 10x10,
# and a few at 7x7 to 9x9, running far past the deadline.  Those sizes come
# from a fixed seed, not from --seed, so that every run carries the same
# documents past the deadline: drawn from --seed, the known failures, and
# with them the timed documents, would change from one seed to the next.
# Below 7x7 the growth was not seen in 400 samples of sizes 5 and 6, and
# those sizes are seeded.
SEEDED_SIZES = range(2, 7)
FIXED_SIZES = (7, 8, 9, 10)
FIXED_SEED = "algebra:fixed"


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def companion(p):
    """Companion matrix of a monic polynomial (ascending coefficients)."""
    d = len(p) - 1
    return [[(1 if i == j + 1 else 0) if j < d - 1 else -p[i]
             for j in range(d)] for i in range(d)]


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = row
        off += len(b)
    return out


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def random_unimodular(n, rng, entry_bound, steps):
    """(U, U^-1) from a word of elementary operations; the inverse is tracked
    alongside, so no division is ever needed."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    uinv = [row[:] for row in u]
    done = attempts = 0
    while done < steps and attempts < 50 * steps and n > 1:
        attempts += 1
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if op == 0:
            s = rng.choice((1, -1))
            cand = [x + s * y for x, y in zip(u[i], u[j])]
            if max(abs(x) for x in cand) > entry_bound:
                continue
            u[i] = cand                     # row_i += s row_j
            for row in uinv:                # col_j -= s col_i
                row[j] -= s * row[i]
        elif op == 1:
            u[i], u[j] = u[j], u[i]
            for row in uinv:
                row[i], row[j] = row[j], row[i]
        else:
            u[i] = [-x for x in u[i]]
            for row in uinv:
                row[i] = -row[i]
        done += 1
    return u, uinv


def _random_blocks(n, rng):
    """Cyclotomic blocks and cyclotomic-free companion blocks of total size n."""
    free_target = rng.randrange(0, n + 1)
    polys = []
    size = 0
    while True:
        fits = [p for p in CYCLOTOMIC_FREE if len(p) - 1 <= free_target - size]
        if not fits:
            break
        p = rng.choice(fits)
        polys.append(p)
        size += len(p) - 1
    while size < n:
        fits = [p for p in CYCLOTOMIC.values() if len(p) - 1 <= n - size]
        p = rng.choice(fits)
        polys.append(p)
        size += len(p) - 1
    rng.shuffle(polys)
    return polys


def conjugated_matrix(n, rng):
    """u M u^-1 for M a block sum of companion matrices and u a word of 4n
    elementary operations with entries bounded by 3."""
    polys = _random_blocks(n, rng)
    m = block_diag([companion(p) for p in polys])
    u, uinv = random_unimodular(n, rng, 3, 4 * n)
    return mat_mul(mat_mul(u, m), uinv)


def _matrix_docs(matrix, group):
    payload = json.dumps(matrix)
    facts = {"matrix": matrix, "group": group}
    return [_doc("analyze", ["analyze"], payload, facts),
            _doc("split", ["split"], payload, facts)]


def algebra_corpus(seed):
    rng = random.Random(f"algebra:{seed}")
    docs = []
    for n in SEEDED_SIZES:
        for _ in range(MATRICES_PER_SIZE):
            docs += _matrix_docs(conjugated_matrix(n, rng), f"{n}x{n}")
    fixed = random.Random(FIXED_SEED)
    for n in FIXED_SIZES:
        for _ in range(MATRICES_PER_SIZE):
            docs += _matrix_docs(conjugated_matrix(n, fixed), f"{n}x{n}-fixed")
    for case, g in CATALOG_CASES.items():
        r = rng.randrange(0, g + 1)
        d = rng.choice((2, 3, 5, 7)) if case == "2.2" else 2
        opts = ["--case", case, "--d", str(d), "--r", str(r)]
        facts = {"case": case, "g": g, "r": r}
        docs.append(_doc("catalog build", ["catalog", "build"] + opts, facts=facts))
        docs.append(_doc("end-to-end", ["end-to-end"] + opts, facts=facts))
    unipotent = [1, -4, 6, -4, 1]                      # (T - 1)^4
    for (k, r), status in G2_TABLE.items():
        payload = {"g": 2, "charpoly": unipotent, "r": r, "k": k}
        docs.append(_doc("decide", ["decide"], json.dumps(payload),
                         {"payload": payload, "expected_status": status}))
    for g in (2, 3, 4, 5):                             # rule R3
        charpoly = [1]
        while len(charpoly) - 1 < 2 * g:
            left = 2 * g - (len(charpoly) - 1)
            fits = [p for p in CYCLOTOMIC_FREE
                    if len(p) - 1 <= left and left - (len(p) - 1) != 1]
            charpoly = poly_mul(charpoly, rng.choice(fits))
        payload = {"g": g, "charpoly": charpoly, "r": rng.randrange(1, g + 1)}
        docs.append(_doc("decide", ["decide"], json.dumps(payload),
                         {"payload": payload, "expected_status": "NotRegularizable"}))
    rng.shuffle(docs)
    return docs

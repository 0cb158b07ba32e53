"""Gamma-invariant Delaunay fans of toroidal degenerations.

A one-parameter degeneration with unipotent monodromy M = [[I, B],[0, I]]
carries a symmetric positive semi-definite integer matrix B which, in a
suitable unimodular basis, becomes diag(0, B') with B' positive definite of
size r' (the torus rank of the degeneration).  The group Gamma acts on the
extended cocharacter lattice N x Z (coordinates (a, b, k) with a the abelian
block, b the torus block, k the height) by

    (alpha, beta) . (a, b, k)  =  (a, b + k * beta * B', k).

The admissible fans supporting the compactified models are the cones over
the Delaunay decomposition of the height-1 affine lattice under a
Gamma-invariant positive definite metric.  The fan is infinite; we store one
fundamental set of cones under Gamma plus the translation data, and perform
all membership tests modulo Gamma.

GammaData is the one place that knows the period lattice: one pass over
[B' | I] (exactalg._definite_adjugate) checks that B' is positive definite
and keeps B' as rows, det B' > 0 and adj(B') = det B' * B'^-1.  Every
Gamma-translate b + beta * B', every reduction of b into the fundamental
cell (beta = floor(adj(B') b / det B')) and every regularizing power is an
inner product of those integer rows.  It is built from B alone
(period_data, which leaves the definiteness of B' to that pass); a
monodromy matrix is only read for its block B.

Delaunay cells are written down exactly, with no search.  For r' <= 3
every lattice has an obtuse superbase v_0..v_r' (sum v_i = 0, every
v_i.Q.v_j <= 0 for i != j), found by Selling reduction in integers
(Selling 1874; Conway & Sloane, "Low-dimensional lattices VI: Voronoi
reduction of three-dimensional lattices", Proc. R. Soc. A 436, 1992).  The
number of steps grows with the skew of the metric, so a metric that needs
more than MAX_SELLING_STEPS is refused (ContractError).  If
no Selling parameter -v_i.Q.v_j vanishes, the Delaunay cells are the
Z^{r'}-translates of the simplices {0, v_s1, v_s1 + v_s2, ...} over the
orders s of v_1..v_r': r'! det B' cells (det B' <= MAX_DET_BPRIME) of
|det| 1, as Selling steps are unimodular, so they tile a fundamental cell
and no volume is checked.  A zero parameter is exactly a cospherical
configuration; each parameter is compared as that of Q + sum_k eps^k E_k
for an infinitesimal eps > 0 (Edelsbrunner & Mucke, "Simulation of
Simplicity", ACM Trans. Graphics 9, 1990), whose simplices refine the
Delaunay cells of Q, so a fan stores the metric it was given.  A fan is
built as, and a stored fan certified by, the
face set of its cells (Fulton, Introduction to Toric Varieties, 1.4: a fan
is the faces of its maximal cones): the faces of the r'! simplices, each
moved so its smallest vertex is 0 and then to each of the det B' coset
representatives, are the Gamma-canonical forms of every cone, with no
reduction per vertex.  validate_fan and section_extends share that one
certificate, face_set, computed once per document, and a rejected fan is
explained by set difference against it (a fan file equal to its layout
needs no more: serialize.built_fan).  That makes the section-extension
test an O(1) look at the abelian block.
A cone is the sorted tuple of its primitive generators, each in Z^{g+1}
with the height last (the zero cone is ()), in a Fan as everywhere else.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub

from .errors import ContractError, DimensionError
from .exactalg import (IntMatrix, _bareiss, _definite_adjugate, is_positive_definite,
                       kernel_completion, minor_gcd)

MAX_R_PRIME = 3  # obtuse superbases need not exist past it, and the steps differ
MAX_DET_BPRIME = 1000  # the cells of a fan number r'! det B'
# Selling steps of one reduction: the fan corpus takes at most 4 and the tests
# at most 19, and 1000 take about 7 ms at r' = 2 and 10 ms at r' = 3 (a 2-vCPU
# x86-64 VM, Python 3.11).
MAX_SELLING_STEPS = 1000


# ---------------------------------------------------------------------------
# Gamma data and cones
# ---------------------------------------------------------------------------

class GammaData(namedtuple("GammaData", "g_prime r_prime Bprime rows det adj")):
    """Abelian dimension g', torus rank r', and the positive definite
    integral matrix B' driving the Gamma-translations.  Also holds B' as
    rows, det B' and the integer adjugate adj(B'), computed once from the
    three given."""
    __slots__ = ()

    def __new__(cls, g_prime, r_prime, Bprime):
        if g_prime < 0 or r_prime < 1:
            raise ContractError("need g' >= 0 and r' >= 1")
        B = Bprime
        if B.rows != r_prime or B.cols != r_prime:
            raise DimensionError("Bprime must be r' x r'")
        rows = B._rows()
        if rows != list(zip(*rows)):
            raise ContractError("Bprime must be symmetric")
        inverse = _definite_adjugate(rows)
        if inverse is None:
            raise ContractError("Bprime must be positive definite")
        det, adj = inverse
        return super().__new__(cls, g_prime, r_prime, B, tuple(rows), det, tuple(map(tuple, adj)))

    def __getnewargs__(self):
        return self[:3]

    @property
    def g(self):
        return self.g_prime + self.r_prime


def _translate(gens, shift, g_prime):
    """Generators moved by the Gamma-translation of period shift (b -> b + k*shift)."""
    return tuple(v[:g_prime] + tuple(x + v[-1] * s for x, s in zip(v[g_prime:-1], shift))
                 + v[-1:] for v in gens)


def _reduce_mod_period(b, gamma):
    """Write b = b0 + beta*B' with b0 in the fundamental half-open cell
    (coordinates of b*B'^-1 in [0,1)); returns (b0, beta)."""
    # b*B'^-1 = adj(B') b / det B', as B' is symmetric
    beta = tuple(sum(map(mul, row, b)) // gamma.det for row in gamma.adj)
    return tuple(bi - sum(map(mul, row, beta)) for bi, row in zip(b, gamma.rows)), beta


def _canonical_gens(gens, gamma):
    """Canonical representative under Gamma of the cone with the sorted
    generators gens, if they all sit at height 1 (else gens): translate so
    the smallest one's torus block lies in the fundamental cell.  Every
    generator moves by the same vector, so the result is sorted."""
    if not gens or any(v[-1] != 1 for v in gens):
        return gens
    gp = gamma.g_prime
    b = gens[0][gp:-1]
    b0, _ = _reduce_mod_period(b, gamma)
    if b0 == b:
        return gens
    return _translate(gens, tuple(x - y for x, y in zip(b0, b)), gp)


# ---------------------------------------------------------------------------
# monodromy normalization
# ---------------------------------------------------------------------------

def _block_B(M):
    """B of a monodromy matrix in the normalized block shape [[I, B],[0, I]].
    That shape makes M unipotent, as (M - I)^2 = 0."""
    if not M.is_square() or M.rows % 2 != 0:
        raise DimensionError("monodromy matrix must be square of even size 2g")
    g = M.rows // 2
    for i in range(g):
        for j in range(g):
            if M[i, j] != (1 if i == j else 0):
                raise ContractError("top-left block must be the identity")
            if M[g + i, j] != 0:
                raise ContractError("bottom-left block must vanish")
            if M[g + i, g + j] != (1 if i == j else 0):
                raise ContractError("bottom-right block must be the identity")
    return IntMatrix.from_rows([[M[i, g + j] for j in range(g)] for i in range(g)])


def period_data(B):
    """(W, B', r') for a symmetric period-translation matrix B: the
    unimodular W satisfies W B W^T = diag(0, B') with B' nonsingular of
    size r' = rank B.  B is positive semi-definite exactly when B' is
    positive definite, which is left to the callers (monodromy_to_B, and
    GammaData in gamma_from_B), so it is tested once.

    The first g - r' rows of W span Z^g intersect ker B (kernel_completion).
    The rest are the unit vectors e_j at the columns j that are not pivots
    of those rows, so B' is the principal submatrix of B on those columns,
    unless that W has det other than +-1; then the rest are the remaining
    rows of kernel_completion's T, and B' the last r' rows and columns of
    T B T^T."""
    if B != B.transpose():
        raise ContractError("period translation matrix is not symmetric")
    g = B.rows
    # basis change: kernel lattice first, completion after
    T, k = kernel_completion(B)
    W = IntMatrix.identity(g)
    if k:  # else B' is B
        pivots, _ = _bareiss(T[:k], g)
        units = W.to_rows()
        W = IntMatrix.from_rows(T[:k] + [units[j] for j in range(g) if j not in pivots])
        if abs(W.det()) != 1:
            W = IntMatrix.from_rows(T)
        B = W @ B @ W.transpose()
        if any(B[i, j] for i in range(g) for j in range(g) if i < k or j < k):  # diag(0, B')
            raise AssertionError("basis change failed to split off the kernel")
    Bp = [[B[i, j] for j in range(k, g)] for i in range(k, g)]
    return W, IntMatrix.from_rows(Bp), g - k


def monodromy_to_B(M):
    """(B, W) for a monodromy matrix in the normalized block shape [[I, B],
    [0, I]]: its period-translation matrix B and the basis change W of
    period_data, once is_positive_definite accepts B'.  A matrix of any
    other shape, a non-unipotent one among them, is refused with the block
    that differs."""
    B = _block_B(M)
    W, Bp, _ = period_data(B)
    if not is_positive_definite(Bp._rows()):
        raise ContractError("period translation matrix is not positive semi-definite")
    return B, W


def gamma_from_B(B):
    """The GammaData of a period-translation matrix B (period_data), whose
    one pass over B' also tests that B is positive semi-definite."""
    _, Bp, r_prime = period_data(B)
    if r_prime == 0:
        raise ContractError("non-degenerating monodromy (B = 0): no fan to build")
    try:
        return GammaData(g_prime=B.rows - r_prime, r_prime=r_prime, Bprime=Bp)
    except ContractError:  # W B W^T is symmetric, so B' can only be indefinite
        raise ContractError("period translation matrix is not positive semi-definite") from None


def nakamura_data(M):
    """Convenience: monodromy -> GammaData (B' block and ranks)."""
    return gamma_from_B(_block_B(M))


# ---------------------------------------------------------------------------
# Delaunay fan construction
# ---------------------------------------------------------------------------

class Fan(namedtuple("Fan", "cones gamma metric seed", defaults=(None,))):
    """A Gamma-fundamental set of cones, each a sorted generator tuple,
    plus the translation data, the rational metric it is the fan of (row
    tuples of Fractions) and the seed of a random one."""
    __slots__ = ()

    def maximal_cones(self):
        d = max(map(len, self.cones), default=0)
        return [c for c in self.cones if len(c) == d]


def _obtuse_superbase(Q):
    """Selling reduction: an obtuse superbase v_0..v_r' of Z^{r'} (r' <= 3)
    under Q_eps, i.e. sum v_i = 0, v_1..v_r' a basis and v_i.Q_eps.v_j < 0
    for i != j, from (-sum e_i, e_1, .., e_r'), each step at the first pair
    with a positive parameter.  Q_eps = Q + sum_k eps^k E_k for an
    infinitesimal eps > 0, the E_k being the E_(a,b) with 1 at (a, b) and
    (b, a) in the order (0, 0), (0, 1), .., (0, r'-1), (1, 1), .., (r'-1,
    r'-1), on which the triangulation of a cospherical Q depends.
    v_i.Q_eps.v_j has the sign of the first non-zero entry of (v_i.Q.v_j,
    v_i.E_1.v_j, ..), one of which is non-zero as v_i and v_j are, and the
    E_k part is computed only where v_i.Q.v_j = 0.  Q (ints or Fractions)
    is scaled by the lcm of its denominators, which keeps every sign.  Q
    must be positive definite: each step lowers sum v_i.Q_eps.v_i
    lexicographically, so it ends; past MAX_SELLING_STEPS it raises
    ContractError."""
    rp = len(Q)
    D = math.lcm(*(x.denominator for row in Q for x in row))
    DQ = [[x.numerator * (D // x.denominator) for x in row] for row in Q]
    units = list(itertools.combinations_with_replacement(range(rp), 2))  # the E_k
    vs = [(-1,) * rp] + [tuple(int(i == j) for j in range(rp)) for i in range(rp)]
    # the other r' - 1 vectors absorb 2 v_i, so sum v = 0 is kept
    step = 2 if rp == 2 else 1
    pairs = list(itertools.combinations(range(rp + 1), 2))
    for _ in range(MAX_SELLING_STEPS + 1):
        Qv = [[sum(map(mul, row, v)) for row in DQ] for v in vs]
        for (i, j), x in zip(pairs, (sum(map(mul, Qv[i], vs[j])) for i, j in pairs)):
            if x > 0 or not x and _eps_part(vs[i], vs[j], units) > 0:
                break
        else:
            return vs
        vi = vs[i]
        vs = [tuple(-x for x in vi) if k == i else v if k == j
              else tuple(x + step * y for x, y in zip(v, vi)) for k, v in enumerate(vs)]
    raise ContractError(f"the metric needs more than {MAX_SELLING_STEPS} Selling steps")


def _eps_part(v, w, units):
    """The first non-zero v.E_(a,b).w over units, doubled where a = b."""
    return next(filter(None, (v[a] * w[b] + v[b] * w[a] for a, b in units)))


def _coset_representatives(gamma):
    """The det B' points of Z^{r'} in the fundamental cell, one per class of
    Z^{r'} / B' Z^{r'}: the closure of 0 under b -> b + e_i mod B'.  It is
    walked on y = adj(B') b, which the step takes to (y + adj(B') e_i) mod
    det B', and b = B' y / det B'."""
    det = gamma.det
    ys = [(0,) * gamma.r_prime]
    seen = set(ys)
    for y in ys:
        for column in gamma.adj:  # adj(B') is symmetric
            z = tuple(map(det.__rmod__, map(add, y, column)))
            if z not in seen:
                seen.add(z)
                ys.append(z)
    return [tuple(sum(map(mul, row, y)) // det for row in gamma.rows) for y in ys]


@lru_cache(maxsize=None)
def _subset_chains(r):
    """The chains 0 = m_0 < m_1 < .. < m_j (j >= 0) of bit masks of subsets
    of r elements, each mask a proper subset of the next."""
    chains = [(0,)]
    for c in chains:  # the list grows as it is walked
        chains.extend(c + (c[-1] | m,) for m in range(1, 1 << r) if not m & c[-1])
    return tuple(chains)


def _delaunay_faces(gamma, Q):
    """The Gamma-canonical forms (_canonical_gens) of every cone of the
    Delaunay fan of Z^{r'} under the positive definite rational metric Q,
    the zero cone included, as sorted generator tuples; for a cospherical Q,
    those of the triangulation of Q_eps (_obtuse_superbase), which refines
    its Delaunay cells.  From the obtuse superbase of Q_eps the cells are the
    Z^{r'}-translates of the simplices {0, v_s1, v_s1 + v_s2, ..} over the
    orders s of v_1..v_r' (Conway & Sloane 1992).  Their faces are the
    chains of subset sums of v_1..v_r', so every cone is a translate of a
    chain that starts at 0 (_subset_chains), moved so its smallest vertex
    is 0, and that is translated to each coset representative c: canonical,
    as its smallest vertex is c, so no vertex is reduced mod B'.  Raises
    ContractError if det B' > MAX_DET_BPRIME, before enumerating, or if the
    Selling steps pass their limit."""
    if gamma.det > MAX_DET_BPRIME:
        raise ContractError(f"det B' = {gamma.det} is above the limit {MAX_DET_BPRIME}")
    origin, zero = (0,) * gamma.r_prime, (0,) * gamma.g_prime
    sums = [origin]  # sums[m]: the sum of the v_i with bit i of m set
    for v in _obtuse_superbase(Q)[1:]:
        sums += [tuple(map(add, p, v)) for p in sums]
    chains = (sorted(sums[m] for m in chain) for chain in _subset_chains(gamma.r_prime))
    templates = [tuple(tuple(map(sub, p, pts[0])) for p in pts) for pts in chains]
    reps = _coset_representatives(gamma)
    # each vertex's generators at the representatives, in one order: a
    # face's translates are then the zip of its vertices' lists
    gens = {p: [zero + tuple(map(add, p, c)) + (1,) for c in reps]
            for p in set().union(*templates)}
    faces = {()}
    for face in templates:
        faces.update(zip(*map(gens.__getitem__, face)))
    return faces


def delaunay_fan(gamma_data, metric="standard", seed=0):
    """Build the Gamma-invariant Delaunay fan: cones over the Delaunay cells
    of the height-1 lattice, one fundamental set, closed under faces.  The
    metric is "standard" (or "identity") or a rational r' x r' matrix, and
    the fan stores it as given; a cospherical one gets the triangulation of
    _delaunay_faces.  face_set checks the rest, and its reason (r' above
    MAX_R_PRIME, a metric that is not symmetric or not positive definite,
    det B' or the Selling steps above their limit) is raised as
    ContractError.  seed is stored with the fan, as the seed of a random
    metric."""
    rp = gamma_data.r_prime
    if metric in ("standard", "identity"):
        metric = [[int(i == j) for j in range(rp)] for i in range(rp)]
    elif isinstance(metric, str):
        raise ContractError(f"unknown metric keyword: {metric}")
    Q = [[Fraction(x) for x in row] for row in metric]
    if len(Q) != rp or any(len(row) != rp for row in Q):
        raise DimensionError("metric must be r' x r'")
    faces = face_set(gamma_data, Q)
    if not isinstance(faces, set):  # the reason there is none
        raise ContractError(str(faces))
    return fan_of_faces(faces, gamma_data, Q, seed)


def fan_of_faces(faces, gamma, Q, seed):
    """The Fan that `fan build` stores for a face set: the cones by
    dimension, then by generators."""
    return Fan(tuple(sorted(sorted(faces), key=len)), gamma, tuple(map(tuple, Q)), seed)


# ---------------------------------------------------------------------------
# validation and queries
# ---------------------------------------------------------------------------

class FanReport(namedtuple("FanReport", "violations non_regular")):
    """The violations found, and the indices of rejected cones whose maximal
    minors have gcd > 1."""
    __slots__ = ()

    @property
    def ok(self):
        return not self.violations


def face_set(gamma, Q):
    """The face set of the Delaunay fan of the metric Q (_delaunay_faces,
    which triangulates a cospherical Q as delaunay_fan does), or the reason
    there is none: the one violation (r' > MAX_R_PRIME, Q not symmetric, or
    not positive definite), or the ContractError of det B' or the Selling
    steps above their limit."""
    rp = gamma.r_prime
    if rp > MAX_R_PRIME:
        return "Delaunay cells are computed for r' <= 3 only"
    if any(Q[i][j] != Q[j][i] for i in range(rp) for j in range(i)):
        return "metric is not symmetric"
    # first: the Selling loop need not end on an indefinite form
    if not is_positive_definite(Q):
        return "metric is not positive definite"
    try:
        return _delaunay_faces(gamma, Q)
    except ContractError as exc:
        return exc


def _certify(fan, faces=None):
    """(violations, non-regular cone indices) of the fan against faces =
    face_set(fan.gamma, fan.metric), unless given: both empty exactly when
    the stored cones, taken up to Gamma, are that set with no repeats.  A
    metric with no face set gives its violation alone, or raises its
    ContractError.  A fan as built stores the canonical forms, so it is
    accepted by one comparison of raw generator tuples; any other fan has
    each cone sorted and canonicalized, and is named by set difference:
    each stored cone that is no face (a repeated generator among them) or
    repeats one up to Gamma, then each missing face.  A cone with a
    generator of the wrong length is never canonicalized, as _translate
    would truncate it."""
    gamma = fan.gamma
    if faces is None:
        faces = face_set(gamma, fan.metric)
    if isinstance(faces, ContractError):
        raise faces
    if isinstance(faces, str):
        return (faces,), ()
    stored = fan.cones
    if len(stored) == len(faces) and set(stored) == faces:
        return (), ()
    violations, rejected, seen = [], [], {}
    for idx, gens in enumerate(stored):
        gens = tuple(sorted(gens))
        if any(len(v) != gamma.g + 1 for v in gens):
            violations.append(f"cone {idx}: not a cone of the Delaunay fan of the metric")
            continue
        c = _canonical_gens(gens, gamma)
        if c in seen:
            violations.append(f"cone {idx}: Gamma-duplicate of cone {seen[c]}")
        else:
            seen[c] = idx
            if c in faces:
                continue
            violations.append(f"cone {idx}: not a cone of the Delaunay fan of the metric")
        rejected.append(idx)
    violations += [f"missing cone {c}" for c in sorted(sorted(faces.difference(seen)), key=len)]
    # a face has minor gcd 1, and so has each Gamma-translate of one
    return tuple(violations), tuple(i for i in rejected if minor_gcd(stored[i]) > 1)


def validate_fan(fan, faces=None):
    """Certify a fan: it is accepted when its cones, taken up to Gamma, are
    the face set of the Delaunay cells of its own metric, with no repeats
    (_certify).  Gamma acts by unimodular maps and each cell is a unimodular
    simplex, so an accepted fan has primitive generators (0_{g'}, b, 1), is
    simplicial and closed under faces, and its r'! det B' cells of volume
    1/r'! tile one fundamental cell.  Otherwise the report names the
    violations, and non_regular lists the rejected cones whose generators
    have minor gcd above 1; det B' > MAX_DET_BPRIME, or a metric that needs
    more than MAX_SELLING_STEPS, is the one violation.  faces: see _certify."""
    try:
        return FanReport(*_certify(fan, faces))
    except ContractError as exc:  # det B' or the Selling steps above their limit
        return FanReport((str(exc),), ())


def section_extends(n_phi, fan, faces=None):
    """True iff the ray through (n_phi, 1) lies in some cone of the fan.
    The fan must pass the certificate of validate_fan, and det B' be at
    most MAX_DET_BPRIME (ContractError otherwise).  Its cones then lie in
    {0} x R^{r'} x R and cover the cone over {0} x R^{r'} x {1}, so the ray
    is in the fan exactly when the abelian block of n_phi vanishes: at
    height 1 an integer b is a vertex of the subdivision, so its ray is a
    ray of the fan.  faces: see _certify."""
    gamma = fan.gamma
    n_phi = tuple(int(x) for x in n_phi)
    if len(n_phi) != gamma.g:
        raise DimensionError("n_phi must have g coordinates")
    violations, _ = _certify(fan, faces)
    if violations:
        raise ContractError(f"not the Delaunay fan of its metric: {violations[0]}")
    return not any(n_phi[:gamma.g_prime])


def translation_regularizable(n_phi, gamma_data):
    """The algorithmic core of the finite-order regularization: if the
    abelian block of n_phi vanishes, ((N, beta), "") for the minimal N >= 1
    with N * b = beta * B' for its torus block b and an integer vector beta.
    Otherwise (None, the reason).  With y = adj(B') b, b * B'^-1 = y / det B',
    so N = det B' / gcd(det B', y) and beta = y * N / det B'."""
    n_phi = tuple(int(x) for x in n_phi)
    gp = gamma_data.g_prime
    if len(n_phi) != gamma_data.g:
        raise DimensionError("n_phi must have g coordinates")
    a, b = n_phi[:gp], n_phi[gp:]
    if any(x != 0 for x in a):
        return None, "abelian coordinate nonzero (a genuine section cannot twist the abelian block)"
    det = gamma_data.det
    y = [sum(map(mul, row, b)) for row in gamma_data.adj]
    N = det // math.gcd(det, *y)
    return (N, tuple(yi * N // det for yi in y)), ""


def central_fiber_combinatorics(fan):
    """(ray orbits, maximal-cone orbits) of the central fiber of the model."""
    return sum(len(c) == 1 for c in fan.cones), len(fan.maximal_cones())

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

GammaData is the one place that knows the period lattice: it eliminates
[B' | I] once (exactalg's fraction-free Bareiss elimination) and caches
B' as rows, det B' > 0 and adj(B') = det B' * B'^-1.  Every Gamma-translate
b + beta * B', every reduction of b into the fundamental cell (beta =
floor(adj(B') b / det B')) and every regularizing power is an inner product
of those integer rows.  A rejected fan is explained on integer rows too:
the same elimination gives each cone's minor gcd and each cell's volume.

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
configuration and triggers a seeded rational perturbation of the metric,
with a retry cap.  A fan is built as, and a stored fan certified by, the
face set of its cells: one reduction per vertex gives the Gamma-canonical
form of every face (Fulton, Introduction to Toric Varieties, 1.4: a fan is
the faces of its maximal cones).  That makes the section-extension test an
O(1) look at the abelian block.  Cones are sorted generator tuples until a
Fan stores them.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import ContractError, DimensionError, NumericIndeterminacyError
from .exactalg import (IntMatrix, _bareiss, is_positive_definite,
                       kernel_completion, minor_gcd)

MAX_METRIC_RETRIES = 16
MAX_DET_BPRIME = 1000  # the cells of a fan number r'! det B'
# Selling steps of one reduction: the fan corpus and the tests take at most 7,
# and 1000 take about 16 ms.
MAX_SELLING_STEPS = 1000


# ---------------------------------------------------------------------------
# Gamma data and cones
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaData:
    """Abelian dimension g', torus rank r', and the positive definite
    integral matrix B' driving the Gamma-translations.  Also holds B' as
    rows, det B' and the integer adjugate adj(B'), computed once."""
    g_prime: int
    r_prime: int
    Bprime: IntMatrix

    def __post_init__(self):
        if self.g_prime < 0 or self.r_prime < 1:
            raise ContractError("need g' >= 0 and r' >= 1")
        B = self.Bprime
        if B.rows != self.r_prime or B.cols != self.r_prime:
            raise DimensionError("Bprime must be r' x r'")
        if B != B.transpose():
            raise ContractError("Bprime must be symmetric")
        rows = B.to_rows()
        if not is_positive_definite(rows):
            raise ContractError("Bprime must be positive definite")
        # Gauss-Jordan on [B' | I] leaves [det B' * I | adj(B')]
        rp = self.r_prime
        a = [row + [int(i == j) for j in range(rp)] for i, row in enumerate(rows)]
        _, det = _bareiss(a, rp)
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "adj", tuple(tuple(row[rp:]) for row in a))

    @property
    def g(self):
        return self.g_prime + self.r_prime


@dataclass(frozen=True)
class Cone:
    """Simplicial rational cone in the extended lattice N x Z, stored by its
    primitive generators (each a vector in Z^{g+1}, last coordinate = height).
    The zero cone has no generators."""
    generators: tuple

    def __post_init__(self):
        gens = Cone._of(tuple(int(x) for x in v) for v in self.generators).generators
        object.__setattr__(self, "generators", gens)

    @staticmethod
    def _of(gens):
        """From tuples of ints (internal results and parsed files): sorted
        and checked for duplicates, with no conversion."""
        gens = tuple(sorted(gens))
        if len(set(gens)) != len(gens):
            raise ContractError("duplicate cone generators")
        cone = object.__new__(Cone)
        object.__setattr__(cone, "generators", gens)
        return cone

    @property
    def dim(self):
        return len(self.generators)


def _faces(gens):
    """Every face of a simplicial cone (sorted generators): every sub-tuple."""
    return itertools.chain.from_iterable(
        itertools.combinations(gens, size) for size in range(len(gens) + 1))


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

def monodromy_to_B(M):
    """Extract the period-translation matrix B from a unipotent monodromy
    matrix in the normalized block shape [[I, B],[0, I]], verify that B is
    symmetric positive semi-definite, and return (B, basis_change) where the
    unimodular basis_change W satisfies W B W^T = diag(0, B') with B'
    positive definite of size r' = rank B.

    The first g - r' rows of W span Z^g intersect ker B (kernel_completion).
    The rest are the unit vectors e_j at the columns j that are not pivots
    of those rows, so B' is the principal submatrix of B on those columns,
    unless that W has det other than +-1; then the rest are the remaining
    rows of kernel_completion's T, and B' the last r' rows and columns of
    T B T^T."""
    B, W, _, _ = _monodromy_split(M)
    return B, W


def _monodromy_split(M):
    """(B, W, W B W^T, r'): the work of monodromy_to_B, kept for nakamura_data."""
    if not M.is_square() or M.rows % 2 != 0:
        raise DimensionError("monodromy matrix must be square of even size 2g")
    g = M.rows // 2
    # unipotence: N^(2g) = 0, by square-and-multiply
    if (M - IntMatrix.identity(2 * g)) ** (2 * g) != IntMatrix.zero(2 * g, 2 * g):
        raise ContractError("monodromy is not unipotent: pass a unipotent power M^n")
    # block shape
    for i in range(g):
        for j in range(g):
            if M[i, j] != (1 if i == j else 0):
                raise ContractError("top-left block must be the identity")
            if M[g + i, j] != 0:
                raise ContractError("bottom-left block must vanish")
            if M[g + i, g + j] != (1 if i == j else 0):
                raise ContractError("bottom-right block must be the identity")
    B = IntMatrix.from_rows([[M[i, g + j] for j in range(g)] for i in range(g)])
    if B != B.transpose():
        raise ContractError("period translation matrix is not symmetric")
    # basis change: kernel lattice first, completion after
    T, k = kernel_completion(B)
    r_prime = g - k
    pivots, _ = _bareiss(T[:k], g)
    units = IntMatrix.identity(g).to_rows()
    W = IntMatrix.from_rows(T[:k] + [units[j] for j in range(g) if j not in pivots])
    if abs(W.det()) != 1:
        W = IntMatrix.from_rows(T)
    # sanity: W B W^T = diag(0, B')
    WB = W @ B @ W.transpose()
    for i in range(g):
        for j in range(g):
            if (i < k or j < k) and WB[i, j] != 0:
                raise AssertionError("basis change failed to split off the kernel")
    # W is unimodular and B' = WB[k:, k:] is nonsingular, so B is positive
    # semi-definite exactly when B' is positive definite
    if r_prime and not is_positive_definite([[WB[i, j] for j in range(k, g)]
                                             for i in range(k, g)]):
        raise ContractError("period translation matrix is not positive semi-definite")
    return B, W, WB, r_prime


def nakamura_data(M):
    """Convenience: monodromy -> GammaData (B' block and ranks)."""
    B, W, WB, r_prime = _monodromy_split(M)
    g = B.rows
    if r_prime == 0:
        raise ContractError("non-degenerating monodromy (B = 0): no fan to build")
    Bp = IntMatrix.from_rows([[WB[g - r_prime + i, g - r_prime + j]
                               for j in range(r_prime)] for i in range(r_prime)])
    return GammaData(g_prime=g - r_prime, r_prime=r_prime, Bprime=Bp)


# ---------------------------------------------------------------------------
# Delaunay fan construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fan:
    """A Gamma-fundamental set of cones plus the translation data."""
    cones: tuple
    gamma: GammaData
    metric: tuple  # rational metric actually used, row tuples of Fractions
    seed: int | None = None

    def maximal_cones(self):
        d = max((c.dim for c in self.cones), default=0)
        return [c for c in self.cones if c.dim == d]


class _DegenerateMetric(Exception):
    pass


def _normalize_metric(metric, r_prime):
    if isinstance(metric, str):
        if metric in ("standard", "identity"):
            return [[Fraction(int(i == j)) for j in range(r_prime)] for i in range(r_prime)]
        raise ContractError(f"unknown metric keyword: {metric}")
    Q = [[Fraction(x) for x in row] for row in metric]
    if len(Q) != r_prime or any(len(row) != r_prime for row in Q):
        raise DimensionError("metric must be r' x r'")
    if any(Q[i][j] != Q[j][i] for i in range(r_prime) for j in range(i)):
        raise ContractError("metric must be symmetric")
    if not is_positive_definite(Q):
        raise ContractError("metric must be positive definite")
    return Q


def _perturb_metric(Q, rng):
    """Small random rational symmetric perturbation keeping positive
    definiteness (resampled until PD)."""
    n = len(Q)
    for _ in range(64):
        P = [row[:] for row in Q]
        for i in range(n):
            for j in range(i, n):
                eps = Fraction(rng.randint(-9, 9), 997 + 2 * rng.randint(0, 200))
                P[i][j] = P[i][j] + eps
                if i != j:
                    P[j][i] = P[i][j]
        if is_positive_definite(P):
            return P
    raise NumericIndeterminacyError("could not perturb metric to positive definite")


def _obtuse_superbase(Q):
    """Selling reduction: an obtuse superbase v_0..v_r' of Z^{r'} under Q
    (r' <= 3), i.e. sum v_i = 0, v_1..v_r' a basis and v_i.Q.v_j <= 0 for
    i != j, from (-sum e_i, e_1, .., e_r').  Q (ints or Fractions) is
    scaled by the lcm D > 0 of its denominators, which keeps every sign.  Q
    must be positive definite: each step lowers sum v_i.DQ.v_i, so it ends.
    Raises _DegenerateMetric if a Selling parameter -v_i.Q.v_j vanishes (a
    cospherical configuration), and ContractError past MAX_SELLING_STEPS."""
    rp = len(Q)
    D = math.lcm(*(x.denominator for row in Q for x in row))
    DQ = [[x.numerator * (D // x.denominator) for x in row] for row in Q]
    vs = [(-1,) * rp] + [tuple(int(i == j) for j in range(rp)) for i in range(rp)]
    # the other r' - 1 vectors absorb 2 v_i, so sum v = 0 is kept
    step = 2 if rp == 2 else 1
    pairs = list(itertools.combinations(range(rp + 1), 2))
    for _ in range(MAX_SELLING_STEPS + 1):
        Qv = [[sum(q * x for q, x in zip(row, v)) for row in DQ] for v in vs]
        p = {(i, j): sum(x * y for x, y in zip(Qv[i], vs[j])) for i, j in pairs}
        i, j = next((ij for ij in pairs if p[ij] > 0), (None, None))
        if i is None:
            if 0 in p.values():
                raise _DegenerateMetric("zero Selling parameter: cospherical configuration")
            return vs
        vi = vs[i]
        vs = [tuple(-x for x in vi) if k == i else v if k == j
              else tuple(x + step * y for x, y in zip(v, vi)) for k, v in enumerate(vs)]
    raise ContractError(f"the metric needs more than {MAX_SELLING_STEPS} Selling steps")


def _coset_representatives(gamma):
    """The det B' points of Z^{r'} in the fundamental cell, one per class of
    Z^{r'} / B' Z^{r'}: the closure of 0 under b -> b + e_i mod B'."""
    reps = [(0,) * gamma.r_prime]
    seen = set(reps)
    for b in reps:
        for i in range(gamma.r_prime):
            c, _ = _reduce_mod_period(b[:i] + (b[i] + 1,) + b[i + 1:], gamma)
            if c not in seen:
                seen.add(c)
                reps.append(c)
    return reps


def _delaunay_cells(gamma, Q):
    """One Gamma-fundamental set of the Delaunay cells of Z^{r'} under the
    positive definite rational metric Q: sorted, with sorted vertices, the
    first in the fundamental cell.  From an obtuse superbase with non-zero
    Selling parameters they are the Z^{r'}-translates of the simplices
    {0, v_s1, v_s1 + v_s2, ..} over the orders s of v_1..v_r' (Conway &
    Sloane 1992).  Raises ContractError if det B' > MAX_DET_BPRIME, before
    enumerating, and _DegenerateMetric on an exact cosphericity."""
    if gamma.det > MAX_DET_BPRIME:
        raise ContractError(f"det B' = {gamma.det} is above the limit {MAX_DET_BPRIME}")
    rp = gamma.r_prime
    reps = _coset_representatives(gamma)
    cells = []
    for order in itertools.permutations(_obtuse_superbase(Q)[1:]):
        pts = sorted(itertools.accumulate(
            order, lambda p, v: tuple(x + y for x, y in zip(p, v)), initial=(0,) * rp))
        # the translate whose first vertex is the representative c is canonical
        cells += [tuple(tuple(x - y + z for x, y, z in zip(p, pts[0], c)) for p in pts)
                  for c in reps]
    return sorted(cells)


def _cell_gens(cell, g_prime):
    """The sorted generators of the cone over a height-1 cell, abelian block 0."""
    return tuple((0,) * g_prime + v + (1,) for v in cell)


def _face_set(cells, gamma):
    """The Gamma-canonical forms (_canonical_gens) of every face of the cones
    over the cells, the zero cone included.  A face is sorted and a
    Gamma-translation moves all its generators by one vector, so its form
    is fixed by its smallest vertex: each distinct vertex is reduced once,
    and vertex i, with gens[i:] moved by its shift, heads every subset of
    the later vertices."""
    gp, faces = gamma.g_prime, {()}
    shift = functools.cache(lambda b: tuple(
        x - y for x, y in zip(_reduce_mod_period(b, gamma)[0], b)))
    for cell in cells:
        gens = _cell_gens(cell, gp)
        for i, b in enumerate(cell):
            head, *tail = _translate(gens[i:], shift(b), gp)
            faces.update((head,) + face for face in _faces(tail))
    return faces


def delaunay_fan(gamma_data, metric="standard", seed=0):
    """Build the Gamma-invariant Delaunay fan: cones over the Delaunay cells
    of the height-1 lattice, one fundamental set, closed under faces.  The
    metric is "standard" (or "identity") or a symmetric positive definite
    rational r' x r' matrix.

    Degenerate (cospherical) metrics are retried with rational perturbations
    drawn from random.Random(seed), up to a cap of 16; the default seed 0
    makes every call reproducible."""
    rp = gamma_data.r_prime
    if not (1 <= rp <= 3):
        raise ContractError("desk scale: 1 <= r' <= 3")
    Q = base = _normalize_metric(metric, rp)
    rng = random.Random(seed)
    last_err = None
    for _ in range(MAX_METRIC_RETRIES):
        try:
            cells = _delaunay_cells(gamma_data, Q)
            break
        except _DegenerateMetric as exc:
            last_err = exc
            Q = _perturb_metric(base, rng)
    else:
        raise NumericIndeterminacyError(
            f"no generic metric found in {MAX_METRIC_RETRIES} retries: {last_err}")
    cones = sorted(_face_set(cells, gamma_data), key=lambda c: (len(c), c))
    return Fan(cones=tuple(Cone._of(c) for c in cones),
               gamma=gamma_data, metric=tuple(tuple(row) for row in Q), seed=seed)


# ---------------------------------------------------------------------------
# validation and queries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FanReport:
    violations: tuple
    non_regular: tuple  # indices of non-regular (but accepted) cones

    @property
    def ok(self):
        return not self.violations


def _metric_cells(fan):
    """(the Delaunay cells of the fan's metric, None), or (None, why it has
    none: r' > 3, not symmetric, not positive definite, or a zero Selling
    parameter).  ContractError: det B' or the Selling steps too large."""
    gamma, Q = fan.gamma, fan.metric
    rp = gamma.r_prime
    if rp > 3:  # obtuse superbases need not exist, and the steps differ
        return None, "Delaunay cells are computed for r' <= 3 only"
    if any(Q[i][j] != Q[j][i] for i in range(rp) for j in range(i)):
        return None, "metric is not symmetric"
    # first: the Selling loop need not end on an indefinite form
    if not is_positive_definite(Q):
        return None, "metric is not positive definite"
    try:
        return _delaunay_cells(gamma, Q), None
    except _DegenerateMetric as exc:
        return None, f"metric has no Delaunay triangulation: {exc}"


def _delaunay_violations(fan, cells, unmet):
    """Why the fan is not the Delaunay fan of its metric (empty if it is),
    given _metric_cells(fan): unmet, or a generator other than (0_{g'}, b,
    1) in Z^{g+1}, or maximal cones that are not the cells up to Gamma."""
    if unmet:
        return [unmet]
    gamma = fan.gamma
    gp = gamma.g_prime
    violations = []
    if any(len(v) != gamma.g + 1 or any(v[:gp]) or v[-1] != 1
           for c in fan.cones for v in c.generators):
        violations.append("a generator is not of the form (0, b, 1)")
    if {_canonical_gens(c.generators, gamma) for c in fan.maximal_cones()} \
            != {_cell_gens(c, gp) for c in cells}:
        violations.append("maximal cones are not the Delaunay cells of the metric")
    return violations


def validate_fan(fan):
    """Check the admissibility and Gamma-structure of a fan.  It is accepted
    when its metric has Delaunay cells, each generator has g + 1 coordinates
    (_translate truncates a longer one), and the canonical forms of its
    cones are distinct and are the cells' face set: Gamma acts by unimodular
    maps, each cell is a unimodular simplex (each face has minor gcd 1 and
    primitive generators at height 1), the set is closed under faces, and
    its r'! det B' cells of volume 1/r'! tile one fundamental cell, so every
    check below passes.  Otherwise they run, to name the violations: per-cone
    invariants (primitive generators, simplicial/strongly convex, positive
    height, nonnegative heights), face closure, absence of duplicates and
    of cones that are not a face of a maximal cone, all up to Gamma, the
    ray form (0_{g'}, b, 1), the covering proxy (the height-1 cells of the
    maximal cones tile one fundamental cell of Pi exactly), and that the
    maximal cones are the Delaunay cells of the fan's metric (or det B' >
    MAX_DET_BPRIME, or the metric needs more than MAX_SELLING_STEPS).
    Non-regular simplicial cones are flagged."""
    gamma = fan.gamma
    gp, rp = gamma.g_prime, gamma.r_prime
    try:
        delaunay, unmet = _metric_cells(fan)
    except ContractError as exc:  # det B' or the Selling steps above their limit
        delaunay, unmet = None, str(exc)
    stored = [c.generators for c in fan.cones]
    if delaunay and all(len(v) == gamma.g + 1 for gens in stored for v in gens):
        stored = [_canonical_gens(gens, gamma) for gens in stored]
        if len(stored) == len(set(stored)) and set(stored) == _face_set(delaunay, gamma):
            return FanReport((), ())
    violations = []
    non_regular = []
    canon = functools.cache(functools.partial(_canonical_gens, gamma=gamma))
    canon_seen = {}
    for idx, cone in enumerate(fan.cones):
        gens = cone.generators
        if gens:  # the zero cone takes only the duplicate check
            for v in gens:
                if len(v) != gamma.g + 1:
                    violations.append(f"cone {idx}: generator dimension != g+1")
                    continue
                if math.gcd(*v) != 1:
                    violations.append(f"cone {idx}: non-primitive generator {v}")
                if v[-1] < 0:
                    violations.append(f"cone {idx}: negative height generator {v}")
            index = minor_gcd(gens)
            if index == 0:
                violations.append(
                    f"cone {idx}: generators dependent (not simplicial / not strongly convex)")
            if all(v[-1] == 0 for v in gens):
                violations.append(f"cone {idx}: contained in N x {{0}}")
            # regularity: generators extend to a basis of the saturated span lattice
            if index > 1:
                non_regular.append(idx)
        # Gamma-duplicates
        c = canon(gens)
        if c in canon_seen:
            violations.append(
                f"cone {idx}: Gamma-duplicate of cone {canon_seen[c]}")
        else:
            canon_seen[c] = idx
    # face closure up to Gamma
    fan_canon = {canon(c.generators) for c in fan.cones}
    for idx, cone in enumerate(fan.cones):
        for face in _faces(cone.generators):
            if canon(face) not in fan_canon:
                violations.append(f"cone {idx}: missing face {face}")
    # every cone is a face of a maximal cone, up to Gamma
    max_faces = {canon(face) for c in fan.maximal_cones() for face in _faces(c.generators)}
    violations += [f"cone {idx}: not a face of a maximal cone"
                   for idx, c in enumerate(fan.cones) if canon(c.generators) not in max_faces]
    # ray condition
    for idx, cone in enumerate(fan.cones):
        if cone.dim == 1:
            v = cone.generators[0]
            if any(x != 0 for x in v[:gp]) or v[-1] != 1:
                violations.append(f"ray {idx}: not of the form (0, b, 1): {v}")
    # covering / invariance proxy: maximal height-1 cells tile a fundamental
    # cell (a cone with a generator of the wrong length is reported above)
    max_cones = [c for c in fan.cones if c.dim == rp + 1
                 and all(len(v) == gamma.g + 1 for v in c.generators)]
    if all(all(v[-1] == 1 for v in c.generators) for c in max_cones):
        cells = [[v[gp:gp + rp] for v in c.generators] for c in max_cones]
        # |det| of each cell: r'! times its volume
        vols = [_bareiss([[x - y for x, y in zip(v, cell[0])] for v in cell[1:]], rp)
                for cell in cells]
        vols = [abs(d) if len(pivots) == rp else 0 for pivots, d in vols]
        total = sum(vols)
        covol = gamma.det * math.factorial(rp)
        if 0 in vols:
            violations.append("degenerate maximal cell")
        elif total != covol:
            violations.append(
                f"height-1 cells do not tile the fundamental cell "
                f"(volume {total}/{math.factorial(rp)} vs covolume {covol}/{math.factorial(rp)}): "
                "Gamma-invariance/covering violated")
    violations += _delaunay_violations(fan, delaunay, unmet)
    return FanReport(tuple(violations), tuple(non_regular))


def section_extends(n_phi, fan):
    """True iff the ray through (n_phi, 1) lies in some cone of the fan.
    The fan must be the Delaunay fan of its own metric, det B' at most
    MAX_DET_BPRIME (ContractError otherwise).  Its cones then lie in {0} x
    R^{r'} x R and cover the cone over {0} x R^{r'} x {1}, so the ray is in
    the fan exactly when the abelian block of n_phi vanishes: at height 1 an
    integer b is a vertex of the subdivision, so its ray is a ray of the fan."""
    gamma = fan.gamma
    n_phi = tuple(int(x) for x in n_phi)
    if len(n_phi) != gamma.g:
        raise DimensionError("n_phi must have g coordinates")
    violations = _delaunay_violations(fan, *_metric_cells(fan))
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
    return sum(c.dim == 1 for c in fan.cones), len(fan.maximal_cones())

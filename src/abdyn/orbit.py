"""Finite-precision analyzer of translation orbit closures.

A translation by alpha on a complex torus V/Lambda has orbit closure a real
subtorus; its dimension and complex structure are controlled by the rational
relation lattice of the real dual coordinates x_1..x_2g of alpha:

    L = { q integer : q . x  is rational },     h = 2g - dim L.

Each relation q gives a real linear form l_q on V and the complex-linear form
u_q(v) = l_q(v) - i l_q(iv); the intersection of the kernels of the u_q is
the maximal complex subspace A of the orbit-closure tangent space, of complex
dimension s.  Then r = h - 2s, the orbit is dense iff h = 2g, and the closure
is totally real iff s = 0.

Relations are found by lattice-basis reduction on the augmented vector
(x_1, .., x_2g, 1) scaled by 1/tol, so results are certificates at a stated
height bound, never proofs of absence.  The reduction is exactalg's
lll_reduce, the integral LLL of Cohen (A Course in Computational Algebraic
Number Theory, Alg. 2.6.7), exact in integers throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ContractError, NumericIndeterminacyError
from .exactalg import IntMatrix, _bareiss, lll_reduce


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NumericLattice:
    """A rank-2g lattice in C^g: basis vectors as complex g-vectors, plus an
    optional integer symplectic polarization matrix on the basis."""
    g: int
    basis: tuple  # 2g tuples of complex numbers
    polarization: IntMatrix | None = None

    def __post_init__(self):
        basis = tuple(tuple(complex(x) for x in v) for v in self.basis)
        object.__setattr__(self, "basis", basis)
        if len(basis) != 2 * self.g or any(len(v) != self.g for v in basis):
            raise ContractError("need 2g basis vectors of length g")
        if self.polarization is not None:
            E = self.polarization
            if E.rows != 2 * self.g or E.cols != 2 * self.g:
                raise ContractError("polarization must be 2g x 2g")
            if E != E.transpose() * (-1):
                raise ContractError("polarization must be skew-symmetric")

    def real_matrix(self):
        """2g x 2g real matrix whose columns are the basis vectors in the
        coordinates (Re z_1..Re z_g, Im z_1..Im z_g)."""
        cols = []
        for v in self.basis:
            cols.append([z.real for z in v] + [z.imag for z in v])
        return np.array(cols, dtype=float).T

    def condition_number(self):
        return float(np.linalg.cond(self.real_matrix()))


@dataclass(frozen=True)
class Relation:
    q: tuple          # integer 2g-vector
    q_prime: int      # denominator-cleared rational value of q . x
    residual: float

    def to_json_dict(self):
        return {"q": [str(x) for x in self.q], "q_prime": str(self.q_prime),
                "residual": self.residual}


@dataclass(frozen=True)
class OrbitReport:
    h: int
    s: int
    r: int
    relations: tuple
    dense: bool
    totally_real: bool
    height_bound: int
    tol: float

    def __post_init__(self):
        g2 = self.h + len(self.relations)
        assert 0 <= self.h <= g2
        assert 0 <= 2 * self.s <= self.h
        assert self.r == self.h - 2 * self.s

    def to_json_dict(self):
        return {"h": self.h, "s": self.s, "r": self.r,
                "relations": [rel.to_json_dict() for rel in self.relations],
                "dense": self.dense, "totally_real": self.totally_real,
                "height_bound": self.height_bound, "tol": self.tol}


# ---------------------------------------------------------------------------
# coordinates and relations
# ---------------------------------------------------------------------------

def real_dual_coords(lattice, v, tol=1e-10):
    """Coordinates x with v = sum x_j e_j as a real combination of the
    lattice basis; residual-checked."""
    A = lattice.real_matrix()
    if np.linalg.cond(A) > 1e12:
        raise NumericIndeterminacyError("lattice basis is ill-conditioned")
    v = tuple(complex(z) for z in v)
    rhs = np.array([z.real for z in v] + [z.imag for z in v], dtype=float)
    x = np.linalg.solve(A, rhs)
    # hypot scales internally, where a sum of squares would overflow
    resid = math.hypot(*(A @ x - rhs))
    scale = max(1.0, math.hypot(*rhs))
    if resid > 1e-10 * scale:
        raise NumericIndeterminacyError(f"reconstruction residual {resid} too large")
    return tuple(float(t) for t in x)


def _independent(vectors):
    """Indices of the greedy independent subset of integer vectors: each is
    kept unless it lies in the rational span of the earlier ones.  These are
    the pivot columns of the matrix with the vectors as its columns."""
    pivots, _ = _bareiss([list(col) for col in zip(*vectors)], len(vectors))
    return pivots


def _round_scaled(scale, t):
    """round(scale * t) for the LLL rows; a product beyond the float range
    has no integer to round to."""
    s = scale * t
    if not math.isfinite(s):
        raise NumericIndeterminacyError(
            f"coordinate {t!r} scaled by 1/tol = {scale} is not finite")
    return round(s)


def relation_lattice(coords, height_bound=50, tol=1e-10):
    """Integer relations q with q . x rational, certified at the given height
    bound: LLL on the augmented vector (x_1..x_2g, 1) scaled by 1/tol.  Each
    returned Relation carries q, the denominator-cleared rational value
    q' = q . x (an integer because the search works on (x, 1)), and the float
    residual |q . x - q'|."""
    if height_bound < 1:
        raise ContractError("height bound must be >= 1")
    if not 0 < tol < math.inf:  # also false for nan
        raise ContractError("tol must be positive and finite")
    n = len(coords)
    scale = round(1.0 / tol)
    dim = n + 1
    rows = []
    for i in range(n):
        row = [0] * dim + [_round_scaled(scale, coords[i])]
        row[i] = 1
        rows.append(row)
    last = [0] * dim + [scale]
    last[n] = 1
    rows.append(last)
    reduced = lll_reduce(rows)
    found = []
    for row in reduced:
        q = row[:n]
        m = row[n]
        if all(x == 0 for x in q):
            continue
        value = sum(qi * xi for qi, xi in zip(q, coords))
        residual = abs(value + m)
        if residual >= tol:
            continue
        if max(max(abs(x) for x in q), abs(m)) > height_bound:
            continue
        found.append(Relation(q=tuple(q), q_prime=-m, residual=float(residual)))
    # keep an independent subset (rank of the q-parts over Q)
    found.sort(key=lambda r: max(abs(x) for x in r.q))
    return [found[i] for i in _independent([rel.q for rel in found])]


def _complex_forms(lattice, relations):
    """Rows of the matrix of the complex-linear forms u_q in the standard
    coordinates of C^g."""
    A = lattice.real_matrix()
    Ainv = np.linalg.inv(A)
    g = lattice.g

    def ell(q, v):
        """the real form l_q evaluated at a complex g-vector v"""
        rhs = np.array([z.real for z in v] + [z.imag for z in v], dtype=float)
        return float(np.dot(q, Ainv @ rhs))

    rows = []
    for rel in relations:
        q = np.array(rel.q, dtype=float)
        row = []
        for k in range(g):
            e = [0j] * g
            e[k] = 1.0 + 0j
            ie = [0j] * g
            ie[k] = 1j
            row.append(ell(q, e) - 1j * ell(q, ie))
        rows.append(row)
    return np.array(rows, dtype=complex) if rows else np.zeros((0, g), dtype=complex)


def _rank_with_band(sv, tol):
    """Rank decision with an explicit indeterminacy band: singular values in
    (tol*smax, 10*tol*smax) are refused."""
    if len(sv) == 0:
        return 0
    smax = max(float(sv[0]), 1.0)
    lo, hi = tol * smax, 10 * tol * smax
    if any(lo < s < hi for s in sv):
        raise NumericIndeterminacyError(
            "borderline singular value inside the indeterminacy band; "
            "choose a different tol")
    return int(sum(s >= hi for s in sv))


def orbit_dims(lattice, alpha, height_bound=50, tol=1e-10):
    """Compute the orbit-closure report (h, s, r) for translation by alpha."""
    coords = real_dual_coords(lattice, alpha, tol)
    relations = relation_lattice(coords, height_bound, tol)
    g = lattice.g
    h = 2 * g - len(relations)
    C = _complex_forms(lattice, relations)
    if C.shape[0] == 0:
        s = g
    else:
        sv = np.linalg.svd(C, compute_uv=False)
        rank = _rank_with_band(sv, tol)
        s = g - rank
    r = h - 2 * s
    if r < 0:
        raise NumericIndeterminacyError(
            "inconsistent (h, s): relation search and rank decision disagree")
    return OrbitReport(h=h, s=s, r=r, relations=tuple(relations),
                       dense=(h == 2 * g), totally_real=(s == 0),
                       height_bound=height_bound, tol=tol)


# ---------------------------------------------------------------------------
# polarized splitting A x B
# ---------------------------------------------------------------------------

def _complex_subspace_basis(C, g, tol):
    """Orthonormal basis (rows) of the null space of the complex form matrix."""
    if C.shape[0] == 0:
        return np.eye(g, dtype=complex)
    u, sv, vh = np.linalg.svd(C)
    rank = _rank_with_band(sv, tol)
    return vh[rank:].conj()


def _hermitian_form(lattice):
    """The polarization's hermitian form H(v, w) = E(iv, w) + i E(v, w) as a
    g x g matrix in standard coordinates (linear in the first argument)."""
    E = np.array(lattice.polarization.to_rows(), dtype=float)
    A = lattice.real_matrix()
    Ainv = np.linalg.inv(A)
    g = lattice.g

    def E_real(v, w):
        xv = Ainv @ np.array([z.real for z in v] + [z.imag for z in v])
        xw = Ainv @ np.array([z.real for z in w] + [z.imag for z in w])
        return float(xv @ E @ xw)

    H = np.zeros((g, g), dtype=complex)
    basis = np.eye(g, dtype=complex)
    for a in range(g):
        for b in range(g):
            v, w = basis[a], basis[b]
            H[a, b] = E_real(1j * v, w) + 1j * E_real(v, w)
    return H


def _sublattice_in_subspace(lattice, proj_perp, tol):
    """Integer combinations of the lattice basis lying in a complex subspace
    (those annihilated by the projection onto its orthocomplement), found by
    LLL with 1/tol scaling.  Returns the integer coefficient vectors."""
    g2 = 2 * lattice.g
    scale = round(1.0 / tol)
    tails = []
    for v in lattice.basis:
        w = proj_perp @ np.array(v, dtype=complex)
        tails.append([w.real, w.imag])
    dim_t = 2 * proj_perp.shape[0]
    rows = []
    for i in range(g2):
        row = [0] * g2
        row[i] = 1
        flat = np.concatenate(tails[i])
        row += [_round_scaled(scale, t) for t in flat]
        rows.append(row)
    reduced = lll_reduce(rows)
    coeffs = []
    for row in reduced:
        q = row[:g2]
        tail = row[g2:]
        if all(x == 0 for x in q):
            continue
        # exact residual check in float
        vec = sum(np.array(lattice.basis[i], dtype=complex) * q[i] for i in range(g2))
        resid = float(np.linalg.norm(proj_perp @ vec))
        if resid < 100 * tol * max(1.0, float(np.linalg.norm(vec))):
            coeffs.append(q)
    return [coeffs[i] for i in _independent(coeffs)]


def split_A_B(lattice, alpha, height_bound=50, tol=1e-10):
    """Split the ambient polarized torus along the orbit closure of alpha:
    A = maximal complex subspace of the closure's tangent space, B = its
    polarization-orthogonal complement; alpha = a + b along the splitting.
    Returns (A_basis, B_basis, a, b) with the bases as orthonormal complex
    row matrices, and asserts that translation by a is dense on the induced
    subtorus of A and translation by b has totally real closure in B."""
    if lattice.polarization is None:
        raise ContractError("split_A_B needs a polarization")
    g = lattice.g
    coords = real_dual_coords(lattice, alpha, tol)
    relations = relation_lattice(coords, height_bound, tol)
    C = _complex_forms(lattice, relations)
    A_basis = _complex_subspace_basis(C, g, tol)  # s rows
    s = A_basis.shape[0]
    H = _hermitian_form(lattice)
    # B = H-orthogonal complement of A: w with H(a_i, w) = 0 for all i
    if s == 0:
        B_basis = np.eye(g, dtype=complex)
    elif s == g:
        B_basis = np.zeros((0, g), dtype=complex)
    else:
        # H(a_i, w) = a_i^T H w-bar?  With H linear in the first argument and
        # antilinear in the second: H(a, w) = sum a_j H[j,k] conj(w_k).
        Mcond = A_basis @ H  # rows: k -> coefficient of conj(w_k)
        _, sv, vh = np.linalg.svd(Mcond)
        rank = _rank_with_band(sv, tol)
        B_basis = vh[rank:]  # null space of conj(w) -> conjugate back
        B_basis = B_basis.conj()
    # split alpha
    stack = np.vstack([A_basis, B_basis]).T  # g x g complex
    coeffs = np.linalg.solve(stack, np.array(alpha, dtype=complex))
    a_vec = (A_basis.T @ coeffs[:s]) if s else np.zeros(g, dtype=complex)
    b_vec = np.array(alpha, dtype=complex) - a_vec
    # assert the structure on the induced subtori
    if s > 0:
        subA = _induced_sublattice(lattice, A_basis, tol)
        repA = orbit_dims(subA, tuple((A_basis.conj() @ a_vec).tolist()),
                          height_bound, tol)
        if not repA.dense:
            raise NumericIndeterminacyError("A-component is not dense on its subtorus")
    if s < g:
        subB = _induced_sublattice(lattice, B_basis, tol)
        repB = orbit_dims(subB, tuple((B_basis.conj() @ b_vec).tolist()),
                          height_bound, tol)
        if not repB.totally_real:
            raise NumericIndeterminacyError("B-component closure is not totally real")
    return A_basis, B_basis, tuple(a_vec.tolist()), tuple(b_vec.tolist())


def _induced_sublattice(lattice, sub_basis, tol):
    """NumericLattice induced on a complex subspace (orthonormal row basis):
    lattice points inside the subspace, in subspace coordinates."""
    s = sub_basis.shape[0]
    g = lattice.g
    # orthocomplement projector
    P = np.eye(g, dtype=complex) - sub_basis.T @ sub_basis.conj()
    # reduce the projector to its row space for the tail coordinates
    u, sv, vh = np.linalg.svd(P)
    rank = int(sum(sv > 0.5))  # projector: singular values are 0/1
    proj = vh[:rank].conj() if rank else np.zeros((0, g), dtype=complex)
    coeffs = _sublattice_in_subspace(lattice, proj, tol)
    if len(coeffs) != 2 * s:
        raise NumericIndeterminacyError(
            f"sublattice rank {len(coeffs)} != 2s = {2 * s}: raise the height bound")
    new_basis = []
    for q in coeffs:
        vec = sum(np.array(lattice.basis[i], dtype=complex) * q[i]
                  for i in range(2 * g))
        new_basis.append(tuple((sub_basis.conj() @ vec).tolist()))
    # restrict the polarization exactly (integer congruence)
    pol = None
    if lattice.polarization is not None:
        Q = IntMatrix.from_rows(coeffs)
        pol = Q @ lattice.polarization @ Q.transpose()
    return NumericLattice(g=s, basis=tuple(new_basis), polarization=pol)


# ---------------------------------------------------------------------------
# finite-order approximation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Approximant:
    denominator: int
    beta: tuple      # Fractions
    distance: float  # sup-norm distance to alpha
    extends: bool    # B . beta integral (the section-extension condition)

    def to_json_dict(self):
        return {"denominator": self.denominator,
                "beta": [str(x) for x in self.beta],
                "distance": self.distance, "extends": self.extends}


def finite_order_approximations(alpha_pi_coords, denominators, B, tol=1e-9):
    """Rational approximants of a translation vector expressed in the basis
    of the lattice of its invariant subtorus: for each denominator q,
    beta = round(q * alpha)/q, tagged with the extension condition
    B . beta in Z^g (checked exactly on the rationals when shapes allow)."""
    coords = [float(x) for x in alpha_pi_coords]
    out = []
    for q in denominators:
        if q < 1:
            raise ContractError("denominators must be >= 1")
        beta = tuple(Fraction(round(q * x), q) for x in coords)
        distance = max(abs(float(bx) - x) for bx, x in zip(beta, coords)) \
            if coords else 0.0
        extends = False
        if B is not None and B.cols == len(beta):
            image = [sum(B[i, j] * beta[j] for j in range(B.cols))
                     for i in range(B.rows)]
            extends = all(x.denominator == 1 for x in image)
        out.append(Approximant(denominator=int(q), beta=beta,
                               distance=float(distance), extends=extends))
    return out

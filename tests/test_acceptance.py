"""Acceptance gate: the eleven package-level criteria, one pass/fail line
each (printed unbuffered so they appear in any pytest run)."""

import math
import random

import numpy as np
import pytest

from abdyn.catalog import (build_case_matrices, classification_cases,
                           pell_fundamental_unit)
from abdyn.criteria import (NOT_REGULARIZABLE, REGULARIZABLE, UNDETERMINED,
                            FamilyDescriptor, decide_regularizable,
                            restricted_char_poly, split_invariant_subfamily)
from abdyn.degrees import (SemiAbelianAut, blowup_restriction_degrees,
                           first_degree_data, product_Eg_degrees,
                           restriction_inequality_check, semiabelian_degrees)
from abdyn.exactalg import (IntMatrix, IntPolynomial, char_poly, cyclotomic,
                            cyclotomic_split, is_cyclotomic_free,
                            kronecker_is_roots_of_unity)
from abdyn.orbit import NumericLattice, orbit_dims
from abdyn.toroidal import (central_fiber_combinatorics, delaunay_fan,
                            gamma_act, monodromy_to_B, nakamura_data,
                            section_extends, translation_regularizable,
                            validate_fan, GammaData, canonical_cone,
                            _translate_cone)
from util import (compound_matrix, conjugate, degree_sequence_numeric,
                  fit_growth, random_unimodular)

GOLDEN2 = IntMatrix.from_rows([[2, 1], [1, 1]])
J2 = IntMatrix.from_rows([[1, 1], [0, 1]])
J3 = IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])


_capman = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    # pytest captures at the file-descriptor level; the capture manager can
    # temporarily restore the real stdout so the verdict lines appear in any
    # pytest run, not just with -s
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _emit(line):
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def _report(num, desc, fn):
    try:
        fn()
    except BaseException:
        _emit(f"ACCEPTANCE {num:2d} [{desc}]: FAIL")
        raise
    _emit(f"ACCEPTANCE {num:2d} [{desc}]: PASS")


# --- 1: g=2 verdict table -----------------------------------------------------

def test_acceptance_01_g2_table():
    def body():
        cp = IntPolynomial([1, -4, 6, -4, 1])  # (T-1)^4

        def verdict(k, r):
            return decide_regularizable(
                FamilyDescriptor(g=2, charpoly=cp, r=r, k=k)).status

        for r in (0, 1, 2):
            assert verdict(0, r) == REGULARIZABLE
        assert verdict(1, 0) == REGULARIZABLE
        assert verdict(1, 1) == NOT_REGULARIZABLE
        assert verdict(1, 2) == UNDETERMINED
    _report(1, "g=2 verdict table", body)


# --- 2: E^g vs G_m^g contrast ---------------------------------------------------

def test_acceptance_02_product_vs_torus():
    def body():
        prod_lam1 = product_Eg_degrees(GOLDEN2).lambdas[1]
        torus_lam1 = semiabelian_degrees(
            SemiAbelianAut(r=2, g=0, u_T=GOLDEN2)).lambdas[1]
        assert abs(prod_lam1 - 6.8541019662) < 1e-8
        assert abs(torus_lam1 - 2.6180339887) < 1e-8
        assert abs(math.log(prod_lam1) / math.log(torus_lam1) - 2) < 1e-8
    _report(2, "E^g vs torus contrast", body)


# --- 3: closed formula vs numeric oracle ---------------------------------------

def _oracle_informative(aut, checkpoints=(13, 25, 150), rate_window=(130, 150)):
    """True when the short oracle run already sits in the asymptotic regime:
    for every k, all splits (j, k-j) that dominate the product of exterior
    power norms at any checkpoint share the same asymptotic growth rate.  When
    a slow exponential branch is still hidden under another branch at n <= 25
    (or a crossover falls inside the fit window), no fit on the short data can
    recover the rate, so such samples are rejected and redrawn (formula-free
    check: it only powers the matrices)."""
    def log_norms(C, points):
        mat = C.to_numpy()
        acc = np.eye(mat.shape[0])
        log_scale = 0.0
        out = {}
        for n in range(1, max(points) + 1):
            acc = acc @ mat
            norm = np.linalg.norm(acc)
            acc /= norm
            log_scale += math.log(norm)
            if n in points:
                out[n] = log_scale
        return out

    points = set(checkpoints) | set(rate_window)
    for k in range(1, aut.r + aut.g):
        splits = []
        for j in range(0, min(k, aut.g) + 1):
            l = k - j
            if l > aut.r:
                continue
            logs = {n: 0.0 for n in points}
            if j:
                for n, v in log_norms(compound_matrix(aut.u_A_rat, 2 * j),
                                      points).items():
                    logs[n] += v
            if l:
                for n, v in log_norms(compound_matrix(aut.u_T, l),
                                      points).items():
                    logs[n] += v
            rate = (logs[rate_window[1]] - logs[rate_window[0]]) \
                / (rate_window[1] - rate_window[0])
            splits.append((logs, rate))
        winner_rates = []
        for n in checkpoints:
            best = max(s[0][n] for s in splits)
            winner_rates.extend(s[1] for s in splits if s[0][n] > best - 1e-9)
        if max(winner_rates) - min(winner_rates) > 0.02:
            return False
    return True


def _random_aut(rng):
    while True:
        r = rng.randrange(0, 4)
        g = rng.randrange(0, 4)
        if r + g == 0:
            continue
        u_T = random_unimodular(r, rng) if r else None
        if g:
            M = random_unimodular(g, rng)
            u_A = IntMatrix.block_diag(M, M)
        else:
            u_A = None
        aut = SemiAbelianAut(r=r, g=g, u_T=u_T, u_A_rat=u_A)
        if _oracle_informative(aut):
            return aut


def test_acceptance_03_formula_vs_oracle():
    def body():
        rng = random.Random(2024)
        for _ in range(50):
            aut = _random_aut(rng)
            profile = semiabelian_degrees(aut)
            ls = profile.lambdas
            for i in range(1, len(ls) - 1):
                assert ls[i] ** 2 >= ls[i - 1] * ls[i + 1] * (1 - 1e-9)
            for k, lam in enumerate(ls):
                seq = degree_sequence_numeric(aut, k, n_max=25)
                L, _ = fit_growth(seq)
                target = math.log(lam)
                assert abs(L - target) <= 5e-3 * max(1.0, abs(target)), \
                    (aut, k, L, target)
    _report(3, "degree formula vs numeric oracle (50 random)", body)


# --- 4: first-degree growth exponents ------------------------------------------

def test_acceptance_04_first_degree_exponents():
    def body():
        I2, I3, I4 = (IntMatrix.identity(n) for n in (2, 3, 4))
        ROT = IntMatrix.from_rows([[0, -1], [1, 0]])
        bd = IntMatrix.block_diag
        curated = [
            (SemiAbelianAut(2, 0, u_T=J2), 1),
            (SemiAbelianAut(3, 0, u_T=J3), 2),
            (SemiAbelianAut(3, 0, u_T=I3), 0),
            (SemiAbelianAut(0, 2, u_A_rat=bd(J2, J2)), 2),
            (SemiAbelianAut(0, 3, u_A_rat=bd(J2, J2, I2)), 2),
            (SemiAbelianAut(0, 3, u_A_rat=bd(J3, J3)), 4),
            (SemiAbelianAut(2, 2, u_T=J2, u_A_rat=bd(J2, J2)), 2),
            (SemiAbelianAut(3, 2, u_T=J3, u_A_rat=I4), 2),
            (SemiAbelianAut(2, 2, u_T=I2, u_A_rat=bd(J2, J2)), 2),
            (SemiAbelianAut(2, 2, u_T=ROT, u_A_rat=bd(J2, J2)), 2),
        ]
        assert len(curated) == 10
        for aut, expected_d in curated:
            lam1, d = first_degree_data(aut)
            assert lam1 == 1.0 and d == expected_d
            seq = degree_sequence_numeric(aut, 1, n_max=25)
            _, d_fit = fit_growth(seq)
            assert abs(d_fit - d) <= 0.25, (aut, d, d_fit)
    _report(4, "first-degree growth exponents (10 unipotent)", body)


# --- 5: cyclotomic machinery ----------------------------------------------------

def _random_free_factor(rng):
    """Random cyclotomic-free quadratic or cubic; freeness certified by an
    independent numeric oracle (a root off the unit circle)."""
    while True:
        if rng.random() < 0.5:
            a = rng.choice((1, -1)) * rng.randrange(3, 10)
            p = IntPolynomial([rng.choice((1, -1)), a, 1])
        else:
            p = IntPolynomial([rng.choice((1, -1)),
                               rng.randrange(-5, 6),
                               rng.choice((1, -1)) * rng.randrange(3, 8), 1])
        roots = np.roots(p.float_coeffs_descending())
        if max(abs(z) for z in roots) > 1.02:
            # no cyclotomic divisor possible unless a unit-circle root pairs
            # with it; verify exactly by trial division against all Phi_m
            # with phi(m) <= 3 (the only candidates for degree <= 3 factors)
            if all(not cyclotomic(m).divides(p)
                   for m in (1, 2, 3, 4, 6, 7, 9, 14, 18)):
                return p


def test_acceptance_05_cyclotomic_split():
    def body():
        rng = random.Random(99)
        for _ in range(100):
            ms = [rng.randrange(1, 13) for _ in range(rng.randrange(0, 4))]
            cyc = IntPolynomial([1])
            for m in ms:
                cyc = cyc * cyclotomic(m)
            free = _random_free_factor(rng)
            product = cyc * free
            P, Q = cyclotomic_split(product)
            assert P == cyc and Q == free
            assert P * Q == product
            if P.degree >= 1:
                assert kronecker_is_roots_of_unity(P)
            assert is_cyclotomic_free(Q)
    _report(5, "cyclotomic split (100 random products)", body)


# --- 6: splitting theorem --------------------------------------------------------

def test_acceptance_06_splitting():
    def body():
        rng = random.Random(7)
        cyc2 = [cyclotomic(m) for m in (3, 4, 6)]
        free2 = [IntPolynomial([1, -3, 1]), IntPolynomial([-1, -2, 1]),
                 IntPolynomial([1, -4, 1])]
        for trial in range(30):
            if trial % 2 == 0:
                cyc = rng.choice(cyc2)
                free = rng.choice(free2)
            else:
                cyc = rng.choice(cyc2) * rng.choice([cyclotomic(1) ** 2,
                                                     cyclotomic(2) ** 2])
                free = rng.choice(free2)
            blocks = IntMatrix.block_diag(IntMatrix.companion(cyc),
                                          IntMatrix.companion(free))
            n = blocks.rows
            u = conjugate(blocks, random_unimodular(n, rng))
            L0, L1, index = split_invariant_subfamily(u)
            assert L0.rank == cyc.degree and L1.rank == free.degree
            assert L0.rank + L1.rank == n
            assert index >= 1
            assert L0.check_saturated() and L1.check_saturated()
            assert kronecker_is_roots_of_unity(restricted_char_poly(u, L0))
            assert is_cyclotomic_free(restricted_char_poly(u, L1))
    _report(6, "invariant-lattice splitting (30 conjugated)", body)


# --- 7: Tate-curve fans -----------------------------------------------------------

def test_acceptance_07_tate_fans():
    def body():
        for n in range(1, 7):
            M = IntMatrix.from_rows([[1, n], [0, 1]])
            B, _ = monodromy_to_B(M)
            assert B == IntMatrix.from_rows([[n]])
            gd = nakamura_data(M)
            fan = delaunay_fan(gd)
            assert validate_fan(fan).ok
            assert central_fiber_combinatorics(fan) == (n, n)
            for m in range(1, 2 * n + 1):
                res = translation_regularizable((m,), gd)
                assert res is not None
                N, beta = res
                assert N == n // math.gcd(m, n)
    _report(7, "Tate I_n fans and regularizing powers", body)


# --- 8: fan invariance ------------------------------------------------------------

def test_acceptance_08_fan_invariance():
    def body():
        rng = random.Random(4)
        gammas = [
            GammaData(0, 1, IntMatrix.from_rows([[2]])),
            GammaData(0, 1, IntMatrix.from_rows([[3]])),
            GammaData(0, 2, IntMatrix.identity(2)),
            GammaData(0, 2, IntMatrix.from_rows([[2, 1], [1, 3]])),
            GammaData(1, 2, IntMatrix.from_rows([[2, 1], [1, 2]])),
            GammaData(0, 3, IntMatrix.from_rows([[2, 1, 0], [1, 2, 1],
                                                 [0, 1, 2]])),
        ]
        for gd in gammas:
            fan = delaunay_fan(gd, seed=1)
            assert validate_fan(fan).ok
            canon = {canonical_cone(c, gd) for c in fan.cones}
            betas = [tuple(1 if i == j else 0 for i in range(gd.r_prime))
                     for j in range(gd.r_prime)]
            betas += [tuple(-x for x in b) for b in betas]
            for cone in fan.cones:
                for beta in betas:
                    moved = _translate_cone(cone, beta, gd)
                    assert canonical_cone(moved, gd) in canon
            # section_extends invariant under n_phi -> n_phi + beta B'
            for _ in range(5):
                n_phi = tuple(rng.randrange(-4, 5) for _ in range(gd.g))
                base = section_extends(n_phi, fan)
                for beta in betas:
                    shift = gd.Bprime.transpose().mat_vec(beta)
                    shifted = n_phi[:gd.g_prime] + tuple(
                        x + s for x, s in zip(n_phi[gd.g_prime:], shift))
                    assert section_extends(shifted, fan) == base
    _report(8, "fan Gamma-invariance and equivariance", body)


# --- 9: orbit analyzer ------------------------------------------------------------

def test_acceptance_09_orbit():
    def body():
        rng = random.Random(42)
        lat1 = NumericLattice(g=1, basis=((1,), (1j,)))
        # 20 rational-alpha cases -> h = 0
        for _ in range(20):
            alpha = (rng.randrange(0, 7) / rng.randrange(1, 8)
                     + 1j * rng.randrange(0, 7) / rng.randrange(1, 8),)
            assert orbit_dims(lat1, alpha).h == 0
        rep = orbit_dims(lat1, (math.sqrt(2),), height_bound=50, tol=1e-10)
        assert (rep.h, rep.s, rep.r) == (1, 0, 1)
        rep = orbit_dims(lat1, (math.sqrt(2) + math.sqrt(3) * 1j,),
                         height_bound=50, tol=1e-10)
        assert (rep.h, rep.s, rep.r) == (2, 1, 0)
        # >= 95% density on 200 uniform samples, g <= 2
        dense = 0
        for g in (1, 2):
            basis = ((1,), (1j,)) if g == 1 else \
                ((1, 0), (0, 1), (1j, 0), (0, 1j))
            lat = NumericLattice(g=g, basis=basis)
            for _ in range(100):
                alpha = tuple(rng.random() + 1j * rng.random()
                              for _ in range(g))
                dense += orbit_dims(lat, alpha, height_bound=50).dense
        assert dense >= 190, f"density rate {dense}/200"
    _report(9, "orbit analyzer (h,s,r) and density rate", body)


# --- 10: catalog -------------------------------------------------------------------

def test_acceptance_10_catalog():
    def body():
        # continued-fraction units vs exhaustive minimality oracle
        expected = {2: (1, 1, -1), 3: (2, 1, 1), 5: (2, 1, -1),
                    7: (8, 3, 1), 13: (18, 5, -1)}
        for d, sol in expected.items():
            x, y, norm = pell_fundamental_unit(d)
            assert (x, y, norm) == sol
            assert x * x - d * y * y == norm
            for y2 in range(1, y):
                for n2 in (1, -1):
                    s = d * y2 * y2 + n2
                    r = math.isqrt(max(s, 0))
                    assert not (s > 0 and r * r == s)
        # classification counts and m values, verbatim
        expected_m = {2: [1, 2], 3: [1, 3], 4: [1, 2, 4, 2, 4, 6, 2, 3],
                      5: [1, 4, 3, 5, 5]}
        for g, ms in expected_m.items():
            assert [c.m for c in classification_cases(g)] == ms
        # every emitted cyclotomic-free family + r >= 1 -> NotRegularizable
        for case_id in ("2.1", "2.2", "3.1", "3.2", "4.5", "4.8", "5.5"):
            data = build_case_matrices(case_id)
            if not data["is_cyclotomic_free"]:
                continue
            g = data["automorphism"].rows // 2
            for r in range(1, g + 1):
                desc = FamilyDescriptor(g=g, charpoly=data["charpoly"], r=r)
                assert decide_regularizable(desc).status == NOT_REGULARIZABLE
    _report(10, "catalog units, table, end-to-end verdicts", body)


# --- 11: blow-up degree window ------------------------------------------------------

def test_acceptance_11_blowup_window():
    def body():
        rng = random.Random(17)
        # c=1 reproduces the input degrees identically
        for _ in range(10):
            n = rng.randrange(2, 5)
            M = random_unimodular(n, rng)
            prof = semiabelian_degrees(SemiAbelianAut(r=n, g=0, u_T=M))
            lam = list(prof.lambdas)
            assert blowup_restriction_degrees(lam, N=n + 1, c=1) == lam
        # randomized invariant-subtorus instances satisfy the inequality
        for _ in range(15):
            n1 = rng.randrange(1, 4)
            n2 = rng.randrange(1, 4)
            M1 = random_unimodular(n1, rng)
            M2 = random_unimodular(n2, rng)
            full = semiabelian_degrees(
                SemiAbelianAut(r=n1 + n2, g=0,
                               u_T=IntMatrix.block_diag(M1, M2))).lambdas
            sub = semiabelian_degrees(
                SemiAbelianAut(r=n1, g=0, u_T=M1)).lambdas
            assert restriction_inequality_check(list(full), list(sub), c=n2)
    _report(11, "blow-up degree window and restriction inequality", body)

"""Degree-profile tests: closed formula, exact compound-spectrum oracle,
numeric oracle, blow-up windows."""

import math
import random

import pytest

from abdyn.degrees import (DegreeProfile, SemiAbelianAut,
                           blowup_restriction_degrees, first_degree_data,
                           product_Eg_degrees, restriction_inequality_check,
                           semiabelian_degrees)
from abdyn.errors import ContractError
from abdyn.exactalg import IntMatrix, IntPolynomial, char_poly, eigenvalue_moduli
from util import (compound_matrix, degree_sequence_numeric, fit_growth,
                  quasi_unipotent_order, random_unimodular, unipotent_index)

GOLDEN2 = IntMatrix.from_rows([[2, 1], [1, 1]])
ROT4 = IntMatrix.from_rows([[0, -1], [1, 0]])
RHO = (3 + math.sqrt(5)) / 2  # spectral radius of GOLDEN2


def torus_aut(M):
    return SemiAbelianAut(r=M.rows, g=0, u_T=M)


def test_torus_golden_profile():
    prof = semiabelian_degrees(torus_aut(GOLDEN2))
    assert len(prof.lambdas) == 3
    assert abs(prof.lambdas[1] - RHO) < 1e-9
    assert prof.lambdas[0] == prof.lambdas[2] == 1.0


def test_abelian_finite_order_profile():
    # dim G = r + g = 1, so the profile is lambda_0..lambda_1
    aut = SemiAbelianAut(r=0, g=1, u_A_rat=ROT4)
    prof = semiabelian_degrees(aut)
    assert prof.lambdas == (1.0, 1.0)


def test_mixed_torus_plus_trivial_abelian():
    aut = SemiAbelianAut(r=2, g=1, u_T=GOLDEN2, u_A_rat=ROT4)
    prof = semiabelian_degrees(aut)
    assert abs(prof.lambdas[1] - RHO) < 1e-9  # max{rho, 1}


def test_product_Eg_is_rho_squared():
    prof = product_Eg_degrees(GOLDEN2)
    assert abs(prof.lambdas[1] - RHO ** 2) < 1e-8
    assert abs(prof.lambdas[1] - 6.8541019662) < 1e-8


def test_product_Eg_trivial_cases():
    assert product_Eg_degrees(IntMatrix.identity(2)).lambdas == (1.0, 1.0, 1.0)
    assert product_Eg_degrees(ROT4).lambdas == (1.0, 1.0, 1.0)


def test_product_Eg_rejects_nonunimodular():
    with pytest.raises(ContractError):
        product_Eg_degrees(IntMatrix.from_rows([[2, 0], [0, 1]]))


def test_first_degree_data_unipotent_torus():
    aut = torus_aut(IntMatrix.from_rows([[1, 1], [0, 1]]))
    assert first_degree_data(aut) == (1.0, 1)  # d = j_T - 1 = 1


def test_first_degree_data_unipotent_abelian():
    J = IntMatrix.from_rows([[1, 1], [0, 1]])
    aut = SemiAbelianAut(r=0, g=2, u_A_rat=IntMatrix.block_diag(J, J))
    assert first_degree_data(aut) == (1.0, 2)  # d = 2(j_A - 1)


def test_first_degree_data_hyperbolic():
    lam1, d = first_degree_data(torus_aut(GOLDEN2))
    assert abs(lam1 - RHO) < 1e-9 and d is None


def test_part_given_for_zero_rank_is_rejected():
    with pytest.raises(ContractError, match="u_T given"):
        SemiAbelianAut(r=0, g=1, u_T=GOLDEN2, u_A_rat=IntMatrix.identity(2))
    with pytest.raises(ContractError, match="u_A_rat given"):
        SemiAbelianAut(r=2, g=0, u_T=GOLDEN2, u_A_rat=IntMatrix.identity(2))


def test_first_degree_data_of_a_point():
    assert first_degree_data(SemiAbelianAut(r=0, g=0)) == (1.0, 0)


def _spectral_radius(C):
    """rho(C) from the exact char poly of C; the 1 x 1 compound of order 0
    has rho = 1."""
    return eigenvalue_moduli(char_poly(C))[0][0]


def _compound_lambdas(aut):
    """lambda_k = max_j rho(Lambda^{2j} u_A_rat) * rho(Lambda^{k-j} u_T) over
    j <= g, k - j <= r: the exterior-power spectral radii, with no product
    of moduli taken by hand."""
    rho_A = [_spectral_radius(compound_matrix(aut.u_A_rat, 2 * j)) if j else 1.0
             for j in range(aut.g + 1)]
    rho_T = [_spectral_radius(compound_matrix(aut.u_T, l)) if l else 1.0
             for l in range(aut.r + 1)]
    return [max(rho_A[j] * rho_T[k - j]
                for j in range(max(0, k - aut.r), min(k, aut.g) + 1))
            for k in range(aut.r + aut.g + 1)]


def test_degrees_match_compound_spectra_unfiltered():
    """The closed formula against the compound-spectrum oracle on 300 draws
    of the acceptance-3 generator (seed 2024, r and g in 0..3, u_A_rat =
    M + M), with no draw rejected."""
    rng = random.Random(2024)
    checked = 0
    while checked < 300:
        r, g = rng.randrange(0, 4), rng.randrange(0, 4)
        if r + g == 0:
            continue
        u_T = random_unimodular(r, rng) if r else None
        if g:
            M = random_unimodular(g, rng)
            u_A = IntMatrix.block_diag(M, M)
        else:
            u_A = None
        aut = SemiAbelianAut(r=r, g=g, u_T=u_T, u_A_rat=u_A)
        lambdas = semiabelian_degrees(aut).lambdas
        expected = _compound_lambdas(aut)
        assert len(lambdas) == len(expected)
        for lam, want in zip(lambdas, expected):
            assert lam == pytest.approx(want, rel=1e-9), (aut, lambdas, expected)
        checked += 1


def _compound_growth_exponent(aut):
    """d with deg_1(f^n) ~ n^d, from the compounds of the k = 1 splits (u_T
    and Lambda^2 u_A_rat): the norm of C^n grows like n^(j - 1) for the
    unipotent index j of the unipotent power of C."""
    parts = []
    if aut.r:
        parts.append(aut.u_T)
    if aut.g:
        parts.append(compound_matrix(aut.u_A_rat, 2))
    return max(unipotent_index(C ** quasi_unipotent_order(C)) - 1 for C in parts)


# the ten unipotent automorphisms of acceptance 4, with their d
J2 = IntMatrix.from_rows([[1, 1], [0, 1]])
J3 = IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
I2, I3, I4 = (IntMatrix.identity(n) for n in (2, 3, 4))
CURATED_UNIPOTENT = [
    (SemiAbelianAut(2, 0, u_T=J2), 1),
    (SemiAbelianAut(3, 0, u_T=J3), 2),
    (SemiAbelianAut(3, 0, u_T=I3), 0),
    (SemiAbelianAut(0, 2, u_A_rat=IntMatrix.block_diag(J2, J2)), 2),
    (SemiAbelianAut(0, 3, u_A_rat=IntMatrix.block_diag(J2, J2, I2)), 2),
    (SemiAbelianAut(0, 3, u_A_rat=IntMatrix.block_diag(J3, J3)), 4),
    (SemiAbelianAut(2, 2, u_T=J2, u_A_rat=IntMatrix.block_diag(J2, J2)), 2),
    (SemiAbelianAut(3, 2, u_T=J3, u_A_rat=I4), 2),
    (SemiAbelianAut(2, 2, u_T=I2, u_A_rat=IntMatrix.block_diag(J2, J2)), 2),
    (SemiAbelianAut(2, 2, u_T=ROT4, u_A_rat=IntMatrix.block_diag(J2, J2)), 2),
]


@pytest.mark.parametrize("aut, d", CURATED_UNIPOTENT)
def test_growth_exponent_matches_compound_unipotent_index(aut, d):
    assert _compound_growth_exponent(aut) == d
    assert first_degree_data(aut) == (1.0, d)
    assert semiabelian_degrees(aut).growth_exponents[1] == d


def test_degree_profile_invariants():
    with pytest.raises(ContractError):
        DegreeProfile((1.0, 2.0), (0, 0))  # lambda_top != 1
    with pytest.raises(ContractError):
        DegreeProfile((1.0, 0.5, 1.0), (0, None, 0))  # < 1
    with pytest.raises(ContractError):
        DegreeProfile((1.0, 1.0, 5.0, 1.0, 1.0),
                      (0, None, None, None, 0))  # not log-concave


def test_numeric_sequence_identity():
    aut = SemiAbelianAut(r=0, g=1, u_A_rat=IntMatrix.identity(2))
    seq = degree_sequence_numeric(aut, 1, n_max=8)
    assert all(abs(v - 1.0) < 1e-9 for v in seq)


def test_numeric_sequence_golden_ratio_limit():
    seq = degree_sequence_numeric(torus_aut(GOLDEN2), 1, n_max=10)
    ratio = seq[-1] / seq[-2]
    assert abs(ratio - RHO) < 1e-2


def test_numeric_sequence_unipotent_quadratic_growth():
    # g=2 with abelian unipotent index 2: deg_1(f^n) ~ n^2 (and k=1 is not
    # the top degree, so the first degree genuinely grows)
    J = IntMatrix.from_rows([[1, 1], [0, 1]])
    aut = SemiAbelianAut(r=0, g=2, u_A_rat=IntMatrix.block_diag(J, J))
    seq = degree_sequence_numeric(aut, 1, n_max=25)
    L, d = fit_growth(seq)
    assert abs(L) < 1e-2  # lambda_1 = 1
    assert abs(d - 2) < 0.25


def test_blowup_window_c1_collapses():
    lam = [1.0, 3.0, 2.0, 1.0]
    assert blowup_restriction_degrees(lam, N=4, c=1) == lam


def test_blowup_window_hand_example():
    assert blowup_restriction_degrees([1.0, 2.0], N=3, c=2) == [1.0, 2.0, 2.0]


def test_blowup_window_all_ones():
    assert blowup_restriction_degrees([1.0] * 3, N=5, c=3) == [1.0] * 5


def test_restriction_inequality_examples():
    assert restriction_inequality_check([1.0, 1.0], [1.0], c=1)
    assert restriction_inequality_check([1.0, 6.854, 1.0], [1.0, 1.0], c=1)
    assert not restriction_inequality_check([1.0, 3.0, 1.0], [1.0, 5.0], c=1)

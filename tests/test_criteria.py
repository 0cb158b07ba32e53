"""Decision-engine tests: rule table, bounds, growth exponent, splitting."""

import random

import pytest
import sympy
from hypothesis import assume, example, given, settings

from abdyn.criteria import (NOT_REGULARIZABLE, REGULARIZABLE, UNDETERMINED,
                            FamilyDescriptor, decide_regularizable,
                            growth_exponent_k, split_invariant_subfamily,
                            theoremB_bound)
from abdyn.errors import ContractError
from abdyn.exactalg import IntMatrix, IntPolynomial, char_poly, cyclotomic, cyclotomic_split
from util import (BLOCK_SUM_DRAWS, block_sum, check_saturated, conjugate,
                  kronecker_is_roots_of_unity, lattice_is_invariant, random_unimodular,
                  reference_split_invariant_subfamily, restricted_char_poly)

UNIPOTENT_QUARTIC = IntPolynomial([1, -4, 6, -4, 1])  # (T-1)^4


def g2_desc(k, r):
    return FamilyDescriptor(g=2, charpoly=UNIPOTENT_QUARTIC, r=r, k=k)


def test_g2_table():
    for r in (0, 1, 2):
        assert decide_regularizable(g2_desc(0, r)).status == REGULARIZABLE
    assert decide_regularizable(g2_desc(1, 0)).status == REGULARIZABLE
    assert decide_regularizable(g2_desc(1, 1)).status == NOT_REGULARIZABLE
    assert decide_regularizable(g2_desc(1, 2)).status == UNDETERMINED


def test_r0_always_regularizable():
    desc = FamilyDescriptor(g=1, charpoly=IntPolynomial([1, -3, 1]), r=0)
    v = decide_regularizable(desc)
    assert v.status == REGULARIZABLE
    assert v.reasons[0][0] == "R1"


def test_cyclotomic_free_degenerating_not_regularizable():
    # sextic of a totally real cubic unit acting on a threefold
    from abdyn.catalog import unit_multiplication_matrix
    auto = unit_multiplication_matrix(IntPolynomial([1, -2, -1, 1]), copies=1)
    cp = char_poly(auto)
    assert cyclotomic_split(cp)[0].is_one() and cp.degree == 6
    desc = FamilyDescriptor(g=3, charpoly=cp, r=2)
    v = decide_regularizable(desc)
    assert v.status == NOT_REGULARIZABLE
    assert v.reasons[0][0] == "R3"


def test_unknown_r_suppresses_rules():
    desc = FamilyDescriptor(g=1, charpoly=IntPolynomial([1, -3, 1]))
    v = decide_regularizable(desc)
    assert v.status == UNDETERMINED
    assert "monodromy" in v.reasons[0][2]


def test_descriptor_validation():
    with pytest.raises(ContractError):
        FamilyDescriptor(g=2, charpoly=IntPolynomial([1, -3, 1]))  # degree
    with pytest.raises(ContractError):
        FamilyDescriptor(g=1, charpoly=IntPolynomial([1, -3, 1]),
                         finite_order=True)  # cyclotomic-free + finite order
    with pytest.raises(ContractError):
        FamilyDescriptor(g=1, charpoly=IntPolynomial([1, -3, 1]), k=0)  # k needs lambda_1=1
    with pytest.raises(ContractError):
        FamilyDescriptor(g=2, charpoly=UNIPOTENT_QUARTIC, r=3)


def test_theoremB_bound():
    assert theoremB_bound(2, 1) == 1
    assert theoremB_bound(3, 1) == 3
    for g in (1, 2, 3, 5):
        assert theoremB_bound(g, 0) == 2 * g - 1


def test_theoremB_high_k_not_regularizable():
    # k = g-1 >= 2 with any r >= 1 trips R4 (2k > max{r, 2g-2r-1})
    for g in (3, 4, 5):
        k = g - 1
        cp = IntPolynomial([-1, 1]) ** (2 * g)
        for r in range(1, g + 1):
            if 2 * k <= theoremB_bound(g, r):
                continue
            v = decide_regularizable(FamilyDescriptor(g=g, charpoly=cp, r=r, k=k))
            assert v.status == NOT_REGULARIZABLE


def test_verdict_stable_under_iteration():
    # replacing charpoly(u) by charpoly(u^n) never changes the verdict (n <= 6)
    corpus = [
        (IntMatrix.block_diag(IntMatrix.companion(IntPolynomial([1, 0, 1])),
                              IntMatrix.companion(IntPolynomial([1, -3, 1]))), 1),
        (IntMatrix.companion(IntPolynomial([1, -3, 1]) ** 2), 2),
        (IntMatrix.identity(4), 1),
    ]
    for u, r in corpus:
        g = u.rows // 2
        base = decide_regularizable(
            FamilyDescriptor(g=g, charpoly=char_poly(u), r=r)).status
        for n in range(2, 7):
            got = decide_regularizable(
                FamilyDescriptor(g=g, charpoly=char_poly(u ** n), r=r)).status
            assert got == base


def test_growth_exponent_k_identity():
    assert growth_exponent_k(IntMatrix.identity(4)) == 0


def test_growth_exponent_k_doubled_jordan():
    J = IntMatrix.from_rows([[1, 1], [0, 1]])
    assert growth_exponent_k(IntMatrix.block_diag(J, J)) == 1


def test_growth_exponent_k_rejects_single_jordan_block():
    # 2x2 block has j=2, k=1 > g-1 = 0: not a valid rational representation
    with pytest.raises(ContractError):
        growth_exponent_k(IntMatrix.from_rows([[1, 1], [0, 1]]))


def test_growth_exponent_k_undefined_for_hyperbolic():
    M = IntMatrix.from_rows([[2, 1], [1, 1]])
    with pytest.raises(ContractError):
        growth_exponent_k(IntMatrix.block_diag(M, M))


def test_split_block_example():
    u = IntMatrix.block_diag(IntMatrix.companion(IntPolynomial([1, 0, 1])),
                             IntMatrix.companion(IntPolynomial([1, -3, 1])))
    L0, L1, index = split_invariant_subfamily(u)
    assert (len(L0), len(L1)) == (2, 2)
    assert index == 1
    assert kronecker_is_roots_of_unity(restricted_char_poly(u, L0))
    assert cyclotomic_split(restricted_char_poly(u, L1))[0].is_one()


def test_split_extreme_cases():
    u = IntMatrix.companion(IntPolynomial([1, -3, 1]))
    L0, L1, index = split_invariant_subfamily(u)
    assert len(L0) == 0 and len(L1) == 2 and index == 1
    u = IntMatrix.identity(4)
    L0, L1, index = split_invariant_subfamily(u)
    assert len(L0) == 4 and len(L1) == 0 and index == 1


def test_split_conjugated_blocks():
    rng = random.Random(5)
    blocks = IntMatrix.block_diag(
        IntMatrix.companion(IntPolynomial([1, -1, 1])),   # Phi_6
        IntMatrix.companion(IntPolynomial([1, -3, 1])))
    for _ in range(5):
        U = random_unimodular(4, rng)
        u = conjugate(blocks, U)
        L0, L1, index = split_invariant_subfamily(u)
        assert len(L0) == 2 and len(L1) == 2 and index >= 1
        assert lattice_is_invariant(u, L0) and lattice_is_invariant(u, L1)
        assert restricted_char_poly(u, L0) == IntPolynomial([1, -1, 1])
        assert restricted_char_poly(u, L1) == IntPolynomial([1, -3, 1])


@example([cyclotomic(4)], [IntPolynomial([1, -3, 1])], True, 1)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(*BLOCK_SUM_DRAWS)
def test_split_reassembles_conjugated_block_sums(cyc, free, glued, seed):
    """u = U C U^-1 with C = [[A, X], [0, B]]: A a block sum of cyclotomic
    companion matrices (product P), B one of cyclotomic-free ones (product
    Q), X zero or random (a glued sum, where the index can exceed 1).  The
    split restricts u to P on L0 and to Q on L1, both saturated, and index
    is |det [L0; L1]|."""
    assume(cyc or free)
    u, P, Q = block_sum(cyc, free, glued, seed)
    assert P * Q == char_poly(u)
    L0, L1, index = split_invariant_subfamily(u)
    assert cyclotomic_split(char_poly(u))[:2] == (P, Q)
    assert restricted_char_poly(u, L0) == P
    assert restricted_char_poly(u, L1) == Q
    assert index == abs(sympy.Matrix(list(L0 + L1)).det())
    assert check_saturated(L0) and check_saturated(L1)


@example([cyclotomic(4)], [IntPolynomial([1, -3, 1])], True, 1)
@example([cyclotomic(1)] * 3, [IntPolynomial([-1, -1, 1])], True, 7)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(*BLOCK_SUM_DRAWS)
def test_split_equals_the_two_evaluation_construction(cyc, free, glued, seed):
    """split_invariant_subfamily evaluates only the factor F of lower
    degree and takes the other lattice from the left null space of F(u).
    kernel_completion depends only on the row space of its input, which
    for the other factor G is the left null space of F(u), as
    ker G(u) = im F(u); so both bases and the index are those of the
    construction that evaluates both factors, on conjugated block sums."""
    u, _, _ = block_sum(cyc, free, glued, seed)
    assert split_invariant_subfamily(u) == reference_split_invariant_subfamily(u)


@pytest.mark.parametrize("n", [20, 30, 40])
def test_split_at_n_20_to_40_equals_the_two_evaluation_construction(n):
    """The same on u a product of 3n random elementary matrices with
    entries up to 10^9 (the large-n stream of the split timings)."""
    u = random_unimodular(n, random.Random(3), 10 ** 9, 3 * n)
    L0, L1, index = split_invariant_subfamily(u)
    assert L0 and L1
    assert (L0, L1, index) == reference_split_invariant_subfamily(u)


def test_restricted_char_poly_rejects_non_invariant_lattice():
    # u(0, 1) = (1, 1) leaves the span of (0, 1)
    u = IntMatrix.from_rows([[1, 1], [0, 1]])
    lat = ((0, 1),)
    assert not lattice_is_invariant(u, lat)
    with pytest.raises(ContractError, match="not invariant"):
        restricted_char_poly(u, lat)

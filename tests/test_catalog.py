"""Catalog tests: Pell units, Type I lattices, quaternion arithmetic,
classification table."""

import math

import pytest

from abdyn.catalog import (ClassificationCase, Quaternion, QuaternionAlgebra,
                           build_case_matrices, classification_cases,
                           moduli_dim_formula, pell_fundamental_unit,
                           quaternion_norm_one_search, quaternion_nrd,
                           quaternion_rational_rep,
                           quaternion_reduced_charpoly, quaternion_trd,
                           reduced_charpoly_relation_check, unit_minpoly,
                           unit_multiplication_matrix)
from abdyn.degrees import SemiAbelianAut
from abdyn.errors import ContractError
from abdyn.exactalg import (IntMatrix, IntPolynomial, char_poly, char_poly_split,
                            cyclotomic_split)
from util import lattice_is_invariant, type_I_lattice


def test_pell_units_frozen():
    expected = {2: (1, 1, -1), 3: (2, 1, 1), 5: (2, 1, -1),
                7: (8, 3, 1), 13: (18, 5, -1)}
    for d, (x, y, norm) in expected.items():
        assert pell_fundamental_unit(d) == (x, y, norm)


def test_pell_units_minimal_by_exhaustion():
    for d in (2, 3, 5, 7, 13):
        x, y, norm = pell_fundamental_unit(d)
        assert x * x - d * y * y == norm and norm in (1, -1)
        for y2 in range(1, y):
            for n2 in (1, -1):
                x2sq = d * y2 * y2 + n2
                r = math.isqrt(x2sq)
                assert not (x2sq > 0 and r * r == x2sq), \
                    f"smaller solution exists for d={d}"


def test_unit_multiplication_matrix_charpoly():
    p = IntPolynomial([1, -3, 1])
    M = unit_multiplication_matrix(p, copies=1)
    assert M.rows == 4
    assert char_poly(M) == p ** 2
    assert abs(M.det()) == 1
    assert reduced_charpoly_relation_check(M, p, 2)


def test_unit_multiplication_matrix_trivial():
    M = unit_multiplication_matrix(IntPolynomial([-1, 1]), copies=2)
    assert M == IntMatrix.identity(4)


def test_cubic_unit_cyclotomic_free():
    p = IntPolynomial([1, -2, -1, 1])
    M = unit_multiplication_matrix(p, copies=1)
    cp = char_poly(M)
    assert cp == p ** 2
    assert cyclotomic_split(cp)[0].is_one()


def test_type_I_lattice_rm_surface():
    mu = 1 + math.sqrt(2)
    lattice, auto = type_I_lattice([1j, 2j], (mu, 1 - math.sqrt(2)))
    assert lattice.g == 2
    assert char_poly(auto) == IntPolynomial([-1, -2, 1]) ** 2
    E = lattice.polarization
    assert E is not None and abs(E.det()) >= 1


def test_type_I_lattice_elliptic_identity():
    lattice, auto = type_I_lattice([1j], (1.0,))
    assert lattice.g == 1
    assert auto == IntMatrix.identity(2)


def test_type_I_lattice_totally_real_cross_check():
    # the beta block is a rank-g sublattice of real vectors, invariant under
    # the unit action
    lattice, auto = type_I_lattice([1j, 2j], (1 + math.sqrt(2),
                                              1 - math.sqrt(2)))
    g = lattice.g
    beta_block = lattice.basis[2 * g - g:]
    assert all(abs(z.imag) < 1e-9 for v in beta_block for z in v)
    sub = tuple(tuple(1 if i == j else 0 for i in range(2 * g)) for j in range(g, 2 * g))
    assert lattice_is_invariant(auto, sub)


def test_type_I_rejects_bad_period():
    with pytest.raises(ContractError):
        type_I_lattice([-1j], (1.0,))


def test_quaternion_nrd_examples():
    ham = QuaternionAlgebra(-1, -1)
    assert quaternion_nrd(ham, Quaternion(1, 1, 1, 1)) == 4
    assert quaternion_nrd(ham, Quaternion(1, 0, 0, 0)) == 1
    alg = QuaternionAlgebra(2, 3)
    assert quaternion_nrd(alg, Quaternion(3, 1, 1, 1)) == 10
    assert quaternion_trd(Quaternion(3, 1, 1, 1)) == 6


def test_quaternion_norm_one_search():
    alg = QuaternionAlgebra(2, 3)
    hits = quaternion_norm_one_search(alg, 3)
    found = [(q, cp, free) for q, cp, free in hits
             if tuple(q) == (3, 2, 0, 0)]
    assert found
    q, cp, free = found[0]
    assert cp == IntPolynomial([1, -6, 1]) and free
    assert quaternion_norm_one_search(QuaternionAlgebra(-1, -1), 5) == []
    assert quaternion_norm_one_search(alg, 0) == []


def test_quaternion_rational_rep_relation():
    alg = QuaternionAlgebra(2, 3)
    q = Quaternion(3, 2, 0, 0)
    rep = quaternion_rational_rep(alg, q, g=4)
    assert reduced_charpoly_relation_check(
        rep, quaternion_reduced_charpoly(alg, q), 4)


def test_classification_counts_and_m_values():
    expected = {2: [1, 2], 3: [1, 3], 4: [1, 2, 4, 2, 4, 6, 2, 3],
                5: [1, 4, 3, 5, 5]}
    for g, ms in expected.items():
        cases = classification_cases(g)
        assert [c.m for c in cases] == ms
    with pytest.raises(ContractError):
        classification_cases(6)


def test_moduli_formula_matches_table():
    for g in range(2, 6):
        for case in classification_cases(g):
            formula = moduli_dim_formula(case)
            if formula is not None:
                assert formula == case.m


def test_build_case_matrices():
    for case_id in ("2.1", "2.2", "3.1", "3.2", "4.5", "4.8", "5.5"):
        _, auto = build_case_matrices(case_id)
        assert abs(auto.det()) == 1
        cp, P, Q, _ = char_poly_split(auto)
        assert P * Q == cp
        # a rational representation of an automorphism of a g-dimensional
        # abelian variety: doubled eigenvalue moduli
        SemiAbelianAut(r=0, g=auto.rows // 2, u_A_rat=auto).validate()
    with pytest.raises(ContractError):
        build_case_matrices("4.3")


def test_buildable_cases_have_a_classification_row():
    """Each buildable case id is one row of the classification table of its
    automorphism's dimension g, the row end-to-end reads m from."""
    for case_id in ("2.1", "2.2", "3.1", "3.2", "4.5", "4.8", "5.5"):
        _, auto = build_case_matrices(case_id)
        assert [c.id for c in classification_cases(auto.rows // 2)].count(case_id) == 1


def test_unit_minpoly():
    assert unit_minpoly(2) == IntPolynomial([-1, -2, 1])  # T^2 - 2T - 1
    p = unit_minpoly(3)  # 2 + sqrt(3): T^2 - 4T + 1
    assert p == IntPolynomial([1, -4, 1])

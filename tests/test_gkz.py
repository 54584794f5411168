"""Toric system data, kernel lattice, box operators, (p,q,r) reduction."""

from fractions import Fraction

import pytest

from kummer_pf import gkz
from kummer_pf.gkz import (
    GENERATING_KERNEL_VECTORS,
    THETA_IMAGES,
    GkzData,
    box_operator,
    kernel_basis,
    kummer_gkz_data,
    lattice_contains,
    matvec,
    monomial_in_pqr,
    reduce_to_pqr,
    verify_euler_elimination,
)
from kummer_pf.operators import build_canonical_system
from kummer_pf.polynomials import MultiPoly
from kummer_pf.series import period_series


class TestKernelVectors:
    def test_standard_vectors_in_kernel(self):
        data = kummer_gkz_data()
        for b in GENERATING_KERNEL_VECTORS:
            assert matvec(data.matrix, b) == [0, 0, 0, 0], b

    def test_row_by_row_first_vector(self):
        data = kummer_gkz_data()
        b = (0, 0, 0, 0, 1, -2, 1)
        # row 2: 1 - 2 + 1, row 4: 2 - 2
        assert sum(a * x for a, x in zip(data.matrix[1], b)) == 0
        assert sum(a * x for a, x in zip(data.matrix[3], b)) == 0

    def test_kernel_basis_rank_and_membership(self):
        basis = kernel_basis(kummer_gkz_data())
        assert len(basis) == 3
        data = kummer_gkz_data()
        for k in basis:
            assert matvec(data.matrix, k) == [0, 0, 0, 0]
        for b in GENERATING_KERNEL_VECTORS:
            assert lattice_contains(basis, b), b

    def test_rank_deficient_rejected(self):
        bad = GkzData(
            matrix=((1, 0, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0, 0),
                    (0, 1, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0, 0)),
            gamma=(Fraction(0),) * 4,
        )
        with pytest.raises(ValueError):
            kernel_basis(bad)

    def test_non_lattice_vector_rejected(self):
        basis = kernel_basis(kummer_gkz_data())
        assert not lattice_contains(basis, (1, 0, 0, 0, 0, 0, 0))


class TestBoxOperator:
    def test_multiplicity_one_no_falling_factorial(self):
        box = box_operator((0, 0, 0, 1, -1, -1, 1))
        t4 = THETA_IMAGES[3]
        t7 = THETA_IMAGES[6]
        t5 = THETA_IMAGES[4]
        t6 = THETA_IMAGES[5]
        assert box.theta_plus == t4 * t7
        assert box.theta_minus == t5 * t6

    def test_squared_derivative_clears_to_falling_factorial(self):
        box = box_operator((0, 0, 0, 0, 1, -2, 1))
        t6 = THETA_IMAGES[5]
        assert box.theta_minus == t6 * (t6 - 1)

    def test_second_vector_matches_displayed_form(self):
        # d4 d6 u = d5^2 u  clears to  theta4 theta6 u = c^b theta5(theta5-1) u
        box = box_operator((0, 0, 0, 1, -2, 1, 0))
        t4 = THETA_IMAGES[3]
        t6 = THETA_IMAGES[5]
        t5 = THETA_IMAGES[4]
        assert box.theta_plus == t4 * t6
        assert box.theta_minus == t5 * (t5 - 1)

    def test_non_kernel_vector_rejected(self):
        with pytest.raises(ValueError):
            box_operator((1, 0, 0, 0, 0, 0, 0))


class TestSubstitution:
    def test_monomial_rewrite(self):
        assert monomial_in_pqr((0, 0, 0, 0, 1, -2, 1)) == (1, -2, 1)
        assert monomial_in_pqr((0, 0, 0, 1, -1, -1, 1)) == (-1, -1, 1)

    def test_monomial_rewrite_rejects_non_kernel(self):
        with pytest.raises(ValueError):
            monomial_in_pqr((1, 0, 0, 0, 0, 0, 0))

    def test_euler_elimination(self):
        assert verify_euler_elimination()

    def test_euler_elimination_reads_the_toric_data(self, monkeypatch):
        # the check must test the images against the stated gamma, not a copy
        data = kummer_gkz_data()
        changed = GkzData(matrix=data.matrix, gamma=data.gamma[:3] + (Fraction(-2),))
        monkeypatch.setattr(gkz, "kummer_gkz_data", lambda: changed)
        with pytest.raises(AssertionError):
            verify_euler_elimination()

    def test_relation_one_cancels_directly(self):
        acc = THETA_IMAGES[0] + THETA_IMAGES[1] + Fraction(1, 2)
        assert acc.is_zero

    def test_relation_four_expansion(self):
        # 2*theta2 + 3*theta4 + 2*theta5 + theta6 + 1 -> 0
        t = THETA_IMAGES
        acc = 2 * t[1] + 3 * t[3] + 2 * t[4] + t[5] + MultiPoly.constant(1)
        assert acc.is_zero


class TestReduction:
    def test_all_four_match_canonical(self):
        canonical = build_canonical_system()
        for vec, expected in zip(GENERATING_KERNEL_VECTORS, canonical.gkz_part()):
            assert reduce_to_pqr(vec) == expected, vec

    def test_first_vector_explicit(self):
        got = reduce_to_pqr((0, 0, 0, 0, 1, -2, 1))
        assert got == build_canonical_system().operators[0]

    def test_third_vector_explicit(self):
        got = reduce_to_pqr((1, -1, -1, 0, 1, 0, 0))
        assert got == build_canonical_system().operators[2]

    def test_fourth_vector_explicit(self):
        got = reduce_to_pqr((0, 0, 0, 1, -1, -1, 1))
        assert got == build_canonical_system().operators[3]

    def test_computed_kernel_basis_reductions_annihilate(self):
        u = period_series(12)
        for k in kernel_basis(kummer_gkz_data()):
            op = reduce_to_pqr(k)
            assert op.apply(u).is_zero_through(9), k

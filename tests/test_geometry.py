"""Parameter maps, homogeneity, discriminant identities, divisor membership."""

import random
from fractions import Fraction

import pytest

from kummer_pf.geometry import (
    LambdaPoint,
    cubic_discriminant,
    discriminant_factorization,
    discriminant_identities,
    divisor_clearance,
    lambda_numerators,
    lambda_to_pqr,
    pqrb_to_t,
    singular_divisor_membership,
    weighted_homogeneity_witness,
)
from kummer_pf.polynomials import P, Q, R, TuplePoly

# The lambda map over Q[l1, l2, l3], written in the MultiPoly variables p, q, r.
SYMBOLIC = LambdaPoint(P, Q, R)


class TestLambdaMap:
    def test_equal_l1_l2_kills_q_and_r(self):
        p, q, r = lambda_to_pqr((Fraction(2), Fraction(2), Fraction(5)))
        assert q == 0 and r == 0

    def test_l3_equal_one_kills_q_and_r(self):
        p, q, r = lambda_to_pqr((Fraction(3), Fraction(7), Fraction(1)))
        assert q == 0 and r == 0

    def test_symbolic_factor_containment(self):
        # (l1 - l2) divides both the q and r numerators: substituting
        # l2 -> l1 must kill them
        _, q_core, q_tail = lambda_numerators(LambdaPoint(P, P, R))
        assert (q_core * q_tail).is_zero
        assert (q_core * q_core).is_zero
        _, q_core, q_tail = lambda_numerators(SYMBOLIC)
        assert not (q_core * q_tail).is_zero

    def test_r_numerator_is_square_of_core(self):
        _, q_core, _ = lambda_numerators(SYMBOLIC)
        pt = (Fraction(2), Fraction(3), Fraction(5))
        _, _, r = lambda_to_pqr(pt)
        assert r * LambdaPoint(*pt).denominator() ** 3 == (q_core * q_core).evaluate_exact(pt)

    def test_degenerate_locus_rejected(self):
        with pytest.raises(ZeroDivisionError):
            lambda_to_pqr((Fraction(1), Fraction(1), Fraction(1)))

    def test_random_rational_consistency(self):
        rng = random.Random(23)
        for _ in range(10):
            lam = LambdaPoint(
                Fraction(rng.randint(2, 30), rng.randint(1, 7)),
                Fraction(rng.randint(31, 60), rng.randint(1, 7)),
                Fraction(rng.randint(61, 90), rng.randint(1, 7)),
            )
            p, q, r = lambda_to_pqr(lam)
            p_num, q_core, q_tail = lambda_numerators(SYMBOLIC)
            pt = (lam.l1, lam.l2, lam.l3)
            d = SYMBOLIC.denominator().evaluate_exact(pt)
            assert p == p_num.evaluate_exact(pt) / d
            assert q == (q_core * q_tail).evaluate_exact(pt) / d**2
            assert r == (q_core * q_core).evaluate_exact(pt) / d**3


class TestWeightedMap:
    def test_point_0001(self):
        t4, t6, t10, t12 = pqrb_to_t(0, 0, 0, 1)
        assert t4 == Fraction(-1, 3)
        assert t6 == Fraction(-2, 27)
        assert t10 == 0
        assert t12 == 0

    def test_r_zero_kills_t10(self):
        _, _, t10, _ = pqrb_to_t(Fraction(3), Fraction(5), 0, Fraction(2))
        assert t10 == 0

    def test_numeric_scaling(self):
        lam = Fraction(3, 2)
        base = pqrb_to_t(Fraction(1), Fraction(2), Fraction(3), Fraction(1))
        scaled = pqrb_to_t(lam**2 * 1, lam**4 * 2, lam**6 * 3, lam**2 * 1)
        for t, ts, w in zip(base, scaled, (4, 6, 10, 12)):
            assert ts == lam**w * t

    def test_symbolic_homogeneity(self):
        assert weighted_homogeneity_witness()


class TestDiscriminants:
    def test_d2_d3_are_negated_discriminants(self):
        assert discriminant_identities()

    def test_x_discriminant_factorization(self):
        assert discriminant_factorization()

    def test_specialized_at_origin(self):
        # p=q=r=0: disc proportional to t^4 . t^6 . (t-1)^2 t^4
        t = TuplePoly.variable(1, 0)
        r3 = t**3
        r2 = t**3 - t * t
        disc = cubic_discriminant(t * t + r3, t * t * r3, TuplePoly(1))
        assert disc == (t * t) ** 2 * r3 * r3 * r2 * r2

    def test_monic_cubic_known_roots(self):
        # disc(t^3 - t) = (0-1)^2 (0+1)^2 (1+1)^2 = 4
        assert cubic_discriminant(Fraction(0), Fraction(-1), Fraction(0)) == 4


class TestDivisorMembership:
    def test_on_p_only(self):
        rep = singular_divisor_membership((Fraction(0), Fraction(1), Fraction(1)))
        assert rep.names() == ["p"]
        assert rep.values["d2"] == 44
        assert rep.values["d3"] == 31

    def test_on_many(self):
        rep = singular_divisor_membership((Fraction(1), Fraction(0), Fraction(0)))
        assert set(rep.names()) == {"q", "r", "d2", "d3"}

    def test_generic_point_clear(self):
        rng = random.Random(5)
        for _ in range(5):
            pt = tuple(Fraction(rng.randint(101, 999), 100) for _ in range(3))
            rep = singular_divisor_membership(pt)
            assert rep.names() == []

    def test_float_mode(self):
        rep = singular_divisor_membership((0.0, 1.0, 1.0))
        assert rep.names() == ["p"]

    def test_clearance_positive_away_from_divisors(self):
        c = divisor_clearance((1e-3 + 1e-4j, 1e-3, 1e-3 - 2e-4j))
        assert c > 1e-3

    def test_clearance_zero_on_divisor(self):
        assert divisor_clearance((0.0, 1.0, 1.0)) == 0.0

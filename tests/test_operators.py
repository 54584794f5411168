"""Euler-operator normal ordering, the canonical system, annihilation."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from kummer_pf.operators import (
    DEGREE_MARGIN,
    ThetaOperator,
    build_canonical_system,
    coefficient_identity,
    identity_check,
)
from kummer_pf.polynomials import MultiPoly
from kummer_pf.series import TruncatedSeries, period_series

P = MultiPoly.variable("p")
Q = MultiPoly.variable("q")
R = MultiPoly.variable("r")

THETA_P = ThetaOperator.theta("p")
THETA_Q = ThetaOperator.theta("q")
THETA_R = ThetaOperator.theta("r")


def op_terms(op: ThetaOperator) -> dict:
    return {exps: coeff for exps, coeff in op.items()}


class TestCompose:
    def test_commutation_rule(self):
        # tp . p = p (tp + 1)
        mult_p = ThetaOperator.monomial((0, 0, 0), P)
        got = THETA_P.compose(mult_p)
        expected = ThetaOperator({(1, 0, 0): P, (0, 0, 0): P})
        assert got == expected

    def test_euler_operators_commute(self):
        assert THETA_P.compose(THETA_Q) == THETA_Q.compose(THETA_P)
        assert op_terms(THETA_P.compose(THETA_Q)) == {(1, 1, 0): MultiPoly.one()}

    def test_push_across_monomial(self):
        # tp . (p^2 q tr) = p^2 q tr tp + 2 p^2 q tr
        inner = ThetaOperator.monomial((0, 0, 1), P * P * Q)
        got = THETA_P.compose(inner)
        expected = ThetaOperator({(1, 0, 1): P * P * Q, (0, 0, 1): 2 * P * P * Q})
        assert got == expected
        # cross-check by action on monomial basis elements
        for (i, j, k) in [(0, 0, 0), (1, 2, 3), (2, 1, 0)]:
            cap = i + j + k + 3
            basis = TruncatedSeries(cap, MultiPoly.monomial((i, j, k)))
            lhs = got.apply(basis)
            rhs = THETA_P.apply(inner.apply(basis))
            assert lhs == rhs

    @given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_compose_matches_iterated_apply(self, a, b, i, j):
        A = ThetaOperator.monomial((a, 0, b), P if a else Q)
        B = ThetaOperator.monomial((0, 1, 0), MultiPoly.monomial((i, j, 0)))
        s = period_series(6)
        left = A.compose(B).apply(s)
        right = A.apply(B.apply(s))
        assert left == right

    def test_associativity_random(self):
        rng = random.Random(5)

        def rand_op():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                te = (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
                ce = (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
                terms[te] = MultiPoly.monomial(ce, rng.randint(-3, 3))
            return ThetaOperator(terms)

        for _ in range(20):
            A, B, C = rand_op(), rand_op(), rand_op()
            assert A.compose(B).compose(C) == A.compose(B.compose(C))


class TestApply:
    def test_annihilates_constants(self):
        one = TruncatedSeries(4, MultiPoly.one())
        assert THETA_P.apply(one).is_zero

    def test_eigenvalue_one(self):
        s = TruncatedSeries(3, Q)
        assert THETA_Q.apply(s) == s

    def test_diagonal_then_shift(self):
        # (q^2 tp tr) applied to p r -> q^2 p r, coefficient 1*1
        op = ThetaOperator.monomial((1, 0, 1), Q * Q)
        s = TruncatedSeries(4, P * R)
        got = op.apply(s)
        assert got.poly == Q * Q * P * R

    def test_diagonal_action_per_generator(self):
        s = TruncatedSeries(6, MultiPoly.monomial((2, 3, 1)))
        assert THETA_P.apply(s).poly.coefficient((2, 3, 1)) == 2
        assert THETA_Q.apply(s).poly.coefficient((2, 3, 1)) == 3
        assert THETA_R.apply(s).poly.coefficient((2, 3, 1)) == 1


class TestCanonicalSystem:
    def test_order_and_count(self):
        system = build_canonical_system()
        assert len(system.operators) == 5
        assert all(op.order() == 2 for op in system.operators)

    def test_first_operator_shape(self):
        op1 = build_canonical_system().operators[0]
        assert op_terms(op1) == {
            (1, 0, 1): Q * Q,
            (0, 2, 0): -(P * R),
            (0, 1, 0): P * R,
        }

    def test_annihilation_each_operator(self):
        u = period_series(10)
        through = 10 - DEGREE_MARGIN
        for name, op in zip(build_canonical_system().names, build_canonical_system().operators):
            image = op.apply(u)
            assert image.is_zero_through(through), f"{name} fails through degree {through}"

    def test_constants_not_solutions(self):
        # only the p(...+1/2)^2 term of the third operator survives on constants
        op3 = build_canonical_system().operators[2]
        image = op3.apply(TruncatedSeries(4, MultiPoly.one()))
        assert image.poly == Fraction(-1, 4) * P

    def test_extra_operator_annihilates(self):
        u = period_series(10)
        extra = build_canonical_system().extra()
        assert extra.apply(u).is_zero_through(7)


class TestCoefficientIdentity:
    def test_origin_by_hand(self):
        # -72 + 243 + 81 - 128 - 124 = 0
        assert 9 * (-1) * (-2) * (-4) == -72
        assert coefficient_identity(0, 0, 0) == 0

    def test_one_one_one(self):
        assert coefficient_identity(1, 1, 1) == 0

    def test_symbolic_expansion_zero(self):
        assert identity_check()

    def test_spot_checks(self):
        rng = random.Random(17)
        pts = [(rng.randint(0, 60), rng.randint(0, 60), rng.randint(0, 60)) for _ in range(100)]
        assert identity_check(pts)

    def test_values_vanish_on_grid(self):
        for l in range(6):
            for m in range(6):
                for n in range(6):
                    assert coefficient_identity(l, m, n) == 0


class TestSerialization:
    def test_roundtrip(self):
        op = build_canonical_system().operators[4]
        assert ThetaOperator.from_json(op.to_json()) == op

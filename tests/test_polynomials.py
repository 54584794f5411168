"""Exact polynomial and rational-function arithmetic."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummer_pf import polynomials
from kummer_pf.polynomials import (
    MultiPoly,
    RatFunc,
    TuplePoly,
    poly_gcd,
    poly_lcm,
)

P = MultiPoly.variable("p")
Q = MultiPoly.variable("q")
R = MultiPoly.variable("r")
ONE = MultiPoly.one()


def mp(text: str) -> MultiPoly:
    return MultiPoly.from_text(text)


# The three denominator polynomials of the rank-5 connection; used here as
# realistic gcd / evaluation inputs.
D1 = (
    -Q**4 + 2 * P * Q**4 - 4 * Q**2 * R + 15 * P * Q**2 * R - 15 * P**2 * Q**2 * R
    + 6 * Q**3 * R + 12 * P * R**2 - 36 * P**2 * R**2 + 24 * P**3 * R**2 - 81 * R**3
)
D2 = (
    -(Q**2) + 2 * P * Q**2 - P**2 * Q**2 + 4 * Q**3 - 4 * R + 12 * P * R
    - 12 * P**2 * R + 4 * P**3 * R + 18 * Q * R - 18 * P * Q * R + 27 * R**2
)
D3 = -(P**2) * Q**2 + 4 * Q**3 + 4 * P**3 * R - 18 * P * Q * R + 27 * R**2


coeffs = st.builds(
    Fraction, st.integers(-50, 50), st.integers(1, 8)
)
exponents = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(exponents, coeffs, max_size=6).map(MultiPoly.from_terms)
nonzero_polys = polys.filter(lambda f: not f.is_zero)
# Degree <= 3 per variable: on some degree-8 products the subresultant
# fallback takes seconds where the heuristic gcd takes milliseconds.
small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=5
).map(MultiPoly.from_terms)


class TestPolyArith:
    def test_cancellation(self):
        assert (P + Q) + (P - Q) == 2 * P

    def test_absorbing_zero(self):
        assert (P * MultiPoly.zero()).is_zero

    def test_difference_of_squares(self):
        # oracle: dense schoolbook multiplication over explicit term dicts
        a = {(1, 0, 0): 1, (0, 1, 0): 1}
        b = {(1, 0, 0): 1, (0, 1, 0): -1}
        expected: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                expected[key] = expected.get(key, 0) + ca * cb
        expected = {k: v for k, v in expected.items() if v}
        prod = (P + Q) * (P - Q)
        assert dict((e, c) for e, c in prod.terms()) == expected
        assert prod == P**2 - Q**2

    def test_scalar_mixing(self):
        assert (P + 1) * Fraction(1, 2) == mp("1/2 + 1/2 * p")

    def test_pow(self):
        assert (P + Q) ** 3 == P**3 + 3 * P**2 * Q + 3 * P * Q**2 + Q**3


class TestPolyGcd:
    def test_factor_containment(self):
        assert poly_gcd(P**2 - Q**2, P - Q) == P - Q

    def test_coprime_variables(self):
        assert poly_gcd(P, Q) == ONE

    def test_common_appendix_factor(self):
        g = poly_gcd(D2 * P, D2 * Q)
        assert g == D2
        # must divide both inputs exactly
        assert (D2 * P).exact_div(g) == P
        assert (D2 * Q).exact_div(g) == Q

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(MultiPoly.zero(), MultiPoly.zero())

    def test_monomial_content(self):
        assert poly_gcd(P**2 * Q, P * Q**2) == P * Q

    def test_lcm(self):
        assert poly_lcm(P * Q, Q * R) == P * Q * R

    @given(polys, polys, nonzero_polys)
    @settings(max_examples=60, deadline=None)
    def test_gcd_divides_both_and_is_maximal(self, a, b, h):
        a, b = a * h, b * h
        if a.is_zero and b.is_zero:
            return
        g = poly_gcd(a, b)
        if not a.is_zero:
            a.exact_div(g)
        if not b.is_zero:
            b.exact_div(g)
        # h is a common divisor, so the gcd must be divisible by it
        g.exact_div(h.primitive_part())


class TestSubresultantFallback:
    """The subresultant PRS gcd runs only when the heuristic gcd gives up;
    forcing that failure must not change any gcd."""

    @staticmethod
    def forced_fallback():
        return mock.patch.object(polynomials, "_heugcd",
                                 side_effect=polynomials._HeuristicFailure)

    def test_fallback_reached_on_shared_factor(self):
        with self.forced_fallback() as heugcd:
            assert poly_gcd(D2 * (P + R), D2 * (Q + 1)) == D2
        assert heugcd.called

    @given(small_polys, small_polys, small_polys.filter(lambda f: not f.is_zero))
    @settings(max_examples=150, deadline=None)
    def test_fallback_matches_heuristic(self, a, b, g):
        a, b = a * g, b * g
        if a.is_zero and b.is_zero:
            return
        expected = poly_gcd(a, b)
        with self.forced_fallback():
            assert poly_gcd(a, b) == expected


class TestPartialDerivative:
    def test_power_rule(self):
        f = RatFunc.from_poly(P**2 * Q)
        assert f.derivative("p") == RatFunc.from_poly(2 * P * Q)

    def test_reciprocal_rule(self):
        f = RatFunc(ONE, Q)
        assert f.derivative("q") == RatFunc(-ONE, Q**2)

    def test_d3_derivative(self):
        f = RatFunc.from_poly(D3)
        expected = RatFunc.from_poly(4 * P**3 - 18 * P * Q + 54 * R)
        assert f.derivative("r") == expected

    @given(polys, polys)
    @settings(max_examples=40, deadline=None)
    def test_product_rule(self, a, b):
        fa, fb = RatFunc.from_poly(a), RatFunc.from_poly(b)
        lhs = (fa * fb).derivative("q")
        rhs = fa.derivative("q") * fb + fa * fb.derivative("q")
        assert lhs == rhs


class TestRatFunc:
    def test_common_denominator(self):
        got = RatFunc(ONE, P) + RatFunc(ONE, Q)
        assert got == RatFunc(P + Q, P * Q)

    def test_self_division(self):
        x = RatFunc(P**2 - Q, R + 1)
        assert x / x == RatFunc.one()

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc.one() / RatFunc.zero()

    def test_canonical_sign(self):
        f = RatFunc(P, -Q)
        assert f.den == Q
        assert f.num == -P

    def test_rational_content_in_numerator(self):
        f = RatFunc(P, 2 * Q)
        assert f.den == Q
        assert f.num == P * Fraction(1, 2)

    @given(polys, nonzero_polys)
    @settings(max_examples=40, deadline=None)
    def test_mul_div_roundtrip(self, f, g):
        fr = RatFunc.from_poly(f)
        gr = RatFunc.from_poly(g)
        assert (fr / gr) * gr == fr

    @given(st.lists(small_polys.filter(lambda f: not f.is_zero), min_size=6, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_mul_is_canonical(self, factors):
        # s and t each sit in one operand's numerator and the other's
        # denominator; u is in both numerators, v in both denominators.
        f, g, s, t, u, v = factors
        a = RatFunc(f * s * u, g * t * v)
        b = RatFunc(t * u, s * v)
        assert a * b == RatFunc(a.num * b.num, a.den * b.den)
        assert b * a == RatFunc(a.num * b.num, a.den * b.den)


class TestEvaluation:
    def test_direct_substitution(self):
        f = RatFunc(P, Q + 1)
        pt = (2, 0, 5)
        assert f.num.evaluate(pt) / f.den.evaluate(pt) == pytest.approx(2)

    def test_d3_at_001(self):
        assert D3.evaluate((0, 0, 1)) == pytest.approx(27)

    def test_d1_at_111(self):
        # oracle: sum the monomials by hand: -1+2-4+15-15+6+12-36+24-81 = -78
        assert D1.evaluate((1, 1, 1)) == pytest.approx(-78)
        assert D1.evaluate_exact((Fraction(1), Fraction(1), Fraction(1))) == -78

    def test_near_singular_reported(self):
        # a vanishing denominator raises rather than returning inf; the
        # relative floor of the transport evaluator has its own test
        f = RatFunc(ONE, Q)
        pt = (1.0, 0.0, 1.0)
        with pytest.raises(ZeroDivisionError):
            f.num.evaluate(pt) / f.den.evaluate(pt)

    def test_evaluate_exact_matches_float(self):
        f = RatFunc(D2, P + 1)
        pt = (Fraction(1, 3), Fraction(-2, 5), Fraction(1, 7))
        exact = f.evaluate_exact(pt)
        fpt = (1 / 3, -2 / 5, 1 / 7)
        approx = f.num.evaluate(fpt) / f.den.evaluate(fpt)
        assert complex(exact) == pytest.approx(approx)


class TestRingAxioms:
    @given(polys, polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)

    @given(polys)
    @settings(max_examples=40, deadline=None)
    def test_neutral_elements(self, a):
        assert a + MultiPoly.zero() == a
        assert a * ONE == a


class TestSerialization:
    def test_lex_ascending_order(self):
        f = P**2 + Q + 3
        assert f.to_text() == "3 + 1 * q + 1 * p^2"

    def test_zero(self):
        assert MultiPoly.zero().to_text() == "0"
        assert MultiPoly.from_text("0").is_zero

    @given(polys)
    @settings(max_examples=60, deadline=None)
    def test_poly_roundtrip(self, f):
        assert MultiPoly.from_text(f.to_text()) == f

    @given(polys, nonzero_polys)
    @settings(max_examples=40, deadline=None)
    def test_ratfunc_roundtrip(self, num, den):
        f = RatFunc(num, den)
        assert RatFunc.from_text(f.to_text()) == f

    def test_rational_roundtrip(self):
        for x in (Fraction(3, 4), Fraction(-5), Fraction(0)):
            assert Fraction(str(x)) == x


class TestExactDivision:
    def test_exact(self):
        f = (P + Q) * (P - R) * 3
        assert f.exact_div(P + Q) == 3 * (P - R)

    def test_inexact_raises(self):
        with pytest.raises(ValueError):
            (P**2 + Q).exact_div(P + 1)

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=40, deadline=None)
    def test_product_division(self, a, b):
        assert (a * b).exact_div(b) == a


class TestSeriesKernel:
    """The two operations truncated series are built from."""

    def test_truncated(self):
        f = 1 + P + Q * R + P**2 * Q + R**4
        assert f.truncated(2) == 1 + P + Q * R
        assert f.truncated(0) == ONE
        assert f.truncated(4) == f
        assert MultiPoly.zero().truncated(3).is_zero

    @given(polys, st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_truncated_keeps_exactly_the_low_terms(self, f, cap):
        assert dict(f.truncated(cap).terms()) == {
            exps: c for exps, c in f.terms() if sum(exps) <= cap}

    def test_theta_scaled(self):
        f = 3 * P**2 * Q * R + P * Q - 5 * R**2
        # tp^2 tr: 2^2 * 1 on p^2 q r; p q has no r and r^2 has no p
        assert f.theta_scaled((2, 0, 1)) == 12 * P**2 * Q * R
        assert f.theta_scaled((0, 1, 0)) == 3 * P**2 * Q * R + P * Q
        assert f.theta_scaled((0, 0, 2)) == 3 * P**2 * Q * R - 20 * R**2

    @given(polys)
    @settings(max_examples=40, deadline=None)
    def test_theta_scaled_zero_is_identity(self, f):
        assert f.theta_scaled((0, 0, 0)) == f

    @given(polys, st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)))
    @settings(max_examples=40, deadline=None)
    def test_theta_scaled_is_euler_operator(self, f, theta_exps):
        # tx = x d/dx, applied theta_exps[i] times in each variable
        expected = f
        for var, x, power in zip("pqr", (P, Q, R), theta_exps):
            for _ in range(power):
                expected = x * expected.derivative(var)
        assert f.theta_scaled(theta_exps) == expected


class TestTuplePoly:
    def test_basic_identity(self):
        x = TuplePoly.variable(2, 0)
        y = TuplePoly.variable(2, 1)
        assert (x + y) * (x - y) == x * x - y * y

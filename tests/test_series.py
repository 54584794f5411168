"""Period series coefficients and the contour-integral oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummer_pf.polynomials import MultiPoly
from kummer_pf.series import (
    TruncatedSeries,
    period_coefficient,
    period_series,
    residue_oracle,
)


class TestPeriodCoefficient:
    def test_normalization(self):
        assert period_coefficient((0, 0, 0)) == 1

    def test_first_p(self):
        # s=1: (1/16)*(2!)^2/(1!)^3 = 1/4
        assert period_coefficient((1, 0, 0)) == Fraction(1, 4)

    def test_first_q(self):
        # s=2: (1/256)*(4!)^2/(2!)^3 = 72/256 = 9/32
        assert period_coefficient((0, 1, 0)) == Fraction(9, 32)

    def test_first_r(self):
        # s=3: (1/4096)*(6!)^2/(3!)^3/2! = 75/256
        assert period_coefficient((0, 0, 1)) == Fraction(75, 256)

    def test_p_squared(self):
        # s=2 with 1/2! = 9/64
        assert period_coefficient((2, 0, 0)) == Fraction(9, 64)

    def test_positivity(self):
        for l in range(5):
            for m in range(4):
                for n in range(3):
                    assert period_coefficient((l, m, n)) > 0


class TestResidueOracle:
    def test_origin(self):
        assert residue_oracle((0, 0, 0)) == 1

    def test_first_p(self):
        assert residue_oracle((1, 0, 0)) == Fraction(1, 4)

    def test_oracle_equivalence_mixed(self):
        idx = (1, 1, 1)
        assert residue_oracle(idx) == period_coefficient(idx)

    def test_oracle_equivalence_through_degree_8(self):
        # the acceptance sweep; 165 index triples
        count = 0
        for l in range(9):
            for m in range(9 - l):
                for n in range(9 - l - m):
                    assert residue_oracle((l, m, n)) == period_coefficient((l, m, n)), (l, m, n)
                    count += 1
        assert count == 165


class TestPeriodSeries:
    def test_cap_zero(self):
        s = period_series(0)
        assert dict(s.poly.terms()) == {(0, 0, 0): Fraction(1)}

    def test_cap_one(self):
        # plain total degree: all three linear terms are present at cap 1
        s = period_series(1)
        assert dict(s.poly.terms()) == {
            (0, 0, 0): Fraction(1),
            (1, 0, 0): Fraction(1, 4),
            (0, 1, 0): Fraction(9, 32),
            (0, 0, 1): Fraction(75, 256),
        }

    def test_cap_two_spot_values(self):
        s = period_series(2)
        assert {exps for exps, _ in s.poly.terms()} == {
            (l, m, n)
            for l in range(3) for m in range(3) for n in range(3)
            if l + m + n <= 2
        }
        assert s.poly.coefficient((1, 0, 0)) == Fraction(1, 4)
        assert s.poly.coefficient((2, 0, 0)) == Fraction(9, 64)
        assert s.poly.coefficient((0, 1, 0)) == Fraction(9, 32)


P = MultiPoly.variable("p")
ONE = MultiPoly.one()
coeffs = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)), coeffs, max_size=6
).map(MultiPoly.from_terms)


class TestSeriesArith:
    def test_add_zero(self):
        s = period_series(4)
        assert s + TruncatedSeries(4) == s

    def test_monomial_shift(self):
        one = TruncatedSeries(3, ONE)
        shifted = one.multiply_poly(MultiPoly.monomial((1, 2, 0)))
        assert shifted.poly == MultiPoly.monomial((1, 2, 0))
        # cap too small: the shift truncates to zero
        assert TruncatedSeries(2, ONE).multiply_poly(MultiPoly.monomial((1, 2, 0))).is_zero
        scaled = one.multiply_poly(MultiPoly.monomial((1, 2, 0), Fraction(3, 4)))
        assert scaled.poly == MultiPoly.monomial((1, 2, 0), Fraction(3, 4))

    def test_product_truncation(self):
        # (1 + p)(1 - p): the p terms cancel, p^2 survives only within the cap
        assert TruncatedSeries(2, 1 + P).multiply_poly(1 - P).poly == 1 - P * P
        assert TruncatedSeries(1, 1 + P).multiply_poly(1 - P).poly == ONE

    def test_cap_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(2, ONE) + TruncatedSeries(3, ONE)

    @given(st.integers(0, 6), polys, polys)
    @settings(max_examples=40, deadline=None)
    def test_mul_agrees_with_untruncated(self, cap, a, b):
        # the series drops a's terms above the cap before multiplying; the
        # result must still equal the untruncated product, truncated
        prod = TruncatedSeries(cap, a).multiply_poly(b)
        full = a * b
        for exps, coeff in full.terms():
            assert prod.poly.coefficient(exps) == (coeff if sum(exps) <= cap else 0)
        assert all(sum(exps) <= cap for exps, _ in prod.poly.terms())

    def test_multiply_poly(self):
        s = period_series(3)
        p2q = MultiPoly.from_terms({(2, 1, 0): 1})
        out = s.multiply_poly(p2q)
        assert out.poly.coefficient((2, 1, 0)) == 1
        assert out.poly.coefficient((3, 1, 0)) == 0  # beyond cap


class TestEvaluation:
    def test_constant(self):
        val, tail = TruncatedSeries(4, ONE).evaluate((0.3, 0.1, 0.2))
        assert val == 1
        assert tail == 0

    def test_two_terms(self):
        s = TruncatedSeries(1, 1 + Fraction(1, 4) * P)
        val, tail = s.evaluate((0.01, 0, 0))
        assert val == pytest.approx(1.0025)
        assert tail == pytest.approx(0.0025)

    def test_tail_below_tolerance_at_small_point(self):
        s = period_series(20)
        pt = (1e-2, 1e-2, 1e-2)
        val, tail = s.evaluate(pt)
        assert tail < 1e-20
        # compare against a higher cap: the tail proxy bounds the difference
        val24, _ = period_series(24).evaluate(pt)
        assert abs(val - val24) < 1e-20

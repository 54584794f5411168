"""Reference-matrix transcription, parser, and the full comparison."""

import pytest

from kummer_pf.appendix import (
    ENTRIES,
    ExpressionError,
    appendix_matrices,
    parse_expression,
    parsed_divisor_texts,
)
from kummer_pf.divisors import D1, D2, D3
from kummer_pf.pfaffian import compare_fixture, rank5_system
from kummer_pf.polynomials import MultiPoly, RatFunc


class TestParser:
    def test_plain_polynomial(self):
        got = parse_expression("p q (-q^3 + 4 (-1 + 2 p) q r + 36 r^2)")
        p = MultiPoly.variable("p")
        q = MultiPoly.variable("q")
        r = MultiPoly.variable("r")
        expected = p * q * (-(q**3) + 4 * (2 * p - 1) * q * r + 36 * r**2)
        assert got == RatFunc.from_poly(expected)

    def test_braced_exponent(self):
        assert parse_expression("q^{10}") == parse_expression("q^10")

    def test_glued_symbols(self):
        assert parse_expression("4pd1") == parse_expression("4 p d1")

    def test_division_binds_next_factor(self):
        got = parse_expression("p q/(2 r)")
        p = MultiPoly.variable("p")
        q = MultiPoly.variable("q")
        r = MultiPoly.variable("r")
        assert got == RatFunc(p * q, 2 * r)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("p + z")

    def test_unbalanced_paren_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("(p + q")

    @pytest.mark.parametrize("text, error", [
        ("p q )", ExpressionError),
        ("p^q", ExpressionError),
        ("p^{2", ExpressionError),
        ("p^{q}", ExpressionError),
        ("p/0", ZeroDivisionError),
    ])
    def test_malformed_expression_rejected(self, text, error):
        with pytest.raises(error):
            parse_expression(text)


class TestTranscription:
    def test_divisor_texts_match_hand_typed(self):
        texts = parsed_divisor_texts()
        assert texts["d1"] == RatFunc.from_poly(D1)
        assert texts["d2"] == RatFunc.from_poly(D2)
        assert texts["d3"] == RatFunc.from_poly(D3)

    def test_unit_entries(self):
        mats = appendix_matrices()
        one = RatFunc.one()
        assert mats["p"][0][1] == one  # first-row tp coefficient
        assert mats["p"][1][4] == one  # second-row tp^2 coefficient
        assert mats["q"][0][2] == one
        assert mats["r"][0][3] == one

    def test_product_of_unit_entries(self):
        mats = appendix_matrices()
        assert mats["p"][0][1] * mats["q"][0][2] == RatFunc.one()

    def test_zero_pattern_first_rows(self):
        mats = appendix_matrices()
        assert [mats["p"][0][j].is_zero for j in range(5)] == [True, False, True, True, True]
        assert [mats["q"][0][j].is_zero for j in range(5)] == [True, True, False, True, True]
        assert [mats["r"][0][j].is_zero for j in range(5)] == [True, True, True, False, True]

    def test_entry_count(self):
        assert len(ENTRIES) == 75


@pytest.fixture(scope="module")
def sys5():
    return rank5_system()


class TestComparison:
    def test_rows_one_to_four_match(self, sys5):
        diff = compare_fixture(sys5, appendix_matrices())
        assert diff.mismatches_in_rows([1, 2, 3, 4]) == []

    def test_all_rows_match(self, sys5):
        # the printed tables turn out to be typo-free: row 5 matches too
        diff = compare_fixture(sys5, appendix_matrices())
        assert diff.mismatches == []

    def test_report_shape(self, sys5):
        diff = compare_fixture(sys5, appendix_matrices())
        data = diff.to_json()
        assert data["mismatch_count"] == 0
        assert len(data["entries"]) == 75

"""Connection derivation, integrability, singular loci."""

import hashlib
import itertools
import json
import pathlib
import random
from functools import reduce

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kummer_pf.divisors import D1
from kummer_pf.linalg import solve_poly_rows
from kummer_pf.operators import build_canonical_system
from kummer_pf.pfaffian import (
    BASIS_P2,
    BASIS_Q2,
    BASIS_RANK6,
    BasisClosureError,
    BasisDependenceError,
    PfaffianSystem,
    check_integrability,
    derive_pfaffian,
    divisor_occurrence,
    rank5_system,
    rank6_system,
    reduce_monomials,
    series_consistency_defects,
    singular_factors,
)
from kummer_pf.polynomials import MultiPoly, RatFunc, poly_lcm

P = MultiPoly.variable("p")
Q = MultiPoly.variable("q")
R = MultiPoly.variable("r")


@pytest.fixture(scope="module")
def sys5():
    return rank5_system()


@pytest.fixture(scope="module")
def sys6():
    return rank6_system()


@pytest.fixture(scope="module")
def sys5_q2():
    return rank5_system("q2")


class TestLinearSolver:
    def test_simple_two_by_two(self):
        # x1 + p x2 + 1 = 0 ; q x2 + p = 0  ->  x2 = -p/q, x1 = p^2/q - 1
        one = MultiPoly.one()
        rows = [
            [one, P, one],
            [MultiPoly.zero(), Q, P],
        ]
        sol = solve_poly_rows(rows, 2)
        assert sol.consistent and not sol.free
        x2 = sol.coefficient(1, 2)
        assert x2 == RatFunc(-P, Q)
        x1 = sol.coefficient(0, 2)
        assert x1 == RatFunc(P * P - Q, Q)

    def test_underdetermined_marked(self):
        rows = [[P, Q, MultiPoly.one()]]
        sol = solve_poly_rows(rows, 2)
        assert sol.consistent
        assert len(sol.determined) == 0
        assert sol.free or sol.tainted

    def test_inconsistent_detected(self):
        one = MultiPoly.one()
        rows = [
            [P, one],
            [P, one + one],
        ]
        sol = solve_poly_rows(rows, 1)
        assert not sol.consistent


def small_polys(coefficients):
    """Polynomials in p, q with at most three terms of degree <= 2 per variable."""
    term = st.tuples(st.integers(0, 2), st.integers(0, 2), coefficients)
    return st.lists(term, max_size=3).map(
        lambda terms: sum((MultiPoly.monomial((a, b, 0), c) for a, b, c in terms),
                          MultiPoly.zero()))


@st.composite
def planted_systems(draw, nrows, n_unknowns):
    """Rows [A | -A X] of a system whose solution x = X y is planted."""
    n_rhs = draw(st.integers(1, 2))
    a = [[draw(small_polys(st.integers(-3, 3))) for _ in range(n_unknowns)]
         for _ in range(nrows)]
    x = [[draw(small_polys(st.fractions(-3, 3, max_denominator=3))) for _ in range(n_rhs)]
         for _ in range(n_unknowns)]
    rows = [
        a[i] + [-sum((a[i][j] * x[j][k] for j in range(n_unknowns)), MultiPoly.zero())
                for k in range(n_rhs)]
        for i in range(nrows)
    ]
    return rows, x


class TestPlantedSolutions:
    @pytest.mark.parametrize("nrows, n_unknowns", [(3, 3), (4, 2), (2, 3)],
                             ids=["square", "overdetermined", "underdetermined"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_determined_unknowns_equal_planted(self, nrows, n_unknowns, data):
        rows, x = data.draw(planted_systems(nrows, n_unknowns))
        sol = solve_poly_rows(rows, n_unknowns)
        assert sol.consistent
        determined = set(sol.determined)
        assert not (determined & sol.tainted or determined & sol.free
                    or sol.tainted & sol.free)
        assert determined | sol.tainted | sol.free == set(range(n_unknowns))
        assert len(sol.free) >= n_unknowns - nrows
        if not sol.free:
            assert not sol.tainted
        for j, expr in sol.determined.items():
            assert all(k >= n_unknowns for k in expr)
            for k, planted in enumerate(x[j]):
                assert sol.coefficient(j, n_unknowns + k) == RatFunc.from_poly(planted)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_perturbed_rhs_is_inconsistent(self, data):
        # Adding 1 to b_i moves the rhs by e_i, which lies outside the column
        # space of A whenever the other rows alone have full column rank.
        # The solver stops at full column rank, so with four rows and two
        # unknowns the perturbed row is usually certified by substitution.
        rows, _ = data.draw(planted_systems(4, 2))
        i = data.draw(st.integers(0, 3))
        others = [row for s, row in enumerate(rows) if s != i]
        assume(any(not (a[0] * b[1] - a[1] * b[0]).is_zero
                   for a, b in itertools.combinations(others, 2)))
        rows[i] = rows[i][:2] + [rows[i][2] + 1] + rows[i][3:]
        assert not solve_poly_rows(rows, 2).consistent


ORDER2 = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))


@pytest.fixture(scope="module")
def rank5_rules():
    reductions, _ = reduce_monomials(build_canonical_system().operators, BASIS_P2)
    return reductions


def rewrite(op, rules):
    """The basis vector left after rewriting each non-basis monomial of op."""
    out = {}
    for exps, coeff in op.terms.items():
        for b, v in rules.get(exps, {exps: RatFunc.one()}).items():
            out[b] = out.get(b, RatFunc.zero()) + RatFunc.from_poly(coeff) * v
    return {b: v for b, v in out.items() if not v.is_zero}


class TestRewriteTable:
    """The reductions derive_pfaffian reads its matrices from, used as
    rewrite rules for the order-2 monomials."""

    def test_rank5_table_eliminates_five(self, rank5_rules):
        assert {m for m in ORDER2 if m in rank5_rules} == {
            (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
        assert [m for m in ORDER2 if m in BASIS_P2] == [(2, 0, 0)]

    def test_rank6_table_exists_from_gkz_alone(self):
        rules, _ = reduce_monomials(build_canonical_system().gkz_part(), BASIS_RANK6)
        assert {m for m in ORDER2 if m in rules} == {(0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)}

    def test_rules_reproduce_source_relations(self, rank5_rules):
        for op in build_canonical_system().operators:
            reduced = rewrite(op, rank5_rules)
            assert reduced == {}, reduced

    def test_theta_p_theta_r_rule_leading_behaviour(self, rank5_rules):
        # q^2 tp tr = p r tq(tq - 1): the rules for tp tr and tq^2 must agree
        # with relation one on its own, not only after the joint solve.
        op1 = build_canonical_system().operators[0]
        assert rewrite(op1, rank5_rules) == {}


class TestDerivation:
    def test_rank5_first_rows(self, sys5):
        # d/dp of u is (1/p) tp u
        row = sys5.mp[0]
        assert row[1] == RatFunc(MultiPoly.one(), P)
        assert all(row[j].is_zero for j in (0, 2, 3, 4))
        # d/dp of tp u is (1/p) tp^2 u
        row2 = sys5.mp[1]
        assert row2[4] == RatFunc(MultiPoly.one(), P)
        assert all(row2[j].is_zero for j in (0, 1, 2, 3))
        # d/dq of u is (1/q) tq u, d/dr of u is (1/r) tr u
        assert sys5.mq[0][2] == RatFunc(MultiPoly.one(), Q)
        assert sys5.mr[0][3] == RatFunc(MultiPoly.one(), R)

    def test_rank6_closes(self, sys6):
        assert sys6.basis == BASIS_RANK6
        assert sys6.size == 6

    def test_full_system_six_basis_is_dependent(self):
        with pytest.raises(BasisDependenceError) as exc:
            derive_pfaffian(build_canonical_system(), BASIS_RANK6)
        assert isinstance(exc.value, BasisClosureError)
        assert exc.value.undetermined == set()

    def test_gkz_alone_five_basis_fails(self):
        gkz = build_canonical_system().gkz_part()
        with pytest.raises(BasisClosureError) as exc:
            derive_pfaffian(gkz, BASIS_P2)
        assert (0, 2, 0) in exc.value.undetermined

    def test_alternate_basis_closes(self, sys5_q2):
        assert sys5_q2.basis == BASIS_Q2

    def test_series_consistency(self, sys5):
        assert series_consistency_defects(sys5, 10) == []

    def test_series_consistency_rank6(self, sys6):
        assert series_consistency_defects(sys6, 10) == []


class TestIntegrability:
    def test_rank6_integrable(self, sys6):
        assert check_integrability(sys6) == 0

    def test_perturbation_detected(self, sys5):
        rows = [list(r) for r in sys5.mp]
        rows[2] = list(rows[2])
        rows[2][3] = rows[2][3] + RatFunc.one()
        broken = PfaffianSystem(basis=sys5.basis, mp=tuple(tuple(r) for r in rows),
                                mq=sys5.mq, mr=sys5.mr)
        assert check_integrability(broken) == 17

    # Each mutant adds `delta` to one entry (1-indexed) of one matrix.  The
    # residual counts the nonzero entries of the curvature itself, so the
    # count does not depend on how the certificate clears denominators.
    @pytest.mark.parametrize("system, var, i, j, delta, count", [
        ("sys5", "q", 1, 1, 1, 9),
        ("sys5", "r", 4, 2, 1, 12),
        ("sys5", "p", 5, 5, 1, 14),
        ("sys5", "r", 5, 1, R, 10),
        ("sys6", "q", 6, 3, 1, 17),
        ("sys6", "p", 1, 1, 1, 8),
    ], ids=["rank5-Mq11+1", "rank5-Mr42+1", "rank5-Mp55+1", "rank5-Mr51+r",
            "rank6-Mq63+1", "rank6-Mp11+1"])
    def test_mutant_counts(self, request, system, var, i, j, delta, count):
        base = request.getfixturevalue(system)
        mats = {v: [list(row) for row in base.matrix(v)] for v in "pqr"}
        mats[var][i - 1][j - 1] = mats[var][i - 1][j - 1] + delta
        broken = PfaffianSystem(
            basis=base.basis,
            **{f"m{v}": tuple(tuple(row) for row in mats[v]) for v in "pqr"})
        assert check_integrability(broken) == count

    def test_flat_rows_with_distinct_denominators(self):
        # M_x = (d/dx G) G^-1 is flat for any invertible polynomial G: its
        # columns are a fundamental solution.  A lower-triangular G gives
        # every row its own denominator.
        zero = MultiPoly.zero()
        g = [[1 + P, zero, zero],
             [Q * R, 1 + Q, zero],
             [P - R, P * Q, 1 + P * R]]
        cof = [[RatFunc.from_poly(g[(c + 1) % 3][(d + 1) % 3] * g[(c + 2) % 3][(d + 2) % 3]
                                  - g[(c + 1) % 3][(d + 2) % 3] * g[(c + 2) % 3][(d + 1) % 3])
                for d in range(3)] for c in range(3)]
        det = RatFunc.from_poly(sum((g[0][d] * cof[0][d].num for d in range(3)), zero))
        inverse = [[cof[d][c] / det for d in range(3)] for c in range(3)]

        def connection(var):
            return tuple(
                tuple(sum((RatFunc.from_poly(g[a][k].derivative(var)) * inverse[k][b]
                           for k in range(3)), RatFunc.zero()) for b in range(3))
                for a in range(3))

        flat = PfaffianSystem(basis=BASIS_P2[:3], mp=connection("p"),
                              mq=connection("q"), mr=connection("r"))
        row_dens = {reduce(poly_lcm, (e.den for m in "pqr" for e in flat.matrix(m)[a]))
                    for a in range(3)}
        assert len(row_dens) == 3
        assert check_integrability(flat) == 0
        rows = [list(row) for row in flat.mq]
        rows[2][0] = rows[2][0] + RatFunc.one()
        assert check_integrability(PfaffianSystem(
            basis=flat.basis, mp=flat.mp, mq=tuple(tuple(r) for r in rows),
            mr=flat.mr)) == 2


DIGESTS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "digests.json"


def canonical_digest(system: PfaffianSystem) -> str:
    text = json.dumps(system.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestDerivedDigests:
    """The derived connections hash to the committed SHA-256 digests."""

    @pytest.fixture(scope="class")
    def digests(self):
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)

    def test_p2(self, sys5, digests):
        assert canonical_digest(sys5) == digests["p2"]

    def test_q2(self, sys5_q2, digests):
        assert canonical_digest(sys5_q2) == digests["q2"]

    def test_p2q2(self, sys6, digests):
        assert canonical_digest(sys6) == digests["p2q2"]

    # The relation order steers the pivots; the canonical output must not move.
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_p2q2_shuffled(self, seed, digests):
        relations = list(build_canonical_system().gkz_part())
        random.Random(seed).shuffle(relations)
        assert canonical_digest(derive_pfaffian(relations, BASIS_RANK6)) == digests["p2q2"]

    def test_p2_reversed(self, digests):
        relations = list(reversed(build_canonical_system().operators))
        assert canonical_digest(derive_pfaffian(relations, BASIS_P2)) == digests["p2"]

    def test_witness_shuffled(self):
        gkz = build_canonical_system().gkz_part()
        with pytest.raises(BasisClosureError) as default:
            derive_pfaffian(gkz, BASIS_P2)
        for seed in (0, 1, 2):
            relations = list(gkz)
            random.Random(seed).shuffle(relations)
            with pytest.raises(BasisClosureError) as shuffled:
                derive_pfaffian(relations, BASIS_P2)
            assert shuffled.value.undetermined == default.value.undetermined


class TestSingularFactors:
    def test_p2_basis_occurring_set(self, sys5):
        report = singular_factors(sys5)
        assert report.complete
        assert {"p", "q", "d1", "d2", "d3"} <= report.occurring
        assert report.occurring <= {"p", "q", "r", "d1", "d2", "d3"}

    def test_q2_basis_lacks_d1(self, sys5_q2):
        alt = sys5_q2
        report = singular_factors(alt, require_complete=False)
        assert "d1" not in report.occurring
        assert not divisor_occurrence(alt, D1)
        # another factor newly appears in the alternate basis
        assert report.leftovers

    def test_intersection_excludes_d1(self, sys5, sys5_q2):
        alt = sys5_q2
        rep_a = singular_factors(sys5)
        rep_b = singular_factors(alt, require_complete=False)
        both = rep_a.occurring & rep_b.occurring
        assert "d1" not in both
        assert {"d2", "d3"} <= both

    def test_unexpected_factor_is_hard_failure(self, sys5_q2):
        # the q2 basis leaves the non-candidate factor e1 in its denominators
        with pytest.raises(AssertionError, match="unexpected denominator factor"):
            singular_factors(sys5_q2)


class TestSerialization:
    def test_json_roundtrip(self, sys5):
        data = sys5.to_json()
        back = PfaffianSystem.from_json(data)
        assert back.basis == sys5.basis
        assert back.mp == sys5.mp and back.mq == sys5.mq and back.mr == sys5.mr

    def test_save_load(self, tmp_path, sys6):
        path = tmp_path / "system.json"
        sys6.save(str(path))
        assert PfaffianSystem.load(str(path)).mq == sys6.mq

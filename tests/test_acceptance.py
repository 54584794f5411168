"""Acceptance suite: the eleven reproduction criteria.

Each criterion runs the same check function as ``kummer-pf verify-all``
(``kummer_pf.checks``) and asserts the returned detail against the
tolerances pinned here, from the criterion statements.  Each test prints
one PASS/FAIL line with its runtime; run with `-s -v` to see the lines as
they complete.
"""

import json
import random
import time

import pytest

from kummer_pf import checks
from kummer_pf.divisors import CANDIDATE_DIVISORS, D2, D3
from kummer_pf.geometry import cubic_discriminant
from kummer_pf.pfaffian import BASIS_P2, BASIS_RANK6, rank5_system
from kummer_pf.polynomials import MultiPoly


class _Gate:
    """Prints one line per criterion and enforces the stated budget."""

    def __init__(self, number: int, title: str, budget_s: float):
        self.number = number
        self.title = title
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        in_budget = elapsed < self.budget_s
        status = "PASS" if exc_type is None and in_budget else "FAIL"
        print(f"{status} criterion {self.number}: {self.title} "
              f"({elapsed:.2f}s, budget {self.budget_s:.0f}s)")
        if exc_type is None and not in_budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s > {self.budget_s}s")
        return False


@pytest.fixture(scope="session")
def sys5():
    return rank5_system()


def test_criterion_01_series_oracle_equivalence():
    with _Gate(1, "series/oracle equivalence through total degree 8", 10):
        ok, detail = checks.series_oracle(checks.CheckContext())
        assert ok, detail
        assert detail["indices_checked"] == 165


def test_criterion_02_coefficient_identity():
    with _Gate(2, "coefficient identity: symbolic zero + 100 spot checks", 1):
        ok, detail = checks.coeff_identity(checks.CheckContext(rng=random.Random(0)))
        assert ok
        assert detail["spot_points"] == 100


def test_criterion_03_annihilation():
    with _Gate(3, "five operators annihilate period_series(12) through degree 9", 30):
        ok, detail = checks.annihilation(checks.CheckContext(cap=12))
        assert ok, detail["failures"]
        assert detail["checked_through_degree"] == 9


def test_criterion_04_gkz_reduction():
    with _Gate(4, "toric reduction reproduces the four operators; lattice contains them", 5):
        ok, detail = checks.gkz_reduction(checks.CheckContext())
        assert ok, detail


def test_criterion_05_rank_witnesses(sys5):
    with _Gate(5, "rank-6 and rank-5 closures; five-basis fails on toric alone", 600):
        ctx = checks.CheckContext()
        ok, detail = checks.rank6(ctx)
        assert ok
        assert detail["integrability_residual"] == 0
        assert ctx.rank6.basis == BASIS_RANK6 and ctx.rank6.size == 6
        assert sys5.basis == BASIS_P2 and sys5.size == 5


def test_criterion_06_integrability(sys5):
    with _Gate(6, "three commutator identities, zero symbolic residual (rank 5)", 600):
        ok, detail = checks.rank5(checks.CheckContext(rank5=sys5))
        assert ok
        assert detail["integrability_residual"] == 0
        # the rank witness of criterion 5: the toric relations alone do not
        # close the five-element basis
        assert detail["gkz_alone_five_basis_fails"]


def test_criterion_07_singular_loci(sys5):
    with _Gate(7, "denominators factor over {p,q,r,d1,d2,d3}; d1 absent in q2 basis", 60):
        ok, detail = checks.singular(checks.CheckContext(rank5=sys5))
        assert ok
        occurring = set(detail["p2_basis_occurring"])
        assert {"p", "q", "d1", "d2", "d3"} <= occurring
        assert occurring <= set(CANDIDATE_DIVISORS)
        assert detail["d1_in_p2_basis"]
        assert not detail["d1_in_q2_basis"]


def test_criterion_08_discriminant_identities():
    with _Gate(8, "d2, d3 are negated cubic discriminants; disc_x = t^4 R3^2 R2^2", 1):
        p = MultiPoly.variable("p")
        q = MultiPoly.variable("q")
        r = MultiPoly.variable("r")
        assert -cubic_discriminant(p - 1, q, r) == D2
        assert -cubic_discriminant(p, q, r) == D3
        ok, _ = checks.discriminants(checks.CheckContext())
        assert ok


def test_criterion_09_fixture_comparison(sys5, tmp_path):
    with _Gate(9, "derived matrices match the reference tables (rows 1-4 exactly)", 60):
        ctx = checks.CheckContext(rank5=sys5, artifacts=str(tmp_path))
        ok, detail = checks.fixture(ctx)
        assert ok
        assert detail["rows_1_4_mismatches"] == 0
        # the row-5 diff report exists; here it happens to be empty as well
        report = json.loads((tmp_path / "fixture_diff.json").read_text(encoding="utf-8"))
        assert report["mismatch_count"] == (
            detail["rows_1_4_mismatches"] + detail["row_5_mismatches"])


def test_criterion_10_weighted_homogeneity():
    with _Gate(10, "weighted homogeneity (2,4,6,2) -> (4,6,10,12), exact", 1):
        ok, _ = checks.homogeneity(checks.CheckContext())
        assert ok


def test_criterion_11_transport_consistency(sys5):
    with _Gate(11, "series vs transport 1e-8; loop identity 1e2*tol; Liouville 1e-6", 60):
        tol = 1e-10
        ok, detail = checks.transport_consistency(checks.CheckContext(tol=tol, rank5=sys5))
        assert detail["series_vs_transport"] < 1e-8
        assert detail["contractible_loop_defect"] < 1e2 * tol
        assert detail["monodromy_det_consistency"] < 1e-6
        assert abs(detail["monodromy_abs_det"] - 1) < 1e-6
        assert ok

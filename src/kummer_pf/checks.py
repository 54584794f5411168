"""The twelve reproduction checks, each defined once.

``verify-all`` runs ``CHECKS`` in order; ``tests/test_acceptance.py`` calls
the same functions and asserts their detail values against its own
tolerances.  Every check takes a ``CheckContext`` and returns
``(ok, detail)``.  The two closure checks derive their systems and keep
them in the context, where the later checks read the rank-5 one; a caller
that already holds the rank-5 system supplies it instead.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import numpy as np

from . import appendix as appendix_mod
from .divisors import CANDIDATE_DIVISORS, D1
from .geometry import (
    discriminant_factorization,
    discriminant_identities,
    weighted_homogeneity_witness,
)
from .gkz import (
    GENERATING_KERNEL_VECTORS,
    kernel_basis,
    kummer_gkz_data,
    lattice_contains,
    reduce_to_pqr,
    verify_euler_elimination,
)
from .operators import DEGREE_MARGIN, build_canonical_system, identity_check
from .pfaffian import (
    BASIS_P2,
    BasisClosureError,
    PfaffianSystem,
    check_integrability,
    compare_fixture,
    derive_pfaffian,
    divisor_occurrence,
    rank5_system,
    rank6_system,
    series_consistency_defects,
    singular_factors,
)
from .series import period_coefficient, period_series, residue_oracle
from .transport import (
    CircleSegment,
    CompiledConnection,
    LineSegment,
    Path,
    monodromy,
    series_vs_transport,
    transport,
)


@dataclass
class CheckContext:
    """The run's settings, plus the derived systems the checks share."""

    cap: int = 12
    tol: float = 1e-10
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    artifacts: str | None = None
    rank5: PfaffianSystem | None = None
    rank6: PfaffianSystem | None = None


def series_oracle(ctx: CheckContext):
    count = 0
    for l in range(9):
        for m in range(9 - l):
            for n in range(9 - l - m):
                if period_coefficient((l, m, n)) != residue_oracle((l, m, n)):
                    return False, {"first_failure": [l, m, n]}
                count += 1
    return True, {"indices_checked": count}


def coeff_identity(ctx: CheckContext):
    pts = [(ctx.rng.randint(0, 100), ctx.rng.randint(0, 100), ctx.rng.randint(0, 100))
           for _ in range(100)]
    identity_check(pts)
    return True, {"symbolic": "zero polynomial", "spot_points": 100}


def annihilation(ctx: CheckContext):
    through = ctx.cap - DEGREE_MARGIN
    u = period_series(ctx.cap)
    system = build_canonical_system()
    failures = [name for name, op in zip(system.names, system.operators)
                if not op.apply(u).is_zero_through(through)]
    detail = {"cap": ctx.cap, "checked_through_degree": through, "failures": failures}
    if ctx.cap < 12:
        detail["note"] = "reduced coverage below the default cap 12"
    return not failures, detail


def gkz_reduction(ctx: CheckContext):
    canonical = build_canonical_system()
    mismatch = [list(v) for v, e in zip(GENERATING_KERNEL_VECTORS, canonical.gkz_part())
                if reduce_to_pqr(v) != e]
    basis = kernel_basis(kummer_gkz_data())
    missing = [list(b) for b in GENERATING_KERNEL_VECTORS if not lattice_contains(basis, b)]
    verify_euler_elimination()
    return (not mismatch and not missing), {
        "mismatched_vectors": mismatch, "outside_lattice": missing}


def rank6(ctx: CheckContext):
    system = ctx.rank6 = rank6_system()
    residual = check_integrability(system)
    if ctx.artifacts:
        system.save(f"{ctx.artifacts}/rank6.json")
    return residual == 0, {"size": system.size, "integrability_residual": residual}


def rank5(ctx: CheckContext):
    if ctx.rank5 is None:
        ctx.rank5 = rank5_system()
    system = ctx.rank5
    residual = check_integrability(system)
    try:
        derive_pfaffian(build_canonical_system().gkz_part(), BASIS_P2)
        witness = False
    except BasisClosureError:
        witness = True
    if ctx.artifacts:
        system.save(f"{ctx.artifacts}/rank5.json")
    return (residual == 0 and witness), {
        "size": system.size,
        "integrability_residual": residual,
        "gkz_alone_five_basis_fails": witness,
    }


def singular(ctx: CheckContext):
    sys5 = ctx.rank5
    rep_main = singular_factors(sys5)
    alt = rank5_system("q2")
    rep_alt = singular_factors(alt, require_complete=False)
    d1_main = divisor_occurrence(sys5, D1)
    d1_alt = divisor_occurrence(alt, D1)
    ok = (rep_main.complete
          and {"p", "q", "d1", "d2", "d3"} <= rep_main.occurring
          and rep_main.occurring <= set(CANDIDATE_DIVISORS)
          and d1_main and not d1_alt)
    return ok, {
        "p2_basis_occurring": sorted(rep_main.occurring),
        "q2_basis_occurring": sorted(rep_alt.occurring),
        "d1_in_p2_basis": d1_main,
        "d1_in_q2_basis": d1_alt,
        "q2_new_factors": sorted({e[3].to_text() for e in rep_alt.leftovers}),
    }


def fixture(ctx: CheckContext):
    diff = compare_fixture(ctx.rank5, appendix_mod.appendix_matrices())
    rows14 = diff.mismatches_in_rows([1, 2, 3, 4])
    if ctx.artifacts:
        with open(f"{ctx.artifacts}/fixture_diff.json", "w", encoding="utf-8") as fh:
            json.dump(diff.to_json(), fh, indent=1)
    row5 = len(diff.mismatches) - len(rows14)
    return not rows14, {
        "rows_1_4_mismatches": len(rows14),
        "row_5_mismatches": row5,
        "_reported_diff": row5 > 0,
    }


def series_consistency(ctx: CheckContext):
    defects = series_consistency_defects(ctx.rank5, 10)
    return not defects, {"defects": [[v, list(w)] for v, w in defects]}


def discriminants(ctx: CheckContext):
    discriminant_identities()
    discriminant_factorization()
    return True, {"identities": ["d2 = -disc R2", "d3 = -disc R3",
                                 "disc_x = t^4 R3^2 R2^2"]}


def homogeneity(ctx: CheckContext):
    weighted_homogeneity_witness()
    return True, {"weights_in": [2, 4, 6, 2], "weights_out": [4, 6, 10, 12]}


def transport_consistency(ctx: CheckContext):
    sys5, tol = ctx.rank5, ctx.tol
    conn = CompiledConnection(sys5)
    a = (1e-3, 0.6e-3, 0.4e-3)
    b = (0.5e-3, 1e-3, 0.8e-3)
    discrepancy = series_vs_transport(sys5, a, b, cap=16, tol=tol,
                                      min_clearance=1e-4)
    base = (0.3, 0.2, 0.1)
    corners = [(0.35, 0.2, 0.1), (0.35, 0.25, 0.1), (0.3, 0.25, 0.1)]
    loop = Path((LineSegment(base, corners[0]),
                 LineSegment(corners[0], corners[1]),
                 LineSegment(corners[1], corners[2]),
                 LineSegment(corners[2], base)))
    loop_defect = float(np.max(np.abs(
        transport(conn, loop, tol=tol).fundamental_matrix - np.eye(5))))
    circle = Path((CircleSegment(coordinate="r", center=0j, radius=0.01,
                                 turns=1.0,
                                 fixed={"p": 0.5 + 0j, "q": 1 / 3 + 0j}),))
    mono = monodromy(conn, circle, tol=tol)
    ok = (discrepancy < 1e-8 and loop_defect < 1e2 * tol
          and mono.det_consistency < 1e-6
          and abs(abs(mono.determinant) - 1) < 1e-6)
    return ok, {
        "series_vs_transport": discrepancy,
        "contractible_loop_defect": loop_defect,
        "monodromy_det_consistency": mono.det_consistency,
        "monodromy_abs_det": abs(mono.determinant),
    }


# (report name, check), in the order verify-all runs them.
CHECKS = (
    ("series-oracle-equivalence", series_oracle),
    ("coefficient-identity", coeff_identity),
    ("annihilation", annihilation),
    ("gkz-reduction", gkz_reduction),
    ("rank6-closure-integrability", rank6),
    ("rank5-closure-integrability", rank5),
    ("singular-loci", singular),
    ("fixture-comparison", fixture),
    ("pfaffian-series-consistency", series_consistency),
    ("discriminant-identities", discriminants),
    ("weighted-homogeneity", homogeneity),
    ("transport-consistency", transport_consistency),
)

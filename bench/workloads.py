"""The three benchmark workloads: seeded inputs, program calls, correctness gates.

Each workload has a ``setup`` that builds its inputs from the seed (work
done before the timed region) and a ``run`` that makes the timed program
calls and returns one ``Outcome`` per operation.  An operation that fails
its gate, or raises, is a failed outcome; it never stops the run.

Program functions are reached through their modules (``pfaffian.x``, not a
bound name) so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path as FilePath

import numpy as np
import numpy.polynomial.polynomial as npoly

# import_module, because the package re-exports a function named `transport`
cli, divisors, operators, pfaffian, transport = (
    importlib.import_module(f"kummer_pf.{name}")
    for name in ("cli", "divisors", "operators", "pfaffian", "transport"))

DIGESTS_FILE = FilePath(__file__).with_name("digests.json")


@dataclass
class Outcome:
    name: str
    ok: bool
    detail: dict = field(default_factory=dict)


# -- verify-all ------------------------------------------------------------------

VERIFY_ALL_CHECKS = (
    "series-oracle-equivalence", "coefficient-identity", "annihilation",
    "gkz-reduction", "rank6-closure-integrability", "rank5-closure-integrability",
    "singular-loci", "fixture-comparison", "pfaffian-series-consistency",
    "discriminant-identities", "weighted-homogeneity", "transport-consistency",
)

# detail key -> the value every check reporting it must have
VERIFY_ALL_DETAIL_GATES = {"integrability_residual": 0, "rows_1_4_mismatches": 0}


def setup_verify_all(seed: int, points: int | None) -> dict:
    return {"seed": seed}


def run_verify_all(state: dict) -> list[Outcome]:
    # Exactly what `kummer-pf --seed S verify-all` runs: default cap and tol.
    return gate_verify_all(cli.verify_all(seed=state["seed"]))


def gate_verify_all(report: dict) -> list[Outcome]:
    """One outcome per expected check: status pass and every detail gate met."""
    by_name = {c["name"]: c for c in report["checks"]}
    out = []
    for name in VERIFY_ALL_CHECKS:
        check = by_name.get(name)
        if check is None:
            out.append(Outcome(name, False, {"error": "check missing from report"}))
            continue
        detail = check["detail"]
        ok = check["status"] == "pass" and all(
            detail.get(k, want) == want for k, want in VERIFY_ALL_DETAIL_GATES.items())
        out.append(Outcome(name, ok, {} if ok else {"status": check["status"], **detail}))
    return out


# -- derive ----------------------------------------------------------------------

# (name, relations, basis): the toric-only five-basis derivation is the rank
# witness and must raise BasisClosureError.
DERIVATIONS = (
    ("p2", "full", pfaffian.BASIS_P2),
    ("q2", "full", pfaffian.BASIS_Q2),
    ("p2q2", "toric", pfaffian.BASIS_RANK6),
    ("witness", "toric", pfaffian.BASIS_P2),
)


# Each derivation runs on this many seeded relation orders.  The order steers
# Bareiss pivoting, so the work differs by up to ~10% between orders.
DERIVE_ORDERINGS = 2


def system_digest(system: pfaffian.PfaffianSystem) -> str:
    """SHA-256 of the canonical JSON encoding of a derived connection."""
    text = json.dumps(system.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def setup_derive(seed: int, points: int | None) -> dict:
    canonical = operators.build_canonical_system()
    rng = random.Random(seed)
    items = []
    for _ in range(DERIVE_ORDERINGS):
        for name, which, basis in DERIVATIONS:
            relations = list(canonical.operators if which == "full" else canonical.gkz_part())
            rng.shuffle(relations)
            items.append((name, relations, basis))
    with open(DIGESTS_FILE, encoding="utf-8") as fh:
        digests = json.load(fh)
    return {"items": items, "digests": digests}


def run_derive(state: dict) -> list[Outcome]:
    out = []
    for name, relations, basis in state["items"]:
        try:
            derived = pfaffian.derive_pfaffian(relations, basis)
        except pfaffian.BasisClosureError:
            derived = None
        except Exception as exc:  # counted as a failed operation
            out.append(Outcome(name, False, {"error": f"{type(exc).__name__}: {exc}"}))
            continue
        out.append(gate_derivation(name, derived, state["digests"]))
    return out


def gate_derivation(name: str, derived, digests: dict) -> Outcome:
    """The witness must not close; every basis must hash to its committed digest."""
    if name == "witness":
        return Outcome(name, derived is None,
                       {} if derived is None else {"error": "witness basis closed"})
    if derived is None:
        return Outcome(name, False, {"error": "basis did not close"})
    got = system_digest(derived)
    ok = got == digests.get(name)
    return Outcome(name, ok, {} if ok else {"digest": got, "expected": digests.get(name)})


# -- survey ----------------------------------------------------------------------

# Base points are drawn uniformly from this box around (1/2, 1/3, 1/100).
SURVEY_BOX = ((0.4, 0.6), (0.25, 0.42), (0.008, 0.012))
SURVEY_POINTS = 4
SURVEY_TOL = 1e-10
COORDINATE_RADIUS = 0.05  # p- and q-circles, as in scripts/monodromy_survey.py
DIVISOR_RADIUS = 0.004    # r-circles around the nearest root of d2 and d3
# Gates.  |det M - exp(contour tr)| / |exp(contour tr)| stays below 1e-8 on
# clean loops at tol 1e-10; max |M_inverse M - I| stays below 2e-8.  Both
# bounds sit about two orders above that.
LIOUVILLE_BOUND = 1e-6
INVERSE_BOUND = 1e-6


def _nearest_root(divisor, var: str, fixed: dict) -> complex:
    """The root of the divisor, as a polynomial in one coordinate, of least modulus."""
    coeffs: dict[int, complex] = {}
    for (a, b, c), coeff in divisor.terms():
        exps = {"p": a, "q": b, "r": c}
        term = complex(coeff)
        for name, value in fixed.items():
            term *= value ** exps[name]
        coeffs[exps[var]] = coeffs.get(exps[var], 0j) + term
    roots = npoly.polyroots([coeffs.get(i, 0j) for i in range(max(coeffs) + 1)])
    return complex(min(roots, key=abs))


def survey_loops(p: float, q: float, r: float) -> list[tuple[str, transport.Path]]:
    """The five loop shapes of the monodromy survey at one base point."""
    p, q, r = complex(p), complex(q), complex(r)

    def circle(var, center, radius, fixed):
        return transport.Path((transport.CircleSegment(
            coordinate=var, center=center, radius=radius, turns=1.0, fixed=fixed),))

    pq = {"p": p, "q": q}
    return [
        ("r0", circle("r", 0j, abs(r), pq)),
        ("q0", circle("q", 0j, COORDINATE_RADIUS, {"p": p, "r": r})),
        ("p0", circle("p", 0j, COORDINATE_RADIUS, {"q": q, "r": r})),
        ("d2", circle("r", _nearest_root(divisors.D2, "r", pq), DIVISOR_RADIUS, pq)),
        ("d3", circle("r", _nearest_root(divisors.D3, "r", pq), DIVISOR_RADIUS, pq)),
    ]


def draw_base_points(seed: int, count: int) -> tuple[list, int]:
    """Seeded base points; a draw is rejected only when one of its loops
    fails the program's own clearance check.  Returns (cases, rejected)."""
    rng = random.Random(seed)
    cases, rejected = [], 0
    while len(cases) < count:
        point = tuple(rng.uniform(lo, hi) for lo, hi in SURVEY_BOX)
        loops = survey_loops(*point)
        try:
            for _, loop in loops:
                transport.check_clearance(loop)
        except transport.ClearanceError:
            rejected += 1
            continue
        cases.append((point, loops))
    return cases, rejected


def setup_survey(seed: int, points: int | None) -> dict:
    conn = transport.CompiledConnection(pfaffian.rank5_system())
    cases, rejected = draw_base_points(seed, points or SURVEY_POINTS)
    return {"conn": conn, "cases": cases, "rejected": rejected}


def run_survey(state: dict) -> list[Outcome]:
    conn = state["conn"]
    out = []
    for point, loops in state["cases"]:
        where = "(" + ", ".join(f"{x:.6f}" for x in point) + ")"
        for shape, loop in loops:
            name = f"{shape}@{where}"
            try:
                fwd = transport.monodromy(conn, loop, tol=SURVEY_TOL)
                inv = transport.monodromy(conn, loop.reversed(), tol=SURVEY_TOL)
            except Exception as exc:  # counted as failed operations
                error = {"error": f"{type(exc).__name__}: {exc}"}
                out += [Outcome(name, False, error), Outcome(name + "^-1", False, error)]
                continue
            out += gate_loop_pair(name, fwd, inv)
    return out


def gate_loop_pair(name: str, fwd, inv, liouville_bound: float = LIOUVILLE_BOUND,
                   inverse_bound: float = INVERSE_BOUND) -> list[Outcome]:
    """Gate a loop and its inverse: each Liouville defect, and the shared
    loop-times-inverse defect, within their bounds."""
    inverse_defect = float(np.max(np.abs(inv.matrix @ fwd.matrix - np.eye(len(fwd.matrix)))))
    out = []
    for label, result in ((name, fwd), (name + "^-1", inv)):
        detail = {"liouville": result.det_consistency, "inverse_defect": inverse_defect}
        ok = result.det_consistency <= liouville_bound and inverse_defect <= inverse_bound
        out.append(Outcome(label, ok, {} if ok else detail))
    return out


WORKLOADS = {
    "verify-all": (setup_verify_all, run_verify_all),
    "derive": (setup_derive, run_derive),
    "survey": (setup_survey, run_survey),
}

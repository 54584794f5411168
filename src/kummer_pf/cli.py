"""Command-line interface.

One executable, one subcommand per capability, JSON on stdout throughout
(consumers are scripts and CI).  ``verify-all`` runs the complete
reproduction suite -- series oracle, coefficient identity, annihilation,
toric reduction, both rank witnesses with exact integrability, singular
loci in two bases, reference-matrix comparison, discriminant identities,
homogeneity, and numerical transport consistency -- and exits nonzero iff
a hard check fails.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

import numpy as np

from . import checks
from .appendix import appendix_matrices
from .gkz import (
    GENERATING_KERNEL_VECTORS,
    kernel_basis,
    kummer_gkz_data,
    lattice_contains,
    reduce_to_pqr,
    verify_euler_elimination,
)
from .operators import (
    DEGREE_MARGIN,
    build_canonical_system,
)
from .pfaffian import (
    BASIS_BY_NAME,
    BasisClosureError,
    PfaffianSystem,
    check_integrability,
    compare_fixture,
    derive_pfaffian,
    rank5_system,
    singular_factors,
)
from .geometry import (
    lambda_to_pqr,
    pqrb_to_t,
    singular_divisor_membership,
)
from .polynomials import format_rational
from .series import period_coefficient, residue_oracle
from .transport import (
    CompiledConnection,
    Path,
    monodromy,
    transport,
)


def _emit(payload, pretty: bool = True) -> None:
    json.dump(payload, sys.stdout, indent=2 if pretty else None, default=str)
    sys.stdout.write("\n")


def _parse_scalar(text: str):
    try:
        return Fraction(text)
    except ValueError:
        return complex(text)


def _scalar_json(x):
    if isinstance(x, Fraction):
        return format_rational(x)
    x = complex(x)
    return [x.real, x.imag]


# -- subcommands -----------------------------------------------------------------


def cmd_series(args) -> int:
    fn = residue_oracle if args.oracle else period_coefficient
    if args.index:
        idx = tuple(int(x) for x in args.index.split(","))
        _emit({"cap": args.cap, "oracle": args.oracle,
               "coefficients": [{"index": list(idx), "value": format_rational(fn(idx))}]})
        return 0
    coeffs = []
    for l in range(args.cap + 1):
        for m in range(args.cap + 1 - l):
            for n in range(args.cap + 1 - l - m):
                coeffs.append(((l, m, n), fn((l, m, n))))
    coeffs.sort()
    _emit({
        "cap": args.cap,
        "oracle": args.oracle,
        "coefficients": [
            {"index": list(i), "value": format_rational(v)} for i, v in coeffs
        ],
    })
    return 0


def cmd_annihilate(args) -> int:
    ok, detail = checks.annihilation(checks.CheckContext(cap=args.cap))
    results = [{"operator": name, "max_degree_checked": detail["checked_through_degree"],
                "annihilates": name not in detail["failures"]}
               for name in build_canonical_system().names]
    _emit({"cap": args.cap, "margin": DEGREE_MARGIN, "results": results})
    return 0 if ok else 1


def cmd_gkz(args) -> int:
    canonical = build_canonical_system()
    out = {"vectors": [list(b) for b in GENERATING_KERNEL_VECTORS], "operators": [],
           "matches_canonical": True, "euler_elimination": verify_euler_elimination()}
    for vec, expected in zip(GENERATING_KERNEL_VECTORS, canonical.gkz_part()):
        op = reduce_to_pqr(vec)
        match = op == expected
        out["matches_canonical"] = out["matches_canonical"] and match
        out["operators"].append({"vector": list(vec), "matches": match,
                                 "operator": op.to_json()})
    basis = kernel_basis(kummer_gkz_data())
    out["kernel_basis"] = [list(k) for k in basis]
    out["lattice_contains_all"] = all(
        lattice_contains(basis, b) for b in GENERATING_KERNEL_VECTORS)
    _emit(out)
    return 0 if out["matches_canonical"] and out["lattice_contains_all"] else 1


def cmd_pfaffian_derive(args) -> int:
    system = build_canonical_system()
    relations = system.gkz_part() if args.system == "gkz" else system.operators
    basis = BASIS_BY_NAME[args.basis]
    try:
        derived = derive_pfaffian(relations, basis)
    except BasisClosureError as exc:
        _emit({"closed": False, "basis": [list(b) for b in exc.basis],
               "undetermined": [list(m) for m in sorted(exc.undetermined)],
               "reason": str(exc)})
        return 1
    payload = {"closed": True, "size": derived.size}
    if args.out:
        derived.save(args.out)
        payload["written"] = args.out
    else:
        payload.update(derived.to_json())
    _emit(payload)
    return 0


def cmd_pfaffian_check(args) -> int:
    system = PfaffianSystem.load(args.file)
    residual = check_integrability(system)
    _emit({"file": args.file, "residual": residual, "ok": residual == 0})
    return 0 if residual == 0 else 1


def cmd_pfaffian_singular(args) -> int:
    system = PfaffianSystem.load(args.file)
    report = singular_factors(system, require_complete=not args.allow_extra)
    _emit({
        "file": args.file,
        "occurring": sorted(report.occurring),
        "complete": report.complete,
        "leftovers": [
            {"matrix": m, "row": i, "col": j, "cofactor": poly.to_text()}
            for m, i, j, poly in report.leftovers
        ],
    })
    return 0


def cmd_pfaffian_compare(args) -> int:
    system = PfaffianSystem.load(args.file)
    diff = compare_fixture(system, appendix_matrices())
    _emit(diff.to_json())
    return 0


def cmd_params(args) -> int:
    if args.which == "lambda":
        p, q, r = lambda_to_pqr(tuple(_parse_scalar(x) for x in (args.a, args.b, args.c)))
        _emit({"p": _scalar_json(p), "q": _scalar_json(q), "r": _scalar_json(r)})
        return 0
    if args.which == "tmap":
        t4, t6, t10, t12 = pqrb_to_t(*(_parse_scalar(x) for x in (args.a, args.b, args.c, args.d)))
        _emit({"t4": _scalar_json(t4), "t6": _scalar_json(t6),
               "t10": _scalar_json(t10), "t12": _scalar_json(t12)})
        return 0
    point = tuple(_parse_scalar(x) for x in (args.a, args.b, args.c))
    report = singular_divisor_membership(point)
    _emit({"point": [_scalar_json(x) for x in point],
           "on": report.on,
           "values": {k: _scalar_json(v) for k, v in report.values.items()}})
    return 0


def cmd_transport(args) -> int:
    with open(args.path, encoding="utf-8") as fh:
        path = Path.from_json(json.load(fh))
    if args.system:
        system = PfaffianSystem.load(args.system)
    else:
        system = rank5_system()
    conn = CompiledConnection(system)
    if args.monodromy:
        result = monodromy(conn, path, tol=args.tol, min_clearance=args.clearance)
        _emit({
            "matrix": _matrix_json(result.matrix),
            "eigenvalues": [[z.real, z.imag] for z in result.eigenvalues],
            "det": [result.determinant.real, result.determinant.imag],
            "det_consistency": result.det_consistency,
            "trace_converged": result.trace_converged,
            "steps": result.step_count,
            "rejects": result.rejects,
            "max_local_error": result.max_local_error,
        })
        return 0
    result = transport(conn, path, tol=args.tol, min_clearance=args.clearance)
    _emit({
        "matrix": _matrix_json(result.fundamental_matrix),
        "det": _scalar_json(complex(np.linalg.det(result.fundamental_matrix))),
        "steps": result.step_count,
        "rejects": result.rejects,
        "max_local_error": result.max_local_error,
        "clearance": result.clearance,
    })
    return 0


def _matrix_json(m: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in m]


# -- verify-all --------------------------------------------------------------------


class _Runner:
    def __init__(self):
        self.checks = []

    def run(self, name: str, fn):
        start = time.perf_counter()
        try:
            ok, detail = fn()
            status = "pass" if ok else "fail"
            if ok and detail.pop("_reported_diff", False):
                status = "reported-diff"
        except Exception as exc:  # a failing hard check must not stop the rest
            status = "fail"
            detail = {"error": f"{type(exc).__name__}: {exc}"}
        self.checks.append({
            "name": name,
            "status": status,
            "hard": True,
            "runtime_s": round(time.perf_counter() - start, 3),
            "detail": detail,
        })

    @property
    def ok(self) -> bool:
        return all(c["status"] != "fail" for c in self.checks)


def verify_all(cap: int = 12, tol: float = 1e-10, seed: int = 0,
               artifacts: str | None = None) -> dict:
    ctx = checks.CheckContext(cap=cap, tol=tol, rng=random.Random(seed),
                              artifacts=artifacts)
    runner = _Runner()
    for name, check in checks.CHECKS:
        runner.run(name, lambda: check(ctx))
    return {"ok": runner.ok, "seed": seed, "cap": cap, "tol": tol,
            "checks": runner.checks}


def cmd_verify_all(args) -> int:
    report = verify_all(cap=args.cap, tol=args.tol, seed=args.seed,
                        artifacts=args.artifacts)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, default=str)
    _emit(report)
    return 0 if report["ok"] else 1


# -- argument wiring -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kummer-pf",
        description="Exact Picard-Fuchs system for the Kummer surface family "
                    "K(p,q,r): construction, verification, and transport.")
    parser.add_argument("--json", action="store_true",
                        help="emit JSON (the default; kept for script compatibility)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized spot checks")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("series", help="period series coefficients")
    s.add_argument("--cap", type=int, default=4)
    s.add_argument("--index", help="single coefficient l,m,n")
    s.add_argument("--oracle", action="store_true",
                   help="use the contour-integral oracle route")
    s.set_defaults(fn=cmd_series)

    a = sub.add_parser("annihilate", help="apply the five operators to the series")
    a.add_argument("--cap", type=int, default=12)
    a.set_defaults(fn=cmd_annihilate)

    g = sub.add_parser("gkz", help="derive the reduced operators from kernel vectors")
    g.set_defaults(fn=cmd_gkz)

    pf = sub.add_parser("pfaffian", help="connection derivation and checks")
    pfsub = pf.add_subparsers(dest="pf_command", required=True)
    d = pfsub.add_parser("derive")
    d.add_argument("--basis", choices=sorted(BASIS_BY_NAME), default="p2")
    d.add_argument("--system", choices=["full", "gkz"], default="full")
    d.add_argument("--out")
    d.set_defaults(fn=cmd_pfaffian_derive)
    c = pfsub.add_parser("check")
    c.add_argument("file")
    c.set_defaults(fn=cmd_pfaffian_check)
    sg = pfsub.add_parser("singular")
    sg.add_argument("file")
    sg.add_argument("--allow-extra", action="store_true",
                    help="report non-candidate factors instead of failing")
    sg.set_defaults(fn=cmd_pfaffian_singular)
    cp = pfsub.add_parser("compare", help="compare with the reference matrix tables")
    cp.add_argument("file")
    cp.set_defaults(fn=cmd_pfaffian_compare)

    pr = sub.add_parser("params", help="parameter maps and divisor membership")
    prsub = pr.add_subparsers(dest="which", required=True)
    pl = prsub.add_parser("lambda")
    pl.add_argument("a"), pl.add_argument("b"), pl.add_argument("c")
    pl.set_defaults(fn=cmd_params, which="lambda")
    pt = prsub.add_parser("tmap")
    pt.add_argument("a"), pt.add_argument("b"), pt.add_argument("c"), pt.add_argument("d")
    pt.set_defaults(fn=cmd_params, which="tmap")
    pd = prsub.add_parser("divisors")
    pd.add_argument("a"), pd.add_argument("b"), pd.add_argument("c")
    pd.set_defaults(fn=cmd_params, which="divisors")

    t = sub.add_parser("transport", help="integrate the connection along a path")
    t.add_argument("--path", required=True, help="path JSON file")
    t.add_argument("--tol", type=float, default=1e-10)
    t.add_argument("--clearance", type=float, default=1e-3)
    t.add_argument("--monodromy", action="store_true")
    t.add_argument("--system", help="derived system JSON (defaults to fresh rank-5)")
    t.set_defaults(fn=cmd_transport)

    v = sub.add_parser("verify-all", help="run the full reproduction suite")
    v.add_argument("--cap", type=int, default=12)
    v.add_argument("--tol", type=float, default=1e-10)
    v.add_argument("--out", help="write the report JSON here as well")
    v.add_argument("--artifacts", help="directory for derived-system artifacts")
    v.set_defaults(fn=cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

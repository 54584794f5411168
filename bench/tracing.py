"""Per-layer spans for the traced benchmark run.

The program is not instrumented; instead the benchmark replaces each
layer's public functions and methods with timing wrappers.  A function is
replaced in every loaded module that binds it (``cli`` and ``pfaffian``
import ``check_integrability`` and ``solve_poly_rows`` by name), and a
method on its class.  Each span records its duration and the time covered
by spans it caused, so a layer's self time is its duration minus that
covered time.  Spans are aggregated per name in memory: calls, inclusive
seconds and self seconds.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


def _derive_name(relations, basis=None) -> str:
    from kummer_pf import pfaffian

    basis = tuple(basis or pfaffian.BASIS_P2)
    if isinstance(relations, pfaffian.CanonicalSystem):
        relations = relations.operators
    if basis == pfaffian.BASIS_RANK6:
        return "pfaffian.derive.p2q2"
    if basis == pfaffian.BASIS_Q2:
        return "pfaffian.derive.q2"
    if basis == pfaffian.BASIS_P2 and len(relations) == 4:
        return "pfaffian.derive.witness"
    return "pfaffian.derive.p2"


def _integrability_name(system) -> str:
    return f"pfaffian.check_integrability.rank{system.size}"


# (module, function, span name) for module-level functions.
FUNCTIONS = (
    ("cli", "verify_all", "cli.verify_all"),
    ("polynomials", "poly_gcd", "polynomials.poly_gcd"),
    ("linalg", "solve_poly_rows", "linalg.solve_poly_rows"),
    ("pfaffian", "derive_pfaffian", _derive_name),
    ("pfaffian", "check_integrability", _integrability_name),
    ("pfaffian", "singular_factors", "pfaffian.singular_factors"),
    ("pfaffian", "compare_fixture", "pfaffian.compare_fixture"),
    ("pfaffian", "series_consistency_defects", "pfaffian.series_consistency"),
    ("series", "period_coefficient", "series.period_coefficient"),
    ("series", "residue_oracle", "series.residue_oracle"),
    ("series", "period_series", "series.period_series"),
    ("operators", "build_canonical_system", "operators.build_canonical_system"),
    ("operators", "identity_check", "operators.identity_check"),
    ("gkz", "reduce_to_pqr", "gkz.reduce_to_pqr"),
    ("gkz", "kernel_basis", "gkz.kernel_basis"),
    ("gkz", "lattice_contains", "gkz.lattice_contains"),
    ("gkz", "verify_euler_elimination", "gkz.verify_euler_elimination"),
    ("geometry", "discriminant_identities", "geometry.discriminant_identities"),
    ("geometry", "discriminant_factorization", "geometry.discriminant_factorization"),
    ("geometry", "weighted_homogeneity_witness", "geometry.weighted_homogeneity_witness"),
    ("geometry", "divisor_clearance", "geometry.divisor_clearance"),
    ("appendix", "appendix_matrices", "appendix.appendix_matrices"),
    ("transport", "transport", "transport.transport"),
    ("transport", "trace_integral", "transport.trace_integral"),
    ("transport", "check_clearance", "transport.check_clearance"),
    ("transport", "series_vs_transport", "transport.series_vs_transport"),
)

# (module, class, method, span name).
METHODS = (
    ("polynomials", "MultiPoly", "__mul__", "polynomials.mul"),
    ("polynomials", "MultiPoly", "__rmul__", "polynomials.mul"),
    ("polynomials", "MultiPoly", "exact_div", "polynomials.exact_div"),
    ("operators", "ThetaOperator", "apply", "operators.apply"),
    ("transport", "CompiledConnection", "__init__", "transport.compile"),
    ("transport", "CompiledConnection", "directional", "transport.rhs"),
    ("transport", "CompiledConnection", "trace_directional", "transport.trace_rhs"),
)


class Tracer:
    """Span aggregation plus the counters read off call arguments."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts: Counter = Counter()
        self.rank5_sizes: dict[str, int] = {}
        self._covered = [[0.0]]  # child time per open span; the root has none
        self._undo: list = []

    def wrap(self, fn, name, after=None):
        spans, covered, clock = self.spans, self._covered, time.perf_counter
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = fixed or name(*args, **kwargs)
            child = [0.0]
            covered.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered.pop()
                covered[-1][0] += elapsed
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - child[0]
            if after is not None:
                after(key, result, *args, **kwargs)
            return result

        return wrapper

    # -- counters read at the boundaries -----------------------------------

    def _after_solve(self, key, result, rows, n_unknowns):
        self.counts["linalg.pool_rows"] += len(rows)
        self.counts["linalg.pool_cols"] += len(rows[0]) if rows else 0

    def _after_derive(self, key, system, *args, **kwargs):
        if key != "pfaffian.derive.p2" or self.rank5_sizes:
            return
        terms = bits = 0
        for var in "pqr":
            for row in system.matrix(var):
                for entry in row:
                    for poly in (entry.num, entry.den):
                        terms = max(terms, len(poly))
                        for _, c in poly.terms():
                            bits = max(bits, abs(c.numerator).bit_length(),
                                       c.denominator.bit_length())
        self.rank5_sizes = {"max_entry_terms": terms, "max_coeff_bits": bits}

    def _after_transport(self, key, result, system, path, *args, **kwargs):
        self.counts["transport.rk_steps"] += result.step_count
        self.counts["transport.segments"] += len(path.segments)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Replace every traced name wherever a loaded module binds it."""
        hooks = {
            "solve_poly_rows": self._after_solve,
            "derive_pfaffian": self._after_derive,
            "transport": self._after_transport,
        }
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("kummer_pf")]
        for mod_name, fn_name, span in FUNCTIONS:
            original = getattr(sys.modules[f"kummer_pf.{mod_name}"], fn_name)
            wrapped = self.wrap(original, span, hooks.get(fn_name))
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._undo.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapped)
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules[f"kummer_pf.{mod_name}"], cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self.wrap(original, span))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def layer_metrics(spans: dict, counts: dict, rank5_sizes: dict,
                  traced_wall: float, untraced_wall: float) -> dict:
    """Every per-layer metric, as name -> (value, unit), from a traced
    repetition's spans and counters and the wall time of an untraced one."""

    def span(name):
        return spans.get(name, [0, 0.0, 0.0])

    out = {}
    for name in ("polynomials.mul", "polynomials.exact_div", "polynomials.poly_gcd"):
        calls, _, self_s = span(name)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    calls, total, _ = span("linalg.solve_poly_rows")
    out["linalg.solve_poly_rows.calls"] = (calls, "count")
    out["linalg.solve_poly_rows.s"] = (total, "s")
    out["linalg.pool_rows"] = (counts.get("linalg.pool_rows", 0), "count")
    out["linalg.pool_cols"] = (counts.get("linalg.pool_cols", 0), "count")
    for basis in ("p2", "q2", "p2q2", "witness"):
        out[f"pfaffian.derive.{basis}.s"] = (span(f"pfaffian.derive.{basis}")[1], "s")
    for rank in (5, 6):
        out[f"pfaffian.check_integrability.rank{rank}.s"] = (
            span(f"pfaffian.check_integrability.rank{rank}")[1], "s")
    for name in ("singular_factors", "compare_fixture", "series_consistency"):
        out[f"pfaffian.{name}.s"] = (span(f"pfaffian.{name}")[1], "s")
    out["pfaffian.rank5.max_entry_terms"] = (
        rank5_sizes.get("max_entry_terms", 0), "count")
    out["pfaffian.rank5.max_coeff_bits"] = (
        rank5_sizes.get("max_coeff_bits", 0), "bits")
    for _, _, name in FUNCTIONS:
        if isinstance(name, str) and name.split(".")[0] in (
                "series", "operators", "gkz", "geometry", "appendix"):
            out[f"{name}.s"] = (span(name)[1], "s")
    out["operators.apply.s"] = (span("operators.apply")[1], "s")

    rhs_calls, rhs_total, rhs_self = span("transport.rhs")
    out["transport.rhs.calls"] = (rhs_calls, "count")
    out["transport.rhs.self_s"] = (rhs_self, "s")
    out["transport.rhs.us_per_call"] = (
        1e6 * rhs_total / rhs_calls if rhs_calls else 0.0, "us")
    steps = counts.get("transport.rk_steps", 0)
    out["transport.rk_steps"] = (steps, "count")
    # Dormand-Prince with first-same-as-last: one RHS call starts each
    # segment, then every attempted step costs six.
    attempts = (rhs_calls - counts.get("transport.segments", 0)) / 6
    out["transport.rk_accept_ratio"] = (steps / attempts if attempts > 0 else 0.0, "ratio")
    out["transport.trace_integral.s"] = (span("transport.trace_integral")[1], "s")
    out["transport.trace_integral.rhs_calls"] = (span("transport.trace_rhs")[0], "count")
    out["transport.check_clearance.s"] = (span("transport.check_clearance")[1], "s")
    out["transport.compile.s"] = (span("transport.compile")[1], "s")

    _, root_total, root_self = span("cli.verify_all")
    out["cli.verify_all.self_s"] = (root_self, "s")
    layer_self = sum(rec[2] for name, rec in spans.items() if name != "cli.verify_all")
    out["trace.self_coverage"] = (
        layer_self / root_total if root_total else 0.0, "ratio")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out

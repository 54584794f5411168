"""The traced benchmark looks program names up by string; each must resolve.

``bench/tracing.py`` replaces every ``(module, function)`` in ``FUNCTIONS``
and every ``(class, method)`` in ``METHODS`` with a timing wrapper, so a
rename or deletion in ``kummer_pf`` would otherwise only show up in a
traced benchmark run.  Some wrappers also pass the call's arguments to a
counting hook, so a traced derivation checks that those hooks still accept
the program's calls.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    """The bench's tracing module, with every module it traces imported, as
    `Tracer.install` expects."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod_name in {entry[0] for entry in tracing.FUNCTIONS + tracing.METHODS}:
        importlib.import_module(f"kummer_pf.{mod_name}")
    return tracing


def test_traced_names_resolve():
    tracing = load_tracing()
    missing = []
    for mod_name, fn_name, _ in tracing.FUNCTIONS:
        module = importlib.import_module(f"kummer_pf.{mod_name}")
        if not callable(getattr(module, fn_name, None)):
            missing.append(f"{mod_name}.{fn_name}")
    for mod_name, cls_name, meth, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"kummer_pf.{mod_name}"), cls_name, None)
        # the tracer reads the class __dict__, so an inherited method does not count
        if not callable(vars(cls).get(meth) if cls else None):
            missing.append(f"{mod_name}.{cls_name}.{meth}")
    assert missing == []


def test_traced_hooks_accept_program_calls():
    # The hooks read call arguments: `_after_solve(key, result, rows,
    # n_unknowns)` fails if `solve_poly_rows` is called with another shape.
    tracing = load_tracing()
    from kummer_pf import operators, pfaffian

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(pfaffian.BasisClosureError):
            pfaffian.derive_pfaffian(operators.build_canonical_system().gkz_part(),
                                     pfaffian.BASIS_P2)
    finally:
        tracer.uninstall()
    assert tracer.counts["linalg.pool_rows"] == 16
    assert tracer.spans["pfaffian.derive.witness"][0] == 1


def test_traced_transport_counters():
    # The bench derives rk_accept_ratio from the `transport.rhs` span count,
    # which holds only while each segment costs 1 + 6 (steps + rejects)
    # `directional` calls; the trace quadrature goes through
    # `trace_directional`, one batched call per Gauss panel.
    tracing = load_tracing()
    from kummer_pf.pfaffian import rank5_system
    from kummer_pf.transport import CircleSegment, CompiledConnection, Path, monodromy

    conn = CompiledConnection(rank5_system())
    loop = Path((CircleSegment(coordinate="r", center=0j, radius=0.01, turns=1.0,
                               fixed={"p": 0.5 + 0j, "q": 1 / 3 + 0j}),))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = monodromy(conn, loop, tol=1e-8)
    finally:
        tracer.uninstall()
    assert tracer.counts["transport.rk_steps"] == result.step_count
    assert tracer.spans["transport.rhs"][0] == 1 + 6 * (result.step_count + result.rejects)
    # refinement levels of 1, 2, 4 and 8 panels; a per-node call would be
    # at least 48 per panel
    panels = tracer.spans["transport.trace_rhs"][0]
    assert panels in (3, 7, 15)

"""The traced benchmark looks program names up by string; each must resolve.

``bench/tracing.py`` replaces every ``(module, function)`` in ``FUNCTIONS``
and every ``(class, method)`` in ``METHODS`` with a timing wrapper, so a
rename or deletion in ``kummer_pf`` would otherwise only show up in a
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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

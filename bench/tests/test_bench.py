"""Self-test of the benchmark.

    python3 -m pytest bench/tests -q

It runs every workload at its smallest size (one repetition, one survey
base point) with and without tracing, checks that every metric named in
BENCHMARK.json is emitted with its unit, and checks that each correctness
gate turns a corrupted digest, tolerance or report into a failed operation.
Takes about three minutes, most of it the two verify-all runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = ("polynomials.mul.calls", "polynomials.exact_div.calls",
                 "polynomials.poly_gcd.calls", "linalg.solve_poly_rows.calls",
                 "transport.rhs.calls", "transport.rk_steps",
                 "transport.trace_integral.rhs_calls")


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--points", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"], m["name"]
        assert isinstance(emitted["value"], (int, float)), m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif workload == "verify-all":
        assert result["metrics"]["trace.self_coverage"]["value"] >= 0.9


def test_traced_counts_repeat_exactly():
    first, second = (result_of(run_bench("survey", 1))["metrics"] for _ in range(2))
    for name in COUNT_METRICS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["transport.rhs.calls"]["value"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("derive", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- gates ---------------------------------------------------------------------


def test_verify_all_gate_counts_each_bad_check():
    report = {"checks": [
        {"name": name, "status": "pass", "detail": {}} for name in workloads.VERIFY_ALL_CHECKS
    ]}
    assert all(o.ok for o in workloads.gate_verify_all(report))
    report["checks"][4]["detail"]["integrability_residual"] = 1
    report["checks"][7]["detail"]["rows_1_4_mismatches"] = 2
    report["checks"][9]["status"] = "reported-diff"
    del report["checks"][0]
    failed = [o.name for o in workloads.gate_verify_all(report) if not o.ok]
    assert failed == ["series-oracle-equivalence", "rank6-closure-integrability",
                      "fixture-comparison", "discriminant-identities"]


def test_corrupted_digest_fails_one_derivation():
    state = workloads.setup_derive(0, None)
    state["items"] = state["items"][:len(workloads.DERIVATIONS)]
    state["digests"]["q2"] = "0" * 64
    outcomes = {o.name: o.ok for o in workloads.run_derive(state)}
    assert outcomes == {"p2": True, "q2": False, "p2q2": True, "witness": True}


@pytest.fixture(scope="module")
def conn():
    return workloads.transport.CompiledConnection(workloads.pfaffian.rank5_system())


def loop_pair(conn, loop):
    tol = workloads.SURVEY_TOL
    return (workloads.transport.monodromy(conn, loop, tol=tol),
            workloads.transport.monodromy(conn, loop.reversed(), tol=tol))


def test_corrupted_tolerance_fails_loop(conn):
    (_, loops), = workloads.draw_base_points(0, 1)[0]
    name, loop = loops[0]
    fwd, inv = loop_pair(conn, loop)
    assert all(o.ok for o in workloads.gate_loop_pair(name, fwd, inv))
    assert not any(o.ok for o in workloads.gate_loop_pair(name, fwd, inv, liouville_bound=0.0))
    assert not any(o.ok for o in workloads.gate_loop_pair(name, fwd, inv, inverse_bound=0.0))


def test_loop_grazing_apparent_singularity_is_a_failed_operation(conn):
    """The r-circle through (0.42687, 0.37712, 0.011055) passes about 9e-5
    from a root of d1, which check_clearance does not watch.  The draw is
    not rejected, and the loop's result must fail its gate."""
    name, loop = workloads.survey_loops(0.42687, 0.37712, 0.011055)[0]
    assert name == "r0"
    workloads.transport.check_clearance(loop)
    outcomes = workloads.gate_loop_pair(name, *loop_pair(conn, loop))
    assert not any(o.ok for o in outcomes)
    assert np.isfinite(outcomes[0].detail["liouville"])

"""CLI surface: every subcommand, JSON schemas, exit codes."""

import json
from pathlib import Path

import pytest

from kummer_pf.cli import _Runner, main

# The seed-0 verify-all report with runtime_s removed, as the reproduction
# produced it before the series moved onto MultiPoly.
SEED0_REPORT = Path(__file__).parent / "data" / "verify_all_seed0.json"
# Transport floats may move at rounding level; every other value is exact.
TRANSPORT_FLOAT_TOL = 1e-11


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSeries:
    def test_cap_listing(self, capsys):
        code, data = run_cli(capsys, "series", "--cap", "2")
        assert code == 0
        values = {tuple(e["index"]): e["value"] for e in data["coefficients"]}
        assert values[(0, 0, 0)] == "1"
        assert values[(1, 0, 0)] == "1/4"
        assert values[(0, 1, 0)] == "9/32"

    def test_single_index_oracle(self, capsys):
        code, data = run_cli(capsys, "series", "--cap", "4", "--index", "1,1,1", "--oracle")
        assert code == 0
        [entry] = data["coefficients"]
        assert entry["index"] == [1, 1, 1]


class TestAnnihilate:
    def test_default_cap(self, capsys):
        code, data = run_cli(capsys, "annihilate", "--cap", "8")
        assert code == 0
        assert data["margin"] == 3
        assert len(data["results"]) == 5
        assert all(r["annihilates"] for r in data["results"])
        assert all(r["max_degree_checked"] == 5 for r in data["results"])


class TestGkz:
    def test_derive(self, capsys):
        code, data = run_cli(capsys, "gkz")
        assert code == 0
        assert data["matches_canonical"] is True
        assert data["lattice_contains_all"] is True
        assert len(data["operators"]) == 4


class TestPfaffian:
    def test_derive_check_singular_compare(self, capsys, tmp_path):
        out = tmp_path / "rank5.json"
        code, data = run_cli(capsys, "pfaffian", "derive", "--basis", "p2",
                             "--out", str(out))
        assert code == 0 and data["closed"] is True
        code, data = run_cli(capsys, "pfaffian", "check", str(out))
        assert code == 0 and data["residual"] == 0
        code, data = run_cli(capsys, "pfaffian", "singular", str(out))
        assert code == 0
        assert set(data["occurring"]) >= {"p", "q", "d1", "d2", "d3"}
        code, data = run_cli(capsys, "pfaffian", "compare", str(out))
        assert code == 0
        assert data["mismatch_count"] == 0

    def test_gkz_only_five_basis_reports_failure(self, capsys):
        code, data = run_cli(capsys, "pfaffian", "derive", "--basis", "p2",
                             "--system", "gkz")
        assert code == 1
        assert data["closed"] is False
        assert data["undetermined"]

    def test_full_system_six_basis_reports_dependence(self, capsys):
        code, data = run_cli(capsys, "pfaffian", "derive", "--basis", "p2q2")
        assert code == 1
        assert data["closed"] is False
        assert data["undetermined"] == []
        assert "linearly dependent" in data["reason"]


class TestParams:
    def test_lambda(self, capsys):
        code, data = run_cli(capsys, "params", "lambda", "2", "2", "5")
        assert code == 0
        assert data["q"] == "0" and data["r"] == "0"

    def test_tmap(self, capsys):
        code, data = run_cli(capsys, "params", "tmap", "0", "0", "0", "1")
        assert code == 0
        assert data["t4"] == "-1/3"
        assert data["t6"] == "-2/27"

    def test_divisors(self, capsys):
        code, data = run_cli(capsys, "params", "divisors", "0", "1", "1")
        assert code == 0
        assert data["on"] == {"p": True, "q": False, "r": False,
                              "d2": False, "d3": False}


class TestGlobalFlags:
    def test_json_accepted_threads_rejected(self, capsys):
        code, data = run_cli(capsys, "--json", "series", "--cap", "0")
        assert code == 0
        assert data["coefficients"][0]["value"] == "1"
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "4", "series", "--cap", "0"])
        assert exc.value.code == 2


class TestRunner:
    def test_hard_failure_drives_exit_code(self):
        runner = _Runner()
        runner.run("good", lambda: (True, {}))
        runner.run("bad", lambda: (False, {"why": "deliberate"}))
        assert not runner.ok
        assert [c["status"] for c in runner.checks] == ["pass", "fail"]

    def test_exception_recorded_not_raised(self):
        runner = _Runner()

        def boom():
            raise RuntimeError("kaput")

        runner.run("explodes", boom)
        assert not runner.ok
        assert "kaput" in runner.checks[0]["detail"]["error"]

    def test_reported_diff_status(self):
        runner = _Runner()
        runner.run("diffy", lambda: (True, {"_reported_diff": True, "n": 3}))
        assert runner.ok
        assert runner.checks[0]["status"] == "reported-diff"
        assert runner.checks[0]["detail"] == {"n": 3}


class TestVerifyAll:
    def test_full_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, data = run_cli(capsys, "--seed", "0", "verify-all",
                             "--out", str(out), "--artifacts", str(tmp_path))
        assert code == 0
        assert data["ok"] is True
        names = [c["name"] for c in data["checks"]]
        assert names == [
            "series-oracle-equivalence",
            "coefficient-identity",
            "annihilation",
            "gkz-reduction",
            "rank6-closure-integrability",
            "rank5-closure-integrability",
            "singular-loci",
            "fixture-comparison",
            "pfaffian-series-consistency",
            "discriminant-identities",
            "weighted-homogeneity",
            "transport-consistency",
        ]
        assert all(c["status"] in ("pass", "reported-diff") for c in data["checks"])
        assert (tmp_path / "rank5.json").exists()
        assert out.exists()
        # Later checks and detail keys may be added; the recorded ones stay.
        reference = json.loads(SEED0_REPORT.read_text(encoding="utf-8"))
        for key in ("ok", "seed", "cap", "tol"):
            assert data[key] == reference[key], key
        for got, want in zip(data["checks"], reference["checks"]):
            assert (got["name"], got["status"], got["hard"]) == (
                want["name"], want["status"], want["hard"])
            for key, value in want["detail"].items():
                if want["name"] == "transport-consistency":
                    assert abs(got["detail"][key] - value) <= TRANSPORT_FLOAT_TOL, key
                else:
                    assert got["detail"][key] == value, (want["name"], key)

    def test_reduced_cap_notes_coverage(self, capsys):
        code, data = run_cli(capsys, "verify-all", "--cap", "6")
        assert code == 0
        annihilation = next(c for c in data["checks"] if c["name"] == "annihilation")
        assert annihilation["detail"]["checked_through_degree"] == 3
        assert "note" in annihilation["detail"]


class TestTransport:
    def test_loop_monodromy(self, capsys, tmp_path):
        path_file = tmp_path / "loop.json"
        path_file.write_text(json.dumps({
            "segments": [{
                "type": "circle", "coordinate": "r", "center": [0, 0],
                "radius": 0.01, "turns": 1.0,
                "fixed": {"p": [0.5, 0], "q": [0.3333333333333333, 0]},
            }]
        }), encoding="utf-8")
        code, data = run_cli(capsys, "transport", "--path", str(path_file),
                             "--tol", "1e-8", "--monodromy")
        assert code == 0
        det = complex(*data["det"])
        assert abs(abs(det) - 1) < 1e-6
        assert data["det_consistency"] < 1e-6
        assert data["trace_converged"] is True
        assert data["steps"] > 0 and data["rejects"] >= 0
        code, data = run_cli(capsys, "transport", "--path", str(path_file),
                             "--tol", "1e-8")
        assert code == 0
        assert data["steps"] > 0 and data["rejects"] >= 0

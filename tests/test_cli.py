import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from hcpoly import divisor_core, hc_engine
from hcpoly.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_pi(capsys):
    code, out, err = run(capsys, "pi", "--q", "2", "--n", "5")
    assert (code, out, err) == (0, "6\n", "")
    code, out, _ = run(capsys, "pi", "--q", "5", "--n", "3")
    assert (code, out) == (0, "40\n")


def test_pi_validation(capsys):
    code, out, err = run(capsys, "pi", "--q", "6", "--n", "3")
    assert code == 1
    assert out == ""
    assert err == "hcpoly: field size must be a prime power, got 6\n"
    code, _, err = run(capsys, "pi", "--q", "2", "--n", "0")
    assert code == 1 and err.startswith("hcpoly: ")


def test_usage_errors_exit_1(capsys):
    for argv in (
        [],
        ["nope"],
        ["tmax", "--q", "2"],
        ["pi", "--n", "3"],
        ["hc-table", "--q", "2", "--max-degree", "5", "--format", "yaml"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.strip(), argv


def test_irreducibles_matches_fixture(capsys):
    code, out, err = run(capsys, "irreducibles", "--q", "2", "--max-degree", "5")
    assert code == 0 and err == ""
    assert out == (DATA / "irreducibles_q2_maxdeg5.txt").read_text()


def test_irreducibles_json_stable(capsys):
    code, out, _ = run(capsys, "irreducibles", "--q", "2", "--max-degree", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert doc["q"] == 2 and doc["max_degree"] == 4
    assert [r["index"] for r in doc["rows"]] == list(range(1, len(doc["rows"]) + 1))
    assert doc["rows"][0] == {"index": 1, "degree": 1, "poly": "t", "key": "2"}
    assert all(isinstance(r["key"], str) for r in doc["rows"])
    keys = [int(r["key"]) for r in doc["rows"]]
    assert keys == sorted(keys)


def test_irreducibles_requires_prime_q(capsys):
    code, _, err = run(capsys, "irreducibles", "--q", "4", "--max-degree", "2")
    assert code == 1
    assert "prime" in err


def test_s_set(capsys):
    code, out, _ = run(capsys, "s-set", "--count", "12")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "s\tr\tx_approx(q=2, display only)"
    pairs = [tuple(map(int, line.split("\t")[:2])) for line in lines[1:]]
    assert pairs == [
        (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4),
        (2, 2), (1, 5), (4, 1), (1, 6), (2, 3), (5, 1),
    ]
    assert lines[1] == "1\t1\t1"
    code, out, _ = run(capsys, "s-set", "--count", "3", "--q", "3")
    assert code == 0 and out.splitlines()[0].startswith("s\tr\tx_approx(q=3")


def test_shc(capsys):
    code, out, err = run(capsys, "shc", "--q", "2", "--s", "2", "--r", "1")
    assert (code, err) == (0, "")
    assert out == (
        "point: s=2 r=1\n"
        "exponents: [2, 1]\n"
        "degree: 6\n"
        "tau: 18\n"
        "family (pi(s) = 1):\n"
        "  v=0: degree 6, tau 18, multiplicity 1\n"
        "  v=1: degree 4, tau 9, multiplicity 1\n"
    )
    code, _, err = run(capsys, "shc", "--q", "2", "--s", "0", "--r", "1")
    assert code == 1 and err.startswith("hcpoly: ")


def test_hc_table_matches_fixture(capsys):
    code, out, err = run(capsys, "hc-table", "--q", "2", "--max-degree", "39")
    assert code == 0 and err == ""
    assert out == (DATA / "hc_table_q2_maxdeg39.txt").read_text()


def test_hc_table_json(capsys):
    code, out, _ = run(capsys, "hc-table", "--q", "2", "--max-degree", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    records = doc["records"]
    assert [r["degree"] for r in records] == list(range(7))
    assert [r["tau"] for r in records] == ["1", "2", "4", "6", "9", "12", "18"]
    assert [r["marker"] for r in records] == [
        "none", "SSHC", "SHC", "SSHC", "SHC", "none", "SHC",
    ]
    assert records[0]["patterns"] == [{"classes": [], "realizations": "1"}]
    assert "polynomials" not in records[3]
    assert records[5]["total_polynomials"] == "4"


def test_hc_table_explicit_json(capsys):
    code, out, _ = run(
        capsys, "hc-table", "--q", "2", "--max-degree", "6", "--format", "json", "--explicit"
    )
    assert code == 0
    records = json.loads(out)["records"]
    for rec in records:
        assert len(rec["polynomials"]) == int(rec["total_polynomials"])
    assert records[1]["polynomials"] == ["P_1^1", "P_2^1"]
    assert records[6]["polynomials"] == ["P_1^2 P_2^2 P_3^1"]


def test_hc_table_rows_agree_with_explicit_json(capsys):
    _, table_out, _ = run(capsys, "hc-table", "--q", "2", "--max-degree", "6")
    _, json_out, _ = run(
        capsys, "hc-table", "--q", "2", "--max-degree", "6", "--format", "json", "--explicit"
    )
    rows = [line.split("\t")[0].lstrip("*") for line in table_out.splitlines()[1:]]
    records = json.loads(json_out)["records"]
    flat = [form for rec in records if rec["degree"] > 0 for form in rec["polynomials"]]
    assert rows == flat


def test_hc_table_cache_flag(tmp_path, capsys):
    code, first, _ = run(
        capsys, "hc-table", "--q", "2", "--max-degree", "8", "--cache", str(tmp_path)
    )
    assert code == 0
    assert (tmp_path / "hc_table_q2_n8_v1.json").exists()
    code, second, _ = run(
        capsys, "hc-table", "--q", "2", "--max-degree", "8", "--cache", str(tmp_path)
    )
    assert code == 0 and second == first


def test_cache_env_overrides_flag(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    env_dir.mkdir()
    flag_dir.mkdir()
    monkeypatch.setenv("HCPOLY_CACHE", str(env_dir))
    code, _, _ = run(
        capsys, "hc-table", "--q", "2", "--max-degree", "7", "--cache", str(flag_dir)
    )
    assert code == 0
    assert (env_dir / "hc_table_q2_n7_v1.json").exists()
    assert not list(flag_dir.iterdir())


def test_hc_table_degree_zero_only(capsys):
    code, out, _ = run(capsys, "hc-table", "--q", "2", "--max-degree", "0")
    assert code == 0
    assert out == "f\tdeg\ttau\n"


def test_tmax(capsys):
    code, out, _ = run(capsys, "tmax", "--q", "2", "--n", "39")
    assert code == 0 and out == "T(39) = 9408\n"
    code, out, _ = run(capsys, "tmax", "--q", "2", "--n", "0")
    assert code == 0 and out == "T(0) = 1\n"


def test_tmax_bounds_strict_interior(capsys):
    code, out, _ = run(capsys, "tmax", "--q", "2", "--n", "5", "--bounds")
    assert code == 0
    assert out == (
        "T(5) = 12\n"
        "anchor: s=2 r=1 v=0 u=1 (degree 6, tau 18)\n"
        "epsilon(5) ~ 0.405465 (display only)\n"
        "bounds: (1/2)*log(1+1/1) ~ 0.346574 <= epsilon <= log(1+1/2) ~ 0.405465"
        " (display only)\n"
        "certificate: lower_ok=True upper_ok=True width_ok=True\n"
    )


def test_tmax_bounds_family_degree(capsys):
    code, out, _ = run(capsys, "tmax", "--q", "2", "--n", "2", "--bounds")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "T(2) = 4"
    assert lines[1] == "anchor: s=1 r=1 v=0 u=0 (degree 2, tau 4)"
    assert lines[3] == "bounds: epsilon = 0 exactly (degree sits on a family member)"
    assert lines[4] == "certificate: lower_ok=True upper_ok=True width_ok=True"


def test_tmax_bounds_degree_zero(capsys):
    code, out, _ = run(capsys, "tmax", "--q", "2", "--n", "0", "--bounds")
    assert code == 0
    assert out.splitlines()[1] == "no anchor decomposition at degree 0 (the empty product)"


def test_certify(capsys):
    code, out, err = run(capsys, "certify", "--q", "2", "--max-degree", "20")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    certs = doc["certificates"]
    assert [c["N"] for c in certs] == list(range(1, 21))
    assert all(c["lower_ok"] and c["upper_ok"] and c["width_ok"] for c in certs)
    five = certs[4]
    assert five == {
        "N": 5,
        "s": 2,
        "r": 1,
        "v": 0,
        "u": 1,
        "anchor_degree": 6,
        "anchor_tau": "18",
        "T": "12",
        "lower_ok": True,
        "upper_ok": True,
        "width_ok": True,
        "epsilon_approx": round(math.log(1.5), 12),
    }


def test_certify_validation(capsys):
    code, _, err = run(capsys, "certify", "--q", "2", "--max-degree", "0")
    assert code == 1
    assert err == "hcpoly: --max-degree must be at least 1 for certification\n"


def test_verify_table(capsys):
    code, out, err = run(capsys, "verify", "--q", "2", "--max-degree", "8")
    assert (code, err) == (0, "")
    assert out == (
        "check pattern-oracle q=2 n<=8: ok\n"
        "check unpruned-oracle q=2 n<=8: ok\n"
        "check raw-polynomial-oracle q=2 n<=8: ok\n"
        "check divisor-maximum strictly increasing: ok\n"
        "check maximizer exponent monotonicity: ok\n"
        "all checks passed\n"
    )


def test_verify_json_q3(capsys):
    code, out, _ = run(capsys, "verify", "--q", "3", "--max-degree", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    names = [c["name"] for c in doc["checks"]]
    assert names == [
        "pattern-oracle q=3 n<=6",
        "unpruned-oracle q=3 n<=6",
        "raw-polynomial-oracle q=3 n<=6",
        "divisor-maximum strictly increasing",
        "maximizer exponent monotonicity",
    ]
    assert all(c["ok"] for c in doc["checks"])
    for m in doc["maximizers"]:
        assert set(m) == {"degree", "tau", "patterns", "realizations"}
        assert isinstance(m["tau"], str) and isinstance(m["realizations"], str)
        for c in m["patterns"]:
            assert set(c) == {"class_degree", "exponents"}


def test_verify_json_q127(capsys):
    code, out, _ = run(capsys, "verify", "--q", "127", "--max-degree", "2", "--format", "json")
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["raw-polynomial-oracle q=127 n<=2"] == {
        "name": "raw-polynomial-oracle q=127 n<=2",
        "ok": True,
        "detail": "",
    }


def test_verify_fails_on_wrong_pattern_set(capsys, monkeypatch):
    # degree 3 over F_2 is maximized by t^2(t+1) and t(t+1)^2, pattern {1: (2, 1)};
    # {1: (3,)} has the same number of realizations (t^3 and (t+1)^3)
    real_table = hc_engine.hc_table

    def doctored(q, max_degree, cache_dir=None):
        records = real_table(q, max_degree, cache_dir)
        wrong = divisor_core.pattern(q, {1: [3]})
        records[3] = dataclasses.replace(records[3], patterns=(wrong,))
        return records

    monkeypatch.setattr(hc_engine, "hc_table", doctored)
    code, out, err = run(capsys, "verify", "--q", "2", "--max-degree", "6", "--format", "json")
    assert code == 2
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["raw-polynomial-oracle q=2 n<=6"] == {
        "name": "raw-polynomial-oracle q=2 n<=6",
        "ok": False,
        "detail": "pattern mismatch at degree 3",
    }
    assert err.startswith("violation: ")


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "hcpoly.cli", "pi", "--q", "2", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout == "2\n"

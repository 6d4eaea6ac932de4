import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcpoly import bounds, cli, divisor_core, hc_engine, superior
from hcpoly.cli import main
from hcpoly.irreducibles import count_irreducibles

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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_shc_prints_past_the_digit_limit(capsys):
    # the lowest limit the interpreter allows stands in for the default
    # 4,300, which shc --q 2 --s 17 --r 1 passes; tau here has 781 digits
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "shc", "--q", "2", "--s", "14", "--r", "1")
        assert sys.get_int_max_str_digits() == 640
        code_bad, _, _ = run(capsys, "shc", "--q", "2", "--s", "0", "--r", "1")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(saved)
    assert (code, err, code_bad) == (0, "", 1)
    lines = out.splitlines()
    tau = lines[3].removeprefix("tau: ")
    assert len(tau) > 640
    assert int(tau) == superior.shc_pattern(superior.SPoint(14, 1), 2).tau
    assert len(lines) == 5 + 1 + count_irreducibles(2, 14)


def test_shc_family_ceiling(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("built a refused family")

    monkeypatch.setattr(superior, "shc_pattern", never)
    monkeypatch.setattr(superior, "sshc_family", never)
    code, out, err = run(capsys, "shc", "--q", "101", "--s", "3", "--r", "1")
    assert (code, out) == (1, "")
    assert err == "hcpoly: the family at s=3 has pi(s) = 343400 members, over the ceiling of 10000\n"
    assert count_irreducibles(2, 17) <= cli._SHC_MAX_FAMILY < count_irreducibles(101, 3)


def test_shc_degree_ceiling(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("built a refused maximizer")

    monkeypatch.setattr(superior, "shc_pattern", never)
    monkeypatch.setattr(superior, "sshc_family", never)
    for r in ("200", "1000000000"):
        code, out, err = run(capsys, "shc", "--q", "2", "--s", "1", "--r", r)
        assert (code, out) == (1, "")
        assert err == f"hcpoly: the superior maximizer at s=1 r={r} passes the degree ceiling of 300000\n"
    monkeypatch.undo()
    admitted = [superior.shc_pattern(superior.SPoint(s, 1), q).degree for q, s in ((2, 17), (4, 8))]
    assert admitted == [262_900, 87_464]
    assert max(admitted) <= cli._SHC_MAX_DEGREE


@pytest.mark.parametrize(
    "argv",
    [
        ["tmax", "--q", "2", "--n", "10001"],
        ["tmax", "--q", "2", "--n", "100000", "--bounds"],
        ["certify", "--q", "2", "--max-degree", "10001"],
        ["certify", "--q", "1009", "--max-degree", "100000"],
    ],
)
def test_degree_ceiling(capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("built a refused table")

    for module, name in (
        (hc_engine, "_maxima"),
        (hc_engine, "hc_table"),
        (hc_engine, "families"),
        (bounds, "_maxima"),
        (superior, "families"),
        (bounds, "families"),
    ):
        monkeypatch.setattr(module, name, never)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"hcpoly: {argv[3]} {argv[4]} is over the ceiling of 10000\n"
    assert cli._MAX_DEGREE == 10_000


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


# (plain JSON value, the same value with some arrays as tuples or generators)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(),
    st.text(st.characters(max_codepoint=0x9F)),
).map(lambda x: (x, x))


def _arrays(items):
    plain = [p for p, _ in items]
    variant = [v for _, v in items]
    return st.sampled_from([list, tuple, lambda v: (x for x in v)]).map(
        lambda kind: (plain, kind(variant))
    )


def _objects(members):
    return ({k: p for k, (p, _) in members.items()}, {k: v for k, (_, v) in members.items()})


_KEYS = st.text() | st.text(st.characters(max_codepoint=0x9F))
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner).flatmap(_arrays) | st.dictionaries(_KEYS, inner).map(_objects),
    max_leaves=20,
)


def _written(doc) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_json(doc)
    return out.getvalue()


@settings(max_examples=150, deadline=None)
@given(_VALUES)
def test_emit_json_matches_json_dumps(pair):
    plain, variant = pair
    assert _written(variant) == json.dumps(plain, indent=2, sort_keys=True) + "\n"


def test_emit_json_streams_long_arrays(monkeypatch):
    writes = []
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append))
    cli._emit_json({"rows": ({"i": i} for i in range(5000))})
    text = json.dumps({"rows": [{"i": i} for i in range(5000)]}, indent=2, sort_keys=True) + "\n"
    assert "".join(writes) == text
    assert len(writes) > 2 and max(map(len, writes)) < len(text) / 2


def _traced_peak(*argv) -> int:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(list(argv)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_irreducibles_json_memory_like_text():
    # 5,151 rows; holding the JSON document in memory peaks at over 5x the
    # text listing, which itself holds the irreducibles
    text = _traced_peak("irreducibles", "--q", "101", "--max-degree", "2")
    streamed = _traced_peak("irreducibles", "--format", "json", "--q", "101", "--max-degree", "2")
    assert streamed <= 1.5 * text


def test_hc_table_json_memory_like_text():
    # 2,219 explicit polynomials; holding every record document in memory
    # peaks at nearly 4x the text table
    text = _traced_peak("hc-table", "--q", "2", "--max-degree", "60")
    streamed = _traced_peak("hc-table", "--format", "json", "--explicit", "--q", "2", "--max-degree", "60")
    assert streamed <= 1.5 * text


@pytest.mark.parametrize(
    "argv",
    [
        ["hc-table", "--q", "2", "--max-degree", "160"],
        ["irreducibles", "--format", "json", "--q", "101", "--max-degree", "2"],
    ],
)
def test_closed_stdout_ends_quietly(argv):
    # either output is several times larger than a pipe buffer, so the
    # writer is still writing when the reader goes
    proc = subprocess.Popen(
        [sys.executable, "-m", "hcpoly.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "Exception" not in err


@pytest.mark.parametrize("error", [MemoryError, RecursionError, KeyboardInterrupt])
def test_fatal_errors_one_line(capsys, monkeypatch, error):
    def fail(args):
        raise error()

    monkeypatch.setattr(cli, "_cmd_pi", fail)
    code, out, err = run(capsys, "pi", "--q", "2", "--n", "3")
    assert (code, out) == (1, "")
    assert err.startswith("hcpoly: ") and err.count("\n") == 1


# sha256 of stdout, pinned from the stdlib-encoder release of the CLI
_DIGESTS = {
    "hc-table --format json --q 2 --max-degree 60":
        "16645e635746a673c8cbfcc1dd8616da9532074d2102f3e5f2052d94e0a9c54c",
    "hc-table --format json --q 3 --max-degree 30 --explicit":
        "1628a00904fa25c64e5bb26942ab48c0352a98c88018c8f718d1aea47d6a1921",
    "certify --q 31 --max-degree 40":
        "168382b743dc3bade9d65bfda4cc4b8f2c192516c334ef0a385cd5f7089f73f6",
    "verify --q 3 --max-degree 6 --format json":
        "d2a0753f98b672f03385cf3779b773cef3b00dd154dc9189df0420f4bc7f1487",
    "irreducibles --format json --q 5 --max-degree 4":
        "0b341428bad49c2c2101d7ccd069368e0ed5876a4c65c0869cb116ff50e2fe3c",
    "hc-table --q 5 --max-degree 12":
        "0727d5ccfb096692467cf739d769b1a82cc15d0b670d91ec89c7e8bf23f73d2b",
    "certify --q 4 --max-degree 60":
        "89ff60291f077ae1392350f5691ef3649a06f3f79da0e4daa1a6bb7766046e22",
    "tmax --q 3 --n 100 --bounds":
        "5ba2fa89f70c0b78c9fe07b0243af9f2900a81ed54cbbecc888c07e7e2d1ac1b",
    "certify --q 2 --max-degree 320":
        "a39afccb2886084f6542646f1ab7d2b312f58c83704046d9f7b46d2f11a5fc0e",
    "tmax --q 2 --n 320 --bounds":
        "242e00f6fbf497eb19f55c2cbd7dddb09490ecc8e2bc16756c1fe1ac42c8597b",
}


@pytest.mark.parametrize("command", sorted(_DIGESTS))
def test_output_digest(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _DIGESTS[command]

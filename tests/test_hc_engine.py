import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcpoly.divisor_core import (
    brute_force_T,
    exponents_monotone,
    pattern,
    pattern_degree,
    pattern_tau,
    realization_count,
)
from hcpoly.cli import main
from hcpoly.hc_engine import (
    MARKER_NONE,
    MARKER_SHC,
    MARKER_SSHC,
    HCRecord,
    hc_table,
)
from hcpoly.irreducibles import count_irreducibles

# hand-checked divisor maximum over F_2 for degrees 0..39
_T_Q2 = [
    1, 2, 4, 6, 9, 12, 18, 24, 32, 40, 50, 64, 80, 100, 128, 160, 200, 240,
    300, 360, 432, 504, 600, 720, 864, 1008, 1200, 1440, 1728, 2016, 2400,
    2880, 3456, 4032, 4704, 5376, 6272, 7168, 8192, 9408,
]

_FRESH_Q2_N3 = hc_table(2, 3)

_SHC_DEGREES_Q2 = {2, 4, 6, 8, 14, 16, 18, 20, 32, 34, 36}
_SSHC_DEGREES_Q2 = {1, 3, 7, 11, 15, 19, 24, 28, 33}


def test_tau_row_frozen(records_q2):
    assert [r.tau for r in records_q2] == _T_Q2


def test_tau_row_matches_pattern_oracle(records_q2, oracle_q2):
    for record, oracle in zip(records_q2, oracle_q2):
        assert record.tau == oracle.tau
        assert set(record.patterns) == set(oracle.patterns)


def test_markers_frozen(records_q2):
    shc = {r.degree for r in records_q2 if r.marker == MARKER_SHC}
    sshc = {r.degree for r in records_q2 if r.marker == MARKER_SSHC}
    assert shc == _SHC_DEGREES_Q2
    assert sshc == _SSHC_DEGREES_Q2
    assert all(
        r.marker == MARKER_NONE
        for r in records_q2
        if r.degree not in shc and r.degree not in sshc
    )


def test_record_shape(records_q2):
    for record in records_q2:
        assert record.patterns, f"degree {record.degree} has no patterns"
        for p in record.patterns:
            assert pattern_degree(p) == record.degree
            assert pattern_tau(p) == record.tau
            assert exponents_monotone(p)
        assert record.total_polynomials == sum(
            realization_count(p) for p in record.patterns
        )


def test_degree_zero_and_one(records_q2):
    assert records_q2[0] == HCRecord(0, 1, (pattern(2, {}),), 1, MARKER_NONE)
    assert records_q2[1].tau == 2
    assert records_q2[1].patterns == (pattern(2, {1: [1]}),)
    assert records_q2[1].total_polynomials == 2  # t and t+1
    assert records_q2[1].marker == MARKER_SSHC


def test_degree_39_split_maximum(records_q2):
    record = records_q2[39]
    assert record.tau == 9408
    assert len(record.patterns) == 2
    assert record.total_polynomials == 8


def test_strictly_increasing(records_q2, records_q3):
    for records in (records_q2, records_q3):
        for a, b in zip(records, records[1:]):
            assert a.tau < b.tau


def test_q3_against_oracle(records_q3):
    oracle = brute_force_T(3, 25)
    assert [r.tau for r in records_q3] == [o.tau for o in oracle]
    for record, o in zip(records_q3, oracle):
        assert set(record.patterns) == set(o.patterns)


@pytest.mark.parametrize("q,max_degree", [(2, 24), (3, 20), (4, 16), (5, 16)])
def test_engine_matches_unpruned_oracle(q, max_degree):
    # the unpruned walk visits every pattern, so it does not lean on the
    # exponent monotonicity that the engine and the pruned walk share
    oracle = brute_force_T(q, max_degree, prune=False)
    records = hc_table(q, max_degree)
    assert [r.tau for r in records] == [o.tau for o in oracle]
    for record, o in zip(records, oracle):
        assert set(record.patterns) == set(o.patterns)


def _padded_vector(p):
    """The full exponent vector of p: classes 1..max, each zero-padded to
    its irreducible count."""
    classes = dict(p.classes)
    flat = []
    for k in range(1, max(classes, default=0) + 1):
        exponents = classes.get(k, ())
        flat.extend(exponents + (0,) * (count_irreducibles(p.q, k) - len(exponents)))
    return tuple(flat)


def _multinomial_count(p):
    """realization_count by the multinomial of each padded class vector."""
    total = 1
    for k, exponents in p.classes:
        vec = exponents + (0,) * (count_irreducibles(p.q, k) - len(exponents))
        ways = math.factorial(len(vec))
        for value in set(vec):
            ways //= math.factorial(vec.count(value))
        total *= ways
    return total


def test_pattern_order_is_canonical(records_q2):
    # descending lexicographic on the zero-padded full exponent vectors
    record = records_q2[39]
    keys = [_padded_vector(p) for p in record.patterns]
    assert keys == sorted(keys, reverse=True)


@pytest.mark.parametrize("q,max_degree", [(2, 160), (3, 80), (31, 80), (101, 130)])
def test_engine_order_and_counts_against_padded_vectors(q, max_degree):
    # the engine emits patterns unsorted and counts realizations without
    # padding; both must agree with the padded-vector definitions
    for record in hc_table(q, max_degree):
        vectors = [_padded_vector(p) for p in record.patterns]
        assert vectors == sorted(set(vectors), reverse=True), record.degree
        for p in record.patterns:
            assert realization_count(p) == _multinomial_count(p)


def test_validation():
    with pytest.raises(ValueError):
        hc_table(6, 5)
    with pytest.raises(ValueError):
        hc_table(2, -1)


def test_cache_roundtrip(tmp_path, records_q2):
    first = hc_table(2, 12, cache_dir=tmp_path)
    path = tmp_path / "hc_table_q2_n12_v1.json"
    assert path.exists()
    text = path.read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    second = hc_table(2, 12, cache_dir=tmp_path)
    assert second == first
    assert [r.tau for r in first] == [r.tau for r in records_q2[:13]]


def test_cache_big_integers_are_strings(tmp_path):
    hc_table(2, 12, cache_dir=tmp_path)
    doc = json.loads((tmp_path / "hc_table_q2_n12_v1.json").read_text())
    assert doc["format_version"] == 1
    assert doc["q"] == 2 and doc["max_degree"] == 12
    for rec in doc["records"]:
        assert isinstance(rec["tau"], str)
        assert isinstance(rec["total_polynomials"], str)
        for p in rec["patterns"]:
            assert isinstance(p["realizations"], str)
            for c in p["classes"]:
                assert set(c) == {"class_degree", "exponents"}


def test_corrupt_cache_recomputed(tmp_path):
    path = tmp_path / "hc_table_q2_n8_v1.json"
    path.write_text("{not json")
    records = hc_table(2, 8, cache_dir=tmp_path)
    assert [r.tau for r in records] == _T_Q2[:9]
    # the bad file was replaced by a valid one
    assert json.loads(path.read_text())["q"] == 2


def test_mismatched_cache_recomputed(tmp_path):
    hc_table(2, 8, cache_dir=tmp_path)
    path = tmp_path / "hc_table_q2_n8_v1.json"
    doc = json.loads(path.read_text())
    doc["max_degree"] = 7
    path.write_text(json.dumps(doc))
    records = hc_table(2, 8, cache_dir=tmp_path)
    assert [r.degree for r in records] == list(range(9))


def test_truncated_cache_recomputed(tmp_path):
    hc_table(2, 8, cache_dir=tmp_path)
    path = tmp_path / "hc_table_q2_n8_v1.json"
    doc = json.loads(path.read_text())
    doc["records"] = doc["records"][:-1]
    path.write_text(json.dumps(doc))
    records = hc_table(2, 8, cache_dir=tmp_path)
    assert len(records) == 9
    assert records[-1].tau == _T_Q2[8]


def test_malformed_cache_recomputed(tmp_path):
    fresh = hc_table(2, 8)
    path = tmp_path / "hc_table_q2_n8_v1.json"
    header = {"format_version": 1, "q": 2, "max_degree": 8}
    for doc in ([], {"records": 5}, {**header, "records": 5}, {**header, "records": [[]] * 9}):
        path.write_text(json.dumps(doc))
        assert hc_table(2, 8, cache_dir=tmp_path) == fresh
        assert json.loads(path.read_text())["q"] == 2
    path.write_bytes(b"\xff\xfe not utf-8")
    assert hc_table(2, 8, cache_dir=tmp_path) == fresh


def test_edited_cache_recomputed(tmp_path):
    fresh = hc_table(2, 5)
    path = tmp_path / "hc_table_q2_n5_v1.json"
    hc_table(2, 5, cache_dir=tmp_path)
    text = path.read_text()
    assert text.count('"tau": "12"') == 1
    path.write_text(text.replace('"tau": "12"', '"tau": "13"'))
    assert hc_table(2, 5, cache_dir=tmp_path) == fresh
    assert path.read_text() == text

    def first_class(record):
        return record["patterns"][0]["classes"][0]

    def double_patterns(record):
        # every count still re-derives, but a pattern is listed twice
        record.update(
            patterns=record["patterns"] * 2,
            total_polynomials=str(2 * int(record["total_polynomials"])),
        )

    edits = [
        (5, lambda record: record.update(total_polynomials="5")),
        (5, lambda record: record.update(marker="bogus")),
        (5, lambda record: record.update(marker="SHC")),
        (5, lambda record: record.update(marker="SSHC")),
        (5, lambda record: record.update(patterns=[])),
        (5, lambda record: first_class(record)["exponents"].__setitem__(0, 3.0)),
        (5, lambda record: first_class(record).update(class_degree=True)),
        (5, lambda record: first_class(record).update(class_degree=10**6)),
        (5, lambda record: record["patterns"].reverse()),
        (4, double_patterns),
    ]
    for degree, edit in edits:
        doc = json.loads(text)
        edit(doc["records"][degree])
        path.write_text(json.dumps(doc))
        assert hc_table(2, 5, cache_dir=tmp_path) == fresh
        assert path.read_text() == text  # rejected and written afresh


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=12,
)
_CACHE_TEXT = st.one_of(
    _JSON.map(json.dumps),
    _JSON.map(lambda records: json.dumps({"format_version": 1, "q": 2, "max_degree": 3, "records": records})),
    st.lists(_JSON, min_size=4, max_size=4).map(
        lambda records: json.dumps({"format_version": 1, "q": 2, "max_degree": 3, "records": records})
    ),
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_CACHE_TEXT.map(str.encode), st.binary()))
def test_arbitrary_cache_file_gives_fresh_table(content):
    with tempfile.TemporaryDirectory() as cache_dir:
        (Path(cache_dir) / "hc_table_q2_n3_v1.json").write_bytes(content)
        assert hc_table(2, 3, cache_dir=cache_dir) == _FRESH_Q2_N3


def test_cache_preserves_markers(tmp_path):
    fresh = hc_table(2, 20, cache_dir=tmp_path)
    cached = hc_table(2, 20, cache_dir=tmp_path)
    assert [r.marker for r in cached] == [r.marker for r in fresh]
    assert fresh[14].marker == MARKER_SHC
    assert fresh[11].marker == MARKER_SSHC


def test_cache_file_is_one_line(tmp_path):
    hc_table(3, 10, cache_dir=tmp_path)
    text = (tmp_path / "hc_table_q3_n10_v1.json").read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


def _indent_cache_file(path):
    """Rewrite a cache file in the indented layout of earlier releases."""
    text = json.dumps(json.loads(path.read_text()), indent=2, sort_keys=True) + "\n"
    path.write_text(text)
    return text


def test_indented_cache_file_is_a_hit(tmp_path):
    fresh = hc_table(2, 20)
    hc_table(2, 20, cache_dir=tmp_path)
    path = tmp_path / "hc_table_q2_n20_v1.json"
    indented = _indent_cache_file(path)
    assert indented.count("\n") > 100
    assert hc_table(2, 20, cache_dir=tmp_path) == fresh
    assert path.read_text() == indented  # read as it is, not written afresh


@pytest.mark.parametrize("indented", [False, True])
def test_cli_cache_hit_prints_uncached_bytes(tmp_path, capsys, indented):
    argv = ["hc-table", "--format", "json", "--q", "3", "--max-degree", "12"]
    assert main(argv) == 0
    uncached = capsys.readouterr().out
    assert main(argv + ["--cache", str(tmp_path)]) == 0  # a miss
    assert capsys.readouterr().out == uncached
    path = tmp_path / "hc_table_q3_n12_v1.json"
    if indented:
        _indent_cache_file(path)
    before = path.read_text()
    assert main(argv + ["--cache", str(tmp_path)]) == 0  # a hit
    assert capsys.readouterr().out == uncached
    assert path.read_text() == before


def test_q4_and_q5_smoke():
    for q in (4, 5):
        records = hc_table(q, 8)
        oracle = brute_force_T(q, 8)
        assert [r.tau for r in records] == [o.tau for o in oracle]
        for record, o in zip(records, oracle):
            assert set(record.patterns) == set(o.patterns)

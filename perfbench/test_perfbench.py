"""Tests of the benchmark's reference mathematics, output checks, tracer and speed scaling.

    python3 -m pytest perfbench

Every check must pass on genuine hcpoly output and fail on a doctored copy.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import speed  # noqa: E402
from run import Runner  # noqa: E402
from tracer import CLI_SPAN, Tracer  # noqa: E402
from workloads import PUBLISHED_TABLE, CacheMix, Op  # noqa: E402

import hcpoly  # noqa: E402
from hcpoly.cli import main  # noqa: E402


def run(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def table_q2() -> str:
    return run("hc-table", "--format", "json", "--q", "2", "--max-degree", "40")


@pytest.fixture(scope="module")
def text_q2() -> str:
    return run("hc-table", "--q", "2", "--max-degree", "40")


@pytest.fixture(scope="module")
def certify_q2() -> str:
    return run("certify", "--q", "2", "--max-degree", "40")


@pytest.fixture(scope="module")
def published() -> list[str]:
    return (HERE.parent / PUBLISHED_TABLE).read_text().splitlines()


# -- reference mathematics -------------------------------------------------


def test_necklace_counts():
    assert [ref.count_irreducibles(2, k) for k in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]
    assert [ref.count_irreducibles(3, k) for k in range(1, 5)] == [3, 3, 8, 18]
    assert ref.count_irreducibles(101, 2) == 5050


def test_superior_exponent_matches_its_definition():
    for s in range(1, 5):
        for r in range(1, 8):
            for k in range(1, 12):
                holds = [m for m in range(200) if (r + 1) ** k * m**s <= r**k * (m + 1) ** s]
                assert ref.superior_exponent(s, r, k) == max(holds)


def test_superior_maximizer_closed_form():
    h = next(h for h in ref.superior_points(2, 40) if (h.s, h.r) == (3, 1))
    assert (h.exponents, h.degree, h.tau) == ((3, 1, 1), 14, 128)


@pytest.mark.parametrize("q, n", [(2, 10), (3, 6), (5, 4)])
def test_knapsack_agrees_with_exhaustive_scan(q, n):
    maxima = ref.divisor_maxima(q, n)
    assert ref.exhaustive_maxima(q, n) == tuple(zip(maxima.T, maxima.count))


def test_known_maximum():
    maxima = ref.divisor_maxima(2, 39)
    assert (maxima.T[39], maxima.count[39]) == (9408, 8)


# -- checks pass on genuine output -----------------------------------------


def test_checks_pass_on_program_output(table_q2, text_q2, certify_q2, published):
    T = checks.check_table_json(table_q2, 2, 40)
    checks.check_table_json(run("hc-table", "--format", "json", "--q", "3", "--max-degree", "20"), 3, 20)
    checks.check_table_json(run("hc-table", "--format", "json", "--q", "7", "--max-degree", "30"), 7, 30)
    checks.check_table_json(run("hc-table", "--format", "json", "--q", "101", "--max-degree", "40"), 101, 40)
    checks.check_certify_json(run("certify", "--q", "31", "--max-degree", "40"), 31, 40)
    checks.check_table_text(text_q2, 2, 40, published)
    checks.check_certify_json(certify_q2, 2, 40, T)
    checks.check_tmax(run("tmax", "--q", "2", "--n", "17", "--bounds"), 2, 17)
    checks.check_verify(run("verify", "--q", "2", "--max-degree", "8"))


# -- checks fail on doctored output ----------------------------------------


def doctored_table(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc["records"])
    return dump(doc)


def test_tau_off_by_one_fails(table_q2):
    def edit(records):
        records[30]["tau"] = str(int(records[30]["tau"]) + 1)

    with pytest.raises(checks.CheckFailed):
        checks.check_table_json(doctored_table(table_q2, edit), 2, 40)


def test_missing_maximizer_fails(table_q2):
    def drop(records):
        record = next(r for r in records if len(r["patterns"]) > 1)
        record["patterns"].pop()

    def drop_and_recount(records):
        record = next(r for r in records if len(r["patterns"]) > 1)
        gone = record["patterns"].pop()
        record["total_polynomials"] = str(int(record["total_polynomials"]) - int(gone["realizations"]))

    for edit in (drop, drop_and_recount):
        with pytest.raises(checks.CheckFailed):
            checks.check_table_json(doctored_table(table_q2, edit), 2, 40)


def test_flipped_marker_fails(table_q2):
    def unmark(records):
        record = next(r for r in records if r["marker"] == "SHC")
        record["marker"] = "none"

    def mark(records):
        record = next(r for r in records if r["marker"] == "none" and r["degree"] > 0)
        record["marker"] = "SSHC"

    for edit in (unmark, mark):
        with pytest.raises(checks.CheckFailed):
            checks.check_table_json(doctored_table(table_q2, edit), 2, 40)


def test_cache_hit_with_other_bytes_fails(table_q2, tmp_path):
    miss = Op("cached table q=2 N=40", lambda out, ctx: checks.check_table_json(out, 2, 40))
    for hit in (table_q2, table_q2.replace('"SHC"', '"SSHC"', 1), table_q2 + "\n", table_q2[:-1]):
        runner = Runner(CacheMix(), hcpoly, main, tmp_path, 0)
        (tmp_path / "miss.out").write_text(table_q2)
        runner.check(miss, tmp_path / "miss.out")  # the first output of the label is checked in full
        assert runner.correct
        (tmp_path / "hit.out").write_text(hit)
        runner.check(miss, tmp_path / "hit.out")  # a later one must repeat it byte for byte
        assert runner.correct == (hit == table_q2)


def test_doctored_text_table_fails(text_q2, published):
    lines = text_q2.split("\n")
    missing_row = "\n".join(lines[:50] + lines[51:])
    flipped = text_q2.replace("\n**", "\n", 1)
    off_by_one = text_q2.replace("\t9408\n", "\t9409\n", 1)
    for text in (missing_row, flipped, off_by_one):
        for paper_rows in (published, None):
            with pytest.raises(checks.CheckFailed):
                checks.check_table_text(text, 2, 40, paper_rows)


def test_doctored_certificate_fails(certify_q2):
    def edited(edit) -> str:
        doc = json.loads(certify_q2)
        edit(doc["certificates"][20])
        return dump(doc)

    edits = [
        lambda c: c.update(T=str(int(c["T"]) - 1)),
        lambda c: c.update(anchor_tau=str(int(c["anchor_tau"]) + 1)),
        lambda c: c.update(u=c["u"] + 1),
        lambda c: c.update(lower_ok=False),
    ]
    for edit in edits:
        with pytest.raises(checks.CheckFailed):
            checks.check_certify_json(edited(edit), 2, 40)


def test_doctored_tmax_and_verify_fail():
    tmax = run("tmax", "--q", "2", "--n", "17", "--bounds")
    with pytest.raises(checks.CheckFailed):
        checks.check_tmax(tmax.replace("T(17) = 240", "T(17) = 241"), 2, 17)
    verify = run("verify", "--q", "2", "--max-degree", "8")
    with pytest.raises(checks.CheckFailed):
        checks.check_verify(verify.replace(": ok", ": FAILED", 1))


# -- workloads and tracer --------------------------------------------------


def test_cache_mix_plans_one_miss_per_key(tmp_path):
    # a key's first request in a round is its only miss: every key is requested
    # its planned number of times, from the one cache directory of the round
    orders = set()
    for seed in range(5):
        ops = CacheMix().plan(random.Random(seed), tmp_path)
        labels = [op.label for op in ops]
        assert Counter(labels) == {f"cached table q={q} N={N}": count for (q, N), count in CacheMix.REQUESTS.items()}
        assert all(op.argv[-2:] == ("--cache", str(tmp_path)) for op in ops)
        orders.add(tuple(labels))
    assert len(orders) > 1
    # unshuffled, the keys come in turn: the misses first, then the hits
    first = [op.label for op in CacheMix().plan(None, tmp_path)]
    assert len(set(first[:4])) == 4 and Counter(first) == Counter(labels)


def test_tracer_counts_cache_hits_and_restores(tmp_path):
    original = hcpoly.hc_table
    tracer = Tracer(hcpoly)
    tracer.install()
    try:
        for _ in range(2):
            span = tracer.open(CLI_SPAN)
            output = run("hc-table", "--format", "json", "--q", "2", "--max-degree", "20", "--cache", str(tmp_path))
            tracer.close(span)
        metrics = tracer.reduce(2 * len(output))
    finally:
        tracer.uninstall()
    assert hcpoly.hc_table is original
    assert metrics["hc_engine.cache_misses"] == 1 and metrics["hc_engine.cache_hits"] == 1
    assert metrics["hc_engine.cache_hit_ratio"] == 0.5
    assert metrics["hc_engine.records"] == 42
    assert metrics["hc_engine.cache_bytes"] > 0 and metrics["superior.points_walked"] > 0
    assert 0 < metrics["cli.self_s"]


def test_missing_functions_leave_their_metrics_out():
    metrics = Tracer(types.ModuleType("emptypackage")).reduce(0)
    assert set(metrics) == {"cli.self_s", "cli.stdout_bytes"}


# -- speed scaling ---------------------------------------------------------


def test_sampler_takes_its_probes_out_of_the_time():
    def busy() -> int:
        return sum(i * i for i in range(300_000))

    sampler = speed.SpeedSampler()
    result, timing = sampler.time(busy)
    assert result == busy()
    assert 0 < timing.own_wall < timing.wall and timing.own_cpu < timing.wall
    # the probes that ran inside the call: at least one per sampling period of its CPU time
    assert timing.wall - timing.own_wall >= speed.timed_probes(1)[0] / 10
    assert timing.scaled_wall == pytest.approx(timing.own_wall * speed.REFERENCE_PROBE_S / timing.probe_mean)


def test_scaling_follows_the_probe_time():
    slow = speed.Timing(wall=2.2, own_wall=2.0, own_cpu=1.9, probe_mean=2 * speed.REFERENCE_PROBE_S)
    assert slow.scaled_wall == pytest.approx(1.0) and slow.scaled_cpu == pytest.approx(0.95)
    assert speed.scaled(3.0, [speed.REFERENCE_PROBE_S / 2] * 4) == pytest.approx(6.0)

import json
import math
import random
import resource
import subprocess
import sys

import pytest

from hcpoly.bounds import (
    LogBound,
    _anchor,
    _bracket,
    _certificate,
    epsilon_bounds,
    locate_anchor,
    verify_T_bounds,
)
from hcpoly.hc_engine import MARKER_NONE
from hcpoly.irreducibles import count_irreducibles
from hcpoly.superior import SPoint, exponent_at, families, iter_spoints, shc_pattern


def test_logbound_approx():
    b = LogBound(3, 2, 1, 1)
    assert b.approx() == pytest.approx(math.log(1.5))
    half = LogBound(9, 4, 1, 2)
    assert half.approx() == pytest.approx(math.log(1.5))


def test_logbound_exact_comparison():
    # (1/2) log(9/4) equals log(3/2) exactly; both directions must hold
    a = LogBound(9, 4, 1, 2)
    b = LogBound(3, 2, 1, 1)
    assert a <= b
    assert b <= a
    assert LogBound(4, 3, 1, 1) <= b
    assert not (b <= LogBound(4, 3, 1, 1))
    # a case where floats would waver: log(1000001/1000000) vs tiny scale
    tight = LogBound(1000001, 1000000, 1, 1)
    assert LogBound(1, 1, 1, 1) <= tight
    assert not (tight <= LogBound(1, 1, 1, 1))


def test_locate_anchor_examples():
    assert locate_anchor(2, 2) == (SPoint(1, 1), 0, 0)
    assert locate_anchor(2, 5) == (SPoint(2, 1), 0, 1)
    assert locate_anchor(2, 7) == (SPoint(1, 3), 1, 0)
    assert locate_anchor(2, 9) == (SPoint(3, 1), 1, 2)
    assert locate_anchor(2, 13) == (SPoint(3, 1), 0, 1)


def test_locate_anchor_resubstitutes():
    for q in (2, 3, 4, 5):
        for n in range(1, 41):
            point, v, u = locate_anchor(q, n)
            h = shc_pattern(point, q)
            assert h.degree - v * point.s - u == n
            assert 0 <= u < point.s
            assert 0 <= v


def _scanned_anchor(q, N):
    """(point, v, u) by walking the grid from (1, 1) to the first superior
    degree >= N; no bisection and no family walk."""
    for point in iter_spoints():
        h = shc_pattern(point, q)
        if h.degree >= N:
            v, u = divmod(h.degree - N, point.s)
            assert 0 <= v < count_irreducibles(q, point.s)
            return point, v, u


@pytest.mark.parametrize("q", [2, 3, 4, 5, 31])
def test_locate_anchor_matches_scan(q):
    for n in range(1, 201):
        assert locate_anchor(q, n) == _scanned_anchor(q, n), n


def test_locate_anchor_validation():
    with pytest.raises(ValueError):
        locate_anchor(2, 0)
    with pytest.raises(ValueError):
        locate_anchor(6, 5)


def test_epsilon_bounds_values():
    lower, upper = epsilon_bounds(SPoint(3, 1), 2, 2)
    assert (lower.num, lower.den, lower.scale_num, lower.scale_den) == (2, 1, 2, 3)
    a_2 = exponent_at(SPoint(3, 1), 2, 2)
    assert (upper.num, upper.den) == (a_2 + 1, a_2)
    assert lower <= upper


def test_epsilon_bounds_validation():
    with pytest.raises(ValueError):
        epsilon_bounds(SPoint(1, 1), 2, 1)  # u < s impossible at s = 1
    with pytest.raises(ValueError):
        epsilon_bounds(SPoint(3, 1), 2, 0)
    with pytest.raises(ValueError):
        epsilon_bounds(SPoint(3, 1), 2, 3)


def test_bracket_width_at_most_log_4_3():
    for s in range(2, 8):
        for r in range(1, 6):
            for u in range(1, s):
                lower, upper = epsilon_bounds(SPoint(s, r), 2, u)
                assert lower <= upper
                # upper - lower <= log(4/3), checked via the integer form
                a_u = upper.den
                assert (3 * (a_u + 1)) ** s * r**u <= (4 * a_u) ** s * (r + 1) ** u
                assert upper.approx() - lower.approx() <= math.log(4 / 3) + 1e-12


def test_logbound_verdicts_match_inline_formulas():
    # the certificate's three LogBound verdicts against the cross-multiplied
    # integer forms they stand for, on random inputs that often fail
    rng = random.Random(20261019)
    outcomes = set()
    for _ in range(3000):
        r, a_u, T, tau = (rng.randint(1, 12) for _ in range(4))
        s = rng.randint(2, 6)
        u = rng.randint(1, s - 1)
        lower = LogBound(r + 1, r, u, s)
        upper = LogBound(a_u + 1, a_u, 1, 1)
        eps = LogBound(tau, T, 1, 1)
        verdicts = (
            lower <= eps,
            eps <= upper,
            LogBound(3 * (a_u + 1), 4 * a_u, 1, 1) <= lower,
        )
        assert verdicts == (
            (r + 1) ** u * T**s <= r**u * tau**s,
            tau * a_u <= T * (a_u + 1),
            (3 * (a_u + 1)) ** s * r**u <= (4 * a_u) ** s * (r + 1) ** u,
        )
        outcomes.update(enumerate(verdicts))
    assert outcomes == {(i, ok) for i in range(3) for ok in (False, True)}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_not_too_sparse_family_far_past_tables(q):
    # every degree up to 20,000 has an anchor on a family member, and the
    # bracket around it is at most log(4/3) wide; neither depends on T
    walk = families(q, 20000)
    for N in range(1, 20001):
        top, _, u = _anchor(walk, N)
        if u:
            lower, upper = _bracket(top.point, u)
            assert LogBound(3 * upper.num, 4 * upper.den, 1, 1) <= lower, N


def test_certificate_verdicts_on_wrong_T():
    walk = families(2, 8)
    # N = 6 lands on the family member of degree 6 and tau 18 (u = 0), so
    # eps must be exactly 0; N = 5 has u = 1, and T = 12 attains the upper
    # bound log(3/2) while 13 breaks the lower bound (1/2) log 2
    verdicts = {
        (N, T): (c.lower_ok, c.upper_ok, c.width_ok)
        for N, T in [(6, 17), (6, 18), (6, 19), (5, 11), (5, 12), (5, 13)]
        for c in [_certificate(walk, N, T)]
    }
    assert verdicts == {
        (6, 17): (True, False, True),
        (6, 18): (True, True, True),
        (6, 19): (False, True, True),
        (5, 11): (True, False, True),
        (5, 12): (True, True, True),
        (5, 13): (False, True, True),
    }


def test_certificates_all_hold_q2(records_q2):
    certs = verify_T_bounds(2, 39, records_q2)
    assert len(certs) == 39
    assert all(c.ok for c in certs)


def test_certificates_all_hold_q3(records_q3):
    certs = verify_T_bounds(3, 25, records_q3)
    assert all(c.ok for c in certs)


def test_exact_degrees_are_marked_degrees(records_q2):
    certs = verify_T_bounds(2, 39, records_q2)
    exact = {c.N for c in certs if c.u == 0}
    marked = {r.degree for r in records_q2 if r.degree >= 1 and r.marker != MARKER_NONE}
    assert exact == marked
    for c in certs:
        if c.u == 0:
            assert c.anchor_degree == c.N and c.anchor_tau == c.T
            assert c.epsilon_approx() == pytest.approx(0.0)


def test_equality_case_at_degree_five(records_q2):
    cert = verify_T_bounds(2, 5, records_q2[:6])[-1]
    assert cert.point == SPoint(2, 1)
    assert (cert.v, cert.u) == (0, 1)
    assert cert.anchor_degree == 6 and cert.anchor_tau == 18 and cert.T == 12
    # the upper bound is attained: tau(h) * a_u == T * (a_u + 1)
    a_u = exponent_at(cert.point, 2, cert.u)
    assert cert.anchor_tau * a_u == cert.T * (a_u + 1)
    assert cert.epsilon_approx() == pytest.approx(math.log(1.5))


def test_epsilon_sits_inside_bracket(records_q2):
    for cert in verify_T_bounds(2, 39, records_q2):
        if cert.u == 0:
            continue
        lower, upper = epsilon_bounds(cert.point, 2, cert.u)
        eps = cert.epsilon_approx()
        assert lower.approx() - 1e-9 <= eps <= upper.approx() + 1e-9


def test_verify_builds_table_when_missing(records_q2):
    certs = verify_T_bounds(2, 10)
    assert len(certs) == 10
    assert all(c.ok for c in certs)
    assert certs == verify_T_bounds(2, 10, records_q2[:11])


@pytest.mark.parametrize("q,max_degree", [(2, 1280), (3, 640), (3, 1280)])
def test_certificates_hold_far_out(q, max_degree):
    """Every certificate holds far past the tables, and the family members
    are exact witnesses of T.

    The u = 0 degrees are exactly the members' degrees, and there a
    certificate holds only if T equals the member's tau, a closed form
    that shares nothing with the knapsack.  What this cannot catch is a
    wrong T strictly between member degrees that stays inside the
    log(4/3) bracket.
    """
    certs = verify_T_bounds(q, max_degree)
    assert [c.N for c in certs] == list(range(1, max_degree + 1))
    assert all(c.ok for c in certs)
    members = {
        top.degree - v * top.point.s
        for top in families(q, max_degree)
        for v in range(top.pi_s + 1)
    }
    exact = [c for c in certs if c.u == 0]
    assert {c.N for c in exact} == members & set(range(1, max_degree + 1))
    assert all(c.T == c.anchor_tau for c in exact)


def _limited(*args: str) -> subprocess.CompletedProcess:
    """python3 args in a new process whose address space is capped at 2 GiB."""

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))

    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, preexec_fn=cap
    )


def test_certify_large_q_within_memory():
    # the (2, 1) family over F_1009 has 508,536 members of about 510k bits
    # each, about 32 GB if the walk held them
    out = _limited("-m", "hcpoly.cli", "certify", "--q", "1009", "--max-degree", "2019")
    assert (out.returncode, out.stderr) == (0, "")
    certs = json.loads(out.stdout)["certificates"]
    assert len(certs) == 2019
    assert all(c["lower_ok"] and c["upper_ok"] and c["width_ok"] for c in certs)


def test_anchor_memory_at_large_q():
    # the anchor of N = 10,000 over F_1009 is the (2, 1) family's member
    # v = 504,545, built from the family's bottom; measured in a capped
    # process, so that a walk holding members fails instead of filling memory
    code = """
import tracemalloc
from hcpoly.bounds import _anchor
from hcpoly.superior import families
tracemalloc.start()
top, v, u = _anchor(families(1009, 10000), 10000)
degree, _ = top.member(v)
print(top.point.s, top.point.r, v, u, degree, tracemalloc.get_traced_memory()[1])
"""
    out = _limited("-c", code)
    assert (out.returncode, out.stderr) == (0, "")
    *anchor, peak = map(int, out.stdout.split())
    assert anchor == [2, 1, 504_545, 0, 10_000]
    assert peak < 4 * 2**20


def test_verify_validation():
    with pytest.raises(ValueError):
        verify_T_bounds(6, 5)
    with pytest.raises(ValueError):
        verify_T_bounds(2, -1)

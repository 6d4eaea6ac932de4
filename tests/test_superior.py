import tracemalloc
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hcpoly import superior
from hcpoly.bounds import _certificate, locate_anchor
from hcpoly.hc_engine import MARKER_NONE, _marker_degrees, hc_table
from hcpoly.superior import (
    SPoint,
    enumerate_spoints,
    exponent_at,
    families,
    iter_spoints,
    shc_pattern,
    spoint_compare,
    sshc_family,
    verify_pair_uniqueness,
)

# hand-checked: the twelve smallest grid points in increasing x order
_FIRST_TWELVE = [
    (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4),
    (2, 2), (1, 5), (4, 1), (1, 6), (2, 3), (5, 1),
]

# hand-checked superior data over F_2: (s, r) -> (exponents, degree, tau)
_SHC_Q2 = {
    (1, 1): ((1,), 2, 4),
    (1, 2): ((2,), 4, 9),
    (2, 1): ((2, 1), 6, 18),
    (1, 3): ((3, 1), 8, 32),
    (3, 1): ((3, 1, 1), 14, 128),
    (1, 4): ((4, 1, 1), 16, 200),
    (2, 2): ((4, 2, 1), 18, 300),
    (1, 5): ((5, 2, 1), 20, 432),
    (4, 1): ((5, 2, 1, 1), 32, 3456),
    (1, 6): ((6, 2, 1, 1), 34, 4704),
    (2, 3): ((6, 3, 1, 1), 36, 6272),
}


def test_spoint_validation():
    with pytest.raises(ValueError):
        SPoint(0, 1)
    with pytest.raises(ValueError):
        SPoint(1, 0)


def test_spoint_compare_example():
    assert spoint_compare(SPoint(1, 2), SPoint(2, 1)) == -1  # 2*4 = 8 < 9 = 9*1
    assert spoint_compare(SPoint(2, 1), SPoint(1, 2)) == 1
    assert spoint_compare(SPoint(3, 4), SPoint(3, 4)) == 0
    assert SPoint(1, 2) < SPoint(2, 1) < SPoint(1, 3)


def test_enumerate_spoints_frozen():
    points = enumerate_spoints(12)
    assert [(p.s, p.r) for p in points] == _FIRST_TWELVE
    assert enumerate_spoints(0) == []
    with pytest.raises(ValueError):
        enumerate_spoints(-1)


def test_enumeration_is_sorted_and_stable():
    points = enumerate_spoints(60)
    for a, b in zip(points, points[1:]):
        assert spoint_compare(a, b) == -1
    assert points[:12] == enumerate_spoints(12)


@given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30), st.integers(1, 30))
def test_compare_antisymmetric(sa, ra, sb, rb):
    a, b = SPoint(sa, ra), SPoint(sb, rb)
    assert spoint_compare(a, b) == -spoint_compare(b, a)
    if (sa, ra) == (sb, rb):
        assert spoint_compare(a, b) == 0


@given(
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
)
def test_compare_transitive(ta, tb, tc):
    a, b, c = SPoint(*ta), SPoint(*tb), SPoint(*tc)
    if spoint_compare(a, b) <= 0 and spoint_compare(b, c) <= 0:
        assert spoint_compare(a, c) <= 0


def test_exponent_at_values():
    assert exponent_at(SPoint(1, 1), 2, 1) == 1
    assert exponent_at(SPoint(1, 1), 2, 2) == 0
    assert exponent_at(SPoint(2, 2), 2, 1) == 4
    assert exponent_at(SPoint(2, 3), 2, 1) == 6
    # at k = s the exponent is exactly r
    for s, r in _FIRST_TWELVE:
        assert exponent_at(SPoint(s, r), 2, s) == r


@given(
    st.tuples(st.integers(1, 10), st.integers(1, 10)),
    st.integers(1, 12),
    st.sampled_from([2, 3, 4, 5]),
)
def test_exponent_at_field_independent(point, k, q):
    base = exponent_at(SPoint(*point), 2, k)
    assert exponent_at(SPoint(*point), q, k) == base


def test_exponent_at_validation():
    with pytest.raises(ValueError):
        exponent_at(SPoint(1, 1), 6, 1)
    with pytest.raises(ValueError):
        exponent_at(SPoint(1, 1), 2, 0)


def test_shc_pattern_frozen_table():
    for (s, r), (exponents, degree, tau) in _SHC_Q2.items():
        h = shc_pattern(SPoint(s, r), 2)
        assert h.exponents == exponents
        assert h.degree == degree
        assert h.tau == tau


def test_shc_exponents_non_increasing():
    for point in enumerate_spoints(20):
        h = shc_pattern(point, 3)
        assert all(a >= b for a, b in zip(h.exponents, h.exponents[1:]))
        assert h.exponents[-1] >= 1


def test_sshc_family_structure():
    fam = sshc_family(SPoint(3, 1), 2)
    assert [(e.v, e.degree, e.tau, e.multiplicity) for e in fam] == [
        (0, 14, 128, 1),
        (1, 11, 64, 2),
        (2, 8, 32, 1),
    ]
    assert sum(e.multiplicity for e in fam) == 2 ** 2
    # the stepwise family against its closed form, over a 31-member class
    for point, q in ((SPoint(1, 2), 31), (SPoint(2, 1), 7)):
        h = shc_pattern(point, q)
        fam = sshc_family(point, q)
        pi_s = len(fam) - 1
        r = point.r
        assert [(e.tau, e.multiplicity) for e in fam] == [
            (h.tau * r**v // (r + 1) ** v, comb(pi_s, v)) for v in range(pi_s + 1)
        ]


def test_family_telescopes_to_predecessor():
    points = enumerate_spoints(10)
    prev_degree, prev_tau = 0, 1  # the empty product
    for point in points:
        fam = sshc_family(point, 2)
        assert fam[-1].degree == prev_degree
        assert fam[-1].tau == prev_tau
        prev_degree, prev_tau = fam[0].degree, fam[0].tau


def _listed_walk(q, max_degree):
    """The walk as whole families: (point, sshc_family(point, q)) in
    increasing order, up to the first superior degree above max_degree."""
    walk = []
    for point in iter_spoints():
        family = sshc_family(point, q)
        walk.append((point, family))
        if family[0].degree > max_degree:
            return walk


@pytest.mark.parametrize(
    "q,max_degree",
    [(2, 640), (3, 640), (4, 300), (31, 160), (101, 200), (5, 3000), (2, 20000)],
)
def test_walk_matches_listed_families(q, max_degree):
    # markers and anchors from one entry per point against the same read
    # off every member that sshc_family steps out from the top
    listed = _listed_walk(q, max_degree)
    walk = families(q, max_degree)
    assert [(e.point, e.degree, e.tau, e.pi_s, e.bottom_tau) for e in walk] == [
        (point, family[0].degree, family[0].tau, len(family) - 1, family[-1].tau)
        for point, family in listed
    ]
    shc = {f[0].degree for _, f in listed if f[0].degree <= max_degree}
    sshc = {e.degree for _, f in listed for e in f[1:-1] if e.degree <= max_degree}
    assert _marker_degrees(q, max_degree) == (shc, sshc)
    tops = iter(listed)
    point, family = next(tops)
    for N in range(1, max_degree + 1):
        while family[0].degree < N:
            point, family = next(tops)
        v, u = divmod(family[0].degree - N, point.s)
        cert = _certificate(walk, N, 1)
        assert (cert.point, cert.v, cert.u, cert.anchor_degree, cert.anchor_tau) == (
            point, v, u, family[v].degree, family[v].tau
        ), N


def test_walk_memory_is_per_point():
    # the 80 points up to degree 10**6 over F_2 have families of 59,259
    # members in all, with taus of up to 58,911 bits
    tracemalloc.start()
    try:
        walk = families(2, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(walk), sum(e.pi_s + 1 for e in walk)) == (80, 59_259)
    assert peak < 4 * 2**20


def sshc_certificate(point, q, deg_f, tau_f):
    """Compare tau_f / q**(deg_f/x) against the superior maximizer's value.

    Returns -1, 0, or 1 as the candidate's score is below, at, or above
    the maximizer's.  Exact: raising both scores to the power s*log(q)
    turns them into the integer products compared here.  0 certifies
    membership in the half-step family; 1 is impossible for realizable
    (deg_f, tau_f) pairs.
    """
    h = shc_pattern(point, q)
    s, r = point.s, point.r
    lhs = tau_f**s * (r + 1) ** h.degree * r**deg_f
    rhs = h.tau**s * (r + 1) ** deg_f * r**h.degree
    return (lhs > rhs) - (lhs < rhs)


def test_sshc_certificate_membership():
    point = SPoint(3, 1)
    for entry in sshc_family(point, 2):
        assert sshc_certificate(point, 2, entry.degree, entry.tau) == 0
    # a plain maximizer that is not in the family scores strictly below
    assert sshc_certificate(point, 2, 5, 12) == -1
    assert sshc_certificate(point, 2, 14, 129) == 1  # unrealizable, but the comparison is exact


@pytest.mark.parametrize("q,max_degree", [(2, 160), (3, 60), (4, 40), (5, 40), (31, 40)])
def test_markers_agree_with_anchor_score(q, max_degree):
    # the paper's score, not the walk that set the markers: a maximizer of
    # degree n scores exactly at its anchor's superior value iff it is a
    # family member, which is what an SHC or SSHC marker claims
    for record in hc_table(q, max_degree)[1:]:
        point, _, u = locate_anchor(q, record.degree)
        score = sshc_certificate(point, q, record.degree, record.tau)
        assert score == (-1 if record.marker == MARKER_NONE else 0), record.degree
        assert (score == 0) == (u == 0), record.degree


def test_verify_pair_uniqueness_small():
    ok, witness = verify_pair_uniqueness(12)
    assert ok
    assert witness is None
    with pytest.raises(ValueError):
        verify_pair_uniqueness(0)


def _pairwise_tie(bound):
    """First exactly tying pair (sa, ra, sb, rb) on [1..bound]**2, or None.

    Points a, b tie when (rb+1)**sa * ra**sb == (ra+1)**sb * rb**sa; every
    pair is compared, with no ordering argument.
    """
    points = [(s, r) for s in range(1, bound + 1) for r in range(1, bound + 1)]
    for i, (sa, ra) in enumerate(points):
        for sb, rb in points[i + 1 :]:
            if (rb + 1) ** sa * ra**sb == (ra + 1) ** sb * rb**sa:
                return sa, ra, sb, rb
    return None


def test_find_order_tie_agrees_and_is_none():
    for bound in (1, 12, 25):
        assert _pairwise_tie(bound) is None
        assert verify_pair_uniqueness(bound) == (True, None)
    with pytest.raises(ValueError):
        verify_pair_uniqueness(0)


def test_verify_pair_uniqueness_reports_tie(monkeypatch):
    def compare_s_only(a, b):
        return (a.s > b.s) - (a.s < b.s)

    monkeypatch.setattr(superior, "spoint_compare", compare_s_only)
    ok, witness = verify_pair_uniqueness(4)
    assert not ok
    a, b = witness
    assert a != b and a.s == b.s


def test_iter_spoints_prefix():
    gen = iter_spoints()
    assert [(p.s, p.r) for _, p in zip(range(5), gen)] == _FIRST_TWELVE[:5]

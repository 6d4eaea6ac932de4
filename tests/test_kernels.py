"""The order-tie scan over the (s, r) grid, against a direct pairwise scan."""

import pytest

from hcpoly.superior import verify_pair_uniqueness


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

"""The distinguished family of divisor maximizers and its parameter set.

For a real x > 1, a monic h maximizing tau(f) / q**(deg f / x) over all
monic f is a "superior" maximizer; such h are simultaneously maximizers of
tau at their own degree, and their exponents come from a closed formula.
The maximizing exponent on irreducibles of degree k jumps exactly when
q**(k/x) hits a rational (m+1)/m, i.e. when x lies in

    S = { s * log(q) / log(1 + 1/r) : integers s, r >= 1 },

so S is parameterized by grid points (s, r) independent of q.  Everything
here compares such points, walks them in increasing order, and builds the
superior polynomials and their half-step relatives sitting at each point.
families(q, max_degree) is the one walk of the grid that the rest of the
package reads: the table's SHC/SSHC markers and every anchor and
certificate of bounds come from its list, built once per table or
degree.  The list keeps one entry per walked point, not its members:
each half-step member follows by formula from its family's two ends, as
in Ramanujan's construction (Highly composite numbers, Proc. LMS 1915).
All decisions are big-integer comparisons: x(a) < x(b) iff

    (rb+1)**sa * ra**sb < (ra+1)**sb * rb**sa,

obtained by exponentiating sa*sb / (log-denominators) away.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cmp_to_key, total_ordering
from typing import Iterator, NamedTuple

from .irreducibles import count_irreducibles, ensure_prime_power


@total_ordering
@dataclass(frozen=True, eq=True)
class SPoint:
    """Grid point (s, r) standing for x = s*log(q)/log(1+1/r)."""

    s: int
    r: int

    def __post_init__(self) -> None:
        if self.s < 1 or self.r < 1:
            raise ValueError(f"grid point needs s, r >= 1, got ({self.s}, {self.r})")

    def __lt__(self, other: "SPoint") -> bool:
        return spoint_compare(self, other) < 0


def spoint_compare(a: SPoint, b: SPoint) -> int:
    """-1, 0, or 1 as x(a) <, ==, > x(b); exact integer arithmetic only."""
    lhs = (b.r + 1) ** a.s * a.r**b.s
    rhs = (a.r + 1) ** b.s * b.r**a.s
    if lhs < rhs:
        return -1
    if lhs > rhs:
        return 1
    return 0


def iter_spoints() -> Iterator[SPoint]:
    """All grid points in increasing x order, forever.

    Best-first frontier walk: x grows in s and in r separately, so the
    smallest unseen point is always a neighbor of an emitted one.
    """
    seen = {(1, 1)}
    frontier = [SPoint(1, 1)]
    while True:
        point = heapq.heappop(frontier)
        yield point
        for s, r in ((point.s + 1, point.r), (point.s, point.r + 1)):
            if (s, r) not in seen:
                seen.add((s, r))
                heapq.heappush(frontier, SPoint(s, r))


def enumerate_spoints(count: int) -> list[SPoint]:
    """The count smallest grid points, ascending."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    out = []
    for point in iter_spoints():
        if len(out) == count:
            break
        out.append(point)
    return out


def verify_pair_uniqueness(bound: int) -> tuple[bool, tuple[SPoint, SPoint] | None]:
    """Exhaustively check that x is injective on the grid [1..bound]**2.

    Sorts the bound**2 points with the exact comparator and compares each
    neighbouring pair; returns (True, None) or (False, a tying pair).  This
    is as exhaustive as comparing every pair: spoint_compare is the exact
    order of the real numbers x, a total preorder, so after the sort all
    points with equal x sit next to each other (if a <= c <= b in sorted
    order and x(a) == x(b), then x(c) == x(a) too).  Any tie is therefore a
    tie between two neighbours.
    """
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    points = [SPoint(s, r) for s in range(1, bound + 1) for r in range(1, bound + 1)]
    ordered = sorted(points, key=cmp_to_key(spoint_compare))
    for a, b in zip(ordered, ordered[1:]):
        if spoint_compare(a, b) == 0:
            return False, (a, b)
    return True, None


def _exponent_at(s: int, r: int, k: int) -> int:
    """Largest m >= 0 with (r+1)**k * m**s <= r**k * (m+1)**s.

    This is floor(1 / (q**(k/x) - 1)) at x = s*log(q)/log(1+1/r); the q
    dependence cancels, leaving a monotone integer predicate searched by
    doubling plus bisection.
    """
    rk = r**k
    rk1 = (r + 1) ** k

    def holds(m: int) -> bool:
        return rk1 * m**s <= rk * (m + 1) ** s

    if not holds(1):
        return 0
    hi = 2
    while holds(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _exponents(s: int, r: int) -> Iterator[int]:
    """The superior exponents at (s, r) on degrees k = 1, 2, ..., up to
    the last nonzero one; they do not rise with k."""
    k = 1
    while a := _exponent_at(s, r, k):
        yield a
        k += 1


def exponent_at(point: SPoint, q: int, k: int) -> int:
    """Exponent taken on degree-k irreducibles by the superior maximizer."""
    ensure_prime_power(q)
    if k < 1:
        raise ValueError(f"irreducible degree must be positive, got {k}")
    return _exponent_at(point.s, point.r, k)


@dataclass(frozen=True)
class ShcPolynomial:
    """The unique superior maximizer at one grid point over F_q.

    exponents[k-1] is the shared exponent on every degree-k irreducible;
    the tuple stops before the first zero.  Exponents end exactly at
    degree s (where the value is r), and tau/degree close over the whole
    field's irreducible counts.
    """

    point: SPoint
    q: int
    exponents: tuple[int, ...]
    degree: int
    tau: int


def shc_pattern(point: SPoint, q: int) -> ShcPolynomial:
    """Build the superior maximizer at this grid point by closed formula."""
    ensure_prime_power(q)
    exponents = list(_exponents(point.s, point.r))
    if len(exponents) < point.s or exponents[point.s - 1] != point.r:
        raise AssertionError(f"exponent formula broken at {point}: {exponents}")
    degree = 0
    tau = 1
    for k, a in enumerate(exponents, 1):
        pi_k = count_irreducibles(q, k)
        degree += k * a * pi_k
        tau *= (a + 1) ** pi_k
    return ShcPolynomial(point, q, tuple(exponents), degree, tau)


class SshcEntry(NamedTuple):
    """One half-step family member: drop v degree-s exponents by one."""

    v: int
    degree: int
    tau: int
    multiplicity: int


def sshc_family(point: SPoint, q: int) -> tuple[SshcEntry, ...]:
    """The 2**pi(s) half-step maximizers hanging off one grid point.

    Entry v (0 <= v <= pi(s)) lowers the exponent from r to r-1 on v of
    the pi(s) irreducibles of degree s, reaching degree deg(h) - v*s with
    tau scaled by (r/(r+1))**v; each choice of the v irreducibles attains
    the same values, whence the binomial multiplicity.  v = 0 is the
    superior maximizer itself; v = pi(s) is the previous one.
    """
    h = shc_pattern(point, q)
    s, r = point.s, point.r
    pi_s = count_irreducibles(q, s)
    tau = h.tau
    multiplicity = 1
    entries = [SshcEntry(0, h.degree, tau, multiplicity)]
    for v in range(1, pi_s + 1):
        tau, rem = divmod(tau * r, r + 1)
        if rem:
            raise AssertionError(f"family tau not integral at {point}, v={v}")
        multiplicity = multiplicity * (pi_s - v + 1) // v
        entries.append(SshcEntry(v, h.degree - v * s, tau, multiplicity))
    return tuple(entries)


class WalkEntry(NamedTuple):
    """One walked point: its superior maximizer's degree and tau, pi(s),
    and the tau of its family's bottom, the previous point's maximizer.

    The bottom's tau is the previous entry's tau, the same int object, so
    holding it here costs nothing.
    """

    point: SPoint
    degree: int
    tau: int
    pi_s: int
    bottom_tau: int

    def member(self, v: int) -> tuple[int, int]:
        """Degree and tau of family member v, for 0 <= v <= pi(s).

        The degree is degree - v*s.  The tau is taken from the bottom, so
        its cost grows with the member rather than with the top: member v
        raises j = pi(s) - v of the bottom's pi(s) degree-s exponents from
        r-1 to r, so its tau is bottom_tau * (r+1)**j / r**j.  The division
        is exact: each of those irreducibles contributes the factor
        (r-1)+1 = r to the bottom's tau.  The walk checks this too, since
        r**pi(s) divides bottom_tau * (r+1)**pi(s) = tau * r**pi(s), and r
        is coprime to r+1.
        """
        r, j = self.point.r, self.pi_s - v
        return self.degree - v * self.point.s, self.bottom_tau * (r + 1) ** j // r**j


def families(q: int, max_degree: int) -> list[WalkEntry]:
    """The grid walk: one WalkEntry per point in increasing order, up to
    and including the first point whose superior degree exceeds
    max_degree.

    Markers, anchors and certificates all read this one list.  It holds
    everything they need because of two facts:

    1. Each family's bottom member (v = pi(s)) is the previous point's
       superior maximizer, and the empty product before (1, 1).  Between
       neighbouring grid points no exponent jumps, and at (s, r) only the
       degree-s exponent does, from r-1 to r, since no two grid points
       share an x.  The walk re-checks this as it goes: the bottom's
       degree is deg(h) - s*pi(s), and its tau times (r+1)**pi(s) must
       equal tau(h) * r**pi(s).
    2. Superior degrees therefore strictly increase along the grid: each
       exceeds its predecessor, its family's bottom, by s*pi(s).

    So family members lie between their family's bottom and top degree,
    and every family after the last lies at or above the last top, which
    exceeds max_degree: every member of degree <= max_degree belongs to a
    listed family, and WalkEntry.member gives it by formula.  For
    1 <= N <= max_degree, the first point whose superior degree reaches N
    is listed too, since the last one's does; by fact 2 a bisection on
    the tops finds it.
    """
    ensure_prime_power(q)
    walk = []
    bottom = (0, 1)  # degree and tau of the empty product
    for point in iter_spoints():
        h = shc_pattern(point, q)
        s, r = point.s, point.r
        pi_s = count_irreducibles(q, s)
        if (h.degree - s * pi_s, h.tau * r**pi_s) != (bottom[0], bottom[1] * (r + 1) ** pi_s):
            raise AssertionError(f"family at {point} does not telescope to degree {bottom[0]}")
        walk.append(WalkEntry(point, h.degree, h.tau, pi_s, bottom[1]))
        bottom = (h.degree, h.tau)
        if h.degree > max_degree:
            return walk
    raise AssertionError("unreachable: superior degrees are unbounded")

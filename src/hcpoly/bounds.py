"""Two-sided certificates for the divisor maximum at every degree.

Write T(N) for the divisor maximum at degree N and define the defect
eps(N) = log(tau(h)) - log(T(N)), where h is the superior maximizer at
the first grid point whose degree reaches N.  Splitting the degree gap
deg(h) - N = v*s + u (0 <= u < s) against the anchor point (s, r) yields

    (u/s) * log(1 + 1/r)  <=  eps(N)  <=  log(1 + 1/a_u)   (u >= 1),

with a_u the anchor's exponent on degree-u irreducibles, and eps(N) = 0
when u = 0 (the degree lands exactly on a family member).  Both sides
become big-integer comparisons after exponentiating, which is what the
certificates check; no floats are involved in any verdict.

The anchors come from superior.families, walked once up to the largest
degree certified: the anchor of N is a bisection on the superior degrees
of that list, and its family member is read from the list, not rebuilt.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import log

from .hc_engine import HCRecord, hc_table
from .irreducibles import ensure_prime_power
from .superior import SPoint, SshcEntry, _exponent_at, families


@dataclass(frozen=True)
class LogBound:
    """The number (scale_num/scale_den) * log(num/den), kept exact.

    approx() is for display; exact comparisons cross-exponentiate.
    """

    num: int
    den: int
    scale_num: int
    scale_den: int

    def approx(self) -> float:
        return self.scale_num * (log(self.num) - log(self.den)) / self.scale_den

    def __le__(self, other: "LogBound") -> bool:
        a = self.num ** (self.scale_num * other.scale_den)
        b = self.den ** (self.scale_num * other.scale_den)
        c = other.num ** (other.scale_num * self.scale_den)
        d = other.den ** (other.scale_num * self.scale_den)
        return a * d <= c * b


@dataclass(frozen=True)
class TBoundCertificate:
    """Integer-verified sandwich for the defect at one degree."""

    N: int
    point: SPoint
    v: int
    u: int
    anchor_degree: int
    anchor_tau: int
    T: int
    lower_ok: bool
    upper_ok: bool
    width_ok: bool

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok and self.width_ok

    def epsilon_approx(self) -> float:
        """log(tau(h)/T(N)) as a float; display only."""
        return log(self.anchor_tau) - log(self.T)


def _anchor(walk: list, N: int) -> tuple[SPoint, tuple[SshcEntry, ...], int, int]:
    """The first point of the walk whose superior degree reaches N, its
    family, and (v, u) with deg(h) - N = v*s + u, 0 <= u < s.

    walk is superior.families(q, M) for some M >= N, whose tops strictly
    increase, so bisection finds the point.  The family structure
    guarantees 0 <= v < pi(s) as well, so the anchor family member at
    degree N - u exists.
    """
    point, family = walk[bisect_left(walk, N, key=lambda pf: pf[1][0].degree)]
    v, u = divmod(family[0].degree - N, point.s)
    if not 0 <= v < len(family) - 1:
        raise AssertionError(f"gap {family[0].degree - N} too wide at {point}")
    return point, family, v, u


def locate_anchor(q: int, N: int) -> tuple[SPoint, int, int]:
    """First grid point whose superior maximizer reaches degree N.

    Returns (point, v, u) with deg(h) - N = v*s + u, 0 <= u < s and
    0 <= v < pi(s).
    """
    ensure_prime_power(q)
    if N < 1:
        raise ValueError(f"anchor decomposition needs N >= 1, got {N}")
    point, _, v, u = _anchor(families(q, N), N)
    return point, v, u


def epsilon_bounds(point: SPoint, q: int, u: int) -> tuple[LogBound, LogBound]:
    """Exact lower and upper bounds for the defect with remainder u >= 1.

    Lower: (u/s) * log(1 + 1/r).  Upper: log(1 + 1/a_u).  The bracket
    width is then at most log(4/3), attained as a_u falls to its minimum
    r at u = s.
    """
    ensure_prime_power(q)
    s, r = point.s, point.r
    if not (1 <= u < s):
        raise ValueError(f"remainder must satisfy 1 <= u < s, got u={u}, s={s}")
    a_u = _exponent_at(s, r, u)
    if a_u < r:
        raise AssertionError(f"exponent at {point} fell below r for u={u}")
    return LogBound(r + 1, r, u, s), LogBound(a_u + 1, a_u, 1, 1)


def _certificate(walk: list, N: int, T: int) -> TBoundCertificate:
    """The certificate for T = T(N), anchored on walk = superior.families(q, M), M >= N."""
    point, family, v, u = _anchor(walk, N)
    s, r = point.s, point.r
    anchor = family[v]
    if u == 0:
        exact = anchor.degree == N and anchor.tau == T
        return TBoundCertificate(N, point, v, u, anchor.degree, anchor.tau, T, exact, exact, True)
    if anchor.degree - u != N:
        raise AssertionError(f"anchor degree mismatch at N={N}: {anchor.degree} - {u}")
    a_u = _exponent_at(s, r, u)
    # eps >= (u/s)*log(1+1/r)  <=>  (r+1)**u * T**s <= r**u * tau(h)**s
    lower_ok = (r + 1) ** u * T**s <= r**u * anchor.tau**s
    # eps <= log(1+1/a_u)      <=>  tau(h) * a_u <= T * (a_u + 1)
    upper_ok = anchor.tau * a_u <= T * (a_u + 1)
    # bracket width <= log(4/3) <=> (1+1/a_u) / (1+1/r)**(u/s) <= 4/3,
    # certified through s-th powers: (3*(a_u+1))**s * r**u <= (4*a_u)**s * (r+1)**u
    width_ok = (3 * (a_u + 1)) ** s * r**u <= (4 * a_u) ** s * (r + 1) ** u
    return TBoundCertificate(N, point, v, u, anchor.degree, anchor.tau, T, lower_ok, upper_ok, width_ok)


def verify_T_bounds(
    q: int, max_degree: int, records: list[HCRecord] | None = None
) -> list[TBoundCertificate]:
    """Certificates for every degree 1..max_degree.

    records may be passed to reuse a computed table; otherwise one is
    built.  All returned certificates hold (ok is True) unless the
    implementation is broken somewhere, which is the point of running it.
    """
    if records is None:
        records = hc_table(q, max_degree)
    walk = families(q, max_degree)
    return [_certificate(walk, n, records[n].tau) for n in range(1, max_degree + 1)]

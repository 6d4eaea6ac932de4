"""Two-sided certificates for the divisor maximum at every degree.

Write T(N) for the divisor maximum at degree N and define the defect
eps(N) = log(tau(h)) - log(T(N)), where h is the superior maximizer at
the first grid point whose degree reaches N.  Splitting the degree gap
deg(h) - N = v*s + u (0 <= u < s) against the anchor point (s, r) yields

    (u/s) * log(1 + 1/r)  <=  eps(N)  <=  log(1 + 1/a_u)   (u >= 1),

with a_u the anchor's exponent on degree-u irreducibles, and eps(N) = 0
when u = 0 (the degree lands exactly on a family member).  Every verdict
is a LogBound comparison, one big-integer comparison after
exponentiating; no floats are involved in any verdict.

The anchors come from superior.families, walked once up to the largest
degree certified: the anchor of N is a bisection on the superior degrees
of that list, which holds one entry per point, and the one family member
a certificate needs is built by formula from its family's bottom.
T(N) itself comes from hc_engine's class knapsack, values only, unless
a computed table is passed in.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import log

from .hc_engine import HCRecord, _maxima
from .irreducibles import ensure_prime_power
from .superior import SPoint, WalkEntry, _exponent_at, families


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


def _anchor(walk: list[WalkEntry], N: int) -> tuple[WalkEntry, int, int]:
    """The walk's entry for the first point whose superior degree reaches
    N, and (v, u) with deg(h) - N = v*s + u, 0 <= u < s.

    walk is superior.families(q, M) for some M >= N, whose tops strictly
    increase, so bisection finds the point.  The family structure
    guarantees 0 <= v < pi(s) as well, so the anchor family member at
    degree N - u exists.
    """
    top = walk[bisect_left(walk, N, key=lambda e: e.degree)]
    v, u = divmod(top.degree - N, top.point.s)
    if not 0 <= v < top.pi_s:
        raise AssertionError(f"gap {top.degree - N} too wide at {top.point}")
    return top, v, u


def locate_anchor(q: int, N: int) -> tuple[SPoint, int, int]:
    """First grid point whose superior maximizer reaches degree N.

    Returns (point, v, u) with deg(h) - N = v*s + u, 0 <= u < s and
    0 <= v < pi(s).
    """
    ensure_prime_power(q)
    if N < 1:
        raise ValueError(f"anchor decomposition needs N >= 1, got {N}")
    top, v, u = _anchor(families(q, N), N)
    return top.point, v, u


def _bracket(point: SPoint, u: int) -> tuple[LogBound, LogBound]:
    """epsilon_bounds for remainder 0 <= u < s, with both bounds 0 at u = 0."""
    if u == 0:
        return LogBound(1, 1, 1, 1), LogBound(1, 1, 1, 1)
    s, r = point.s, point.r
    a_u = _exponent_at(s, r, u)
    if a_u < r:
        raise AssertionError(f"exponent at {point} fell below r for u={u}")
    return LogBound(r + 1, r, u, s), LogBound(a_u + 1, a_u, 1, 1)


def epsilon_bounds(point: SPoint, q: int, u: int) -> tuple[LogBound, LogBound]:
    """Exact lower and upper bounds for the defect with remainder u >= 1.

    Lower: (u/s) * log(1 + 1/r).  Upper: log(1 + 1/a_u).  The bracket
    width is then at most log(4/3), attained as a_u falls to its minimum
    r at u = s.
    """
    ensure_prime_power(q)
    if not (1 <= u < point.s):
        raise ValueError(f"remainder must satisfy 1 <= u < s, got u={u}, s={point.s}")
    return _bracket(point, u)


def _certificate(walk: list[WalkEntry], N: int, T: int) -> TBoundCertificate:
    """The certificate for T = T(N), anchored on walk = superior.families(q, M), M >= N.

    The verdicts are lower <= eps, eps <= upper and, for the width,
    upper - log(4/3) <= lower, with eps = log(tau(h)/T); at u = 0 the
    first two say tau(h) == T.
    """
    top, v, u = _anchor(walk, N)
    degree, tau = top.member(v)
    if degree - u != N:
        raise AssertionError(f"anchor degree mismatch at N={N}: {degree} - {u}")
    lower, upper = _bracket(top.point, u)
    eps = LogBound(tau, T, 1, 1)
    verdicts = (lower <= eps, eps <= upper, LogBound(3 * upper.num, 4 * upper.den, 1, 1) <= lower)
    return TBoundCertificate(N, top.point, v, u, degree, tau, T, *verdicts)


def verify_T_bounds(
    q: int, max_degree: int, records: list[HCRecord] | None = None
) -> list[TBoundCertificate]:
    """Certificates for every degree 1..max_degree.

    records may be passed to certify a computed table's taus; otherwise
    T comes from hc_engine's class knapsack, which builds no patterns.
    All returned certificates hold (ok is True) unless the implementation
    is broken somewhere, which is the point of running it.
    """
    ensure_prime_power(q)
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    T = _maxima(q, max_degree) if records is None else [r.tau for r in records]
    walk = families(q, max_degree)
    return [_certificate(walk, n, T[n]) for n in range(1, max_degree + 1)]

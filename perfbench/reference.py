"""Reference mathematics for checking hcpoly's outputs, written without hcpoly.

Everything here is exact integer arithmetic built from first principles:

- pi(k), the number of monic irreducibles of degree k over F_q, by the
  necklace formula (1/k) * sum over d | k of mu(d) * q**(k/d);
- the divisor maximum T(n) and the number of monic polynomials attaining
  it, by a knapsack over irreducible degree classes.  Within one class of
  c irreducibles, a total exponent m is best spread as evenly as possible
  (log(e+1) is strictly concave), so the class contributes
  (a+2)**b * (a+1)**(c-b) with (a, b) = divmod(m, c), and exactly
  comb(c, b) exponent vectors reach it;
- superior maximizers by their closed form: at grid point (s, r) the
  exponent on degree-k irreducibles is the largest m with
  (r+1)**k * m**s <= r**k * (m+1)**s; their half-step families lower the
  exponent from r to r-1 on v of the pi(s) degree-s irreducibles;
- an exhaustive divisor count of every monic polynomial of low degree,
  counting ordered factor pairs (g, h) with g*h = f.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod

MARKER_NONE = "none"
MARKER_SHC = "SHC"
MARKER_SSHC = "SSHC"


def mobius(n: int) -> int:
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


@lru_cache(maxsize=None)
def count_irreducibles(q: int, k: int) -> int:
    """pi(k) over F_q by the necklace formula."""
    total = sum(mobius(d) * q ** (k // d) for d in range(1, k + 1) if k % d == 0)
    if total % k:
        raise ArithmeticError(f"necklace sum not divisible by {k} at q={q}")
    return total // k


def pattern_realizations(q: int, classes: dict[int, tuple[int, ...]]) -> int:
    """Monic polynomials whose factorization has these per-class exponents.

    In a class of c irreducibles, the L nonzero exponents go to L distinct
    irreducibles in c*(c-1)*...*(c-L+1) ordered ways, divided by the
    orderings of equal exponents.
    """
    total = 1
    for k, exponents in classes.items():
        c = count_irreducibles(q, k)
        ways = prod(range(c - len(exponents) + 1, c + 1))
        for value in set(exponents):
            ways //= _factorial(exponents.count(value))
        total *= ways
    return total


def _factorial(n: int) -> int:
    return prod(range(2, n + 1))


@dataclass(frozen=True)
class DivisorMaxima:
    """T[n] and the number of maximizing monic polynomials count[n], n <= N."""

    q: int
    T: tuple[int, ...]
    count: tuple[int, ...]


@lru_cache(maxsize=None)
def divisor_maxima(q: int, N: int) -> DivisorMaxima:
    T = [1] + [0] * N
    count = [1] + [0] * N
    for k in range(1, N + 1):
        c = count_irreducibles(q, k)
        gains = []
        for m in range(N // k + 1):
            a, b = divmod(m, c)
            gains.append(((a + 2) ** b * (a + 1) ** (c - b) if a else 2**b, comb(c, b)))
        new_T = T[:k]
        new_count = count[:k]
        for n in range(k, N + 1):
            best = 0
            ways = 0
            for m in range(n // k + 1):
                rest = T[n - k * m]
                if not rest:
                    continue
                value = rest * gains[m][0]
                if value > best:
                    best, ways = value, count[n - k * m] * gains[m][1]
                elif value == best:
                    ways += count[n - k * m] * gains[m][1]
            new_T.append(best)
            new_count.append(ways)
        T, count = new_T, new_count
    return DivisorMaxima(q, tuple(T), tuple(count))


def superior_exponent(s: int, r: int, k: int) -> int:
    """Largest m >= 0 with (r+1)**k * m**s <= r**k * (m+1)**s.

    Starts from the real solution 1/((1+1/r)**(k/s) - 1) and settles the
    integer answer with the exact predicate, which holds up to a threshold.
    """
    lhs = (r + 1) ** k
    rhs = r**k

    def holds(m: int) -> bool:
        return lhs * m**s <= rhs * (m + 1) ** s

    m = max(0, int(1.0 / ((1.0 + 1.0 / r) ** (k / s) - 1.0)))
    while holds(m + 1):
        m += 1
    while m > 0 and not holds(m):
        m -= 1
    return m


@dataclass(frozen=True)
class Superior:
    """The superior maximizer h at grid point (s, r) over F_q."""

    s: int
    r: int
    exponents: tuple[int, ...]
    degree: int
    tau: int
    pi_s: int

    def member(self, v: int) -> tuple[int, int]:
        """(degree, tau) of half-step family member v, 0 <= v <= pi(s)."""
        scaled = self.tau * self.r**v
        return self.degree - v * self.s, scaled // (self.r + 1) ** v


def _superior(q: int, s: int, r: int, limit: int) -> Superior | None:
    """The superior maximizer at (s, r), or None once its family lies above limit.

    The family's lowest member has degree deg(h) - s*pi(s); every term of
    that sum is nonnegative, so the partial sum decides early.
    """
    pi_s = count_irreducibles(q, s)
    bottom = s * (r - 1) * pi_s
    exponents = []
    degree = 0
    tau = 1
    k = 1
    while True:
        a = superior_exponent(s, r, k)
        if a == 0:
            break
        pi_k = count_irreducibles(q, k)
        if k != s:
            bottom += k * a * pi_k
        if bottom > limit:
            return None
        exponents.append(a)
        degree += k * a * pi_k
        tau *= (a + 1) ** pi_k
        k += 1
    if len(exponents) < s or exponents[s - 1] != r:
        raise ArithmeticError(f"closed form misses r at ({s}, {r}): {exponents}")
    return Superior(s, r, tuple(exponents), degree, tau, pi_s)


@lru_cache(maxsize=None)
def superior_points(q: int, N: int) -> tuple[Superior, ...]:
    """Every grid point whose half-step family reaches a degree <= N, by degree.

    With a_k >= r for k <= s, the family bottom is at least
    r * sum(k*pi(k), k < s) + s*(r-1)*pi(s), which grows in r and in s, so
    each scan stops at the first point past N.
    """
    out = []
    s = 1
    while sum(k * count_irreducibles(q, k) for k in range(1, s)) <= N:
        r = 1
        while True:
            h = _superior(q, s, r, N)
            if h is None:
                break
            out.append(h)
            r += 1
        s += 1
    out.sort(key=lambda h: h.degree)
    return tuple(out)


@lru_cache(maxsize=None)
def markers(q: int, N: int) -> dict[int, tuple[str, int]]:
    """Marked degree -> (marker, tau of the family member there), degrees <= N."""
    out: dict[int, tuple[str, int]] = {}
    for h in superior_points(q, N):
        for v in range(h.pi_s):
            degree, tau = h.member(v)
            if degree > N:
                continue
            marker = MARKER_SHC if v == 0 else MARKER_SSHC
            if degree in out and out[degree] != (marker, tau):
                raise ArithmeticError(f"degree {degree} marked twice at q={q}")
            out[degree] = (marker, tau)
    return out


def anchor(q: int, N: int, n: int) -> Superior:
    """The superior maximizer of least degree >= n (the first one in x order)."""
    for h in superior_points(q, N):
        if h.degree >= n:
            return h
    raise ArithmeticError(f"no superior maximizer reaches degree {n} at q={q}")


def certificate_holds(T: int, s: int, r: int, u: int, anchor_tau: int) -> bool:
    """The two-sided log(4/3) bracket for T against a family member, in integers.

    u = 0: T equals the member's tau.  Otherwise, with a_u the exponent on
    degree-u irreducibles,
        (r+1)**u * T**s <= r**u * anchor_tau**s         (lower)
        anchor_tau * a_u <= T * (a_u + 1)                 (upper)
        (3*(a_u+1))**s * r**u <= (4*a_u)**s * (r+1)**u    (width)
    """
    if u == 0:
        return T == anchor_tau
    a_u = superior_exponent(s, r, u)
    return (
        (r + 1) ** u * T**s <= r**u * anchor_tau**s
        and anchor_tau * a_u <= T * (a_u + 1)
        and (3 * (a_u + 1)) ** s * r**u <= (4 * a_u) ** s * (r + 1) ** u
    )


def _poly_mul(f: tuple[int, ...], g: tuple[int, ...], q: int) -> tuple[int, ...]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % q
    return tuple(out)


def _monic(q: int, n: int) -> list[tuple[int, ...]]:
    """All monic degree-n polynomials, coefficients low to high."""
    out = []
    for index in range(q**n):
        coeffs = []
        for _ in range(n):
            index, c = divmod(index, q)
            coeffs.append(c)
        out.append(tuple(coeffs) + (1,))
    return out


@lru_cache(maxsize=None)
def exhaustive_maxima(q: int, N: int) -> tuple[tuple[int, int], ...]:
    """(max tau, number of maximizers) at each degree <= N over all monic f.

    tau(f) is the number of ordered pairs (g, h) of monic polynomials with
    g*h = f, so multiplying every pair of degrees d and n-d counts it.
    Prime q only.
    """
    by_degree = [_monic(q, n) for n in range(N + 1)]
    out = []
    for n in range(N + 1):
        tau: dict[tuple[int, ...], int] = {}
        for d in range(n + 1):
            for g in by_degree[d]:
                for h in by_degree[n - d]:
                    f = _poly_mul(g, h, q)
                    tau[f] = tau.get(f, 0) + 1
        best = max(tau.values())
        out.append((best, sum(1 for t in tau.values() if t == best)))
    return tuple(out)

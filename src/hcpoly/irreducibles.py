"""Counting and enumerating monic irreducibles of F_q[t] by degree.

Counting works for any prime power q and needs no polynomial arithmetic:
the number of monic irreducibles of degree n is (1/n) * sum over d | n of
mu(d) * q**(n/d), an exact integer.  Enumeration produces the polynomials
themselves in order-key order by a product sieve, for prime q only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .gf_poly import PolyFq, is_prime, poly_from_key, product_keys


def mobius(n: int) -> int:
    """Moebius function by trial factorization."""
    if n < 1:
        raise ValueError(f"mobius is defined on positive integers, got {n}")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
        d += 1
    return sorted(out)


def prime_power_base(q: int) -> tuple[int, int] | None:
    """(p, m) with q == p**m and p prime, or None."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            m = 0
            n = q
            while n % p == 0:
                n //= p
                m += 1
            return (p, m) if n == 1 else None
        p += 1
    return q, 1


def ensure_prime_power(q: int) -> None:
    if prime_power_base(q) is None:
        raise ValueError(f"field size must be a prime power, got {q}")


@lru_cache(maxsize=None)
def count_irreducibles(q: int, n: int) -> int:
    """Number of monic irreducibles of degree n over F_q, exactly."""
    ensure_prime_power(q)
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    total = sum(mobius(d) * q ** (n // d) for d in _divisors(n))
    if total % n:
        raise AssertionError(f"inclusion-exclusion not divisible by {n}")
    return total // n


@dataclass(frozen=True)
class IrreducibleTable:
    """All monic irreducibles of degree <= max_degree, in order-key order.

    primes is globally sorted by order key (hence grouped by degree);
    degree_offsets[k] is the index of the first degree-k entry, with a
    sentinel at the end, so slicing by degree is O(1).
    """

    q: int
    max_degree: int
    primes: tuple[PolyFq, ...]
    degree_offsets: tuple[int, ...]

    def prime(self, index: int) -> PolyFq:
        """1-based lookup in global order-key order."""
        if not (1 <= index <= len(self.primes)):
            raise ValueError(f"prime index {index} outside 1..{len(self.primes)}")
        return self.primes[index - 1]

    def __len__(self) -> int:
        return len(self.primes)


def enumerate_irreducibles(q: int, max_degree: int) -> IrreducibleTable:
    """Sieve all monic irreducibles of degree 1..max_degree over prime F_q.

    At degree n, every product g*h of an irreducible g of degree d in
    1..n//2 (found at an earlier degree) and a monic h of degree n - d is
    marked composite; the unmarked keys are the irreducibles.  This marks
    every composite, because a monic composite of degree n has a monic
    irreducible factor of degree at most n/2, and no irreducible, because
    both factors have positive degree.
    """
    if not is_prime(q):
        raise ValueError(f"explicit enumeration needs prime q, got {q}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    by_degree: list[list[int]] = [[]]
    primes: list[PolyFq] = []
    offsets = [0, 0]
    for n in range(1, max_degree + 1):
        base = q**n
        composite = bytearray(base)
        for d in range(1, n // 2 + 1):
            for key in product_keys(q, n, d, by_degree[d]):
                composite[key - base] = 1
        found = [base + i for i, c in enumerate(composite) if not c]
        expected = count_irreducibles(q, n)
        if len(found) != expected:
            raise AssertionError(
                f"sieve found {len(found)} irreducibles of degree {n}, expected {expected}"
            )
        by_degree.append(found)
        primes.extend(poly_from_key(q, key) for key in found)
        offsets.append(len(primes))
    return IrreducibleTable(q, max_degree, tuple(primes), tuple(offsets))

"""Monic polynomials over a prime field F_q with exact integer order keys.

A polynomial is stored as a dense coefficient tuple, lowest degree first,
coefficients reduced mod q.  Only monic polynomials are PolyFq values: the
leading coefficient is 1 and the constant polynomial is exactly (1,).
Quotients and remainders, which need not be monic, travel as raw coefficient
tuples in the same layout, trimmed of high zeros, with () for zero.

The order key of a monic f is the integer f(q): the coefficient vector read
as base-q digits.  Keys of distinct monic polynomials are distinct, keys of
degree n fill [q**n, 2*q**n), and higher degree always means larger key, so
the key is a tie-free total order.  All ordering decisions in this package
go through these integers; floats are for display only.

Everything here is immutable, so instances can be shared freely across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator


def is_prime(n: int) -> bool:
    """Trial-division primality check; adequate for desk-scale moduli."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PolyFq:
    """A monic polynomial over F_q.  Hashable; compares by (q, coeffs)."""

    q: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_prime(self.q):
            raise ValueError(f"modulus must be prime, got {self.q}")
        coeffs = tuple(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs:
            raise ValueError("PolyFq cannot represent the zero polynomial")
        if any(not (0 <= c < self.q) for c in coeffs):
            raise ValueError(f"coefficients must lie in [0, {self.q})")
        if coeffs[-1] != 1:
            raise ValueError("polynomial is not monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self) -> str:
        return format_poly(self)


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _mul_raw(a: tuple[int, ...], b: tuple[int, ...], q: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % q
    return _trim(out)


def _divrem_raw(
    a: tuple[int, ...], b: tuple[int, ...], q: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Long division of raw vectors; returns (quotient, remainder)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    inv_lead = pow(b[-1], -1, q)
    rem = list(a)
    db = len(b) - 1
    quot = [0] * (len(a) - db)
    for top in range(len(rem) - 1, db - 1, -1):
        c = rem[top]
        if c == 0:
            continue
        factor = (c * inv_lead) % q
        quot[top - db] = factor
        shift = top - db
        for j, cb in enumerate(b):
            rem[shift + j] = (rem[shift + j] - factor * cb) % q
    return _trim(quot), _trim(rem[:db])


def _require_same_field(a: PolyFq, b: PolyFq) -> None:
    if a.q != b.q:
        raise ValueError(f"mixed moduli: {a.q} and {b.q}")


def poly_mul(a: PolyFq, b: PolyFq) -> PolyFq:
    """Product of two monic polynomials (again monic)."""
    _require_same_field(a, b)
    return PolyFq(a.q, _mul_raw(a.coeffs, b.coeffs, a.q))


def poly_divrem(a: PolyFq, b: PolyFq) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of a by b, as raw coefficient tuples.

    Raw tuples are used because the remainder (and a zero quotient) cannot
    honor the monic invariant.  a == quotient*b + remainder with the
    remainder of strictly smaller degree than b; () means zero, and a zero
    remainder is exactly the divisibility condition.
    """
    _require_same_field(a, b)
    return _divrem_raw(a.coeffs, b.coeffs, a.q)


def order_key(f: PolyFq) -> int:
    """The integer f(q): base-q digits of the coefficient vector."""
    key = 0
    for c in reversed(f.coeffs):
        key = key * f.q + c
    return key


def poly_from_key(q: int, key: int) -> PolyFq:
    """Inverse of order_key: rebuild the monic polynomial with this key."""
    if key < 1:
        raise ValueError(f"order keys are positive, got {key}")
    coeffs = []
    while key:
        key, c = divmod(key, q)
        coeffs.append(c)
    return PolyFq(q, tuple(coeffs))


def _packed(q: int, key: int, width: int) -> int:
    """The polynomial with this order key evaluated at t = 2**width."""
    packed = 0
    shift = 0
    while key:
        key, c = divmod(key, q)
        packed |= c << shift
        shift += width
    return packed


_TABLE_BITS = 12


@lru_cache(maxsize=None)
def _digit_table(q: int, width: int) -> list[int] | None:
    """Chunk value -> base-q number of its width-bit fields, each reduced mod q.

    A chunk holds fields = _TABLE_BITS // width whole fields, lowest field
    lowest, so the table has 2**(fields*width) <= 2**_TABLE_BITS entries.
    None when fewer than two fields fit: a table would then save nothing
    over reducing each field by itself.  product_keys asks only for widths
    that hold (q-1)**2, so tables exist for width <= 6 and q <= 7 alone,
    and the cache holds at most 13 of them.
    """
    fields = _TABLE_BITS // width
    if fields < 2:
        return None
    table = [0]
    place = 1
    for _ in range(fields):
        # prepend one field above the chunks tabulated so far
        table = [(top % q) * place + low for top in range(1 << width) for low in table]
        place *= q
    return table


def product_keys(q: int, n: int, d: int, low_keys: Iterable[int]) -> Iterator[int]:
    """Order keys of g*h for each monic g of degree d <= n/2 keyed in low_keys
    and each monic h of degree n - d, h varying slowest.

    Products use Kronecker substitution: evaluated at t = 2**width, g and h
    hold their coefficients in width-bit fields, and one integer product
    holds every coefficient of g*h over the integers.  Each coefficient is
    a sum of at most d + 1 products of two coefficients below q, so it is
    at most (n//2 + 1) * (q-1)**2 < 2**width and fits in its field, and
    reducing the fields mod q gives the order key of g*h over F_q.

    The fields are read in chunks of F = 12 // width whole fields, through
    a cached table (_digit_table) that maps a chunk to sum_j (field_j mod q)
    * q**j.  Chunk c holds the fields of degrees c*F .. c*F + F - 1, so the
    Horner sum of the chunk values in radix q**F equals the per-field
    Horner sum in radix q, which is the order key.  The top chunk may run
    past degree n; those fields are zero, because g*h has degree n, and
    add nothing.  A table has at most 2**12 entries; when fewer than two
    fields fit in that budget (large q or wide fields), each field is
    reduced by itself with % q.

    The low factors are packed once.  The high factors are streamed: h of
    degree m = n - d splits into its top base-q digits (degrees m//2..m)
    and its bottom m//2 digits, the q**(m - m//2) tops are packed as they
    come and the q**(m//2) bottoms once up front, and each packed h is the
    OR of a top and a bottom.  Tops vary slowest, so h runs in key order,
    and memory stays at the low factors and the bottoms.
    """
    width = ((n // 2 + 1) * (q - 1) ** 2).bit_length()
    table = _digit_table(q, width)
    fields = 1 if table is None else _TABLE_BITS // width
    step = fields * width
    shifts = range(n // fields * step, -1, -step)
    mask = (1 << step) - 1
    radix = q**fields
    lows = [_packed(q, key, width) for key in low_keys]
    m = n - d
    split = m // 2
    bottoms = [_packed(q, key, width) for key in range(q**split)]
    for top_key in range(q ** (m - split), 2 * q ** (m - split)):
        top = _packed(q, top_key, width) << (split * width)
        for bottom in bottoms:
            high = top | bottom
            if table is None:
                for low in lows:
                    product = low * high
                    key = 0
                    for shift in shifts:
                        key = key * radix + ((product >> shift) & mask) % q
                    yield key
            else:
                for low in lows:
                    product = low * high
                    key = 0
                    for shift in shifts:
                        key = key * radix + table[(product >> shift) & mask]
                    yield key


def format_poly(f: PolyFq) -> str:
    """Human form, highest degree first: 't^5+t^4+t^3+t^2+1'."""
    terms = []
    for i in range(f.degree, -1, -1):
        c = f.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("t" if c == 1 else f"{c}t")
        else:
            terms.append(f"t^{i}" if c == 1 else f"{c}t^{i}")
    return "+".join(terms)

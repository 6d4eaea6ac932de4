"""T(n) over F_4, F_8 and F_9 by a raw count that uses nothing of hcpoly.

At a prime power q, hcpoly neither enumerates irreducibles nor runs its
raw sieve, so every oracle in the package shares count_irreducibles and
the pattern model with the engine.  Here each field is built from a
table, every product of two monic polynomials is multiplied out, and
the divisors of each monic polynomial are counted, as the raw sieve does
at prime q.
"""

from collections import Counter
from itertools import product, repeat
from operator import xor

import pytest

from hcpoly.hc_engine import _maxima, hc_table

# q -> (p, the coefficients of x^0 .. x^(m-1) in a monic irreducible of
# degree m over F_p): F_4 = F_2[x]/(x^2+x+1), F_8 = F_2[x]/(x^3+x+1),
# F_9 = F_3[x]/(x^2+1)
FIELDS = {4: (2, (1, 1)), 8: (2, (1, 1, 0)), 9: (3, (1, 0))}

# one F_p digit per 4-bit field of a packed polynomial; in characteristic
# 2 adding is xor, and otherwise a sum of two digits is at most 2p - 2 < 8,
# so adding 8 - p sets a field's top bit exactly where the sum reaches p,
# and no carry crosses a field
WIDTH = 4


def field(p: int, low: tuple[int, ...]) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The elements of F_p[x]/(x^m + low), as digit tuples, lowest first,
    with element 1 at index 1, and the multiplication table on indices."""
    m = len(low)
    elements = [tuple(i // p**j % p for j in range(m)) for i in range(p**m)]
    index = {e: i for i, e in enumerate(elements)}

    def mul(a, b):
        full = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                full[i + j] += ai * bj
        for k in range(2 * m - 2, m - 1, -1):  # x^k = -x^(k-m) * low(x)
            top, full[k] = full[k], 0
            for j, c in enumerate(low):
                full[k - m + j] -= top * c
        return tuple(c % p for c in full[:m])

    table = [[index[mul(a, b)] for b in elements] for a in elements]
    return elements, table


def raw_maxima(q: int, max_degree: int) -> list[tuple[int, int]]:
    """(T(n), the number of monic f of degree n with tau(f) = T(n)) for n <= max_degree."""
    p, low = FIELDS[q]
    m = len(low)
    elements, mul = field(p, low)
    assert all(sorted(row) == list(range(q)) for row in mul[1:]), "not a field"

    def pack(coefficients) -> int:
        digits = (d for c in coefficients for d in elements[c])
        return sum(d << (WIDTH * k) for k, d in enumerate(digits))

    fields = m * (max_degree + 1)
    offset = sum((8 - p) << (WIDTH * k) for k in range(fields))
    high = sum(8 << (WIDTH * k) for k in range(fields))

    def add(x: int, y: int) -> int:
        total = x + y
        return total - ((total + offset) & high) // 8 * p

    if p == 2:
        add = xor

    def multiples(g: tuple[int, ...], e: int) -> list[int]:
        """g*h for every monic h of degree e: g*t^e plus each sum of
        a_i*g*t^i over i < e, with one a_i of F_q for each i."""
        products = [pack((0,) * e + g)]
        for i in range(e):
            steps = [pack((0,) * i + tuple(mul[a][c] for c in g)) for a in range(1, q)]
            products += [y for step in steps for y in map(add, products, repeat(step))]
        return products

    def monics(d: int):
        return ((*lower, 1) for lower in product(range(q), repeat=d))

    out = []
    for n in range(max_degree + 1):
        tau: Counter[int] = Counter()
        for d in range((n + 1) // 2):
            for g in monics(d):
                tau.update(multiples(g, n - d))
        # each divisor of degree d < n/2 pairs off with its cofactor, of degree n - d > n/2
        tau = Counter({f: 2 * count for f, count in tau.items()})
        if n % 2 == 0:
            for g in monics(n // 2):
                tau.update(multiples(g, n // 2))
        assert len(tau) == q**n, "a monic polynomial was missed"
        best = max(tau.values())
        out.append((best, sum(c == best for c in tau.values())))
    return out


# quadratics first divide a maximizer at q=4 n=9, so an error in
# count_irreducibles(4, 2) shows there and at no lower degree
@pytest.mark.parametrize("q, max_degree", [(4, 9), (8, 4), (9, 4)])
def test_raw_count_at_prime_powers(q, max_degree):
    raw = raw_maxima(q, max_degree)
    records = hc_table(q, max_degree)
    assert [(r.tau, r.total_polynomials) for r in records] == raw
    assert _maxima(q, max_degree) == [tau for tau, _ in raw]

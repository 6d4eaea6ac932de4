"""Factorization patterns and brute-force oracles for the divisor maximum.

The divisor count of a monic f depends only on the multiset of exponents in
its factorization, grouped by the degree of the irreducible they sit on.
ExponentPattern captures exactly that: for each irreducible degree k a
non-increasing tuple of positive exponents, one per distinct irreducible
used.  tau, degree, and the number of monic polynomials realizing a pattern
are all cheap integer formulas on this shape, which is what makes
exhaustive search over patterns feasible far beyond the raw search over
q**n polynomials.  None of these formulas, nor the canonical pattern
order, pads a class to its full irreducible count.

Two oracles are provided for cross-checking the dynamic-programming engine:
brute_force_T enumerates patterns (optionally pruned by the exponent
monotonicity that every maximizer satisfies), and raw_polynomial_T counts
the divisors of every monic polynomial of each degree with a product sieve.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb, prod
from typing import Iterable, Iterator, Mapping, NamedTuple

from .gf_poly import PolyFq, is_prime, poly_divrem, poly_from_key, product_keys
from .irreducibles import IrreducibleTable, count_irreducibles, ensure_prime_power


@dataclass(frozen=True)
class ExponentPattern:
    """Exponents of a monic factorization, grouped by irreducible degree.

    classes holds (irreducible degree, exponent tuple) pairs with strictly
    increasing degrees; each exponent tuple is positive and non-increasing,
    one entry per distinct irreducible of that degree.  The empty pattern
    is the constant polynomial 1.
    """

    q: int
    classes: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        ensure_prime_power(self.q)
        last_degree = 0
        for class_degree, exponents in self.classes:
            if class_degree <= last_degree:
                raise ValueError("class degrees must be strictly increasing")
            last_degree = class_degree
            if not exponents:
                raise ValueError(f"empty exponent tuple at degree {class_degree}")
            if any(e <= 0 for e in exponents):
                raise ValueError(f"exponents must be positive at degree {class_degree}")
            if any(a < b for a, b in zip(exponents, exponents[1:])):
                raise ValueError(f"exponents must be non-increasing at degree {class_degree}")
            available = count_irreducibles(self.q, class_degree)
            if len(exponents) > available:
                raise ValueError(
                    f"{len(exponents)} irreducibles of degree {class_degree} requested, "
                    f"only {available} exist over F_{self.q}"
                )


def pattern(q: int, classes: Mapping[int, Iterable[int]]) -> ExponentPattern:
    """Build a canonical ExponentPattern from {degree: exponents}.

    Exponents are sorted, zeros dropped, empty classes removed.
    """
    normalized = []
    for class_degree in sorted(classes):
        exponents = tuple(sorted((e for e in classes[class_degree] if e != 0), reverse=True))
        if exponents:
            normalized.append((class_degree, exponents))
    return ExponentPattern(q, tuple(normalized))


def pattern_tau(p: ExponentPattern) -> int:
    """Divisor count shared by every polynomial realizing p."""
    return prod(e + 1 for _, exponents in p.classes for e in exponents)


def pattern_degree(p: ExponentPattern) -> int:
    return sum(k * sum(exponents) for k, exponents in p.classes)


def pattern_union(a: ExponentPattern, b: ExponentPattern) -> ExponentPattern:
    """Pattern of a product whose factors use disjoint irreducibles."""
    if a.q != b.q:
        raise ValueError(f"mixed field sizes: {a.q} and {b.q}")
    merged: dict[int, list[int]] = {}
    for p in (a, b):
        for class_degree, exponents in p.classes:
            merged.setdefault(class_degree, []).extend(exponents)
    return pattern(a.q, merged)


def realization_count(p: ExponentPattern) -> int:
    """Number of monic polynomials whose factorization matches p.

    A class of degree k deals its exponents to distinct irreducibles of
    the pi(k) and 0 to the rest.  Choosing in turn, from those still free,
    the m_v that get each distinct exponent v gives prod comb(free, m_v):
    the multinomial of the class's zero-padded exponent vector.
    """
    total = 1
    for class_degree, exponents in p.classes:
        free = count_irreducibles(p.q, class_degree)
        for value in set(exponents):
            m = exponents.count(value)
            total *= comb(free, m)
            free -= m
    return total


def _multiset_perms_desc(vec: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Distinct permutations of vec in descending lexicographic order."""
    current = sorted(vec, reverse=True)
    n = len(current)
    while True:
        yield tuple(current)
        # classic next-permutation, mirrored for descending order
        i = n - 2
        while i >= 0 and current[i] <= current[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while current[j] >= current[i]:
            j -= 1
        current[i], current[j] = current[j], current[i]
        current[i + 1 :] = reversed(current[i + 1 :])


def realize_polynomials(
    p: ExponentPattern, tbl: IrreducibleTable
) -> list[tuple[tuple[int, int], ...]]:
    """All factored forms matching p, as ((prime index, exponent), ...).

    Prime indices are 1-based positions in tbl's global order.  Forms are
    emitted grouped by the assignment on the highest degree class first,
    each class's assignments in descending lexicographic order, which is
    the row order of the explicit tables.  The result has exactly
    realization_count(p) entries.
    Pairs come out in ascending prime index unsorted: slot j of class k
    has index degree_offsets[k] + 1 + j, and classes are joined by k.
    """
    if tbl.q != p.q:
        raise ValueError(f"table is over F_{tbl.q}, pattern over F_{p.q}")
    top = max((k for k, _ in p.classes), default=0)
    if top > tbl.max_degree:
        raise ValueError(f"table depth {tbl.max_degree} insufficient for class degree {top}")
    # each assignment is kept as its (prime index, exponent) pairs with a
    # nonzero exponent, shared by every form that uses it: a class can have
    # many more irreducibles than used slots
    per_class: list[list[tuple[tuple[int, int], ...]]] = []
    for class_degree, exponents in p.classes:
        base = tbl.degree_offsets[class_degree] + 1
        vec = exponents + (0,) * (count_irreducibles(p.q, class_degree) - len(exponents))
        per_class.append(
            [
                tuple((base + slot, e) for slot, e in enumerate(perm) if e)
                for perm in _multiset_perms_desc(vec)
            ]
        )
    # product varies its last factor fastest: the highest class, first here
    return [
        tuple(pair for assignment in reversed(choice) for pair in assignment)
        for choice in product(*reversed(per_class))
    ]


def exponents_monotone(p: ExponentPattern) -> bool:
    """True when exponents never rise with the irreducible degree.

    Counting unused irreducibles as exponent 0, this means: class degrees
    contiguous from 1, every class but the last one full, and the minimum
    exponent of each class at least the maximum of the next.  Every
    divisor maximizer has this shape.
    """
    if not p.classes:
        return True
    degrees = [k for k, _ in p.classes]
    if degrees != list(range(1, len(degrees) + 1)):
        return False
    for (k, exponents), (_, following) in zip(p.classes, p.classes[1:]):
        if len(exponents) < count_irreducibles(p.q, k):
            return False
        if exponents[-1] < following[0]:
            return False
    return True


def format_factored(form: tuple[tuple[int, int], ...]) -> str:
    """Render ((1, 2), (3, 1)) as 'P_1^2 P_3^1'; the empty form is '1'."""
    if not form:
        return "1"
    return " ".join(f"P_{index}^{exponent}" for index, exponent in form)


def factor_pattern(f: PolyFq, tbl: IrreducibleTable) -> ExponentPattern:
    """Factorization pattern of f by trial division against tbl."""
    if tbl.q != f.q:
        raise ValueError(f"table is over F_{tbl.q}, polynomial over F_{f.q}")
    remaining = f
    classes: dict[int, list[int]] = {}
    for p in tbl.primes:
        if p.degree > remaining.degree:
            break
        exponent = 0
        while True:
            quotient, rem = poly_divrem(remaining, p)
            if rem != ():
                break
            exponent += 1
            remaining = PolyFq(f.q, quotient)
        if exponent:
            classes.setdefault(p.degree, []).append(exponent)
    if remaining.degree > 0:
        raise ValueError(
            f"table depth {tbl.max_degree} cannot factor a degree-{f.degree} polynomial"
        )
    return pattern(f.q, classes)


class DegreeMaximum(NamedTuple):
    """Divisor maximum at one exact degree with every attaining pattern."""

    degree: int
    tau: int
    patterns: tuple[ExponentPattern, ...]


def _canonical_key(p: ExponentPattern) -> tuple[tuple[int, ...], ...]:
    """Per class degree 1..max, that class's exponent tuple, or ().

    Ordering these keys orders the full exponent vectors (each class
    zero-padded to pi(k), class 1 first): padding positive tuples with
    zeros to a fixed length never changes a lexicographic comparison.
    """
    key: list[tuple[int, ...]] = []
    for class_degree, exponents in p.classes:
        key += [()] * (class_degree - 1 - len(key))
        key.append(exponents)
    return tuple(key)


def _canonical_order(patterns: Iterable[ExponentPattern]) -> tuple[ExponentPattern, ...]:
    """Sort patterns by descending full exponent vector (class 1 first)."""
    return tuple(sorted(patterns, key=_canonical_key, reverse=True))


def _class_vectors(
    class_degree: int, slots: int, max_exponent: int, budget: int
) -> list[tuple[int, ...]]:
    """Nonempty non-increasing exponent tuples for one class, within budget."""
    out: list[tuple[int, ...]] = []

    def grow(prefix: tuple[int, ...], last: int, left: int, remaining: int) -> None:
        for e in range(min(last, remaining // class_degree), 0, -1):
            vec = prefix + (e,)
            out.append(vec)
            if left > 1 and remaining - e * class_degree >= class_degree:
                grow(vec, e, left - 1, remaining - e * class_degree)

    if slots > 0:
        grow((), max_exponent, slots, budget)
    return out


def brute_force_T(q: int, max_degree: int, prune: bool = True) -> list[DegreeMaximum]:
    """Divisor maximum and all attaining patterns for every degree <= max_degree.

    Enumerates factorization patterns rather than polynomials.  With
    prune=True the walk only visits patterns whose exponents are
    non-increasing in the irreducible degree with no class gaps; every
    maximizer has that shape, because breaking it strictly lowers tau at
    the same degree budget.  prune=False enumerates every pattern and is
    the independent slow oracle.
    """
    ensure_prime_power(q)
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    pis = {k: count_irreducibles(q, k) for k in range(1, max_degree + 1)}
    best: list[int] = [0] * (max_degree + 1)
    arg: list[list[tuple[tuple[int, tuple[int, ...]], ...]]] = [[] for _ in best]

    def record(used: int, tau: int, acc: tuple[tuple[int, tuple[int, ...]], ...]) -> None:
        if tau > best[used]:
            best[used] = tau
            arg[used] = [acc]
        elif tau == best[used]:
            arg[used].append(acc)

    def walk_pruned(
        k: int, used: int, cap: int, tau: int, acc: tuple[tuple[int, tuple[int, ...]], ...]
    ) -> None:
        record(used, tau, acc)
        budget = max_degree - used
        if cap == 0 or k > budget or k > max_degree:
            return
        for vec in _class_vectors(k, min(pis[k], budget // k), cap, budget):
            next_cap = vec[-1] if len(vec) == pis[k] else 0
            walk_pruned(
                k + 1,
                used + k * sum(vec),
                next_cap,
                tau * prod(e + 1 for e in vec),
                acc + ((k, vec),),
            )

    def walk_free(
        k: int, used: int, tau: int, acc: tuple[tuple[int, tuple[int, ...]], ...]
    ) -> None:
        budget = max_degree - used
        if k > budget or k > max_degree:
            record(used, tau, acc)
            return
        walk_free(k + 1, used, tau, acc)
        for vec in _class_vectors(k, min(pis[k], budget // k), budget, budget):
            walk_free(k + 1, used + k * sum(vec), tau * prod(e + 1 for e in vec), acc + ((k, vec),))

    if prune:
        walk_pruned(1, 0, max_degree, 1, ())
    else:
        walk_free(1, 0, 1, ())
    out = []
    for n in range(max_degree + 1):
        patterns = _canonical_order(ExponentPattern(q, acc) for acc in arg[n])
        out.append(DegreeMaximum(n, best[n], patterns))
    return out


class RawDegreeMaximum(NamedTuple):
    """Divisor maximum at one degree with every attaining polynomial."""

    degree: int
    tau: int
    maximizers: tuple[PolyFq, ...]


def raw_polynomial_T(q: int, max_degree: int) -> list[RawDegreeMaximum]:
    """Slow oracle: the divisor count of every monic polynomial of each degree.

    A product sieve over the q**n monic polynomials of degree n: every pair
    of monic g of degree d <= n/2 and h of degree n - d adds one to the
    count of g*h, or two when 2d < n, because the divisors of degree d and
    of degree n - d pair off as g and f/g.  Nothing is factored, so the
    oracle stays independent of the engine and of the irreducible tables.

    Products come from gf_poly.product_keys, which streams the high-degree
    factors, so memory stays at the q**n counts.  Exponential in the
    degree; meant for cross-checks at small sizes.
    """
    if not is_prime(q):
        raise ValueError(f"modulus must be prime, got {q}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    out = []
    for n in range(max_degree + 1):
        base = q**n
        counts = [0] * base
        for d in range(n // 2 + 1):
            weight = 1 if 2 * d == n else 2
            for key in product_keys(q, n, d, range(q**d, 2 * q**d)):
                counts[key - base] += weight
        tau = max(counts)
        maximizers = tuple(poly_from_key(q, base + i) for i, c in enumerate(counts) if c == tau)
        out.append(RawDegreeMaximum(n, tau, maximizers))
    return out

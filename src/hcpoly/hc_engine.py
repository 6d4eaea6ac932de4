"""Divisor maxima: T(n) by a class knapsack, the full table by a slot DP.

_maxima gives T(n) alone, with one knapsack stage per class of
irreducibles of one degree, each class spread evenly (its docstring has
the proof); certify and tmax read T from it.  hc_table, which also
lists every maximizing pattern, still runs the slot DP below.

The slot DP's search space is one slot per usable irreducible, ordered
by degree.  Every maximizer assigns non-increasing exponents along that
slot order (a higher exponent on a higher-degree irreducible could be
swapped down to reach the same tau at lower degree, contradicting
maximality at the exact degree, since the maximum is strictly
increasing in the degree).
The DP state is (slot index, remaining degree budget, exponent cap); one
memoized pass yields T(n) for every n at once and a backtracking pass
recovers every optimal exponent assignment, which is a factorization
pattern, already in canonical order.  All arithmetic is exact.

Records carry the markers of the distinguished families: SHC for degrees
holding a superior maximizer, SSHC for the strict half-step members in
between.  Both come from superior.families, the grid walk that also
anchors the certificates of bounds: the SHC degrees are its tops, and a
family's members step down from its top by s to its bottom, so the SSHC
degrees are ranges, with no member built.  A versioned JSON cache, one
compact line per file (big integers as decimal strings), makes repeated
table requests cheap; writes are atomic via os.replace.  The cache code
imports json and tempfile itself, so importing the engine loads
neither.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .divisor_core import (
    ExponentPattern,
    _canonical_key,
    pattern,
    pattern_degree,
    pattern_tau,
    realization_count,
)
from .irreducibles import count_irreducibles, ensure_prime_power
from .superior import families

MARKER_NONE = "none"
MARKER_SSHC = "SSHC"
MARKER_SHC = "SHC"

CACHE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class HCRecord:
    """Everything known about the divisor maximum at one degree."""

    degree: int
    tau: int
    patterns: tuple[ExponentPattern, ...]
    total_polynomials: int
    marker: str = MARKER_NONE


def _class_cutoff(q: int, max_degree: int) -> int:
    """The highest irreducible degree a maximizer of degree <= max_degree uses.

    This is the smallest b whose cumulative degree mass
    sum(a * pi(a), a <= b) reaches max_degree.  Along the degree order a
    maximizer's exponents never rise (the engine's module docstring), so
    touching class b+1 requires every irreducible of degree <= b to have
    exponent at least 1, which already exceeds the budget.
    """
    mass = 0
    b = 0
    while mass < max_degree:
        b += 1
        mass += b * count_irreducibles(q, b)
    return b


def _slot_degrees(q: int, max_degree: int) -> list[int]:
    """Degrees of the irreducible slots the DP ranges over, ascending.

    Classes 1.._class_cutoff are taken whole, except that the slots per
    class are capped at max_degree // class degree, which no pattern
    within budget can exceed.
    """
    slots = []
    for k in range(1, _class_cutoff(q, max_degree) + 1):
        slots.extend([k] * min(count_irreducibles(q, k), max_degree // k))
    return slots


def _maxima(q: int, max_degree: int) -> list[int]:
    """T(n) for every degree 0..max_degree, by one knapsack stage per class.

    Even spread (Ramanujan, Highly composite numbers, Proc. LMS 1915): a
    maximizer spreads each class evenly.  Let two irreducibles of one
    degree carry exponents e > e' + 1.  Moving one unit from the first to
    the second keeps the degree and turns the factor (e+1)(e'+1) of tau
    into e(e'+2), larger by e - e' - 1 > 0.  So in a maximizer the c
    exponents of a class differ by at most 1, and with total m and
    (a, b) = divmod(m, c) the class contributes exactly
    gain_k(m) = (a+2)**b * (a+1)**(c-b).  T(n) is then the largest
    product of gain_k(m_k) over class totals with sum(k * m_k) = n,
    which the stages

        T_k[n] = max over m <= n // k of T_{k-1}[n - k*m] * gain_k(m)

    reach, 0 standing for an unreachable degree.  Classes past
    _class_cutoff are left out, since no maximizer of degree
    <= max_degree uses them, and class 1 makes every degree reachable.
    """
    T = [1] + [0] * max_degree
    for k in range(1, _class_cutoff(q, max_degree) + 1):
        c = count_irreducibles(q, k)
        spreads = (divmod(m, c) for m in range(max_degree // k + 1))
        gains = [(a + 2) ** b * (a + 1) ** (c - b) for a, b in spreads]
        T = [max(T[n - k * m] * gains[m] for m in range(n // k + 1)) for n in range(max_degree + 1)]
    return T


def _compute_records(q: int, max_degree: int) -> list[HCRecord]:
    slots = _slot_degrees(q, max_degree)
    n_slots = len(slots)
    memo: dict[tuple[int, int, int], int | None] = {}

    def best(i: int, budget: int, cap: int) -> int | None:
        """Max tau over monotone exponent assignments to slots i.. spending
        exactly budget; None when unreachable."""
        if budget == 0:
            return 1
        if i == n_slots:
            return None
        k = slots[i]
        top = min(cap, budget // k)
        key = (i, budget, top)
        if key in memo:
            return memo[key]
        result = None
        for e in range(top, 0, -1):
            sub = best(i + 1, budget - e * k, e)
            if sub is not None:
                candidate = (e + 1) * sub
                if result is None or candidate > result:
                    result = candidate
        memo[key] = result
        return result

    def collect(
        i: int, budget: int, cap: int, need: int, prefix: tuple[tuple[int, int], ...]
    ) -> list[tuple[tuple[int, int], ...]]:
        """All monotone assignments from state (i, budget, cap) whose tau
        product equals need, strictly descending on _canonical_key.

        Slots go in order, exponents high to low.  Two assignments of one
        degree spend the same budget on a shared prefix, so they first
        differ where both are positive: the slot vectors strictly descend.
        A class's slots are a fixed prefix of its pi(k) irreducibles, with
        non-increasing exponents, so slot-vector order is key order.
        """
        if budget == 0:
            return [prefix] if need == 1 else []
        out = []
        k = slots[i]
        for e in range(min(cap, budget // k), 0, -1):
            sub = best(i + 1, budget - e * k, e)
            if sub is not None and (e + 1) * sub == need:
                out.extend(collect(i + 1, budget - e * k, e, sub, prefix + ((k, e),)))
        return out

    records = []
    for n in range(max_degree + 1):
        tau = best(0, n, n)
        if tau is None:
            raise AssertionError(f"degree {n} unreachable; slot model broken")
        assignments = collect(0, n, n, tau, ())
        patterns = []
        for assignment in assignments:
            grouped: dict[int, list[int]] = {}
            for k, e in assignment:
                grouped.setdefault(k, []).append(e)
            patterns.append(pattern(q, grouped))
        total = sum(realization_count(p) for p in patterns)
        records.append(HCRecord(n, tau, tuple(patterns), total))
    # best refers to itself, so without this the memo would live on until
    # the cyclic collector ran, under the next table's DP
    memo.clear()
    return records


def _marker_degrees(q: int, max_degree: int) -> tuple[set[int], set[int]]:
    """The SHC and the SSHC degrees up to max_degree.

    Reads superior.families: each family contributes its superior
    maximizer's degree (SHC) and the degrees of its strict intermediate
    members (SSHC), top - v*s for 0 < v < pi(s), from the first at or
    below max_degree down to just above the bottom; the walk's docstring
    proves that it lists every member of degree <= max_degree.
    """
    shc_degrees: set[int] = set()
    sshc_degrees: set[int] = set()
    for top in families(q, max_degree):
        s = top.point.s
        if top.degree <= max_degree:
            shc_degrees.add(top.degree)
        first = top.degree - s * max(1, -(-(top.degree - max_degree) // s))
        sshc_degrees.update(range(first, top.degree - s * top.pi_s, -s))
    overlap = shc_degrees & sshc_degrees
    if overlap:
        raise AssertionError(f"degree marked both ways: {sorted(overlap)}")
    return shc_degrees, sshc_degrees


def _marker(degree: int, shc_degrees: set[int], sshc_degrees: set[int]) -> str:
    if degree in shc_degrees:
        return MARKER_SHC
    return MARKER_SSHC if degree in sshc_degrees else MARKER_NONE


def annotate_markers(records: list[HCRecord], q: int) -> list[HCRecord]:
    """Return records with SHC / SSHC markers filled in."""
    if not records:
        return []
    shc_degrees, sshc_degrees = _marker_degrees(q, records[-1].degree)
    out = []
    for record in records:
        marker = _marker(record.degree, shc_degrees, sshc_degrees)
        out.append(record if marker == MARKER_NONE else replace(record, marker=marker))
    return out


def _pattern_to_json(p: ExponentPattern) -> dict:
    return {
        "classes": [
            {"class_degree": k, "exponents": list(exponents)} for k, exponents in p.classes
        ],
        "realizations": str(realization_count(p)),
    }


def _pattern_from_json(q: int, degree: int, doc: dict) -> ExponentPattern:
    """Rebuild a cached pattern of the given degree.

    Every class degree and exponent must be an int in 1..degree: a bool or
    a float would compare equal to an int and change the printed JSON, and
    the bound, checked before ExponentPattern is built, keeps a doctored
    file from asking count_irreducibles for an absurd class degree.
    """
    classes = {c["class_degree"]: c["exponents"] for c in doc["classes"]}
    for k, exponents in classes.items():
        if not all(type(x) is int and 0 < x <= degree for x in (k, *exponents)):
            raise ValueError(f"malformed cached class at degree {degree}")
    return pattern(q, classes)


def _record_to_json(record: HCRecord) -> dict:
    return {
        "degree": record.degree,
        "tau": str(record.tau),
        "marker": record.marker,
        "total_polynomials": str(record.total_polynomials),
        "patterns": [_pattern_to_json(p) for p in record.patterns],
    }


def _record_from_json(q: int, degree: int, doc: dict) -> HCRecord:
    if doc["degree"] != degree:
        raise ValueError(f"cached record out of place at degree {degree}")
    if doc["marker"] not in (MARKER_NONE, MARKER_SSHC, MARKER_SHC):
        raise ValueError(f"unknown cached marker at degree {degree}")
    return HCRecord(
        degree=degree,
        tau=int(doc["tau"]),
        patterns=tuple(_pattern_from_json(q, degree, p) for p in doc["patterns"]),
        total_polynomials=int(doc["total_polynomials"]),
        marker=doc["marker"],
    )


def _consistent(record: HCRecord) -> bool:
    """Whether tau, degree and the polynomial count re-derive from the
    patterns, listed in _compute_records's strictly descending order."""
    keys = [_canonical_key(p) for p in record.patterns]
    return (
        bool(record.patterns)
        and all(
            pattern_degree(p) == record.degree and pattern_tau(p) == record.tau
            for p in record.patterns
        )
        and all(a > b for a, b in zip(keys, keys[1:]))
        and record.total_polynomials == sum(realization_count(p) for p in record.patterns)
    )


def _cache_path(cache_dir: str | os.PathLike[str], q: int, max_degree: int) -> str:
    name = f"hc_table_q{q}_n{max_degree}_v{CACHE_FORMAT_VERSION}.json"
    return os.path.join(cache_dir, name)


def _load_cache(path: str, q: int, max_degree: int) -> list[HCRecord] | None:
    """The cached table, or None when the file is unreadable, stale or
    malformed, when a record's tau, degree or polynomial count does not
    re-derive from its patterns, when its patterns are out of order or
    repeated, or when a marker differs from the grid walk's.  The walk
    does not go through annotate_markers, because perfbench's tracer
    counts a table call that calls it as a cache miss."""
    import json

    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError, RecursionError):
        return None
    if (
        not isinstance(doc, dict)
        or doc.get("format_version") != CACHE_FORMAT_VERSION
        or doc.get("q") != q
        or doc.get("max_degree") != max_degree
        or not isinstance(doc.get("records"), list)
        or len(doc["records"]) != max_degree + 1
    ):
        return None
    try:
        records = [_record_from_json(q, n, r) for n, r in enumerate(doc["records"])]
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    if not all(_consistent(r) for r in records):
        return None
    marked = _marker_degrees(q, max_degree)
    if any(r.marker != _marker(r.degree, *marked) for r in records):
        return None
    return records


def _store_cache(path: str, q: int, max_degree: int, records: list[HCRecord]) -> None:
    import json
    import tempfile

    doc = {
        "format_version": CACHE_FORMAT_VERSION,
        "q": q,
        "max_degree": max_degree,
        "records": [_record_to_json(r) for r in records],
    }
    directory = os.path.dirname(path) or os.curdir
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        # one compact line: json.dump to a file never takes the C encoder
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(doc, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def hc_table(
    q: int, max_degree: int, cache_dir: str | os.PathLike[str] | None = None
) -> list[HCRecord]:
    """Records for every degree 0..max_degree, markers included.

    With cache_dir set, a valid cached table is returned as-is and fresh
    results are written back atomically; a stale, unreadable or malformed
    cache file, or one whose records or markers do not re-derive, is
    silently recomputed.
    """
    ensure_prime_power(q)
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    path = _cache_path(cache_dir, q, max_degree) if cache_dir is not None else None
    if path is not None:
        cached = _load_cache(path, q, max_degree)
        if cached is not None:
            return cached
    records = annotate_markers(_compute_records(q, max_degree), q)
    if path is not None:
        _store_cache(path, q, max_degree, records)
    return records

"""Divisor-maximum table by dynamic programming over prime slots.

The search space is one slot per usable irreducible, ordered by degree.
Every maximizer assigns non-increasing exponents along that slot order
(a higher exponent on a higher-degree irreducible could be swapped down
to reach the same tau at lower degree, contradicting maximality at the
exact degree, since the maximum is strictly increasing in the degree).
The DP state is (slot index, remaining degree budget, exponent cap); one
memoized pass yields T(n) for every n at once and a backtracking pass
recovers every optimal exponent assignment, which is a factorization
pattern, already in canonical order.  All arithmetic is exact.

Records carry the markers of the distinguished families: SHC for degrees
holding a superior maximizer, SSHC for the strict half-step members in
between, read from superior.families, the grid walk that also anchors
the certificates of bounds.  A versioned JSON cache, one compact line
per file (big integers as decimal strings), makes repeated table
requests cheap; writes are atomic via os.replace.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

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


def _slot_degrees(q: int, max_degree: int) -> list[int]:
    """Degrees of the irreducible slots the DP ranges over, ascending.

    Classes are taken whole up to the smallest b whose cumulative degree
    mass sum(a * pi(a), a <= b) reaches max_degree: any maximizer of
    degree <= max_degree fits, because touching class b+1 requires filling
    all lower classes first, which already exceeds the budget.  Slots per
    class are additionally capped at max_degree // class degree, which no
    pattern within budget can exceed.
    """
    mass = 0
    b = 0
    while mass < max_degree:
        b += 1
        mass += b * count_irreducibles(q, b)
    if mass < max_degree:
        raise AssertionError(f"slot cutoff failed for q={q}, max_degree={max_degree}")
    slots = []
    for k in range(1, b + 1):
        slots.extend([k] * min(count_irreducibles(q, k), max_degree // k))
    return slots


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
    members (SSHC); the walk's docstring proves that it lists every
    member of degree <= max_degree.
    """
    shc_degrees: set[int] = set()
    sshc_degrees: set[int] = set()
    for _, family in families(q, max_degree):
        if family[0].degree <= max_degree:
            shc_degrees.add(family[0].degree)
        sshc_degrees.update(e.degree for e in family[1:-1] if e.degree <= max_degree)
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


def _cache_path(cache_dir: str | Path, q: int, max_degree: int) -> Path:
    name = f"hc_table_q{q}_n{max_degree}_v{CACHE_FORMAT_VERSION}.json"
    return Path(cache_dir) / name


def _load_cache(path: Path, q: int, max_degree: int) -> list[HCRecord] | None:
    """The cached table, or None when the file is unreadable, stale or
    malformed, when a record's tau, degree or polynomial count does not
    re-derive from its patterns, when its patterns are out of order or
    repeated, or when a marker differs from the grid walk's.  The walk
    does not go through annotate_markers, because perfbench's tracer
    counts a table call that calls it as a cache miss."""
    try:
        doc = json.loads(path.read_text())
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


def _store_cache(path: Path, q: int, max_degree: int, records: list[HCRecord]) -> None:
    doc = {
        "format_version": CACHE_FORMAT_VERSION,
        "q": q,
        "max_degree": max_degree,
        "records": [_record_to_json(r) for r in records],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
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


def hc_table(q: int, max_degree: int, cache_dir: str | Path | None = None) -> list[HCRecord]:
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

"""Output checks for the benchmark's CLI calls.

Each check parses one captured output and raises CheckFailed on the first
disagreement with the reference mathematics in reference.py or with a
property the method guarantees.  Nothing is compared with a saved copy of
a previous run, except the published q=2 table the paper prints.
"""

from __future__ import annotations

import json
import math
import re

import reference as ref

# the exhaustive scan covers every monic polynomial up to these degrees
SCAN_LIMITS = {2: 12, 3: 7}

_MARKER_PREFIX = {ref.MARKER_NONE: "", ref.MARKER_SSHC: "*", ref.MARKER_SHC: "**"}
_ROW = re.compile(r"^(\*{0,2})(P_\d+\^\d+(?: P_\d+\^\d+)*)\t(\d+)\t(\d+)$")


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_table_json(text: str, q: int, N: int) -> list[int]:
    """Check `hc-table --format json` output; return T(0..N) as emitted."""
    require(text.endswith("}\n"), f"hc-table q={q} N={N}: output is not one JSON document")
    doc = json.loads(text)
    require(doc.get("q") == q and doc.get("max_degree") == N, f"hc-table q={q} N={N}: wrong header")
    records = doc["records"]
    require(len(records) == N + 1, f"hc-table q={q} N={N}: {len(records)} records")
    maxima = ref.divisor_maxima(q, N)
    marked = ref.markers(q, N)
    scan = ref.exhaustive_maxima(q, SCAN_LIMITS[q]) if q in SCAN_LIMITS else ()
    emitted_T = []
    for n, record in enumerate(records):
        where = f"hc-table q={q} N={N} degree {n}"
        require(record["degree"] == n, f"{where}: record out of order")
        tau = int(record["tau"])
        total = int(record["total_polynomials"])
        seen = set()
        realizations = 0
        for p in record["patterns"]:
            classes = _pattern_classes(q, p["classes"], where)
            key = tuple(sorted(classes.items()))
            require(key not in seen, f"{where}: pattern repeated")
            seen.add(key)
            degree = sum(k * sum(exponents) for k, exponents in classes.items())
            require(degree == n, f"{where}: a pattern has degree {degree}")
            pattern_tau = math.prod(e + 1 for exponents in classes.values() for e in exponents)
            require(pattern_tau == tau, f"{where}: a pattern has tau {pattern_tau}, record says {tau}")
            count = ref.pattern_realizations(q, classes)
            require(int(p["realizations"]) == count, f"{where}: realizations {p['realizations']} != {count}")
            realizations += count
        require(realizations == total, f"{where}: patterns realize {realizations}, total says {total}")
        require(tau == maxima.T[n], f"{where}: tau {tau} != T = {maxima.T[n]}")
        require(total == maxima.count[n], f"{where}: {total} maximizers, expected {maxima.count[n]}")
        if n:
            previous = emitted_T[-1]
            require(previous < tau <= 2 * previous, f"{where}: T not in (T(n-1), 2*T(n-1)]")
        if n <= q:
            require(
                tau == 2**n and total == math.comb(q, n),
                f"{where}: expected 2^n with C(q, n) squarefree linear maximizers",
            )
        if n < len(scan):
            require((tau, total) == scan[n], f"{where}: exhaustive scan gives {scan[n]}")
        marker, family_tau = marked.get(n, (ref.MARKER_NONE, None))
        require(record["marker"] == marker, f"{where}: marker {record['marker']}, expected {marker}")
        if family_tau is not None:
            require(tau == family_tau, f"{where}: T {tau} != family member tau {family_tau}")
        emitted_T.append(tau)
    return emitted_T


def _pattern_classes(q: int, classes: list[dict], where: str) -> dict[int, tuple[int, ...]]:
    out: dict[int, tuple[int, ...]] = {}
    last = 0
    for c in classes:
        k = c["class_degree"]
        exponents = tuple(c["exponents"])
        require(k > last, f"{where}: class degrees not increasing")
        last = k
        require(exponents and all(e > 0 for e in exponents), f"{where}: empty or nonpositive exponents")
        require(list(exponents) == sorted(exponents, reverse=True), f"{where}: exponents not sorted")
        require(len(exponents) <= ref.count_irreducibles(q, k), f"{where}: class {k} overfull")
        out[k] = exponents
    return out


def check_table_text(text: str, q: int, N: int, published: list[str] | None = None) -> None:
    """Check the text `hc-table` rows; published holds the paper's rows, if any."""
    lines = text.split("\n")
    require(lines[-1] == "" and lines[0] == "f\tdeg\ttau", f"hc-table text q={q} N={N}: bad framing")
    rows = lines[1:-1]
    if published is not None:
        require(published[0] == lines[0], "published table: header differs")
        last = int(published[-1].split("\t")[1])
        shown = [row for row in rows if int(row.split("\t")[1]) <= last]
        require(shown == published[1:], f"hc-table text: rows of degree <= {last} differ from the published table")
    maxima = ref.divisor_maxima(q, N)
    marked = ref.markers(q, N)
    offsets = [0]  # offsets[k]: how many irreducibles have degree < k + 1
    by_degree: dict[int, set[tuple[tuple[int, int], ...]]] = {}
    for row in rows:
        match = _ROW.match(row)
        require(match is not None, f"hc-table text: unparsable row {row!r}")
        prefix, form, degree, tau = match.groups()
        n = int(degree)
        where = f"hc-table text q={q} N={N} degree {n}"
        require(1 <= n <= N and n >= max(by_degree, default=1), f"{where}: degree out of order")
        factors = tuple((int(i), int(e)) for i, e in re.findall(r"P_(\d+)\^(\d+)", form))
        require(list(factors) == sorted(factors) and len({i for i, _ in factors}) == len(factors),
                f"{where}: factors not in index order")
        total_degree = 0
        for index, exponent in factors:
            while offsets[-1] < index:
                offsets.append(offsets[-1] + ref.count_irreducibles(q, len(offsets)))
            k = next(k for k in range(1, len(offsets)) if index <= offsets[k])
            total_degree += k * exponent
        require(total_degree == n, f"{where}: row has degree {total_degree}")
        row_tau = math.prod(e + 1 for _, e in factors)
        require(row_tau == int(tau) == maxima.T[n], f"{where}: tau {tau}, row gives {row_tau}")
        marker = marked.get(n, (ref.MARKER_NONE, None))[0]
        require(prefix == _MARKER_PREFIX[marker], f"{where}: prefix {prefix!r}, expected {marker}")
        forms = by_degree.setdefault(n, set())
        require(factors not in forms, f"{where}: row repeated")
        forms.add(factors)
    for n in range(1, N + 1):
        found = len(by_degree.get(n, ()))
        require(found == maxima.count[n], f"hc-table text degree {n}: {found} rows, expected {maxima.count[n]}")


def check_certify_json(text: str, q: int, N: int, table_T: list[int] | None = None) -> None:
    """Check `certify` output: re-derive every anchor and re-check every bracket."""
    doc = json.loads(text)
    require(doc.get("q") == q and doc.get("max_degree") == N, f"certify q={q} N={N}: wrong header")
    certificates = doc["certificates"]
    require(len(certificates) == N, f"certify q={q} N={N}: {len(certificates)} certificates")
    maxima = ref.divisor_maxima(q, N)
    for n, cert in enumerate(certificates, 1):
        where = f"certify q={q} degree {n}"
        require(cert["N"] == n, f"{where}: out of order")
        T = int(cert["T"])
        require(T == maxima.T[n], f"{where}: T {T} != {maxima.T[n]}")
        if table_T is not None:
            require(T == table_T[n], f"{where}: T differs from hc-table")
        require(cert["lower_ok"] and cert["upper_ok"] and cert["width_ok"], f"{where}: reported not ok")
        _check_anchor(q, N, n, cert["s"], cert["r"], cert["v"], cert["u"],
                      cert["anchor_degree"], int(cert["anchor_tau"]), where)
        require(ref.certificate_holds(T, cert["s"], cert["r"], cert["u"], int(cert["anchor_tau"])),
                f"{where}: bracket fails the re-check")
        epsilon = math.log(int(cert["anchor_tau"])) - math.log(T)
        require(abs(cert["epsilon_approx"] - epsilon) <= 1e-9, f"{where}: epsilon display off")


def _check_anchor(q: int, N: int, n: int, s: int, r: int, v: int, u: int,
                  anchor_degree: int, anchor_tau: int, where: str) -> None:
    h = ref.anchor(q, N, n)
    require((s, r) == (h.s, h.r), f"{where}: anchor ({s}, {r}), expected ({h.s}, {h.r})")
    require((v, u) == divmod(h.degree - n, s), f"{where}: v={v} u={u} do not split the gap")
    require(0 <= v < h.pi_s, f"{where}: v outside the family")
    require((anchor_degree, anchor_tau) == h.member(v), f"{where}: anchor member differs")


_TMAX = re.compile(
    r"T\((\d+)\) = (\d+)\n"
    r"anchor: s=(\d+) r=(\d+) v=(\d+) u=(\d+) \(degree (\d+), tau (\d+)\)\n"
    r"epsilon\(\d+\) ~ \S+ \(display only\)\n"
    r"bounds: .*\n"
    r"certificate: lower_ok=True upper_ok=True width_ok=True\n\Z"
)


def check_tmax(text: str, q: int, n: int) -> None:
    match = _TMAX.match(text)
    require(match is not None, f"tmax q={q} n={n}: unexpected output {text[:200]!r}")
    shown_n, T, s, r, v, u, anchor_degree, anchor_tau = (int(g) for g in match.groups())
    where = f"tmax q={q} n={n}"
    require(shown_n == n and T == ref.divisor_maxima(q, n).T[n], f"{where}: T({shown_n}) = {T} is wrong")
    _check_anchor(q, n, n, s, r, v, u, anchor_degree, anchor_tau, where)
    require(ref.certificate_holds(T, s, r, u, anchor_tau), f"{where}: bracket fails the re-check")


def check_verify(text: str) -> None:
    """Every check `verify` reports is ok, and it says so at the end."""
    lines = text.split("\n")
    require(lines[-2:] == ["all checks passed", ""], "verify: did not pass")
    checks = lines[:-2]
    require(checks and any("raw-polynomial-oracle" in line for line in checks), "verify: the raw oracle did not run")
    for line in checks:
        require(line.startswith("check ") and line.endswith(": ok"), f"verify: {line!r}")

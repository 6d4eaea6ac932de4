"""Command-line front end.

Exit codes: 0 success, 1 validation error, exhausted memory or recursion
depth, or an interrupt (single-line diagnostic on stderr), 2 a
verify/certify suite found a violation (first counterexample reported).
A stdout closed by its reader ends the output quietly with exit code 1.
All normal output goes to stdout; JSON output is a single document ending
in one newline, with big integers as decimal strings and keys sorted, in
the layout of json.dumps(doc, indent=2, sort_keys=True), so
re-serializing a parsed document is byte-identical.  _emit_json writes it
as a stream, so a long listing is never held whole in memory.

Each command imports the layers it runs when it runs, so importing this
module loads no other hcpoly module.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import reduce
from json.encoder import encode_basestring_ascii
from math import log
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .hc_engine import HCRecord


_INF = float("inf")
_FLUSH_PARTS = 512


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


_LEAF = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


def _emit_json(doc) -> None:
    """Write doc to stdout as exactly the bytes of
    json.dumps(doc, indent=2, sort_keys=True) + "\n", without holding the
    whole document.

    The layout is json's: every array element and object member on a line
    of its own, indented two spaces per level; object keys sorted and
    escaped by encode_basestring_ascii, the C function json uses; empty
    containers as [] and {}; None, bools, ints and floats as json spells
    them, NaN and the infinities included. A dict (with str keys) is an
    object, a str is a string, and any other iterable is an array, so a
    generator in array position streams its items. The parts are written
    out whenever more than _FLUSH_PARTS of them wait after an array
    element.
    """
    parts: list[str] = []
    append = parts.append
    write = sys.stdout.write

    def value(x, indent: str) -> None:
        encode = _LEAF.get(type(x))
        if encode is not None:
            append(encode(x))
        elif isinstance(x, dict):
            if not x:
                append("{}")
                return
            inner = indent + "  "
            sep = "{" + inner
            for key in sorted(x):
                append(sep + encode_basestring_ascii(key) + ": ")
                value(x[key], inner)
                sep = "," + inner
            append(indent + "}")
        elif type(x) in (list, tuple) and {*map(type, x)} == {int}:
            inner = indent + "  "
            append("[" + inner + ("," + inner).join(map(int.__repr__, x)) + indent + "]")
        else:
            inner = indent + "  "
            first = sep = "[" + inner
            for item in x:
                append(sep)
                value(item, inner)
                sep = "," + inner
                if len(parts) > _FLUSH_PARTS:
                    write("".join(parts))
                    parts.clear()
            append("[]" if sep is first else indent + "]")

    value(doc, "\n")
    append("\n")
    write("".join(parts))


def _require_nonnegative(value: int, name: str) -> None:
    if value < 0:
        raise ValueError(f"--{name} must be nonnegative, got {value}")


def _cmd_pi(args: argparse.Namespace) -> int:
    from .irreducibles import count_irreducibles

    print(count_irreducibles(args.q, args.n))
    return 0


def _cmd_irreducibles(args: argparse.Namespace) -> int:
    from .gf_poly import format_poly, order_key
    from .irreducibles import enumerate_irreducibles

    _require_nonnegative(args.max_degree, "max-degree")
    tbl = enumerate_irreducibles(args.q, args.max_degree)
    if args.format == "json":
        rows = (
            {
                "index": i,
                "degree": p.degree,
                "poly": format_poly(p),
                "key": str(order_key(p)),
            }
            for i, p in enumerate(tbl.primes, 1)
        )
        _emit_json({"q": args.q, "max_degree": args.max_degree, "rows": rows})
    else:
        print(f"i\tP_i(t)\tdeg\tP_i({args.q})")
        for i, p in enumerate(tbl.primes, 1):
            print(f"{i}\t{format_poly(p)}\t{p.degree}\t{order_key(p)}")
    return 0


def _cmd_s_set(args: argparse.Namespace) -> int:
    from .superior import enumerate_spoints

    _require_nonnegative(args.count, "count")
    points = enumerate_spoints(args.count)
    print(f"s\tr\tx_approx(q={args.q}, display only)")
    for point in points:
        x = point.s * log(args.q) / log(1 + 1 / point.r)
        print(f"{point.s}\t{point.r}\t{x:.6g}")
    return 0


# shc prints the pi(s) + 1 members of the family, each with its tau and
# multiplicity, so its output grows faster than pi(s)**2 digits: q=2 s=17
# (pi = 7,710) prints 43 MB.  The ceiling admits that, and refuses q=101
# s=3 (pi = 343,400), whose output would run to tens of GB.
_SHC_MAX_FAMILY = 10_000
# The superior degree bounds the bits of tau, since tau(f) <= 2**deg(f),
# so with the pi(s) ceiling it bounds the output.  The ceiling admits q=2
# s=17 r=1 (degree 262,900) and q=4 s=8 r=1 (degree 87,464), and refuses
# q=2 s=1 r=200, whose tau is a product over about 2**132 irreducibles.
_SHC_MAX_DEGREE = 300_000


def _cmd_shc(args: argparse.Namespace) -> int:
    from .irreducibles import count_irreducibles
    from .superior import SPoint, _exponents, shc_pattern, sshc_family

    point = SPoint(args.s, args.r)
    pi_s = count_irreducibles(args.q, point.s)
    if pi_s > _SHC_MAX_FAMILY:
        raise ValueError(
            f"the family at s={point.s} has pi(s) = {pi_s} members, "
            f"over the ceiling of {_SHC_MAX_FAMILY}"
        )
    degree = 0
    for k, a in enumerate(_exponents(point.s, point.r), 1):
        degree += k * a * count_irreducibles(args.q, k)
        if degree > _SHC_MAX_DEGREE:
            raise ValueError(
                f"the superior maximizer at s={point.s} r={point.r} "
                f"passes the degree ceiling of {_SHC_MAX_DEGREE}"
            )
    h = shc_pattern(point, args.q)
    family = sshc_family(point, args.q)
    print(f"point: s={point.s} r={point.r}")
    print(f"exponents: {list(h.exponents)}")
    print(f"degree: {h.degree}")
    print(f"tau: {h.tau}")
    print(f"family (pi(s) = {pi_s}):")
    for entry in family:
        print(
            f"  v={entry.v}: degree {entry.degree}, tau {entry.tau}, "
            f"multiplicity {entry.multiplicity}"
        )
    return 0


def _cache_dir(args: argparse.Namespace) -> str | None:
    return os.environ.get("HCPOLY_CACHE") or args.cache


def _top_class_degree(records: list[HCRecord]) -> int:
    """Highest irreducible degree used by any pattern of these records."""
    return max((k for r in records for p in r.patterns for k, _ in p.classes), default=0)


def _cmd_hc_table(args: argparse.Namespace) -> int:
    from . import divisor_core, hc_engine
    from .irreducibles import enumerate_irreducibles

    _require_nonnegative(args.max_degree, "max-degree")
    records = hc_engine.hc_table(args.q, args.max_degree, cache_dir=_cache_dir(args))
    need_rows = args.format == "table" or args.explicit
    tbl = None
    if need_rows:
        tbl = enumerate_irreducibles(args.q, _top_class_degree(records))
    if args.format == "json":
        def record_doc(record: HCRecord) -> dict:
            doc = hc_engine._record_to_json(record)
            if args.explicit:
                doc["polynomials"] = (
                    divisor_core.format_factored(form)
                    for p in record.patterns
                    for form in divisor_core.realize_polynomials(p, tbl)
                )
            return doc

        docs = map(record_doc, records)
        _emit_json({"q": args.q, "max_degree": args.max_degree, "records": docs})
        return 0
    marker_prefix = {
        hc_engine.MARKER_NONE: "",
        hc_engine.MARKER_SSHC: "*",
        hc_engine.MARKER_SHC: "**",
    }
    print("f\tdeg\ttau")
    for record in records:
        if record.degree == 0:
            continue  # the empty product; the published layout starts at degree 1
        prefix = marker_prefix[record.marker]
        for p in record.patterns:
            for form in divisor_core.realize_polynomials(p, tbl):
                print(f"{prefix}{divisor_core.format_factored(form)}\t{record.degree}\t{record.tau}")
    return 0


# The time of the class knapsack behind tmax and certify grows as about
# N**2.3: at q=2 it took 4.1 s at N=5,000 and 20 s at N=10,000 on a 2-CPU
# x86-64 host, so N=100,000 would run for hours.
_MAX_DEGREE = 10_000


def _require_degree(value: int, name: str) -> None:
    _require_nonnegative(value, name)
    if value > _MAX_DEGREE:
        raise ValueError(f"--{name} {value} is over the ceiling of {_MAX_DEGREE}")


def _cmd_tmax(args: argparse.Namespace) -> int:
    from . import bounds, hc_engine, superior

    _require_degree(args.n, "n")
    T = hc_engine._maxima(args.q, args.n)[args.n]
    print(f"T({args.n}) = {T}")
    if not args.bounds:
        return 0
    if args.n == 0:
        print("no anchor decomposition at degree 0 (the empty product)")
        return 0
    cert = bounds._certificate(superior.families(args.q, args.n), args.n, T)
    point = cert.point
    print(
        f"anchor: s={point.s} r={point.r} v={cert.v} u={cert.u} "
        f"(degree {cert.anchor_degree}, tau {cert.anchor_tau})"
    )
    print(f"epsilon({args.n}) ~ {cert.epsilon_approx():.6g} (display only)")
    if cert.u:
        lo, hi = bounds.epsilon_bounds(point, args.q, cert.u)
        print(
            f"bounds: ({cert.u}/{point.s})*log(1+1/{point.r}) ~ {lo.approx():.6g} "
            f"<= epsilon <= log(1+1/{hi.den}) ~ {hi.approx():.6g} (display only)"
        )
    else:
        print("bounds: epsilon = 0 exactly (degree sits on a family member)")
    print(f"certificate: lower_ok={cert.lower_ok} upper_ok={cert.upper_ok} width_ok={cert.width_ok}")
    return 0 if cert.ok else 2


def _cmd_certify(args: argparse.Namespace) -> int:
    from . import bounds

    _require_degree(args.max_degree, "max-degree")
    if args.max_degree < 1:
        raise ValueError("--max-degree must be at least 1 for certification")
    certs = bounds.verify_T_bounds(args.q, args.max_degree)
    docs = (
        {
            "N": cert.N,
            "s": cert.point.s,
            "r": cert.point.r,
            "v": cert.v,
            "u": cert.u,
            "anchor_degree": cert.anchor_degree,
            "anchor_tau": str(cert.anchor_tau),
            "T": str(cert.T),
            "lower_ok": cert.lower_ok,
            "upper_ok": cert.upper_ok,
            "width_ok": cert.width_ok,
            "epsilon_approx": round(cert.epsilon_approx(), 12),
        }
        for cert in certs
    )
    _emit_json({"q": args.q, "max_degree": args.max_degree, "certificates": docs})
    for cert in certs:
        if not cert.ok:
            print(
                f"violation: N={cert.N} lower_ok={cert.lower_ok} "
                f"upper_ok={cert.upper_ok} width_ok={cert.width_ok}",
                file=sys.stderr,
            )
            return 2
    return 0


def _maximizer_docs(records: list[HCRecord]) -> list[dict]:
    from . import hc_engine

    return [
        {
            "degree": record.degree,
            "tau": str(record.tau),
            "patterns": doc["classes"],
            "realizations": doc["realizations"],
        }
        for record in records
        for doc in map(hc_engine._pattern_to_json, record.patterns)
    ]


def _run_verify_checks(q: int, max_degree: int) -> tuple[list[tuple[str, bool, str]], list]:
    from . import divisor_core, hc_engine
    from .gf_poly import PolyFq, is_prime, poly_mul
    from .irreducibles import enumerate_irreducibles

    checks = []
    records = hc_engine.hc_table(q, max_degree)

    for label, limit, prune in (
        ("pattern-oracle", max_degree, True),
        ("unpruned-oracle", min(max_degree, 14), False),
    ):
        oracle = divisor_core.brute_force_T(q, limit, prune=prune)
        bad = [
            n
            for n in range(limit + 1)
            if oracle[n].tau != records[n].tau or set(oracle[n].patterns) != set(records[n].patterns)
        ]
        checks.append(
            (
                f"{label} q={q} n<={limit}",
                not bad,
                "" if not bad else f"first mismatch at degree {bad[0]}",
            )
        )

    if is_prime(q):
        raw_limit = max(n for n in range(min(max_degree, 14) + 1) if q**n <= 2**14)
        raw = divisor_core.raw_polynomial_T(q, raw_limit)
        tbl = enumerate_irreducibles(q, _top_class_degree(records[: raw_limit + 1]))
        one = PolyFq(q, (1,))
        bad_raw = ""
        for n in range(raw_limit + 1):
            record = records[n]
            if raw[n].tau != record.tau:
                bad_raw = f"tau mismatch at degree {n}"
                break
            if len(raw[n].maximizers) != record.total_polynomials:
                bad_raw = f"maximizer count mismatch at degree {n}"
                break
            # total_polynomials counts the realizations, so the check above
            # bounds them by q**n; multiplied out, they must be exactly the
            # raw maximizers
            realized = {
                reduce(poly_mul, (tbl.prime(i) for i, e in form for _ in range(e)), one)
                for p in record.patterns
                for form in divisor_core.realize_polynomials(p, tbl)
            }
            if realized != set(raw[n].maximizers):
                bad_raw = f"pattern mismatch at degree {n}"
                break
        checks.append((f"raw-polynomial-oracle q={q} n<={raw_limit}", not bad_raw, bad_raw))

    increasing = all(
        records[n].tau > records[n - 1].tau for n in range(1, max_degree + 1)
    )
    checks.append(
        (
            "divisor-maximum strictly increasing",
            increasing,
            "" if increasing else "some degree fails to raise the maximum",
        )
    )

    mono_bad = ""
    for record in records:
        for p in record.patterns:
            if not divisor_core.exponents_monotone(p):
                mono_bad = f"degree {record.degree}: exponent rises with class degree"
                break
        if mono_bad:
            break
    checks.append(("maximizer exponent monotonicity", not mono_bad, mono_bad))

    return checks, records


def _cmd_verify(args: argparse.Namespace) -> int:
    _require_nonnegative(args.max_degree, "max-degree")
    checks, records = _run_verify_checks(args.q, args.max_degree)
    failed = [c for c in checks if not c[1]]
    if args.format == "json":
        _emit_json(
            {
                "q": args.q,
                "max_degree": args.max_degree,
                "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
                "maximizers": _maximizer_docs(records),
            }
        )
        if failed:
            print(f"violation: {failed[0][0]}: {failed[0][2]}", file=sys.stderr)
            return 2
        return 0
    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED ' + detail}")
    if failed:
        print(f"violation: {failed[0][0]}: {failed[0][2]}")
        return 2
    print("all checks passed")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is reserved for found violations,
    so usage problems are folded into the validation exit code 1."""

    def error(self, message: str) -> None:
        self.exit(1, f"{self.prog}: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hcpoly",
        description="Exact divisor-count maxima and their superior families over F_q[t].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--q", type=int, required=True, help="field size (prime power)")
        return p

    p = add("pi", _cmd_pi, "count monic irreducibles of one degree")
    p.add_argument("--n", type=int, required=True, help="degree")

    p = add("irreducibles", _cmd_irreducibles, "list monic irreducibles by order key")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("s-set", help="smallest parameter grid points, ascending")
    p.set_defaults(func=_cmd_s_set)
    p.add_argument("--q", type=int, default=2, help="field size for the display column only")
    p.add_argument("--count", type=int, required=True)

    p = add("shc", _cmd_shc, "superior maximizer and its family at one grid point")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = add("hc-table", _cmd_hc_table, "divisor-maximum table with markers")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--explicit", action="store_true", help="include factored polynomials in JSON")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--cache", metavar="DIR", default=None, help="cache directory")

    p = add("tmax", _cmd_tmax, "divisor maximum at one degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bounds", action="store_true", help="show the anchor certificate")

    p = add("certify", _cmd_certify, "JSON certificates for every degree")
    p.add_argument("--max-degree", type=int, required=True)

    p = add("verify", _cmd_verify, "cross-check the engine against the oracles")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")

    return parser


_FATAL = {
    MemoryError: "out of memory",
    RecursionError: "maximum recursion depth exceeded",
    KeyboardInterrupt: "interrupted",
}


def main(argv: list[str] | None = None) -> int:
    from .irreducibles import ensure_prime_power

    parser = _build_parser()
    args = parser.parse_args(argv)
    # tau passes the interpreter's int-to-str digit limit (4,300 by default)
    # at paper-scale degrees, so the limit is lifted while a command runs and
    # restored after; it still guards the parse of the arguments above.
    # Builds of Python 3.10 before 3.10.7 have no limit.
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        if digits is not None:
            sys.set_int_max_str_digits(0)
        ensure_prime_power(args.q)
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except (ValueError, ZeroDivisionError) as exc:
        print(f"hcpoly: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone: the output ends here, and with stdout on
        # devnull the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except tuple(_FATAL) as exc:
        print(f"hcpoly: {_FATAL[type(exc)]}", file=sys.stderr)
        return 1
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())

"""Spans around calls into hcpoly's layers, and the per-layer metrics made from them.

While a Tracer is installed, every binding of a traced public function in
the loaded hcpoly modules is replaced by a wrapper that records a span:
name, start, end and the enclosing span.  Functions are found by their
names in hcpoly.__all__; one that no longer exists is skipped, and the
metrics made from it are left out.  Spans stay in memory and are reduced
to per-round metrics when a round ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass, field
from math import comb

# public name in hcpoly.__all__ -> span name (layer.function)
TRACED = {
    "hc_table": "hc_engine.hc_table",
    "annotate_markers": "hc_engine.annotate_markers",
    "sshc_family": "superior.sshc_family",
    "verify_pair_uniqueness": "superior.verify_pair_uniqueness",
    "verify_T_bounds": "bounds.verify_T_bounds",
    "locate_anchor": "bounds.locate_anchor",
    "brute_force_T": "divisor_core.brute_force_T",
    "raw_polynomial_T": "divisor_core.raw_polynomial_T",
    "factor_pattern": "divisor_core.factor_pattern",
    "realize_polynomials": "divisor_core.realize_polynomials",
    "enumerate_irreducibles": "irreducibles.enumerate_irreducibles",
}
# functions whose arguments the metrics need
BOUND_ARGUMENTS = {"hc_table", "brute_force_T", "raw_polynomial_T", "verify_pair_uniqueness"}
CLI_SPAN = "cli.main"

# per-layer metric -> (unit, public functions it is made from)
METRICS = {
    "hc_engine.table_self_s": ("s", ("hc_table", "annotate_markers")),
    "hc_engine.markers_s": ("s", ("annotate_markers",)),
    "hc_engine.records": ("count", ("hc_table",)),
    "hc_engine.patterns": ("count", ("hc_table",)),
    "hc_engine.cache_hit_s": ("s", ("hc_table", "annotate_markers")),
    "hc_engine.cache_miss_s": ("s", ("hc_table", "annotate_markers")),
    "hc_engine.cache_hits": ("count", ("hc_table", "annotate_markers")),
    "hc_engine.cache_misses": ("count", ("hc_table", "annotate_markers")),
    "hc_engine.cache_hit_ratio": ("ratio", ("hc_table", "annotate_markers")),
    "hc_engine.cache_bytes": ("bytes", ("hc_table",)),
    "superior.family_s": ("s", ("sshc_family",)),
    "superior.family_entries": ("count", ("sshc_family",)),
    "superior.points_walked": ("count", ("iter_spoints",)),
    "superior.order_tie_s": ("s", ("verify_pair_uniqueness",)),
    "superior.order_pairs": ("count", ("verify_pair_uniqueness",)),
    "bounds.certify_self_s": ("s", ("verify_T_bounds",)),
    "bounds.anchor_s": ("s", ("locate_anchor",)),
    "bounds.certificates": ("count", ("verify_T_bounds",)),
    "divisor_core.pattern_oracle_s": ("s", ("brute_force_T",)),
    "divisor_core.unpruned_oracle_s": ("s", ("brute_force_T",)),
    "divisor_core.raw_oracle_s": ("s", ("raw_polynomial_T",)),
    "divisor_core.raw_polys_scanned": ("count", ("raw_polynomial_T",)),
    "divisor_core.factor_s": ("s", ("factor_pattern",)),
    "divisor_core.realize_s": ("s", ("realize_polynomials",)),
    "divisor_core.rows": ("count", ("realize_polynomials",)),
    "irreducibles.enumerate_s": ("s", ("enumerate_irreducibles",)),
    "irreducibles.primes": ("count", ("enumerate_irreducibles",)),
    "cli.self_s": ("s", ()),
    "cli.stdout_bytes": ("bytes", ()),
}


@dataclass
class Span:
    name: str
    parent: Span | None
    start: float
    end: float = 0.0
    child_time: float = 0.0
    children: list[str] = field(default_factory=list)
    arguments: dict = field(default_factory=dict)
    size: int = 0  # length of the result, where it has one
    patterns: int = 0  # patterns in the records hc_table returned

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _cache_bytes(directory) -> int:
    """The total size of the files in a cache directory."""
    try:
        with os.scandir(directory) as entries:
            return sum(entry.stat().st_size for entry in entries if entry.is_file())
    except OSError:
        return 0


class Tracer:
    """Records spans while installed; reduce() turns them into metrics."""

    def __init__(self, package) -> None:
        self.package = package
        self.available = {name for name in (*TRACED, "iter_spoints") if callable(getattr(package, name, None))}
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.points_walked = 0
        self.cache_dirs: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        replacements = {}
        for name in self.available:
            original = getattr(self.package, name)
            if name == "iter_spoints":
                replacements[id(original)] = (original, self._counting_generator(original))
            else:
                replacements[id(original)] = (original, self._wrap(name, original))
        prefix = self.package.__name__
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == prefix or module_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    setattr(module, attr, replacements[id(value)][1])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, original):
        span_name = TRACED[name]
        signature = inspect.signature(original) if name in BOUND_ARGUMENTS else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            arguments = {}
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = dict(bound.arguments)
            span = self.open(span_name)
            span.arguments = arguments
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if arguments.get("cache_dir") is not None:
                self.cache_dirs.add(os.fspath(arguments["cache_dir"]))
            if name == "hc_table":
                span.size = len(result)
                span.patterns = sum(len(record.patterns) for record in result)
            elif hasattr(result, "__len__"):
                span.size = len(result)
            return result

        return traced

    def _counting_generator(self, original):
        @functools.wraps(original)
        def counted(*args, **kwargs):
            for item in original(*args, **kwargs):
                self.points_walked += 1
                yield item

        return counted

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(name, self.stack[-1] if self.stack else None, time.perf_counter())
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)
        if span.parent is not None:
            span.parent.child_time += span.duration
            span.parent.children.append(span.name)

    # -- metrics ----------------------------------------------------------

    def reduce(self, stdout_bytes: int) -> dict[str, float]:
        """Metrics of the spans recorded since the last reduce, then forget them."""
        totals = {name: 0.0 for name, (_, needs) in METRICS.items() if self.available.issuperset(needs)}

        def add(metric: str, value: float) -> None:
            if metric in totals:
                totals[metric] += value

        hits = misses = 0
        for span in self.spans:
            name, args = span.name, span.arguments
            if name == CLI_SPAN:
                add("cli.self_s", span.self_time)
            elif name == "hc_engine.hc_table":
                add("hc_engine.records", span.size)
                add("hc_engine.patterns", span.patterns)
                if args.get("cache_dir") is None:
                    add("hc_engine.table_self_s", span.self_time)
                elif "hc_engine.annotate_markers" in span.children:
                    misses += 1
                    add("hc_engine.cache_miss_s", span.duration)
                else:
                    hits += 1
                    add("hc_engine.cache_hit_s", span.duration)
            elif name == "hc_engine.annotate_markers":
                add("hc_engine.markers_s", span.duration)
            elif name == "superior.sshc_family":
                add("superior.family_s", span.duration)
                add("superior.family_entries", span.size)
            elif name == "superior.verify_pair_uniqueness":
                add("superior.order_tie_s", span.duration)
                if "bound" in args:
                    add("superior.order_pairs", comb(args["bound"] ** 2, 2))
            elif name == "bounds.verify_T_bounds":
                add("bounds.certify_self_s", span.self_time)
                add("bounds.certificates", span.size)
            elif name == "bounds.locate_anchor":
                add("bounds.anchor_s", span.duration)
            elif name == "divisor_core.brute_force_T":
                add("divisor_core.pattern_oracle_s" if args.get("prune", True) else "divisor_core.unpruned_oracle_s",
                    span.duration)
            elif name == "divisor_core.raw_polynomial_T":
                add("divisor_core.raw_oracle_s", span.duration)
                if "q" in args and "max_degree" in args:
                    add("divisor_core.raw_polys_scanned", sum(args["q"] ** n for n in range(args["max_degree"] + 1)))
            elif name == "divisor_core.factor_pattern":
                add("divisor_core.factor_s", span.duration)
            elif name == "divisor_core.realize_polynomials":
                add("divisor_core.realize_s", span.duration)
                add("divisor_core.rows", span.size)
            elif name == "irreducibles.enumerate_irreducibles":
                add("irreducibles.enumerate_s", span.duration)
                add("irreducibles.primes", span.size)
        add("hc_engine.cache_hits", hits)
        add("hc_engine.cache_misses", misses)
        if hits + misses:
            add("hc_engine.cache_hit_ratio", hits / (hits + misses))
        add("hc_engine.cache_bytes", sum(_cache_bytes(d) for d in self.cache_dirs))
        add("superior.points_walked", self.points_walked)
        add("cli.stdout_bytes", stdout_bytes)
        self.spans.clear()
        self.cache_dirs.clear()
        self.points_walked = 0
        return totals

"""The benchmark's workloads: a fixed list of operations per round, and their checks.

An operation is either a command line for hcpoly.cli.main or a call of a
name in hcpoly.__all__.  Its check sees the captured output and a context
shared by the operations of a run, so that a certificate can be compared
with the table printed before it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

PUBLISHED_TABLE = Path("tests") / "data" / "hc_table_q2_maxdeg39.txt"


@dataclass(frozen=True)
class Op:
    label: str  # the same label means the same expected output
    check: Callable[[str, dict], None]
    argv: tuple[str, ...] = ()
    library: str = ""  # a name in hcpoly.__all__, called with args
    args: tuple = ()


def _cli(label: str, command: str, check: Callable[[str, dict], None], **extra) -> Op:
    return Op(label, check, argv=tuple(command.split()), **extra)


def _remember(key: str, compute: Callable[[str], object]) -> Callable[[str, dict], None]:
    def check(output: str, context: dict) -> None:
        context[key] = compute(output)

    return check


@dataclass(frozen=True)
class Fixed:
    """A workload whose rounds repeat one operation list."""

    ops: tuple[Op, ...]
    uses_cache = False

    def plan(self, rng: random.Random | None, cache_dir: Path | None) -> tuple[Op, ...]:
        return self.ops


def table_q2(root: Path) -> Fixed:
    """Full tables, certificates and tmax at q=2 (and one q=3 table); the DP dominates."""
    published = (root / PUBLISHED_TABLE).read_text().splitlines()
    return Fixed((
        _cli("table q=2 N=320", "hc-table --format json --q 2 --max-degree 320",
             _remember("T q=2", lambda out: checks.check_table_json(out, 2, 320))),
        _cli("table q=3 N=160", "hc-table --format json --q 3 --max-degree 160",
             lambda out, ctx: checks.check_table_json(out, 3, 160)),
        _cli("certify q=2 N=320", "certify --q 2 --max-degree 320",
             lambda out, ctx: checks.check_certify_json(out, 2, 320, ctx["T q=2"])),
        _cli("tmax q=2 n=320", "tmax --q 2 --n 320 --bounds",
             lambda out, ctx: checks.check_tmax(out, 2, 320)),
        _cli("text table q=2 N=160", "hc-table --q 2 --max-degree 160",
             lambda out, ctx: checks.check_table_text(out, 2, 160, published)),
    ))


def _check_pair_uniqueness(output: str, context: dict) -> None:
    checks.require(output == repr((True, None)), f"verify_pair_uniqueness(50) returned {output}")


def verify_q2(root: Path) -> Fixed:
    """The oracle cross-check at q=2 N=16 and the grid-order tie scan; the DP is tiny."""
    return Fixed((
        _cli("verify q=2 N=16", "verify --q 2 --max-degree 16", lambda out, ctx: checks.check_verify(out)),
        Op("verify_pair_uniqueness(50)", _check_pair_uniqueness, library="verify_pair_uniqueness", args=(50,)),
    ))


def wide_field(root: Path) -> Fixed:
    """Tables and certificates at large q, where half-step families have thousands of members."""
    return Fixed((
        _cli("table q=101 N=200", "hc-table --format json --q 101 --max-degree 200",
             lambda out, ctx: checks.check_table_json(out, 101, 200)),
        _cli("table q=31 N=160", "hc-table --format json --q 31 --max-degree 160",
             _remember("T q=31", lambda out: checks.check_table_json(out, 31, 160))),
        _cli("certify q=31 N=160", "certify --q 31 --max-degree 160",
             lambda out, ctx: checks.check_certify_json(out, 31, 160, ctx["T q=31"])),
    ))


class CacheMix:
    """Shuffled cached table requests from an empty cache: one miss and several hits per key.

    A key's first request in a round is its miss; the later ones are hits.
    The program's peak memory depends on the order of the misses: a run
    whose q=2 N=320 miss followed the q=2 N=160 one peaked up to 7 MB
    higher.  So the first round of every run, where peak_rss_mb is read,
    takes the keys in turn, and only later rounds are shuffled.
    """

    uses_cache = True
    # (q, N) -> requests per round; the first request of a key is its miss.
    # q=2 N=320 gets the most hits, so the median of the 16 calls is one of them.
    REQUESTS = {(2, 40): 3, (2, 160): 3, (2, 320): 7, (3, 160): 3}

    def plan(self, rng: random.Random | None, cache_dir: Path | None) -> list[Op]:
        """The round's requests: the keys in turn, or shuffled by rng."""
        keys = [key for i in range(max(self.REQUESTS.values())) for key, count in self.REQUESTS.items() if i < count]
        if rng is not None:
            rng.shuffle(keys)
        ops = []
        for q, N in keys:
            label = f"cached table q={q} N={N}"
            argv = (*f"hc-table --format json --q {q} --max-degree {N}".split(), "--cache", str(cache_dir))
            check = lambda out, ctx, q=q, N=N: checks.check_table_json(out, q, N)  # noqa: E731
            ops.append(Op(label, check, argv=argv))
        return ops


# workload name -> function of the checkout's root that makes the workload
WORKLOADS = {
    "table-q2": table_q2,
    "verify-q2": verify_q2,
    "wide-field": wide_field,
    "cache-mix": lambda root: CacheMix(),
}

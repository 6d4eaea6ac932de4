"""End-to-end and per-layer benchmark of the hcpoly command line.

    python3 perfbench/run.py --workload table-q2 --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports hcpoly from its src/
directory, once.  It repeats whole rounds of a workload's fixed operations
(hcpoly.cli.main command lines, plus calls of names in hcpoly.__all__) for
about --seconds seconds of measured time, and prints one JSON object as
its last line.  Each operation writes its output to a file of its own;
once the round's operations are done, every file is read back, checked
and removed, so no output is held in memory while the program runs.
--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced rounds and reports the per-layer metrics made from the traced
ones.  The only child processes are the set-up probes, run one at a time
between rounds.

Every time it reports is scaled to a reference speed of the host, as
speed.py describes: the host's cores change speed from second to second
and drift for minutes, and the scaling takes that out of the figures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
from speed import SpeedSampler, Timing, scaled, timed_probes
from tracer import CLI_SPAN, METRICS, Tracer
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
# set-up probes before the first round, and after every later round
SETUP_PROBES_FIRST = 3
SETUP_PROBES_BETWEEN = 2
# speed probes before and after each set-up probe
SPEED_PROBES_AROUND_SETUP = 20

# One set-up: start an interpreter, import hcpoly, prepare an empty scratch directory.
SETUP_PROBE = """
import os, sys, tempfile
sys.path.insert(0, sys.argv[1])
import hcpoly, hcpoly.cli
os.rmdir(tempfile.mkdtemp(dir=sys.argv[2]))
"""


@dataclass
class Round:
    # (operation label, occurrence in the round) -> its time
    times: dict[tuple[str, int], Timing]
    cli_calls: list[tuple[str, int]]
    attempted: int
    failed: int
    # ru_maxrss when the operations ended, before any output was read back
    peak_rss_mb: float
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        """Raw wall time of the operations, speed probes included."""
        return sum(t.wall for t in self.times.values())

    @property
    def scaled_wall(self) -> float:
        return sum(t.scaled_wall for t in self.times.values())

    @property
    def factor(self) -> float:
        """The round's scaling from the host's seconds to the reference host's."""
        return self.scaled_wall / sum(t.own_wall for t in self.times.values())


def median_times(rounds: list[Round], scaled_time) -> dict[tuple[str, int], float]:
    """Each operation's median scaled time over the rounds."""
    values: dict[tuple[str, int], list[float]] = {}
    for r in rounds:
        for key, timing in r.times.items():
            values.setdefault(key, []).append(scaled_time(timing))
    return {key: statistics.median(v) for key, v in values.items()}


def same_bytes(a: Path, b: Path) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            chunk = fa.read(1 << 16)
            if chunk != fb.read(1 << 16):
                return False
            if not chunk:
                return True


def measure_setup(run_dir: Path, count: int) -> list[float]:
    """Set-up times, each scaled by the speed probes run just before and after it."""
    times = []
    for _ in range(count):
        before = timed_probes(SPEED_PROBES_AROUND_SETUP)
        start = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(run_dir)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        elapsed = time.perf_counter() - start
        times.append(scaled(elapsed, before + timed_probes(SPEED_PROBES_AROUND_SETUP)))
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {probe.stderr.decode(errors='replace').strip()}")
    return times


class Runner:
    def __init__(self, workload, package, cli_main, run_dir: Path, seed: int) -> None:
        self.workload = workload
        self.package = package
        self.cli_main = cli_main
        self.run_dir = run_dir
        self.rng = random.Random(seed)
        self.rounds = 0
        self.tracer = Tracer(package)
        self.sampler = SpeedSampler()
        self.verified: dict[str, Path] = {}  # label -> a kept copy of its checked output
        self.context: dict = {}
        self.correct = True

    def call(self, op: Op, traced: bool, sink) -> bool:
        """Run one operation, writing its output to sink; True if it succeeded."""
        if op.library:
            try:
                sink.write(repr(getattr(self.package, op.library)(*op.args)))
                return True
            except Exception:
                traceback.print_exc()
                return False
        span = self.tracer.open(CLI_SPAN) if traced else None
        try:
            with contextlib.redirect_stdout(sink):
                status = self.cli_main(list(op.argv))
        except (Exception, SystemExit):
            traceback.print_exc()
            status = None
        finally:
            if span is not None:
                self.tracer.close(span)
        if status != 0:
            print(f"perfbench: {' '.join(op.argv)} exited with {status}", file=sys.stderr)
        return status == 0

    def round(self, traced: bool) -> Round:
        round_dir = Path(tempfile.mkdtemp(prefix="round-", dir=self.run_dir))
        try:
            cache_dir = round_dir / "cache" if self.workload.uses_cache else None
            if cache_dir is not None:
                cache_dir.mkdir()
            # the first round is the same in every run; see CacheMix
            ops = self.workload.plan(self.rng if self.rounds else None, cache_dir)
            self.rounds += 1
            done: list[tuple[Op, Path]] = []  # the operations that succeeded, and their output files
            times: dict[tuple[str, int], Timing] = {}
            cli_calls = []
            gc.collect()
            if traced:
                self.tracer.install()
            try:
                for index, op in enumerate(ops):
                    key = (op.label, sum(1 for label, _ in times if label == op.label))
                    path = round_dir / f"{index}.out"
                    with open(path, "w", encoding="utf-8", newline="") as sink:
                        ok, times[key] = self.sampler.time(lambda: self.call(op, traced, sink))
                    if not op.library:
                        cli_calls.append(key)
                    if ok:
                        done.append((op, path))
            finally:
                if traced:
                    self.tracer.uninstall()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result = Round(times, cli_calls, len(ops), len(ops) - len(done), peak_rss_mb)
            if traced:
                layers = self.tracer.reduce(sum(path.stat().st_size for op, path in done if not op.library))
                # span times hold the speed probes that ran inside them, a share the same in every layer
                result.layers = {name: value * result.factor if METRICS[name][0] == "s" else value
                                 for name, value in layers.items()}
            for op, path in done:
                self.check(op, path)
            return result
        finally:
            shutil.rmtree(round_dir, ignore_errors=True)

    def check(self, op: Op, path: Path) -> None:
        """Check an output in full the first time its label appears; later ones must repeat it byte for byte."""
        try:
            if op.label not in self.verified:
                op.check(path.read_text(encoding="utf-8"), self.context)
                kept = self.run_dir / f"checked-{len(self.verified)}.out"
                path.replace(kept)
                self.verified[op.label] = kept
            else:
                checks.require(same_bytes(path, self.verified[op.label]),
                               f"{op.label}: output differs from the first checked output of the run")
        except checks.CheckFailed as exc:
            self._wrong(f"check failed: {exc}")
        except Exception:
            self._wrong(f"check of {op.label} raised:\n{traceback.format_exc()}")

    def _wrong(self, message: str) -> None:
        self.correct = False
        print(f"perfbench: {message}", file=sys.stderr)


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[list[Round], list[Round], list[float]]:
    """Whole rounds (untraced, traced) until the next would pass the measured time.

    Set-up probes run between the rounds, so that their median spans the
    run rather than one moment of it.  Returns the untraced rounds, the
    traced rounds and the set-up times.
    """
    plain: list[Round] = []
    traced: list[Round] = []
    setup = measure_setup(runner.run_dir, SETUP_PROBES_FIRST)
    measured = 0.0
    while True:
        step = 0.0
        for is_traced in (False, True) if trace else (False,):
            r = runner.round(is_traced)
            (traced if is_traced else plain).append(r)
            step += r.wall
        measured += step
        if measured + step > seconds:
            return plain, traced, setup
        setup += measure_setup(runner.run_dir, SETUP_PROBES_BETWEEN)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hcpoly" / "__init__.py").is_file():
        print(f"perfbench: no hcpoly sources under {SRC}", file=sys.stderr)
        return 2
    # runs must not depend on the caller's environment
    for var in ("HCPOLY_CACHE", "HCPOLY_PURE"):
        os.environ.pop(var, None)
    SCRATCH.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        sys.path.insert(0, str(SRC))
        import hcpoly
        from hcpoly.cli import main as cli_main

        if SRC not in Path(hcpoly.__file__).resolve().parents:
            print(f"perfbench: imported hcpoly from {hcpoly.__file__}, not {SRC}", file=sys.stderr)
            return 2
        workload = WORKLOADS[args.workload](ROOT)
        runner = Runner(workload, hcpoly, cli_main, run_dir, args.seed)
        plain, traced, setup = measure(runner, args.seconds, bool(args.trace))
    except (OSError, RuntimeError, ImportError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()

    rounds = plain + traced
    if args.trace:
        metrics = {}
        for name, (unit, _) in METRICS.items():
            values = [r.layers[name] for r in traced if name in r.layers]
            if values:
                metrics[name] = metric(statistics.median(values), unit)
        # each traced round against the untraced round just before it
        metrics["trace.overhead_s"] = metric(
            statistics.median(t.scaled_wall - p.scaled_wall for p, t in zip(plain, traced)), "s")
    else:
        wall = median_times(plain, lambda t: t.scaled_wall)
        cpu = median_times(plain, lambda t: t.scaled_cpu)
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "job_s": metric(sum(wall.values()), "s"),
            "job_cpu_s": metric(sum(cpu.values()), "s"),
            "invocation_s": metric(statistics.median(wall[key] for key in plain[0].cli_calls), "s"),
            # the first round's: later rounds start after outputs were read back and checked
            "peak_rss_mb": metric(plain[0].peak_rss_mb, "MB"),
        }
    print(f"perfbench: {len(plain)} untraced rounds, raw wall time per round {statistics.median(r.wall for r in plain):.3f} s, "
          f"host time scaled by {statistics.median(r.factor for r in plain):.3f}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

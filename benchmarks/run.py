#!/usr/bin/env python3
"""Benchmark of blockginv: three workloads, checked outputs, traced layers.

Run from the repository root:

    python3 benchmarks/run.py --workload campaign --seed 0 --seconds 24 --trace 0
    python3 benchmarks/run.py --workload all --seed 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs half a
round untraced and the same items again with spans around every layer, and
reports the per-layer metrics. ``--workload all`` runs each workload in its
own fresh interpreter, one after another, and prints every metric by name
and unit. Times are scaled to the reference machine (see calibrate.py and
README.md).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
record. The program under test is imported from ``src/`` below the current
directory and from nowhere else. The exit code is 0 only when every output
was correct.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path
from typing import NamedTuple

import calibrate
import tracing
import workloads

SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MODULES = ("scalars", "matrices", "ginverse", "theorems", "generators", "cli")
OUT_DIR = ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_geomean_ms": "ms",
    "closed_form_ms": "ms",
    "oracle_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "scalars.mul_calls": "count",
    "scalars.addsub_calls": "count",
    "scalars.div_calls": "count",
    "scalars.max_entry_bits": "bits",
    "matrices.mul_calls": "count",
    "matrices.mul_self_s": "s",
    "matrices.rank_calls": "count",
    "matrices.rank_self_s": "s",
    "matrices.rref_calls": "count",
    "matrices.rref_self_s": "s",
    "matrices.inverse_calls": "count",
    "matrices.inverse_self_s": "s",
    "matrices.bases_self_s": "s",
    "ginverse.drazin_calls": "count",
    "ginverse.drazin_cache_hit_ratio": "ratio",
    "ginverse.oracle_s": "s",
    "ginverse.oracle_self_s": "s",
    "ginverse.oracle_max_index": "count",
    "ginverse.ef_drazin_s": "s",
    "theorems.closed_form_s": "s",
    "theorems.block_algebra_s": "s",
    "theorems.check_conditions_calls": "count",
    "theorems.check_conditions_s": "s",
    "theorems.refusals": "count",
    "theorems.closed_form_over_oracle": "ratio",
    "generators.gen_pair_s": "s",
    "generators.gen_attempts": "count",
    "generators.gen_hit_ratio": "ratio",
    "generators.verify_s": "s",
    "cli.parse_s": "s",
    "cli.format_s": "s",
    "bench.trace_overhead_ratio": "ratio",
}


def load_program(root: Path):
    """Import blockginv afresh from ``root/src``; returns its modules.

    Earlier imports are dropped first, so each call pays the full import
    (from cached bytecode) and set-up can be repeated within one run.
    """
    src = str(root / "src")
    for name in [m for m in sys.modules
                 if m == "blockginv" or m.startswith("blockginv.")]:
        del sys.modules[name]
    if src not in sys.path:
        sys.path.insert(0, src)
    package = importlib.import_module("blockginv")
    where = Path(package.__file__).resolve()
    if not where.is_relative_to(Path(src).resolve()):
        raise ImportError(f"blockginv was imported from {package.__file__}, "
                          f"not from {src}")
    modules = {"blockginv": package}
    for name in MODULES:
        modules[name] = importlib.import_module(f"blockginv.{name}")
    return types.SimpleNamespace(**modules, modules=modules)


class CacheLedger:
    """Clears the drazin cache and keeps its counts across the clears."""

    def __init__(self, drazin):
        self.drazin = drazin
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        info = self.drazin.cache_info()
        self.hits += info.hits
        self.misses += info.misses
        self.drazin.cache_clear()

    def totals(self) -> dict:
        info = self.drazin.cache_info()
        hits, misses = self.hits + info.hits, self.misses + info.misses
        return {"hits": hits, "misses": misses,
                "maxsize": info.maxsize, "currsize": info.currsize}


class Stopwatch:
    """Times the calls through a few named bindings, untraced.

    One ``perf_counter`` pair per call, around calls that take milliseconds.
    """

    def __init__(self, bindings: dict):
        self.bindings = bindings
        self.elapsed = dict.fromkeys(bindings, 0.0)
        self._restore = []

    def install(self) -> None:
        clock, elapsed = time.perf_counter, self.elapsed
        for label, (module, attribute) in self.bindings.items():
            original = getattr(module, attribute)

            def wrapper(*args, _fn=original, _label=label, **kwargs):
                start = clock()
                try:
                    return _fn(*args, **kwargs)
                finally:
                    elapsed[_label] += clock() - start

            self._restore.append((module, attribute, original))
            setattr(module, attribute, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            module, attribute, original = self._restore.pop()
            setattr(module, attribute, original)

    def take(self) -> dict:
        taken = dict(self.elapsed)
        for label in self.elapsed:
            self.elapsed[label] = 0.0
        return taken


class Pass(NamedTuple):
    """One pass over a list of items."""

    outcomes: list       # (item, output) for every item that returned
    latency_ms: list     # per item, scaled to the reference machine
    raw_ms: list         # per item, as measured
    stage_ms: dict       # stopwatch label -> per item time, scaled
    errors: list         # one line per item that raised
    wall: float          # seconds, as measured


def run_pass(workload, ledger, items, stopwatch=None) -> Pass:
    """Run the items one at a time.

    The drazin cache is cleared when the pass starts. The reference kernel
    is timed before the first item and after each one, and each item's
    times are scaled by it (see calibrate).
    """
    clock = time.perf_counter
    outcomes, errors, spans, stage_s = [], [], [], []
    probes = calibrate.Probes()
    ledger.clear()
    if stopwatch:
        stopwatch.install()
    start = clock()
    try:
        probes.take()
        for item in items:
            if workload.clear_cache_per_item:
                ledger.clear()
            began = clock()
            try:
                output = workload.run_item(item)
            except Exception as exc:  # a failed item is counted, not fatal
                output = None
                errors.append(f"{item}: {type(exc).__name__}: {exc}")
            spans.append((began, clock()))
            probes.take()
            if output is not None:
                outcomes.append((item, output))
            if stopwatch:
                stage_s.append(stopwatch.take())
        wall = clock() - start
    finally:
        if stopwatch:
            stopwatch.uninstall()
    factors = [probes.factor(began, end) for began, end in spans]
    raw_ms = [(end - began) * 1000 for began, end in spans]
    latency_ms = [ms * f for ms, f in zip(raw_ms, factors)]
    stage_ms = {label: [taken[label] * 1000 * f
                        for taken, f in zip(stage_s, factors)]
                for label in (stopwatch.elapsed if stopwatch else ())}
    return Pass(outcomes, latency_ms, raw_ms, stage_ms, errors, wall)


def percentile(values, p):
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float:
    """The highest listed percentile with at least 10 samples above it."""
    for p in TAIL_PERCENTILES:
        if count * (1 - p / 100) >= 10:
            return p
    return 50.0


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def measure(args, root: Path) -> tuple[dict, dict]:
    """One run of one workload; returns (result line, run record)."""
    workload = workloads.make(args.workload, args.smoke)
    workdir = root / OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    clock = time.perf_counter
    try:
        setup_s, setup_raw_s = [], []
        probes = calibrate.Probes()
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            probes.take()
            start = clock()
            prog = load_program(root)
            workload.setup(prog, args.seed, workdir)
            end = clock()
            probes.take()
            setup_raw_s.append(end - start)
            setup_s.append((end - start) * probes.factor(start, end))
        ledger = CacheLedger(prog.ginverse.drazin)
        stopwatch = Stopwatch(workload.stopwatch_bindings())
        if args.trace:
            rounds = 1
            items = workload.round(0)[::2]
        else:
            rounds = max(1, int(args.seconds // workload.round_s))
            items = [item for index in range(rounds)
                     for item in workload.round(index)]
        timed = run_pass(workload, ledger, items, stopwatch)
        checked = [timed]
        if args.trace:
            traced_ledger = CacheLedger(prog.ginverse.drazin)
            tracer = tracing.Tracer()
            tracer.install(prog.modules)
            try:
                traced = run_pass(workload, traced_ledger, items)
            finally:
                tracer.uninstall()
            checked.append(traced)
        attempted = failed = 0
        problems = []
        for done in checked:
            attempted += len(done.latency_ms)
            found = [p for p in workload.check(done.outcomes) if p]
            failed += len(found) + len(done.errors)
            problems += found + done.errors
        oracle_ms = workload.check_oracle_ms() or timed.stage_ms["oracle"]
        extras = workload.extras(checked[-1].outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latency_ms = timed.latency_ms
    closed_form_ms = timed.stage_ms["closed_form"]
    tail_p = tail_percentile(len(latency_ms))
    summary = {
        "throughput_per_s": len(latency_ms) / (sum(latency_ms) / 1000),
        "latency_geomean_ms": geomean(latency_ms),
        "closed_form_ms": statistics.fmean(closed_form_ms),
        "oracle_ms": statistics.fmean(oracle_ms),
        "setup_s": statistics.median(setup_s),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "drazin_cache_info": ledger.totals(),
        "rounds": rounds,
        "items": len(latency_ms),
        "latency_tail_percentile": tail_p,
        "latency_tail_samples_beyond": len(latency_ms) * (1 - tail_p / 100),
        "oracle_samples": len(oracle_ms),
        "failure_ratio": failed / attempted,
        "problems": problems[:20],
        **summary,
        "latency_p50_ms": statistics.median(latency_ms),
        "latency_tail_ms": percentile(latency_ms, tail_p),
        "setup_repeats_s": setup_s,
        "raw": {
            "wall_s": timed.wall,
            "throughput_per_s": len(timed.raw_ms) / timed.wall,
            "latency_p50_ms": statistics.median(timed.raw_ms),
            "latency_geomean_ms": geomean(timed.raw_ms),
            "setup_repeats_s": setup_raw_s,
        },
        **extras,
    }
    if args.trace:
        layers = tracer.layer_metrics()
        cache = traced_ledger.totals()
        calls = cache["hits"] + cache["misses"]
        layers.update({
            "scalars.max_entry_bits": extras["max_entry_bits"],
            "ginverse.oracle_max_index": extras["oracle_max_index"],
            "ginverse.drazin_cache_hit_ratio":
                cache["hits"] / calls if calls else 0.0,
            "theorems.closed_form_over_oracle":
                sum(closed_form_ms) / sum(oracle_ms),
            "bench.trace_overhead_ratio":
                sum(traced.latency_ms) / sum(timed.latency_ms),
        })
        record["traced_wall_s"] = traced.wall
        record["traced_drazin_cache_info"] = cache
        record["spans"] = len(tracer.spans)
        trace_file = (root / OUT_DIR
                      / f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(trace_file)
        record["trace_file"] = str(trace_file.relative_to(root))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = {
            **summary,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, record


def run_all(args) -> int:
    """Each workload in its own interpreter, one at a time."""
    script = Path(__file__).resolve()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(script), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, capture_output=True, text=True,
                              check=False)
        lines = done.stdout.strip().splitlines()
        if not lines:
            sys.stderr.write(done.stderr)
            print(f"{name}: no result (exit code {done.returncode})",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:36s} {entry['value']:>16.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="sets the work of an untraced run: as many "
                             "whole rounds as take this long on the "
                             "reference machine, and at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one set-up, to test the "
                             "benchmark itself")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    root = Path.cwd()
    if not (root / "src" / "blockginv" / "__init__.py").is_file():
        print("error: src/blockginv not found; run from the repository root",
              file=sys.stderr)
        return 2
    result, record = measure(args, root)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

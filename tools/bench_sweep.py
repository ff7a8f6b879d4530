"""Cold closed form against cold oracle, rule by rule, at small n.

    python3 tools/bench_sweep.py --label item4           # n 1, 2, 3, 4, 8
    python3 tools/bench_sweep.py --label quick --sizes 1,2 --repeats 1

For each rule, size n, rank_f in 0..n and seed in 0-5, one positive pair
is drawn with ``gen_pair``. Its closed form (``block_group_inverse``) and
its oracle (``drazin`` of the assembled 2n matrix, built once, outside the
clock) are each timed ``--repeats`` times from a cold ``drazin`` cache,
interleaved and alternating which goes first, and each side keeps the
median. A pair's ratio is oracle over closed form, so 1 or more means the
closed form is no slower. Each (rule, n) cell reports the medians over its
pairs. Times are raw wall times in microseconds, on whatever share of a
core the machine gave; the interleaving puts both sides of a ratio under
the same contention.

The result goes to ``BENCH_<label>.json`` at the repository root, or in
``--out``, with the Python version, the CPU count and the commit, marked
``-dirty`` when the tracked files differ from it. The package is imported
from ``src/`` beside this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from blockginv.generators import GenSpec, gen_pair  # noqa: E402
from blockginv.ginverse import drazin  # noqa: E402
from blockginv.theorems import (SHAPE_FOR_THEOREM, THEOREM_IDS,  # noqa: E402
                                assemble_M, block_group_inverse)

SEEDS = range(6)


def _cold_us(function, *args) -> float:
    drazin.cache_clear()
    start = time.perf_counter()
    function(*args)
    return (time.perf_counter() - start) * 1e6


def time_pair(theorem: str, e, f, repeats: int) -> tuple[float, float]:
    """Median cold closed-form and oracle times of one pair, in us."""
    big = assemble_M(e, f, SHAPE_FOR_THEOREM[theorem])
    closed, oracle = [], []
    for k in range(repeats):
        if k % 2:
            oracle.append(_cold_us(drazin, big))
        closed.append(_cold_us(block_group_inverse, theorem, e, f))
        if not k % 2:
            oracle.append(_cold_us(drazin, big))
    return statistics.median(closed), statistics.median(oracle)


def sweep(sizes, repeats: int) -> tuple[list[dict], list[dict]]:
    pairs, cells = [], []
    for n in sizes:
        for theorem in THEOREM_IDS:
            cell = []
            for rank_f in range(n + 1):
                for seed in SEEDS:
                    e, f = gen_pair(GenSpec(theorem, n, rank_f, True, seed))
                    closed, oracle = time_pair(theorem, e, f, repeats)
                    cell.append({"rule": theorem, "n": n, "rank_f": rank_f,
                                 "seed": seed, "closed_form_us": closed,
                                 "oracle_us": oracle,
                                 "ratio": oracle / closed})
            pairs += cell
            ratios = [p["ratio"] for p in cell]
            cells.append({
                "rule": theorem, "n": n, "pairs": len(cell),
                "closed_form_us": statistics.median(
                    p["closed_form_us"] for p in cell),
                "oracle_us": statistics.median(p["oracle_us"] for p in cell),
                "ratio_median": statistics.median(ratios),
                "ratio_min": min(ratios), "ratio_max": max(ratios)})
    return cells, pairs


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty",
                              "--abbrev=40"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def main(argv=None) -> Path:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--sizes", default="1,2,3,4,8",
                        help="comma-separated sizes n (default 1,2,3,4,8)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    sizes = [int(n) for n in args.sizes.split(",")]
    cells, pairs = sweep(sizes, args.repeats)
    record = {
        "label": args.label, "commit": _commit(),
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "repeats": args.repeats, "seeds": list(SEEDS),
        "ratio": "cold oracle time over cold closed-form time",
        "cells": cells, "pairs": pairs,
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for c in cells:
        print(f"n={c['n']} {c['rule']}: closed form "
              f"{c['closed_form_us']:.0f} us, oracle {c['oracle_us']:.0f} us,"
              f" ratio {c['ratio_median']:.2f} "
              f"({c['ratio_min']:.2f}-{c['ratio_max']:.2f})")
    return path


if __name__ == "__main__":
    main()

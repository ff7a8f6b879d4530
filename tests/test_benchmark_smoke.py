"""The benchmark's own smoke test, run as part of this suite.

The harness under ``benchmarks/`` binds names of the package by attribute
(``generators.block_group_inverse``, ``generators.drazin``,
``cli.block_group_inverse`` and the traced layer functions). A rename that
the tests here do not notice would otherwise break only the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_test_passes():
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "benchmarks/test_bench.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]

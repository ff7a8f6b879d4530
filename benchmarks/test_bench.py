"""Smoke test of the benchmark itself: tiny sizes, one set-up, one round.

Run from the repository root:

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    done = _bench(ROOT, "--workload", workload, "--seed", "3",
                  "--seconds", "1", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in named}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    done = _bench(tmp_path, "--workload", "campaign", "--seed", "0",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_gate_flags_corrupted_closed_form_output(tmp_path):
    prog = run.load_program(ROOT)
    workload = workloads.make("closed-form", smoke=True)
    workload.setup(prog, 0, tmp_path)
    code, text = workload.run_item(0)
    assert workload.check([(0, (code, text))]) == [None]

    payload = json.loads(text)
    payload["assembled"][0][0] += "+1"
    corrupted = (code, json.dumps(payload))
    assert workload.check([(0, corrupted)])[0] is not None
    assert workload.check([(0, (2, text))])[0] is not None


def test_gate_flags_wrong_verdict_and_wrong_formula(tmp_path):
    prog = run.load_program(ROOT)
    workload = workloads.make("campaign", smoke=True)
    workload.setup(prog, 0, tmp_path)
    spec = next(s for s in workload.round(0) if s.n == 2 and s.rank_f > 0)
    report = workload.run_item(spec)
    assert workload.check([(spec, report)]) == [None]

    refused = dataclasses.replace(
        report, verdict=prog.generators.Verdict.AGREE_NOT_EXISTS)
    assert workload.check([(spec, refused)])[0] is not None
    shifted = dataclasses.replace(
        report, formula=report.formula + prog.matrices.Matrix.identity(4))
    assert workload.check([(spec, shifted)])[0] is not None

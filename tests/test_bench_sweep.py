"""Smoke run of ``tools/bench_sweep.py``: n <= 2, one repeat."""

import importlib.util
import json
from pathlib import Path

from blockginv.theorems import THEOREM_IDS

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_sweep.py"


def test_sweep_writes_its_record(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_sweep", TOOL)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    path = sweep.main(["--label", "smoke", "--sizes", "1,2", "--repeats", "1",
                       "--out", str(tmp_path)])
    assert path == tmp_path / "BENCH_smoke.json"
    record = json.loads(path.read_text())
    assert {"python", "cpu_count", "commit"} <= record.keys()
    assert [(c["rule"], c["n"]) for c in record["cells"]] == [
        (t, n) for n in (1, 2) for t in THEOREM_IDS]
    # Every rank_f in 0..n, seeds 0-5.
    assert [c["pairs"] for c in record["cells"]] == [12] * 9 + [18] * 9
    assert all(p["closed_form_us"] > 0 and p["oracle_us"] > 0
               and p["ratio"] == p["oracle_us"] / p["closed_form_us"]
               for p in record["pairs"])

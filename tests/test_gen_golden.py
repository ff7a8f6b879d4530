"""Seeded generation, pinned per rule by a digest of its printed pairs.

``tests/data/gen_golden.json`` maps each rule to the sha256 of every
``gen_pair`` output for that rule over n 1..6, every rank_f 0..n, both
targets and seeds 0-1, in that order. A pair is hashed as the rows
``cli.matrix_to_rows`` prints, not as ``Matrix`` storage, and a spec that
raises ``GenerationExhausted`` (structurally impossible, or a draw that
missed its target) is hashed as a fixed marker. Any change to what a seed
draws, or to which draws are accepted, changes a digest.

To re-record, which is only right when a change is meant to alter the
draws (a new distribution, a new acceptance rule), never to make a
refactor pass:

    PYTHONPATH=src python tests/test_gen_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from blockginv.cli import matrix_to_rows
from blockginv.generators import GenerationExhausted, GenSpec, gen_pair
from blockginv.theorems import THEOREM_IDS

GOLDEN = Path(__file__).parent / "data" / "gen_golden.json"
EXHAUSTED = "GenerationExhausted"


def _specs(theorem: str):
    for n in range(1, 7):
        for rank_f in range(n + 1):
            for satisfy in (True, False):
                for seed in (0, 1):
                    yield GenSpec(theorem, n, rank_f, satisfy, seed)


def _digest(theorem: str) -> str:
    h = hashlib.sha256()
    for spec in _specs(theorem):
        try:
            e, f = gen_pair(spec)
        except GenerationExhausted:
            line = EXHAUSTED
        else:
            line = json.dumps([matrix_to_rows(e), matrix_to_rows(f)])
        h.update(f"{spec.n} {spec.rank_f} {spec.satisfy} {spec.seed} "
                 f"{line}\n".encode())
    return h.hexdigest()


def _golden():
    if __name__ == "__main__":  # recording: the file may not exist yet
        return {}
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_seeded_generation_matches_golden(theorem):
    assert _digest(theorem) == _golden()[theorem]


def _record() -> None:
    golden = {theorem: _digest(theorem) for theorem in THEOREM_IDS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _record()

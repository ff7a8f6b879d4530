"""Small-entry pairs that no seeded draw produces, against the oracle.

Every seeded draw builds F as P diag(C, 0) P^-1 with C invertible, so F is
always group invertible there. Here E and F are 3 x 3 with entries drawn
from {-1, 0, 0, 1} (seed 7, E then F, row-major), so F of index 2 or more
and pairs that meet a rule's laws by accident both occur. For every rule
and pair, a result must equal the Drazin inverse of the assembled block
matrix and that matrix must have index <= 1; a refusal must meet an
oracle index >= 2; HypothesisViolated makes no claim. The 1,500 pairs take
about 8 s on one CPU of a shared 2-vCPU host.
"""

import random

import pytest

from blockginv.ginverse import NotGroupInvertible, drazin
from blockginv.matrices import Matrix
from blockginv.theorems import (SHAPE_FOR_THEOREM, THEOREM_IDS,
                                HypothesisViolated, assemble_M,
                                block_group_inverse)

ENTRIES = (-1, 0, 0, 1)
PAIRS = 1500

# cor2.5 once refused this pair ("F has Drazin index 2"), yet
# [[E, F], [I, 0]] has index 1: F is not group invertible, so the
# commutation law need not force F^pi E F = 0.
PINNED = ([[0, 0, -1], [1, 0, 1], [1, 0, -1]],
          [[0, 0, 0], [0, 1, 1], [0, -1, -1]])


def _pairs(count):
    """Row lists of E and F, in the order they are drawn."""
    rng = random.Random(7)
    for _ in range(count):
        yield tuple([[rng.choice(ENTRIES) for _ in range(3)]
                     for _ in range(3)] for _ in range(2))


def _disagreement(theorem, e, f):
    """None if the rule's answer agrees with the oracle, else a message."""
    block = assemble_M(e, f, SHAPE_FOR_THEOREM[theorem])
    try:
        result = block_group_inverse(theorem, e, f)
    except HypothesisViolated:
        return None
    except NotGroupInvertible as exc:
        index = drazin(block).index
        return None if index >= 2 else (
            f"refused ({exc}) but the oracle has index {index}")
    oracle = drazin(block)
    if oracle.index > 1:
        return f"answered but the oracle has index {oracle.index}"
    if result.assembled != oracle.drazin:
        return "answered with a matrix other than the oracle's"
    return None


def test_pinned_pair_gets_no_claim_from_cor25():
    e, f = (Matrix.from_rows(rows) for rows in PINNED)
    assert drazin(f).index == 2
    assert drazin(assemble_M(e, f, SHAPE_FOR_THEOREM["cor2.5"])).index == 1
    with pytest.raises(HypothesisViolated) as info:
        block_group_inverse("cor2.5", e, f)
    assert info.value.condition == "F group-invertible"
    assert [t for t in THEOREM_IDS if _disagreement(t, e, f)] == []


def test_small_entry_pairs_agree_with_the_oracle():
    wrong = []
    for rows in _pairs(PAIRS):
        e, f = map(Matrix.from_rows, rows)
        wrong += [f"{theorem} on E, F = {rows}: {message}"
                  for theorem in THEOREM_IDS
                  for message in [_disagreement(theorem, e, f)] if message]
    assert wrong == []

"""Small-entry pairs that no seeded draw produces, against the oracle and
against the definitions of the hypotheses.

Every seeded draw builds F as P diag(C, 0) P^-1 with C invertible, so F is
always group invertible there. Here F of index 2 or more and pairs that
meet a rule's laws by accident both occur. Two corpora:

- every 2 x 2 pair over {-1, 0, 1}, one per orbit of the simultaneous swap
  (P E P^T, P F P^T), which keeps every hypothesis and verdict: 3,321 of
  the 6,561 pairs (small-scope hypothesis; Andoni, Daniliuc, Khurshid &
  Marinov, 2002);
- 1,500 3 x 3 pairs with entries drawn from {-1, 0, 0, 1} (seed 7, E then
  F, row-major).

For every rule and pair, a result must equal the Drazin inverse of the
assembled block matrix and that matrix must have index <= 1; a refusal
must meet an oracle index >= 2; HypothesisViolated makes no claim. Every
condition a report names must hold exactly when its defining product,
formed here from drazin(E) and drazin(F), is zero, and carry that product
as its residual; the scalar law must hold exactly when some lambda gives
EF = lambda FE. On one CPU of a shared 2-vCPU host the oracle sweeps take
about 7 s (2 x 2) and 5 s (3 x 3), and the definitions checks about 5 s
and 4 s.
"""

import itertools
import random

import pytest

from blockginv.ginverse import NotGroupInvertible, drazin
from blockginv.matrices import Matrix
from blockginv.theorems import (SHAPE_FOR_THEOREM, THEOREM_IDS,
                                HypothesisViolated, assemble_M,
                                block_group_inverse, check_conditions)
from conftest import DEFINITIONS

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


def _two_by_two(entries):
    """Row lists of 2 x 2 E and F from their eight entries, row-major."""
    return ([list(entries[0:2]), list(entries[2:4])],
            [list(entries[4:6]), list(entries[6:8])])


def _swap_orbit_pairs():
    """Row lists of E and F over {-1, 0, 1}, one pair per swap orbit.

    Swapping both coordinates maps [[a, b], [c, d]] to [[d, c], [b, a]];
    the pair kept is the one whose entries, E then F, come first.
    """
    for entries in itertools.product((-1, 0, 1), repeat=8):
        if entries <= tuple(entries[k] for k in (3, 2, 1, 0, 7, 6, 5, 4)):
            yield _two_by_two(entries)


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


def _some_lambda(e, f):
    """Whether EF = lambda FE for some scalar lambda."""
    ef, fe = e * f, f * e
    if ef.is_zero():
        return True
    i, j = next((i, j) for i in range(ef.rows) for j in range(ef.cols)
                if ef[i, j])
    return bool(fe[i, j]) and ef == (ef[i, j] / fe[i, j]) * fe


def _misreports(theorem, e, f):
    """The conditions whose report breaks their definition; "" if none."""
    e_pi = drazin(e).spectral_idempotent
    f_pi = drazin(f).spectral_idempotent
    wrong = []
    for c in check_conditions(e, f, theorem).conditions:
        if c.name == "EF=lambda FE":
            broken = c.holds != _some_lambda(e, f) or (c.holds and not (
                c.residual.is_zero() and e * f == c.lam * (f * e)))
        else:
            residual = DEFINITIONS[c.name](e, f, e_pi, f_pi)
            broken = (c.residual != residual
                      or c.holds != residual.is_zero())
        if broken:
            wrong.append(c.name)
    return ", ".join(wrong)


def _sweep(pairs, judge):
    """Every rule's complaint on every pair, one message each."""
    wrong = []
    for rows in pairs:
        e, f = map(Matrix.from_rows, rows)
        wrong += [f"{theorem} on E, F = {rows}: {message}"
                  for theorem in THEOREM_IDS
                  for message in [judge(theorem, e, f)] if message]
    return wrong


def test_pinned_pair_gets_no_claim_from_cor25():
    e, f = (Matrix.from_rows(rows) for rows in PINNED)
    assert drazin(f).index == 2
    assert drazin(assemble_M(e, f, SHAPE_FOR_THEOREM["cor2.5"])).index == 1
    with pytest.raises(HypothesisViolated) as info:
        block_group_inverse("cor2.5", e, f)
    assert info.value.condition == "F group-invertible"
    assert [t for t in THEOREM_IDS if _disagreement(t, e, f)] == []


def test_swap_orbits_cover_every_two_by_two_pair():
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    kept = {tuple(map(Matrix.from_rows, rows))
            for rows in _swap_orbit_pairs()}
    everything = {tuple(map(Matrix.from_rows, _two_by_two(entries)))
                  for entries in itertools.product((-1, 0, 1), repeat=8)}
    assert len(kept) == 3321
    assert everything == kept | {(swap * e * swap, swap * f * swap)
                                 for e, f in kept}


def test_small_entry_pairs_agree_with_the_oracle():
    assert _sweep(_pairs(PAIRS), _disagreement) == []


def test_every_two_by_two_pair_agrees_with_the_oracle():
    assert _sweep(_swap_orbit_pairs(), _disagreement) == []


@pytest.mark.parametrize("pairs", [_swap_orbit_pairs, lambda: _pairs(PAIRS)],
                         ids=["2x2", "3x3"])
def test_reports_follow_the_definitions(pairs):
    assert _sweep(pairs(), _misreports) == []

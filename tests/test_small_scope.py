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

For every rule and pair, block_group_inverse runs once, and its answer
is judged three ways. A result must equal the Drazin inverse of the
assembled block matrix and that matrix must have index <= 1; a refusal
must meet an oracle index >= 2; HypothesisViolated makes no claim. The
kind of answer must follow the report it carries: a result only when no
hypothesis fails, HypothesisViolated only on a standing hypothesis and
NotGroupInvertible only on a refusal condition, either naming that
failure as ``condition``. Every condition that report names must hold
exactly when its defining product, formed here from drazin(E) and
drazin(F), is zero, and carry that product as its residual; the scalar
law must hold exactly when some lambda gives EF = lambda FE. The report
is the one check_conditions builds, as the pinned pair checks for all
nine rules. Each corpus is swept once; its oracle test and its report
test read the complaints of their own judges from that one sweep. On one
CPU of a shared 2-vCPU host the sweeps take about 8-10 s (2 x 2) and
5-6 s (3 x 3).
"""

import functools
import itertools
import random

import pytest

from blockginv.ginverse import NotGroupInvertible, drazin
from blockginv.matrices import Matrix
from blockginv.theorems import (RULES, THEOREM_IDS, BlockGroupInverse,
                                HypothesisViolated, assemble_M,
                                block_group_inverse, check_conditions)
from conftest import DEFINITIONS, split_complaints

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


def _answer(theorem, e, f):
    """The rule's one answer: its result, or the refusal it raises. Either
    carries the rule's report as ``report``."""
    try:
        return block_group_inverse(theorem, e, f)
    except (HypothesisViolated, NotGroupInvertible) as exc:
        return exc


def _disagreement(rule, e, f, answer):
    """None if the rule's answer agrees with the oracle, else a message."""
    if isinstance(answer, HypothesisViolated):
        return None
    oracle = drazin(assemble_M(e, f, rule.shape))
    if isinstance(answer, NotGroupInvertible):
        return None if oracle.index >= 2 else (
            f"refused ({answer}) but the oracle has index {oracle.index}")
    if oracle.index > 1:
        return f"answered but the oracle has index {oracle.index}"
    return (None if answer.assembled == oracle.drazin
            else "answered with a matrix other than the oracle's")


def _wrong_kind(rule, e, f, answer):
    """None if the answer is the kind that its report's first failure
    calls for, and a refusal names that failure; else a message."""
    failure = getattr(answer.report.first_failure, "name", None)
    allowed = {BlockGroupInverse: (None,), HypothesisViolated: rule.standing,
               NotGroupInvertible: rule.refusing}[type(answer)]
    condition = getattr(answer, "condition", None)
    return None if failure in allowed and condition == failure else (
        f"{type(answer).__name__} on {condition}, first failure {failure}")


def _some_lambda(e, f):
    """Whether EF = lambda FE for some scalar lambda."""
    ef, fe = e * f, f * e
    if ef.is_zero():
        return True
    i, j = next((i, j) for i in range(ef.rows) for j in range(ef.cols)
                if ef[i, j])
    return bool(fe[i, j]) and ef == (ef[i, j] / fe[i, j]) * fe


def _breaks_definition(c, e, f, e_pi, f_pi):
    """Whether a reported condition breaks its definition."""
    if c.name == "EF=lambda FE":
        return c.holds != _some_lambda(e, f) or (c.holds and not (
            c.residual.is_zero() and e * f == c.lam * (f * e)))
    residual = DEFINITIONS[c.name](e, f, e_pi, f_pi)
    return c.residual != residual or c.holds != residual.is_zero()


def _misreports(rule, e, f, answer):
    """The conditions whose report breaks their definition; "" if none."""
    e_pi, f_pi = (drazin(m).spectral_idempotent for m in (e, f))
    return ", ".join(c.name for c in answer.report.conditions
                     if _breaks_definition(c, e, f, e_pi, f_pi))


def _sweep(pairs):
    """Every complaint against each rule's one answer on every pair, with
    the judge that made it: the oracle, its own report or the
    definitions."""
    return [(judge, f"{theorem} on E, F = {rows}: {message}")
            for rows in pairs
            for e, f in [map(Matrix.from_rows, rows)]
            for theorem in THEOREM_IDS for answer in [_answer(theorem, e, f)]
            for judge in (_disagreement, _wrong_kind, _misreports)
            for message in [judge(RULES[theorem], e, f, answer)] if message]


CORPORA = {"2x2": _swap_orbit_pairs, "3x3": lambda: _pairs(PAIRS)}


@functools.cache
def _corpus_sweep(corpus):
    """The sweep of one corpus, made once and shared by its tests."""
    return tuple(_sweep(CORPORA[corpus]()))


def _complaints(corpus, *judges):
    """The messages of the given judges on one corpus."""
    return [message for judge, message in _corpus_sweep(corpus)
            if judge in judges]


def test_pinned_pair_gets_no_claim_from_cor25():
    e, f = (Matrix.from_rows(rows) for rows in PINNED)
    assert drazin(f).index == 2
    assert drazin(assemble_M(e, f, RULES["cor2.5"].shape)).index == 1
    with pytest.raises(HypothesisViolated) as info:
        block_group_inverse("cor2.5", e, f)
    assert info.value.condition == "F group-invertible"
    assert all(check_conditions(e, f, t) == _answer(t, e, f).report
               for t in THEOREM_IDS)
    assert _sweep([PINNED]) == []


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
    assert _complaints("3x3", _disagreement) == []


def test_every_two_by_two_pair_agrees_with_the_oracle():
    assert _complaints("2x2", _disagreement) == []


@pytest.mark.parametrize("corpus", CORPORA)
def test_reports_follow_the_definitions(corpus):
    """The same one rule call per (rule, pair), judged by its own report
    and, through that report, by the definitions."""
    assert _complaints(corpus, _wrong_kind, _misreports) == []


@pytest.mark.parametrize("corpus", CORPORA)
def test_split_is_read_off_f_rref(corpus):
    """Each pair as given and transposed: wherever F has index <= 1 the
    split verdict is whether F E G is zero, and W on a split pair is
    H (E G) (``conftest.split_complaints``). Both corpora hold pairs whose
    F drazin factors through F^T."""
    complaints, flipped = split_complaints(
        tuple(map(Matrix.from_rows, rows)) for rows in CORPORA[corpus]())
    assert complaints == []
    assert flipped > 0

"""Acceptance gate: seven criteria, exact arithmetic, zero tolerance.

Each test prints one CRITERION line. The positive corpus (200 seeded
instances per rule, sizes 1 through 6) is built once and shared by
criteria 3, 5, and 7.
"""

import random
from fractions import Fraction

import pytest

from blockginv import generators, matrices
from blockginv.generators import Verdict, run_campaign
from blockginv.ginverse import (
    NotGroupInvertible,
    _spectral_factors,
    block_triangular_drazin,
    cline,
    drazin,
    drazin_index,
    group_inverse,
)
from blockginv.matrices import Matrix, rank
from blockginv.scalars import GaussianRational
from blockginv.theorems import RULES, THEOREM_IDS, block_group_inverse
from conftest import DEFINITIONS, mat, split_complaints, spy
from paper_forms import (
    blocks,
    cor24_direct,
    cor32_direct,
    thm23_direct,
    thm31_factored,
    thm31_statement,
)
from reference_drazin import reference_drazin
from seeded import gen_group_invertible

CORPUS_TRIALS = 200
CORPUS_SEED = 20260817
NEGATIVE_TRIALS = 50
BATTERY_SIZE = 500


class _Criterion:
    """Prints exactly one CRITERION line, PASS or FAIL."""

    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"CRITERION {self.number} ({self.label}): {status}")
        return False


@pytest.fixture(scope="module")
def corpus():
    return {
        theorem: run_campaign(theorem, CORPUS_TRIALS, 6, seed=CORPUS_SEED)
        for theorem in THEOREM_IDS
    }


WORKED_E = [["1", "2"], ["0", "-1"]]
WORKED_F = [["i", "i"], ["0", "0"]]


def test_criterion_1_worked_example_blocks():
    with _Criterion(1, "worked example blocks and assembly"):
        result = block_group_inverse("thm3.1", mat(WORKED_E), mat(WORKED_F))
        assert result.gamma == mat([["0", "1"], ["0", "-1"]])
        assert result.delta == mat([["-i", "-i"], ["0", "0"]])
        assert result.lambda_blk == mat([["-i", "-i"], ["0", "0"]])
        assert result.xi == mat([["1", "1"], ["0", "0"]])
        assert result.assembled == mat([
            ["0", "1", "-i", "-i"],
            ["0", "-1", "0", "0"],
            ["-i", "-i", "1", "1"],
            ["0", "0", "0", "0"],
        ])


def test_criterion_2_worked_example_ingredients():
    with _Criterion(2, "worked example sub-values"):
        e, f = mat(WORKED_E), mat(WORKED_F)
        assert group_inverse(e) == e
        assert drazin(e).spectral_idempotent == Matrix.zeros(2, 2)
        assert group_inverse(f) == mat([["-i", "-i"], ["0", "0"]])
        assert drazin(f).spectral_idempotent == mat([["0", "-1"], ["0", "1"]])


def test_criterion_3_positive_campaigns(corpus):
    with _Criterion(3, "200 seeded positives per rule against the oracle"):
        for theorem in THEOREM_IDS:
            trials = corpus[theorem]
            assert len(trials) >= CORPUS_TRIALS
            bad = [t for t in trials
                   if t.report.verdict is not Verdict.AGREE_EXISTS]
            assert not bad, f"{theorem}: {len(bad)} non-agreeing trials"
            assert {t.spec.n for t in trials} == {1, 2, 3, 4, 5, 6}


def test_criterion_4_negative_campaigns():
    with _Criterion(4, "50 refusal instances per equivalence rule"):
        for theorem in ("thm2.1", "thm2.3", "thm3.1", "cor3.2"):
            trials = run_campaign(theorem, NEGATIVE_TRIALS, 6,
                                  seed=CORPUS_SEED + 1, negative=True)
            assert len(trials) >= NEGATIVE_TRIALS
            for t in trials:
                assert t.report.verdict is Verdict.AGREE_NOT_EXISTS, \
                    f"{theorem}: seed {t.spec.seed} gave {t.report.verdict}"
                assert t.report.oracle_index >= 2
                assert t.report.formula is None


@pytest.mark.parametrize("theorem", ["thm2.1", "thm2.3", "thm3.1", "cor3.2"])
def test_refusals_form_residuals_on_read(theorem, monkeypatch):
    """On criterion 4's corpus a refusal is decided from W's index after
    products E G (n x q) and G W (n x q) alone, W = E G[free, :] being a
    pick at the rows where G is the identity, and forms its failing
    residual only when that is read; every residual read equals its
    definition. Where drazin factored F^T, in the kernel's orientation,
    the products are E G, W = H E G (q x q) and G W (n x q). gen_pair
    leaves drazin's cache warm, so the refusal takes no product inside
    drazin."""
    refused = []

    def refuse(e, f, name):
        n, q = e.rows, e.rows - rank(f)
        oriented = f.transpose() if RULES[name].mirrored else f
        flipped = _spectral_factors(drazin(oriented))[2] is None
        with monkeypatch.context() as patch:
            products = spy(patch, matrices, "_product")
            with pytest.raises(NotGroupInvertible) as info:
                block_group_inverse(name, e, f)
            shapes = [(left.rows, right.cols) for left, right in products]
            assert shapes == ([(n, q), (q, q), (n, q)] if flipped
                              else [(n, q), (n, q)])
            products.clear()
            report = info.value.report
            residuals = [c.residual for c in report.conditions]
            assert any(left.rows == right.cols == n
                       for left, right in products)
        e_pi, f_pi = (reference_drazin(m).spectral_idempotent for m in (e, f))
        for condition, residual in zip(report.conditions, residuals):
            defined = DEFINITIONS[condition.name](e, f, e_pi, f_pi)
            assert residual == defined
            assert condition.holds == defined.is_zero()
        refused.append(name)

    monkeypatch.setattr(generators, "verify_instance", refuse)
    run_campaign(theorem, NEGATIVE_TRIALS, 6, seed=CORPUS_SEED + 1,
                 negative=True)
    assert refused == [theorem] * NEGATIVE_TRIALS


def test_split_is_read_off_f_rref(corpus):
    """On criterion 3's and criterion 4's corpora, each pair as given and
    transposed, the kernel-oriented split verdict is whether F E G is
    zero, and W on a split pair is H (E G) (``conftest.split_complaints``).
    Both corpora hold pairs whose F drazin factors through F^T."""
    positives = [(t.e, t.f) for trials in corpus.values() for t in trials]
    refusals = [(t.e, t.f)
                for theorem in ("thm2.1", "thm2.3", "thm3.1", "cor3.2")
                for t in run_campaign(theorem, NEGATIVE_TRIALS, 6,
                                      seed=CORPUS_SEED + 1, negative=True)]
    for pairs in (positives, refusals):
        complaints, flipped = split_complaints(pairs)
        assert complaints == []
        assert flipped > 0


def test_criterion_5_route_consistency(corpus):
    with _Criterion(5, "independent routes agree on the shared corpus"):
        for t in corpus["cor2.2"]:
            n = t.e.rows
            eye = Matrix.identity(n)
            zero = Matrix.zeros(n, n)
            p = Matrix.from_blocks([[zero, eye], [eye, -t.e]])
            p_inv = Matrix.from_blocks([[t.e, eye], [eye, zero]])
            sibling = block_group_inverse("thm2.1", t.e, t.f)
            assert t.report.formula == p_inv * sibling.assembled * p
        for t in corpus["cor2.4"]:
            n = t.e.rows
            eye = Matrix.identity(n)
            zero = Matrix.zeros(n, n)
            p = Matrix.from_blocks([[t.e, eye], [eye, zero]])
            p_inv = Matrix.from_blocks([[zero, eye], [eye, -t.e]])
            sibling = block_group_inverse("thm2.3", t.e, t.f)
            assert t.report.formula == p_inv * sibling.assembled * p
        for t in corpus["thm2.3"]:
            mirrored = block_group_inverse("thm2.1", t.e.transpose(),
                                           t.f.transpose())
            assert t.report.formula.transpose() == mirrored.assembled
            result = block_group_inverse("thm2.3", t.e, t.f)
            assert blocks(result) == thm23_direct(t.e, t.f)
        for t in corpus["cor2.4"]:
            result = block_group_inverse("cor2.4", t.e, t.f)
            assert blocks(result) == cor24_direct(t.e, t.f)
        for t in corpus["cor3.2"]:
            mirrored = block_group_inverse("thm3.1", t.e.transpose(),
                                           t.f.transpose())
            assert t.report.formula.transpose() == mirrored.assembled
            result = block_group_inverse("cor3.2", t.e, t.f)
            assert blocks(result) == cor32_direct(t.e, t.f)
        for t in corpus["cor2.5"]:
            assert t.report.formula == \
                block_group_inverse("thm2.3", t.e, t.f).assembled
        for t in corpus["cor3.4"]:
            assert t.report.formula == \
                block_group_inverse("cor3.3", t.e, t.f).assembled
        for t in corpus["thm3.1"]:
            result = block_group_inverse("thm3.1", t.e, t.f)
            assert blocks(result) == thm31_statement(t.e, t.f)


def test_thm31_matches_factored_route(corpus):
    # The library's three blocks against the proof's route through N^#.
    for t in corpus["thm3.1"]:
        gamma, delta, lambda_blk, xi = thm31_factored(t.e, t.f)
        assert t.report.formula == Matrix.from_blocks([[gamma, delta],
                                                       [lambda_blk, xi]])


def _battery_scalar(rng):
    real = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    imag = Fraction(0)
    if rng.random() < 0.25:
        imag = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return GaussianRational(real, imag)


def _battery_matrix(rng, rows, cols):
    return Matrix.from_rows(
        [[_battery_scalar(rng) for _ in range(cols)] for _ in range(rows)]
    )


def test_criterion_6_drazin_battery():
    with _Criterion(6, "500 random matrices satisfy every Drazin invariant"):
        rng = random.Random(CORPUS_SEED + 2)
        for trial in range(BATTERY_SIZE):
            n = rng.randint(1, 6)
            m = _battery_matrix(rng, n, n)
            result = drazin(m)
            d, k, pi = result.drazin, result.index, result.spectral_idempotent
            assert m * d == d * m
            assert d * m * d == d
            assert m ** (k + 1) * d == m ** k
            assert drazin_index(m) == k
            assert rank(m ** k) == rank(m ** (k + 1))
            if k >= 1:
                assert rank(m ** (k - 1)) > rank(m ** k)
            assert pi * pi == pi
            assert m * pi == pi * m
            assert (m * pi) ** max(k, 1) == Matrix.zeros(n, n)
            if k >= 2:
                assert not ((m * pi) ** (k - 1)).is_zero()
            assert rank(m + pi) == n

            mid = rng.randint(1, 6)
            a = _battery_matrix(rng, n, mid)
            b = _battery_matrix(rng, mid, n)
            folded = cline(a, b)
            direct = drazin(a * b)
            assert folded.drazin == direct.drazin
            assert folded.index == direct.index

            na = rng.randint(1, 3)
            nd = rng.randint(1, 3)
            top = gen_group_invertible(na, rng.randint(0, na),
                                       seed=CORPUS_SEED + trial)
            bottom = gen_group_invertible(nd, rng.randint(0, nd),
                                          seed=CORPUS_SEED + trial + 7)
            coupling = _battery_matrix(rng, nd, na)
            stacked = Matrix.from_blocks([
                [top, Matrix.zeros(na, nd)], [coupling, bottom],
            ])
            assert block_triangular_drazin(top, coupling, bottom) == \
                drazin(stacked).drazin


def test_criterion_7_proof_side_conditions(corpus):
    with _Criterion(7, "proof side conditions on positive thm3.1 instances"):
        for t in corpus["thm3.1"]:
            result = block_group_inverse("thm3.1", t.e, t.f)
            alpha = result.gamma
            e_pi = drazin(t.e).spectral_idempotent
            f_pi = drazin(t.f).spectral_idempotent
            assert (t.f * t.f * alpha).is_zero()
            assert (t.e * alpha * t.f).is_zero()
            assert (t.f * e_pi * f_pi).is_zero()
            assert (t.f * alpha * t.f).is_zero()

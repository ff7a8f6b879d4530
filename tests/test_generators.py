"""Instance generation: determinism, postconditions, verdicts, exhaustion."""

import concurrent.futures
import dataclasses
import os
import random
from fractions import Fraction

import pytest

from blockginv.generators import (
    GenerationExhausted,
    GenSpec,
    Verdict,
    gen_pair,
    run_campaign,
    verify_instance,
)
from blockginv import generators, matrices, theorems
from blockginv.ginverse import drazin
from blockginv.matrices import Matrix, rank
from blockginv.scalars import GaussianRational
from blockginv.theorems import THEOREM_IDS, check_conditions, rule_for
from conftest import (CONDITION_NAMES, FIRST_STANDING_BREAKERS, holds, mat,
                      spy)
from seeded import gen_group_invertible, gen_invertible


class TestBuildingBlocks:
    def test_gen_invertible(self):
        m = gen_invertible(4, seed=2)
        assert m.shape == (4, 4)
        assert rank(m) == 4

    def test_gen_invertible_deterministic(self):
        assert gen_invertible(3, seed=5) == gen_invertible(3, seed=5)
        assert gen_invertible(3, seed=5) != gen_invertible(3, seed=6)

    def test_gen_group_invertible(self):
        for r in range(4):
            m = gen_group_invertible(3, r, seed=r + 10)
            assert rank(m) == min(r, 3)
            assert drazin(m).index <= 1

    def test_zero_size_draws_are_zero_and_use_no_randomness(self):
        # The general paths need no guard: a matrix with a zero dimension
        # draws nothing, and a 1x0 times 0x1 product is the 1x1 zero.
        rng = random.Random(7)
        state = rng.getstate()
        assert generators._gen_invertible(rng, 0) == Matrix.zeros(0, 0)
        assert generators._singular(rng, 1) == Matrix.zeros(1, 1)
        assert rng.getstate() == state

    def test_exact_rank_decides_when_the_certificate_abstains(
            self, monkeypatch):
        # The mod-P certificate inside rref, whose pivots rank counts, only
        # ever proves invertibility; with it silenced, the exact elimination
        # alone must make every decision, so the same draws are accepted
        # and rejected.
        specs = [GenSpec(theorem, 4, 2, True, seed=1)
                 for theorem in THEOREM_IDS]
        draws = [gen_invertible(n, seed) for n in range(7) for seed in (0, 1)]
        pairs = [gen_pair(spec) for spec in specs]
        monkeypatch.setattr(matrices, "_certainly_invertible",
                            lambda matrix: False)
        ranks = spy(monkeypatch, generators, "rank", result=True)
        assert [gen_invertible(n, seed) for n in range(7)
                for seed in (0, 1)] == draws
        assert [gen_pair(spec) for spec in specs] == pairs
        assert any(found < m.rows for (m,), found in ranks)  # a rejected draw
        assert any(found == m.rows for (m,), found in ranks)


class TestGenPair:
    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_positive_draws_meet_their_conditions(self, theorem):
        for n, r in [(1, 1), (2, 1), (3, 2), (4, 0)]:
            spec = GenSpec(theorem, n, r, satisfy=True, seed=100 + n)
            e, f = gen_pair(spec)
            assert e.shape == f.shape == (n, n)
            assert rank(f) == r
            assert drazin(f).index <= 1
            assert check_conditions(e, f, theorem).satisfied()

    @pytest.mark.parametrize("theorem", ["thm2.1", "cor2.2", "thm2.3",
                                         "cor2.4", "cor2.5"])
    def test_negative_draws_fail_only_existence(self, theorem):
        spec = GenSpec(theorem, 3, 1, satisfy=False, seed=41)
        e, f = gen_pair(spec)
        report = check_conditions(e, f, theorem)
        assert not report.satisfied()
        assert holds(report, "F group-invertible")

    @pytest.mark.parametrize("theorem", ["thm3.1", "cor3.2"])
    def test_negative_draws_keep_standing_hypotheses(self, theorem):
        spec = GenSpec(theorem, 4, 1, satisfy=False, seed=17)
        e, f = gen_pair(spec)
        report = check_conditions(e, f, theorem)
        assert holds(report, "F group-invertible")
        standing = ("FEF^pi=0" if theorem == "thm3.1" else "F^pi EF=0")
        assert holds(report, standing)
        assert not report.satisfied()

    @pytest.mark.parametrize("satisfy", [True, False])
    def test_one_draw_one_check(self, satisfy, monkeypatch):
        # Each draw hits its target by construction. gen_pair checks its
        # one draw, and a miss is raised at once, naming what failed.
        checks = spy(monkeypatch, generators, "check_conditions")
        spec = GenSpec("thm2.1", 3, 1, satisfy, seed=0)
        e, f = gen_pair(spec)
        assert checks == [(e, f, "thm2.1")]
        # A draw aimed at the other target must miss this one.
        draw = generators._draw_flavored
        flipped = dataclasses.replace(spec, satisfy=not satisfy)
        monkeypatch.setattr(generators, "_draw_flavored",
                            lambda rng, _: draw(rng, flipped))
        checks.clear()
        with pytest.raises(GenerationExhausted) as info:
            gen_pair(spec)
        assert len(checks) == 1
        blocker = "E^pi F^pi=0"
        found, target = (blocker, None) if satisfy else (None, blocker)
        assert str(info.value) == (f"{spec}: the draw's first failure is "
                                   f"{found!r}, not the target {target!r}")

    def test_determinism(self):
        spec = GenSpec("thm3.1", 4, 2, satisfy=True, seed=77)
        assert gen_pair(spec) == gen_pair(spec)

    def test_full_rank_makes_negatives_impossible(self):
        with pytest.raises(GenerationExhausted):
            gen_pair(GenSpec("thm2.1", 2, 2, satisfy=False, seed=0))

    def test_nilpotent_negatives_need_two_spare_dimensions(self):
        with pytest.raises(GenerationExhausted):
            gen_pair(GenSpec("thm3.1", 2, 1, satisfy=False, seed=0))

    @pytest.mark.parametrize("theorem", ["cor3.3", "cor3.4"])
    def test_unconditional_rules_have_no_negatives(self, theorem):
        with pytest.raises(GenerationExhausted):
            gen_pair(GenSpec(theorem, 3, 1, satisfy=False, seed=0))

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_pair(GenSpec("thm9.9", 2, 1))
        with pytest.raises(ValueError):
            gen_pair(GenSpec("thm2.1", 0, 0))
        with pytest.raises(ValueError):
            gen_pair(GenSpec("thm2.1", 2, 3))


def _no_scalar_objects(*_args, **_kwargs):
    raise AssertionError("a draw built a GaussianRational or a Fraction")


class TestDrawsFromIntegerParts:
    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_draws_build_no_scalar_objects(self, theorem, monkeypatch):
        # Draws go from integer parts straight into Matrix storage, and
        # so does their conjugation.
        specs = []
        for n in range(1, 7):
            for rank_f in range(n + 1):
                for satisfy in (True, False):
                    spec = GenSpec(theorem, n, rank_f, satisfy)
                    try:
                        generators._check_feasible(spec)
                    except GenerationExhausted:
                        continue
                    specs.extend(dataclasses.replace(spec, seed=seed)
                                 for seed in (0, 1))
        with monkeypatch.context() as patch:
            for cls, name in ((GaussianRational, "__init__"),
                              (GaussianRational, "_new"),
                              (Fraction, "__new__")):
                patch.setattr(cls, name, _no_scalar_objects)
            for build in (lambda: GaussianRational(1), lambda: Fraction(1),
                          lambda: Matrix.identity(1)[0, 0]):
                with pytest.raises(AssertionError):
                    build()
            pairs = [generators._draw(random.Random(spec.seed), spec)
                     for spec in specs]
        assert len(pairs) == len(specs) > 0
        for spec, (e, f) in zip(specs, pairs):
            assert e.shape == f.shape == (spec.n, spec.n)
            assert rank(f) == spec.rank_f

    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_one_conjugation_takes_two_full_products(self, theorem,
                                                      monkeypatch):
        # Every rule's draw is conjugated once: P E~ P^-1 is the only
        # product of two n x n factors, F goes through P's first r columns.
        n = 6
        products = spy(monkeypatch, matrices, "_product")
        for rank_f in range(1, n):
            products.clear()
            generators._draw(random.Random(0), GenSpec(theorem, n, rank_f))
            full = sum(left.shape == right.shape == (n, n)
                       for left, right in products)
            assert full == 2, rank_f


class TestVerifyInstance:
    def test_agree_exists(self):
        e = mat([["1", "0"], ["1", "1"]])
        f = mat([["1", "0"], ["0", "0"]])
        report = verify_instance(e, f, "thm2.1")
        assert report.verdict is Verdict.AGREE_EXISTS
        assert report.oracle_index == 1
        assert report.formula == report.oracle
        assert report.mismatch_positions == ()
        assert report.error is None

    def test_agree_not_exists(self):
        report = verify_instance(mat([["0"]]), mat([["0"]]), "thm2.1")
        assert report.verdict is Verdict.AGREE_NOT_EXISTS
        assert report.formula is None
        assert report.oracle_index == 2
        assert "E^pi F^pi=0" in (report.error or "")

    def test_mismatch_positions(self, monkeypatch):
        # thm3.1's kernel off by one in the first entry of gamma and the
        # last of xi: the assembled 2n matrix differs there and only there.
        rule = theorems.RULES["thm3.1"]

        def off_by_one(*inputs):
            gamma, delta, lam, xi = rule.kernel(*inputs)
            n = gamma.rows
            return (gamma + Matrix(n, n, [1] + [0] * (n * n - 1)), delta,
                    lam, xi + Matrix(n, n, [0] * (n * n - 1) + [1]))

        monkeypatch.setitem(theorems.RULES, "thm3.1",
                            dataclasses.replace(rule, kernel=off_by_one))
        e, f = gen_pair(GenSpec("thm3.1", 3, 1, satisfy=True, seed=5))
        report = verify_instance(e, f, "thm3.1")
        assert report.verdict is Verdict.MISMATCH
        assert report.mismatch_positions == ((0, 0), (5, 5))
        assert report.error is None

    def test_hypothesis_violation_counts_as_mismatch(self):
        e = mat([["0", "1"], ["0", "0"]])
        f = mat([["1", "0"], ["0", "0"]])
        report = verify_instance(e, f, "thm2.1")
        assert report.verdict is Verdict.MISMATCH
        assert report.error is not None

    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_conditions_are_the_full_report(self, theorem):
        # On success the report comes from the block inverse; after a
        # refusal or a violation it is evaluated in full.
        pairs = [gen_pair(GenSpec(theorem, 3, 1, True, seed=23)),
                 (mat([["0", "1"], ["0", "0"]]),
                  mat([["1", "0"], ["0", "0"]]))]
        if rule_for(theorem).blocker is not None:
            pairs.append(gen_pair(GenSpec(theorem, 3, 0, False, seed=23)))
        for e, f in pairs:
            assert verify_instance(e, f, theorem).conditions == \
                check_conditions(e, f, theorem)

    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_each_condition_is_evaluated_once(self, theorem, monkeypatch):
        # The exception carries the block inverse's full report, so a
        # refusal or a violation evaluates no residual twice.
        pairs = [(mat([["0", "1"], ["0", "0"]]),
                  mat([["1", "0"], ["0", "0"]]))]
        if rule_for(theorem).blocker is not None:
            pairs.append(gen_pair(GenSpec(theorem, 3, 0, False, seed=23)))
        # _evaluate returns one hypothesis's residual, and _commutation the
        # two laws of the either/or.
        verdicts = []
        for e, f in pairs:
            with monkeypatch.context() as patch:
                evaluated = spy(patch, theorems, "_evaluate")
                laws = spy(patch, theorems, "_commutation", result=True)
                report = verify_instance(e, f, theorem)
            verdicts.append(report.verdict)
            names = [hypothesis for hypothesis, *_ in evaluated]
            names += [law.name for _, found in laws for law in found]
            assert sorted(names) == sorted(CONDITION_NAMES[theorem])
        assert set(verdicts) - {Verdict.AGREE_EXISTS}

    @pytest.mark.parametrize("spec", [GenSpec("cor2.4", 5, 2, True, 11),
                                      GenSpec("thm2.1", 5, 2, False, 11)])
    def test_oracle_spectral_idempotent_is_left_unformed(self, spec,
                                                         monkeypatch):
        # verify_instance reads only T^D and the index of the 2n oracle, so
        # its T^pi is formed only when something reads it afterwards.
        drazin.cache_clear()
        oracles = spy(monkeypatch, generators, "drazin", result=True)
        e, f = gen_pair(spec)
        report = verify_instance(e, f, spec.theorem)
        assert report.verdict is (Verdict.AGREE_EXISTS if spec.satisfy
                                  else Verdict.AGREE_NOT_EXISTS)
        ((big,), oracle), = oracles
        assert oracle.index >= 1
        assert oracle._pi is None
        assert oracle.spectral_idempotent == \
            Matrix.identity(big.rows) - big * oracle.drazin

    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_drazin_is_called_only_for_the_oracle(self, theorem, monkeypatch):
        # The benchmark times generators.drazin as the oracle, so nothing
        # else may go through that name: not even after a refusal.
        e_rows, f_rows, _ = FIRST_STANDING_BREAKERS[theorem]
        pairs = [gen_pair(GenSpec(theorem, 3, 1, True, seed=23)),
                 (mat(e_rows), mat(f_rows))]
        if rule_for(theorem).blocker is not None:
            pairs.append(gen_pair(GenSpec(theorem, 3, 0, False, seed=23)))
        verdicts = set()
        for e, f in pairs:
            with monkeypatch.context() as patch:
                calls = spy(patch, generators, "drazin")
                verdicts.add(verify_instance(e, f, theorem).verdict)
            assert [m.shape for m, in calls] == [(2 * e.rows, 2 * e.rows)]
        assert len(verdicts) == len(pairs)


class TestRunCampaign:
    def test_positive_campaign_agrees(self):
        trials = run_campaign("cor2.4", 10, 4, seed=3)
        assert len(trials) == 10
        assert all(t.report.verdict is Verdict.AGREE_EXISTS for t in trials)
        assert [t.spec.seed for t in trials] == \
            [3 * 1_000_003 + i for i in range(10)]

    def test_negative_campaign_refuses(self):
        trials = run_campaign("thm2.3", 10, 4, seed=8, negative=True)
        assert all(t.report.verdict is Verdict.AGREE_NOT_EXISTS for t in trials)
        assert all(t.report.oracle_index >= 2 for t in trials)

    def test_deterministic_across_calls_and_workers(self):
        first = run_campaign("thm3.1", 6, 4, seed=12)
        second = run_campaign("thm3.1", 6, 4, seed=12)
        parallel = run_campaign("thm3.1", 6, 4, seed=12, jobs=2)
        assert first == second
        assert first == parallel

    def test_pool_is_capped_by_trials_and_cpus(self, monkeypatch):
        # A stand-in pool records its size and maps in-process, so no
        # worker process is ever started, whatever jobs asks for.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                assert chunksize >= 1
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        serial = run_campaign("thm2.1", 4, 3, seed=1)
        assert run_campaign("thm2.1", 4, 3, seed=1, jobs=5000) == serial
        assert run_campaign("thm2.1", 2, 3, seed=1, jobs=5000) == serial[:2]
        assert run_campaign("thm2.1", 0, 3, seed=1, jobs=5000) == []
        assert sizes == [3, 2]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert run_campaign("thm2.1", 4, 3, seed=1, jobs=5000) == serial
        assert sizes == [3, 2]

    def test_no_negative_campaign_for_unconditional_rules(self):
        with pytest.raises(GenerationExhausted):
            run_campaign("cor3.4", 3, 4, seed=0, negative=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_campaign("thm9.9", 3, 4, seed=0)
        with pytest.raises(ValueError):
            run_campaign("thm2.1", -1, 4, seed=0)
        with pytest.raises(ValueError):
            run_campaign("thm2.1", 3, 0, seed=0)
        for jobs in (0, -4):
            with pytest.raises(ValueError, match="jobs must be at least 1"):
                run_campaign("thm2.1", 2, 2, 0, jobs=jobs)
        with pytest.raises(GenerationExhausted):
            run_campaign("thm3.1", 3, 1, seed=0, negative=True)

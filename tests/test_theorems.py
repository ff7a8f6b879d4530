"""Closed-form block group inverses: worked values, errors, and conditions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockginv import ginverse, matrices, theorems
from blockginv.generators import GenSpec, gen_pair
from blockginv.ginverse import NotGroupInvertible, _spectral_factors, drazin
from blockginv.matrices import Matrix, ShapeMismatch, inverse, rank
from blockginv.scalars import GaussianRational
from blockginv.theorems import (
    SHAPE_FOR_THEOREM,
    THEOREM_IDS,
    BlockShape,
    Condition,
    HypothesisViolated,
    assemble_M,
    block_group_inverse,
    check_conditions,
    rule_for,
)
from conftest import (
    COMMUTATION_LAWS,
    CONDITION_NAMES,
    DEFINITIONS,
    FIRST_STANDING_BREAKERS,
    holds,
    mat,
    matrices_of,
    singular_square_matrices,
    square_matrices,
    strictly_upper,
)
from paper_forms import (
    blocks,
    cor24_direct,
    cor32_direct,
    thm23_direct,
    thm31_factored,
    thm31_statement,
)
from reference_drazin import reference_drazin


def oracle_of(e, f, theorem):
    return drazin(assemble_M(e, f, SHAPE_FOR_THEOREM[theorem]))


WORKED_E = [["1", "2"], ["0", "-1"]]
WORKED_F = [["i", "i"], ["0", "0"]]


class TestWorkedExample:
    def test_blocks_and_assembly(self):
        result = block_group_inverse("thm3.1", mat(WORKED_E), mat(WORKED_F))
        assert result.theorem == "thm3.1"
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

    def test_ingredients(self):
        de, df = drazin(mat(WORKED_E)), drazin(mat(WORKED_F))
        assert de.drazin == mat(WORKED_E)
        assert de.spectral_idempotent.is_zero()
        assert df.drazin == mat([["-i", "-i"], ["0", "0"]])
        assert df.spectral_idempotent == mat([["0", "-1"], ["0", "1"]])

    def test_statement_form_agrees(self):
        e, f = mat(WORKED_E), mat(WORKED_F)
        result = block_group_inverse("thm3.1", e, f)
        assert blocks(result) == thm31_statement(e, f)

    def test_matches_oracle(self):
        e, f = mat(WORKED_E), mat(WORKED_F)
        result = block_group_inverse("thm3.1", e, f)
        oracle = oracle_of(e, f, "thm3.1")
        assert oracle.index == 1
        assert result.assembled == oracle.drazin


class TestThm21:
    E = [["1", "0"], ["1", "1"]]
    F = [["1", "0"], ["0", "0"]]

    def test_frozen_pair(self):
        result = block_group_inverse("thm2.1", mat(self.E), mat(self.F))
        expected = mat([
            ["0", "0", "1", "0"],
            ["0", "1", "-1", "1"],
            ["1", "0", "-1", "0"],
            ["0", "0", "0", "0"],
        ])
        assert result.assembled == expected
        oracle = oracle_of(mat(self.E), mat(self.F), "thm2.1")
        assert oracle.index == 1
        assert result.assembled == oracle.drazin

    def test_one_by_one(self):
        result = block_group_inverse("thm2.1", mat([["0"]]), mat([["1"]]))
        assert result.assembled == mat([["0", "1"], ["1", "0"]])

    def test_standing_hypothesis_violation(self):
        e = mat([["0", "1"], ["0", "0"]])
        f = mat([["1", "0"], ["0", "0"]])
        with pytest.raises(HypothesisViolated) as info:
            block_group_inverse("thm2.1", e, f)
        assert info.value.condition == "FEF^pi=0"
        assert info.value.residual == mat([["0", "1"], ["0", "0"]])

    def test_refuses_when_f_not_group_invertible(self):
        f = mat([["0", "1"], ["0", "0"]])
        e = mat([["1", "1"], ["0", "0"]])
        with pytest.raises(NotGroupInvertible) as info:
            block_group_inverse("thm2.1", e, f)
        assert info.value.condition == "F group-invertible"
        assert info.value.index == 2

    def test_refuses_when_existence_condition_fails(self):
        e, f = mat([["0"]]), mat([["0"]])
        with pytest.raises(NotGroupInvertible) as info:
            block_group_inverse("thm2.1", e, f)
        assert info.value.condition == "E^pi F^pi=0"
        assert oracle_of(e, f, "thm2.1").index == 2


class TestCor22:
    def test_matches_oracle_and_conjugation(self):
        e = mat([["1", "0"], ["1", "1"]])
        f = mat([["1", "0"], ["0", "0"]])
        result = block_group_inverse("cor2.2", e, f)
        oracle = oracle_of(e, f, "cor2.2")
        assert oracle.index == 1
        assert result.assembled == oracle.drazin
        eye = Matrix.identity(2)
        p = Matrix.from_blocks([[Matrix.zeros(2, 2), eye], [eye, -e]])
        p_inv = Matrix.from_blocks([[e, eye], [eye, Matrix.zeros(2, 2)]])
        assert p * p_inv == Matrix.identity(4)
        sibling = block_group_inverse("thm2.1", e, f)
        assert result.assembled == p_inv * sibling.assembled * p


class TestThm23AndCor24:
    E = [["1", "1"], ["0", "1"]]
    F = [["1", "0"], ["0", "0"]]

    def test_thm23_matches_oracle_and_mirror(self):
        e, f = mat(self.E), mat(self.F)
        result = block_group_inverse("thm2.3", e, f)
        oracle = oracle_of(e, f, "thm2.3")
        assert oracle.index == 1
        assert result.assembled == oracle.drazin
        mirrored = block_group_inverse("thm2.1", e.transpose(), f.transpose())
        assert result.assembled.transpose() == mirrored.assembled
        assert blocks(result) == thm23_direct(e, f)

    def test_cor24_matches_oracle_and_conjugation(self):
        e, f = mat(self.E), mat(self.F)
        result = block_group_inverse("cor2.4", e, f)
        oracle = oracle_of(e, f, "cor2.4")
        assert oracle.index == 1
        assert result.assembled == oracle.drazin
        eye = Matrix.identity(2)
        p = Matrix.from_blocks([[e, eye], [eye, Matrix.zeros(2, 2)]])
        p_inv = Matrix.from_blocks([[Matrix.zeros(2, 2), eye], [eye, -e]])
        assert p * p_inv == Matrix.identity(4)
        sibling = block_group_inverse("thm2.3", e, f)
        assert result.assembled == p_inv * sibling.assembled * p
        assert blocks(result) == cor24_direct(e, f)

    def test_thm23_standing_hypothesis_violation(self):
        e = mat([["0", "0"], ["1", "0"]])
        f = mat([["1", "0"], ["0", "0"]])
        with pytest.raises(HypothesisViolated) as info:
            block_group_inverse("thm2.3", e, f)
        assert info.value.condition == "F^pi EF=0"


class TestCor25:
    def test_commuting_diagonals(self):
        e = mat([["2", "0"], ["0", "3"]])
        f = mat([["1", "0"], ["0", "0"]])
        result = block_group_inverse("cor2.5", e, f)
        assert result.theorem == "cor2.5"
        oracle = oracle_of(e, f, "cor2.5")
        assert oracle.index == 1
        assert result.assembled == oracle.drazin

    def test_scalar_law_with_nontrivial_lambda(self):
        e = mat([["0", "1"], ["0", "0"]])
        f = mat([["2", "0"], ["0", "3"]])
        report = check_conditions(e, f, "cor2.5")
        law = next(c for c in report.conditions if c.name == "EF=lambda FE")
        assert law.holds
        assert law.lam == GaussianRational(Fraction(3, 2))
        result = block_group_inverse("cor2.5", e, f)
        assert result.assembled == oracle_of(e, f, "cor2.5").drazin

    def test_alignment_law_without_scalar_law(self):
        e = mat([["1", "1"], ["0", "1"]])
        f = mat([["1", "0"], ["0", "0"]])
        report = check_conditions(e, f, "cor2.5")
        assert not holds(report, "EF=lambda FE")
        assert holds(report, "EF^2=FEF")
        assert report.satisfied()
        result = block_group_inverse("cor2.5", e, f)
        assert result.assembled == oracle_of(e, f, "cor2.5").drazin

    def test_rejects_when_neither_law_holds(self):
        e = mat([["1", "1"], ["0", "1"]])
        f = mat([["1", "0"], ["1", "1"]])
        with pytest.raises(HypothesisViolated) as info:
            block_group_inverse("cor2.5", e, f)
        assert info.value.condition == "EF=lambda FE or EF^2=FEF"

    def test_no_claim_when_f_not_group_invertible(self):
        # Without F group invertible the commutation laws need not force
        # F^pi E F = 0, and the block matrix may have a group inverse.
        with pytest.raises(HypothesisViolated) as info:
            block_group_inverse("cor2.5", Matrix.identity(2),
                                mat([["0", "1"], ["0", "0"]]))
        assert info.value.condition == "F group-invertible"

    @pytest.mark.parametrize("e_rows, e_pi_f_pi_holds", [
        ([["1", "0", "1"], ["1", "1", "0"], ["0", "0", "2"]], True),
        ([["1", "0", "1"], ["1", "1", "0"], ["0", "0", "0"]], False),
    ], ids=["holds", "fails"])
    def test_split_pair_without_law_reads_w(self, e_rows, e_pi_f_pi_holds,
                                            monkeypatch):
        # Neither law holds, but F is group invertible and F^pi E F = 0,
        # so F^pi E^pi is decided from W, whatever failed before it.
        e = mat(e_rows)
        f = mat([["1", "1", "0"], ["0", "1", "0"], ["0", "0", "0"]])
        with pytest.raises(HypothesisViolated) as info:
            block_group_inverse("cor2.5", e, f)
        assert info.value.condition == "EF=lambda FE or EF^2=FEF"
        df, de = reference_drazin(f), reference_drazin(e)
        f_pi = df.spectral_idempotent
        assert df.index <= 1 and (f_pi * e * f).is_zero()
        given_drazin = []
        monkeypatch.setattr(theorems, "drazin",
                            lambda m: given_drazin.append(m) or drazin(m))
        drazin.cache_clear()
        report = check_conditions(e, f, "cor2.5")
        g, h = _spectral_factors(drazin(f.transpose()))
        w = h * e.transpose() * g
        assert given_drazin == [f.transpose(), w]
        condition = next(c for c in report.conditions
                         if c.name == "F^pi E^pi=0")
        defined = DEFINITIONS["F^pi E^pi=0"](e, f, de.spectral_idempotent,
                                             f_pi)
        assert condition.holds == defined.is_zero() == e_pi_f_pi_holds
        assert condition.residual == defined


class TestFactoredRoute:
    """Theorem 3.1 and its corollaries against the route through N^#."""

    @given(theorem=st.sampled_from(["thm3.1", "cor3.2", "cor3.3", "cor3.4"]),
           n=st.integers(1, 5), data=st.data())
    def test_drawn_pairs(self, theorem, n, data):
        rank_f = data.draw(st.integers(0, n))
        seed = data.draw(st.integers(0, 2 ** 16))
        e, f = gen_pair(GenSpec(theorem, n, rank_f, True, seed=seed))
        assembled = block_group_inverse(theorem, e, f).assembled
        if rule_for(theorem).mirrored:
            # The mirrored rules are the kernel's on the transposes.
            e, f = e.transpose(), f.transpose()
            assembled = assembled.transpose()
        gamma, delta, lambda_blk, xi = thm31_factored(e, f)
        assert assembled == Matrix.from_blocks([[gamma, delta],
                                                [lambda_blk, xi]])


def kernel_inputs(e, f):
    """(E, F#, F^pi, E^D F^pi, E^pi F^pi), from the Drazin data of E F^pi."""
    df = drazin(f)
    f_pi = df.spectral_idempotent
    dt = drazin(e * f_pi)
    side = f_pi + dt.spectral_idempotent - Matrix.identity(e.rows)
    return e, df.drazin, f_pi, dt.drazin, side


class TestProductCounts:
    """Each kernel call evaluates a fixed number of n x n products."""

    @pytest.mark.parametrize("theorem, products", [
        ("thm2.1", 3), ("cor2.2", 4), ("thm3.1", 5),
    ])
    def test_kernel_products(self, theorem, products, monkeypatch):
        e, f = gen_pair(GenSpec(theorem, 3, 1, True, seed=17))
        inputs = kernel_inputs(e, f)
        calls = []
        product = matrices._product

        def counting_product(left, right):
            calls.append(left.shape)
            return product(left, right)

        monkeypatch.setattr(matrices, "_product", counting_product)
        rule_for(theorem).kernel(*inputs)
        assert len(calls) == products


class TestRouteCounts:
    """A closed form at n = 8, from a cold cache: (products, Gauss-Jordan
    eliminations, invertibility certificates) for rank_f 1, 4 and 7.

    Every count includes the two drazin calls, on F and on W; cor3.3 and
    cor3.4 also eliminate once more for E's index, and cor2.5 forms F E G
    to decide whether its pair splits.
    """

    COUNTS = {
        "thm2.1": [(13, 3, 3)] * 3,
        "cor2.2": [(14, 3, 3)] * 3,
        "thm2.3": [(13, 3, 3)] * 3,
        "cor2.4": [(14, 3, 3)] * 3,
        "cor2.5": [(16, 3, 3)] * 3,
        "thm3.1": [(21, 4, 4), (15, 3, 3), (17, 3, 3)],
        "cor3.2": [(21, 4, 4), (15, 3, 3), (17, 3, 3)],
        "cor3.3": [(15, 3, 4), (16, 4, 5), (15, 3, 4)],
        "cor3.4": [(17, 4, 5), (23, 5, 6), (17, 4, 5)],
    }

    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_counts_at_n8(self, theorem, monkeypatch):
        counts = [0, 0, 0]

        def counting(slot, function):
            def counted(*args):
                counts[slot] += 1
                return function(*args)
            return counted

        found = []
        for rank_f in (1, 4, 7):
            e, f = gen_pair(GenSpec(theorem, 8, rank_f, True, seed=0))
            drazin.cache_clear()
            counts[:] = [0, 0, 0]
            with monkeypatch.context() as patch:
                for slot, name in enumerate(("_product", "_gauss_jordan",
                                             "_certainly_invertible")):
                    patch.setattr(matrices, name,
                                  counting(slot, getattr(matrices, name)))
                block_group_inverse(theorem, e, f)
            found.append(tuple(counts))
        assert found == self.COUNTS[theorem]


class TestDrazinDataOfT:
    """Positive and refusal draws hand drazin only F and W, never E or T.

    Every rule reads E through T = E F^pi in its kernel's orientation, on
    (E^T, F^T) for a mirrored rule, and T's Drazin data through the
    q x q matrix W = H E G, where F^pi = G H. cor3.3 and cor3.4 decide
    "E group-invertible" from E's index, which for an invertible E is a
    certificate, not an inverse.
    """

    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_drazin_sees_only_f_and_t(self, theorem, monkeypatch):
        # One report reads F's and W's Drazin data once each, in that order
        # and in the kernel's orientation, and block_group_inverse reads none
        # beyond its report's and its kernel's. cor3.3's and cor3.4's
        # hypotheses never read W, so their reports read F's alone.
        reports_read_w = theorem not in ("cor3.3", "cor3.4")
        given_drazin, inverted = [], []

        def recording(seen, function):
            return lambda matrix: seen.append(matrix) or function(matrix)

        monkeypatch.setattr(theorems, "drazin", recording(given_drazin, drazin))
        monkeypatch.setattr(ginverse, "inverse",
                            recording(inverted, ginverse.inverse))
        rule = rule_for(theorem)
        for satisfy in (True, False) if rule.blocker else (True,):
            for seed, rank_f in ((0, 1), (1, 2), (2, 1)):
                given = e, f = gen_pair(
                    GenSpec(theorem, 4, rank_f, satisfy, seed))
                if rule.mirrored:
                    e, f = e.transpose(), f.transpose()
                g, h = _spectral_factors(drazin(f))
                assert g * h == drazin(f).spectral_idempotent
                assert h * g == Matrix.identity(4 - rank_f)
                w = h * e * g
                for accepts in (_checks, _inverts):
                    drazin.cache_clear()
                    given_drazin.clear()
                    inverted.clear()
                    assert accepts(theorem, *given) == satisfy
                    reads_w = reports_read_w or accepts is _inverts
                    assert given_drazin == ([f, w] if reads_w else [f])
                    assert all(m not in (e, e.transpose()) for m in inverted)


def _checks(theorem, e, f):
    return check_conditions(e, f, theorem).satisfied()


def _inverts(theorem, e, f):
    try:
        block_group_inverse(theorem, e, f)
    except NotGroupInvertible:
        return False
    return True


def shift(q, a):
    """J^a for the q x q upper shift J: ones at (i, i + a)."""
    return Matrix(q, q, [GaussianRational(int(j == i + a))
                         for i in range(q) for j in range(q)])


@given(n=st.integers(1, 4), data=st.data())
@settings(max_examples=60)
def test_drazin_data_of_t_gives_e_data(n, data):
    """Under F E F^pi = 0, for F of any index: (E F^pi)^D = E^D F^pi and
    F^pi + (E F^pi)^pi - I = E^pi F^pi; mirrored under F^pi E F = 0.

    In a basis F = diag(C, N) with C invertible and N nilpotent, and the
    constraint makes E = [[A, 0], [X, D]] with N D = 0. Here
    N = (I + U) J^a and D = J^(q-a) Z, so N D = 0; an upper unitriangular
    Z makes D, and with it E F^pi, nilpotent. Every Drazin inverse comes
    from the test-side core-nilpotent reference.
    """
    r = data.draw(st.integers(0, n), label="rank of F's core")
    q = n - r
    a = data.draw(st.integers(min(q, 1), q), label="N = (I + U) J^a")
    c = data.draw(matrices_of(r, r).filter(lambda m: rank(m) == r))
    p = data.draw(matrices_of(n, n).filter(lambda m: rank(m) == n))
    unit = strictly_upper(q).map(lambda u: Matrix.identity(q) + u)
    nil = data.draw(unit) * shift(q, a)
    d = shift(q, q - a) * data.draw(st.one_of(unit, matrices_of(q, q)))
    e = p * Matrix.from_blocks([
        [data.draw(matrices_of(r, r)), Matrix.zeros(r, q)],
        [data.draw(matrices_of(q, r)), d],
    ]) * inverse(p)
    f = p * Matrix.from_blocks([
        [c, Matrix.zeros(r, q)], [Matrix.zeros(q, r), nil],
    ]) * inverse(p)
    eye = Matrix.identity(n)
    for e, f, left in ((e, f, False), (e.transpose(), f.transpose(), True)):
        de, f_pi = reference_drazin(e), reference_drazin(f).spectral_idempotent
        t = f_pi * e if left else e * f_pi
        assert (t * f if left else f * t).is_zero()
        dt = reference_drazin(t)
        if left:
            assert dt.drazin == f_pi * de.drazin
            assert f_pi + dt.spectral_idempotent - eye == \
                f_pi * de.spectral_idempotent
        else:
            assert dt.drazin == de.drazin * f_pi
            assert f_pi + dt.spectral_idempotent - eye == \
                de.spectral_idempotent * f_pi


class TestThm31Errors:
    def test_f_group_invertibility_is_standing_here(self):
        f = mat([["0", "1"], ["0", "0"]])
        e = mat([["1", "0"], ["0", "0"]])
        with pytest.raises(HypothesisViolated) as info:
            block_group_inverse("thm3.1", e, f)
        assert info.value.condition == "F group-invertible"

    def test_refuses_when_existence_condition_fails(self):
        e = mat([["1", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]])
        f = mat([["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]])
        with pytest.raises(NotGroupInvertible) as info:
            block_group_inverse("thm3.1", e, f)
        assert info.value.condition == "EE^pi F^pi=0"
        assert oracle_of(e, f, "thm3.1").index >= 2


class TestCor32:
    def test_transposed_worked_example(self):
        e = mat(WORKED_E).transpose()
        f = mat(WORKED_F).transpose()
        result = block_group_inverse("cor3.2", e, f)
        assert result.gamma == mat([["0", "0"], ["1", "-1"]])
        assert result.delta == mat([["-i", "0"], ["-i", "0"]])
        assert result.lambda_blk == mat([["-i", "0"], ["-i", "0"]])
        assert result.xi == mat([["1", "0"], ["1", "0"]])
        oracle = oracle_of(e, f, "cor3.2")
        assert oracle.index == 1
        assert result.assembled == oracle.drazin

    def test_closed_form_blocks_exposed(self):
        e = mat(WORKED_E).transpose()
        f = mat(WORKED_F).transpose()
        result = block_group_inverse("cor3.2", e, f)
        assert blocks(result) == cor32_direct(e, f)


class TestCor33:
    def test_diagonal_pair(self):
        e = mat([["2", "0"], ["0", "1"]])
        f = mat([["1", "0"], ["0", "0"]])
        result = block_group_inverse("cor3.3", e, f)
        oracle = oracle_of(e, f, "cor3.3")
        assert oracle.index == 1
        assert result.assembled == oracle.drazin

    def test_non_commuting_invertible_e(self):
        e = mat([["1", "1"], ["0", "1"]])
        f = mat([["1", "0"], ["0", "0"]])
        result = block_group_inverse("cor3.3", e, f)
        expected = mat([
            ["0", "0", "1", "0"],
            ["0", "1", "0", "0"],
            ["1", "-1", "-1", "0"],
            ["0", "0", "0", "0"],
        ])
        assert result.assembled == expected
        oracle = oracle_of(e, f, "cor3.3")
        assert oracle.index == 1
        assert result.assembled == oracle.drazin

    def test_all_three_hypotheses_are_standing(self):
        with pytest.raises(HypothesisViolated) as e_info:
            block_group_inverse("cor3.3", mat([["0", "1"], ["0", "0"]]),
                                Matrix.identity(2))
        assert e_info.value.condition == "E group-invertible"
        with pytest.raises(HypothesisViolated) as f_info:
            block_group_inverse("cor3.3", Matrix.identity(2),
                                mat([["0", "1"], ["0", "0"]]))
        assert f_info.value.condition == "F group-invertible"
        swap = mat([["0", "1"], ["1", "0"]])
        proj = mat([["1", "0"], ["0", "0"]])
        with pytest.raises(HypothesisViolated) as s_info:
            block_group_inverse("cor3.3", swap, proj)
        assert s_info.value.condition == "F^pi EF=0"


class TestCor34:
    def test_commuting_diagonals(self):
        e = mat([["1", "0"], ["0", "2"]])
        f = mat([["3", "0"], ["0", "0"]])
        result = block_group_inverse("cor3.4", e, f)
        assert result.theorem == "cor3.4"
        oracle = oracle_of(e, f, "cor3.4")
        assert oracle.index == 1
        assert result.assembled == oracle.drazin

    def test_anticommuting_pair(self):
        e = mat([["0", "1"], ["1", "0"]])
        f = mat([["1", "0"], ["0", "-1"]])
        report = check_conditions(e, f, "cor3.4")
        law = next(c for c in report.conditions if c.name == "EF=lambda FE")
        assert law.holds
        assert law.lam == GaussianRational(-1)
        result = block_group_inverse("cor3.4", e, f)
        assert result.assembled == oracle_of(e, f, "cor3.4").drazin

    def test_rejects_when_neither_law_holds(self):
        e = mat([["1", "1"], ["0", "1"]])
        f = mat([["1", "0"], ["1", "1"]])
        with pytest.raises(HypothesisViolated):
            block_group_inverse("cor3.4", e, f)


# The condition each refusing rule's refusal instances break, in the rule's
# own wording: the mirrored rules must not report the transposed rule's.
REFUSAL_BLOCKERS = {
    "thm2.1": "E^pi F^pi=0",
    "cor2.2": "E^pi F^pi=0",
    "thm2.3": "F^pi E^pi=0",
    "cor2.4": "F^pi E^pi=0",
    "cor2.5": "F^pi E^pi=0",
    "thm3.1": "EE^pi F^pi=0",
    "cor3.2": "F^pi E^pi E=0",
}


class TestFailuresNameTheRulesOwnCondition:
    @pytest.mark.parametrize("theorem", sorted(REFUSAL_BLOCKERS))
    def test_refusal_names_the_blocker(self, theorem):
        n = 4 if theorem in ("thm3.1", "cor3.2") else 3
        e, f = gen_pair(GenSpec(theorem, n, 1, satisfy=False, seed=41))
        blocker = REFUSAL_BLOCKERS[theorem]
        with pytest.raises(NotGroupInvertible) as info:
            block_group_inverse(theorem, e, f)
        assert info.value.condition == blocker
        assert str(info.value) == f"no group inverse: {blocker} fails"

    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_standing_violation_names_the_hypothesis(self, theorem):
        e_rows, f_rows, name = FIRST_STANDING_BREAKERS[theorem]
        e, f = mat(e_rows), mat(f_rows)
        with pytest.raises(HypothesisViolated) as info:
            block_group_inverse(theorem, e, f)
        assert info.value.condition == name
        assert str(info.value) == f"hypothesis does not hold: {name}"
        first, second = check_conditions(e, f, theorem).conditions[:2]
        if first.name == "EF=lambda FE":
            assert not first.holds
            first = second     # the either/or reports EF^2=FEF's residual
        else:
            assert first.name == name
        assert not first.holds
        assert info.value.residual == first.residual


def _pairs_of_one_size():
    def build(n):
        square = st.one_of(square_matrices(n, n),
                           singular_square_matrices(n, n))
        return st.tuples(square, square)
    return st.integers(1, 3).flatmap(build)


def walked_failure(rule, report):
    """The first failing hypothesis, found by a second walk over the rule.

    This is independent of the walk that built the report: each hypothesis
    is looked up by name, and the either/or fails only when neither of its
    laws holds, under its own name with the second law's residual.
    """
    by_name = {condition.name: condition for condition in report.conditions}
    for hypothesis in rule.hypotheses:
        names = COMMUTATION_LAWS.get(hypothesis, (hypothesis,))
        if not any(by_name[name].holds for name in names):
            return Condition(hypothesis, False, by_name[names[-1]].residual)
    return None


class TestOneDecision:
    """block_group_inverse, satisfied() and gen_pair decide alike, and the
    stored decision agrees with an independent walk of the hypotheses."""

    @staticmethod
    def assert_same_decision(theorem, e, f):
        rule = rule_for(theorem)
        report = check_conditions(e, f, theorem)
        failure = report.first_failure
        assert failure == walked_failure(rule, report)
        try:
            block_group_inverse(theorem, e, f)
        except (HypothesisViolated, NotGroupInvertible) as exc:
            assert failure is not None and not report.satisfied()
            assert exc.condition == failure.name
            assert isinstance(exc, NotGroupInvertible) == \
                (failure.name in rule.refusing)
            assert exc.report == report
        else:
            assert failure is None and report.satisfied()

    @given(pair=_pairs_of_one_size())
    def test_drawn_pairs(self, pair):
        for theorem in THEOREM_IDS:
            self.assert_same_decision(theorem, *pair)

    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_breakers(self, theorem):
        for e_rows, f_rows, _ in FIRST_STANDING_BREAKERS.values():
            self.assert_same_decision(theorem, mat(e_rows), mat(f_rows))

    @pytest.mark.parametrize("theorem", sorted(REFUSAL_BLOCKERS))
    def test_refusal_draws(self, theorem):
        n = 4 if theorem in ("thm3.1", "cor3.2") else 3
        for seed in range(3):
            e, f = gen_pair(GenSpec(theorem, n, 1, satisfy=False, seed=seed))
            failure = check_conditions(e, f, theorem).first_failure
            assert failure.name == rule_for(theorem).blocker
            self.assert_same_decision(theorem, e, f)


# Each mirrored rule states its twin's theorem for the transposes.
MIRROR_TWINS = {"thm2.3": "thm2.1", "cor2.4": "cor2.2", "cor3.2": "thm3.1"}


class TestMirrorInvariant:
    """check_conditions(E, F, mirrored) is check_conditions(E^T, F^T, twin)
    condition by condition: the same verdicts, residuals transposed, and the
    first failure at the same place in the two hypothesis lists."""

    @staticmethod
    def assert_mirrors(mirrored, e, f):
        ours = check_conditions(e, f, mirrored)
        twin = MIRROR_TWINS[mirrored]
        theirs = check_conditions(e.transpose(), f.transpose(), twin)
        assert len(ours.conditions) == len(theirs.conditions)
        for mine, other in zip(ours.conditions, theirs.conditions):
            assert mine.holds == other.holds
            assert mine.residual == other.residual.transpose()
        failures = []
        for theorem, report in ((mirrored, ours), (twin, theirs)):
            failure = report.first_failure
            failures.append(None if failure is None else (
                rule_for(theorem).hypotheses.index(failure.name),
                failure.name in rule_for(theorem).refusing))
        assert failures[0] == failures[1]

    @given(pair=_pairs_of_one_size())
    def test_drawn_pairs(self, pair):
        for mirrored in MIRROR_TWINS:
            self.assert_mirrors(mirrored, *pair)

    @pytest.mark.parametrize("mirrored", sorted(MIRROR_TWINS))
    def test_seeded_pairs(self, mirrored):
        for satisfy in (True, False):
            for n, rank_f in ((3, 1), (4, 1), (4, 2)):
                for seed in range(3):
                    e, f = gen_pair(GenSpec(mirrored, n, rank_f, satisfy, seed))
                    self.assert_mirrors(mirrored, e, f)


class TestCheckConditions:
    def test_zero_pair_under_thm21(self):
        report = check_conditions(mat([["0"]]), mat([["0"]]), "thm2.1")
        assert [c.name for c in report.conditions] == \
            ["FEF^pi=0", "F group-invertible", "E^pi F^pi=0"]
        assert holds(report, "F group-invertible")
        failing = next(c for c in report.conditions if c.name == "E^pi F^pi=0")
        assert not failing.holds
        assert failing.residual == mat([["1"]])
        assert not report.satisfied()

    def test_scalar_law_zero_products(self):
        e = mat([["0", "1"], ["0", "0"]])
        f = mat([["0", "2"], ["0", "0"]])
        report = check_conditions(e, f, "cor2.5")
        law = next(c for c in report.conditions if c.name == "EF=lambda FE")
        assert law.holds
        assert law.lam == GaussianRational(0)

    def test_scalar_law_one_sided_zero(self):
        # EF = 0 != FE: lambda = 0 gives EF = lambda FE.
        e = mat([["0", "1"], ["0", "0"]])
        f = mat([["1", "0"], ["0", "0"]])
        report = check_conditions(e, f, "cor2.5")
        law = next(c for c in report.conditions if c.name == "EF=lambda FE")
        assert (e * f).is_zero() and not (f * e).is_zero()
        assert law.holds
        assert law.lam == GaussianRational(0)
        assert law.residual.is_zero()

    def test_scalar_law_fails_when_only_fe_vanishes(self):
        # FE = 0 != EF: no lambda gives EF = lambda FE.
        e = mat([["1", "0"], ["0", "0"]])
        f = mat([["0", "1"], ["0", "0"]])
        report = check_conditions(e, f, "cor2.5")
        law = next(c for c in report.conditions if c.name == "EF=lambda FE")
        assert (f * e).is_zero() and not (e * f).is_zero()
        assert not law.holds
        assert law.lam is None
        assert law.residual == e * f

    def test_condition_names_per_theorem(self):
        e, f = Matrix.identity(2), Matrix.identity(2)
        for theorem in THEOREM_IDS:
            report = check_conditions(e, f, theorem)
            assert [c.name for c in report.conditions] == \
                CONDITION_NAMES[theorem]
            assert report.satisfied()


class TestBlockReport:
    """The report a block inverse carries is the check_conditions report."""

    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    @pytest.mark.parametrize("rank_f", [1, 3])
    def test_seeded_pairs(self, theorem, rank_f):
        e, f = gen_pair(GenSpec(theorem, 3, rank_f, True, seed=17))
        result = block_group_inverse(theorem, e, f)
        assert result.report == check_conditions(e, f, theorem)

    def test_alignment_law_without_scalar_law(self):
        # The check evaluates EF^2=FEF itself once EF=lambda FE fails.
        e = mat([["1", "1"], ["0", "1"]])
        f = mat([["1", "0"], ["0", "0"]])
        for theorem in ("cor2.5", "cor3.4"):
            result = block_group_inverse(theorem, e, f)
            assert result.report == check_conditions(e, f, theorem)


class TestAssemblyAndDispatch:
    def test_layouts(self):
        e, f = mat([["2"]]), mat([["3"]])
        assert assemble_M(e, f, BlockShape.EI_F0) == \
            mat([["2", "1"], ["3", "0"]])
        assert assemble_M(e, f, BlockShape.EF_I0) == \
            mat([["2", "3"], ["1", "0"]])
        assert assemble_M(e, f, BlockShape.EF_F0) == \
            mat([["2", "3"], ["3", "0"]])

    def test_every_theorem_has_a_shape(self):
        assert set(SHAPE_FOR_THEOREM) == set(THEOREM_IDS)

    def test_dispatch_unknown_id(self):
        with pytest.raises(ValueError):
            block_group_inverse("thm9.9", mat([["1"]]), mat([["1"]]))

    def test_rejects_mismatched_pair(self):
        with pytest.raises(ShapeMismatch):
            block_group_inverse("thm2.1", Matrix.identity(2),
                                Matrix.identity(3))
        with pytest.raises(ShapeMismatch):
            assemble_M(mat([["1", "2"]]), mat([["1", "2"]]), BlockShape.EI_F0)

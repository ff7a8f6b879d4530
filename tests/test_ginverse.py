"""Drazin and group inverses: worked values, defining identities, factorizations."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockginv import ginverse, matrices
from blockginv.generators import GenSpec, gen_pair
from blockginv.ginverse import (
    NotGroupInvertible,
    block_triangular_drazin,
    cline,
    drazin,
    drazin_index,
    group_inverse,
)
from blockginv.matrices import Matrix, ShapeMismatch, inverse, rank
from blockginv.scalars import GaussianRational
from blockginv.theorems import SHAPE_FOR_THEOREM, BlockShape, assemble_M
from conftest import (mat, nonzero_scalars, rows_of, singular_square_matrices,
                      spy, square_matrices)
from reference_drazin import reference_drazin
from seeded import gen_group_invertible


class TestDrazinExamples:
    def test_diagonal_projection_like(self):
        result = drazin(mat([["1/2", "0"], ["0", "0"]]))
        assert result.drazin == mat([["2", "0"], ["0", "0"]])
        assert result.index == 1
        assert result.spectral_idempotent == mat([["0", "0"], ["0", "1"]])

    def test_nilpotent(self):
        result = drazin(mat([["0", "1"], ["0", "0"]]))
        assert result.drazin.is_zero()
        assert result.index == 2
        assert result.spectral_idempotent == Matrix.identity(2)

    def test_identity(self):
        result = drazin(Matrix.identity(3))
        assert result.drazin == Matrix.identity(3)
        assert result.index == 0
        assert result.spectral_idempotent.is_zero()

    def test_zero_matrix(self):
        result = drazin(Matrix.zeros(3, 3))
        assert result.drazin.is_zero()
        assert result.index == 1
        assert result.spectral_idempotent == Matrix.identity(3)

    def test_invertible_gives_plain_inverse(self):
        m = mat([["1", "2"], ["0", "-1"]])
        result = drazin(m)
        assert result.index == 0
        assert result.drazin * m == Matrix.identity(2)

    def test_mixed_core_and_nilpotent_part(self):
        m = mat([["1", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]])
        result = drazin(m)
        assert result.index == drazin_index(m) == 2
        d = result.drazin
        assert m * d == d * m
        assert d * m * d == d
        assert m ** (result.index + 1) * d == m ** result.index

    def test_empty_matrix(self):
        empty = Matrix.zeros(0, 0)
        result = drazin(empty)
        assert result.index == drazin_index(empty) == 0
        assert result.drazin == result.spectral_idempotent == empty

    def test_jordan_block_ends_the_chain_on_zero(self):
        # The chain shrinks J5 one rank at a time and ends on a zero 1x1.
        jordan = Matrix.from_rows([[1 if j == i + 1 else 0 for j in range(5)]
                                   for i in range(5)])
        result = drazin(jordan)
        assert result.index == drazin_index(jordan) == 5
        assert result.drazin.is_zero()
        assert result.spectral_idempotent == Matrix.identity(5)

    def test_complex_index_three(self):
        # [[a, b], [0, N]] with N = J3 nilpotent: the top row of T^D is
        # (a^-1, sum_j a^-(j+2) b N^j) and the rest is zero.
        m = mat([["i", "1", "0", "0"], ["0", "0", "1", "0"],
                 ["0", "0", "0", "1"], ["0", "0", "0", "0"]])
        result = drazin(m)
        assert result.index == drazin_index(m) == 3
        zero_row = ["0", "0", "0", "0"]
        assert result.drazin == mat([["-i", "-1", "i", "1"], zero_row,
                                     zero_row, zero_row])
        assert result.spectral_idempotent == mat([
            ["0", "i", "1", "-i"], ["0", "1", "0", "0"],
            ["0", "0", "1", "0"], ["0", "0", "0", "1"],
        ])

    def test_non_square_raises(self):
        # Every square check names its operation and the shape twice.
        wide, one = mat([["1", "2"]]), Matrix.identity(1)
        for op, call in [
            ("drazin", lambda: drazin(wide)),
            ("drazin_index", lambda: drazin_index(wide)),
            ("block_triangular_drazin",
             lambda: block_triangular_drazin(wide, one, one)),
            ("block_triangular_drazin",
             lambda: block_triangular_drazin(one, one, wide)),
            ("inverse", lambda: inverse(wide)),
            ("pow", lambda: wide ** 2),
        ]:
            with pytest.raises(ShapeMismatch) as info:
                call()
            assert str(info.value) == f"{op}: shapes 1x2 and 1x2 do not fit"


class TestDrazinResult:
    def test_unequal_to_other_types_without_raising(self):
        result = drazin(mat([["2"]]))
        assert result != mat([["1/2"]])
        assert result != (mat([["1/2"]]), 0)

    def test_repr(self):
        assert repr(drazin(mat([["0", "1"], ["0", "0"]]))) == \
            "DrazinResult(Matrix(2x2 [0, 0; 0, 0]), 2)"


class TestGroupInverse:
    def test_exists_at_index_one(self):
        assert group_inverse(mat([["1/2", "0"], ["0", "0"]])) == \
            mat([["2", "0"], ["0", "0"]])

    def test_refuses_at_index_two(self):
        with pytest.raises(NotGroupInvertible) as info:
            group_inverse(mat([["0", "1"], ["0", "0"]]))
        assert info.value.index == 2

    def test_refusals_outside_a_rule_carry_no_report(self):
        nil = mat([["0", "1"], ["0", "0"]])
        with pytest.raises(NotGroupInvertible) as info:
            group_inverse(nil)
        assert (info.value.report, info.value.condition) == (None, None)
        with pytest.raises(NotGroupInvertible) as info:
            block_triangular_drazin(nil, Matrix.zeros(2, 2), Matrix.identity(2))
        assert info.value.report is None


class TestCline:
    def test_nilpotent_product(self):
        a = mat([["1", "0"], ["0", "0"]])
        b = mat([["0", "1"], ["0", "0"]])
        result = cline(a, b)
        assert result.drazin.is_zero()
        assert result.index == 2

    def test_rejects_incompatible_shapes(self):
        with pytest.raises(ShapeMismatch):
            cline(mat([["1", "2"]]), mat([["1", "2"]]))

    def test_agrees_with_direct_computation(self):
        rng = random.Random(5)
        for _ in range(20):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            a = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(cols)]
                                  for _ in range(rows)])
            b = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(rows)]
                                  for _ in range(cols)])
            result = cline(a, b)
            direct = drazin(a * b)
            assert result.drazin == direct.drazin
            assert result.index == direct.index
            assert result.spectral_idempotent == direct.spectral_idempotent


class TestBlockTriangular:
    def test_small_example(self):
        result = block_triangular_drazin(mat([["1"]]), mat([["1"]]), mat([["0"]]))
        assert result == mat([["1", "0"], ["1", "0"]])

    def test_rejects_index_two_diagonal_block(self):
        nil = mat([["0", "1"], ["0", "0"]])
        with pytest.raises(NotGroupInvertible,
                           match="upper-left block has Drazin index 2"):
            block_triangular_drazin(nil, Matrix.zeros(2, 2), Matrix.identity(2))
        with pytest.raises(NotGroupInvertible,
                           match="lower-right block has Drazin index 2"):
            block_triangular_drazin(Matrix.identity(2), Matrix.zeros(2, 2), nil)

    def test_rejects_bad_coupling_shape(self):
        with pytest.raises(ShapeMismatch):
            block_triangular_drazin(Matrix.identity(2), Matrix.zeros(3, 3),
                                    Matrix.identity(2))

    def test_agrees_with_direct_computation(self):
        rng = random.Random(9)
        for trial in range(15):
            na = rng.randint(1, 3)
            nd = rng.randint(1, 3)
            a = gen_group_invertible(na, rng.randint(0, na), seed=trial)
            d = gen_group_invertible(nd, rng.randint(0, nd), seed=trial + 100)
            c = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(na)]
                                  for _ in range(nd)])
            combined = Matrix.from_blocks([[a, Matrix.zeros(na, nd)], [c, d]])
            assert block_triangular_drazin(a, c, d) == drazin(combined).drazin


class TestDefiningIdentities:
    @given(singular_square_matrices())
    def test_drazin_axioms(self, m):
        result = drazin(m)
        d = result.drazin
        k = result.index
        assert drazin_index(m) == k
        assert m * d == d * m
        assert d * m * d == d
        assert m ** (k + 1) * d == m ** k
        if k >= 1:
            assert rank(m ** (k - 1)) > rank(m ** k)

    @given(singular_square_matrices())
    def test_spectral_idempotent(self, m):
        result = drazin(m)
        pi = result.spectral_idempotent
        assert pi * pi == pi
        assert m * pi == pi * m
        assert (m * pi) ** max(result.index, 1) == Matrix.zeros(m.rows, m.rows)
        assert rank(m + pi) == m.rows


class TestSpectralFactors:
    """At index <= 1, T^pi = G H with H G = I_q and q = n - rank(T), read
    off the first step of drazin's chain, on T or on T^T; G is the
    identity at the rows returned with it, which are None for T^T."""

    @staticmethod
    def assert_factors(m):
        result = drazin(m)
        g, h, rows = ginverse._spectral_factors(result)
        q = m.rows - rank(m)
        assert (g.shape, h.shape) == ((m.rows, q), (q, m.rows))
        assert g * h == result.spectral_idempotent
        assert h * g == Matrix.identity(q)
        assert (m * g).is_zero() and (h * m).is_zero()
        if rows is not None:
            assert g.pick(rows, range(q)) == Matrix.identity(q)
        return rows

    @given(st.one_of(square_matrices(1, 4), singular_square_matrices(1, 4)))
    def test_drawn_matrices(self, m):
        if drazin_index(m) <= 1:
            self.assert_factors(m)

    @pytest.mark.parametrize("rows, identity_rows", [
        ([["1", "1"], ["0", "0"]], None),      # factored through T^T
        ([["1", "0"], ["1", "0"]], [1]),       # factored through T
        ([["0", "0"], ["0", "0"]], [0, 1]),    # T^pi = I
        ([["2", "i"], ["0", "1/3"]], []),      # invertible: q = 0
    ])
    def test_both_orientations_and_the_ends(self, rows, identity_rows):
        m = mat(rows)
        drazin.cache_clear()
        assert self.assert_factors(m) == identity_rows


def _core_nilpotent(rng: random.Random, core_n: int, index: int) -> Matrix:
    """U S diag(C, N) S^T U^-1 with C invertible, N nilpotent of the index.

    S is a permutation and U is unit upper triangular: S scatters the zero
    columns of N, and U keeps every column's dependence on the ones before
    it, so the chain's pivot lists are not the leading columns.
    """
    def draw():
        return GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1))

    while True:
        core = Matrix.from_rows([[draw() for _ in range(core_n)]
                                 for _ in range(core_n)])
        if rank(core) == core_n:
            break
    # N is one Jordan block of each size; a block starts at 0 or sizes[0].
    sizes = [index] + [rng.randint(1, index)] * rng.randint(0, 1)
    m = sum(sizes)
    n = core_n + m
    nilpotent = Matrix.from_rows([[int(j == i + 1 and j != sizes[0])
                                   for j in range(m)] for i in range(m)])
    block = Matrix.from_blocks([[core, Matrix.zeros(core_n, m)],
                                [Matrix.zeros(m, core_n), nilpotent]])
    order = list(range(n))
    rng.shuffle(order)
    u = Matrix.from_rows([[draw() if j > i else int(i == j)
                           for j in range(n)] for i in range(n)])
    return u * block.pick(order, order) * matrices.inverse(u)


def _rref_rows(pivots, free, free_part):
    """C rebuilt from its pivot list and C[:, free]: the identity on pivots."""
    n = len(pivots) + len(free)
    rows = [[int(j == p) for j in range(n)] for p in pivots]
    for i, row in enumerate(rows):
        for t, j in enumerate(free):
            row[j] = free_part[i, t]
    return Matrix.from_rows(rows)


class TestAgainstReference:
    """The chain against the core-nilpotent construction, exactly."""

    @pytest.mark.parametrize("index", [3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_high_index_with_an_invertible_part(self, index, seed):
        m = _core_nilpotent(random.Random(seed * 10 + index), 2, index)
        steps, core, flipped = ginverse._chain(m)
        assert len(steps) == index and core is not None
        assert drazin_index(m) == index
        # Each step's matrix is B C, and the next step's matrix is C B.
        current = m.transpose() if flipped else m
        for left, pivots, free, free_part in steps:
            right = _rref_rows(pivots, free, free_part)
            assert left * right == current
            current = right * left
        assert current == core
        assert drazin.__wrapped__(m) == reference_drazin(m)

    @given(singular_square_matrices())
    def test_singular_matrices(self, m):
        assert drazin(m) == reference_drazin(m)

    @pytest.mark.parametrize("theorem,rank_f,seed", [
        ("thm2.1", 5, 101), ("cor2.4", 3, 202), ("thm3.1", 6, 303),
    ])
    def test_assembled_block_matrices(self, theorem, rank_f, seed):
        e, f = gen_pair(GenSpec(theorem, 8, rank_f, True, seed))
        big = assemble_M(e, f, SHAPE_FOR_THEOREM[theorem])
        assert drazin(big) == reference_drazin(big)


@st.composite
def unit_line_matrices(draw):
    """Singular matrices with some rows or columns cut to one entry."""
    m = draw(singular_square_matrices(min_n=1, max_n=5))
    n = m.rows
    rows = rows_of(m)
    for _ in range(draw(st.integers(1, n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            rows[i] = [0] * n
        else:
            for row in rows:
                row[j] = 0
        rows[i][j] = draw(nonzero_scalars())
    return Matrix.from_rows(rows)


def _same_up_to_transpose(m: Matrix) -> None:
    result, flipped = drazin.__wrapped__(m), drazin.__wrapped__(m.transpose())
    assert flipped.index == result.index
    assert flipped.drazin.transpose() == result.drazin
    assert (flipped.spectral_idempotent.transpose()
            == result.spectral_idempotent)


class TestOrientation:
    """The chain runs on whichever of T, T^T has more single-entry rows."""

    @given(unit_line_matrices())
    def test_transposing_commutes_with_drazin(self, m):
        _same_up_to_transpose(m)

    @pytest.mark.parametrize("theorem,satisfy", [
        ("thm2.1", True), ("thm2.1", False), ("cor2.2", True),
        ("cor2.2", False), ("thm3.1", True), ("thm3.1", False),
    ])
    def test_assembled_layouts(self, theorem, satisfy, monkeypatch):
        # EI_F0 = [[E, I], [F, 0]] has n single-entry columns and EF_I0 has
        # n single-entry rows; EF_F0 has neither.
        e, f = gen_pair(GenSpec(theorem, 4, 2, satisfy, 3))
        big = assemble_M(e, f, SHAPE_FOR_THEOREM[theorem])
        _same_up_to_transpose(big)
        factored = spy(monkeypatch, ginverse, "_chain", result=True)
        drazin.__wrapped__(big)
        [((given,), (*_, flipped))] = factored
        assert given == big
        assert flipped == (SHAPE_FOR_THEOREM[theorem] is BlockShape.EI_F0)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases: exact below 2^64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestInvertibilityCertificate:
    def test_modulus_is_a_prime_with_a_square_root_of_minus_one(self):
        assert matrices._P < 2 ** 64
        assert _is_prime(matrices._P)
        assert matrices._P % 4 == 1
        assert (matrices._S * matrices._S + 1) % matrices._P == 0
        assert [n for n in range(50) if _is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
        assert not _is_prime(3215031751)  # a strong pseudoprime to 2, 3, 5, 7

    @given(square_matrices(max_n=4))
    def test_holds_only_for_invertible_matrices(self, m):
        # rref consults the certificate, and rank counts rref's pivots, so
        # check it against the kernel.
        if matrices._certainly_invertible(m):
            rows = matrices._integer_rows(m)[0]
            pivots = matrices._gauss_jordan(rows, m.cols, False)[0]
            assert len(pivots) == m.rows

    def test_drazin_runs_one_elimination_per_step(self, monkeypatch):
        # The certified core costs rref no elimination; inverse's own
        # elimination is counted as the inverse.
        ranks = spy(monkeypatch, matrices, "rank")
        eliminations = spy(monkeypatch, matrices, "_gauss_jordan")
        inverted = spy(monkeypatch, ginverse, "inverse")
        jordan = Matrix.from_rows([[1 if j == i + 1 else 0 for j in range(5)]
                                   for i in range(5)])
        e, f = gen_pair(GenSpec("thm3.1", 4, 2, True, 5))
        cases = [
            (mat([["1", "2"], ["0", "-1"]]), 0, 1),
            (mat([["i", "1", "0", "0"], ["0", "0", "1", "0"],
                  ["0", "0", "0", "1"], ["0", "0", "0", "0"]]), 3, 1),
            (assemble_M(e, f, SHAPE_FOR_THEOREM["thm3.1"]), 1, 1),
            (jordan, 5, 0),
        ]
        for m, index, inverses in cases:
            for calls in (ranks, eliminations, inverted):
                calls.clear()
            assert drazin.__wrapped__(m).index == index
            assert not ranks and len(inverted) == inverses
            assert sum(not invert for *_, invert in eliminations) == index

    def test_index_one_takes_four_products_none_over_2n(self, monkeypatch):
        # C1 B1 from C1's free columns, P = M^-2, B1 P, and (B1 P) times C1's
        # free columns: no product runs over all 2n columns of T.
        e, f = gen_pair(GenSpec("thm3.1", 4, 2, True, 5))
        big = assemble_M(e, f, SHAPE_FOR_THEOREM["thm3.1"])
        with monkeypatch.context() as patch:
            products = spy(patch, matrices, "_product")
            result = drazin.__wrapped__(big)
        inner = [left.cols for left, _ in products]
        assert result.index == 1 and 0 < rank(big) < big.rows
        assert len(inner) == 4 and big.rows not in inner

    def test_index_and_nilpotent_take_one_product_per_step(self, monkeypatch):
        # Only C B of each step: no composed factors to multiply and discard.
        # An invertible T has no step, and its inverse's first power is
        # the inverse itself; its unit row (0, -1) costs inverse its one
        # product, Y^-1 X, for the row that is left.
        index_three = mat([["i", "1", "0", "0"], ["0", "0", "1", "0"],
                           ["0", "0", "0", "1"], ["0", "0", "0", "0"]])
        jordan = Matrix.from_rows([[1 if j == i + 1 else 0 for j in range(5)]
                                   for i in range(5)])
        invertible = mat([["1", "2"], ["0", "-1"]])
        with monkeypatch.context() as patch:
            calls = spy(patch, matrices, "_product")
            assert drazin_index(index_three) == 3
            assert len(calls) == 3
            calls.clear()
            result = drazin.__wrapped__(jordan)
            assert len(calls) == 4
            calls.clear()
            unit = drazin.__wrapped__(invertible)
            assert len(calls) == 1
        assert result.index == 5 and result.drazin.is_zero()
        assert unit.index == 0 and unit.drazin == inverse(invertible)


@pytest.mark.parametrize("rank_f", [8, 4])
@pytest.mark.parametrize("layout", [BlockShape.EI_F0, BlockShape.EF_I0])
def test_identity_layouts_eliminate_n_rows(layout, rank_f, monkeypatch):
    # The identity block's n unit rows pivot exactly, so the first Cline
    # step's rref runs the certificate on the n x n rest, and FFGJ on its
    # n rows when F is singular; with F invertible, the inverse of the
    # whole 2n matrix eliminates those n rows too. Below full rank the
    # core, of n + rank_f rows, is inverted by lifting.
    n = 8
    theorem = next(t for t, s in SHAPE_FOR_THEOREM.items() if s is layout)
    e, f = gen_pair(GenSpec(theorem, n, rank_f, True, 0))
    big = assemble_M(e, f, layout)
    with monkeypatch.context() as patch:
        ffgj = spy(patch, matrices, "_gauss_jordan")
        mod_p = spy(patch, matrices, "_gauss_jordan_mod")
        result = drazin.__wrapped__(big)
    singular = rank_f < n
    assert result.index == singular
    sizes = [(m.rows, invert) for m, _, invert in mod_p]
    assert sizes[0] == (n, False)
    assert set(sizes[1:]) == ({(n + rank_f, True)} if singular else set())
    assert [(len(rows), invert) for rows, _, invert in ffgj] == [
        (n, not singular)]


@pytest.mark.parametrize("layout", [BlockShape.EI_F0, BlockShape.EF_I0])
def test_drazin_index_orients_like_drazin(layout, monkeypatch):
    # drazin_index runs drazin's chain, on T^T for EI_F0, so its first
    # elimination mod P is the n x n rest of the first step, not 2n rows,
    # and its second lifts the rref of the core, of n + rank_f rows. Those
    # are drazin's first two; drazin goes on to invert the core.
    n, rank_f = 8, 4
    theorem = next(t for t, s in SHAPE_FOR_THEOREM.items() if s is layout)
    e, f = gen_pair(GenSpec(theorem, n, rank_f, True, 0))
    big = assemble_M(e, f, layout)
    sizes = []
    for run in (drazin.__wrapped__, drazin_index):
        with monkeypatch.context() as patch:
            mod_p = spy(patch, matrices, "_gauss_jordan_mod")
            run(big)
        sizes.append([(m.rows, invert) for m, _, invert in mod_p])
    assert sizes[1] == [(n, False), (n + rank_f, True)] == sizes[0][:2]

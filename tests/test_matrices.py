"""Matrix algebra, row reduction, and kernels."""

import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockginv
from blockginv import matrices
from blockginv.generators import GenSpec, gen_pair
from blockginv.ginverse import drazin
from blockginv.matrices import (
    Matrix,
    ShapeMismatch,
    SingularMatrix,
    column_space_basis,
    inverse,
    kernel_basis,
    rank,
    rref,
)
from blockginv.scalars import GaussianRational, I, parse_scalar
from blockginv.theorems import block_group_inverse
from conftest import (
    mat,
    nonzero_scalars,
    rect_matrices,
    rows_of,
    scalars,
    singular_square_matrices,
    spy,
    square_matrices,
)
from seeded import gen_invertible


class TestConstruction:
    def test_from_rows_rejects_ragged_input(self):
        with pytest.raises(ValueError):
            Matrix.from_rows([[1, 2], [3]])

    def test_identity_and_zeros(self):
        assert Matrix.identity(2) == mat([["1", "0"], ["0", "1"]])
        assert Matrix.zeros(2, 3).shape == (2, 3)
        assert Matrix.zeros(2, 3).is_zero()

    def test_from_blocks(self):
        a = mat([["1"]])
        b = mat([["2", "3"]])
        c = mat([["4"], ["7"]])
        d = mat([["5", "6"], ["8", "9"]])
        whole = Matrix.from_blocks([[a, b], [c, d]])
        assert whole == mat([["1", "2", "3"], ["4", "5", "6"], ["7", "8", "9"]])

    def test_from_blocks_allows_zero_dimensions(self):
        core = mat([["1", "2"], ["3", "4"]])
        padded = Matrix.from_blocks([
            [core, Matrix.zeros(2, 0)],
            [Matrix.zeros(0, 2), Matrix.zeros(0, 0)],
        ])
        assert padded == core

    def test_from_blocks_rejects_mismatched_heights(self):
        with pytest.raises(ShapeMismatch):
            Matrix.from_blocks([[mat([["1"]]), mat([["1"], ["2"]])]])

    def test_rejects_entries_that_are_not_scalars(self):
        with pytest.raises(TypeError, match="cannot use float"):
            Matrix(1, 1, [1.5])

    def test_rejects_wrong_entry_counts(self):
        with pytest.raises(ValueError, match="need 4 entries, got 3"):
            Matrix(2, 2, [1, 2, 3])
        with pytest.raises(ValueError, match="need 2 entries, got 1"):
            Matrix.from_parts(1, 2, [(1, 1, 0, 1)])
        # The count is checked before the entries' types.
        with pytest.raises(ValueError, match="need 4 entries, got 1"):
            Matrix(2, 2, [1.5])

    @pytest.mark.parametrize("cols, parts, where", [
        (1, [(1, 0, 0, 1)], r"\(0, 0\)"),
        (2, [(1, 1, 0, 1), (1, 2, 0, 1), (0, 1, 1, 1), (2, 3, 5, 0)],
         r"\(1, 1\)"),
    ], ids=["entry (0, 0)", "entry (1, 1)"])
    def test_from_parts_rejects_zero_denominators(self, cols, parts, where):
        with pytest.raises(ValueError, match=f"entry {where} has a zero "):
            Matrix.from_parts(len(parts) // cols, cols, parts)

    @pytest.mark.parametrize("build", [
        lambda: Matrix.zeros(-2, -3),
        lambda: Matrix.zeros(2, -1),
        lambda: Matrix.identity(-1),
        lambda: Matrix(-1, -1, [1]),
        lambda: Matrix.from_parts(-1, -2, [(1, 1, 0, 1)] * 2),
    ], ids=["zeros -2x-3", "zeros 2x-1", "identity -1", "Matrix -1x-1",
            "from_parts -1x-2"])
    def test_rejects_negative_sizes(self, build):
        with pytest.raises(ValueError, match="negative size"):
            build()

    @pytest.mark.parametrize("grid", [[], [[]], [[Matrix.identity(1)], []]])
    def test_from_blocks_rejects_empty_grids(self, grid):
        with pytest.raises(ValueError, match="empty block grid"):
            Matrix.from_blocks(grid)

    def test_from_blocks_rejects_mismatched_widths(self):
        with pytest.raises(ShapeMismatch):
            Matrix.from_blocks([[mat([["1"]])], [mat([["1", "2"]])]])

    def test_from_blocks_names_the_blocks_that_differ(self):
        z = Matrix.zeros
        with pytest.raises(ShapeMismatch, match="^from_blocks: shapes 2x2 "
                                                "and 2x3 do not fit$"):
            Matrix.from_blocks([[z(2, 2), z(2, 3)], [z(2, 2), z(2, 2)]])
        with pytest.raises(ShapeMismatch, match="^from_blocks: shapes 2x1 "
                                                "and 1x1 do not fit$"):
            Matrix.from_blocks([[z(1, 1), z(1, 1)], [z(1, 1), z(2, 1)]])
        with pytest.raises(ValueError, match="^from_blocks: grid rows 0 and "
                                             "1 have 2 and 1 blocks$"):
            Matrix.from_blocks([[z(2, 2), z(2, 3)], [z(2, 2)]])
        with pytest.raises(ValueError, match="^from_blocks: grid rows 0 and "
                                             "2 have 1 and 2 blocks$"):
            Matrix.from_blocks([[z(1, 1)], [z(1, 1)], [z(1, 1), z(1, 0)]])

    def test_getitem_bounds(self):
        m = mat([["1", "2"]])
        assert m[0, 1] == GaussianRational(2)
        with pytest.raises(IndexError):
            m[1, 0]

    @pytest.mark.parametrize("i", [-1, 1, 5])
    def test_row_bounds(self, i):
        m = mat([["1", "2"]])
        assert m.row(0) == (GaussianRational(1), GaussianRational(2))
        with pytest.raises(IndexError):
            m.row(i)

    @pytest.mark.parametrize("combine", [
        lambda m: m + 1,
        lambda m: m * "x",
        lambda m: "x" * m,
    ], ids=["add int", "mul str", "rmul str"])
    def test_unsupported_operands_raise_type_error(self, combine):
        # _sum and _scaled return NotImplemented, so Python raises.
        with pytest.raises(TypeError):
            combine(mat([["1", "2"]]))

    def test_repr(self):
        assert repr(mat([["1", "i"], ["-1/2", "0"]])) == \
            "Matrix(2x2 [1, i; -1/2, 0])"
        assert repr(Matrix.zeros(0, 3)) == "Matrix(0x3 [])"

    @pytest.mark.parametrize("take", [
        lambda m: m.pick([0], [3]),
        lambda m: m.pick([-1], [0]),
        lambda m: m.pick([2], []),
        lambda m: m.columns([3]),
        lambda m: m.submatrix(0, 1, 2, 4),
    ], ids=["column 3", "row -1", "row 2 of none", "columns", "submatrix"])
    def test_pick_bounds(self, take):
        # An index past the end must not wrap into the next row.
        with pytest.raises(IndexError):
            take(mat([["1", "2", "3"], ["4", "5", "6"]]))


class TestAlgebra:
    def test_addition_shapes(self):
        with pytest.raises(ShapeMismatch):
            mat([["1"]]) + mat([["1", "2"]])

    def test_matmul_with_complex_entries(self):
        a = mat([["i", "1"], ["0", "2"]])
        b = mat([["1", "i"], ["i", "0"]])
        assert a * b == mat([["2i", "-1"], ["2i", "0"]])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mat([["1", "2"]]) * mat([["1", "2"]])

    def test_scalar_multiplication_both_sides(self):
        m = mat([["1", "2"], ["3", "4"]])
        assert 2 * m == mat([["2", "4"], ["6", "8"]])
        assert m * I == mat([["i", "2i"], ["3i", "4i"]])

    def test_powers(self):
        m = mat([["1", "1"], ["0", "1"]])
        assert m ** 0 == Matrix.identity(2)
        assert m ** 3 == mat([["1", "3"], ["0", "1"]])
        with pytest.raises(ValueError):
            m ** -1
        with pytest.raises(ShapeMismatch):
            mat([["1", "2"]]) ** 2

    @pytest.mark.parametrize("exponent,products", [
        (0, 0), (1, 0), (2, 1), (4, 2), (5, 3),
    ])
    def test_power_starts_from_its_first_factor(self, monkeypatch, exponent,
                                                products):
        m = mat([["1", "i", "0"], ["2", "0", "1/3"], ["0", "-1", "1"]])
        repeated = Matrix.identity(3)
        for _ in range(exponent):
            repeated = repeated * m
        calls = spy(monkeypatch, matrices, "_product")
        assert m ** exponent == repeated
        assert len(calls) == products

    def test_transpose_and_submatrix(self):
        m = mat([["1", "2", "3"], ["4", "5", "6"]])
        assert m.transpose() == mat([["1", "4"], ["2", "5"], ["3", "6"]])
        assert m.submatrix(0, 2, 1, 3) == mat([["2", "3"], ["5", "6"]])

    @given(rect_matrices(), rect_matrices())
    def test_transpose_reverses_products(self, a, b):
        if a.cols != b.rows:
            b = b.transpose()
        if a.cols != b.rows:
            return
        assert (a * b).transpose() == b.transpose() * a.transpose()


def reference_product(left: Matrix, right: Matrix) -> Matrix:
    """The product by a plain triple loop over GaussianRational entries."""
    return Matrix(left.rows, right.cols, [
        sum((left[i, k] * right[k, j] for k in range(left.cols)),
            GaussianRational(0))
        for i in range(left.rows) for j in range(right.cols)])


def filled(rows: int, cols: int, value) -> Matrix:
    return Matrix(rows, cols, [value] * (rows * cols))


class TestPackedProduct:
    """The packed-row product against the triple loop.

    The slot of a packed row holds the bound 2n max|L| max|R| with its
    sign; the first test reaches that bound with both signs, in both
    parts, at every output position, so a slot one bit narrower fails it.
    """

    @pytest.mark.parametrize("bits", [1, 7, 64, 1000])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 4), (3, 5, 2)])
    def test_entries_at_the_slot_bound(self, bits, shape):
        rows, n, cols = shape
        m, m_right = 2 ** bits - 1, 2 ** bits + 1
        for left_sign in (1, -1):
            for right_sign in (1, -1):
                for im_sign in (1, -1):
                    left = filled(rows, n, GaussianRational(
                        left_sign * m, left_sign * m))
                    right = filled(n, cols, GaussianRational(
                        right_sign * m_right, im_sign * m_right))
                    product = left * right
                    assert product == reference_product(left, right)
                    # re or im of every entry is +-2n m m_right, the bound.
                    bound = 2 * n * m * m_right
                    assert {abs(x.re) + abs(x.im) for row in
                            rows_of(product) for x in row} == {bound}

    def test_purely_imaginary(self):
        left = mat([["i", "-2i", "0"], ["3i", "1/2i", "-i"]])
        right = mat([["-i", "4i"], ["2i", "0"], ["i", "-1/3i"]])
        assert left * right == reference_product(left, right)

    @pytest.mark.parametrize("rows, n, cols", [
        (1, 1, 1), (1, 4, 1), (4, 1, 4), (1, 3, 4), (4, 3, 1),
        (0, 3, 2), (2, 3, 0), (2, 0, 3), (0, 0, 0),
    ])
    def test_edge_shapes(self, rows, n, cols):
        values = [parse_scalar(x) for x in
                  ("2-i", "-1/3", "5/7i", "0", "-4+2/9i", "1")]
        left = Matrix(rows, n, [values[k % 6] for k in range(rows * n)])
        right = Matrix(n, cols, [values[(k + 2) % 6]
                                 for k in range(n * cols)])
        product = left * right
        assert product.shape == (rows, cols)
        assert product == reference_product(left, right)

    def test_long_entries_and_mixed_denominators(self):
        big = 3 ** 700       # about 1110 bits
        left = Matrix(2, 3, [GaussianRational(big, -1), GaussianRational(1, 3),
                             GaussianRational(-big + 1, big),
                             GaussianRational(0, 5), GaussianRational(-7, 11),
                             GaussianRational(big * big, 2)])
        right = Matrix(3, 2, [GaussianRational(-big, big - 2),
                              GaussianRational(1, -13),
                              GaussianRational(2, 17), GaussianRational(-big),
                              GaussianRational(0, 1), GaussianRational(big, 19)])
        for a, b in ((left, right), (right, left)):
            assert a * b == reference_product(a, b)

    @given(rect_matrices(), rect_matrices())
    def test_drawn_pairs(self, a, b):
        if a.cols != b.rows:
            b = b.transpose()
        if a.cols == b.rows:
            assert a * b == reference_product(a, b)


class TestPackedPathOnly(TestPackedProduct):
    """TestPackedProduct's checks with every product packed.

    ``_product`` takes plain dot products up to ``_PLAIN_UP_TO`` terms
    h n w, which covers most of TestPackedProduct's shapes; here the
    cutoff is below every size, so the slot bound is still reached on the
    packed path.
    """

    @pytest.fixture(autouse=True, scope="class")
    def packed_only(self):
        with mock.patch.object(matrices, "_PLAIN_UP_TO", -1):
            yield

    # Hypothesis runs a test from one class only; TestPlainAndPackedAgree
    # draws pairs for both paths.
    test_drawn_pairs = None


def storage(m: Matrix) -> tuple:
    return m.shape, m._den, m._re, m._im


class TestPlainAndPackedAgree:
    """The plain and the packed product give the same storage.

    Each pair is multiplied with the cutoff below every size (packed
    only), above every size (plain wherever the inner dimension is
    positive) and as set, on both sides of ``_PLAIN_UP_TO``.
    """

    @staticmethod
    def products(left, right):
        found = [storage(left * right)]
        for cutoff in (-1, 10 ** 9):
            with mock.patch.object(matrices, "_PLAIN_UP_TO", cutoff):
                found.append(storage(left * right))
        return found

    REAL = ("2", "-1/3", "0", "5/7", "-4", "1")
    COMPLEX = ("2-i", "-1/3", "5/7i", "0", "-4+2/9i", "1")

    @pytest.mark.parametrize("rows, n, cols", [
        (2, 0, 3), (0, 0, 0), (0, 3, 2), (2, 3, 0), (0, 0, 4),
        (1, 1, 1), (2, 2, 2), (3, 4, 4), (4, 4, 3), (3, 4, 5), (4, 4, 4),
        (2, 5, 5), (6, 6, 6),
    ])
    @pytest.mark.parametrize("kinds", [("REAL", "COMPLEX"),
                                       ("COMPLEX", "REAL"),
                                       ("COMPLEX", "COMPLEX")],
                             ids=["real x complex", "complex x real",
                                  "complex x complex"])
    def test_shapes_on_both_sides_of_the_cutoff(self, rows, n, cols, kinds):
        left_values, right_values = (
            [parse_scalar(x) for x in getattr(self, kind)] for kind in kinds)
        left = Matrix(rows, n, [left_values[k % 6] for k in range(rows * n)])
        right = Matrix(n, cols, [right_values[(k + 2) % 6]
                                 for k in range(n * cols)])
        assert self.products(left, right) == [
            storage(reference_product(left, right))] * 3

    def test_largest_workload_entries(self):
        # thm3.1's blocks at n = 8 hold the closed-form workload's largest
        # entries, up to 200 bits.
        e, f = gen_pair(GenSpec("thm3.1", 8, 7, True, seed=0))
        result = block_group_inverse("thm3.1", e, f)
        gamma, delta = result.gamma, result.delta
        assert max(abs(x).bit_length() for x in delta._re + delta._im) >= 190
        for left, right in ((delta, gamma), (gamma, delta),
                            (delta.pick([0, 1, 2], [3, 4, 5, 6]),
                             gamma.pick([1, 2, 3, 4], [0, 7, 2, 5])),
                            (delta.pick([5], range(8)), gamma.columns([6])),
                            (delta.columns([2]), gamma.pick([4], range(8)))):
            packed, plain, as_set = self.products(left, right)
            assert packed == plain == as_set

    @given(rect_matrices(), rect_matrices())
    def test_drawn_pairs(self, a, b):
        if a.cols != b.rows:
            b = b.transpose()
        if a.cols == b.rows:
            assert self.products(a, b) == [
                storage(reference_product(a, b))] * 3


class TestRowReduction:
    def test_rref_of_complex_rank_one(self):
        reduced, rank_found, pivots = rref(mat([["i", "i"], ["0", "0"]]))
        assert reduced == mat([["1", "1"], ["0", "0"]])
        assert rank_found == 1
        assert pivots == (0,)

    def test_rref_of_invertible_is_identity(self):
        reduced, rank_found, pivots = rref(mat([["1", "2"], ["3", "4"]]))
        assert reduced == Matrix.identity(2)
        assert rank_found == 2
        assert pivots == (0, 1)

    @given(square_matrices())
    def test_rref_is_idempotent(self, m):
        reduced, rank_found, _ = rref(m)
        again, rank_again, _ = rref(reduced)
        assert again == reduced
        assert rank_again == rank_found

    @given(square_matrices())
    def test_rank_matches_rref(self, m):
        assert rank(m) == rref(m)[1]


def _first_nonzero_pivots():
    """Every row the same size: the first candidate row pivots."""
    return mock.patch.object(matrices, "_bits", lambda vector: 0)


class TestPivotChoice:
    def test_smaller_candidate_row_pivots(self):
        m = mat([["4115", "226", "7"], ["1", "2", "0"], ["0", "3", "1"]])
        rows = matrices._integer_rows(m)[0]
        assert matrices._gauss_jordan(rows, 3, False)[2][0] == 1
        with _first_nonzero_pivots():
            rows = matrices._integer_rows(m)[0]
            assert matrices._gauss_jordan(rows, 3, False)[2][0] == 0

    def test_size_counts_both_parts(self):
        assert matrices._bits(([4, -1, 0], [0, 0, 0])) == 4
        assert matrices._bits(([4, -1, 0], [0, 2, -8])) == 10

    @given(st.one_of(rect_matrices(4), singular_square_matrices(max_n=4)))
    def test_outputs_equal_first_nonzero_pivoting(self, m):
        square = m.is_square and rank(m) == m.rows
        results = rref(m), inverse(m) if square else None
        with _first_nonzero_pivots():
            assert results == (rref(m), inverse(m) if square else None)


class TestExactDivision:
    def test_non_real_previous_pivot_after_row_swap(self, monkeypatch):
        # Column 0 pivots on i. Row 1 is then zero in column 1, so column 1
        # swaps rows, and the next step divides by the non-real pivot i.
        # The step folds conj(d) in, so the pivot is recorded where it
        # enters the step, not at the division by its norm. rank gets the
        # rows with a zero column appended: not square, so the mod-P
        # certificate cannot settle it without the kernel.
        m = mat([["i", "1", "0"], ["0", "0", "1"], ["1", "2", "3"]])
        wide = mat([["i", "1", "0", "0"], ["0", "0", "1", "0"],
                    ["1", "2", "3", "0"]])
        steps = spy(monkeypatch, matrices, "_combine")
        assert rank(wide) == 3
        assert (0, 1) in [d for *_, d in steps]
        steps.clear()
        m_inv = inverse(m)
        assert (0, 1) in [d for *_, d in steps]
        assert m * m_inv == Matrix.identity(3)
        assert m_inv * m == Matrix.identity(3)

    # The step (1*x - 0*x) / d is x / d, divided after the conj(d) fold.
    # A negative pivot, and remainders that cancel under truncation or in
    # the sum of the row, must still raise.
    @pytest.mark.parametrize("re, im, d", [
        ([4, 3], [0, 0], (2, 0)),
        ([2, 1], [0, 0], (1, 1)),
        ([1], [1], (0, 2)),
        ([3, 1], [0, 0], (-2, 0)),
        ([3, -3], [0, 0], (2, 0)),
    ])
    def test_inexact_division_raises(self, re, im, d):
        with pytest.raises(ArithmeticError):
            matrices._combine((1, 0), (re, im), (0, 0), (re, im), d)

    def test_guard_survives_optimized_mode(self):
        code = (
            "from blockginv.matrices import _combine\n"
            "x = ([2, 1], [0, 0])\n"
            "try:\n"
            "    _combine((1, 0), x, (0, 0), x, (1, 1))\n"
            "except ArithmeticError:\n"
            "    print('raised')\n"
        )
        src = os.path.dirname(os.path.dirname(blockginv.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout == "raised\n"


class TestInverse:
    def test_block_conjugator_inverse(self):
        e = mat([["1", "2"], ["0", "-1"]])
        p = Matrix.from_blocks([
            [Matrix.zeros(2, 2), Matrix.identity(2)],
            [Matrix.identity(2), -e],
        ])
        expected = Matrix.from_blocks([
            [e, Matrix.identity(2)],
            [Matrix.identity(2), Matrix.zeros(2, 2)],
        ])
        assert inverse(p) == expected

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            inverse(mat([["1", "1"], ["1", "1"]]))

    def test_non_square_raises(self):
        with pytest.raises(ShapeMismatch):
            inverse(mat([["1", "2"]]))

    @given(square_matrices())
    def test_round_trip_when_invertible(self, m):
        if rank(m) < m.rows:
            return
        assert m * inverse(m) == Matrix.identity(m.rows)
        assert inverse(m) * m == Matrix.identity(m.rows)


LIFT_FROM = matrices._LIFT_FROM


def padded(core: Matrix) -> Matrix:
    """diag(core, I), as large as the smallest size that inverse lifts."""
    rest = LIFT_FROM - core.rows
    return Matrix.from_blocks([
        [core, Matrix.zeros(core.rows, rest)],
        [Matrix.zeros(rest, core.rows), Matrix.identity(rest)],
    ])


@st.composite
def lifting_route_matrices(draw):
    """Square, LIFT_FROM to LIFT_FROM + 2, real or complex, with numerators
    of up to 200 bits over one denominator of up to 64 bits."""
    n = draw(st.integers(LIFT_FROM, LIFT_FROM + 2))
    parts = st.lists(st.integers(-2 ** 200, 2 ** 200), min_size=n * n,
                     max_size=n * n)
    re = draw(parts)
    im = draw(parts) if draw(st.booleans()) else [0] * (n * n)
    den = draw(st.integers(1, 2 ** 64))
    return Matrix.from_parts(n, n, [(a, den, b, den) for a, b in zip(re, im)])


def by_ffgj(m: Matrix) -> Matrix:
    """inverse(m) with lifting turned away, so FFGJ computes it."""
    with mock.patch.object(matrices, "_lifted_inverse", return_value=None):
        return inverse(m)


class TestLiftedInverse:
    """From LIFT_FROM up, inverse lifts N^-1 mod P p-adically and returns
    only what N U = den D I certifies; FFGJ runs when lifting abstains."""

    @settings(max_examples=10)
    @given(lifting_route_matrices())
    def test_lifting_certifies_the_ffgj_inverse(self, m):
        # Every invertible draw is invertible mod P too, but for a chance
        # of about n / P, so lifting itself must return the inverse.
        lifted = matrices._lifted_inverse(m)
        try:
            expected = by_ffgj(m)
        except SingularMatrix:
            assert lifted is None
            return
        assert lifted == expected
        assert inverse(m) == expected

    @pytest.mark.parametrize("core", [
        Matrix.from_rows([[matrices._P, 1], [0, 1]]),
        Matrix.from_rows([[GaussianRational(matrices._P - matrices._S, 1),
                           2], [0, 3]]),
    ], ids=["det P", "det (P - S + i) 3"])
    def test_singular_mod_p_falls_back_to_ffgj(self, core):
        m = padded(core)
        assert matrices._lifted_inverse(m) is None
        assert inverse(m) == padded(inverse(core))
        assert m * inverse(m) == Matrix.identity(LIFT_FROM)

    def test_reconstruction_needs_the_certificate(self):
        # The inverse's corner entry P^2 reads as 0 mod P and mod P^2, so
        # every entry reconstructs after one step as I, and again after
        # two; only N U = D I turns those down, until P^5 reads P^2 back.
        core = Matrix.from_rows([[1, -matrices._P ** 2], [0, 1]])
        expected = padded(Matrix.from_rows([[1, matrices._P ** 2], [0, 1]]))
        assert matrices._lifted_inverse(padded(core)) == expected
        assert by_ffgj(padded(core)) == expected

    @staticmethod
    def assert_inverse_mod_p(m: Matrix) -> None:
        n, p = m.rows, matrices._P
        c = Matrix.from_parts(n, n, [(a, 1, b, 1) for a, b in
                                     zip(*matrices._inverse_mod_p(m))])
        assert [(x.re.numerator % p, x.im.numerator % p)
                for row in rows_of(m * c) for x in row] == [
            (int(i == j), 0) for i in range(n) for j in range(n)]

    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.sampled_from([0, 1, matrices._P - 1]) | st.integers(
            0, matrices._P - 1), min_size=2 * n * n, max_size=2 * n * n))))
    def test_inverse_mod_p_is_a_right_inverse(self, drawn):
        n, parts = drawn
        m = Matrix.from_parts(n, n, [(a, 1, b, 1) for a, b in
                                     zip(parts[::2], parts[1::2])])
        if matrices._inverse_mod_p(m) is not None:
            self.assert_inverse_mod_p(m)

    @pytest.mark.parametrize("n", [6, 7])
    def test_inverse_mod_p_at_the_slot_bound(self, n):
        # P - 1 on and below the diagonal: every pivot row reduces to its
        # lead alone, so each step adds (P - 1) P to every slot below it,
        # and the last row's slots reach (P - 1)(1 + (n - 1) P), past
        # 2^(w - 1) for these n.
        p = matrices._P
        m = Matrix.from_rows([[p - 1 if j <= i else 0 for j in range(n)]
                              for i in range(n)])
        self.assert_inverse_mod_p(m)

    def test_lifting_abstains_past_the_hadamard_bound(self):
        # With every reconstruction refused, lifting runs until P^k passes
        # 2 (den H)^2, H = prod |row of N|^2 for the numerators N = den m,
        # and abstains there; inverse then takes the FFGJ route.
        m = gen_invertible(LIFT_FROM, seed=0)
        expected = by_ffgj(m)
        den = m._den
        hadamard = 1
        for i in range(m.rows):
            hadamard *= sum((den * x.re) ** 2 + (den * x.im) ** 2
                            for x in m.row(i))
        limit = 2 * (den * hadamard) ** 2
        moduli = []

        def refused(values, modulus):
            moduli.append(modulus)
            return None

        with mock.patch.object(matrices, "_rational_parts", refused):
            assert matrices._lifted_inverse(m) is None
            steps = len(moduli)
            assert steps >= 2
            assert moduli == [matrices._P ** k for k in range(1, steps + 1)]
            assert moduli[-2] <= limit < moduli[-1]
            assert inverse(m) == expected
        assert len(moduli) == 2 * steps
        assert m * expected == Matrix.identity(LIFT_FROM)

    def test_singular_raises_as_before(self):
        rows = [[(i + 2) ** j for j in range(LIFT_FROM)]
                for i in range(LIFT_FROM - 1)]
        rows.append([a + b for a, b in zip(rows[0], rows[1])])
        m = Matrix.from_rows(rows)
        assert matrices._lifted_inverse(m) is None
        with pytest.raises(SingularMatrix,
                           match=rf"^rank {LIFT_FROM - 1} < {LIFT_FROM}$"):
            inverse(m)


@st.composite
def rref_route_matrices(draw):
    """LIFT_FROM to LIFT_FROM + 3 rows: square, LIFT_FROM x (LIFT_FROM + 3)
    or the transpose; dense, or a product through at most four columns,
    so of rank at most four; real or complex, with numerators of up to
    200 bits over one denominator of up to 64 bits."""
    low, high = LIFT_FROM, LIFT_FROM + 3
    height, width = draw(st.sampled_from(
        [(n, n) for n in range(low, high + 1)] + [(low, high), (high, low)]))
    complex_parts = draw(st.booleans())

    def numerators(rows, cols, bits):
        parts = st.lists(st.integers(-2 ** bits, 2 ** bits),
                         min_size=rows * cols, max_size=rows * cols)
        re = draw(parts)
        im = draw(parts) if complex_parts else [0] * (rows * cols)
        return Matrix.from_parts(rows, cols, [(a, 1, b, 1)
                                              for a, b in zip(re, im)])

    if draw(st.booleans()):
        m = numerators(height, width, 200)
    else:
        inner = draw(st.integers(1, 4))
        m = numerators(height, inner, 100) * numerators(inner, width, 100)
    return m * Fraction(1, draw(st.integers(1, 2 ** 64)))


def rref_by_ffgj(m: Matrix):
    """rref(m) with lifting turned away, so FFGJ computes it."""
    with mock.patch.object(matrices, "_lifted_rref", return_value=None):
        return rref(m)


def column(values) -> list[list]:
    return [[x] for x in values]


_P, _S = matrices._P, matrices._S


class TestLiftedRref:
    """From LIFT_FROM rows up, rref takes the pivot rows I and columns J of
    Gauss-Jordan mod P, lifts X = M[I, J]^-1 M[I, F] for the free columns
    F, and returns [I | X] only when X is zero left of each row's pivot
    and M[:, J] X = M[:, F] holds over all rows; FFGJ runs otherwise."""

    @settings(max_examples=15)
    @given(rref_route_matrices())
    def test_lifting_gives_the_ffgj_rref(self, m):
        # A nonzero draw loses rank or a pivot mod P only by a chance of
        # about n / P, so lifting itself must return the rref.
        expected = rref_by_ffgj(m)
        lifted = matrices._lifted_rref(m)
        assert lifted == (None if m.is_zero() else expected)
        assert rref(m) == expected

    def test_pivots_shifted_mod_p_fail_the_echelon_check(self):
        # Column 0 is P e_0, zero mod P, so the pivots mod P are columns
        # 1 to 9. The first reading, X = 0, fails the product check; the
        # exact X = P e_0 passes it but is nonzero left of row 0's pivot.
        # Over Q(i) column 0 pivots.
        m = Matrix.from_rows([a + b for a, b in zip(
            column([_P] + [0] * (LIFT_FROM - 1)),
            rows_of(Matrix.identity(LIFT_FROM)))])
        expected_rows = [[1, Fraction(1, _P)] + [0] * (LIFT_FROM - 1)]
        expected_rows += [[0] + row for row in
                          rows_of(Matrix.identity(LIFT_FROM))[1:]]
        expected = (Matrix.from_rows(expected_rows), LIFT_FROM,
                    (0, *range(2, LIFT_FROM + 1)))
        assert matrices._lifted_rref(m) is None
        assert rref(m) == expected == rref_by_ffgj(m)

    def test_rank_lost_mod_p_fails_the_product_check(self):
        # Rows 0 and 1 agree mod P, so row 1 never pivots and column 1 is
        # free mod P; X solves the pivot rows exactly, and only row 1 of
        # M[:, J] X = M[:, F] fails. det = P, so over Q(i) R = I.
        core = Matrix.from_rows([[1, 1], [1, 1 + _P]])
        m = padded(core)
        assert matrices._lifted_rref(m) is None
        expected = (Matrix.identity(LIFT_FROM), LIFT_FROM,
                    tuple(range(LIFT_FROM)))
        assert rref(m) == expected == rref_by_ffgj(m)

    def test_every_entry_a_multiple_of_p(self):
        # No pivot mod P at all: lifting has nothing to start from.
        reduced = Matrix.from_rows([a + b for a, b in zip(
            rows_of(Matrix.identity(LIFT_FROM)),
            column(range(1, LIFT_FROM + 1)))])
        m = _P * reduced
        assert matrices._lifted_rref(m) is None
        expected = (reduced, LIFT_FROM, tuple(range(LIFT_FROM)))
        assert rref(m) == expected == rref_by_ffgj(m)

    def test_core_singular_only_under_minus_s(self):
        # P - S - i, the conjugate of the unlucky entry of the sympy tests,
        # maps to P - 2S under i -> S, which pivots, and to 0 under i -> -S,
        # so N has no inverse mod P and lifting abstains.
        z = GaussianRational(_P - _S, -1)
        core = padded(Matrix.from_rows([[z]]))
        m = Matrix.from_rows([a + b for a, b in zip(
            rows_of(core), column([1] * LIFT_FROM))])
        assert matrices._inverse_image(core, _S) is not None
        assert matrices._inverse_image(core, _P - _S) is None
        assert matrices._lifted_rref(m) is None
        expected = Matrix.from_rows([a + b for a, b in zip(
            rows_of(Matrix.identity(LIFT_FROM)),
            column([1 / z] + [1] * (LIFT_FROM - 1)))])
        assert rref(m) == (expected, LIFT_FROM, tuple(range(LIFT_FROM)))
        assert rref(m) == rref_by_ffgj(m)

    @pytest.mark.parametrize("shape", [
        (0, 0), (0, 3), (3, 0), (0, LIFT_FROM), (LIFT_FROM, 0)])
    def test_empty_shapes_skip_elimination(self, shape, monkeypatch):
        def refuse(*args):
            raise AssertionError("an empty matrix needs no elimination")

        for name in ("_gauss_jordan_mod", "_gauss_jordan"):
            monkeypatch.setattr(matrices, name, refuse)
        m = Matrix.zeros(*shape)
        assert rref(m) == (Matrix.zeros(*shape), 0, ())
        assert rank(m) == 0
        if shape == (0, 0):
            assert rref(m)[0] == Matrix.identity(0)


class TestKernelAndColumnSpace:
    def test_kernel_of_rank_one(self):
        basis = kernel_basis(mat([["1", "1"], ["0", "0"]]))
        assert basis == mat([["-1"], ["1"]])

    def test_kernel_of_identity_is_empty(self):
        assert kernel_basis(Matrix.identity(3)).shape == (3, 0)

    def test_kernel_of_zero_is_identity(self):
        assert kernel_basis(Matrix.zeros(2, 2)) == Matrix.identity(2)

    def test_column_space_keeps_pivot_columns(self):
        m = mat([["1", "2", "3"], ["0", "0", "1"]])
        assert column_space_basis(m) == mat([["1", "3"], ["0", "1"]])

    @given(square_matrices())
    def test_kernel_annihilates_and_spans(self, m):
        basis = kernel_basis(m)
        assert (m * basis).is_zero()
        assert basis.cols == m.cols - rank(m)
        if basis.cols:
            assert rank(basis) == basis.cols


class TestDistributivity:
    @given(square_matrices(), square_matrices(), square_matrices())
    def test_right_distribution(self, a, b, c):
        n = min(a.rows, b.rows, c.rows)
        a = a.submatrix(0, n, 0, n)
        b = b.submatrix(0, n, 0, n)
        c = c.submatrix(0, n, 0, n)
        assert (a + b) * c == a * c + b * c


def assert_canonical(m: Matrix) -> None:
    """Real and imaginary numerators over one positive denominator, with
    gcd 1 overall; a real matrix stores all-zero imaginary numerators."""
    assert isinstance(m._den, int) and m._den > 0
    for part in (m._re, m._im):
        assert isinstance(part, tuple) and len(part) == m.rows * m.cols
        assert all(type(x) is int for x in part)
    assert gcd(m._den, *m._re, *m._im) == 1


def square_pairs(max_n=3):
    return st.integers(1, max_n).flatmap(lambda n: st.tuples(
        *[st.lists(st.lists(scalars(), min_size=n, max_size=n),
                   min_size=n, max_size=n).map(Matrix.from_rows)] * 2))


multipliers = st.one_of(scalars(), st.integers(-4, 4),
                        st.fractions(max_denominator=5))


class TestCanonicalForm:
    def test_zero_matrix_has_denominator_one(self):
        zero = mat([["1/3", "1/2i"]]) - mat([["1/3", "1/2i"]])
        assert (zero._den, zero._re, zero._im) == (1, (0, 0), (0, 0))
        assert zero == Matrix.zeros(1, 2)
        assert hash(zero) == hash(Matrix.zeros(1, 2))

    def test_shared_denominator(self):
        m = mat([["1/2", "1/3"], ["2/3i", "4"]])
        assert m._den == 6
        assert m._re == (3, 2, 0, 24)
        assert m._im == (0, 0, 4, 0)
        assert m.submatrix(0, 1, 0, 2)._re == (3, 2)
        assert m.submatrix(1, 2, 1, 2)._re == (4,)

    @given(rect_matrices())
    def test_construction_and_round_trip(self, m):
        assert_canonical(m)
        again = Matrix.from_rows(rows_of(m))
        assert again == m and hash(again) == hash(m)
        assert Matrix(m.rows, m.cols, [x for row in rows_of(m)
                                       for x in row]) == m

    @given(rect_matrices(), st.data())
    def test_init_stores_as_from_parts_in_any_terms(self, m, data):
        # Each entry goes in as an int, a Fraction or a GaussianRational,
        # and again as its parts times a nonzero factor, which may be
        # negative, so the denominators are neither reduced nor positive.
        values = [x for row in rows_of(m) for x in row]
        entries = [x if x.im else x.re.numerator if x.re.denominator == 1
                   else x.re for x in values]
        factors = data.draw(st.lists(
            st.integers(-4, 4).filter(bool), min_size=2 * len(values),
            max_size=2 * len(values)))
        parts = [(x.re.numerator * k, x.re.denominator * k,
                  x.im.numerator * h, x.im.denominator * h)
                 for x, k, h in zip(values, factors[::2], factors[1::2])]
        built = Matrix(m.rows, m.cols, entries)
        assert_canonical(built)
        assert built == Matrix.from_parts(m.rows, m.cols, parts) == m

    @given(square_pairs())
    def test_sums_products_and_negation(self, pair):
        a, b = pair
        for result in (a + b, a - b, -a, a * b, b * a, a - a):
            assert_canonical(result)
        back = (a + b) - b
        assert back == a and hash(back) == hash(a)
        eye = Matrix.identity(a.rows)
        assert a * eye == a and eye * a == a
        assert hash(a * eye) == hash(a)
        assert -(-a) == a

    @given(rect_matrices(), multipliers)
    def test_scalar_multiplication_both_sides(self, m, c):
        left, right = c * m, m * c
        assert_canonical(left)
        assert_canonical(right)
        assert left == right == Matrix.from_rows(
            [[c * x for x in row] for row in rows_of(m)])

    @given(rect_matrices(), st.data())
    def test_reshuffles(self, m, data):
        assert_canonical(m.transpose())
        assert m.transpose().transpose() == m
        r0 = data.draw(st.integers(0, m.rows))
        r1 = data.draw(st.integers(r0, m.rows))
        c0 = data.draw(st.integers(0, m.cols))
        c1 = data.draw(st.integers(c0, m.cols))
        part = m.submatrix(r0, r1, c0, c1)
        assert_canonical(part)
        assert rows_of(part) == [row[c0:c1]
                                 for row in rows_of(m)[r0:r1]]
        picks = data.draw(st.lists(st.integers(0, m.cols - 1), max_size=4))
        picked = m.columns(picks)
        assert_canonical(picked)
        assert rows_of(picked) == [[row[c] for c in picks]
                                   for row in rows_of(m)]

    @given(square_pairs(), nonzero_scalars())
    def test_from_blocks(self, pair, c):
        a, b = pair
        whole = Matrix.from_blocks([[a, c * b], [Matrix.zeros(a.rows, a.cols),
                                                 Matrix.identity(a.rows)]])
        assert_canonical(whole)
        n = a.rows
        assert whole.submatrix(0, n, 0, n) == a
        assert whole.submatrix(0, n, n, 2 * n) == c * b
        assert whole.submatrix(n, 2 * n, 0, n).is_zero()

    @given(square_matrices())
    def test_elimination_results(self, m):
        reduced, _, _ = rref(m)
        assert_canonical(reduced)
        assert_canonical(kernel_basis(m))
        assert_canonical(column_space_basis(m))
        if rank(m) == m.rows:
            assert_canonical(inverse(m))

    @given(singular_square_matrices(max_n=4))
    def test_drazin_results(self, m):
        result = drazin(m)
        assert_canonical(result.drazin)
        assert_canonical(result.spectral_idempotent)


def _dense_invertible(n: int) -> Matrix:
    """A dense invertible n x n matrix."""
    return Matrix.from_rows([[(i + 2) ** j + (i == j) for j in range(n)]
                             for i in range(n)])


UNIT_ROW_CASES = [
    mat([["2", "3"], ["0", "5"]]),
    mat([["1", "2+i", "0"], ["0", "2+i", "0"], ["4", "1", "7"]]),
    mat([["0", "3", "0"], ["0", "-1", "0"], ["1", "1", "1"]]),
    mat([["1", "2", "3"], ["0", "0", "0"], ["0", "0", "4"]]),
    mat([["0", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]]),
    mat([["2", "0", "0"], ["0", "i", "0"], ["0", "0", "1/3"]]),
    # Unit rows only once the first round's columns are gone: the rest
    # is taken out again, and in the second matrix its two unit rows
    # share a column, leaving rank 2.
    mat([["1", "2", "0"], ["0", "3", "0"], ["4", "5", "6"]]),
    mat([["1", "2", "0"], ["0", "3", "0"], ["2", "7", "0"]]),
]


class TestUnitRows:
    """Unit rows pivot exactly in rref and inverse. P M, for a dense
    invertible P, has no unit row and takes the elimination route, and
    the two routes must agree on the result and on a singular matrix's
    message."""

    @pytest.mark.parametrize("m", UNIT_ROW_CASES)
    def test_same_as_elimination(self, m):
        p = _dense_invertible(m.rows)
        assert matrices._unit_rows(m) and not matrices._unit_rows(p * m)
        assert rref(m) == rref(p * m)
        try:
            expected = inverse(p * m) * p
        except SingularMatrix as err:
            with pytest.raises(SingularMatrix, match=f"^{err}$"):
                inverse(m)
        else:
            assert inverse(m) == expected

    @pytest.mark.parametrize("entry, inverted", [
        ("5", "1/5"), ("-3/7", "-7/3"), ("2+i", "2/5-1/5i"), ("1/2i", "-2i"),
    ])
    def test_one_by_one(self, entry, inverted):
        m = mat([[entry]])
        assert rref(m) == (Matrix.identity(1), 1, (0,))
        assert inverse(m) == mat([[inverted]])

    def test_zero_and_empty(self):
        zero = Matrix.zeros(1, 1)
        assert rref(zero) == (zero, 0, ())
        with pytest.raises(SingularMatrix, match="^rank 0 < 1$"):
            inverse(zero)
        empty = Matrix.zeros(0, 0)
        assert rref(empty) == (empty, 0, ())
        assert inverse(empty) == empty

"""Matrix algebra, row reduction, and kernels."""

import os
import subprocess
import sys

import pytest
from hypothesis import given

import blockginv
from blockginv import matrices
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
from blockginv.scalars import GaussianRational, I
from conftest import mat, rect_matrices, scalars, square_matrices


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

    def test_getitem_bounds(self):
        m = mat([["1", "2"]])
        assert m[0, 1] == GaussianRational(2)
        with pytest.raises(IndexError):
            m[1, 0]


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


class TestExactDivision:
    def test_non_real_previous_pivot_after_row_swap(self, monkeypatch):
        # Column 0 pivots on i. Row 1 is then zero in column 1, so column 1
        # swaps rows, and the next step divides by the non-real pivot i.
        m = mat([["i", "1", "0"], ["0", "0", "1"], ["1", "2", "3"]])
        divisors = []
        divide = matrices._divide

        def recording_divide(re, im, d):
            divisors.append(d)
            return divide(re, im, d)

        monkeypatch.setattr(matrices, "_divide", recording_divide)
        assert rank(m) == 3
        assert (0, 1) in divisors
        divisors.clear()
        m_inv = inverse(m)
        assert (0, 1) in divisors
        assert m * m_inv == Matrix.identity(3)
        assert m_inv * m == Matrix.identity(3)

    @pytest.mark.parametrize("re, im, d", [
        ([4, 3], None, (2, 0)),
        ([2, 1], [0, 0], (1, 1)),
        ([1], [1], (0, 2)),
    ])
    def test_inexact_division_raises(self, re, im, d):
        with pytest.raises(ArithmeticError):
            matrices._divide(re, im, d)

    def test_guard_survives_optimized_mode(self):
        code = (
            "from blockginv.matrices import _divide\n"
            "try:\n"
            "    _divide([2, 1], [0, 0], (1, 1))\n"
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

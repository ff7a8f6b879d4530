"""The matrix layer against sympy's DomainMatrix over QQ_I.

The closed forms and the Drazin oracle both run on ``Matrix``, so a bug
there could make them agree on a wrong answer. These tests check sums,
differences, negation, scalar multiples, the product, rank, rref,
inverse, the kernel and column-space bases, and the scalar operations
+ - * /, against an implementation that shares no code with blockginv.
"""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from blockginv.generators import GenSpec, gen_pair
from blockginv.ginverse import drazin
from blockginv import matrices as blockginv_matrices
from blockginv.matrices import (Matrix, SingularMatrix, column_space_basis,
                                inverse, kernel_basis, rank, rref)
from blockginv.scalars import GaussianRational
from blockginv.theorems import SHAPE_FOR_THEOREM, assemble_M
from conftest import mat, nonzero_scalars, rows_of, scalars


def to_qq_i(x: GaussianRational):
    return QQ_I(QQ(x.re.numerator, x.re.denominator),
                QQ(x.im.numerator, x.im.denominator))


def from_qq_i(x) -> GaussianRational:
    return GaussianRational(
        Fraction(int(x.x.numerator), int(x.x.denominator)),
        Fraction(int(x.y.numerator), int(x.y.denominator)),
    )


def to_sympy(m: Matrix) -> DomainMatrix:
    return DomainMatrix([[to_qq_i(x) for x in row] for row in rows_of(m)],
                        m.shape, QQ_I)


def from_sympy(dm: DomainMatrix) -> Matrix:
    rows, cols = dm.shape
    return Matrix(rows, cols,
                  [from_qq_i(x) for row in dm.to_list() for x in row])


def grids(rows, cols):
    return st.lists(st.lists(scalars(), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def matrices(draw, rows=None, cols=None):
    """Rectangular, possibly 0-dimensional, often rank-deficient."""
    rows = draw(st.integers(0, 4)) if rows is None else rows
    cols = draw(st.integers(0, 4)) if cols is None else cols
    inner = draw(st.integers(0, 4))
    if inner < min(rows, cols) and draw(st.booleans()):
        # A product through a narrower inner dimension has rank <= inner.
        left = to_sympy(Matrix(rows, inner, sum(draw(grids(rows, inner)), [])))
        right = to_sympy(Matrix(inner, cols, sum(draw(grids(inner, cols)), [])))
        return from_sympy(left * right)
    return Matrix(rows, cols, sum(draw(grids(rows, cols)), []))


@st.composite
def product_pairs(draw):
    rows, inner, cols = (draw(st.integers(0, 4)) for _ in range(3))
    return draw(matrices(rows, inner)), draw(matrices(inner, cols))


@st.composite
def same_shape_pairs(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return draw(matrices(rows, cols)), draw(matrices(rows, cols))


def assert_sums_agree(a: Matrix, b: Matrix) -> None:
    assert a + b == from_sympy(to_sympy(a) + to_sympy(b))
    assert a - b == from_sympy(to_sympy(a) - to_sympy(b))
    assert -a == from_sympy(-to_sympy(a))


def assert_rank_rref_agree(m: Matrix) -> None:
    reduced, rank_found, pivots = rref(m)
    expected, expected_pivots = to_sympy(m).rref()
    assert reduced == from_sympy(expected)
    assert pivots == tuple(expected_pivots)
    assert rank_found == rank(m) == to_sympy(m).rank()


def assert_inverse_agrees(m: Matrix) -> None:
    if to_sympy(m).rank() < m.rows:
        with pytest.raises(SingularMatrix):
            inverse(m)
    else:
        assert inverse(m) == from_sympy(to_sympy(m).inv())


@given(product_pairs())
def test_product(pair):
    a, b = pair
    assert a * b == from_sympy(to_sympy(a) * to_sympy(b))


@given(same_shape_pairs())
def test_sum_difference_and_negation(pair):
    assert_sums_agree(*pair)


@given(matrices(), scalars())
def test_scalar_multiple(m, c):
    expected = from_sympy(to_sympy(m) * to_qq_i(c))
    assert c * m == expected
    assert m * c == expected


@given(scalars(), scalars())
def test_scalar_arithmetic(a, b):
    x, y = to_qq_i(a), to_qq_i(b)
    assert a + b == from_qq_i(x + y)
    assert a - b == from_qq_i(x - y)
    assert a * b == from_qq_i(x * y)
    assert -a == from_qq_i(-x)
    if b:
        assert a / b == from_qq_i(x / y)
    else:
        with pytest.raises(ZeroDivisionError):
            a / b


@given(matrices())
def test_rank_and_rref(m):
    assert_rank_rref_agree(m)


@given(st.integers(0, 4).flatmap(lambda n: matrices(n, n)))
def test_inverse(m):
    assert_inverse_agrees(m)


LIFT_FROM = blockginv_matrices._LIFT_FROM


@settings(max_examples=8)
@given(st.integers(LIFT_FROM, LIFT_FROM + 2).flatmap(
    lambda n: matrices(n, n)))
def test_inverse_on_the_lifting_route(m):
    # From LIFT_FROM up inverse lifts p-adically; about half the draws are
    # products through at most four columns, singular, so FFGJ decides.
    assert_inverse_agrees(m)


def assert_bases_agree(m: Matrix) -> None:
    # sympy's null space holds one basis vector per row, here scaled so its
    # last nonzero, the free column's entry, is 1; transposed, the vectors
    # stand side by side as columns.
    null_rows = to_sympy(m).nullspace(divide_last=True)
    assert kernel_basis(m) == from_sympy(null_rows.transpose())
    assert column_space_basis(m) == from_sympy(to_sympy(m).columnspace())


@given(st.tuples(st.integers(1, 5), st.integers(1, 6))
       .flatmap(lambda shape: matrices(*shape)))
def test_kernel_and_column_space_bases(m):
    assert_bases_agree(m)


@pytest.mark.parametrize("m,kernel", [
    (Matrix.zeros(0, 3), Matrix.identity(3)),
    (Matrix.zeros(2, 0), Matrix.zeros(0, 0)),
], ids=["0x3", "2x0"])
def test_kernel_and_column_space_bases_of_empty_shapes(m, kernel):
    assert kernel_basis(m) == kernel
    assert_bases_agree(m)


@st.composite
def deficient_matrices(draw):
    """Wide or tall, with free columns ahead of later pivots.

    Column j copies a multiple of column j - 1, so it is free whenever that
    column pivots; column 0 is zero in half of the draws.
    """
    rows, cols = draw(st.sampled_from([(2, 5), (3, 6), (5, 2), (6, 3),
                                       (4, 4)]))
    m = draw(matrices(rows, cols))
    j = draw(st.integers(1, cols - 1))
    parts = [m.columns(range(j)), draw(scalars()) * m.columns([j - 1]),
             m.columns(range(j + 1, cols))]
    if draw(st.booleans()):
        parts = [Matrix.zeros(rows, 1), Matrix.from_blocks([parts]).columns(
            range(1, cols))]
    return Matrix.from_blocks([parts])


@st.composite
def swapped_invertibles(draw):
    """Upper triangular rows, cyclically shifted: every pivot needs a swap."""
    n = draw(st.integers(2, 4))
    entries = [draw(nonzero_scalars()) if j == i else
               draw(scalars()) if j > i else GaussianRational(0)
               for i in range(n) for j in range(n)]
    rows = rows_of(Matrix(n, n, entries))
    return Matrix.from_rows(rows[1:] + rows[:1])


@given(deficient_matrices())
def test_rank_and_rref_with_free_columns(m):
    assert_rank_rref_agree(m)


@pytest.mark.parametrize("rows", [
    [["0", "1", "2", "0", "1"], ["0", "2", "4", "1", "3"],
     ["0", "3", "6", "1", "4"]],
    [["0", "i", "1+i", "2"], ["0", "-1", "-1+i", "2i"],
     ["0", "0", "0", "1"]],
    [["0", "1", "i"], ["0", "2", "2i"], ["0", "0", "1"], ["0", "1", "1+i"],
     ["0", "3", "3i"]],
])
def test_rank_and_rref_of_fixed_deficient_matrices(rows):
    assert_rank_rref_agree(mat(rows))


@given(swapped_invertibles())
def test_inverse_with_row_swaps(m):
    assert_inverse_agrees(m)


@pytest.mark.parametrize("rows", [
    [["0", "i"], ["1", "0"]],
    [["i", "1", "0"], ["0", "0", "1"], ["1", "2", "3"]],
    [["0", "0", "1/2-i"], ["0", "3i", "1"], ["2+i", "1", "0"]],
])
def test_fixed_inverses_with_row_swaps(rows):
    assert_inverse_agrees(mat(rows))


def _complex_deficient_layouts():
    """Two assembled 2n matrices per layout, complex and rank-deficient."""
    found = []
    for theorem in ("thm2.1", "cor2.2", "thm3.1"):
        pairs = (gen_pair(GenSpec(theorem, 3 + seed % 3, 1, seed % 2 == 0,
                                  seed=seed))
                 for seed in range(60))
        complex_pairs = ((e, f) for e, f in pairs
                         if any(e._im) or any(f._im))
        found += [assemble_M(e, f, SHAPE_FOR_THEOREM[theorem])
                  for e, f in islice(complex_pairs, 2)]
    return found


@pytest.mark.parametrize("m", _complex_deficient_layouts())
def test_rref_and_inverse_of_assembled_layouts(m):
    # The identity and zero blocks give small rows that pivot first.
    assert any(m._im) and to_sympy(m).rank() < m.rows
    assert_rank_rref_agree(m)
    assert_inverse_agrees(m)
    assert_inverse_agrees(m + Matrix.identity(m.rows))


_P, _S = blockginv_matrices._P, blockginv_matrices._S


@pytest.mark.parametrize("m", [
    Matrix.from_rows([[_P, 0], [0, 1]]),
    Matrix.from_rows([[GaussianRational(_P - _S, 1)]]),
], ids=["diag(P, 1)", "P - S + i"])
def test_unlucky_prime_matrices_stay_exact(m):
    # Both determinants vanish mod P, so the certificate says nothing and
    # the exact rank decides.
    assert not blockginv_matrices._certainly_invertible(m)
    expected = from_sympy(to_sympy(m).inv())
    assert inverse(m) == expected
    result = drazin(m)
    assert result.index == 0
    assert result.drazin == expected
    assert result.spectral_idempotent.is_zero()


def _entry_bits(m: Matrix) -> int:
    return max(
        max(abs(q.numerator).bit_length(), q.denominator.bit_length())
        for x in rows_of(m) for y in x for q in (y.re, y.im)
    )


@pytest.fixture(scope="module")
def drazin_outputs():
    """T^D of the assembled 16x16 matrix for three n = 8 instances."""
    outputs = []
    for theorem, rank_f, seed in [("thm3.1", 4, 1), ("cor3.2", 4, 2),
                                  ("thm2.1", 7, 3)]:
        e, f = gen_pair(GenSpec(theorem, 8, rank_f, seed=seed))
        outputs.append(
            drazin(assemble_M(e, f, SHAPE_FOR_THEOREM[theorem])).drazin
        )
    return outputs


def test_drazin_outputs_have_large_entries(drazin_outputs):
    assert all(_entry_bits(d) >= 100 for d in drazin_outputs)


def test_product_of_drazin_outputs(drazin_outputs):
    for a, b in zip(drazin_outputs, drazin_outputs[1:] + drazin_outputs[:1]):
        assert a * b == from_sympy(to_sympy(a) * to_sympy(b))


def test_sums_and_scalar_multiples_of_drazin_outputs(drazin_outputs):
    for a, b in zip(drazin_outputs, drazin_outputs[1:] + drazin_outputs[:1]):
        assert_sums_agree(a, b)
        c = a[0, 0] - b[1, 2]
        assert c * a == from_sympy(to_sympy(a) * to_qq_i(c))


def test_rank_and_rref_of_drazin_outputs(drazin_outputs):
    for d in drazin_outputs:
        assert_rank_rref_agree(d)
        assert_rank_rref_agree(d.submatrix(0, 8, 0, 16))


def test_inverse_of_shifted_drazin_outputs(drazin_outputs):
    for d in drazin_outputs:
        assert_inverse_agrees(d + Matrix.identity(d.rows))

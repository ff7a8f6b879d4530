"""Dense matrices over Q(i) with exact, fraction-free kernels.

A Matrix is immutable and sized rows x cols; either dimension may be zero
(empty bases fall out of rank computations naturally). It is stored as
Gaussian-integer numerators over one shared denominator: ``_den`` is a
positive int, and ``_re`` and ``_im`` are row-major tuples of ints, so
entry (i, j) is (_re[k] + _im[k]*i) / _den with k = i*cols + j. ``_im`` is
None exactly when the matrix is real. The form is canonical: the gcd of
the denominator and all numerators is 1 (the zero matrix has denominator
1), so equal matrices have equal storage. Entries become GaussianRational
values only when read.

Sums and scalar multiples combine the numerator lists over one LCM
denominator, and products take integer dot products of the stored rows
and columns; each result is reduced by one gcd. ``rank`` (Bareiss forward
elimination) and ``rref`` (fraction-free Gauss-Jordan, FFGJ) start from
the numerator rows, each divided by its content. Every step divides
exactly by the previous pivot in Z[i]; a remainder raises ArithmeticError.
``rref`` divides by the last pivot once, at the end. Pivots are the first
nonzero entry in column order, so outputs are deterministic.

References: FLINT's fmpq_mat (https://flintlib.org/doc/fmpq_mat.html);
E. H. Bareiss, Math. Comp. 22 (1968); G. C. Nakos, P. R. Turner and
R. M. Williams, "Fraction-free algorithms for linear and polynomial
equations", SIGSAM Bull. 31 (1997).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul, sub
from typing import Callable, Iterable, Sequence

from .scalars import GaussianRational

_Entry = GaussianRational | int | Fraction


class ShapeMismatch(ValueError):
    """Two matrices whose shapes do not fit the requested operation."""

    def __init__(self, op: str, left: tuple[int, int], right: tuple[int, int]):
        super().__init__(
            f"{op}: shapes {left[0]}x{left[1]} and {right[0]}x{right[1]} do not fit"
        )
        self.left = left
        self.right = right


class SingularMatrix(ArithmeticError):
    """Inversion was asked of a matrix without full rank."""


def _coerce_entry(value: _Entry) -> GaussianRational:
    coerced = GaussianRational._coerce(value)
    if coerced is None:
        raise TypeError(f"cannot use {type(value).__name__} as a matrix entry")
    return coerced


def _matrix(rows: int, cols: int, den: int, re: Sequence[int],
            im: Sequence[int] | None) -> Matrix:
    """A Matrix on numerators over den > 0, brought to canonical form."""
    if im is not None and not any(im):
        im = None
    g = gcd(den, *re) if im is None else gcd(den, *re, *im)
    if g > 1:
        den //= g
        re = [a // g for a in re]
        if im is not None:
            im = [b // g for b in im]
    out = object.__new__(Matrix)
    out.rows, out.cols, out._den = rows, cols, den
    out._re = tuple(re)
    out._im = None if im is None else tuple(im)
    return out


def _lifted(m: Matrix, den: int) -> tuple[Sequence[int], Sequence[int]]:
    """m's numerators over den, a multiple of m._den (a real m: im zeros)."""
    s = den // m._den
    im = (0,) * len(m._re) if m._im is None else m._im
    if s == 1:
        return m._re, im
    return [a * s for a in m._re], [b * s for b in im]


def _entry(den: int, re: int, im: int) -> GaussianRational:
    return GaussianRational._new(Fraction(re, den), Fraction(im, den))


class Matrix:
    """An immutable rows x cols matrix over Q(i)."""

    __slots__ = ("rows", "cols", "_den", "_re", "_im")

    def __init__(self, rows: int, cols: int, entries: Sequence[_Entry]):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        parts = [(x.re, x.im) for x in map(_coerce_entry, entries)]
        # Over the LCM of lowest-term denominators the form is canonical.
        den = lcm(*(q.denominator for pair in parts for q in pair))
        re = tuple(a.numerator * (den // a.denominator) for a, _ in parts)
        im = tuple(b.numerator * (den // b.denominator) for _, b in parts)
        self.rows, self.cols, self._den, self._re = rows, cols, den, re
        self._im = im if any(im) else None

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[_Entry]]) -> Matrix:
        grid = [list(row) for row in rows]
        height = len(grid)
        width = len(grid[0]) if grid else 0
        if any(len(row) != width for row in grid):
            raise ValueError("rows have unequal lengths")
        return cls(height, width, [x for row in grid for x in row])

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return _matrix(n, n, 1, [int(i == j) for i in range(n)
                                 for j in range(n)], None)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Matrix:
        return _matrix(rows, cols, 1, [0] * (rows * cols), None)

    @classmethod
    def from_blocks(cls, grid: Sequence[Sequence[Matrix]]) -> Matrix:
        """Assemble a matrix from a rectangular grid of blocks.

        Block heights must agree along each grid row and widths along each
        grid column; zero-width and zero-height blocks are allowed.
        """
        if not grid or not grid[0]:
            raise ValueError("empty block grid")
        widths = [b.cols for b in grid[0]]
        for block_row in grid:
            if [b.cols for b in block_row] != widths:
                raise ShapeMismatch(
                    "from_blocks", (block_row[0].rows, block_row[0].cols),
                    (grid[0][0].rows, grid[0][0].cols),
                )
            height = block_row[0].rows
            for b in block_row:
                if b.rows != height:
                    raise ShapeMismatch(
                        "from_blocks", (height, b.cols), (b.rows, b.cols)
                    )
        den = lcm(*(b._den for block_row in grid for b in block_row))
        re: list[int] = []
        im: list[int] = []
        for block_row in grid:
            lifted = [(b.cols, *_lifted(b, den)) for b in block_row]
            for i in range(block_row[0].rows):
                for width, b_re, b_im in lifted:
                    re.extend(b_re[i * width:(i + 1) * width])
                    im.extend(b_im[i * width:(i + 1) * width])
        return _matrix(sum(row[0].rows for row in grid), sum(widths), den,
                       re, im)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key: tuple[int, int]) -> GaussianRational:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) outside {self.rows}x{self.cols}")
        k = i * self.cols + j
        return _entry(self._den, self._re[k],
                      0 if self._im is None else self._im[k])

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        lo, hi = i * self.cols, (i + 1) * self.cols
        im = repeat(0) if self._im is None else self._im[lo:hi]
        return tuple(map(_entry, repeat(self._den), self._re[lo:hi], im))

    def to_lists(self) -> list[list[GaussianRational]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def _take(self, rows: int, cols: int, indices: list[int]) -> Matrix:
        im = self._im
        return _matrix(rows, cols, self._den, [self._re[k] for k in indices],
                       None if im is None else [im[k] for k in indices])

    def submatrix(self, row_start: int, row_stop: int,
                  col_start: int, col_stop: int) -> Matrix:
        return self._take(
            row_stop - row_start, col_stop - col_start,
            [i * self.cols + j for i in range(row_start, row_stop)
             for j in range(col_start, col_stop)])

    def columns(self, picks: Sequence[int]) -> Matrix:
        """The listed columns, in the order given."""
        return self._take(self.rows, len(picks),
                          [i * self.cols + c for i in range(self.rows)
                           for c in picks])

    def transpose(self) -> Matrix:
        rows, cols = self.rows, self.cols
        return self._take(cols, rows, [i * cols + j for j in range(cols)
                                       for i in range(rows)])

    def is_zero(self) -> bool:
        return self._im is None and not any(self._re)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self._den == other._den and self._re == other._re
                and self._im == other._im)

    def __hash__(self):
        return hash((self.rows, self.cols, self._den, self._re, self._im))

    def _sum(self, other, op: Callable[[int, int], int], name: str):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeMismatch(name, self.shape, other.shape)
        den = lcm(self._den, other._den)
        a, b = _lifted(self, den)
        c, d = _lifted(other, den)
        return _matrix(self.rows, self.cols, den, list(map(op, a, c)),
                       list(map(op, b, d)))

    def __add__(self, other: Matrix) -> Matrix:
        return self._sum(other, add, "add")

    def __sub__(self, other: Matrix) -> Matrix:
        return self._sum(other, sub, "sub")

    def __neg__(self) -> Matrix:
        return _matrix(self.rows, self.cols, self._den,
                       [-a for a in self._re],
                       None if self._im is None else [-b for b in self._im])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ShapeMismatch("mul", self.shape, other.shape)
            return _product(self, other)
        return _scaled(self, other)

    def __rmul__(self, other):
        return _scaled(self, other)

    def __pow__(self, exponent: int) -> Matrix:
        if not self.is_square:
            raise ShapeMismatch("pow", self.shape, self.shape)
        if exponent < 0:
            raise ValueError("negative powers are not defined here")
        result = Matrix.identity(self.rows)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            if exponent > 1:
                base = base * base
            exponent >>= 1
        return result

    def __str__(self) -> str:
        return "[" + "; ".join(
            ", ".join(str(x) for x in self.row(i)) for i in range(self.rows)
        ) + "]"

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} {self})"


# In elimination, a Gaussian-integer row is a pair (re, im) of int lists,
# im None for a real matrix; a Gaussian-integer scalar is an (re, im) pair.
_ZiVector = tuple[list[int], list[int] | None]
_Zi = tuple[int, int]


def _scaled(matrix: Matrix, value) -> Matrix:
    """The matrix times a scalar (p + q*i)/r, read off a 1 x 1 Matrix."""
    scalar = GaussianRational._coerce(value)
    if scalar is None:
        return NotImplemented
    c = Matrix(1, 1, [scalar])
    (p,), (q,) = _lifted(c, c._den)
    a, b = _lifted(matrix, matrix._den)
    return _matrix(matrix.rows, matrix.cols, matrix._den * c._den,
                   [s * p - t * q for s, t in zip(a, b)],
                   [s * q + t * p for s, t in zip(a, b)])


def _product(left: Matrix, right: Matrix) -> Matrix:
    """Matrix product by integer dot products of the stored numerators.

    Row i of the left factor is (a + b*i)/s and column j of the right one
    is (c + d*i)/t with integer vectors a, b, c, d, so entry (i, j) is
    (a.c - b.d + (a.d + b.c)*i) / (s*t); one gcd reduces the result. A
    complex product takes three dot products per entry (Gauss's trick):
    a.c - b.d = (a+b).c - b.(c+d) and a.d + b.c = (a+b).c + a.(d-c).
    """
    n, width = left.cols, right.cols
    den = left._den * right._den
    a_rows = [left._re[i * n:(i + 1) * n] for i in range(left.rows)]
    c_cols = [right._re[j::width] for j in range(width)]
    if left._im is None and right._im is None:
        return _matrix(left.rows, width, den,
                       [sum(map(mul, a, c)) for a in a_rows for c in c_cols],
                       None)
    left_im = _lifted(left, left._den)[1]
    right_im = _lifted(right, right._den)[1]
    rows = [(a, b, list(map(add, a, b))) for a, b in zip(
        a_rows, (left_im[i * n:(i + 1) * n] for i in range(left.rows)))]
    cols = [(c, list(map(add, c, d)), list(map(sub, d, c))) for c, d in zip(
        c_cols, (right_im[j::width] for j in range(width)))]
    re: list[int] = []
    im: list[int] = []
    for a, b, a_plus_b in rows:
        for c, c_plus_d, d_minus_c in cols:
            k = sum(map(mul, a_plus_b, c))
            re.append(k - sum(map(mul, b, c_plus_d)))
            im.append(k + sum(map(mul, a, d_minus_c)))
    return _matrix(left.rows, width, den, re, im)


def _integer_rows(matrix: Matrix) -> list[_ZiVector]:
    """The numerator rows, each divided by its content (keeps row space)."""
    w, re, im = matrix.cols, matrix._re, matrix._im
    rows = []
    for i in range(matrix.rows):
        a = re[i * w:(i + 1) * w]
        b = None if im is None else im[i * w:(i + 1) * w]
        g = gcd(*a, *(b or ())) or 1
        rows.append(([x // g for x in a],
                     None if b is None else [y // g for y in b]))
    return rows


def _lead(vector: _ZiVector, col: int) -> _Zi:
    re, im = vector
    return re[col], (0 if im is None else im[col])


def _exact_quotients(values: list[int], d: int) -> list[int]:
    pairs = list(map(divmod, values, repeat(d)))
    if any(r for _, r in pairs):
        raise ArithmeticError(f"elimination step not divisible by {d}")
    return [q for q, _ in pairs]


def _divide(re: list[int], im: list[int] | None, d: _Zi) -> _ZiVector:
    """(re + im*i) / d entrywise; the division must be exact in Z[i].

    A non-real d is handled by multiplying with its conjugate and dividing
    by its norm.
    """
    dr, di = d
    if di:
        re, im = ([a * dr + b * di for a, b in zip(re, im)],
                  [b * dr - a * di for a, b in zip(re, im)])
        dr = dr * dr + di * di
    if dr == 1:
        return re, im
    return (_exact_quotients(re, dr),
            None if im is None else _exact_quotients(im, dr))


def _combine(p: _Zi, x: _ZiVector, c: _Zi, y: _ZiVector, d: _Zi,
             start: int) -> _ZiVector:
    """(p*x - c*y) / d on columns start.. of the vectors x and y.

    This is the Bareiss step: with d the previous pivot, every entry is a
    minor of the cleared matrix, so the division is exact.
    """
    pr, pi = p
    cr, ci = c
    xr, xi = x[0][start:], x[1]
    if xi is None:
        if not cr:
            return _divide([pr * a for a in xr], None, d)
        return _divide([pr * a - cr * b for a, b in zip(xr, y[0][start:])],
                       None, d)
    xi = xi[start:]
    if not (cr or ci):
        re = [pr * a - pi * b for a, b in zip(xr, xi)]
        im = [pr * b + pi * a for a, b in zip(xr, xi)]
    elif pi or ci:
        yr, yi = y[0][start:], y[1][start:]
        re = [pr * a - pi * b - cr * e + ci * f
              for a, b, e, f in zip(xr, xi, yr, yi)]
        im = [pr * b + pi * a - cr * f - ci * e
              for a, b, e, f in zip(xr, xi, yr, yi)]
    else:
        re = [pr * a - cr * e for a, e in zip(xr, y[0][start:])]
        im = [pr * b - cr * f for b, f in zip(xi, y[1][start:])]
    return _divide(re, im, d)


def rref(matrix: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form by fraction-free Gauss-Jordan elimination.

    Returns (R, rank, pivot_columns). Pivots are chosen as the first
    nonzero entry in column order. Each step divides exactly by the
    previous pivot, so every pivot ends up equal to the last one, d; R is
    the final Gaussian-integer rows over d, which normalizes the pivots to
    1. The output is canonical for the row space.
    """
    rows = _integer_rows(matrix)
    height, width = matrix.rows, matrix.cols
    pivot_cols: list[int] = []
    d = (1, 0)
    for col in range(width):
        top = len(pivot_cols)
        if top >= height:
            break
        selected = next((r for r in range(top, height)
                         if any(_lead(rows[r], col))), None)
        if selected is None:
            continue
        rows[top], rows[selected] = rows[selected], rows[top]
        pivot = rows[top]
        p = _lead(pivot, col)
        for r in range(height):
            if r != top:
                # Rows below the pivot are zero left of col; rows above
                # scale there, since the pivot row is zero left of col.
                start = 0 if r < top else col
                row = rows[r]
                re, im = _combine(p, row, _lead(row, col), pivot, d, start)
                rows[r] = (row[0][:start] + re,
                           None if im is None else row[1][:start] + im)
        d = p
        pivot_cols.append(col)
    found = len(pivot_cols)
    # R is rows / d: the rows times the conjugate of d, over its norm.
    dr, di = d
    out_re: list[int] = []
    out_im: list[int] = []
    for re, im in rows[:found]:
        if im is None:
            out_re += [a * dr for a in re]
        else:
            out_re += [a * dr + b * di for a, b in zip(re, im)]
            out_im += [b * dr - a * di for a, b in zip(re, im)]
    zeros = [0] * ((height - found) * width)
    return (_matrix(height, width, dr * dr + di * di, out_re + zeros,
                    None if matrix._im is None else out_im + zeros),
            found, tuple(pivot_cols))


def rank(matrix: Matrix) -> int:
    """Rank by Bareiss forward elimination (cheaper than full rref)."""
    rows = _integer_rows(matrix)
    found = 0
    d = (1, 0)
    for _ in range(matrix.cols):
        if not rows:
            break
        selected = next((r for r, row in enumerate(rows)
                         if any(_lead(row, 0))), None)
        if selected is None:
            rows = [(re[1:], None if im is None else im[1:])
                    for re, im in rows]
            continue
        rows[0], rows[selected] = rows[selected], rows[0]
        pivot = rows[0]
        p = _lead(pivot, 0)
        rows = [_combine(p, row, _lead(row, 0), pivot, d, 1)
                for row in rows[1:]]
        d = p
        found += 1
    return found


def inverse(matrix: Matrix) -> Matrix:
    """Exact inverse via elimination on [A | I]; SingularMatrix if rank < n.

    The augmented matrix always has full row rank thanks to the identity
    half, so singularity shows up as a pivot escaping into the right half
    rather than as a rank drop.
    """
    if not matrix.is_square:
        raise ShapeMismatch("inverse", matrix.shape, matrix.shape)
    n = matrix.rows
    augmented = Matrix.from_blocks([[matrix, Matrix.identity(n)]])
    reduced, _, pivot_cols = rref(augmented)
    if pivot_cols[:n] != tuple(range(n)):
        rank_left = sum(1 for c in pivot_cols if c < n)
        raise SingularMatrix(f"rank {rank_left} < {n}")
    return reduced.submatrix(0, n, n, 2 * n)


def kernel_basis(matrix: Matrix) -> Matrix:
    """Columns spanning the null space, one per free column of the rref.

    The result is cols x (cols - rank); for full column rank that is a
    cols x 0 matrix. Its rows at the pivot columns are minus the rref's
    free columns, and its rows at the free columns are the identity.
    """
    reduced, found, pivot_cols = rref(matrix)
    width = matrix.cols
    free_cols = [c for c in range(width) if c not in pivot_cols]
    k = len(free_cols)
    stacked = Matrix.from_blocks([
        [-reduced.submatrix(0, found, 0, width).columns(free_cols)],
        [Matrix.identity(k)],
    ])
    # Row r of the stack is row (pivot_cols + free_cols)[r] of the result.
    order = sorted(range(width), key=[*pivot_cols, *free_cols].__getitem__)
    return stacked._take(width, k, [r * k + j for r in order
                                    for j in range(k)])


def column_space_basis(matrix: Matrix) -> Matrix:
    """The pivot columns of the matrix itself, spanning its range."""
    return matrix.columns(rref(matrix)[2])

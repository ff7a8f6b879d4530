"""Dense matrices over Q(i) with exact, fraction-free kernels.

Matrices are immutable, stored row-major as GaussianRational entries, and
sized rows x cols where either dimension may be zero (empty bases fall out
of rank computations naturally).

The arithmetic kernels work on Gaussian integers (Python ints for the real
and imaginary parts) rather than on entries:

* The product clears each row of the left factor and each column of the
  right factor to Gaussian integers over one LCM denominator, takes plain
  integer dot products, and reduces each output entry once.
* ``rank`` and ``rref`` clear each row the same way, which keeps its row
  space. ``rank`` runs Bareiss forward elimination and ``rref`` runs
  fraction-free Gauss-Jordan elimination (FFGJ). Every step divides
  exactly by the previous pivot in Z[i]; a remainder raises
  ArithmeticError. ``rref`` normalizes its rows by the pivot once, at the
  end.

Pivots are always the first nonzero entry in column order, and every
result is exact and canonical, so outputs are deterministic.

References: E. H. Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22 (1968);
G. C. Nakos, P. R. Turner and R. M. Williams, "Fraction-free algorithms
for linear and polynomial equations", SIGSAM Bull. 31 (1997).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from .scalars import ZERO, GaussianRational

_Entry = GaussianRational | int | Fraction
_ZERO_Q = Fraction(0)


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


class Matrix:
    """An immutable rows x cols matrix of GaussianRational entries."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, entries: Sequence[GaussianRational]):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self._data = tuple(entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[_Entry]]) -> Matrix:
        grid = [[_coerce_entry(x) for x in row] for row in rows]
        height = len(grid)
        width = len(grid[0]) if grid else 0
        if any(len(row) != width for row in grid):
            raise ValueError("rows have unequal lengths")
        return cls(height, width, [x for row in grid for x in row])

    @classmethod
    def identity(cls, n: int) -> Matrix:
        one = GaussianRational(1)
        return cls(n, n, [one if i == j else ZERO for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Matrix:
        return cls(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def from_blocks(cls, grid: Sequence[Sequence[Matrix]]) -> Matrix:
        """Assemble a matrix from a rectangular grid of blocks.

        Block heights must agree along each grid row and widths along each
        grid column; zero-width and zero-height blocks are allowed.
        """
        if not grid or not grid[0]:
            raise ValueError("empty block grid")
        widths = [b.cols for b in grid[0]]
        data: list[GaussianRational] = []
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
            for i in range(height):
                for b in block_row:
                    data.extend(b._data[i * b.cols:(i + 1) * b.cols])
        return cls(sum(row[0].rows for row in grid), sum(widths), data)

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
        return self._data[i * self.cols + j]

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        return self._data[i * self.cols:(i + 1) * self.cols]

    def to_lists(self) -> list[list[GaussianRational]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def submatrix(self, row_start: int, row_stop: int,
                  col_start: int, col_stop: int) -> Matrix:
        data = []
        for i in range(row_start, row_stop):
            data.extend(self._data[i * self.cols + col_start:
                                   i * self.cols + col_stop])
        return Matrix(row_stop - row_start, col_stop - col_start, data)

    def transpose(self) -> Matrix:
        return Matrix(self.cols, self.rows,
                      [self._data[i * self.cols + j]
                       for j in range(self.cols) for i in range(self.rows)])

    def is_zero(self) -> bool:
        return not any(self._data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self._data == other._data)

    def __hash__(self):
        return hash((self.rows, self.cols, self._data))

    def __add__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeMismatch("add", self.shape, other.shape)
        return Matrix(self.rows, self.cols,
                      [a + b for a, b in zip(self._data, other._data)])

    def __sub__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeMismatch("sub", self.shape, other.shape)
        return Matrix(self.rows, self.cols,
                      [a - b for a, b in zip(self._data, other._data)])

    def __neg__(self) -> Matrix:
        return Matrix(self.rows, self.cols, [-a for a in self._data])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ShapeMismatch("mul", self.shape, other.shape)
            return _product(self, other)
        scalar = GaussianRational._coerce(other)
        if scalar is None:
            return NotImplemented
        return Matrix(self.rows, self.cols, [scalar * a for a in self._data])

    def __rmul__(self, other):
        scalar = GaussianRational._coerce(other)
        if scalar is None:
            return NotImplemented
        return Matrix(self.rows, self.cols, [scalar * a for a in self._data])

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


# A Gaussian-integer vector is a pair (re, im) of equally long int lists.
# In a product, im is None for a row or column without imaginary part; in
# elimination, it is None when the whole matrix is real. A Gaussian-integer
# scalar is a plain (re, im) pair of ints.
_ZiVector = tuple[list[int], list[int] | None]
_Zi = tuple[int, int]


def _cleared(entries: Sequence[GaussianRational]
             ) -> tuple[int, list[int], list[int] | None]:
    """Scale entries by the LCM of their denominators: (den, re, im)."""
    reals = [x.re for x in entries]
    imags = [x.im for x in entries]
    if not any(imags):
        den = lcm(*[q.denominator for q in reals])
        return den, [q.numerator * (den // q.denominator) for q in reals], None
    den = lcm(*[q.denominator for q in reals], *[q.denominator for q in imags])
    return (den, [q.numerator * (den // q.denominator) for q in reals],
            [q.numerator * (den // q.denominator) for q in imags])


def _scalar(re: int, im: int, den: int) -> GaussianRational:
    """(re + im*i) / den for a nonzero den, reduced once."""
    if not im:
        return GaussianRational._new(Fraction(re, den), _ZERO_Q) if re else ZERO
    return GaussianRational._new(Fraction(re, den), Fraction(im, den))


def _product(left: Matrix, right: Matrix) -> Matrix:
    """Matrix product by integer dot products over cleared rows and columns.

    Row i of the left factor is (a + b*i)/s and column j of the right one
    is (c + d*i)/t with integer vectors a, b, c, d, so entry (i, j) is
    (a.c - b.d + (a.d + b.c)*i) / (s*t), reduced once.
    """
    width = right.cols
    rows = [_cleared(left.row(i)) for i in range(left.rows)]
    cols = [_cleared(right._data[j::width]) for j in range(width)]
    data: list[GaussianRational] = []
    for s, a, b in rows:
        for t, c, d in cols:
            re = sum(map(mul, a, c))
            im = 0
            if b is not None:
                im = sum(map(mul, b, c))
                if d is not None:
                    re -= sum(map(mul, b, d))
            if d is not None:
                im += sum(map(mul, a, d))
            data.append(_scalar(re, im, s * t))
    return Matrix(left.rows, width, data)


def _integer_rows(matrix: Matrix) -> list[_ZiVector]:
    """Each row scaled to Gaussian integers; scaling keeps the row space."""
    cleared = [_cleared(matrix.row(i)) for i in range(matrix.rows)]
    if all(im is None for _, _, im in cleared):
        return [(re, None) for _, re, _ in cleared]
    zeros = [0] * matrix.cols
    return [(re, zeros if im is None else im) for _, re, im in cleared]


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
    nonzero entry in column order. The rows are cleared to Gaussian
    integers, and each step divides exactly by the previous pivot, so
    every pivot ends up equal to the last one; dividing by it once at the
    end normalizes the pivots to 1. The output is canonical for the row
    space.
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
    data: list[GaussianRational] = []
    dr, di = d
    norm = dr * dr + di * di
    for re, im in rows[:found]:
        if im is None:
            im = repeat(0)
        if di:
            data.extend(_scalar(a * dr + b * di, b * dr - a * di, norm)
                        for a, b in zip(re, im))
        else:
            data.extend(_scalar(a, b, dr) for a, b in zip(re, im))
    data.extend([ZERO] * ((height - found) * width))
    return Matrix(height, width, data), found, tuple(pivot_cols)


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
    cols x 0 matrix.
    """
    reduced, rank_found, pivot_cols = rref(matrix)
    width = matrix.cols
    free_cols = [c for c in range(width) if c not in pivot_cols]
    one = GaussianRational(1)
    columns = []
    for free in free_cols:
        vec = [ZERO] * width
        vec[free] = one
        for row_idx, pivot_col in enumerate(pivot_cols):
            vec[pivot_col] = -reduced[row_idx, free]
        columns.append(vec)
    data = [columns[j][i] for i in range(width) for j in range(len(free_cols))]
    return Matrix(width, len(free_cols), data)


def column_space_basis(matrix: Matrix) -> Matrix:
    """The pivot columns of the matrix itself, spanning its range."""
    _, rank_found, pivot_cols = rref(matrix)
    data = [matrix[i, c] for i in range(matrix.rows) for c in pivot_cols]
    return Matrix(matrix.rows, rank_found, data)

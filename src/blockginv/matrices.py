"""Dense matrices over Q(i) with exact, fraction-free kernels.

A Matrix is immutable and sized rows x cols; either dimension may be zero
(empty bases fall out of rank computations naturally). It is stored as
Gaussian-integer numerators over one shared denominator: ``_den`` is a
positive int, and ``_re`` and ``_im`` are row-major tuples of ints, so
entry (i, j) is (_re[k] + _im[k]*i) / _den with k = i*cols + j; a real
matrix has an all-zero ``_im``. The form is canonical: the gcd of the
denominator and all numerators is 1 (the zero matrix has denominator 1),
so equal matrices have equal storage, which only this module reads or
writes. Entries become GaussianRational values or text only when read.

Sums and scalar multiples combine the numerator lists over one LCM
denominator, and products take integer dot products of the stored rows
and columns; each result is reduced by one gcd. A product packs each row
of its right factor into one int (Kronecker substitution), in slots wide
enough for any entry of the result with its sign: 2n max|L| max|R|
bounds every dot product, for n inner terms and the largest numerator
parts of the two factors. An output row is then three sums of int
products, read back by shift and mask, with the same integers as entry
by entry dot products. ``rank``, ``rref`` and
``inverse`` share one fraction-free Gauss-Jordan kernel (FFGJ), which
starts from the numerator rows, each divided by its content. Every step
divides exactly by the previous pivot d in Z[i], with conj(d) folded into
the step for a non-real d; a remainder raises ArithmeticError. Rows are
compact: a pivoted column is d in its own row, so no row keeps it, and
``inverse`` runs in place, its identity columns taking the freed slots.
``rank`` counts ``rref``'s pivots; ``rref`` and ``inverse`` divide by the
last pivot once, at the end. FFGJ pivots each column on its smallest
candidate row by total bit length, the first on a tie, which keeps the
minors small (identity rows go first). No output depends on the order:
the rank, the rref, its pivot columns and the inverse are unique, storage
is canonical, and the fraction-free divisions are exact in any row order.

Modulo a fixed prime P = 1 (mod 4), i goes to S or to -S, S^2 = -1 mod P,
and one Gauss-Jordan routine, ``_gauss_jordan_mod``, eliminates either
image of the numerators; it packs each row into one int, so a step costs
one int product per row. ``rref`` skips FFGJ on a square matrix that
``_certainly_invertible``, that routine's forward elimination under
i -> S, proves invertible; no other function asks it. From ``_LIFT_FROM``
rows up ``inverse`` lifts p-adically (Dixon): the same routine inverts
both images, which recombine to C = N^-1 mod P for the Z[i] numerators
N, and each step takes Y = C R mod P and R' = (R - N Y) / P from R = I,
so after k steps X = sum P^j Y_j has N X = I mod P^k. Each real and
imaginary part of the inverse is read back from X as a fraction, over
one running denominator D (rational reconstruction), and the candidate
U / D is returned only when the one exact product N U = den D I holds;
no answer rests on P. When N is singular mod P, or lifting reaches the
Hadamard bound with nothing certified, FFGJ runs instead, so ``inverse``
decides nothing about rank mod P and a singular matrix raises from FFGJ.
Lifting costs in proportion to the inverse's size and FFGJ to that of
its minors, which grow far past it; but lifting has a fixed cost of two
eliminations mod P and two products a step, so it pays only from 9 x 9
up. FFGJ time over lifting time, on every ``inverse`` input of one round
of the benchmark's three workloads at seeds 0 and 1 (README): 0.68 at
6 x 6, 0.91 at 7, 1.01 at 8, 1.15 at 9, 1.21 at 10, 1.81 at 11, 1.66 at
12, 2.40 at 14 and 2.95 at 15 x 15.

References: FLINT's fmpq_mat (https://flintlib.org/doc/fmpq_mat.html);
E. H. Bareiss, Math. Comp. 22 (1968); G. C. Nakos, P. R. Turner and
R. M. Williams, "Fraction-free algorithms for linear and polynomial
equations", SIGSAM Bull. 31 (1997); J. D. Dixon, "Exact solution of
linear equations using p-adic expansions", Numer. Math. 40 (1982);
P. S. Wang, M. J. T. Guy and J. H. Davenport, "P-adic reconstruction of
rational numbers", SIGSAM Bull. 16 (1982).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, isqrt, lcm
from operator import add, lshift, mul, or_, sub
from typing import Callable, Iterable, Sequence

from .scalars import GaussianRational, scalar_text

_Entry = GaussianRational | int | Fraction


class ShapeMismatch(ValueError):
    """Two matrices whose shapes do not fit the requested operation."""

    def __init__(self, op: str, left: tuple[int, int], right: tuple[int, int]):
        super().__init__(
            f"{op}: shapes {left[0]}x{left[1]} and {right[0]}x{right[1]} do not fit"
        )

    def __reduce__(self):
        # Rebuilt from the formatted message, past __init__.
        return BaseException.__new__, (type(self), *self.args), self.__dict__


def _require_square(matrix: Matrix, op: str) -> None:
    if not matrix.is_square:
        raise ShapeMismatch(op, matrix.shape, matrix.shape)


class SingularMatrix(ArithmeticError):
    """Inversion was asked of a matrix without full rank."""


def _entry_parts(value: _Entry) -> tuple[int, int, int, int]:
    x = GaussianRational._coerce(value)
    if x is None:
        raise TypeError(f"cannot use {type(value).__name__} as a matrix entry")
    return x.re.numerator, x.re.denominator, x.im.numerator, x.im.denominator


def _matrix(rows: int, cols: int, den: int, re: Sequence[int],
            im: Sequence[int]) -> Matrix:
    """A Matrix on numerators over den > 0, brought to canonical form."""
    g = gcd(den, *re, *im)
    if g > 1:
        den //= g
        re = [a // g for a in re]
        im = [b // g for b in im]
    out = object.__new__(Matrix)
    out.rows, out.cols, out._den = rows, cols, den
    out._re, out._im = tuple(re), tuple(im)
    return out


def _lifted(m: Matrix, den: int) -> tuple[Sequence[int], Sequence[int]]:
    """m's numerators over den, a multiple of m._den."""
    s = den // m._den
    if s == 1:
        return m._re, m._im
    return [a * s for a in m._re], [b * s for b in m._im]


def _entry(den: int, re: int, im: int) -> GaussianRational:
    return GaussianRational._new(Fraction(re, den), Fraction(im, den))


class Matrix:
    """An immutable rows x cols matrix over Q(i)."""

    __slots__ = ("rows", "cols", "_den", "_re", "_im")

    def __init__(self, rows: int, cols: int, entries: Sequence[_Entry]):
        # from_parts rejects a bad size or count before any entry is read.
        if min(rows, cols) >= 0 and len(entries) == rows * cols:
            entries = list(map(_entry_parts, entries))
        m = Matrix.from_parts(rows, cols, entries)
        self.rows, self.cols, self._den, self._re, self._im = (
            rows, cols, m._den, m._re, m._im)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[_Entry]]) -> Matrix:
        grid = [list(row) for row in rows]
        height = len(grid)
        width = len(grid[0]) if grid else 0
        if any(len(row) != width for row in grid):
            raise ValueError("rows have unequal lengths")
        return cls(height, width, [x for row in grid for x in row])

    @classmethod
    def from_parts(cls, rows: int, cols: int,
                   parts: Sequence[tuple[int, int, int, int]]) -> Matrix:
        """Row-major entries given as integer parts (re, re_den, im, im_den).

        Each entry is re/re_den + (im/im_den)i with nonzero denominators, in
        any terms (see ``scalars.scalar_parts``). The numerators go over the
        LCM of the denominators, and ``_matrix``'s gcd step reduces them.
        """
        if rows < 0 or cols < 0:
            raise ValueError(f"negative size {rows}x{cols}")
        if len(parts) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(parts)}")
        den = lcm(*(p[1] for p in parts), *(p[3] for p in parts))
        if not den:
            k = next(k for k, p in enumerate(parts) if not p[1] * p[3])
            raise ValueError(f"entry {divmod(k, cols)} has a zero denominator")
        return _matrix(rows, cols, den,
                       [a * (den // b) for a, b, _, _ in parts],
                       [c * (den // d) for _, _, c, d in parts])

    @classmethod
    def identity(cls, n: int) -> Matrix:
        if n < 0:
            raise ValueError(f"negative size {n}x{n}")
        re = [0] * (n * n)
        re[::n + 1] = [1] * n
        return _matrix(n, n, 1, re, [0] * (n * n))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Matrix:
        if rows < 0 or cols < 0:
            raise ValueError(f"negative size {rows}x{cols}")
        zero = [0] * (rows * cols)
        return _matrix(rows, cols, 1, zero, zero)

    @classmethod
    def from_blocks(cls, grid: Sequence[Sequence[Matrix]]) -> Matrix:
        """Assemble a matrix from a rectangular grid of blocks.

        Block heights must agree along each grid row and widths along each
        grid column; zero-width and zero-height blocks are allowed.
        """
        if not grid or not all(grid):
            raise ValueError("empty block grid")
        widths = [b.cols for b in grid[0]]
        for block_row in grid:
            if [b.cols for b in block_row] != widths:
                raise ShapeMismatch("from_blocks", block_row[0].shape,
                                    grid[0][0].shape)
            height = block_row[0].rows
            for b in block_row:
                if b.rows != height:
                    raise ShapeMismatch("from_blocks", (height, b.cols), b.shape)
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
        return _entry(self._den, self._re[k], self._im[k])

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside {self.rows}x{self.cols}")
        lo, hi = i * self.cols, (i + 1) * self.cols
        return tuple(map(_entry, repeat(self._den), self._re[lo:hi],
                         self._im[lo:hi]))

    def text_rows(self) -> list[list[str]]:
        """Each row's entries as scalar strings, formatted from storage."""
        w, den = self.cols, repeat(self._den)
        if self.is_zero():
            return [["0"] * w for _ in range(self.rows)]
        texts = list(map(scalar_text, self._re, den, self._im, den))
        return [texts[i * w:(i + 1) * w] for i in range(self.rows)]

    def _take(self, rows: int, cols: int, indices: list[int]) -> Matrix:
        return _matrix(rows, cols, self._den, [self._re[k] for k in indices],
                       [self._im[k] for k in indices])

    def submatrix(self, row_start: int, row_stop: int,
                  col_start: int, col_stop: int) -> Matrix:
        return self.pick(range(row_start, row_stop),
                         range(col_start, col_stop))

    def pick(self, rows: Sequence[int], cols: Sequence[int]) -> Matrix:
        """The entries at the listed rows and columns, in the order given."""
        if (any(not 0 <= i < self.rows for i in rows)
                or any(not 0 <= j < self.cols for j in cols)):
            raise IndexError(f"pick outside {self.rows}x{self.cols}")
        return self._take(len(rows), len(cols),
                          [i * self.cols + j for i in rows for j in cols])

    def columns(self, picks: Sequence[int]) -> Matrix:
        """The listed columns, in the order given."""
        return self.pick(range(self.rows), picks)

    def transpose(self) -> Matrix:
        rows, cols = self.rows, self.cols
        return self._take(cols, rows, [i * cols + j for j in range(cols)
                                       for i in range(rows)])

    def is_zero(self) -> bool:
        return not any(self._re) and not any(self._im)

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
                       [-a for a in self._re], [-b for b in self._im])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ShapeMismatch("mul", self.shape, other.shape)
            return _product(self, other)
        return _scaled(self, other)

    def __rmul__(self, other):
        return _scaled(self, other)

    def __pow__(self, exponent: int) -> Matrix:
        _require_square(self, "pow")
        if exponent < 0:
            raise ValueError("negative powers are not defined here")
        if exponent == 0:
            return Matrix.identity(self.rows)
        result = None
        base = self
        while exponent:
            if exponent & 1:
                result = base if result is None else result * base
            if exponent > 1:
                base = base * base
            exponent >>= 1
        return result

    def __str__(self) -> str:
        return "[" + "; ".join(map(", ".join, self.text_rows())) + "]"

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} {self})"


# In elimination, a Gaussian-integer row is a pair (re, im) of int lists
# and a Gaussian-integer scalar is an (re, im) pair of ints.
_ZiVector = tuple[list[int], list[int]]
_Zi = tuple[int, int]


def _scaled(matrix: Matrix, value) -> Matrix:
    """The matrix times a scalar p/r + (q/s)i = (p*s + q*r*i) / (r*s)."""
    try:
        p, r, q, s = _entry_parts(value)
    except TypeError:
        return NotImplemented
    p, q, pairs = p * s, q * r, list(zip(matrix._re, matrix._im))
    return _matrix(matrix.rows, matrix.cols, matrix._den * r * s,
                   [x * p - y * q for x, y in pairs],
                   [x * q + y * p for x, y in pairs])


def _packed_rows(values: Sequence[int], width: int,
                 shifts: range) -> list[int]:
    """Each row of a row-major list as one int, entry j shifted by shifts[j]."""
    return [sum(map(lshift, values[lo:lo + width], shifts))
            for lo in range(0, len(values), width)] if width else []


def _product(left: Matrix, right: Matrix) -> Matrix:
    """Matrix product by integer dot products of the stored numerators.

    Row i of the left factor is (a + b*i)/s and column j of the right one
    is (c + d*i)/t with integer vectors a, b, c, d, so entry (i, j) is
    (a.c - b.d + (a.d + b.c)*i) / (s*t); one gcd reduces the result. Each
    entry takes three dot products (Gauss's trick):
    a.c - b.d = (a+b).c - b.(c+d) and a.d + b.c = (a+b).c + a.(d-c).

    Each row of c and of d is packed into one int, entry j in slot j
    (Kronecker substitution), so an output row is three sums of int
    products and packing is linear: c+d and d-c pack as sums. Every
    dot product above is at most B = 2n max|L| max|R|, for n inner terms
    and the largest numerator parts of each factor, so a slot of
    B.bit_length() + 1 bits holds it with its sign. Adding 2^(slot-1) to
    every slot makes them all nonnegative, and shift and mask read each
    entry back.
    """
    n, width, height = left.cols, right.cols, left.rows
    big = 2 * n * max(map(abs, left._re + left._im), default=0) * max(
        map(abs, right._re + right._im), default=0)
    slot = big.bit_length() + 1
    shifts = range(0, slot * width, slot)
    c = _packed_rows(right._re, width, shifts)
    d = _packed_rows(right._im, width, shifts)
    c_plus_d, d_minus_c = list(map(add, c, d)), list(map(sub, d, c))
    half, mask = 1 << (slot - 1), (1 << slot) - 1
    offset = sum(map(lshift, repeat(half, width), shifts))
    re: list[int] = []
    im: list[int] = []
    for i in range(height):
        a, b = left._re[i * n:(i + 1) * n], left._im[i * n:(i + 1) * n]
        k = sum(map(mul, map(add, a, b), c))
        real = k - sum(map(mul, b, c_plus_d)) + offset
        imag = k + sum(map(mul, a, d_minus_c)) + offset
        re += [(real >> s & mask) - half for s in shifts]
        im += [(imag >> s & mask) - half for s in shifts]
    return _matrix(height, width, left._den * right._den, re, im)


def _placed_columns(left: Matrix, left_cols: Sequence[int], right: Matrix,
                    right_cols: Sequence[int]) -> Matrix:
    """The matrix with column t of left at left_cols[t], and so for right.

    The two column lists partition the result's columns. Both blocks are
    written over their LCM denominator into one numerator list.
    """
    height, width = left.rows, left.cols + right.cols
    den = lcm(left._den, right._den)
    re, im = [0] * (height * width), [0] * (height * width)
    for block, where in ((left, left_cols), (right, right_cols)):
        b_re, b_im = _lifted(block, den)
        w = block.cols
        for t, col in enumerate(where):
            re[col::width] = b_re[t::w]
            im[col::width] = b_im[t::w]
    return _matrix(height, width, den, re, im)


def _single_entry_lines(matrix: Matrix) -> tuple[int, int]:
    """How many rows, and how many columns, hold exactly one nonzero."""
    h, w = matrix.rows, matrix.cols
    nonzero = list(map(bool, map(or_, matrix._re, matrix._im)))
    in_rows = [sum(nonzero[i * w:(i + 1) * w]) for i in range(h)]
    in_cols = [sum(nonzero[j::w]) for j in range(w)]
    return in_rows.count(1), in_cols.count(1)


def _integer_rows(matrix: Matrix) -> tuple[list[_ZiVector], list[int]]:
    """The numerator rows, each divided by its content, and the contents."""
    w, re, im = matrix.cols, matrix._re, matrix._im
    rows, contents = [], []
    for i in range(matrix.rows):
        a, b = re[i * w:(i + 1) * w], im[i * w:(i + 1) * w]
        g = gcd(*a, *b) or 1
        rows.append(([x // g for x in a], [y // g for y in b]))
        contents.append(g)
    return rows, contents


def _times_conj(vector: _ZiVector, d: _Zi) -> tuple[list[int], list[int]]:
    """The vector times conj(d): over the norm |d|^2, the vector over d."""
    (re, im), (dr, di) = vector, d
    return ([a * dr + b * di for a, b in zip(re, im)],
            [b * dr - a * di for a, b in zip(re, im)])


def _exact_quotients(values: list[int], d: int) -> list[int]:
    """The values over d, or ArithmeticError if any leaves a remainder.

    Floor remainders all share d's sign, so they sum to zero, that is
    sum(values) == d * sum(quotients), only when every one is zero.
    """
    quotients = [v // d for v in values]
    if sum(values) != d * sum(quotients):
        raise ArithmeticError(f"elimination step not divisible by {d}")
    return quotients


def _combine(p: _Zi, x: _ZiVector, c: _Zi, y: _ZiVector,
             d: _Zi) -> _ZiVector:
    """(p*x - c*y) / d for vectors x and y.

    This is the Bareiss step: with d the previous pivot, every entry is a
    minor of the cleared matrix, so the division is exact, and checked. A
    non-real d is folded in: p and c are taken times conj(d), and the
    division is by the real norm |d|^2.
    """
    (pr, pi), (cr, ci), (dr, di) = p, c, d
    if di:
        (pr, cr), (pi, ci) = _times_conj(([pr, cr], [pi, ci]), d)
        dr = dr * dr + di * di
    (xr, xi), (yr, yi) = x, y
    if not (cr or ci):
        re = [pr * a - pi * b for a, b in zip(xr, xi)]
        im = [pr * b + pi * a for a, b in zip(xr, xi)]
    else:
        re = [pr * a - pi * b - cr * e + ci * f
              for a, b, e, f in zip(xr, xi, yr, yi)]
        im = [pr * b + pi * a - cr * f - ci * e
              for a, b, e, f in zip(xr, xi, yr, yi)]
    if dr == 1:
        return re, im
    return _exact_quotients(re, dr), _exact_quotients(im, dr)


def _pop(vector: _ZiVector, slot: int, tail: _Zi | None) -> _Zi:
    """Remove and return the vector's entry at slot; append tail if given."""
    re, im = vector
    out = re.pop(slot), im.pop(slot)
    if tail:
        re.append(tail[0])
        im.append(tail[1])
    return out


def _bits(vector: _ZiVector) -> int:
    """A row's size: the bit lengths of its real and imaginary parts, summed."""
    re, im = vector
    return sum(map(int.bit_length, re)) + sum(map(int.bit_length, im))


def _gauss_jordan(rows: list[_ZiVector], width: int,
                  invert: bool) -> tuple[list[int], _Zi, list[int]]:
    """FFGJ on compact rows, in place: (pivot_cols, last pivot, order).

    order[i] is the input index of what is now row i. Each step divides
    exactly by the previous pivot d, so a pivoted column is d in its own
    row and 0 in every other one, and no row keeps it. To invert, the rows
    are those of [N | I] with the identity half kept out in the same way
    until the step that pivots on its row appends it.
    """
    height = len(rows)
    order = list(range(height))
    pivot_cols: list[int] = []
    d = (1, 0)
    for col in range(width):
        top = len(pivot_cols)
        slot = col - top
        candidates = [r for r in range(top, height)
                      if rows[r][0][slot] or rows[r][1][slot]]
        if not candidates:
            continue
        selected = min(candidates, key=lambda r: _bits(rows[r]))
        rows[top], rows[selected] = rows[selected], rows[top]
        order[top], order[selected] = order[selected], order[top]
        leads = [_pop(row, slot, (d if r == top else (0, 0)) if invert
                      else None) for r, row in enumerate(rows)]
        pivot, p = rows[top], leads[top]
        for r, row in enumerate(rows):
            if r != top:
                rows[r] = _combine(p, row, leads[r], pivot, d)
        d = p
        pivot_cols.append(col)
    return pivot_cols, d, order


# P = 1 (mod 4) is prime and S^2 = -1 (mod P), so i -> S and i -> -S map
# Z[i] onto F_P, and the pair of them is an isomorphism Z[i]/P -> F_P^2:
# a + bS and a - bS give back a and b through 1/2 and 1/(2S) mod P.
_P, _S = 2305843009213693921, 583529827753931384
_HALF, _HALF_OVER_S = (_P + 1) // 2, pow(2 * _S, -1, _P)

# ``inverse`` lifts from this many rows up; the measurements behind it are in
# the module docstring.
_LIFT_FROM = 9


def _gauss_jordan_mod(matrix: Matrix, s: int,
                      invert: bool) -> list[int] | None:
    """Gauss-Jordan mod P on a square matrix's numerators, with i -> s.

    None when a column has no pivot, which proves nothing over Q(i): the
    determinant can vanish mod an unlucky P. Without invert only the rows
    below each pivot are reduced, a forward elimination that only says
    every pivot exists, and the result is []. To invert, every row is
    reduced, and the result is the inverse, row-major.

    Rows are compact and packed: row r is one int of w-bit slots, and
    each step shifts out its pivoted slot and adds f_r times the negated
    pivot row, f_r being its lead, one int product per row. The pivot row
    alone is read back, reduced mod P and divided by its lead. A slot
    starts below P and grows by at most (P - 1) P in each of at most n - 1
    steps, so it stays below n P^2, within w = 2 log P + log n bits, and
    only the leads, the pivot rows and the result are reduced. To invert,
    the step that pivots on a row appends that row's identity column in
    the top slot (1/lead in the pivot row, minus the cleared multiple
    elsewhere), so the t-th pivot row ends as row t of the inverse with
    its slot j in column order[j]; the slots are read back in column
    order.
    """
    n = matrix.rows
    w = 2 * _P.bit_length() + n.bit_length()
    mask, shifts = (1 << w) - 1, range(0, w * n, w)
    residues = [(a + b * s) % _P for a, b in zip(matrix._re, matrix._im)]
    pending = _packed_rows(residues, n, shifts)
    done: list[int] = []
    index, order = list(range(n)), []
    while pending:
        leads = [(row & mask) % _P for row in pending]
        lead = next(filter(None, leads), 0)
        if not lead:
            return None
        k = leads.index(lead)
        top = pending.pop(k)
        del leads[k]
        if not (pending or invert):
            return []
        inv = pow(lead, -1, _P)
        pivot = [(top >> t & mask) * inv % _P
                 for t in shifts[1:n if invert else len(leads) + 1]]
        if invert:
            pivot.append(inv)
        negated = sum(map(lshift, [_P - y for y in pivot], shifts))
        pending = [(row >> w) + f * negated for row, f in zip(pending, leads)]
        if invert:
            done = [(row >> w) + (row & mask) % _P * negated for row in done]
            done.append(sum(map(lshift, pivot, shifts)))
            order.append(index.pop(k))
    slots = [shifts[j] for j in sorted(range(n), key=order.__getitem__)]
    return [(row >> t & mask) % _P for row in done for t in slots]


def _certainly_invertible(matrix: Matrix) -> bool:
    """True only if the square matrix is invertible; False proves nothing.

    i -> S is a ring map, so if elimination mod P finds every pivot, the
    numerators' determinant is nonzero.
    """
    return _gauss_jordan_mod(matrix, _S, False) is not None


def rref(matrix: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form by fraction-free Gauss-Jordan elimination.

    Returns (R, rank, pivot_columns); R = I when the certificate proves a
    square matrix invertible. Otherwise each column pivots on the smallest
    candidate row (``_bits``), which only sets the cost: R is unique. Each
    pivot ends equal to the last, d, and R is the final rows over d.
    """
    height, width = matrix.rows, matrix.cols
    if matrix.is_square and _certainly_invertible(matrix):
        return Matrix.identity(height), height, tuple(range(height))
    rows = _integer_rows(matrix)[0]
    pivot_cols, d, _ = _gauss_jordan(rows, width, False)
    free = [c for c in range(width) if c not in pivot_cols]
    norm = d[0] * d[0] + d[1] * d[1]
    re, im = [0] * (height * width), [0] * (height * width)
    for t, (row, pivot_col) in enumerate(zip(rows, pivot_cols)):
        re[t * width + pivot_col] = norm
        for col, a, b in zip(free, *_times_conj(row, d)):
            re[t * width + col], im[t * width + col] = a, b
    return (_matrix(height, width, norm, re, im), len(pivot_cols),
            tuple(pivot_cols))


def rank(matrix: Matrix) -> int:
    """Rank: the number of pivots ``rref`` finds, full if it certifies."""
    return rref(matrix)[1]


def _inverse_mod_p(matrix: Matrix) -> tuple[list[int], list[int]] | None:
    """N^-1 mod P for the numerators N, as row-major residue lists of its
    real and imaginary parts; None when N is singular mod P."""
    images = [_gauss_jordan_mod(matrix, s, True) for s in (_S, _P - _S)]
    if None in images:
        return None
    u, v = images
    return ([(x + y) * _HALF % _P for x, y in zip(u, v)],
            [(x - y) * _HALF_OVER_S % _P for x, y in zip(u, v)])


def _rational_parts(values: list[int], modulus: int,
                    scale: int) -> tuple[int, list[int]] | None:
    """One denominator D > 0 and numerators a with a / D = scale * value,
    each value read mod modulus as a fraction with both parts at most
    sqrt(modulus / 2); None when some value is not such a fraction.

    Each value is first multiplied by the D found so far, so a value whose
    denominator divides D needs no reconstruction: its numerator is the
    symmetric residue. Otherwise the half extended Euclid of Wang, Guy and
    Davenport gives it as a / b, and D and the numerators found so far
    grow by the factor b.
    """
    half = isqrt(modulus >> 1)
    den, factor, found = 1, scale % modulus, []
    for x in values:
        y = x * factor % modulus
        if y > half:
            if y >= modulus - half:
                y -= modulus
            else:
                r0, r1, t0, t1 = modulus, y, 0, 1
                while r1 > half:
                    q = r0 // r1
                    r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
                if not t1 or abs(t1) * den > half:
                    return None
                y, b = (r1, t1) if t1 > 0 else (-r1, -t1)
                den, factor = den * b, factor * b % modulus
                found = [a * b for a in found]
        found.append(y)
    return den, found


def _lifted_inverse(matrix: Matrix) -> Matrix | None:
    """The inverse by Dixon's p-adic lifting, or None to fall back to FFGJ.

    With C = N^-1 mod P and R_0 = I, each step takes Y_j = C R_j mod P and
    R_(j+1) = (R_j - N Y_j) / P, an exact division, so X = sum P^j Y_j
    has N X = I mod P^k after k steps. After each step every real and
    imaginary part of den X, den being the matrix's denominator, is read
    as a fraction (``_rational_parts``), giving the candidate U / D, and it
    is returned only when N U = den D I holds exactly. That product is the
    certificate. Past P^k > 2 (den H)^2, with H = prod |row|^2 >= |det N|^2
    by Hadamard's bound, the fractions are unique and must certify, so
    lifting stops there and returns None, as it does when N is singular
    mod P.
    """
    n = matrix.rows
    start = _inverse_mod_p(matrix)
    if start is None:
        return None
    re, im, den = matrix._re, matrix._im, matrix._den
    numerators, c = _matrix(n, n, 1, re, im), _matrix(n, n, 1, *start)
    bound = 1
    for i in range(0, n * n, n):
        bound *= sum(a * a + b * b for a, b in zip(re[i:i + n], im[i:i + n]))
    limit = 2 * (den * bound) ** 2
    target = Matrix.identity(n)
    residual = target
    x_re, x_im = [0] * (n * n), [0] * (n * n)
    modulus = 1
    while modulus <= limit:
        y = _product(c, residual)
        y_re = [a % _P for a in y._re]
        y_im = [b % _P for b in y._im]
        x_re = [a + modulus * b for a, b in zip(x_re, y_re)]
        x_im = [a + modulus * b for a, b in zip(x_im, y_im)]
        modulus *= _P
        found = _rational_parts(x_re + x_im, modulus, den)
        if found is not None:
            d, parts = found
            u = _matrix(n, n, 1, parts[:n * n], parts[n * n:])
            if _product(numerators, u) == d * den * target:
                return _matrix(n, n, d, u._re, u._im)
        ny = _product(numerators, _matrix(n, n, 1, y_re, y_im))
        residual = _matrix(
            n, n, 1, [(a - b) // _P for a, b in zip(residual._re, ny._re)],
            [(a - b) // _P for a, b in zip(residual._im, ny._im)])
    return None


def inverse(matrix: Matrix) -> Matrix:
    """Exact inverse; SingularMatrix if rank < n.

    From ``_LIFT_FROM`` rows up by certified p-adic lifting, and otherwise,
    or when lifting abstains, by in-place Gauss-Jordan (FFGJ).
    """
    _require_square(matrix, "inverse")
    n = matrix.rows
    if n >= _LIFT_FROM:
        lifted = _lifted_inverse(matrix)
        if lifted is not None:
            return lifted
    rows, contents = _integer_rows(matrix)
    pivot_cols, d, order = _gauss_jordan(rows, n, True)
    if len(pivot_cols) < n:
        raise SingularMatrix(f"rank {len(pivot_cols)} < {n}")
    # Slot k holds column order[k] of d N'^-1, for N' the rows divided by
    # their contents g; (diag(g) N' / den)^-1 scales column j by den / g_j.
    scale = lcm(*contents)
    factors = [matrix._den * (scale // contents[j]) for j in order]
    re, im = [0] * (n * n), [0] * (n * n)
    for i, row in enumerate(rows):
        for j, f, a, b in zip(order, factors, *_times_conj(row, d)):
            re[i * n + j], im[i * n + j] = a * f, b * f
    return _matrix(n, n, (d[0] * d[0] + d[1] * d[1]) * scale, re, im)


def _null_basis(reduced: Matrix, pivot_cols: Sequence[int],
                free_cols: Sequence[int]) -> Matrix:
    """The null-space basis that an rref gives, from its free columns.

    ``reduced`` is the rref's nonzero rows at its free columns. The basis
    has one column per free column: its rows at the pivot columns are
    minus ``reduced`` and its rows at the free columns are the identity.
    Both go straight into one numerator list over ``reduced``'s
    denominator, one gcd pass in all, because a condition report builds
    one for every F of index <= 1 (``ginverse._spectral_factors``).
    """
    w, den = len(free_cols), reduced._den
    size = (len(pivot_cols) + w) * w
    re, im = [0] * size, [0] * size
    for t, col in enumerate(pivot_cols):
        re[col * w:(col + 1) * w] = [-a for a in reduced._re[t * w:(t + 1) * w]]
        im[col * w:(col + 1) * w] = [-b for b in reduced._im[t * w:(t + 1) * w]]
    for s, col in enumerate(free_cols):
        re[col * w + s] = den
    return _matrix(len(pivot_cols) + w, w, den, re, im)


def kernel_basis(matrix: Matrix) -> Matrix:
    """Columns spanning the null space, one per free column of the rref.

    The result is cols x (cols - rank); for full column rank that is a
    cols x 0 matrix (see ``_null_basis``).
    """
    reduced, found, pivot_cols = rref(matrix)
    free_cols = [c for c in range(matrix.cols) if c not in pivot_cols]
    return _null_basis(reduced.pick(range(found), free_cols), pivot_cols,
                       free_cols)


def column_space_basis(matrix: Matrix) -> Matrix:
    """The pivot columns of the matrix itself, spanning its range."""
    return matrix.columns(rref(matrix)[2])

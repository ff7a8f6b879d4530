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
and columns; each result is reduced by one gcd. An h x n times n x w
product with h n w at most ``_PLAIN_UP_TO`` takes its dot products one
entry at a time. A larger one packs each row of its right factor into
one int (Kronecker substitution), in slots wide enough for any entry of
the result with its sign: 2n max|L| max|R| bounds every dot product, for
n inner terms and the largest numerator parts of the two factors. An
output row is then three sums of int products, read back by shift and
mask, with the same integers as the plain dot products; the packing's
fixed cost pays only past the cutoff, which README times.
``rank``, ``rref`` and
``inverse`` share one fraction-free Gauss-Jordan kernel (FFGJ), which
starts from the numerator rows, each divided by its content. Every step
divides exactly by the previous pivot d in Z[i], with conj(d) folded into
the step for a non-real d; a remainder raises ArithmeticError. Rows are
compact: a pivoted column is d in its own row, so no row keeps it, and
``inverse`` runs in place, its identity columns taking the freed slots.
Before any elimination, ``rref`` and ``inverse`` pivot exactly on every
unit row, a row with one nonzero numerator (``_unit_rows``): only the
other rows and columns are left, unit rows that appear there are taken
out the same way, and what is left at last is eliminated by the routes
below, chosen by its own size; ``inverse`` adds one product per round.
``rank`` counts ``rref``'s pivots; ``rref`` and ``inverse`` divide by the
last pivot once, at the end. FFGJ pivots each column on its smallest
candidate row by total bit length, the first on a tie, which keeps the
minors small. No output depends on the order: the rank, the rref, its
pivot columns and the inverse are unique, storage is canonical, and the
fraction-free divisions are exact in any row order.

Modulo a fixed prime P = 1 (mod 4), i goes to S or to -S, S^2 = -1 mod P,
and one Gauss-Jordan routine, ``_gauss_jordan_mod``, eliminates either
image of the numerators; it packs each row into one int, so a step costs
one int product per row. Below ``_LIFT_FROM`` rows ``rref`` skips FFGJ
on a square matrix that ``_certainly_invertible``, that routine's forward
elimination under i -> S, proves invertible; no other function asks it.
From ``_LIFT_FROM`` rows up ``inverse`` and ``rref`` lift p-adically
(Dixon) through one loop, ``_lifted_solve``, for N X = B with N and B
Gaussian-integer numerators: the two images of N^-1 mod P recombine to
C = N^-1 mod P, and each step takes Y = C R mod P and R' = (R - N Y) / P
from R = B, so after k steps X = sum P^j Y_j has N X = B mod P^k. Each
real and imaginary part of X is read back as a fraction, over one running
denominator D (rational reconstruction), and the caller takes a candidate
U / D only after an exact product; no answer rests on P. ``inverse``
takes B = den I and checks N U = D B. ``rref`` of M runs the routine's
Gauss-Jordan under i -> S, which passes over a column with no pivot and
gives the pivot rows I and columns J, r of each, with the image of N^-1
for N = M[I, J]; it solves for B = M[I, F], F the free columns, and
checks that U is zero at every free column left of its row's pivot and
that M[:, J] U = D M[:, F] over all rows. That is enough in three steps:
det N != 0 mod P gives rank M >= r; the product puts every column of M in
the span of its columns J, so rank M <= r and M = M[:, J] [I | X] has the
row space of [I | X]; and the zeros make [I | X] a reduced echelon form,
unique for its row space, so it is the rref. With every column pivoted,
R is I over zero rows at once. When N is singular mod P under either
image, no column pivots mod P, lifting reaches the Hadamard bound with
nothing certified, or a check fails, FFGJ runs instead, so neither
function decides anything about rank mod P, and a singular matrix raises
from FFGJ in ``inverse``. Lifting costs in proportion to its output and
FFGJ to its minors, which grow far past it; but lifting has a fixed cost
of the eliminations mod P and two products a step, so it pays only from
9 rows up. README times both routes, size by size, on every ``inverse``
and ``rref`` input of one round of the benchmark's three workloads.

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
from typing import Callable, Iterable, Iterator, Sequence

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

        Every grid row has as many blocks as the first, block heights must
        agree along each grid row and widths along each grid column;
        zero-width and zero-height blocks are allowed. A mismatch names the
        first block that differs and the block it must match.
        """
        if not grid or not all(grid):
            raise ValueError("empty block grid")
        top = grid[0]
        widths = [b.cols for b in top]
        for i, block_row in enumerate(grid):
            if len(block_row) != len(top):
                raise ValueError(f"from_blocks: grid rows 0 and {i} have "
                                 f"{len(top)} and {len(block_row)} blocks")
            for b, above in zip(block_row, top):
                if b.cols != above.cols:
                    raise ShapeMismatch("from_blocks", b.shape, above.shape)
                if b.rows != block_row[0].rows:
                    raise ShapeMismatch("from_blocks", b.shape,
                                        block_row[0].shape)
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

    def first_ratio(self, other: Matrix) -> GaussianRational | None:
        """self[k] / other[k] at the first row-major position k where both
        entries are nonzero, read from storage; None when there is none."""
        if self.shape != other.shape:
            raise ShapeMismatch("first_ratio", self.shape, other.shape)
        a, b, c, d = self._re, self._im, other._re, other._im
        for k in range(len(a)):
            if (a[k] or b[k]) and (c[k] or d[k]):
                # (a + bi)/s over (c + di)/t is (a + bi)(c - di) t over
                # (c^2 + d^2) s.
                t = other._den
                return _entry((c[k] * c[k] + d[k] * d[k]) * self._den,
                              (a[k] * c[k] + b[k] * d[k]) * t,
                              (b[k] * c[k] - a[k] * d[k]) * t)
        return None

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


# ``_product`` packs only past this many terms h n w; README gives the
# measurements behind it.
_PLAIN_UP_TO = 48


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
    entry back. Up to ``_PLAIN_UP_TO`` terms h n w, entry (i, j) is the
    four plain dot products a.c - b.d and a.d + b.c instead, the same
    integers without the packing's fixed cost; n = 0 stays packed.
    """
    n, width, height = left.cols, right.cols, left.rows
    if n and height * n * width <= _PLAIN_UP_TO:
        columns = [(right._re[j::width], right._im[j::width])
                   for j in range(width)]
        re, im = [], []
        for lo in range(0, height * n, n):
            a, b = left._re[lo:lo + n], left._im[lo:lo + n]
            for c, d in columns:
                re.append(sum(map(mul, a, c)) - sum(map(mul, b, d)))
                im.append(sum(map(mul, a, d)) + sum(map(mul, b, c)))
        return _matrix(height, width, left._den * right._den, re, im)
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


def _unit_rows(matrix: Matrix) -> dict[int, int]:
    """The unit rows: each column that holds the one nonzero numerator of
    some row, mapped to the first such row.

    A unit row has w - 1 zero real parts, so only a row with that many is
    read further, and a matrix with fewer in all has no unit row.
    """
    w, re, im = matrix.cols, matrix._re, matrix._im
    units: dict[int, int] = {}
    if not w or re.count(0) < w - 1:
        return units
    for i, lo in enumerate(range(0, len(re), w)):
        if re[lo:lo + w].count(0) >= w - 1:
            # Past w - 1 zeros, the one nonzero is the sum of the line.
            line = list(map(or_, re[lo:lo + w], im[lo:lo + w]))
            if line.count(0) == w - 1:
                units.setdefault(line.index(sum(line)), i)
    return units


def _rest(matrix: Matrix, units: dict[int, int]) -> tuple[list[int],
                                                           list[int], Matrix]:
    """(rows, cols, M[rows, cols]) for the rows and columns outside the
    unit rows and their columns."""
    w, taken = matrix.cols, set(units.values())
    rows = [i for i in range(matrix.rows) if i not in taken]
    cols = [j for j in range(w) if j not in units]
    return rows, cols, matrix._take(len(rows), len(cols),
                                    [i * w + j for i in rows for j in cols])


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

# ``rref`` and ``inverse`` lift from this many rows up; README gives the
# measurements behind it.
_LIFT_FROM = 9


def _gauss_jordan_mod(
        matrix: Matrix, s: int, invert: bool
) -> bool | tuple[list[int], list[int], list[int]]:
    """Gauss-Jordan mod P on a matrix's numerators, with i -> s.

    Without invert, on a square matrix, only the rows below each pivot are
    reduced, a forward elimination that says only whether every pivot
    exists: the result is False at the first column with no pivot, which
    proves nothing over Q(i), since the determinant can vanish mod an
    unlucky P, and True otherwise. To invert, on any shape, every row is
    reduced and a column with no pivot is passed over. The result is
    (rows, cols, inverse): the input row and the column of each pivot in
    turn, and, row-major, the inverse of N = M[rows, cols] mod P for the
    numerators M.

    Rows are compact and packed: row r is one int of w-bit slots, and
    each step shifts out its column's slot and adds f_r times the negated
    pivot row, f_r being its lead, one int product per row. The pivot row
    alone is read back, reduced mod P and divided by its lead. A slot
    starts below P and grows by at most (P - 1) P in each of at most h - 1
    steps for h rows, so it stays below h P^2, within w = 2 log P + log h
    bits, and only the leads, the pivot rows and the result are reduced.
    To invert, the step that pivots on a row appends that row's identity
    column in the top slot (1/lead in the pivot row, minus the cleared
    multiple elsewhere), and a column with no pivot is shifted out of
    every row. Only pivot rows are ever added to a pivot row, so the t-th
    pivot row ends as row t of N^-1, its slot j in the column of the j-th
    pivot row.
    """
    height, width = matrix.rows, matrix.cols
    w = 2 * _P.bit_length() + height.bit_length()
    mask, shifts = (1 << w) - 1, range(0, w * width, w)
    residues = [(a + b * s) % _P for a, b in zip(matrix._re, matrix._im)]
    pending = _packed_rows(residues, width, shifts)
    done: list[int] = []
    index, order, pivot_cols = list(range(height)), [], []
    length = width
    for col in range(width):
        leads = [(row & mask) % _P for row in pending]
        lead = next(filter(None, leads), 0)
        if not lead:
            if not invert:
                return False
            pending = [row >> w for row in pending]
            done = [row >> w for row in done]
            length -= 1
            continue
        k = leads.index(lead)
        top = pending.pop(k)
        del leads[k]
        if not (pending or invert):
            return True
        inv = pow(lead, -1, _P)
        pivot = [(top >> t & mask) * inv % _P for t in shifts[1:length]]
        if invert:
            pivot.append(inv)
            order.append(index.pop(k))
            pivot_cols.append(col)
        else:
            length -= 1
        negated = sum(map(lshift, [_P - y for y in pivot], shifts))
        pending = [(row >> w) + f * negated for row, f in zip(pending, leads)]
        if invert:
            done = [(row >> w) + (row & mask) % _P * negated for row in done]
            done.append(sum(map(lshift, pivot, shifts)))
    if not invert:
        return True
    slots = shifts[:len(pivot_cols)]
    return order, pivot_cols, [(row >> t & mask) % _P for row in done
                               for t in slots]


def _certainly_invertible(matrix: Matrix) -> bool:
    """True only if the square matrix is invertible; False proves nothing.

    i -> S is a ring map, so if elimination mod P finds every pivot, the
    numerators' determinant is nonzero.
    """
    return _gauss_jordan_mod(matrix, _S, False)


def _echelon_form(height: int, width: int, pivot_cols: Sequence[int],
                  den: int, rows: Iterable[_ZiVector]) -> Matrix:
    """The height x width rref over den: den at pivot t's column in row t,
    and row t's free columns from the t-th of rows; zero below."""
    free = [c for c in range(width) if c not in pivot_cols]
    re, im = [0] * (height * width), [0] * (height * width)
    for t, (pivot_col, (row_re, row_im)) in enumerate(zip(pivot_cols, rows)):
        re[t * width + pivot_col] = den
        for col, a, b in zip(free, row_re, row_im):
            re[t * width + col], im[t * width + col] = a, b
    return _matrix(height, width, den, re, im)


def _full_column_rank(height: int, width: int
                      ) -> tuple[Matrix, int, tuple[int, ...]]:
    """The rref of a height x width matrix of rank width: I over zero
    rows."""
    pivot_cols = tuple(range(width))
    return (_echelon_form(height, width, pivot_cols, 1, repeat(((), ()))),
            width, pivot_cols)


def _lifted_rref(matrix: Matrix
                 ) -> tuple[Matrix, int, tuple[int, ...]] | None:
    """The rref by lifting, or None to fall back to FFGJ.

    ``rref`` sets out the route and why its two checks suffice. With every
    column pivoted mod P, M has full column rank and R is I over zero
    rows. The numerators stand in for M: both checks are free of den.
    """
    height, width = matrix.rows, matrix.cols
    pivot_rows, pivot_cols, image = _gauss_jordan_mod(matrix, _S, True)
    r = len(pivot_cols)
    if r == width:
        return _full_column_rank(height, width)
    if not r:
        return None
    free = [c for c in range(width) if c not in pivot_cols]
    f = len(free)
    numerators = _matrix(height, width, 1, matrix._re, matrix._im)
    left, right = numerators.columns(pivot_cols), numerators.columns(free)
    core = numerators.pick(pivot_rows, pivot_cols)
    solutions = _lifted_solve(core, numerators.pick(pivot_rows, free),
                              _inverse_mod_p(core, image))
    for u, d in solutions:
        rows = [(u._re[t * f:(t + 1) * f], u._im[t * f:(t + 1) * f])
                for t in range(r)]
        if any(any(a[:col - t]) or any(b[:col - t])
               for t, (col, (a, b)) in enumerate(zip(pivot_cols, rows))):
            continue
        if _product(left, u) == d * right:
            return (_echelon_form(height, width, pivot_cols, d, rows), r,
                    tuple(pivot_cols))
    return None


def _merged_rref(matrix: Matrix, units: dict[int, int], free: list[int],
                 found: tuple[Matrix, int, tuple[int, ...]]
                 ) -> tuple[Matrix, int, tuple[int, ...]]:
    """The rref of a matrix with unit rows, from ``found``, the rref of
    M[other rows, free]: e_c at each unit column c, and each row of the
    rest's rref at its pivot, in pivot order."""
    reduced, _, pivots = found
    f = len(free)
    others = [j for j in range(f) if j not in pivots]
    rows = {free[p]: ([reduced._re[s * f + j] for j in others],
                      [reduced._im[s * f + j] for j in others])
            for s, p in enumerate(pivots)}
    pivot_cols = sorted([*units, *rows])
    empty = ((), ())
    return (_echelon_form(matrix.rows, matrix.cols, pivot_cols, reduced._den,
                          [rows.get(c, empty) for c in pivot_cols]),
            len(pivot_cols), tuple(pivot_cols))


def rref(matrix: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form: (R, rank, pivot_columns).

    A unit row, one nonzero entry at column c, is e_c up to a factor, so
    it pivots exactly: R holds e_c for each such column c, the first unit
    row there standing for the others. The rest, M[other rows, other
    columns], takes ``rref`` again, and its rref, placed back at its own
    columns, merges with the e_c in pivot order (``_merged_rref``). No
    arithmetic touches a unit row, and the rank is the count of unit
    columns plus the rank of the rest.

    A matrix with no unit row is eliminated, and with no rows or no
    columns has rank 0 at once. From ``_LIFT_FROM`` rows up R comes by
    lifting (``_lifted_rref``): Gauss-Jordan mod P gives r pivots at rows
    I and columns J, and lifting solves M[I, J] X = M[I, F] for the free
    columns F. R = [I | X] is returned only when X is zero at every free
    column left of its row's pivot and M[:, J] X = M[:, F] holds over all
    rows, and R is then the rref: (1) det M[I, J] != 0 mod P gives
    rank M >= r; (2) the product gives rank M <= r, and M = M[:, J] R has
    the row space of R; (3) the zeros make R a reduced echelon form,
    unique for its row space. Below the cutoff R = I when the certificate
    proves a square matrix invertible. Otherwise, or when lifting
    abstains, fraction-free Gauss-Jordan (FFGJ) pivots each column on the
    smallest candidate row (``_bits``), which only sets the cost: R is
    unique. Each pivot ends equal to the last, d, and R is the final rows
    over d.
    """
    units = _unit_rows(matrix)
    if units:
        if len(units) < matrix.cols:
            _, free, rest = _rest(matrix, units)
            found = rref(rest)
            if found[1] < len(free):
                return _merged_rref(matrix, units, free, found)
        return _full_column_rank(matrix.rows, matrix.cols)
    height, width = matrix.rows, matrix.cols
    if not (height and width):
        return Matrix.zeros(height, width), 0, ()
    if height >= _LIFT_FROM:
        lifted = _lifted_rref(matrix)
        if lifted is not None:
            return lifted
    elif matrix.is_square and _certainly_invertible(matrix):
        return Matrix.identity(height), height, tuple(range(height))
    rows = _integer_rows(matrix)[0]
    pivot_cols, d, _ = _gauss_jordan(rows, width, False)
    norm = d[0] * d[0] + d[1] * d[1]
    reduced = _echelon_form(height, width, pivot_cols, norm,
                            (_times_conj(row, d) for row in rows))
    return reduced, len(pivot_cols), tuple(pivot_cols)


def rank(matrix: Matrix) -> int:
    """Rank: the number of pivots ``rref`` finds."""
    return rref(matrix)[1]


def _inverse_image(matrix: Matrix, s: int) -> list[int] | None:
    """The square numerators' inverse mod P under i -> s, row-major; None
    when they are singular mod P."""
    rows, cols, inv = _gauss_jordan_mod(matrix, s, True)
    n = matrix.rows
    if len(cols) < n:
        return None
    # Slot k holds the column of the k-th pivot row, rows[k].
    slots = sorted(range(n), key=rows.__getitem__)
    return [inv[i + k] for i in range(0, n * n, n) for k in slots]


def _inverse_mod_p(matrix: Matrix, image: list[int] | None = None
                   ) -> tuple[list[int], list[int]] | None:
    """N^-1 mod P for the numerators N, as row-major residue lists of its
    real and imaginary parts; None when N is singular mod P. ``image`` is
    N^-1 under i -> S when the caller has it already."""
    u = _inverse_image(matrix, _S) if image is None else image
    v = None if u is None else _inverse_image(matrix, _P - _S)
    if v is None:
        return None
    return ([(x + y) * _HALF % _P for x, y in zip(u, v)],
            [(x - y) * _HALF_OVER_S % _P for x, y in zip(u, v)])


def _rational_parts(values: list[int],
                    modulus: int) -> tuple[int, list[int]] | None:
    """One denominator D > 0 and numerators a with a / D = value, each
    value read mod modulus as a fraction with both parts at most
    sqrt(modulus / 2); None when some value is not such a fraction.

    Each value is first multiplied by the D found so far, so a value whose
    denominator divides D needs no reconstruction: its numerator is the
    symmetric residue. Otherwise the half extended Euclid of Wang, Guy and
    Davenport gives it as a / b, and D and the numerators found so far
    grow by the factor b. D stays at most sqrt(modulus / 2), below the
    modulus.
    """
    half = isqrt(modulus >> 1)
    den, found = 1, []
    for x in values:
        y = x * den % modulus
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
                den *= b
                found = [a * b for a in found]
        found.append(y)
    return den, found


def _lifted_solve(numerators: Matrix, rhs: Matrix,
                  start: tuple[list[int], list[int]] | None
                  ) -> Iterator[tuple[Matrix, int]]:
    """Candidates for X = N^-1 B by Dixon's p-adic lifting.

    N is square and B has as many rows, both Gaussian-integer matrices
    over denominator 1, and start is C = N^-1 mod P (``_inverse_mod_p``),
    None when N is singular mod P, and then nothing is yielded. From
    R_0 = B each step takes Y_j = C R_j mod P and R_(j+1) =
    (R_j - N Y_j) / P, an exact division, so X = sum P^j Y_j has
    N X = B mod P^k after k steps. After each step every real and
    imaginary part of X is read as a fraction (``_rational_parts``), and a
    full reading is yielded as (U, D), the numerators of X over D. A
    candidate proves nothing: the caller certifies it by an exact
    product. By Cramer's rule an entry of X is a / det N, and
    expanding a along its column of B gives |a| <= L prod |row of N|, for
    L the largest column sum of |Re| + |Im| over B, while |det N| <=
    prod |row of N|. The parts of a conj(det N) / |det N|^2 are then
    fractions with both terms at most H = max(1, L) prod |row of N|^2, so
    past P^k > 2 H^2 every part of X reads back uniquely, and lifting
    stops there.
    """
    if start is None:
        return
    n, m = rhs.rows, rhs.cols
    c = _matrix(n, n, 1, *start)
    re, im = numerators._re, numerators._im
    bound = max(1, max((sum(map(abs, rhs._re[j::m]))
                        + sum(map(abs, rhs._im[j::m])) for j in range(m)),
                       default=0))
    for i in range(0, n * n, n):
        bound *= sum(a * a + b * b for a, b in zip(re[i:i + n], im[i:i + n]))
    limit = 2 * bound ** 2
    residual = rhs
    x_re, x_im = [0] * (n * m), [0] * (n * m)
    modulus = 1
    while modulus <= limit:
        y = _product(c, residual)
        y_re = [a % _P for a in y._re]
        y_im = [b % _P for b in y._im]
        x_re = [a + modulus * b for a, b in zip(x_re, y_re)]
        x_im = [a + modulus * b for a, b in zip(x_im, y_im)]
        modulus *= _P
        found = _rational_parts(x_re + x_im, modulus)
        if found is not None:
            d, parts = found
            yield _matrix(n, m, 1, parts[:n * m], parts[n * m:]), d
        ny = _product(numerators, _matrix(n, m, 1, y_re, y_im))
        residual = _matrix(
            n, m, 1, [(a - b) // _P for a, b in zip(residual._re, ny._re)],
            [(a - b) // _P for a, b in zip(residual._im, ny._im)])


def _lifted_inverse(matrix: Matrix) -> Matrix | None:
    """The inverse by lifting with B = den I, or None to fall back to FFGJ.

    For the numerators N = den M, M^-1 = N^-1 B, so ``_lifted_solve``
    reads M^-1 as U / D, and U / D is returned only when the exact
    product N U = D B certifies it.
    """
    n = matrix.rows
    numerators = _matrix(n, n, 1, matrix._re, matrix._im)
    target = Matrix.identity(n) * matrix._den
    for u, d in _lifted_solve(numerators, target,
                              _inverse_mod_p(numerators)):
        if _product(numerators, u) == d * target:
            return _matrix(n, n, d, u._re, u._im)
    return None


def inverse(matrix: Matrix) -> Matrix:
    """Exact inverse; SingularMatrix if rank < n (``_peeled_inverse``)."""
    _require_square(matrix, "inverse")
    found = _peeled_inverse(matrix)
    if isinstance(found, int):
        raise SingularMatrix(f"rank {found} < {matrix.rows}")
    return found


def _peeled_inverse(matrix: Matrix) -> Matrix | int:
    """The inverse, or the rank of a singular matrix.

    Unit row i, with its one nonzero a_i at column c_i, takes no
    elimination. With K the columns c_i, Y = M[rest rows, rest cols] and
    X = M[rest rows, K], M^-1 is 1 / a_i at [c_i, i], Y^-1 at [rest cols,
    rest rows], -(Y^-1 X)[:, i] / a_i at [rest cols, i] and zero at [K,
    rest rows]: one product on Y^-1, which comes from this function
    again. A second unit row at some c_i leaves a zero row in Y, and the
    rank is |K| plus that of Y. A matrix with no unit row is eliminated
    (``_eliminated_inverse``).
    """
    units = _unit_rows(matrix)
    n, rows, cols = matrix.rows, (), ()
    if len(units) < n:
        if not units:
            return _eliminated_inverse(matrix)
        rows, cols, y = _rest(matrix, units)
        y_inv = _peeled_inverse(y)
        if isinstance(y_inv, int):
            return len(units) + y_inv
        z = _product(y_inv, matrix._take(len(rows), len(units), [
            i * n + c for i in rows for c in units]))
    # 1 / a_i = den conj(p_i) / |p_i|^2 for a_i's numerator p_i = a + bi,
    # and Y^-1 and Z = Y^-1 X have numerators over y_den and z_den.
    re, im, k, m = matrix._re, matrix._im, len(units), len(rows)
    parts = [(c, i, re[i * n + c], im[i * n + c]) for c, i in units.items()]
    norms = [a * a + b * b for _, _, a, b in parts]
    y_den, z_den = (y_inv._den, z._den) if rows else (1, 1)
    den = lcm(y_den, *(z_den * norm for norm in norms))
    out_re, out_im = [0] * (n * n), [0] * (n * n)
    for s, j in enumerate(cols):
        g = den // y_den
        for r, i in enumerate(rows):
            out_re[j * n + i] = y_inv._re[s * m + r] * g
            out_im[j * n + i] = y_inv._im[s * m + r] * g
    for t, ((c, i, a, b), norm) in enumerate(zip(parts, norms)):
        f = matrix._den * (den // (z_den * norm))
        out_re[c * n + i], out_im[c * n + i] = a * f * z_den, -b * f * z_den
        # -(x + wi)(a - bi) f for Z[s, t] = (x + wi) / z_den.
        for s, j in enumerate(cols):
            x, w = z._re[s * k + t], z._im[s * k + t]
            out_re[j * n + i] = -(x * a + w * b) * f
            out_im[j * n + i] = (x * b - w * a) * f
    return _matrix(n, n, den, out_re, out_im)


def _eliminated_inverse(matrix: Matrix) -> Matrix | int:
    """``inverse`` by elimination alone, or the rank of a singular matrix.

    From ``_LIFT_FROM`` rows up by certified p-adic lifting, and otherwise,
    or when lifting abstains, by in-place Gauss-Jordan (FFGJ).
    """
    n = matrix.rows
    if n >= _LIFT_FROM:
        lifted = _lifted_inverse(matrix)
        if lifted is not None:
            return lifted
    rows, contents = _integer_rows(matrix)
    pivot_cols, d, order = _gauss_jordan(rows, n, True)
    if len(pivot_cols) < n:
        return len(pivot_cols)
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

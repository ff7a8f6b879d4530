"""Drazin and group inverses by Cline's successive full-rank factorizations.

A square T of rank r factors as T = B1 C1, with B1 the r pivot columns of T
and C1 the nonzero rows of its reduced row echelon form. The r x r matrix
M1 = C1 B1 factors again as B2 C2, and so on: the chain M_j = C_j B_j
shrinks until some M = M_k is invertible or zero. Since
rank(T^(j+1)) = rank(M_j), an invertible M_k means T has index k, and

    T^D = B1 ... Bk M^-(k+1) Ck ... C1;

a zero M_k means T is nilpotent of index k + 1, and T^D = 0. Every step
after the first works on the shrinking M_j, never on a power of T. The
exact rref of M_j decides, full rank or zero, so no limits and no
numerics enter (``rref`` proves full rank mod a prime when it can). The
group inverse is the k <= 1 case.

The factors are never composed. Cline's identity for T = B C,
(T^D)^p = B ((C B)^D)^(p+1) C, peels one step at a time: starting from
X = M^-(k+1), each step, last first, sets X = B_j X C_j. Each C_j is the
identity on its pivot columns, so no product of the chain or of T^D
multiplies by those columns. T^pi = I - T T^D is formed only when read.
The chain runs on T^T when that has more single-entry rows than T, since
``rref`` and ``inverse`` pivot on such a row with no elimination.

References: R. E. Cline, "Inverses of rank invariant powers of a matrix",
SIAM J. Numer. Anal. 5 (1968); S. L. Campbell and C. D. Meyer,
Generalized Inverses of Linear Transformations, ch. 7.
"""

from __future__ import annotations

from functools import lru_cache

from .matrices import (Matrix, ShapeMismatch, _null_basis, _placed_columns,
                       _require_square, _single_entry_lines, inverse, rref)


class NotGroupInvertible(ArithmeticError):
    """A group inverse was required but the Drazin index exceeds 1.

    ``index`` is the Drazin index of the offending matrix when known;
    ``condition`` names the violated equivalence condition, and ``report``
    holds the rule's condition report, when the refusal comes from a
    closed-form rule rather than direct computation; both are None
    otherwise.
    """

    def __init__(self, message: str, index: int | None = None,
                 condition: str | None = None, report=None):
        super().__init__(message)
        self.index, self.condition, self.report = index, condition, report


class DrazinResult:
    """The Drazin inverse T^D of T, its index, and T^pi = I - T T^D.

    ``DrazinResult(d, k, pi)`` holds all three. Given T as ``matrix`` in
    place of pi, it forms T^pi on first read, so a caller that reads only
    T^D and the index never pays for it. Equality compares all three.

    ``drazin`` also keeps, in the private ``_step``, the first step of
    its chain when the index is 1: (pivots, free, R, flipped), with R the
    rref's free columns, of T or of T^T when ``flipped``. Then the null
    space of T, or of T^T, is read off R (see ``_spectral_factors``)
    without a second elimination. Only this module reads it.
    """

    __slots__ = ("drazin", "index", "_pi", "_matrix", "_step")

    def __init__(self, drazin: Matrix, index: int,
                 spectral_idempotent: Matrix | None = None,
                 matrix: Matrix | None = None, step: tuple | None = None):
        self.drazin, self.index = drazin, index
        self._pi, self._matrix, self._step = spectral_idempotent, matrix, step

    @property
    def spectral_idempotent(self) -> Matrix:
        if self._pi is None:
            t = self._matrix
            self._pi = Matrix.identity(t.rows) - t * self.drazin
        return self._pi

    def __eq__(self, other) -> bool:
        if not isinstance(other, DrazinResult):
            return NotImplemented
        return (self.drazin == other.drazin and self.index == other.index
                and self.spectral_idempotent == other.spectral_idempotent)

    def __repr__(self) -> str:
        return f"DrazinResult({self.drazin!r}, {self.index})"


def _chain(matrix: Matrix) -> tuple[list[tuple], Matrix | None, bool]:
    """Cline's chain for a square T: (steps, core, flipped).

    The chain runs on T^T, and ``flipped`` is True, when T has more
    single-entry columns than single-entry rows; the index is the same. A
    single-entry row is a unit row, which ``rref`` and ``inverse`` pivot
    on exactly, before any elimination, so an identity block of n rows or
    columns leaves n rows to eliminate, not 2n.

    Each step factors the current matrix, T or T^T first, as B C and
    records (B, pivots, free, C[:, free]), with B the pivot columns and C
    the nonzero rref rows. C is the identity on its pivot columns, so the
    next matrix, C B = B[pivots, :] + C[:, free] B[free, :], is B's pivot
    rows plus one product with its free rows. The chain ends on an
    invertible matrix, the core, or on a zero one, recorded as a rank-0
    step with core None. Either way T has index len(steps).
    """
    single_rows, single_cols = _single_entry_lines(matrix)
    flipped = single_cols > single_rows
    steps, core = [], matrix.transpose() if flipped else matrix
    while True:
        reduced, r, pivots = rref(core)
        if r == core.rows:
            return steps, core, flipped
        free = [c for c in range(core.cols) if c not in pivots]
        free_part = reduced.pick(range(r), free)
        columns = core.columns(pivots)
        steps.append((columns, pivots, free, free_part))
        if r == 0:
            return steps, None, flipped
        core = (columns.pick(pivots, range(r))
                + free_part * columns.pick(free, range(r)))


def drazin_index(matrix: Matrix) -> int:
    """Smallest k >= 0 with rank(T^k) = rank(T^(k+1)); 0 for invertible T."""
    _require_square(matrix, "drazin_index")
    return len(_chain(matrix)[0])


@lru_cache(maxsize=4096)
def drazin(matrix: Matrix) -> DrazinResult:
    """Drazin inverse by Cline's chain of full-rank factorizations.

    With index k and an invertible core M, X = M^-(k+1), a power of M's
    one inverse. The k steps, last first, then set X = B X C, which is
    Cline's identity for that step; at k = 0 the core is T itself and
    X = T^-1 takes no product. C is the identity on its pivot columns, so
    B X fills those columns of B X C and only the free columns take a
    product with C. T^pi = I - T T^D is formed on its first read,
    from T, which the cache holds anyway as its key. An invertible T has
    index 0, T^D = T^-1 and T^pi = 0; a nilpotent T has T^D = 0 and
    T^pi = I. Results are cached; matrices are immutable. When the chain
    ran on T^T (see ``_chain``), its T^D is transposed back.
    """
    _require_square(matrix, "drazin")
    n = matrix.rows
    steps, core, flip = _chain(matrix)
    k = len(steps)
    step = (*steps[0][1:], flip) if k == 1 else None
    if core is None:
        return DrazinResult(Matrix.zeros(n, n), k, Matrix.identity(n),
                            step=step)
    x = inverse(core) ** (k + 1)
    for left, pivots, free, free_part in reversed(steps):
        bx = left * x
        x = _placed_columns(bx, pivots, bx * free_part, free)
    if flip:
        x = x.transpose()
    return DrazinResult(x, k, None if k else Matrix.zeros(n, n), matrix, step)


def _spectral_factors(result: DrazinResult
                      ) -> tuple[Matrix, Matrix, list[int] | None]:
    """(G, H, rows) with T^pi = G H and H G = I, for ``drazin``'s T of
    index <= 1; G is the identity at ``rows``, None for a flipped step.

    G is n x q and H is q x n, for q = n - rank(T). At index 1, range(T^pi)
    is the null space of T and its row space the left null space, and the
    first step's rref gives a basis K of one of them with the identity on
    its free rows (``_null_basis``). Unflipped, G = K, H = T^pi[free, :]
    and ``rows`` is free; flipped, K spans T^T's null space, H = K^T,
    G = T^pi[:, free] and ``rows`` is None. At index 0, T^pi = 0, q = 0
    and ``rows`` is empty.
    """
    pi = result.spectral_idempotent
    n = pi.rows
    if result._step is None:
        return Matrix.zeros(n, 0), Matrix.zeros(0, n), []
    pivots, free, reduced, flipped = result._step
    null = _null_basis(reduced, pivots, free)
    return ((pi.columns(free), null.transpose(), None) if flipped
            else (null, pi.pick(free, range(n)), free))


def _group(matrix: Matrix, message: str) -> DrazinResult:
    """drazin(matrix), or NotGroupInvertible(message.format(index)) when
    its index exceeds 1."""
    result = drazin(matrix)
    if result.index > 1:
        raise NotGroupInvertible(message.format(result.index),
                                 index=result.index)
    return result


def group_inverse(matrix: Matrix) -> Matrix:
    """The group inverse T^#, defined only when the Drazin index is <= 1."""
    return _group(matrix, "Drazin index is {}").drazin


def cline(a: Matrix, b: Matrix) -> DrazinResult:
    """Drazin inverse of a*b from the one of b*a: (ab)^D = a ((ba)^D)^2 b.

    Works for rectangular a (m x n) and b (n x m); the index and spectral
    idempotent are derived for the product a*b, and T^pi is formed on its
    first read, as ``drazin`` does. ``drazin`` applies this identity one
    step of its chain at a time. No kernel calls it; it is public, and
    acceptance criterion 6 checks it against ``drazin(a * b)``.
    """
    if a.cols != b.rows or a.rows != b.cols:
        raise ShapeMismatch("cline", a.shape, b.shape)
    ba_drazin = drazin(b * a).drazin
    product = a * b
    d = a * (ba_drazin * ba_drazin) * b
    return DrazinResult(d, drazin_index(product), matrix=product)


def block_triangular_drazin(a: Matrix, c: Matrix, d: Matrix) -> Matrix:
    """Drazin inverse of [[a, 0], [c, d]] when a and d have group inverses.

    The mixing block is
        z = (d#)^2 c a^pi + d^pi c (a#)^2 - d# c a#
    and the result is [[a#, 0], [z, d#]]. It is the group inverse of the
    assembled matrix exactly when d^pi c a^pi = 0.
    """
    _require_square(a, "block_triangular_drazin")
    _require_square(d, "block_triangular_drazin")
    if c.rows != d.rows or c.cols != a.cols:
        raise ShapeMismatch("block_triangular_drazin", c.shape,
                            (d.rows, a.cols))
    a_result = _group(a, "upper-left block has Drazin index {}")
    d_result = _group(d, "lower-right block has Drazin index {}")
    a_sharp, a_pi = a_result.drazin, a_result.spectral_idempotent
    d_sharp, d_pi = d_result.drazin, d_result.spectral_idempotent
    z = (d_sharp * d_sharp * c * a_pi + d_pi * c * (a_sharp * a_sharp)
         - d_sharp * c * a_sharp)
    return Matrix.from_blocks([
        [a_sharp, Matrix.zeros(a.rows, d.cols)],
        [z, d_sharp],
    ])

"""Drazin and group inverses by Cline's successive full-rank factorizations.

A square T of rank r factors as T = B1 C1, with B1 the r pivot columns of T
and C1 the nonzero rows of its reduced row echelon form. The r x r matrix
M1 = C1 B1 factors again as B2 C2, and so on: the chain M_j = C_j B_j
shrinks until some M = M_k is invertible or zero. Since
rank(T^(j+1)) = rank(M_j), an invertible M_k means T has index k, and

    T^D = B1 ... Bk M^-(k+1) Ck ... C1;

a zero M_k means T is nilpotent of index k + 1, and T^D = 0. Every step
after the first works on the shrinking M_j, never on a power of T. A
nonzero determinant mod a prime proves M_j invertible; failing that, its
exact rref decides, so no limits and no numerics enter. The group inverse
is the k <= 1 case.

References: R. E. Cline, "Inverses of rank invariant powers of a matrix",
SIAM J. Numer. Anal. 5 (1968); S. L. Campbell and C. D. Meyer,
Generalized Inverses of Linear Transformations, ch. 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .matrices import (Matrix, ShapeMismatch, _certainly_invertible,
                       inverse, rref)


class NotGroupInvertible(ArithmeticError):
    """A group inverse was required but the Drazin index exceeds 1.

    ``index`` is the Drazin index of the offending matrix when known;
    ``condition`` names the violated equivalence condition when the refusal
    comes from a closed-form rule rather than direct computation.
    """

    def __init__(self, message: str, index: int | None = None,
                 condition: str | None = None):
        super().__init__(message)
        self.index = index
        self.condition = condition


@dataclass(frozen=True)
class DrazinResult:
    """The Drazin inverse T^D, its index, and T^pi = I - T*T^D."""

    drazin: Matrix
    index: int
    spectral_idempotent: Matrix


def _require_square(matrix: Matrix, op: str) -> None:
    if not matrix.is_square:
        raise ShapeMismatch(op, matrix.shape, matrix.shape)


def _walk(matrix: Matrix) -> tuple[int, Matrix | None, Matrix | None,
                                   Matrix | None]:
    """Cline's chain for a square T: (index, B, C, M).

    M is the first invertible M_j of the chain, starting from M_0 = T, and
    B = B1 ... Bj, C = Cj ... C1 (None for j = 0), so T^(j+1) = B M C. When
    the chain ends on a zero M_j instead, M is None and the index is j + 1.
    """
    left = right = None
    core = matrix
    steps = 0
    while True:
        if _certainly_invertible(core):
            return steps, left, right, core
        reduced, r, pivots = rref(core)
        if r == core.rows:  # invertible after all: an unlucky prime
            return steps, left, right, core
        if r == 0:
            return steps + 1, left, right, None
        columns = core.columns(pivots)
        rows = reduced.submatrix(0, r, 0, core.cols)
        left = columns if left is None else left * columns
        right = rows if right is None else rows * right
        core = rows * columns
        steps += 1


def drazin_index(matrix: Matrix) -> int:
    """Smallest k >= 0 with rank(T^k) = rank(T^(k+1)); 0 for invertible T."""
    _require_square(matrix, "drazin_index")
    return _walk(matrix)[0]


@lru_cache(maxsize=4096)
def drazin(matrix: Matrix) -> DrazinResult:
    """Drazin inverse by Cline's chain of full-rank factorizations.

    With index k >= 1, the chain's B, C and invertible M give
    T T^D = B M^-k C and T^D = B M^-(k+1) C. An invertible T has index 0
    and T^D = T^-1. The chain runs one rref per step, one inverse at the
    end and no rank pass. Results are cached; matrices are immutable.
    """
    _require_square(matrix, "drazin")
    n = matrix.rows
    k, left, right, core = _walk(matrix)
    if core is None:
        return DrazinResult(Matrix.zeros(n, n), k, Matrix.identity(n))
    core_inv = inverse(core)
    if k == 0:
        return DrazinResult(core_inv, 0, Matrix.zeros(n, n))
    tail = right
    for _ in range(k):
        tail = core_inv * tail
    pi = Matrix.identity(n) - left * tail
    return DrazinResult(left * (core_inv * tail), k, pi)


def group_inverse(matrix: Matrix) -> Matrix:
    """The group inverse T^#, defined only when the Drazin index is <= 1."""
    result = drazin(matrix)
    if result.index > 1:
        raise NotGroupInvertible(
            f"Drazin index is {result.index}", index=result.index
        )
    return result.drazin


def cline(a: Matrix, b: Matrix) -> DrazinResult:
    """Drazin inverse of a*b from the one of b*a: (ab)^D = a ((ba)^D)^2 b.

    Works for rectangular a (m x n) and b (n x m); the index and spectral
    idempotent are derived for the product a*b. No kernel calls it; it is
    public, and acceptance criterion 6 checks it against ``drazin(a * b)``.
    """
    if a.cols != b.rows or a.rows != b.cols:
        raise ShapeMismatch("cline", a.shape, b.shape)
    ba_drazin = drazin(b * a).drazin
    product = a * b
    d = a * (ba_drazin * ba_drazin) * b
    k = drazin_index(product)
    pi = Matrix.identity(a.rows) - product * d
    return DrazinResult(d, k, pi)


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
    a_result = drazin(a)
    if a_result.index > 1:
        raise NotGroupInvertible(
            f"upper-left block has Drazin index {a_result.index}",
            index=a_result.index,
        )
    d_result = drazin(d)
    if d_result.index > 1:
        raise NotGroupInvertible(
            f"lower-right block has Drazin index {d_result.index}",
            index=d_result.index,
        )
    a_sharp, a_pi = a_result.drazin, a_result.spectral_idempotent
    d_sharp, d_pi = d_result.drazin, d_result.spectral_idempotent
    z = (d_sharp * d_sharp * c * a_pi + d_pi * c * (a_sharp * a_sharp)
         - d_sharp * c * a_sharp)
    return Matrix.from_blocks([
        [a_sharp, Matrix.zeros(a.rows, d.cols)],
        [z, d_sharp],
    ])

"""The Drazin inverse by the core-nilpotent decomposition, for the tests.

The library computes T^D through Cline's chain of full-rank
factorizations. This module keeps an independent construction, so the
tests can compare two routes that share no Drazin-specific step: walk the
powers of T until the rank stabilizes at the index k; then
P = [pivot columns of T^k | kernel basis of T^k] is invertible and
P^-1 T P = diag(C, N) with C invertible and N nilpotent, so
T^D = P diag(C^-1, 0) P^-1.
"""

from blockginv.ginverse import DrazinResult
from blockginv.matrices import (
    Matrix,
    column_space_basis,
    inverse,
    kernel_basis,
    rank,
)


def reference_drazin(matrix: Matrix) -> DrazinResult:
    n = matrix.rows
    previous = n
    power = Matrix.identity(n)
    k = 0
    while True:
        next_power = power * matrix
        r = rank(next_power)
        if r == previous:
            break
        previous = r
        k += 1
        power = next_power
    if k == 0:
        return DrazinResult(inverse(matrix), 0, Matrix.zeros(n, n))
    core_basis = column_space_basis(power)
    basis = Matrix.from_blocks([[core_basis, kernel_basis(power)]])
    basis_inv = inverse(basis)
    r = core_basis.cols
    core = (basis_inv * matrix * basis).submatrix(0, r, 0, r)
    padded = Matrix.from_blocks([
        [inverse(core), Matrix.zeros(r, n - r)],
        [Matrix.zeros(n - r, r), Matrix.zeros(n - r, n - r)],
    ])
    d = basis * padded * basis_inv
    return DrazinResult(d, k, Matrix.identity(n) - matrix * d)

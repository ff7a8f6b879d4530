"""The paper's displayed closed forms, written out independently.

The library evaluates each block group inverse through three kernels and
reaches the left-sided rules by transposition. These functions keep the
forms as the paper displays them, so the tests can compare two routes that
share no block algebra. Each returns (gamma, delta, lambda, xi).
"""

from blockginv.ginverse import drazin
from blockginv.matrices import Matrix


def _ingredients(e, f):
    de, df = drazin(e), drazin(f)
    return de.drazin, de.spectral_idempotent, df.drazin, df.spectral_idempotent


def thm23_direct(e, f):
    """[[E, F], [I, 0]]^# under F^pi E F = 0 (Theorem 2.3)."""
    e_d, _, f_sharp, f_pi = _ingredients(e, f)
    core = f_pi * e_d
    gamma = core
    delta = f * f_sharp
    lambda_blk = f_sharp + core * core - f_sharp * e * core
    xi = -(f_sharp * e * f * f_sharp)
    return gamma, delta, lambda_blk, xi


def cor24_direct(e, f):
    """[[E, I], [F, 0]]^# under F^pi E F = 0 (Corollary 2.4)."""
    e_d, _, f_sharp, f_pi = _ingredients(e, f)
    n = e.rows
    core = f_pi * e_d
    gamma = f_pi * e_d * f_pi
    delta = f_sharp + core * core - f_sharp * e * core
    lambda_blk = Matrix.identity(n) - e * f_pi * e_d * f_pi
    xi = core - e * f_sharp - e * (core * core) + e * f_sharp * e * core
    return gamma, delta, lambda_blk, xi


def thm31_statement(e, f):
    """[[E, F], [F, 0]]^# of Theorem 3.1 in its flattened statement form."""
    e_d, e_pi, f_sharp, f_pi = _ingredients(e, f)
    n = e.rows
    f_sharp2 = f_sharp * f_sharp
    core = e_d * f_pi
    edge = e_pi * f_pi * e * f_sharp2
    alpha = core + edge
    head = Matrix.identity(n) - e_pi * f_pi
    tail = f_sharp - edge * e * f_sharp - core * e * f_sharp
    gamma = head * alpha + edge
    delta = head * tail - edge * e * f_sharp
    lambda_blk = (f * alpha * alpha + f_sharp
                  - f * e_pi * f_pi * (e * f_sharp2) * (e * f_sharp2)
                  - f * core * e * f_sharp2)
    xi = (f * alpha) * tail - (
        f_sharp - f * edge * e * f_sharp2 - f * core * e * f_sharp2
    ) * e * f_sharp
    return gamma, delta, lambda_blk, xi


def thm31_factored(e, f):
    """Theorem 3.1 through N = [[E, I], [F^2, 0]], as the proof factors it.

    The corners of N^# are

        alpha = E^D F^pi + E^pi F^pi E (F#)^2
        beta  = (F#)^2 + (E^D F^pi)^2 - E^pi F^pi E (F#)^2 E (F#)^2
                - E^D F^pi E (F#)^2
        gamma = F F#
        delta = -F F# E (F#)^2

    and M^# = [[E, I], [F, 0]] (N^#)^2 diag(I, F).
    """
    e_d, e_pi, f_sharp, f_pi = _ingredients(e, f)
    f_sharp2 = f_sharp * f_sharp
    core = e_d * f_pi
    alpha = core + e_pi * f_pi * e * f_sharp2
    beta = f_sharp2 + core * core - alpha * e * f_sharp2
    gamma_n = f * f_sharp
    delta_n = -(gamma_n * e * f_sharp2)
    lifted_alpha = e * alpha + gamma_n
    lifted_beta = e * beta + delta_n
    gamma = lifted_alpha * alpha + lifted_beta * gamma_n
    delta = (lifted_alpha * beta + lifted_beta * delta_n) * f
    lambda_blk = f * (alpha * alpha + beta * gamma_n)
    xi = f * (alpha * beta + beta * delta_n) * f
    return gamma, delta, lambda_blk, xi


def cor32_direct(e, f):
    """[[E, F], [F, 0]]^# under F^pi E F = 0 (Corollary 3.2), direct form."""
    e_d, e_pi, f_sharp, f_pi = _ingredients(e, f)
    n = e.rows
    f_sharp2 = f_sharp * f_sharp
    core = f_pi * e_d
    edge = f_sharp2 * e * f_pi * e_pi
    head = Matrix.identity(n) - f_pi * e_pi
    tail = (f_sharp - f_sharp * e * f_sharp2 * e * f_pi * e_pi
            - f_sharp * e * core)
    gamma = (core + edge) * head + edge
    lambda_blk = tail * head - f_sharp * e * edge
    delta = ((core + edge) * (core + edge) * f + f_sharp
             - (f_sharp2 * e) * (f_sharp2 * e) * f_pi * e_pi * f
             - f_sharp2 * e * core * f)
    xi = tail * (core * f + edge * f) - f_sharp * e * (
        f_sharp - f_sharp2 * e * f_sharp2 * e * f_pi * e_pi * f
        - f_sharp2 * e * core * f
    )
    return gamma, delta, lambda_blk, xi


def blocks(result):
    """The four blocks of a BlockGroupInverse, in paper_forms order."""
    return result.gamma, result.delta, result.lambda_blk, result.xi

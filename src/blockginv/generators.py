"""Seeded random instance generation and formula-versus-oracle checking.

Pairs (E, F) are built in an adapted basis: F is conjugated from
diag(C, 0) with C invertible, so its rank and spectral idempotent are known
by construction, and E is conjugated from a block matrix whose zero corner
enforces the wanted one-sided constraint. The bottom-right corner of that
block matrix steers the existence condition, so one draw gives an instance
where the closed form must succeed, or one where it must refuse. No draw
is repeated: ``gen_pair`` checks its one draw and raises if it missed.

All randomness flows through ``random.Random`` (the stdlib Mersenne
Twister), seeded explicitly; equal seeds give equal instances on every run
and with any worker count.
"""

from __future__ import annotations

import enum
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from .ginverse import NotGroupInvertible, drazin
from .matrices import Matrix, _certainly_invertible, inverse, rank
from .scalars import ZERO, GaussianRational
from .theorems import (
    SHAPE_FOR_THEOREM,
    ConditionReport,
    HypothesisViolated,
    assemble_M,
    block_group_inverse,
    check_conditions,
    rule_for,
)

# Rules whose refusal instances put a nonzero nilpotent in the corner that
# steers existence, which needs two spare dimensions.
_NILPOTENT_NEGATIVES = frozenset({"thm3.1", "cor3.2"})


class GenerationExhausted(RuntimeError):
    """No instance with the requested properties could be drawn."""


class Verdict(enum.Enum):
    AGREE_EXISTS = "AgreeExists"
    AGREE_NOT_EXISTS = "AgreeNotExists"
    MISMATCH = "MISMATCH"


@dataclass(frozen=True)
class GenSpec:
    """What to draw: a theorem id, the size n, rank of F, and a target.

    ``satisfy=True`` asks for a pair the closed form must handle;
    ``satisfy=False`` asks for one where every standing hypothesis holds
    but the existence condition fails, so the constructor must refuse.
    """

    theorem: str
    n: int
    rank_f: int
    satisfy: bool = True
    seed: int = 0


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    verdict: Verdict
    formula: Matrix | None
    oracle: Matrix
    oracle_index: int
    mismatch_positions: tuple[tuple[int, int], ...]
    conditions: ConditionReport
    error: str | None


@dataclass(frozen=True)
class Trial:
    spec: GenSpec
    e: Matrix
    f: Matrix
    report: VerificationReport


def _rand_scalar(rng: random.Random) -> GaussianRational:
    real = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    imag = Fraction(0)
    if rng.random() < 0.25:
        imag = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return GaussianRational(real, imag)


def _rand_nonzero_scalar(rng: random.Random) -> GaussianRational:
    while True:
        value = _rand_scalar(rng)
        if value:
            return value


def _rand_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    if rows == 0 or cols == 0:
        return Matrix.zeros(rows, cols)
    return Matrix.from_rows(
        [[_rand_scalar(rng) for _ in range(cols)] for _ in range(rows)]
    )


def _gen_invertible(rng: random.Random, n: int) -> Matrix:
    for _ in range(1000):
        candidate = _rand_matrix(rng, n, n)
        # The mod-P certificate is cheap and only ever says True of an
        # invertible matrix; the exact rank decides the rest.
        if _certainly_invertible(candidate) or rank(candidate) == n:
            return candidate
    raise GenerationExhausted(f"no invertible {n}x{n} draw found")


def _gen_group_invertible(rng: random.Random, n: int, rank_: int) -> Matrix:
    if not 0 <= rank_ <= n:
        raise ValueError(f"rank {rank_} out of range for size {n}")
    p = _gen_invertible(rng, n)
    core = _embed_core(_gen_invertible(rng, rank_), n)
    return p * core * inverse(p)


def _embed_core(core: Matrix, n: int) -> Matrix:
    r = core.rows
    return Matrix.from_blocks([
        [core, Matrix.zeros(r, n - r)],
        [Matrix.zeros(n - r, r), Matrix.zeros(n - r, n - r)],
    ])


def gen_invertible(n: int, seed: int = 0) -> Matrix:
    """A seeded random invertible n x n matrix."""
    return _gen_invertible(random.Random(seed), n)


def gen_group_invertible(n: int, rank_: int, seed: int = 0) -> Matrix:
    """A seeded random n x n matrix of the given rank with Drazin index <= 1."""
    return _gen_group_invertible(random.Random(seed), n, rank_)


def _singular(rng: random.Random, q: int) -> Matrix:
    return _rand_matrix(rng, q, q - 1) * _rand_matrix(rng, q - 1, q)


def _nilpotent_nonzero(rng: random.Random, q: int) -> Matrix:
    rows = [[ZERO] * q for _ in range(q)]
    for i in range(q):
        for j in range(i + 1, q):
            if rng.random() < 0.5:
                rows[i][j] = _rand_scalar(rng)
    candidate = Matrix.from_rows(rows)
    if candidate.is_zero():
        rows[0][1] = _rand_nonzero_scalar(rng)
        candidate = Matrix.from_rows(rows)
    return candidate


def _diagonal(entries: list[GaussianRational]) -> Matrix:
    n = len(entries)
    return Matrix.from_rows(
        [[entries[i] if i == j else ZERO for j in range(n)] for i in range(n)]
    )


def _conjugate(rng: random.Random, *tilde: Matrix) -> tuple[Matrix, ...]:
    n = tilde[0].rows
    p = _gen_invertible(rng, n)
    p_inv = inverse(p)
    return tuple(p * m * p_inv for m in tilde)


def _draw_flavored(rng: random.Random, spec: GenSpec) -> tuple[Matrix, Matrix]:
    n, r = spec.n, spec.rank_f
    q = n - r
    theorem = spec.theorem
    if theorem == "cor3.3":
        d = _gen_invertible(rng, q)
        if rng.random() < 0.5:
            a = _gen_invertible(rng, r)
            coupling = _rand_matrix(rng, r, q)
        else:
            a = _gen_group_invertible(rng, r, rng.randint(0, r))
            coupling = Matrix.zeros(r, q)
    else:
        a = _rand_matrix(rng, r, r)
        coupling = None
        if theorem in _NILPOTENT_NEGATIVES:
            d = (_gen_group_invertible(rng, q, rng.randint(0, q))
                 if spec.satisfy else _nilpotent_nonzero(rng, q))
        else:
            d = _gen_invertible(rng, q) if spec.satisfy else _singular(rng, q)
    if not rule_for(theorem).mirrored:
        e_tilde = Matrix.from_blocks([
            [a, Matrix.zeros(r, q)],
            [_rand_matrix(rng, q, r), d],
        ])
    else:
        b = coupling if coupling is not None else _rand_matrix(rng, r, q)
        e_tilde = Matrix.from_blocks([[a, b], [Matrix.zeros(q, r), d]])
    f_tilde = _embed_core(_gen_invertible(rng, r), n)
    return _conjugate(rng, e_tilde, f_tilde)


def _draw_cor25(rng: random.Random, spec: GenSpec) -> tuple[Matrix, Matrix]:
    n, r = spec.n, spec.rank_f
    q = n - r
    if not spec.satisfy:
        f_diag = [_rand_nonzero_scalar(rng) for _ in range(r)] + [ZERO] * q
        e_diag = [_rand_scalar(rng) for _ in range(n)]
        e_diag[rng.randrange(r, n)] = ZERO
        return _conjugate(rng, _diagonal(e_diag), _diagonal(f_diag))
    modes = ["diag"]
    if r == n and n >= 2:
        modes.append("entry")
    if 0 < r < n:
        modes.append("align")
    mode = rng.choice(modes)
    if mode == "diag":
        f_diag = [_rand_nonzero_scalar(rng) for _ in range(r)] + [ZERO] * q
        e_diag = ([_rand_scalar(rng) for _ in range(r)]
                  + [_rand_nonzero_scalar(rng) for _ in range(q)])
        return _conjugate(rng, _diagonal(e_diag), _diagonal(f_diag))
    if mode == "entry":
        magnitudes = list(range(1, n + 1))
        rng.shuffle(magnitudes)
        scale = _rand_nonzero_scalar(rng)
        f_diag = [scale * GaussianRational(m * rng.choice((1, -1)))
                  for m in magnitudes]
        i, j = rng.sample(range(n), 2)
        rows = [[ZERO] * n for _ in range(n)]
        rows[i][j] = _rand_nonzero_scalar(rng)
        return _conjugate(rng, Matrix.from_rows(rows), _diagonal(f_diag))
    # EF^2 = FEF without a scalar law: F is a nonzero multiple of a rank-r
    # coordinate projection and E couples the two coordinate blocks.
    scale = _rand_nonzero_scalar(rng)
    f_tilde = scale * _embed_core(Matrix.identity(r), n)
    b = _rand_matrix(rng, r, q)
    if b.is_zero():
        rows = b.to_lists()
        rows[rng.randrange(r)][rng.randrange(q)] = _rand_nonzero_scalar(rng)
        b = Matrix.from_rows(rows)
    e_tilde = Matrix.from_blocks([
        [_rand_matrix(rng, r, r), b],
        [Matrix.zeros(q, r), _gen_invertible(rng, q)],
    ])
    return _conjugate(rng, e_tilde, f_tilde)


def _draw_cor34(rng: random.Random, spec: GenSpec) -> tuple[Matrix, Matrix]:
    n, r = spec.n, spec.rank_f
    q = n - r
    modes = ["diag"]
    if r == n and n >= 2:
        modes.append("swap")
    mode = rng.choice(modes)
    if mode == "diag":
        f_diag = [_rand_nonzero_scalar(rng) for _ in range(r)] + [ZERO] * q
        e_diag = [_rand_scalar(rng) for _ in range(n)]
        return _conjugate(rng, _diagonal(e_diag), _diagonal(f_diag))
    # A pair with EF = -FE: E swaps the first two coordinates, F negates
    # one of them; both stay group invertible.
    c = _rand_nonzero_scalar(rng)
    f_diag = [c, -c] + [_rand_nonzero_scalar(rng) for _ in range(n - 2)]
    rows = [[ZERO] * n for _ in range(n)]
    one = GaussianRational(1)
    rows[0][1] = one
    rows[1][0] = one
    return _conjugate(rng, Matrix.from_rows(rows), _diagonal(f_diag))


def _spare_dims(theorem: str, negative: bool) -> int:
    """How far rank_f must stay below n: 0 for positive draws, else 1 or 2."""
    if not negative:
        return 0
    if rule_for(theorem).blocker is None:
        raise GenerationExhausted(
            f"{theorem}: the inverse exists whenever the hypotheses hold, "
            "so there are no refusal instances"
        )
    return 2 if theorem in _NILPOTENT_NEGATIVES else 1


def _check_feasible(spec: GenSpec) -> None:
    rule_for(spec.theorem)
    if spec.n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= spec.rank_f <= spec.n:
        raise ValueError(f"rank_f {spec.rank_f} out of range for n {spec.n}")
    spare = _spare_dims(spec.theorem, not spec.satisfy)
    if spec.rank_f > spec.n - spare:
        raise GenerationExhausted(
            f"{spec.theorem}: refusal instances need "
            + ("rank_f <= n-2" if spare == 2 else "rank_f < n")
        )


def gen_pair(spec: GenSpec) -> tuple[Matrix, Matrix]:
    """Draw one pair (E, F) matching a GenSpec, and check it.

    Raises GenerationExhausted when the request is structurally impossible
    (see ``_check_feasible``) or when the draw misses its target, which
    only a wrong construction can do: each draw imposes the hypotheses.
    """
    _check_feasible(spec)
    target = None if spec.satisfy else rule_for(spec.theorem).blocker
    rng = random.Random(spec.seed)
    if spec.theorem == "cor2.5":
        e, f = _draw_cor25(rng, spec)
    elif spec.theorem == "cor3.4":
        e, f = _draw_cor34(rng, spec)
    else:
        e, f = _draw_flavored(rng, spec)
    failure = check_conditions(e, f, spec.theorem).first_failure
    found = failure.name if failure else None
    if found != target:
        raise GenerationExhausted(f"{spec}: the draw's first failure is "
                                  f"{found!r}, not the target {target!r}")
    return e, f


def verify_instance(e: Matrix, f: Matrix, theorem: str) -> VerificationReport:
    """Compare the closed form against the from-scratch Drazin computation.

    AgreeExists: the formula produced a matrix equal to the Drazin inverse
    of the assembled block matrix, whose index is at most 1. AgreeNotExists:
    the formula refused with NotGroupInvertible and the index is at least 2.
    Anything else, including a standing-hypothesis violation, is MISMATCH.
    """
    try:
        result = block_group_inverse(theorem, e, f)
    except (NotGroupInvertible, HypothesisViolated) as exc:
        formula, conditions = None, exc.report
        error, refused = str(exc), isinstance(exc, NotGroupInvertible)
    else:
        formula, conditions = result.assembled, result.report
        error, refused = None, False
    big = assemble_M(e, f, SHAPE_FOR_THEOREM[theorem])
    oracle = drazin(big)
    if formula is not None and formula == oracle.drazin and oracle.index <= 1:
        verdict = Verdict.AGREE_EXISTS
    elif refused and oracle.index >= 2:
        verdict = Verdict.AGREE_NOT_EXISTS
    else:
        verdict = Verdict.MISMATCH
    positions: tuple[tuple[int, int], ...] = ()
    if formula is not None and formula != oracle.drazin:
        positions = tuple(
            (i, j)
            for i in range(formula.rows)
            for j in range(formula.cols)
            if formula[i, j] != oracle.drazin[i, j]
        )
    return VerificationReport(
        theorem, verdict, formula, oracle.drazin, oracle.index,
        positions, conditions, error,
    )


def _run_trial(spec: GenSpec) -> Trial:
    e, f = gen_pair(spec)
    return Trial(spec, e, f, verify_instance(e, f, spec.theorem))


def _draw_dims(rng: random.Random, theorem: str, max_n: int,
               spare: int) -> tuple[int, int]:
    if max_n < spare:
        raise GenerationExhausted(
            f"{theorem}: refusal instances need n >= {spare}"
        )
    n = rng.randint(max(spare, 1), max_n)
    return n, rng.randint(0, n - spare)


def run_campaign(theorem: str, trials: int, max_n: int, seed: int,
                 negative: bool = False, jobs: int = 1) -> list[Trial]:
    """Generate and verify a batch of instances for one theorem id.

    Sizes are drawn from a campaign-level stream seeded with ``seed``; each
    trial i then generates from seed*1000003 + i. Results are identical for
    any ``jobs`` value, which only spreads the work over processes.
    """
    rule_for(theorem)
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    spare = _spare_dims(theorem, negative)
    rng = random.Random(seed)
    specs = []
    for i in range(trials):
        n, rank_f = _draw_dims(rng, theorem, max_n, spare)
        specs.append(GenSpec(theorem, n, rank_f, not negative,
                             seed * 1_000_003 + i))
    workers = min(jobs, len(specs), os.cpu_count() or 1)
    if workers <= 1:
        return [_run_trial(spec) for spec in specs]
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(specs) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_trial, specs, chunksize=chunk))

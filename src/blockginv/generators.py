"""Seeded random instance generation and formula-versus-oracle checking.

Pairs (E, F) are built in the basis that splits F, where F = diag(C, 0)
with C invertible, so its rank and spectral idempotent are known by
construction, and E~ is a block matrix whose zero corner enforces the
wanted one-sided constraint. The bottom-right corner of E~ steers the
existence condition, so one draw gives an instance where the closed form
must succeed, or one where it must refuse. Every rule's draw returns its
split-basis pair (E~, C), and ``_draw`` conjugates both by one random P,
drawn last: E = P E~ P^-1 and F = P[:, :r] C P^-1[:r, :], never a
product with diag(C, 0), so every draw has F group invertible. No draw is
repeated: ``gen_pair`` checks its one draw and raises if it missed.

Every drawn entry is a tuple of integer parts (re, re_den, im, im_den)
that ``Matrix.from_parts`` stores directly.

All randomness flows through ``random.Random`` (the stdlib Mersenne
Twister), seeded explicitly; equal seeds give equal instances on every run
and with any worker count.
"""

from __future__ import annotations

import enum
import os
import random
from dataclasses import dataclass

from .ginverse import NotGroupInvertible, drazin
from .matrices import Matrix, inverse, rank
from .theorems import (
    SHAPE_FOR_THEOREM,
    BlockShape,
    ConditionReport,
    HypothesisViolated,
    assemble_M,
    block_group_inverse,
    check_conditions,
    rule_for,
)

# Integer parts (re, re_den, im, im_den) of the entries 0 and 1.
_ZERO = (0, 1, 0, 1)
_ONE = (1, 1, 0, 1)


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


def _rand_parts(rng: random.Random) -> tuple[int, int, int, int]:
    """A random entry as integer parts (re, re_den, im, im_den)."""
    randrange = rng.randrange
    a, b = randrange(-3, 4), randrange(1, 4)
    if rng.random() < 0.25:
        return a, b, randrange(-3, 4), randrange(1, 4)
    return a, b, 0, 1


def _rand_nonzero_parts(rng: random.Random) -> tuple[int, int, int, int]:
    while True:
        parts = _rand_parts(rng)
        if parts[0] or parts[2]:
            return parts


def _all_zero(parts: list[tuple[int, int, int, int]]) -> bool:
    return not any(a or c for a, _, c, _ in parts)


def _rand_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix.from_parts(rows, cols,
                             [_rand_parts(rng) for _ in range(rows * cols)])


def _gen_invertible(rng: random.Random, n: int) -> Matrix:
    for _ in range(1000):
        candidate = _rand_matrix(rng, n, n)
        if rank(candidate) == n:
            return candidate
    raise GenerationExhausted(f"no invertible {n}x{n} draw found")


def _gen_group_invertible(rng: random.Random, n: int, rank_: int) -> Matrix:
    """A random n x n matrix of rank rank_ <= n with Drazin index <= 1."""
    p = _gen_invertible(rng, n)
    return _conjugate_core(p, _gen_invertible(rng, rank_), inverse(p))


def _conjugate_core(p: Matrix, core: Matrix, p_inv: Matrix) -> Matrix:
    """P diag(core, 0) P^-1 from P's first r columns and P^-1's first r rows."""
    r = core.rows
    return p.columns(range(r)) * core * p_inv.submatrix(0, r, 0, p.rows)


def _singular(rng: random.Random, q: int) -> Matrix:
    return _rand_matrix(rng, q, q - 1) * _rand_matrix(rng, q - 1, q)


def _nilpotent_nonzero(rng: random.Random, q: int) -> Matrix:
    parts = [_ZERO] * (q * q)
    for i in range(q):
        for j in range(i + 1, q):
            if rng.random() < 0.5:
                parts[i * q + j] = _rand_parts(rng)
    if _all_zero(parts):
        parts[1] = _rand_nonzero_parts(rng)
    return Matrix.from_parts(q, q, parts)


def _diagonal(entries: list[tuple[int, int, int, int]]) -> Matrix:
    n = len(entries)
    return Matrix.from_parts(n, n, [entries[i] if i == j else _ZERO
                                    for i in range(n) for j in range(n)])


def _draw_flavored(rng: random.Random, spec: GenSpec) -> tuple[Matrix, Matrix]:
    n, r = spec.n, spec.rank_f
    q = n - r
    rule = rule_for(spec.theorem)
    if spec.theorem == "cor3.3":
        d = _gen_invertible(rng, q)
        if rng.random() < 0.5:
            a, b = _gen_invertible(rng, r), _rand_matrix(rng, r, q)
        else:
            a = _gen_group_invertible(rng, r, rng.randint(0, r))
            b = Matrix.zeros(r, q)
    else:
        a = _rand_matrix(rng, r, r)
        # On [[E, F], [F, 0]] existence needs D group invertible, not
        # invertible, so a refusal puts a nonzero nilpotent in D.
        if rule.shape is BlockShape.EF_F0:
            d = (_gen_group_invertible(rng, q, rng.randint(0, q))
                 if spec.satisfy else _nilpotent_nonzero(rng, q))
        else:
            d = _gen_invertible(rng, q) if spec.satisfy else _singular(rng, q)
        b = _rand_matrix(rng, r, q) if rule.mirrored else Matrix.zeros(r, q)
    x = Matrix.zeros(q, r) if rule.mirrored else _rand_matrix(rng, q, r)
    return Matrix.from_blocks([[a, b], [x, d]]), _gen_invertible(rng, r)


def _draw_cor25(rng: random.Random, spec: GenSpec) -> tuple[Matrix, Matrix]:
    n, r = spec.n, spec.rank_f
    q = n - r
    if not spec.satisfy:
        core = _diagonal([_rand_nonzero_parts(rng) for _ in range(r)])
        e_diag = [_rand_parts(rng) for _ in range(n)]
        e_diag[rng.randrange(r, n)] = _ZERO
        return _diagonal(e_diag), core
    modes = ["diag"]
    if r == n and n >= 2:
        modes.append("entry")
    if 0 < r < n:
        modes.append("align")
    mode = rng.choice(modes)
    if mode == "diag":
        core = _diagonal([_rand_nonzero_parts(rng) for _ in range(r)])
        e_diag = ([_rand_parts(rng) for _ in range(r)]
                  + [_rand_nonzero_parts(rng) for _ in range(q)])
        return _diagonal(e_diag), core
    if mode == "entry":
        magnitudes = list(range(1, n + 1))
        rng.shuffle(magnitudes)
        a, b, c, d = _rand_nonzero_parts(rng)
        signed = [m * rng.choice((1, -1)) for m in magnitudes]
        core = _diagonal([(a * s, b, c * s, d) for s in signed])
        i, j = rng.sample(range(n), 2)
        parts = [_ZERO] * (n * n)
        parts[i * n + j] = _rand_nonzero_parts(rng)
        return Matrix.from_parts(n, n, parts), core
    # EF^2 = FEF without a scalar law: F is a nonzero multiple of a rank-r
    # coordinate projection and E couples the two coordinate blocks.
    core = _diagonal([_rand_nonzero_parts(rng)] * r)
    b = [_rand_parts(rng) for _ in range(r * q)]
    if _all_zero(b):
        # The value is drawn before the position.
        value = _rand_nonzero_parts(rng)
        b[rng.randrange(r) * q + rng.randrange(q)] = value
    e_tilde = Matrix.from_blocks([
        [_rand_matrix(rng, r, r), Matrix.from_parts(r, q, b)],
        [Matrix.zeros(q, r), _gen_invertible(rng, q)],
    ])
    return e_tilde, core


def _draw_cor34(rng: random.Random, spec: GenSpec) -> tuple[Matrix, Matrix]:
    n, r = spec.n, spec.rank_f
    modes = ["diag"]
    if r == n and n >= 2:
        modes.append("swap")
    mode = rng.choice(modes)
    if mode == "diag":
        core = _diagonal([_rand_nonzero_parts(rng) for _ in range(r)])
        return _diagonal([_rand_parts(rng) for _ in range(n)]), core
    # A pair with EF = -FE: E swaps the first two coordinates, F negates
    # one of them; both stay group invertible.
    a, b, c, d = _rand_nonzero_parts(rng)
    core = _diagonal([(a, b, c, d), (-a, b, -c, d)]
                     + [_rand_nonzero_parts(rng) for _ in range(n - 2)])
    parts = [_ZERO] * (n * n)
    parts[1] = parts[n] = _ONE
    return Matrix.from_parts(n, n, parts), core


_DRAWS = {"cor2.5": _draw_cor25, "cor3.4": _draw_cor34}


def _draw(rng: random.Random, spec: GenSpec) -> tuple[Matrix, Matrix]:
    """The rule's split-basis draw (E~, C), conjugated by one P drawn last."""
    e_tilde, core = _DRAWS.get(spec.theorem, _draw_flavored)(rng, spec)
    p = _gen_invertible(rng, spec.n)
    p_inv = inverse(p)
    return p * e_tilde * p_inv, _conjugate_core(p, core, p_inv)


def _spare_dims(theorem: str, negative: bool) -> int:
    """How far rank_f must stay below n: 0 for positive draws, else 1 or 2."""
    if not negative:
        return 0
    rule = rule_for(theorem)
    if rule.blocker is None:
        raise GenerationExhausted(
            f"{theorem}: the inverse exists whenever the hypotheses hold, "
            "so there are no refusal instances"
        )
    # A refusal's nilpotent D on [[E, F], [F, 0]] needs two dimensions.
    return 2 if rule.shape is BlockShape.EF_F0 else 1


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
    e, f = _draw(rng, spec)
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
    same = formula == oracle.drazin
    if same and oracle.index <= 1:
        verdict = Verdict.AGREE_EXISTS
    elif refused and oracle.index >= 2:
        verdict = Verdict.AGREE_NOT_EXISTS
    else:
        verdict = Verdict.MISMATCH
    positions: tuple[tuple[int, int], ...] = ()
    if formula is not None and not same:
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
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
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

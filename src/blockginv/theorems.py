"""Closed-form group inverses for anti-triangular block matrices.

Three 2n x 2n layouts are covered, each built from a square pair (E, F):

    EI_F0 = [[E, I], [F, 0]]    EF_I0 = [[E, F], [I, 0]]    EF_F0 = [[E, F], [F, 0]]

The nine rules form one table, ``RULES``. A record holds the rule's
layout, its conditions in the order ``check_conditions`` reports them, and
its route to the four result blocks. Standing hypotheses come first: when
one fails the rule says nothing and HypothesisViolated is raised. Refusal
conditions follow: when one fails the rule certifies that the block matrix
has no group inverse and NotGroupInvertible is raised. F^pi is the
spectral idempotent I - F F^D of F, and E^pi that of E.

Three formula kernels do all the block algebra: Theorem 2.1 for
[[E, I], [F, 0]] under F E F^pi = 0, Corollary 2.2 for the conjugate
layout [[E, F], [I, 0]] under the same hypothesis, and Theorem 3.1 for
[[E, F], [F, 0]]. The rules under the left-sided constraint F^pi E F = 0
(thm2.3, cor2.4, cor3.2, cor3.3) run a kernel on (E^T, F^T): transposing
the block matrix turns their layout and hypotheses into the kernel's, and
swaps the two off-diagonal result blocks. The commutation rules cor2.5 and
cor3.4 delegate to the route of thm2.3 and cor3.3: either law, with F
group invertible, forces F^pi E F = 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from .ginverse import DrazinResult, NotGroupInvertible, drazin
from .matrices import Matrix, ShapeMismatch
from .scalars import ZERO, GaussianRational


class BlockShape(enum.Enum):
    """The three anti-triangular layouts, named by their top and left blocks."""

    EI_F0 = "EI_F0"
    EF_I0 = "EF_I0"
    EF_F0 = "EF_F0"


_COMMUTATION_PAIR = ("EF=lambda FE", "EF^2=FEF")


class HypothesisViolated(ArithmeticError):
    """A standing hypothesis of a closed-form rule does not hold.

    The rule makes no claim either way in this case. ``condition`` names the
    failed hypothesis; ``residual`` is a matrix that would be zero if it held.
    """

    def __init__(self, condition: str, residual: Matrix | None = None):
        super().__init__(f"hypothesis does not hold: {condition}")
        self.condition = condition
        self.residual = residual


@dataclass(frozen=True)
class Condition:
    """One named hypothesis with its witnessing residual (zero iff it holds)."""

    name: str
    holds: bool
    residual: Matrix
    lam: GaussianRational | None = None


@dataclass(frozen=True)
class ConditionReport:
    theorem: str
    conditions: tuple[Condition, ...]

    def holds(self, name: str) -> bool:
        for condition in self.conditions:
            if condition.name == name:
                return condition.holds
        raise KeyError(name)

    def satisfied(self) -> bool:
        """True iff ``block_group_inverse`` would accept this pair.

        The two commutation laws count as one either/or hypothesis; every
        other listed condition must hold individually.
        """
        either_ok = True
        saw_commutation = False
        for condition in self.conditions:
            if condition.name in _COMMUTATION_PAIR:
                if not saw_commutation:
                    either_ok = False
                    saw_commutation = True
                either_ok = either_ok or condition.holds
            elif not condition.holds:
                return False
        return either_ok


@dataclass(frozen=True)
class BlockGroupInverse:
    """The four result blocks, their assembly, ingredients and conditions."""

    theorem: str
    gamma: Matrix
    delta: Matrix
    lambda_blk: Matrix
    xi: Matrix
    assembled: Matrix
    intermediates: dict[str, Matrix]
    report: ConditionReport


def _require_pair(e: Matrix, f: Matrix) -> int:
    if not e.is_square or e.shape != f.shape:
        raise ShapeMismatch("block pair", e.shape, f.shape)
    return e.rows


def assemble_M(e: Matrix, f: Matrix, shape: BlockShape) -> Matrix:
    """Build the 2n x 2n anti-triangular matrix for a pair and a layout."""
    n = _require_pair(e, f)
    eye = Matrix.identity(n)
    zero = Matrix.zeros(n, n)
    if shape is BlockShape.EI_F0:
        grid = [[e, eye], [f, zero]]
    elif shape is BlockShape.EF_I0:
        grid = [[e, f], [eye, zero]]
    else:
        grid = [[e, f], [f, zero]]
    return Matrix.from_blocks(grid)


def _lambda_commutation(e: Matrix, f: Matrix):
    """Decide EF = lambda FE for a single scalar lambda.

    Returns (holds, residual, lambda). When both products vanish the law
    holds with lambda = 0. When exactly one vanishes no scalar is searched
    for and the law is reported failed (with the nonzero product as
    residual). Otherwise lambda is read off the first position, in
    row-major order, where both products are nonzero, and then checked
    globally.
    """
    ef = e * f
    fe = f * e
    if ef.is_zero() and fe.is_zero():
        return True, ef, ZERO
    if ef.is_zero() or fe.is_zero():
        return False, fe if ef.is_zero() else ef, None
    lam = None
    for i in range(ef.rows):
        for j in range(ef.cols):
            p = ef[i, j]
            q = fe[i, j]
            if p and q:
                lam = p / q
                break
        if lam is not None:
            break
    if lam is None:
        return False, ef, None
    residual = ef - lam * fe
    if residual.is_zero():
        return True, residual, lam
    return False, residual, None


# The matrix that vanishes iff the named condition holds, from
# (E, F, E^pi, F^pi). "EF=lambda FE" is decided by _lambda_commutation.
_RESIDUALS: dict[str, Callable[..., Matrix]] = {
    "FEF^pi=0": lambda e, f, e_pi, f_pi: f * e * f_pi,
    "F^pi EF=0": lambda e, f, e_pi, f_pi: f_pi * e * f,
    "E^pi F^pi=0": lambda e, f, e_pi, f_pi: e_pi * f_pi,
    "F^pi E^pi=0": lambda e, f, e_pi, f_pi: f_pi * e_pi,
    "EE^pi F^pi=0": lambda e, f, e_pi, f_pi: e * e_pi * f_pi,
    "F^pi E^pi E=0": lambda e, f, e_pi, f_pi: f_pi * e_pi * e,
    "F group-invertible": lambda e, f, e_pi, f_pi: f * f_pi,
    "E group-invertible": lambda e, f, e_pi, f_pi: e * e_pi,
    "EF^2=FEF": lambda e, f, e_pi, f_pi: (e * f - f * e) * f,
}


def _evaluate(name: str, e: Matrix, f: Matrix, de: DrazinResult,
              df: DrazinResult) -> Condition:
    if name == "EF=lambda FE":
        return Condition(name, *_lambda_commutation(e, f))
    # Index <= 1 is exactly when E E^pi (F F^pi) vanishes: skip the product.
    if (name == "E group-invertible" and de.index <= 1
            or name == _F_GROUP and df.index <= 1):
        return Condition(name, True, Matrix.zeros(e.rows, e.rows))
    residual = _RESIDUALS[name](e, f, de.spectral_idempotent,
                                df.spectral_idempotent)
    return Condition(name, residual.is_zero(), residual)


def _thm21(e: Matrix, f: Matrix, de: DrazinResult, df: DrazinResult):
    """[[E, I], [F, 0]]^# under F E F^pi = 0 (Theorem 2.1).

        gamma  = E^D F^pi
        delta  = F# + (E^D F^pi)^2 - E^D F^pi E F#
        lambda = F F#
        xi     = -F F# E F#
    """
    f_sharp = df.drazin
    core = de.drazin * df.spectral_idempotent
    projector = f * f_sharp
    delta = f_sharp + core * core - core * e * f_sharp
    return (core, delta, projector, -(projector * e * f_sharp)), {}


def _cor22(e: Matrix, f: Matrix, de: DrazinResult, df: DrazinResult):
    """[[E, F], [I, 0]]^# under F E F^pi = 0 (Corollary 2.2).

    The layout is conjugate to Theorem 2.1's via P = [[0, I], [I, -E]]:

        gamma  = F^pi E^D F^pi
        delta  = I - F^pi E^D F^pi E
        lambda = F# + (E^D F^pi)^2 - E^D F^pi E F#
        xi     = E^D F^pi - F# E - (E^D F^pi)^2 E + E^D F^pi E F# E
               = E^D F^pi - lambda E
    """
    f_sharp, f_pi = df.drazin, df.spectral_idempotent
    core = de.drazin * f_pi
    gamma = f_pi * core
    lambda_blk = f_sharp + core * core - core * e * f_sharp
    delta = Matrix.identity(e.rows) - gamma * e
    return (gamma, delta, lambda_blk, core - lambda_blk * e), {}


def _thm31(e: Matrix, f: Matrix, de: DrazinResult, df: DrazinResult):
    """[[E, F], [F, 0]]^# under F E F^pi = 0, F group invertible (Thm 3.1).

    The blocks come from a factorization through N = [[E, I], [F^2, 0]],
    whose group inverse has corners

        alpha = E^D F^pi + E^pi F^pi E (F#)^2
        beta  = (F#)^2 + (E^D F^pi)^2 - E^pi F^pi E (F#)^2 E (F#)^2
                - E^D F^pi E (F#)^2
        gamma = F F#
        delta = -F F# E (F#)^2

    and M^# = [[E, I], [F, 0]] (N^#)^2 diag(I, F). The four corners are
    returned as extra ingredients.
    """
    f_sharp, f_pi = df.drazin, df.spectral_idempotent
    f_sharp2 = f_sharp * f_sharp
    core = de.drazin * f_pi
    edge = de.spectral_idempotent * f_pi * e * f_sharp2
    alpha = core + edge
    beta = f_sharp2 + core * core - alpha * e * f_sharp2
    gamma_n = f * f_sharp
    delta_n = -(gamma_n * e * f_sharp2)
    lifted_alpha = e * alpha + gamma_n
    lifted_beta = e * beta + delta_n
    gamma = lifted_alpha * alpha + lifted_beta * gamma_n
    delta = (lifted_alpha * beta + lifted_beta * delta_n) * f
    lambda_blk = f * (alpha * alpha + beta * gamma_n)
    xi = f * (alpha * beta + beta * delta_n) * f
    return (gamma, delta, lambda_blk, xi), {
        "alpha": alpha, "beta": beta, "gamma": gamma_n, "delta": delta_n,
    }


@dataclass(frozen=True)
class Rule:
    """One closed-form rule: its layout, conditions and route.

    ``standing`` then ``refusing`` is the order in which the conditions are
    reported and checked. The route is ``kernel``, run on (E^T, F^T) when
    ``mirrored``, or else the route of the rule named by ``delegate``. A
    kernel maps (E, F, drazin(E), drazin(F)) to the blocks (gamma, delta,
    lambda, xi) and a dict of extra ingredients.
    """

    shape: BlockShape
    standing: tuple[str, ...]
    refusing: tuple[str, ...] = ()
    kernel: Callable | None = None
    mirrored: bool = False
    delegate: str | None = None

    @property
    def conditions(self) -> tuple[str, ...]:
        return self.standing + self.refusing

    @property
    def blocker(self) -> str | None:
        """The existence condition that refusal instances break, if any."""
        return self.refusing[-1] if self.refusing else None


_F_GROUP = "F group-invertible"

RULES: dict[str, Rule] = {
    "thm2.1": Rule(BlockShape.EI_F0, ("FEF^pi=0",),
                   (_F_GROUP, "E^pi F^pi=0"), _thm21),
    "cor2.2": Rule(BlockShape.EF_I0, ("FEF^pi=0",),
                   (_F_GROUP, "E^pi F^pi=0"), _cor22),
    "thm2.3": Rule(BlockShape.EF_I0, ("F^pi EF=0",),
                   (_F_GROUP, "F^pi E^pi=0"), _thm21, mirrored=True),
    "cor2.4": Rule(BlockShape.EI_F0, ("F^pi EF=0",),
                   (_F_GROUP, "F^pi E^pi=0"), _cor22, mirrored=True),
    "cor2.5": Rule(BlockShape.EF_I0, _COMMUTATION_PAIR,
                   (_F_GROUP, "F^pi E^pi=0"), delegate="thm2.3"),
    "thm3.1": Rule(BlockShape.EF_F0, ("FEF^pi=0", _F_GROUP),
                   ("EE^pi F^pi=0",), _thm31),
    "cor3.2": Rule(BlockShape.EF_F0, ("F^pi EF=0", _F_GROUP),
                   ("F^pi E^pi E=0",), _thm31, mirrored=True),
    "cor3.3": Rule(BlockShape.EF_F0,
                   ("E group-invertible", _F_GROUP, "F^pi EF=0"),
                   kernel=_thm31, mirrored=True),
    "cor3.4": Rule(BlockShape.EF_F0,
                   (*_COMMUTATION_PAIR, "E group-invertible", _F_GROUP),
                   delegate="cor3.3"),
}

THEOREM_IDS = tuple(RULES)

SHAPE_FOR_THEOREM = {theorem: rule.shape for theorem, rule in RULES.items()}


def rule_for(theorem: str) -> Rule:
    """The table record of a theorem id; ValueError for an unknown id."""
    try:
        return RULES[theorem]
    except KeyError:
        raise ValueError(f"unknown theorem id {theorem!r}") from None


def check_conditions(e: Matrix, f: Matrix, theorem: str) -> ConditionReport:
    """Evaluate every hypothesis the named rule puts on (E, F).

    Each entry carries the residual matrix that must vanish for it to hold;
    the EF=lambda FE entry also carries the scalar when one exists.
    """
    _require_pair(e, f)
    return _full_report(theorem, e, f, drazin(e), drazin(f), {})


def _full_report(theorem: str, e: Matrix, f: Matrix, de: DrazinResult,
                 df: DrazinResult, evaluated: dict[str, Condition]
                 ) -> ConditionReport:
    """check_conditions' report, reusing the conditions in ``evaluated``."""
    rule = rule_for(theorem)
    return ConditionReport(theorem, tuple(
        evaluated[name] if name in evaluated
        else _evaluate(name, e, f, de, df)
        for name in rule.conditions
    ))


def _guard(rule: Rule, e: Matrix, f: Matrix, de: DrazinResult,
           df: DrazinResult) -> dict[str, Condition]:
    """Raise for the first of the rule's conditions that fails.

    Returns the conditions it evaluated, by name; the exception it raises
    carries them as ``_evaluated``. The two commutation laws are one
    either/or hypothesis: EF^2=FEF is evaluated only when EF=lambda FE
    fails, and a failure of both is reported with its residual.
    """
    evaluated: dict[str, Condition] = {}
    for name in rule.conditions:
        if name == "EF^2=FEF":
            continue
        condition = evaluated[name] = _evaluate(name, e, f, de, df)
        if name == "EF=lambda FE" and not condition.holds:
            name = "EF=lambda FE or EF^2=FEF"
            condition = evaluated["EF^2=FEF"] = _evaluate(
                "EF^2=FEF", e, f, de, df)
        if condition.holds:
            continue
        if name not in rule.refusing:
            error = HypothesisViolated(name, condition.residual)
        else:
            index = df.index if name == _F_GROUP else None
            error = NotGroupInvertible(
                f"no group inverse: F has Drazin index {index}" if index
                else f"no group inverse: {name} fails",
                index=index, condition=name,
            )
        error._evaluated = evaluated
        raise error
    return evaluated


def _transposed(result: DrazinResult) -> DrazinResult:
    return DrazinResult(result.drazin.transpose(), result.index,
                        result.spectral_idempotent.transpose())


def block_group_inverse(theorem: str, e: Matrix, f: Matrix) -> BlockGroupInverse:
    """Group inverse of the named rule's block matrix, from its closed form.

    Raises HypothesisViolated or NotGroupInvertible for the first of the
    rule's conditions that fails, in the order ``check_conditions`` lists
    them. ``intermediates`` holds E^D, F#, E^pi and F^pi, plus the corners
    of N^# for thm3.1. ``report`` equals ``check_conditions(e, f,
    theorem)`` and reuses the residuals the check above evaluated.
    """
    rule = rule_for(theorem)
    _require_pair(e, f)
    de, df = drazin(e), drazin(f)
    report = _full_report(theorem, e, f, de, df, _guard(rule, e, f, de, df))
    route = RULES[rule.delegate] if rule.delegate else rule
    if route.mirrored:
        # Transposing swaps the off-diagonal blocks. The ingredients of the
        # transposed problem are not kept.
        (gamma, lambda_blk, delta, xi), _ = route.kernel(
            e.transpose(), f.transpose(), _transposed(de), _transposed(df)
        )
        gamma, delta, lambda_blk, xi = (
            m.transpose() for m in (gamma, delta, lambda_blk, xi)
        )
        extras = {}
    else:
        (gamma, delta, lambda_blk, xi), extras = route.kernel(e, f, de, df)
    assembled = Matrix.from_blocks([[gamma, delta], [lambda_blk, xi]])
    return BlockGroupInverse(
        theorem, gamma, delta, lambda_blk, xi, assembled,
        {"E_D": de.drazin, "F_sharp": df.drazin,
         "E_pi": de.spectral_idempotent, "F_pi": df.spectral_idempotent,
         **extras},
        report,
    )

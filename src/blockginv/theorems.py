"""Closed-form group inverses for anti-triangular block matrices.

Three 2n x 2n layouts are covered, each built from a square pair (E, F):

    EI_F0 = [[E, I], [F, 0]]    EF_I0 = [[E, F], [I, 0]]    EF_F0 = [[E, F], [F, 0]]

The nine rules form one table, ``RULES``. A record holds the rule's
layout, its hypotheses in the order ``check_conditions`` reports them, and
its route to the four result blocks. Standing hypotheses come first: when
one fails the rule says nothing and HypothesisViolated is raised. Refusal
conditions follow: when one fails the rule certifies that the block matrix
has no group inverse and NotGroupInvertible is raised. The one walk that
builds a report records ``ConditionReport.first_failure``, and every
decision reads it. F^pi is the spectral idempotent I - F F^D of F, and
E^pi that of E.

Three formula kernels do all the block algebra: Theorem 2.1 for
[[E, I], [F, 0]] under F E F^pi = 0, Corollary 2.2 for the conjugate
layout [[E, F], [I, 0]] under the same hypothesis, and Theorem 3.1 for
[[E, F], [F, 0]]. The rules under the left-sided constraint F^pi E F = 0
(thm2.3, cor2.4, cor3.2, cor3.3) are their kernel's rule on (E^T, F^T):
transposing the block matrix turns their layout and hypotheses into the
kernel's, and swaps the two off-diagonal result blocks. The commutation
rules cor2.5 and cor3.4 are mirrored too, through thm2.3's and cor3.3's
kernels: either law, with F group invertible, forces F^pi E F = 0, so
both hold "F group-invertible" as standing. A mirrored rule transposes
(E, F) once, and its residuals and blocks back; the law keeps (E, F).

Every hypothesis is one name; the commutation either/or is the one
hypothesis "EF=lambda FE or EF^2=FEF", reported as its two laws.

In the kernel's orientation the constraint F E F^pi = 0 makes range(F^pi)
E-invariant, so no rule needs drazin(E). The kernel inputs and residuals
on E's Drazin data come from T = E F^pi: E^D F^pi = T^D and
E^pi F^pi = S = F^pi + T^pi - I. ``_report`` is the one reader of Drazin
data here: it calls drazin once on F and once on T, forms S once, and
hands the kernel its inputs, so ``block_group_inverse`` only raises or
runs the kernel. "E group-invertible" is decided by drazin_index(E). A
report reads drazin(E) only for a residual after a failed hypothesis,
because it lists every residual.

Each kernel forms E F# once, so they take three, four and five n x n
products. Theorem 3.1's blocks follow from Meyer and Rose's block
triangular formula in the basis that splits F (see _thm31).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from .ginverse import DrazinResult, NotGroupInvertible, drazin, drazin_index
from .matrices import Matrix, ShapeMismatch
from .scalars import ZERO, GaussianRational


class BlockShape(enum.Enum):
    """The three anti-triangular layouts, named by their top and left blocks."""

    EI_F0 = "EI_F0"
    EF_I0 = "EF_I0"
    EF_F0 = "EF_F0"


# The either/or hypothesis of cor2.5 and cor3.4: one of its two laws holds.
_COMMUTATION = "EF=lambda FE or EF^2=FEF"
_F_GROUP = "F group-invertible"


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
    """A rule's conditions and its first failing hypothesis (None if none).

    The either/or reports its two laws as two conditions; it fails when
    neither holds, under its own name and with the second law's residual.
    """

    theorem: str
    conditions: tuple[Condition, ...]
    first_failure: Condition | None

    def satisfied(self) -> bool:
        """True iff ``block_group_inverse`` would accept this pair."""
        return self.first_failure is None


@dataclass(frozen=True)
class BlockGroupInverse:
    """The four result blocks, the report, and their assembly on read."""

    theorem: str
    gamma: Matrix
    delta: Matrix
    lambda_blk: Matrix
    xi: Matrix
    report: ConditionReport

    @property
    def assembled(self) -> Matrix:
        return Matrix.from_blocks([[self.gamma, self.delta],
                                   [self.lambda_blk, self.xi]])


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


def _commutation(e: Matrix, f: Matrix) -> tuple[Condition, Condition]:
    """Decide EF = lambda FE and EF^2 = FEF from one pair of products.

    lambda is EF / FE at the first position, in row-major order, where
    both products are nonzero, and 0 when there is none; the scalar law
    holds exactly when the residual EF - lambda FE is zero. Any scalar
    that fits must equal that ratio, and with no such position only
    EF = 0 fits, which lambda = 0 meets. EF^2 - FEF is formed as
    (EF - FE) F, and is zero without a product when EF = FE.
    """
    ef = e * f
    fe = f * e
    lam = next((p / q for i in range(ef.rows)
                for p, q in zip(ef.row(i), fe.row(i)) if p and q), ZERO)
    residual = ef - lam * fe
    holds = residual.is_zero()
    diff = ef - fe
    aligned = diff if diff.is_zero() else diff * f
    return (Condition("EF=lambda FE", holds, residual, lam if holds else None),
            Condition("EF^2=FEF", aligned.is_zero(), aligned))


def _evaluate(hypothesis: str, e: Matrix, f: Matrix, df: DrazinResult,
              t: Matrix, dt: DrazinResult, s: Matrix, short: bool) -> Matrix:
    """The residual of one hypothesis on a kernel-oriented pair.

    T = E F^pi has Drazin data ``dt``; the one-sided constraint's residual
    is F T. ``short`` says that every earlier hypothesis held, which in
    every rule implies that constraint. Then S = F^pi + T^pi - I is
    E^pi F^pi, and the residuals on E's Drazin data are S and E S;
    E S = T T^pi vanishes exactly when T has index <= 1. Otherwise S comes
    from drazin(E).
    """
    zero, f_pi = Matrix.zeros(e.rows, e.rows), df.spectral_idempotent
    # Index <= 1 is exactly when F F^pi (E E^pi) vanishes: skip the product.
    if hypothesis == _F_GROUP:
        return zero if df.index <= 1 else f * f_pi
    if hypothesis == "E group-invertible":
        return (zero if drazin_index(e) <= 1
                else e * drazin(e).spectral_idempotent)
    if hypothesis in ("FEF^pi=0", "F^pi EF=0"):
        return f * t
    if not short:
        s = drazin(e).spectral_idempotent * f_pi
    if hypothesis in ("E^pi F^pi=0", "F^pi E^pi=0"):
        return s
    return zero if short and dt.index <= 1 else e * s


def _thm21(e: Matrix, f_sharp: Matrix, f_pi: Matrix, core: Matrix,
           side: Matrix):
    """[[E, I], [F, 0]]^# under F E F^pi = 0 (Theorem 2.1).

        gamma  = E^D F^pi
        delta  = F# + E^D F^pi (E^D F^pi - E F#)
        lambda = F F# = I - F^pi
        xi     = -F F# E F#
    """
    e_f_sharp = e * f_sharp
    delta = f_sharp + core * (core - e_f_sharp)
    projector = Matrix.identity(e.rows) - f_pi
    return core, delta, projector, -(projector * e_f_sharp)


def _cor22(e: Matrix, f_sharp: Matrix, f_pi: Matrix, core: Matrix,
           side: Matrix):
    """[[E, F], [I, 0]]^# under F E F^pi = 0 (Corollary 2.2).

    The layout is conjugate to Theorem 2.1's via P = [[0, I], [I, -E]]:

        gamma  = F^pi E^D F^pi = E^D F^pi
        delta  = I - F^pi E^D F^pi E
        lambda = F# + E^D F^pi (E^D F^pi - E F#)
        xi     = E^D F^pi - F# E - (E^D F^pi)^2 E + E^D F^pi E F# E
               = E^D F^pi - lambda E

    F^pi drops from gamma because E^D F^pi = (E F^pi)^D has its range in
    that of E F^pi, inside range(F^pi).
    """
    lambda_blk = f_sharp + core * (core - e * f_sharp)
    delta = Matrix.identity(e.rows) - core * e
    return core, delta, lambda_blk, core - lambda_blk * e


def _thm31(e: Matrix, f_sharp: Matrix, f_pi: Matrix, core: Matrix,
           side: Matrix):
    """[[E, F], [F, 0]]^# under F E F^pi = 0, F group invertible (Thm 3.1).

    In a basis where F = diag(C, 0) with C invertible, F E F^pi = 0 makes
    E = [[A, 0], [X, D]]. Ordered (x1, y1 | x2, y2), M is block lower
    triangular [[K, 0], [L, N]] with K = [[A, C], [C, 0]] invertible,
    L = [[X, 0], [0, 0]] and N = diag(D, 0), and E E^pi F^pi = 0 makes D
    group invertible. Meyer and Rose's formula (SIAM J. Appl. Math. 33,
    1977), M^# = [[K^-1, 0], [N^pi L K^-2 - N^# L K^-1, N^#]], then gives

        gamma  = alpha = E^D F^pi + E^pi F^pi E (F#)^2
        delta  = F# - alpha E F#
        lambda = F#
        xi     = -F# E F#

    in five products.
    """
    e_f_sharp = e * f_sharp
    alpha = core + side * e_f_sharp * f_sharp
    return alpha, f_sharp - alpha * e_f_sharp, f_sharp, -(f_sharp * e_f_sharp)


@dataclass(frozen=True)
class Rule:
    """One closed-form rule: its layout, hypotheses and route.

    ``standing`` then ``refusing`` is the order in which the hypotheses are
    reported and decided; each is one name. A kernel maps
    (E, F#, F^pi, E^D F^pi, E^pi F^pi) to the four blocks
    (gamma, delta, lambda, xi). A ``mirrored`` rule is its kernel's rule on
    (E^T, F^T): its hypotheses are evaluated there, and its residuals and
    blocks are transposed back.
    """

    shape: BlockShape
    standing: tuple[str, ...]
    refusing: tuple[str, ...]
    kernel: Callable
    mirrored: bool = False

    @property
    def hypotheses(self) -> tuple[str, ...]:
        return self.standing + self.refusing

    @property
    def blocker(self) -> str | None:
        """The existence condition that refusal instances break, if any."""
        return self.refusing[-1] if self.refusing else None


RULES: dict[str, Rule] = {
    "thm2.1": Rule(BlockShape.EI_F0, ("FEF^pi=0",),
                   (_F_GROUP, "E^pi F^pi=0"), _thm21),
    "cor2.2": Rule(BlockShape.EF_I0, ("FEF^pi=0",),
                   (_F_GROUP, "E^pi F^pi=0"), _cor22),
    "thm2.3": Rule(BlockShape.EF_I0, ("F^pi EF=0",),
                   (_F_GROUP, "F^pi E^pi=0"), _thm21, mirrored=True),
    "cor2.4": Rule(BlockShape.EI_F0, ("F^pi EF=0",),
                   (_F_GROUP, "F^pi E^pi=0"), _cor22, mirrored=True),
    "cor2.5": Rule(BlockShape.EF_I0, (_COMMUTATION, _F_GROUP),
                   ("F^pi E^pi=0",), _thm21, mirrored=True),
    "thm3.1": Rule(BlockShape.EF_F0, ("FEF^pi=0", _F_GROUP),
                   ("EE^pi F^pi=0",), _thm31),
    "cor3.2": Rule(BlockShape.EF_F0, ("F^pi EF=0", _F_GROUP),
                   ("F^pi E^pi E=0",), _thm31, mirrored=True),
    "cor3.3": Rule(BlockShape.EF_F0,
                   ("E group-invertible", _F_GROUP, "F^pi EF=0"), (),
                   _thm31, mirrored=True),
    "cor3.4": Rule(BlockShape.EF_F0,
                   (_COMMUTATION, "E group-invertible", _F_GROUP), (),
                   _thm31, mirrored=True),
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
    return _report(theorem, e, f)[0]


def _report(theorem: str, e: Matrix, f: Matrix
            ) -> tuple[ConditionReport, DrazinResult, tuple[Matrix, ...]]:
    """The report, F's Drazin data and the kernel inputs.

    A mirrored rule transposes (E, F) once, here; every hypothesis but the
    commutation law is evaluated on that kernel-oriented pair and its
    residual transposed back. The law's lambda is read in row-major order,
    so it stays on (E, F) as given. drazin runs once on F, then once on
    T = E F^pi, and S = F^pi + T^pi - I is formed once; every residual is
    read from them, and from drazin(E) only after a failed hypothesis. The
    inputs (E, F#, F^pi, T^D, S) are the kernel's
    (E, F#, F^pi, E^D F^pi, E^pi F^pi) when every hypothesis holds.
    """
    rule = rule_for(theorem)
    _require_pair(e, f)
    back = Matrix.transpose if rule.mirrored else (lambda m: m)
    ke, kf = back(e), back(f)
    df = drazin(kf)
    f_pi = df.spectral_idempotent
    t = ke * f_pi
    dt = drazin(t)
    s = f_pi + dt.spectral_idempotent - Matrix.identity(e.rows)
    conditions, failure = [], None
    for hypothesis in rule.hypotheses:
        if hypothesis == _COMMUTATION:
            found = _commutation(e, f)
        else:
            residual = back(_evaluate(hypothesis, ke, kf, df, t, dt, s,
                                      failure is None))
            found = (Condition(hypothesis, residual.is_zero(), residual),)
        conditions += found
        if failure is None and not any(c.holds for c in found):
            failure = Condition(hypothesis, False, found[-1].residual)
    report = ConditionReport(theorem, tuple(conditions), failure)
    return report, df, (ke, df.drazin, f_pi, dt.drazin, s)


def block_group_inverse(theorem: str, e: Matrix, f: Matrix) -> BlockGroupInverse:
    """Group inverse of the named rule's block matrix, from its closed form.

    The full condition report is built first and equals ``check_conditions(e,
    f, theorem)``. When its ``first_failure`` is a standing hypothesis,
    HypothesisViolated is raised; when it is a refusal condition,
    NotGroupInvertible. Either exception carries the report as ``report``.
    Otherwise every hypothesis held, and the kernel runs on the inputs that
    ``_report`` formed from the Drazin data of F and T.
    """
    report, df, inputs = _report(theorem, e, f)
    rule = RULES[theorem]
    failure = report.first_failure
    if failure is not None:
        name = failure.name
        if name not in rule.refusing:
            error = HypothesisViolated(name, failure.residual)
        else:
            index = df.index if name == _F_GROUP else None
            error = NotGroupInvertible(
                f"no group inverse: F has Drazin index {index}" if index
                else f"no group inverse: {name} fails",
                index=index, condition=name,
            )
        error.report = report
        raise error
    gamma, delta, lambda_blk, xi = rule.kernel(*inputs)
    if rule.mirrored:
        # Transposing swaps the off-diagonal blocks.
        gamma, delta, lambda_blk, xi = (
            m.transpose() for m in (gamma, lambda_blk, delta, xi))
    return BlockGroupInverse(theorem, gamma, delta, lambda_blk, xi, report)

"""Closed-form group inverses for anti-triangular block matrices.

Three 2n x 2n layouts are covered, each built from a square pair (E, F):

    EI_F0 = [[E, I], [F, 0]]    EF_I0 = [[E, F], [I, 0]]    EF_F0 = [[E, F], [F, 0]]

The nine rules form one table, ``RULES``. A record holds the rule's
layout, its hypotheses in the order ``check_conditions`` reports them, and
its route to the four result blocks. Standing hypotheses come first: when
one fails the rule says nothing and HypothesisViolated is raised. Refusal
conditions follow: when one fails the rule certifies that the block matrix
has no group inverse and NotGroupInvertible is raised. The one walk that
builds a report records ``ConditionReport.first_failure``, and
``block_group_inverse`` raises or runs the kernel from it alone. F^pi is
the spectral idempotent I - F F^D of F, and E^pi that of E.

Three formula kernels do all the block algebra: Theorem 2.1 for
[[E, I], [F, 0]] under F E F^pi = 0, Corollary 2.2 for the conjugate
layout [[E, F], [I, 0]] under the same hypothesis, and Theorem 3.1 for
[[E, F], [F, 0]]. The rules under the left-sided constraint F^pi E F = 0
(thm2.3, cor2.4, cor3.2, cor3.3) are their kernel's rule on (E^T, F^T):
transposing the block matrix turns their layout and hypotheses into the
kernel's, and swaps the two off-diagonal result blocks. The commutation
rules cor2.5 and cor3.4 are mirrored too, through thm2.3's and cor3.3's
kernels: either law, with F group invertible, forces F^pi E F = 0, so
both hold "F group-invertible" as standing. cor2.5's report still checks
F^pi E F = 0, as the split that its refusal condition reads. A mirrored
rule transposes (E, F) once, and its residuals and blocks back; the law
keeps (E, F).

Every hypothesis is one name; the commutation either/or is the one
hypothesis "EF=lambda FE or EF^2=FEF", reported as its two laws.

In the kernel's orientation the pair is split when F has index <= 1 and
F E F^pi = 0, which makes range(F^pi) E-invariant; on a split pair no
rule needs drazin(E). The kernel inputs and residuals on E's Drazin data
are those of T = E F^pi: E^D F^pi = T^D and E^pi F^pi = S =
F^pi + T^pi - I. T is never formed. For F of index <= 1, F^pi = G H with
H G = I_q, q = n - rank(F), read off the rref of F's own first Cline
step, and T = (E G) H has its Drazin data from the q x q matrix
W = H E G, by Cline's (BC)^D = B ((CB)^D)^2 C. ``_report`` is the one
reader of Drazin data here: it calls drazin once on F and, when F is
group invertible and a verdict or the kernel reads W, once on W, and
decides each hypothesis from indices and n x q products (see
``_evaluate``). cor3.3's and cor3.4's hypotheses never read W, so their
reports form no W, and cor3.4's no E G, until the kernel runs.
F E F^pi = 0 iff F E G = 0, so the constraint's verdict is
``_Oriented.split``. On a split pair
E^pi F^pi = 0 iff W has index 0, and E E^pi F^pi = 0 iff W has index
<= 1, whichever of the rule's other hypotheses fail; on any other pair
they are decided from drazin(E). Each verdict is thus a function of the
kernel-oriented pair alone, not of the order of the hypotheses. For F of
index >= 2 the constraint's residual is F (E F^pi), formed; nothing
reads W. "E group-invertible" is decided by drazin_index(E). A held
hypothesis has the zero residual, and every other residual is formed
when it is read. The kernel inputs T^D and S are formed only when the
kernel runs, on a split pair, so ``block_group_inverse`` only raises or
runs the kernel.

Each kernel forms E F# once, so they take three, four and five n x n
products. Theorem 3.1's blocks follow from Meyer and Rose's block
triangular formula in the basis that splits F (see _thm31).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .ginverse import (DrazinResult, NotGroupInvertible, _spectral_factors,
                       drazin, drazin_index)
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
    failed hypothesis; ``residual``, a matrix that would be zero if it held,
    is the report's failing residual, formed on first read.
    """

    def __init__(self, condition: str, report: ConditionReport | None = None):
        super().__init__(f"hypothesis does not hold: {condition}")
        self.condition = condition
        self.report = report

    @property
    def residual(self) -> Matrix | None:
        if self.report is None or self.report.first_failure is None:
            return None
        return self.report.first_failure.residual


class Condition:
    """One named hypothesis with its witnessing residual (zero iff it holds).

    The residual may be given as a function of no arguments, which forms
    it on first read; it is then kept. Pickling forms it, so a report
    crosses to another process as plain matrices. Equality compares the
    name, the verdict, the formed residual and lambda.
    """

    __slots__ = ("name", "holds", "_residual", "lam")

    def __init__(self, name: str, holds: bool,
                 residual: Matrix | Callable[[], Matrix],
                 lam: GaussianRational | None = None):
        self.name, self.holds, self._residual, self.lam = (
            name, holds, residual, lam)

    @property
    def residual(self) -> Matrix:
        if not isinstance(self._residual, Matrix):
            self._residual = self._residual()
        return self._residual

    def _fields(self) -> tuple:
        return self.name, self.holds, self.residual, self.lam

    def __eq__(self, other) -> bool:
        if not isinstance(other, Condition):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return Condition, self._fields()

    def __repr__(self) -> str:
        return "Condition({!r}, {!r}, {!r}, {!r})".format(*self._fields())


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


class _Oriented:
    """A kernel-oriented pair (E, F) and the Drazin data its rule reads.

    For F of index <= 1, F^pi = G H with H G = I, G n x q and H q x n
    (``_spectral_factors``), so T = E F^pi = (E G) H and Cline's identity
    gives T's Drazin data from the q x q matrix W = H E G:
    T^D = E G (W^D)^2 H. drazin runs on F and W, never on T.

    The pair is split when F has index <= 1 and F E G = 0, H having full
    row rank, that is F E F^pi = 0. Then range(G) = null(F) is
    E-invariant: E G = G W, and in the basis that splits F, E is
    [[A, 0], [X, D]] with D similar to W. ``split`` is decided on first
    read, from the one n x q product F E G, which it keeps as ``feg``.
    E G, ``eg``, and W's Drazin data, ``dw``, are likewise formed on first
    read, so a report whose verdicts never read W forms no W.
    """

    def __init__(self, e: Matrix, f: Matrix):
        self.e, self.f, self.df = e, f, drazin(f)
        self.f_pi = self.df.spectral_idempotent
        if self.df.index <= 1:
            self.g, self.h = _spectral_factors(self.df)

    @cached_property
    def eg(self) -> Matrix:
        return self.e * self.g

    @cached_property
    def dw(self) -> DrazinResult:
        return drazin(self.h * self.eg)

    @cached_property
    def feg(self) -> Matrix:
        return self.f * self.eg

    @property
    def split(self) -> bool:
        return self.df.index <= 1 and self.feg.is_zero()

    def kernel_inputs(self) -> tuple[Matrix, ...]:
        """(E, F#, F^pi, T^D, S) on a split pair.

        There E G = G W, so T^D = G W^D H and
        S = E^pi F^pi = (G - E G W^D) H, which is 0 when W is invertible.
        """
        n, w_d = self.e.rows, self.dw.drazin
        side = (Matrix.zeros(n, n) if self.dw.index == 0
                else (self.g - self.eg * w_d) * self.h)
        return self.e, self.df.drazin, self.f_pi, self.g * w_d * self.h, side


def _evaluate(hypothesis: str, pair: _Oriented
              ) -> tuple[bool, Callable[[], Matrix]]:
    """Whether one hypothesis holds on a kernel-oriented pair, and a
    function that forms its residual.

    The one-sided constraint F E F^pi = 0 holds iff the pair is split; its
    residual F T is F E G H for F of index <= 1 and is formed otherwise.
    On a split pair E^pi, a polynomial in E, acts on range(G) as W^pi, so
    E^pi F^pi = G W^pi H vanishes iff W has index 0, and E E^pi F^pi =
    G W W^pi H iff W has index <= 1; their residuals,
    (G - E G W^D) H and E G W^pi H, are formed only when read. On any
    other pair E^pi F^pi comes from drazin(E).
    """
    e, f, f_pi = pair.e, pair.f, pair.f_pi
    # Index <= 1 is exactly when F F^pi (E E^pi) vanishes.
    if hypothesis == _F_GROUP:
        return pair.df.index <= 1, lambda: f * f_pi
    if hypothesis == "E group-invertible":
        return (drazin_index(e) <= 1,
                lambda: e * drazin(e).spectral_idempotent)
    if hypothesis in ("FEF^pi=0", "F^pi EF=0"):
        if pair.df.index <= 1:
            return pair.split, lambda: pair.feg * pair.h
        ft = f * (e * f_pi)
        return ft.is_zero(), lambda: ft
    e_pi_f_pi = hypothesis in ("E^pi F^pi=0", "F^pi E^pi=0")
    if pair.split:
        dw = pair.dw
        if e_pi_f_pi:
            return (dw.index == 0,
                    lambda: (pair.g - pair.eg * dw.drazin) * pair.h)
        return (dw.index <= 1,
                lambda: pair.eg * dw.spectral_idempotent * pair.h)
    s = drazin(e).spectral_idempotent * f_pi
    residual = s if e_pi_f_pi else e * s
    return residual.is_zero(), lambda: residual


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
            ) -> tuple[ConditionReport, _Oriented]:
    """The report and the kernel-oriented pair it was read from.

    A mirrored rule transposes (E, F) once, here; every hypothesis but the
    commutation law is evaluated on that kernel-oriented pair and its
    residual transposed back. The law's lambda is read in row-major order,
    so it stays on (E, F) as given. drazin runs once on F and, when F is
    group invertible and W is read, once on W (see ``_Oriented``); every
    decision is read from their indices and from products through G, and
    from drazin(E) only on a pair that does not split. A held hypothesis
    has the zero residual; any other residual is formed when it is read.
    """
    rule = rule_for(theorem)
    n = _require_pair(e, f)
    back = Matrix.transpose if rule.mirrored else (lambda m: m)
    pair, zero = _Oriented(back(e), back(f)), Matrix.zeros(n, n)
    conditions, failure = [], None
    for hypothesis in rule.hypotheses:
        if hypothesis == _COMMUTATION:
            found = _commutation(e, f)
        else:
            holds, formed = _evaluate(hypothesis, pair)
            found = (Condition(hypothesis, holds, zero if holds
                               else lambda formed=formed: back(formed())),)
        conditions += found
        if failure is None and not any(c.holds for c in found):
            failure = (found[-1] if found[-1].name == hypothesis
                       else Condition(hypothesis, False, found[-1].residual))
    return ConditionReport(theorem, tuple(conditions), failure), pair


def block_group_inverse(theorem: str, e: Matrix, f: Matrix) -> BlockGroupInverse:
    """Group inverse of the named rule's block matrix, from its closed form.

    The full condition report is built first and equals ``check_conditions(e,
    f, theorem)``. When its ``first_failure`` is a standing hypothesis,
    HypothesisViolated is raised; when it is a refusal condition,
    NotGroupInvertible. Either exception carries the report as ``report``.
    Otherwise every hypothesis held, and the kernel runs on the inputs that
    the report's oriented pair forms from the Drazin data of F and W.
    """
    report, pair = _report(theorem, e, f)
    rule = RULES[theorem]
    failure = report.first_failure
    if failure is not None and failure.name not in rule.refusing:
        raise HypothesisViolated(failure.name, report)
    if failure is not None:
        index = pair.df.index if failure.name == _F_GROUP else None
        raise NotGroupInvertible(
            f"no group inverse: F has Drazin index {index}" if index
            else f"no group inverse: {failure.name} fails",
            index=index, condition=failure.name, report=report)
    gamma, delta, lambda_blk, xi = rule.kernel(*pair.kernel_inputs())
    if rule.mirrored:
        # Transposing swaps the off-diagonal blocks.
        gamma, delta, lambda_blk, xi = (
            m.transpose() for m in (gamma, lambda_blk, delta, xi))
    return BlockGroupInverse(theorem, gamma, delta, lambda_blk, xi, report)

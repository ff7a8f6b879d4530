"""Exact Drazin and group inverses over the Gaussian rationals.

Scalars are pairs of ``fractions.Fraction``; a matrix is stored as
Gaussian-integer numerators over one shared denominator, so products and
elimination run on Gaussian integers. Results are exact and every
equality check is literal. The ``theorems`` module carries
closed-form group inverses for three anti-triangular block layouts, one
table of nine rules over three formula kernels; the ``generators`` module
draws seeded random instances and checks the closed forms against the
from-scratch computation.
"""

from .scalars import (
    I,
    ONE,
    ZERO,
    GaussianRational,
    ScalarParseError,
    parse_scalar,
)
from .matrices import (
    Matrix,
    ShapeMismatch,
    SingularMatrix,
    column_space_basis,
    inverse,
    kernel_basis,
    rank,
    rref,
)
from .ginverse import (
    DrazinResult,
    NotGroupInvertible,
    block_triangular_drazin,
    cline,
    drazin,
    drazin_index,
    group_inverse,
)
from .theorems import (
    SHAPE_FOR_THEOREM,
    THEOREM_IDS,
    BlockGroupInverse,
    BlockShape,
    Condition,
    ConditionReport,
    HypothesisViolated,
    assemble_M,
    block_group_inverse,
    check_conditions,
)
from .generators import (
    GenerationExhausted,
    GenSpec,
    Trial,
    Verdict,
    VerificationReport,
    gen_pair,
    run_campaign,
    verify_instance,
)

__version__ = "0.1.0"

__all__ = [
    "I",
    "ONE",
    "ZERO",
    "GaussianRational",
    "ScalarParseError",
    "parse_scalar",
    "Matrix",
    "ShapeMismatch",
    "SingularMatrix",
    "column_space_basis",
    "inverse",
    "kernel_basis",
    "rank",
    "rref",
    "DrazinResult",
    "NotGroupInvertible",
    "block_triangular_drazin",
    "cline",
    "drazin",
    "drazin_index",
    "group_inverse",
    "SHAPE_FOR_THEOREM",
    "THEOREM_IDS",
    "BlockGroupInverse",
    "BlockShape",
    "Condition",
    "ConditionReport",
    "HypothesisViolated",
    "assemble_M",
    "block_group_inverse",
    "check_conditions",
    "GenerationExhausted",
    "GenSpec",
    "Trial",
    "Verdict",
    "VerificationReport",
    "gen_pair",
    "run_campaign",
    "verify_instance",
    "__version__",
]

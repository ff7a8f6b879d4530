"""Shared helpers: literal matrix construction, a call spy, the split
check, hypothesis strategies and tables of malformed scalar strings."""

import sys

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from blockginv.matrices import Matrix
from blockginv.scalars import GaussianRational, parse_scalar
from blockginv.theorems import _Oriented

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def mat(rows):
    """Build a Matrix from lists of scalar strings or integers."""
    return Matrix.from_rows([
        [parse_scalar(x) if isinstance(x, str) else GaussianRational(x)
         for x in row]
        for row in rows
    ])


def rows_of(m):
    """The matrix's entries as a list of row lists, read by ``Matrix.row``."""
    return [list(m.row(i)) for i in range(m.rows)]


def split_complaints(pairs):
    """(complaints, flipped) over pairs (E, F), each as given and transposed.

    Wherever F has index <= 1, ``_Oriented``'s split verdict must equal
    whether F E G is zero, and on a split pair its W must equal H (E G).
    ``flipped`` counts the pairs where drazin factored F^T, which decide
    the split by G W = E G.
    """
    complaints, flipped = [], 0
    for e, f in pairs:
        for e, f in ((e, f), (e.transpose(), f.transpose())):
            pair = _Oriented(e, f)
            if pair.df.index > 1:
                continue
            flipped += pair.df.index == 1 and pair.df._step[3]
            if pair.split != (f * pair.eg).is_zero():
                complaints.append(f"split {pair.split} on E, F = {e}, {f}")
            elif pair.split and pair.w != pair.h * pair.eg:
                complaints.append(f"W {pair.w} on E, F = {e}, {f}")
    return complaints, flipped


PROJ = [["1", "0"], ["0", "0"]]
RIGHT_BREAKER = ([["0", "1"], ["0", "0"]], PROJ, "FEF^pi=0")
LEFT_BREAKER = ([["0", "0"], ["1", "0"]], PROJ, "F^pi EF=0")
NO_LAW = ([["1", "1"], ["0", "1"]], [["1", "0"], ["1", "1"]],
          "EF=lambda FE or EF^2=FEF")
# A pair breaking each rule's first standing hypothesis, and its name.
FIRST_STANDING_BREAKERS = {
    "thm2.1": RIGHT_BREAKER,
    "cor2.2": RIGHT_BREAKER,
    "thm2.3": LEFT_BREAKER,
    "cor2.4": LEFT_BREAKER,
    "cor2.5": NO_LAW,
    "thm3.1": RIGHT_BREAKER,
    "cor3.2": LEFT_BREAKER,
    "cor3.3": ([["0", "1"], ["0", "0"]], [["1", "0"], ["0", "1"]],
               "E group-invertible"),
    "cor3.4": NO_LAW,
}

# The either/or hypothesis of cor2.5 and cor3.4, and the two laws it reports.
COMMUTATION_LAWS = {"EF=lambda FE or EF^2=FEF": ("EF=lambda FE", "EF^2=FEF")}

# Every condition a rule reports, in report order.
CONDITION_NAMES = {
    "thm2.1": ["FEF^pi=0", "F group-invertible", "E^pi F^pi=0"],
    "cor2.2": ["FEF^pi=0", "F group-invertible", "E^pi F^pi=0"],
    "thm2.3": ["F^pi EF=0", "F group-invertible", "F^pi E^pi=0"],
    "cor2.4": ["F^pi EF=0", "F group-invertible", "F^pi E^pi=0"],
    "cor2.5": ["EF=lambda FE", "EF^2=FEF", "F group-invertible",
               "F^pi E^pi=0"],
    "thm3.1": ["FEF^pi=0", "F group-invertible", "EE^pi F^pi=0"],
    "cor3.2": ["F^pi EF=0", "F group-invertible", "F^pi E^pi E=0"],
    "cor3.3": ["E group-invertible", "F group-invertible", "F^pi EF=0"],
    "cor3.4": ["EF=lambda FE", "EF^2=FEF", "E group-invertible",
               "F group-invertible"],
}


# Each condition's defining product, the matrix that vanishes exactly when it
# holds, from (E, F, E^pi, F^pi).
DEFINITIONS = {
    "FEF^pi=0": lambda e, f, e_pi, f_pi: f * e * f_pi,
    "F^pi EF=0": lambda e, f, e_pi, f_pi: f_pi * e * f,
    "F group-invertible": lambda e, f, e_pi, f_pi: f * f_pi,
    "E group-invertible": lambda e, f, e_pi, f_pi: e * e_pi,
    "E^pi F^pi=0": lambda e, f, e_pi, f_pi: e_pi * f_pi,
    "F^pi E^pi=0": lambda e, f, e_pi, f_pi: f_pi * e_pi,
    "EE^pi F^pi=0": lambda e, f, e_pi, f_pi: e * e_pi * f_pi,
    "F^pi E^pi E=0": lambda e, f, e_pi, f_pi: f_pi * e_pi * e,
    "EF^2=FEF": lambda e, f, e_pi, f_pi: e * f * f - f * e * f,
}


def holds(report, name):
    """Whether the report's condition of that name holds."""
    return next(c.holds for c in report.conditions if c.name == name)


def spy(patch, owner, name, result=False):
    """Record every call of owner.name, then pass it on to the original.

    ``patch`` is a ``monkeypatch`` or one of its ``context()`` patches, and
    sets the scope of the spy. A record is the call's positional arguments,
    taken before the call, or with ``result`` the pair (arguments, result),
    taken after it. Returns the list of records, which the caller may clear.
    """
    original, calls = getattr(owner, name), []

    def recorded(*args):
        if not result:
            calls.append(args)
            return original(*args)
        value = original(*args)
        calls.append((args, value))
        return value

    patch.setattr(owner, name, recorded)
    return calls


# Malformed scalar strings and the offset each one's error names.
REJECTED_SCALARS = [
    ("1//2", 2),
    ("2/0", 2),
    ("abc", 0),
    ("", 0),
    ("1+2", 2),
    ("i+1", 1),
    ("1 2", 2),
    ("1 +\t2", 4),
    ("1+2i3", 4),
    ("1/", 2),
    ("--1", 1),
    ("+1", 0),
    ("\u0663", 0),
    ("\u00b2", 0),
    ("1/\u0663", 2),
    ("1+\u00b2i", 2),
]
# A digit run one past Python's int-conversion limit, and templates that
# place it in a scalar, each with the offset of the run.
TOO_MANY_DIGITS = "9" * (sys.get_int_max_str_digits() + 1)
DIGIT_LIMIT_TEMPLATES = [("{}", 0), ("-{}i", 1), ("1/{}", 2), ("1+{}/2i", 2)]


_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def scalars():
    return st.builds(GaussianRational, _fractions, _fractions)


def nonzero_scalars():
    return scalars().filter(bool)


def square_matrices(min_n=1, max_n=3):
    def build(n):
        return st.lists(
            st.lists(scalars(), min_size=n, max_size=n),
            min_size=n, max_size=n,
        ).map(Matrix.from_rows)
    return st.integers(min_n, max_n).flatmap(build)


def matrices_of(rows, cols):
    """rows x cols matrices; either size may be 0."""
    return st.lists(scalars(), min_size=rows * cols,
                    max_size=rows * cols).map(
        lambda entries: Matrix(rows, cols, entries))


def strictly_upper(n):
    """Strictly upper triangular, hence nilpotent, n x n matrices."""
    def build(entries):
        it = iter(entries)
        return Matrix(n, n, [next(it) if j > i else GaussianRational(0)
                             for i in range(n) for j in range(n)])
    return st.lists(scalars(), min_size=n * (n - 1) // 2,
                    max_size=n * (n - 1) // 2).map(build)


def singular_square_matrices(min_n=0, max_n=6):
    """X Y U + V: X is n x r, Y is r x n, U and V strictly upper triangular.

    The first column is zero, so every draw with n >= 1 is singular, and
    r = 0 gives a nilpotent V. Keeping r <= n/2 leaves room for the
    nilpotent part: about a third of the draws have index 2 or more.
    """
    def build(n):
        return st.integers(0, n // 2).flatmap(lambda r: st.builds(
            lambda x, y, u, v: x * y * u + v,
            matrices_of(n, r), matrices_of(r, n), strictly_upper(n),
            strictly_upper(n),
        ))
    return st.integers(min_n, max_n).flatmap(build)


def rect_matrices(max_dim=3):
    def build(dims):
        rows, cols = dims
        return st.lists(
            st.lists(scalars(), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows,
        ).map(Matrix.from_rows)
    return st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim)
    ).flatmap(build)

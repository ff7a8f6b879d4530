"""Exact scalar arithmetic over the Gaussian rationals Q(i).

A scalar is (a/b) + (c/d)i with both parts kept as ``fractions.Fraction``
values and combined only through Fraction's public arithmetic, so each
part stays in lowest terms with a positive denominator and nothing ever
rounds. Matrices keep their own integer storage (see ``matrices``) and
build a GaussianRational only when an entry is read; the arithmetic here
serves single values, such as ``parse_scalar``'s result and the scalar of
the commutation law EF = lambda FE. Parsed matrix input never becomes
GaussianRationals: ``scalar_parts``, the one scanner of the scalar
grammar, gives each entry's integer parts, and ``Matrix.from_parts``
stores them directly. Arithmetic accepts int, Fraction and
GaussianRational operands and returns NotImplemented for any other, a rule
that ``_operators`` states once; the constructor takes int and Fraction
parts and raises TypeError for any other.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_ZERO = Fraction(0)
# ASCII only: \d would also match other scripts' digits, such as U+0663.
_DIGIT_RUN = re.compile("[0-9]+")
_BLANKS = re.compile("[ \t]*")


class ScalarParseError(ValueError):
    """A scalar string that does not match the grammar.

    ``offset`` is the byte position of the first offending character (the
    grammar is pure ASCII, so byte and character offsets coincide).
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset

    def __reduce__(self):
        # Rebuilt from the formatted message, past __init__.
        return BaseException.__new__, (type(self), *self.args), self.__dict__


def _operators(op, symmetric=False):
    """The forward and reflected methods of the binary operation op(a, b).

    Each coerces its other operand through ``GaussianRational._coerce``
    and returns NotImplemented when that is not an int, a Fraction or a
    GaussianRational, so Python can try the other operand's method. For a
    symmetric op the reflected method is the forward one itself.
    """
    def forward(self, other):
        other = GaussianRational._coerce(other)
        return NotImplemented if other is None else op(self, other)

    def reflected(self, other):
        other = GaussianRational._coerce(other)
        return NotImplemented if other is None else op(other, self)

    return forward, forward if symmetric else reflected


class GaussianRational:
    """An element of Q(i); immutable, hashable, truthy iff nonzero."""

    __slots__ = ("re", "im")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"cannot use {type(part).__name__} as a "
                                "part; use int or Fraction")
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def _new(cls, re: Fraction, im: Fraction) -> GaussianRational:
        # Internal fast constructor: both arguments must already be Fractions.
        obj = object.__new__(cls)
        obj.re = re
        obj.im = im
        return obj

    @staticmethod
    def _coerce(value) -> GaussianRational | None:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational._new(Fraction(value), _ZERO)
        return None

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    __eq__ = _operators(lambda a, b: a.re == b.re and a.im == b.im)[0]

    def __hash__(self):
        # Matches the numeric tower for real values, so x == 2 implies
        # hash(x) == hash(2).
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    __add__, __radd__ = _operators(
        lambda a, b: GaussianRational._new(a.re + b.re, a.im + b.im),
        symmetric=True)
    __sub__, __rsub__ = _operators(
        lambda a, b: GaussianRational._new(a.re - b.re, a.im - b.im))
    __mul__, __rmul__ = _operators(
        lambda a, b: GaussianRational._new(a.re * b.re - a.im * b.im,
                                           a.re * b.im + a.im * b.re),
        symmetric=True)
    __truediv__, __rtruediv__ = _operators(lambda a, b: a * b.inverse())

    def __neg__(self) -> GaussianRational:
        return GaussianRational._new(-self.re, -self.im)

    def inverse(self) -> GaussianRational:
        """Multiplicative inverse; raises ZeroDivisionError at zero."""
        norm = self.re * self.re + self.im * self.im
        if not norm:
            raise ZeroDivisionError("zero has no inverse in Q(i)")
        return GaussianRational._new(self.re / norm, -self.im / norm)

    def __str__(self) -> str:
        return scalar_text(self.re.numerator, self.re.denominator,
                           self.im.numerator, self.im.denominator)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def scalar_text(re: int, re_den: int, im: int, im_den: int) -> str:
    """The scalar syntax of re/re_den + (im/im_den)i, each part written in
    lowest terms; the denominators must be positive."""
    g, h = gcd(re, re_den), gcd(im, im_den)
    real, imag = (str(a) if b == 1 else f"{a}/{b}"
                  for a, b in ((re // g, re_den // g), (im // h, im_den // h)))
    if not im:
        return real
    imag = {"1": "", "-1": "-"}.get(imag, imag) + "i"  # i, -i, 2i, 1/2i
    return (real + ("+" if im > 0 else "") + imag) if re else imag


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def _digits(text: str, pos: int) -> tuple[int, int]:
    """Parse the ASCII digit run at pos; returns (value, next_pos)."""
    run = _DIGIT_RUN.match(text, pos)
    if run is None:
        raise ScalarParseError("expected a digit", pos)
    try:
        return int(run.group()), run.end()
    except ValueError:  # more digits than Python converts to an int
        raise ScalarParseError("too many digits", pos) from None


def _parse_term(text: str, pos: int) -> tuple[int, int, bool, int]:
    """Parse ``["-"] (digits ["/" digits] ["i"] | "i")`` starting at pos.

    Returns (numerator, denominator, is_imaginary, next_pos), the fraction
    as written. The sign belongs to the term, so "-i" and "-2/3i" both
    parse here.
    """
    n = len(text)
    sign = 1
    if pos < n and text[pos] == "-":
        sign = -1
        pos += 1
    if pos < n and text[pos] == "i":
        return sign, 1, True, pos + 1
    numerator, pos = _digits(text, pos)
    denominator = 1
    if pos < n and text[pos] == "/":
        den_start = pos + 1
        denominator, pos = _digits(text, den_start)
        if denominator == 0:
            raise ScalarParseError("denominator must be nonzero", den_start)
    if pos < n and text[pos] == "i":
        return sign * numerator, denominator, True, pos + 1
    return sign * numerator, denominator, False, pos


def _past_blanks(text: str, pos: int) -> int:
    """The first position at or after pos that is not a blank.

    Most entries have no blanks, so the regex runs only when one is there.
    """
    if pos < len(text) and text[pos] in " \t":
        return _BLANKS.match(text, pos).end()
    return pos


def scalar_parts(text: str) -> tuple[int, int, int, int]:
    """Scan a scalar string into integer parts (re, re_den, im, im_den).

    The scalar is re/re_den + (im/im_den)i, each fraction as written, so
    "4/6" gives (4, 6, 0, 1); the denominators are positive. Grammar::

        scalar := real | imag | real sign imag
        real   := rat
        imag   := [rat] "i"        (a bare sign is allowed: "-i")
        rat    := ["-"] digits ["/" digits]   with a nonzero denominator

    Digits are ASCII only. Examples: "0", "3/2", "-i", "2/3-5/7i".
    Whitespace may surround the scalar and the connecting sign. Anything
    else raises ScalarParseError with the byte offset of the problem.
    """
    n = len(text)
    pos = _past_blanks(text, 0)
    num, den, first_imag, pos = _parse_term(text, pos)
    pos = _past_blanks(text, pos)
    parts = (0, 1, num, den) if first_imag else (num, den, 0, 1)
    if pos < n and text[pos] in "+-":
        if first_imag:
            raise ScalarParseError("imaginary term must come last", pos)
        sign = -1 if text[pos] == "-" else 1
        term_start = _past_blanks(text, pos + 1)
        im, im_den, second_imag, pos = _parse_term(text, term_start)
        if not second_imag:
            raise ScalarParseError("expected an imaginary term", term_start)
        parts = (num, den, sign * im, im_den)
    pos = _past_blanks(text, pos)
    if pos != n:
        raise ScalarParseError("unexpected character", pos)
    return parts


def parse_scalar(text: str) -> GaussianRational:
    """Parse a scalar string (see ``scalar_parts``) into a GaussianRational."""
    a, b, c, d = scalar_parts(text)
    return GaussianRational._new(Fraction(a, b), Fraction(c, d))

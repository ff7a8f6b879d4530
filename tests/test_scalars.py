"""Scalar arithmetic, rendering, and the string parser."""

from decimal import Decimal
from fractions import Fraction
from operator import add, mul, sub, truediv

import pytest
from hypothesis import given

try:
    from numpy import int64
except ImportError:  # numpy is not a test dependency
    int64 = None

from blockginv.matrices import Matrix
from blockginv.scalars import (
    I,
    ONE,
    ZERO,
    GaussianRational,
    ScalarParseError,
    parse_scalar,
    scalar_text,
)
from conftest import (DIGIT_LIMIT_TEMPLATES, REJECTED_SCALARS,
                      TOO_MANY_DIGITS, nonzero_scalars, scalars)


class TestArithmetic:
    def test_product_with_imaginary_parts(self):
        left = GaussianRational(Fraction(1, 2), Fraction(3, 4))
        right = GaussianRational(2, -1)
        assert left * right == GaussianRational(Fraction(7, 4), 1)

    def test_i_squared_is_minus_one(self):
        assert I * I == GaussianRational(-1)

    def test_addition_and_subtraction(self):
        a = GaussianRational(1, 2)
        b = GaussianRational(Fraction(1, 3), -1)
        assert a + b == GaussianRational(Fraction(4, 3), 1)
        assert a - b == GaussianRational(Fraction(2, 3), 3)
        assert -a == GaussianRational(-1, -2)

    def test_mixed_arithmetic_with_ints_and_fractions(self):
        z = GaussianRational(1, 1)
        assert 2 * z == GaussianRational(2, 2)
        assert z * Fraction(1, 2) == GaussianRational(Fraction(1, 2), Fraction(1, 2))
        assert 1 + z == GaussianRational(2, 1)
        assert Fraction(3, 2) - z == GaussianRational(Fraction(1, 2), -1)
        # Addition and multiplication commute, so each reflected method is
        # its forward one, and a spy on that one sees 2 + z and 2 * z.
        assert GaussianRational.__radd__ is GaussianRational.__add__
        assert GaussianRational.__rmul__ is GaussianRational.__mul__

    def test_division(self):
        assert GaussianRational(3, 4) / GaussianRational(0, 1) == GaussianRational(4, -3)
        assert 1 / I == -I
        assert GaussianRational(5) / 2 == GaussianRational(Fraction(5, 2))

    def test_inverse_of_three_plus_four_i(self):
        z = GaussianRational(3, 4)
        assert z.inverse() == GaussianRational(Fraction(3, 25), Fraction(-4, 25))
        assert z * z.inverse() == ONE

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_bool(self):
        assert not ZERO
        assert ONE
        assert I
        assert not GaussianRational(0, 0)

    @pytest.mark.parametrize("re, im", [
        (0.1, 0), (0, 0.5), (1j, 0), (0, complex(1, 2)),
        pytest.param("0.1", 0, id="str-0"),
        pytest.param(0, "1", id="0-str"),
        pytest.param(Decimal("0.1"), 0, id="Decimal-0"),
        pytest.param(int64 and int64(3), 0, id="int64-0",
                     marks=pytest.mark.skipif(int64 is None,
                                              reason="needs numpy")),
    ])
    def test_constructor_rejects_inexact_parts(self, re, im):
        with pytest.raises(TypeError, match="use int or Fraction"):
            GaussianRational(re, im)

    def test_equality_and_hash_against_numeric_tower(self):
        assert GaussianRational(5) == 5
        assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
        assert hash(GaussianRational(5)) == hash(5)
        assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert GaussianRational(1, 1) != 1
        assert GaussianRational(1, 1) != "1+i"
        assert (GaussianRational(1) == "1") is False

    def test_equal_non_real_values_hash_equal(self):
        a = GaussianRational(Fraction(2, 4), Fraction(-6, 9))
        b = GaussianRational(Fraction(1, 2), Fraction(2, -3))
        c = (GaussianRational(Fraction(5, 6), Fraction(1, 3))
             - GaussianRational(Fraction(1, 3), 1))
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        assert len({a, b, c}) == 1

    @pytest.mark.parametrize("foreign", ["1", 1.5, None])
    @pytest.mark.parametrize("op", [add, sub, mul, truediv])
    def test_foreign_operands_raise_type_error(self, op, foreign):
        with pytest.raises(TypeError):
            op(ONE, foreign)
        with pytest.raises(TypeError):
            op(foreign, ONE)

    def test_matrix_operand_reaches_matrix_rmul(self):
        # _commutation's lam * fe: only NotImplemented from the scalar
        # lets Python try Matrix.__rmul__.
        assert (GaussianRational(2) * Matrix.identity(2)
                == 2 * Matrix.identity(2))


class TestRendering:
    @pytest.mark.parametrize("scalar, text", [
        (ZERO, "0"),
        (ONE, "1"),
        (GaussianRational(-1), "-1"),
        (I, "i"),
        (-I, "-i"),
        (GaussianRational(0, 2), "2i"),
        (GaussianRational(0, Fraction(-3, 4)), "-3/4i"),
        (GaussianRational(1, 1), "1+i"),
        (GaussianRational(1, -1), "1-i"),
        (GaussianRational(Fraction(1, 2)), "1/2"),
        (GaussianRational(Fraction(-3, 4), 2), "-3/4+2i"),
        (GaussianRational(2, Fraction(-1, 2)), "2-1/2i"),
    ])
    def test_str(self, scalar, text):
        assert str(scalar) == text

    def test_repr_evaluates_back(self):
        value = GaussianRational(Fraction(-3, 4), 2)
        assert repr(value) == \
            "GaussianRational(Fraction(-3, 4), Fraction(2, 1))"
        assert eval(repr(value)) == value

    @pytest.mark.parametrize("parts, text", [
        ((2, 4, 0, 3), "1/2"),
        ((0, 5, -6, 4), "-3/2i"),
        ((-9, 3, 4, 8), "-3+1/2i"),
    ])
    def test_scalar_text_writes_lowest_terms(self, parts, text):
        assert scalar_text(*parts) == text


class TestParsing:
    @pytest.mark.parametrize("text, expected", [
        ("0", ZERO),
        ("1/2", GaussianRational(Fraction(1, 2))),
        (" 1 ", ONE),
        ("-3/4+2i", GaussianRational(Fraction(-3, 4), 2)),
        ("2-1/2i", GaussianRational(2, Fraction(-1, 2))),
        ("i", I),
        ("-i", -I),
        ("3i", GaussianRational(0, 3)),
        ("1 + i", GaussianRational(1, 1)),
        ("7/4+i", GaussianRational(Fraction(7, 4), 1)),
        ("\t1\t", ONE),
        ("1\t+\ti", GaussianRational(1, 1)),
    ])
    def test_accepts(self, text, expected):
        assert parse_scalar(text) == expected

    @pytest.mark.parametrize("text, offset", REJECTED_SCALARS)
    def test_rejects_with_offset(self, text, offset):
        with pytest.raises(ScalarParseError) as info:
            parse_scalar(text)
        assert info.value.offset == offset

    @pytest.mark.parametrize("template, offset", DIGIT_LIMIT_TEMPLATES)
    def test_rejects_digit_runs_past_the_int_limit(self, template, offset):
        with pytest.raises(ScalarParseError, match="too many digits") as info:
            parse_scalar(template.format(TOO_MANY_DIGITS))
        assert info.value.offset == offset


class TestProperties:
    @given(scalars(), scalars())
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(scalars(), scalars(), scalars())
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(scalars())
    def test_additive_inverse(self, a):
        assert a + (-a) == ZERO

    @given(nonzero_scalars())
    def test_multiplicative_inverse(self, a):
        assert a * a.inverse() == ONE

    @given(scalars())
    def test_render_parse_round_trip(self, a):
        assert parse_scalar(str(a)) == a

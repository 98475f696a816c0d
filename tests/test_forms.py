"""Equation parsing and specialization."""

from fractions import Fraction

import pytest

from octic.forms import (DuplicateFactor, FormVanishes, NonLinearFactor,
                         ParseError, parse_equation, specialize)

ELEVEN = [
    ("xy(x+y+w)", 3),
    ("xyz(x+y+z+w)", 4),
    ("xy(x+y)z(x+wy+z)", 5),
    ("xy(x+y)z(x+z+w)", 5),
    ("xy(x+y)z(x+y+z+w)", 5),
    ("xyz(x+y+z)(x+y+w)", 5),
    ("xy(x+y+w)z", 4),
    ("xy(x+y+zw)z", 4),
    ("xyz(x+y+z)(x-y+w)", 5),
    ("xyz(x+y+wz)(x+wy+z)", 5),
    ("xyz(x+y+wz)(x+2y+z)", 5),
]


@pytest.mark.parametrize("text,n", ELEVEN)
def test_parses_the_family(text, n):
    a = parse_equation(text)
    assert len(a.forms) == n


def test_factor_order_is_source_order():
    a = parse_equation("zy(x+w)")
    rows = [f.coeffs for f in a.forms]
    # z first, then y, then x + w*t
    assert [c.evaluate(1) for c in rows[0][:3]] == [0, 0, 1]
    assert [c.evaluate(1) for c in rows[1][:3]] == [0, 1, 0]
    assert rows[2][0].evaluate(1) == 1 and rows[2][3].evaluate(1) == 1


def test_bare_w_means_w_times_t():
    a = parse_equation("xy(x+w)")
    f = a.forms[2]
    assert f.coeffs[3].evaluate(5) == 5
    assert f.coeffs[3].evaluate(0) == 0


def test_explicit_t_and_constants():
    a = parse_equation("x(x+2t)(y+t)")
    assert a.forms[1].coeffs[3].evaluate(0) == 2
    b = parse_equation("xz(x+3y)")
    assert b.forms[2].coeffs[1].evaluate(0) == 3


def test_star_products_and_powers():
    a = parse_equation("x*y*(x+y)")
    assert len(a.forms) == 3
    with pytest.raises(DuplicateFactor):
        parse_equation("x^2y")


def test_duplicate_factor_rejected():
    with pytest.raises(DuplicateFactor):
        parse_equation("x*x*y*z")
    with pytest.raises(DuplicateFactor):
        parse_equation("xy(2x)")  # proportional to x
    # factors are numbered from 1
    with pytest.raises(DuplicateFactor, match="^factors 3 and 4 are proportional$"):
        parse_equation("xy(x+y)(2x+2y)")
    # the form count is checked before the pairs
    with pytest.raises(ValueError, match="expected 3..8 forms, got 2"):
        parse_equation("x^2")


def test_nonlinear_factor_rejected():
    with pytest.raises((NonLinearFactor, ParseError)):
        parse_equation("x(x+yy)")


def test_garbage_rejected():
    with pytest.raises(ParseError):
        parse_equation("x + ")
    with pytest.raises(ParseError):
        parse_equation("")
    with pytest.raises(ParseError):
        parse_equation("xy(")


def test_zero_denominator_rejected():
    with pytest.raises(ParseError) as info:
        parse_equation("xyz(x+y+z+1/0)")
    assert str(info.value) == "zero denominator (at position 10)"
    assert info.value.position == 10


def test_specialize_drops_parameter():
    a = parse_equation("xy(x+y+w)")
    arr = specialize(a, Fraction(2))
    last = arr.forms[-1].coeffs
    assert [c.evaluate(0) for c in last] == [1, 1, 0, 2]


def test_specialize_vanishing_form():
    a = parse_equation("xz(y+wy)")  # (1+w) y dies at w = -1
    with pytest.raises(FormVanishes, match="^form 3 vanishes identically"):
        specialize(a, Fraction(-1))


def test_text_round_trip():
    for text, _ in ELEVEN:
        a = parse_equation(text)
        again = parse_equation(a.text())
        assert again.forms == a.forms

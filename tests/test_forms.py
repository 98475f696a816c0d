"""Equation parsing and the families' primitive integer rows."""

import re
import tracemalloc
from itertools import combinations

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from oracles import ELEVEN as FAMILIES, evaluate, times

from octic.exact import Poly
from octic.forms import (MAX_W_DEGREE, DuplicateFactor, LinearForm,
                         NonLinearFactor, ParamArrangement, ParseError,
                         parse_equation)

# each bundled equation with its number of factors: a parenthesized factor
# or a bare variable outside parentheses
ELEVEN = [(text, len(re.sub(r"\([^)]*\)", "(", text)))
          for _, text in FAMILIES]


@pytest.mark.parametrize("text,n", ELEVEN)
def test_parses_the_family(text, n):
    a = parse_equation(text)
    assert len(a.forms) == n


def test_factor_order_is_source_order():
    a = parse_equation("zy(x+w)")
    rows = [f.coeffs for f in a.forms]
    # z first, then y, then x + w*t
    assert [evaluate(c.coeffs, 1) for c in rows[0][:3]] == [0, 0, 1]
    assert [evaluate(c.coeffs, 1) for c in rows[1][:3]] == [0, 1, 0]
    assert evaluate(rows[2][0].coeffs, 1) == 1
    assert evaluate(rows[2][3].coeffs, 1) == 1


def test_bare_w_means_w_times_t():
    a = parse_equation("xy(x+w)")
    f = a.forms[2]
    assert evaluate(f.coeffs[3].coeffs, 5) == 5
    assert evaluate(f.coeffs[3].coeffs, 0) == 0


def test_explicit_t_and_constants():
    a = parse_equation("x(x+2t)(y+t)")
    assert evaluate(a.forms[1].coeffs[3].coeffs, 0) == 2
    b = parse_equation("xz(x+3y)")
    assert evaluate(b.forms[2].coeffs[1].coeffs, 0) == 3


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
    # a copy times a polynomial in w
    with pytest.raises(DuplicateFactor, match="^factors 3 and 4 "):
        parse_equation("xy(wx+w^2y)(x+wy)z")
    # the form count is checked before the pairs
    with pytest.raises(ValueError, match="expected 3..8 forms, got 2"):
        parse_equation("x^2")


def test_repeated_factors_are_counted_not_expanded():
    """A factor's exponent is a count: the form count is checked on the
    counts, in memory independent of the exponent, and factors after a
    power are numbered past all of its copies."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError,
                           match=r"^expected 3\.\.8 forms, got 1000000002$"):
            parse_equation("xyz^1000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(NonLinearFactor, match="^factor 5 is not linear"):
        parse_equation("xy^3(0z)t")
    with pytest.raises(DuplicateFactor, match="^factors 4 and 5 are proportional$"):
        parse_equation("xyz(x+y)^2")
    # a trailing coefficient scales the last copy only
    with pytest.raises(DuplicateFactor, match="^factors 7 and 8 are proportional$"):
        parse_equation("xyzt(x+y)(x+z)(y+z)^2*2")
    assert parse_equation("xy(x+y)z^1").text() == "xy(x+y)z"


def test_degree_in_w_is_bounded_at_parse_time():
    """A coefficient of degree above ``MAX_W_DEGREE`` in w is refused at the
    exponent that passes it, in memory independent of the exponent; powers
    in front of a factor count towards its coefficients' degrees."""
    top = f"w^{MAX_W_DEGREE}"
    a = parse_equation(f"xy(z+{top}t)")
    assert a.forms[2].coeffs[3].degree == MAX_W_DEGREE
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse_equation("xy(z+w^1000000000t)")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert str(err.value) == (
        f"degree in w above {MAX_W_DEGREE} (at position 6)")
    for text in (f"xy(z+w{top}t)", f"xyz{top}w", f"w{top}(x+y)z",
                 f"{top}(x+wy)yz", f"xyz(x+wy){top}"):
        with pytest.raises(ParseError, match="^degree in w above "):
            parse_equation(text)


W = sympy.Symbol("w")
QW = sympy.QQ.frac_field(W)

# nonzero polynomials in w of degree <= 2 with small rational
# coefficients; forms with each coefficient zero about half the time
nonzero_polys = st.lists(st.fractions(-4, 4, max_denominator=3), min_size=1,
                         max_size=3).map(Poly).filter(bool)
forms = st.lists(st.one_of(st.just(Poly()), nonzero_polys), min_size=4,
                 max_size=4).filter(any)
# a copy of an earlier form times a nonzero constant or a nonzero
# polynomial in w
scalings = st.one_of(st.fractions(-5, 5, max_denominator=4).filter(bool),
                     nonzero_polys)
copies = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 8), scalings),
                  max_size=2)


def _rank_over_q_w(rows) -> int:
    elems = [[QW.from_sympy(sum((sympy.Rational(c.numerator, c.denominator)
                                 * W**k for k, c in enumerate(p.coeffs)),
                                sympy.Integer(0)))
              for p in row] for row in rows]
    return DomainMatrix(elems, (len(elems), 4), QW).rank()


@settings(max_examples=50, deadline=None)
@given(st.lists(forms, min_size=2, max_size=6), copies)
def test_duplicate_factor_matches_rank_over_q_w(rows, inserted):
    """``parse_equation`` names the first pair of factors whose 2x4 matrix
    has rank 1 over Q(w), and accepts the family when there is none."""
    for src, dst, c in inserted:
        copy = [times(p, c) for p in rows[src % len(rows)]]
        rows.insert(dst % (len(rows) + 1), copy)
    assume(len(rows) >= 3)
    text = "".join(f"({LinearForm(r).text()})" for r in rows)
    first = next(((i + 1, j + 1)
                  for i, j in combinations(range(len(rows)), 2)
                  if _rank_over_q_w([rows[i], rows[j]]) == 1), None)
    if first is None:
        family = parse_equation(text)
        assert [f.coeffs for f in family.forms] == [tuple(r) for r in rows]
    else:
        with pytest.raises(DuplicateFactor) as err:
            parse_equation(text)
        assert err.value.indices == first


def test_nonlinear_factor_rejected():
    with pytest.raises((NonLinearFactor, ParseError)):
        parse_equation("x(x+yy)")


@pytest.mark.parametrize("text,index,detail", [
    ("xy(x+yy)", 3, "term of degree > 1"),
    ("x^2y(x+y^2)", 4, "term of degree > 1"),
    ("(xy)yz", 1, "term of degree > 1"),
    ("xy(0x)", 3, "zero factor"),
    ("x(x-x)yz", 2, "zero factor"),
    ("xyz0", 3, "zero factor"),
])
def test_nonlinear_factor_numbers_factors_from_1(text, index, detail):
    """One message, counting the expanded factors from 1, as
    ``DuplicateFactor`` does."""
    with pytest.raises(NonLinearFactor) as err:
        parse_equation(text)
    assert str(err.value) == (
        f"factor {index} is not linear in x,y,z,t: {detail}")
    assert err.value.factor_index == index


def test_unterminated_factor_is_a_parse_error():
    with pytest.raises(ParseError, match=r"^unterminated '\('"):
        parse_equation("xyz(x+y")


def test_arrangement_errors_number_forms_from_1():
    x, y = LinearForm([1, 0, 0, 0]), LinearForm([0, 1, 0, 0])
    zero = LinearForm([0, 0, 0, 0])
    with pytest.raises(ValueError, match="^form 2 is identically zero$"):
        ParamArrangement([x, zero, y])


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


def test_text_round_trip():
    for text, _ in ELEVEN:
        a = parse_equation(text)
        again = parse_equation(a.text())
        assert again.forms == a.forms

"""Equation parsing and the families' primitive integer rows."""

import json
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from oracles import (ELEVEN as FAMILIES, evaluate, form_text, integer_row,
                     times, trim, zw_mul)

from octic.forms import (MAX_W_DEGREE, VARIABLES, DuplicateFactor,
                         NonLinearFactor, ParamArrangement, ParseError,
                         parse_equation)

# each bundled equation with its number of factors: a parenthesized factor
# or a bare variable outside parentheses
ELEVEN = [(text, len(re.sub(r"\([^)]*\)", "(", text)))
          for _, text in FAMILIES]


@pytest.mark.parametrize("text,n", ELEVEN)
def test_parses_the_family(text, n):
    a = parse_equation(text)
    assert len(a) == n


def test_factor_order_is_source_order():
    rows = parse_equation("zy(x+w)").rows
    # z first, then y, then x + w*t
    assert [evaluate(c, 1) for c in rows[0][:3]] == [0, 0, 1]
    assert [evaluate(c, 1) for c in rows[1][:3]] == [0, 1, 0]
    assert evaluate(rows[2][0], 1) == 1
    assert evaluate(rows[2][3], 1) == 1


def test_bare_w_means_w_times_t():
    row = parse_equation("xy(x+w)").rows[2]
    assert evaluate(row[3], 5) == 5
    assert evaluate(row[3], 0) == 0


def test_explicit_t_and_constants():
    a = parse_equation("x(x+2t)(y+t)")
    assert evaluate(a.rows[1][3], 0) == 2
    b = parse_equation("xz(x+3y)")
    assert evaluate(b.rows[2][1], 0) == 3


def test_star_products_and_powers():
    a = parse_equation("x*y*(x+y)")
    assert len(a) == 3
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
    exponent that passes it, its '^' whatever whitespace comes before it,
    in memory independent of the exponent; powers in front of a factor
    count towards its coefficients' degrees."""
    top = f"w^{MAX_W_DEGREE}"
    a = parse_equation(f"xy(z+{top}t)")
    assert len(a.rows[2][3]) - 1 == MAX_W_DEGREE
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
    for text in ("xyz(x+y+w^1001 z)", "xyz(x+y+w ^1001 z)",
                 "xyz(x+y+w\t  ^ 1001 z)"):
        with pytest.raises(ParseError) as err:
            parse_equation(text)
        assert err.value.position == text.index("^")
    for text in (f"xy(z+w{top}t)", f"xyz{top}w", f"w{top}(x+y)z",
                 f"{top}(x+wy)yz", f"xyz(x+wy){top}"):
        with pytest.raises(ParseError, match="^degree in w above "):
            parse_equation(text)


W = sympy.Symbol("w")
QW = sympy.QQ.frac_field(W)

# nonzero polynomials in w of degree <= 2 with small rational
# coefficients, as Fraction tuples; forms with each coefficient zero about
# half the time
nonzero_polys = st.lists(st.fractions(-4, 4, max_denominator=3), min_size=1,
                         max_size=3).map(trim).filter(bool)
forms = st.lists(st.one_of(st.just(()), nonzero_polys), min_size=4,
                 max_size=4).filter(any)
# a copy of an earlier form times a nonzero constant or a nonzero
# polynomial in w
scalings = st.one_of(st.fractions(-5, 5, max_denominator=4).filter(bool),
                     nonzero_polys)
copies = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 8), scalings),
                  max_size=2)


def _rank_over_q_w(rows) -> int:
    elems = [[QW.from_sympy(sum((sympy.Rational(c.numerator, c.denominator)
                                 * W**k for k, c in enumerate(p)),
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
    text = "".join(map(form_text, rows))
    first = next(((i + 1, j + 1)
                  for i, j in combinations(range(len(rows)), 2)
                  if _rank_over_q_w([rows[i], rows[j]]) == 1), None)
    if first is None:
        family = parse_equation(text)
        assert family.rows == tuple(integer_row(r) for r in rows)
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
    x, y = ((1,), (), (), ()), ((), (1,), (), ())
    zero = ((), (), (), ())
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


@pytest.mark.parametrize("text,printed", [
    ("xyzt(x+y+z+t)", "xyzt(x+y+z+t)"),
    ("xyzt(x+y+z+1)", "xyzt(x+y+z+t)"),
    ("xy(x-1)(3-y)(wz+w)", "xy(x-t)(-y+3t)(wz+wt)"),
    ("xy(2x+6)(-x-y-w^2)z", "xy(x+3t)(-x-y-w^2t)z"),
])
def test_t_prints_like_x_y_and_z(text, printed):
    """A coefficient of t prints with its variable, as x, y and z do, and
    reads back as the same rows."""
    a = parse_equation(text)
    assert a.text() == printed
    assert repr(a) == f"ParamArrangement({printed})"
    assert parse_equation(printed).rows == a.rows


def test_a_run_of_signs_multiplies():
    """x-+y is x - y, x--y is x + y and --x is x, as in ordinary
    notation."""
    assert parse_equation("xyz(x-+y+z)").rows[3] == ((1,), (-1,), (1,), ())
    assert parse_equation("xyz(x--y+z)").rows[3] == ((1,), (1,), (1,), ())
    assert parse_equation("xyz(--x+y)").rows[3] == ((1,), (1,), (), ())


@pytest.mark.parametrize("text,position", [
    ("xyz(x+1 2y+z)", 8),
    ("(x+2 3w y+z)xyz", 5),
    ("xyz(x+1/2 3y)", 10),
    ("xyz(x+w^1 0y)", 10),
    ("x^2 3yz(x+y)", 4),
    ("2 3xyz(x+y)", 2),
])
def test_whitespace_ends_a_number(text, position):
    """Two numbers with only whitespace between them are refused at the
    second, not read as one number."""
    with pytest.raises(ParseError) as err:
        parse_equation(text)
    assert str(err.value) == (
        f"two numbers separated only by whitespace (at position {position})")


@pytest.mark.parametrize("text,message", [
    ("u^2 = xyz(x+y)#", "unexpected character '#' (at position 14)"),
    ("u^2 = xyz(x+y", "unterminated '(' (at position 13)"),
    ("u^2 = 2", "dangling coefficient with no factor (at position 7)"),
    ("u^2 =", "empty product (at position 5)"),
])
def test_positions_count_from_the_start_of_the_text(text, message):
    """After a left-hand side, every error position is a position in the
    whole text, as it is without one."""
    with pytest.raises(ParseError) as err:
        parse_equation(text)
    assert str(err.value) == message


def test_whitespace_in_the_left_hand_side_is_nothing():
    rows = parse_equation("xyz(x+y)").rows
    assert parse_equation("u^2\t= xyz(x+y)").rows == rows
    assert parse_equation(" u ^\n2 \t=xyz(x+y)").rows == rows
    with pytest.raises(ParseError) as err:
        parse_equation("u^3\t= xyz(x+y)")
    assert str(err.value) == "unexpected left-hand side 'u^3' (at position 0)"


@pytest.mark.parametrize("text,position", [
    ("w^600(x+w^401y)yz", 1),
    ("w^300 w^300(x+w^401y)yz", 7),
    ("w (x+w^1000y) xyz", 1),
    ("xyz(x+w^600y)w^401", 14),
    ("xyz(x+w^1000y) w", 16),
])
def test_a_power_of_w_around_a_factor_is_refused_at_its_last_w(text,
                                                             position):
    """A power of w that takes a factor's coefficient past the bound is
    refused where ``_w_power`` refuses one: at the '^' of its last w, or
    just after that w when it has none."""
    with pytest.raises(ParseError) as err:
        parse_equation(text)
    assert str(err.value) == (
        f"degree in w above {MAX_W_DEGREE} (at position {position})")


def test_whitespace_before_a_variable_or_w_is_nothing():
    assert parse_equation("xyz(x+2w3y+z)").rows[3] == ((1,), (0, 6), (1,), ())
    assert parse_equation("xyz(x+2 w y+z)").rows[3] == (
        (1,), (0, 2), (1,), ())
    assert parse_equation("xyz(2 x+y)").rows[3] == ((2,), (1,), (), ())
    assert parse_equation("xyz(1/2 x+y)").rows[3] == ((1,), (2,), (), ())
    assert parse_equation("xyz(1 / 2 x+y)").rows[3] == ((1,), (2,), (), ())


# Parse outcomes recorded with the character-at-a-time parser that preceded
# this one, on every bundled equation, the benchmark's families of seeds 1-10
# (32 each), 300 random families (coefficients up to 10^18, denominators up
# to 10^12, w-degree up to 1000; duplicate factors, scalars and powers of w
# before and after factors, ^ runs, *, u^2 = and whitespace) and 225
# malformed strings.  Each entry holds the rows, each coefficient as
# [power of w, coefficient] pairs, or the error's type and message.
CORPUS = json.loads((Path(__file__).parent / "data" / "parse_corpus.json")
                    .read_text(encoding="utf-8"))

# the entries whose outcome changed on purpose, with the new one: the error,
# or an equation read as the entry now is
CHANGED = {
    # a digit other than 0-9 is no number
    "malformed/50": ("ParseError", "unexpected character '²' (at position 3)"),
    "malformed/51": ("ParseError",
                     "unexpected character '٣' (at position 12)"),
    "malformed/52": ("ParseError", "unexpected character '²' (at position 6)"),
    "malformed/53": ("ParseError", "unexpected character '²' (at position 9)"),
    "malformed/54": ("ParseError", "unexpected character '٣' (at position 8)"),
    "malformed/55": ("ParseError", "unexpected character '⁴' (at position 8)"),
    "malformed/56": ("ParseError", "unexpected character '²' (at position 8)"),
    "malformed/57": ("ParseError",
                     "unexpected character '٣' (at position 13)"),
    "malformed/58": ("ParseError", "unexpected character '٣' (at position 7)"),
    "malformed/59": ("ParseError", "unexpected character '٣' (at position 6)"),
    "malformed/60": ("ParseError",
                     "unexpected character '٣' (at position 10)"),
    "malformed/61": ("ParseError", "unexpected character '٣' (at position 8)"),
    "malformed/62": ("ParseError", "unexpected character '٣' (at position 0)"),
    # whitespace ends a number
    **{name: ("ParseError",
              f"two numbers separated only by whitespace (at position {at})")
       for name, at in [("malformed/64", 8), ("malformed/65", 5),
                        ("malformed/67", 2), ("malformed/68", 11),
                        ("malformed/69", 4), ("malformed/70", 10),
                        ("malformed/71", 10), ("malformed/86", 8),
                        ("malformed/87", 3), ("malformed/88", 11),
                        ("malformed/89", 11), ("malformed/90", 10),
                        ("malformed/91", 10), ("malformed/186", 11)]},
    # the degree in w is refused at the '^' after whitespace too
    "malformed/117": ("ParseError", "degree in w above 1000 (at position 10)"),
    "malformed/128": ("ParseError", "degree in w above 1000 (at position 12)"),
    # a run of signs multiplies
    "malformed/198": "xyz(x-y+z)",
    "malformed/199": "xyz(x+y+z)",
    "malformed/200": "xyz(x+y)",
    "malformed/203": "xyz(x+y)",
    "malformed/210": "xyz(x+y+z)",
    "malformed/212": "xyz(-x+y)",
    "malformed/213": "xyz(x+w)",
    "malformed/214": "xyz(x-w^2y)",
    # positions count from the start of the text, left-hand side included
    "malformed/6": ("ParseError", "unexpected character 'u' (at position 6)"),
    "malformed/11": ("ParseError",
                     "unexpected character '#' (at position 14)"),
    "malformed/12": ("ParseError", "unterminated '(' (at position 13)"),
    # whitespace of any kind in the left-hand side is nothing
    "malformed/9": "xyz(x+y)",
    # a power of w in front of or after a factor is refused at its last w:
    # that w's '^', or just after it when it has none
    **{name: ("ParseError", f"degree in w above 1000 (at position {at})")
       for name, at in [("random/4", 3), ("random/250", 187),
                        ("random/276", 120), ("malformed/123", 1),
                        ("malformed/124", 14), ("malformed/125", 16),
                        ("malformed/126", 2), ("malformed/131", 15),
                        ("malformed/134", 1), ("malformed/135", 1),
                        ("malformed/137", 1), ("malformed/138", 13),
                        ("malformed/140", 26)]},
}


def _outcome(text: str) -> dict:
    """``parse_equation`` on ``text``, written as the corpus records it."""
    try:
        rows = parse_equation(text).rows
    except ValueError as err:
        return {"error": type(err).__name__, "message": str(err)}
    return {"rows": [[[[k, c] for k, c in enumerate(x) if c] for x in row]
                     for row in rows]}


def test_parse_outcomes_match_the_recorded_corpus():
    """Every entry reads as it was recorded, rows or error, message and
    position included, except the ones ``CHANGED`` names, which read as it
    says and not as recorded."""
    assert len(CORPUS) == 870
    assert CHANGED.keys() <= {entry["name"] for entry in CORPUS}
    for entry in CORPUS:
        recorded = {k: v for k, v in entry.items()
                    if k not in ("name", "text")}
        got = _outcome(entry["text"])
        new = CHANGED.get(entry["name"])
        if new is None:
            assert got == recorded, entry
        else:
            expected = (_outcome(new) if isinstance(new, str)
                        else {"error": new[0], "message": new[1]})
            assert got == expected != recorded, entry


def test_text_round_trip():
    """Every equation of the corpus that parses, and one with each variable
    a factor, prints as text that parses to the same rows."""
    read = 0
    for text in [entry["text"] for entry in CORPUS] + ["xyzt(x+y+z+t)"]:
        try:
            a = parse_equation(text)
        except ValueError:
            continue
        assert parse_equation(a.text()).rows == a.rows, text
        # the degrees of the coefficients, which the benchmark's tracer
        # reads off this view
        assert [[c.degree for c in f.coeffs] for f in a.forms] == [
            [len(c) - 1 for c in row] for row in a.rows]
        read += 1
    assert read == 553


def _primitive(row: list) -> tuple:
    g = gcd(*(c for x in row for c in x))
    return tuple(tuple(c // g for c in x) for x in row)


# primitive Z[w] rows with coefficients up to 10^6 in size, of degree <= 3
# in w, each entry 0 about a third of the time
zw_entries = st.one_of(
    st.just(()),
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4).map(
        lambda cs: tuple(cs[:-1]) + (cs[-1] or 1,)))
primitive_rows = st.lists(zw_entries, min_size=4, max_size=4).filter(
    any).map(_primitive)


def _proportional(r: tuple, s: tuple) -> bool:
    return all(zw_mul(r[a], s[b]) == zw_mul(r[b], s[a])
               for a, b in combinations(range(4), 2))


def _glued(text: str, sep: str, part: str) -> str:
    """``text`` then ``part``, with ``sep`` between them unless that would
    put two numbers next to each other."""
    if not text:
        return part
    digits = text[-1].isdigit() and part[0].isdigit()
    return text + ("*" if digits else sep) + part


def _term(slot: int, k: int, c: Fraction, rng) -> str:
    """The term c w^k times variable ``slot`` with its sign, its parts in
    any order that puts no number right after the exponent of w."""
    sign = rng.choice(("-", "+-", "-+", "---") if c < 0
                      else ("+", "--", "++", "+--"))
    c = abs(c)
    number = "" if c == 1 and rng.random() < 0.7 else (
        str(c) if rng.random() < 0.5 else
        f"{c.numerator * 3}/{c.denominator * 3}")
    power = "" if k == 0 else rng.choice(
        (f"w^{k}", f"w ^ {k}", "w" * k if k < 4 else f"w^{k}"))
    var = VARIABLES[slot] if slot < 3 or rng.random() < 0.5 else ""
    parts = [p for p in (power, var) if p]
    rng.shuffle(parts)
    if number:
        if parts and not parts[-1][-1].isdigit() and rng.random() < 0.3:
            parts.append(number)
        else:
            parts.insert(0, number)
    body = rng.choice(("", " ")).join(parts) or "1"
    return sign + rng.choice(("", " ")) + body


_UNITS = [tuple((1,) if j == i else () for j in range(4)) for i in range(4)]


def _written(row: tuple, rng) -> str:
    """The form ``row`` times a positive rational, as a factor of an
    equation, written in one of the ways the parser reads it."""
    if row in _UNITS and rng.random() < 0.7:
        text = VARIABLES[_UNITS.index(row)]
    else:
        scale = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        terms = [(slot, k, c * scale) for slot, x in enumerate(row)
                 for k, c in enumerate(x) if c]
        rng.shuffle(terms)
        text = "(" + rng.choice(("", " ")).join(
            _term(*t, rng) for t in terms) + ")"
    if rng.random() < 0.2:
        text += rng.choice(("^1", " ^ 1"))
    if rng.random() < 0.2:
        text = _glued(rng.choice(("2", "3/4", "5 ")), "", text)
    return text


@settings(max_examples=150, deadline=None)
@given(st.lists(primitive_rows, min_size=3, max_size=8), st.randoms())
def test_written_rows_parse_back(rows, rng):
    """Random primitive rows, each written with its terms in any order,
    times a positive rational, with runs of signs, powers of w as w^k or
    repeated w, constant terms for t, fractions, scalars, ^1, *, u^2 = and
    whitespace, parse back to the same rows."""
    assume(not any(_proportional(r, s) for r, s in combinations(rows, 2)))
    text = ""
    for row in rows:
        text = _glued(text, rng.choice(("", "*", " ", " * ")),
                      _written(row, rng))
    if rng.random() < 0.3:
        text = rng.choice(("u^2 = ", "u2=", "u ^ 2 =")) + text
    assert parse_equation(text).rows == tuple(rows), text

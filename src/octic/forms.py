"""Plane arrangements given as products of linear forms.

An equation like ``u^2 = xy(x+y+w)z`` is a product of factors, each linear
in the projective variables x, y, z, t with coefficients polynomial in the
parameter w, of degree at most ``MAX_W_DEGREE``.  Additive constant terms
(including bare ``w``) are read in the affine chart t = 1, so they pick up
a factor of t on the way in.

The parser reads each factor straight into its primitive integer row over
Z[w] (``ParamArrangement.rows``): the factor's coefficients, integers
except where a ``/`` is written, times the positive rational that clears
their denominators and their content.  Every minor, degenerate value and
fiber is computed from these rows, and ``ParamArrangement.text`` prints
them back as an equation that parses to the same rows.  The coefficients
stay tuples of ints throughout; the one other view of them, the degrees in
``ParamArrangement.forms``, is kept for the benchmark's tracer alone.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice
from types import SimpleNamespace
from typing import Sequence

from .exact import _pack_rows, _primitive, _zw_trim

VARIABLES = ("x", "y", "z", "t")
PARAMETER = "w"
# the largest degree in w a coefficient may have: sigma on 8-plane families
# with this power in several moving forms takes under half a second (the
# heuristic gcd of ``exact._zw_gcd`` keeps its cost near 0.03 s at degree
# 100 and 0.35 s at 1000 on one Xeon core, growing faster than the degree)
MAX_W_DEGREE = 1000


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonLinearFactor(ValueError):
    def __init__(self, factor_index: int, detail: str = ""):
        msg = f"factor {factor_index} is not linear in x,y,z,t"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.factor_index = factor_index


class DuplicateFactor(ValueError):
    def __init__(self, i: int, j: int):
        super().__init__(f"factors {i} and {j} are proportional")
        self.indices = (i, j)


class FormVanishes(ValueError):
    def __init__(self, index: int, w0):
        super().__init__(f"form {index} vanishes identically at w = {w0}")
        self.index = index


class ParamArrangement:
    """One-parameter family of plane arrangements, 3 to 8 forms.

    ``rows`` holds each form's primitive integer row, as ``parse_equation``
    reads it: four Z[w] coefficient tuples whose coefficients share no
    common factor.  Every minor, fiber and coordinate of the family is
    computed from these rows.  Two forms are proportional over Q(w) when all
    six 2x2 minors of their rows vanish; the minors are taken on the rows
    packed into integers at w = 2^k (``_pack_rows``), and a packed minor is
    0 exactly when the minor is.
    """

    def __init__(self, rows: Sequence[tuple]):
        rows = tuple(rows)
        if not 3 <= len(rows) <= 8:
            raise ValueError(f"expected 3..8 forms, got {len(rows)}")
        for i, row in enumerate(rows, 1):
            if not any(row):
                raise ValueError(f"form {i} is identically zero")
        packed, _ = _pack_rows(rows)
        for (i, (a0, a1, a2, a3)), (j, (b0, b1, b2, b3)) in combinations(
                enumerate(packed, 1), 2):
            if (a0 * b1 == a1 * b0 and a0 * b2 == a2 * b0
                    and a0 * b3 == a3 * b0 and a1 * b2 == a2 * b1
                    and a1 * b3 == a3 * b1 and a2 * b3 == a3 * b2):
                raise DuplicateFactor(i, j)
        self.rows = rows

    @cached_property
    def forms(self) -> list:
        """The degree in w of each coefficient of each row, read as
        ``forms[i].coeffs[j].degree`` (-1 for 0).  Nothing in the package
        reads this view: the benchmark's tracer (``bench/tracer.py``) files
        ``incidence.profile`` calls by it, and it goes once the tracer
        reads ``rows`` (ROADMAP item 13)."""
        return [SimpleNamespace(coeffs=[SimpleNamespace(degree=len(c) - 1)
                                        for c in row]) for row in self.rows]

    def __len__(self):
        return len(self.rows)

    def text(self) -> str:
        """The family as a product of factors, a bare variable for a unit
        row, which ``parse_equation`` reads back as the same rows."""
        return "".join(map(_factor_text, self.rows))

    def __repr__(self):
        return f"ParamArrangement({self.text()})"


def _factor_text(row: tuple) -> str:
    """The primitive integer row ``row`` as x, y, z or t, or as its terms
    in parentheses: c, a power of w and a variable each, "-" for c = -1
    and nothing for c = 1."""
    terms = [("" if c == 1 else "-" if c == -1 else str(c))
             + ("" if k == 0 else PARAMETER if k == 1 else f"{PARAMETER}^{k}")
             + var
             for var, coeffs in zip(VARIABLES, row)
             for k, c in enumerate(coeffs) if c]
    if len(terms) == 1 and terms[0] in VARIABLES:
        return terms[0]
    return "(" + "+".join(terms).replace("+-", "-") + ")"


# ---------------------------------------------------------------------------
# parsing

# one token: a run of the digits 0-9 or one other character, after any
# whitespace; the text ends in an empty token.  A token is a number when
# "0" <= token < ":", that is when its first character is one of 0-9.
_TOKEN = re.compile(r"\s*([0-9]+|\S|\Z)")
_SLOT = {v: i for i, v in enumerate(VARIABLES)}
# the row each projective variable stands for
_UNIT_ROW = {v: tuple((1,) if u == v else () for u in VARIABLES)
             for v in VARIABLES}


def parse_equation(text: str) -> ParamArrangement:
    """Parse a product of linear factors into a parameterized arrangement.

    Accepts an optional "u^2 =" prefix, implicit or explicit multiplication,
    and caret exponents on factors (which stand for repeated factors and
    are therefore rejected as duplicates).  A repeated factor is kept as
    one run with its count until the number of factors has been checked,
    so a large exponent costs no more than a small one.  Whitespace
    separates tokens anywhere, but two numbers separated by nothing else
    are refused rather than read as one.
    """
    eq = text.find("=")
    offset = 0
    if eq >= 0:
        head = "".join(text[:eq].split())
        if head not in ("u^2", "u2", "u**2", "u²"):
            raise ParseError(f"unexpected left-hand side {head!r}", 0)
        # blanked, so that every position counts from the start of the text
        offset = eq + 1
        text = " " * offset + text[offset:]
    toks = _TOKEN.findall(text)
    runs: list[tuple] = []  # (primitive row, four () when 0; count)
    n_factors = 0
    scalar, power = 1, 0  # the pending scalar, scalar * w^power
    w_at = 0  # the token of the last w of the pending power
    i = 0
    while True:
        c = toks[i]
        if c == "":
            break
        if c == "*":
            i += 1
            continue
        if c == ")":
            raise ParseError("unbalanced ')'", _position(text, i))
        if c == "(":
            vec, i = _parenthesized(text, toks, i, n_factors + 1)
        elif c in _SLOT:
            vec, i = _UNIT_ROW[c], i + 1
        elif c == PARAMETER:
            w_at = i
            power, i = _w_power(text, toks, i, power)
            continue
        elif "0" <= c < ":":
            value, i = _number(text, toks, i)
            scalar *= value
            continue
        else:
            raise ParseError(f"unexpected character {c!r}",
                             _position(text, i))
        count, i = _exponent(text, toks, i)
        if power and power + max(map(len, vec)) - 1 > MAX_W_DEGREE:
            raise ParseError(f"degree in w above {MAX_W_DEGREE}",
                             _w_position(text, toks, w_at))
        runs.append((_row(vec, scalar, power), count))
        n_factors += count
        scalar, power = 1, 0
    if scalar != 1 or power:
        if not runs:
            raise ParseError("dangling coefficient with no factor", len(text))
        # a trailing coefficient scales the last factor of the last run
        row, count = runs.pop()
        if count > 1:
            runs.append((row, count - 1))
        if power and power + max(map(len, row)) - 1 > MAX_W_DEGREE:
            raise ParseError(f"degree in w above {MAX_W_DEGREE}",
                             _w_position(text, toks, w_at))
        runs.append((_row(row, scalar, power), 1))

    if not runs:
        raise ParseError("empty product", offset)

    idx = 1
    for row, count in runs:
        if not any(row):
            raise NonLinearFactor(idx, "zero factor")
        idx += count
    if not 3 <= n_factors <= 8:
        raise ValueError(f"expected 3..8 forms, got {n_factors}")
    return ParamArrangement([row for row, count in runs
                             for _ in range(count)])


def _row(vec: tuple, scalar, power: int) -> tuple:
    """The factor ``vec``, four coefficient tuples in w of ints and
    Fractions without trailing zeros, times scalar * w^power, as a
    primitive Z[w] row: the positive rational multiple of it whose
    coefficients are integers without a common factor.  A zero product is
    four ()."""
    if scalar != 1 or power:
        vec = tuple((0,) * power + tuple(scalar * c for c in x)
                    if x and scalar else () for x in vec)
    if not any(vec):
        return vec
    ints = iter(_primitive([c for x in vec for c in x]))
    return tuple(tuple(islice(ints, len(x))) for x in vec)


def _parenthesized(text: str, toks: list, i: int, index: int) -> tuple:
    """The parenthesized linear combination opening at token ``i``, factor
    ``index`` (from 1): its four coefficient tuples in w, and the index
    after its ')'.  Each term is a product of numbers, powers of w and at
    most one projective variable; a term without one is a constant term and
    lands on t (chart t = 1).  The signs of a run multiply: x-+y is x - y,
    and --x is x."""
    dense = ([], [], [], [])
    sign, empty = 1, True
    i += 1
    while True:
        c = toks[i]
        if c == "":
            raise ParseError("unterminated '('", _position(text, i))
        if c == ")":
            break
        if c == "+" or c == "-":
            if c == "-":
                sign = -sign
            i += 1
            continue
        coeff, power, var, start = sign, 0, None, i
        while True:
            c = toks[i]
            if "0" <= c < ":":
                value, i = _number(text, toks, i)
                coeff *= value
            elif c == PARAMETER:
                power, i = _w_power(text, toks, i, power)
            elif c in _SLOT:
                k, i = _exponent(text, toks, i + 1)
                if var is not None or k > 1:
                    raise NonLinearFactor(index, "term of degree > 1")
                var = c
            else:
                break
        if i == start:
            raise _expected(text, toks, i, "a term")
        coeffs = dense[3 if var is None else _SLOT[var]]
        if len(coeffs) <= power:
            coeffs.extend([0] * (power + 1 - len(coeffs)))
        coeffs[power] += coeff
        sign, empty = 1, False
    if empty:
        raise ParseError("empty parentheses", _position(text, i) + 1)
    return tuple(_zw_trim(coeffs) for coeffs in dense), i + 1


def _w_power(text: str, toks: list, i: int, power: int) -> tuple:
    """``power`` plus the exponent of the ``w`` at token ``i``, and the
    index after it.  A total above ``MAX_W_DEGREE`` is refused at the
    exponent that passes it, its '^' or the place just after a bare w,
    before any coefficient list is built."""
    k, j = _exponent(text, toks, i + 1)
    power += k
    if power > MAX_W_DEGREE:
        raise ParseError(f"degree in w above {MAX_W_DEGREE}",
                         _w_position(text, toks, i))
    return power, j


def _w_position(text: str, toks: list, i: int) -> int:
    """Where a degree in w that the w at token ``i`` takes past the bound
    is refused: at its '^', or just after it when it has none."""
    if toks[i + 1] == "^":
        return _position(text, i + 1)
    return _position(text, i) + 1


def _exponent(text: str, toks: list, i: int) -> tuple:
    """The exponent at token ``i``, 1 where that is no '^', and the index
    after it."""
    if toks[i] != "^":
        return 1, i
    i += 1
    if not "0" <= toks[i] < ":":
        raise _expected(text, toks, i, "an exponent")
    n, i = _number(text, toks, i)
    if n.denominator != 1 or n <= 0:
        raise ParseError("exponent must be a positive integer",
                         _position(text, i))
    return int(n), i


def _number(text: str, toks: list, i: int) -> tuple:
    """The integer at token ``i``, or the Fraction where a '/' follows it,
    and the index after it.  A number next, which only whitespace can
    separate from this one, is refused."""
    digits, i = toks[i], i + 1
    if toks[i] == "/":
        den = toks[i + 1]
        if not "0" <= den < ":":
            raise _expected(text, toks, i + 1, "a denominator")
        if not int(den):
            raise ParseError("zero denominator", _position(text, i - 1))
        value, i = Fraction(int(digits), int(den)), i + 2
    else:
        value = int(digits)
    if "0" <= toks[i] < ":":
        raise ParseError("two numbers separated only by whitespace",
                         _position(text, i))
    return value, i


def _expected(text: str, toks: list, i: int, what: str) -> ParseError:
    """The error at token ``i`` where ``what`` was expected: an unexpected
    character where that token is a digit other than 0-9."""
    c = toks[i]
    return ParseError(f"unexpected character {c!r}" if c.isdigit()
                      else f"expected {what}", _position(text, i))


def _position(text: str, i: int) -> int:
    """Where token ``i`` of ``text`` starts: past its whitespace, and the
    end of the text for the closing empty token."""
    return next(islice(_TOKEN.finditer(text), i, None)).start(1)

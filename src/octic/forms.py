"""Plane arrangements given as products of linear forms.

An equation like ``u^2 = xy(x+y+w)z`` is a product of factors, each linear
in the projective variables x, y, z, t with coefficients polynomial in the
parameter w, of degree at most ``MAX_W_DEGREE``.  Additive constant terms
(including bare ``w``) are read in the affine chart t = 1, so they pick up
a factor of t on the way in.

A parsed family keeps each form twice: as a ``LinearForm`` of ``Poly``
coefficients over Q, which prints it, and as its primitive integer row over
Z[w] (``ParamArrangement.rows``), from which every minor, degenerate value
and fiber is computed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .exact import Poly, _integer_row, _pack_rows

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


class LinearForm:
    """a·x + b·y + c·z + d·t with a,b,c,d in Q[w]."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = []
        for c in coeffs:
            if isinstance(c, Poly):
                cs.append(c)
            else:
                cs.append(Poly([c]) if c else Poly())
        if len(cs) != 4:
            raise ValueError("a linear form needs 4 coefficients")
        self.coeffs = tuple(cs)

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(c.coeffs for c in self.coeffs))

    def text(self) -> str:
        """Compact printable form; round-trips through parse_equation."""
        parts = []
        for vi, var in enumerate(VARIABLES):
            poly = self.coeffs[vi]
            for k, c in enumerate(poly.coeffs):
                if c == 0:
                    continue
                parts.append((c, k, var))
        if not parts:
            return "0"
        out = []
        for c, k, var in parts:
            wpart = "" if k == 0 else (PARAMETER if k == 1 else f"{PARAMETER}^{k}")
            vpart = "" if var == "t" else var
            if var == "t" and k == 0:
                body = _coeff_str(c, bare_ok=True)
            else:
                body = _coeff_str(c, bare_ok=False) + wpart + vpart
            if out:
                if body.startswith("-"):
                    out.append("-")
                    body = body[1:]
                else:
                    out.append("+")
            out.append(body)
        return "".join(out)

    def __repr__(self):
        return f"LinearForm({self.text()})"


def _coeff_str(c: Fraction, bare_ok: bool) -> str:
    if bare_ok:
        return str(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    if c == 1:
        return ""
    if c == -1:
        return "-"
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


class ParamArrangement:
    """One-parameter family of plane arrangements, 3 to 8 forms.

    ``rows`` holds each form's primitive integer row: its coefficients
    times the positive rational that clears their denominators and their
    content, as four Z[w] coefficient tuples (``exact._integer_row``).
    Every minor, fiber and coordinate of the family is computed from these
    rows.  Two forms are proportional over Q(w) when all six 2x2 minors of
    their rows vanish; the minors are taken on the rows packed into
    integers at w = 2^k (``_pack_rows``), and a packed minor is 0 exactly
    when the minor is.
    """

    def __init__(self, forms: Sequence[LinearForm]):
        forms = list(forms)
        if not 3 <= len(forms) <= 8:
            raise ValueError(f"expected 3..8 forms, got {len(forms)}")
        for i, f in enumerate(forms):
            if f.is_zero():
                raise ValueError(f"form {i + 1} is identically zero")
        self.rows = tuple(_integer_row(f.coeffs) for f in forms)
        packed, _ = _pack_rows(self.rows)
        for (i, ri), (j, rj) in combinations(enumerate(packed, 1), 2):
            if all(ri[a] * rj[b] == ri[b] * rj[a]
                   for a, b in combinations(range(4), 2)):
                raise DuplicateFactor(i, j)
        self.forms = forms

    def __len__(self):
        return len(self.forms)

    def text(self) -> str:
        return "".join(_factor_text(f) for f in self.forms)

    def __repr__(self):
        return f"ParamArrangement({self.text()})"


def _factor_text(f: LinearForm) -> str:
    t = f.text()
    nontrivial = sum(1 for poly in f.coeffs for c in poly.coeffs if c != 0)
    if nontrivial == 1 and t in ("x", "y", "z", "t"):
        return t
    return f"({t})"


# ---------------------------------------------------------------------------
# parsing


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def take(self) -> str:
        c = self.peek()
        if c:
            self.pos += 1
        return c

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, self.pos)


def parse_equation(text: str) -> ParamArrangement:
    """Parse a product of linear factors into a parameterized arrangement.

    Accepts an optional "u^2 =" prefix, implicit or explicit multiplication,
    and caret exponents on factors (which stand for repeated factors and
    are therefore rejected as duplicates).  A repeated factor is kept as
    one run with its count until the number of factors has been checked,
    so a large exponent costs no more than a small one.
    """
    stripped = text
    eq = stripped.find("=")
    if eq >= 0:
        head = stripped[:eq].replace(" ", "")
        if head not in ("u^2", "u2", "u**2", "u²"):
            raise ParseError(f"unexpected left-hand side {head!r}", 0)
        stripped = stripped[eq + 1 :]
        offset = eq + 1
    else:
        offset = 0
    sc = _Scanner(stripped)
    runs: list[tuple] = []  # (4-tuple of Polys, scalars applied; count)
    n_factors = 0
    scalar, power = Fraction(1), 0  # the pending scalar, scalar * w^power

    while True:
        c = sc.peek()
        if c == "":
            break
        if c == "*":
            sc.take()
            continue
        if c == ")":
            raise sc.error("unbalanced ')'")
        if c == "(":
            vec = _parse_paren(sc, n_factors + 1)
        elif c in "xyzt":
            sc.take()
            vec = _UNIT[c]
        elif c == PARAMETER:
            power = _times_w(sc, power)
            continue
        elif c.isdigit():
            scalar *= _parse_int(sc)
            continue
        else:
            raise sc.error(f"unexpected character {c!r}")
        count = _maybe_exponent(sc)
        if scalar != 1 or power:
            vec = _scaled(vec, scalar, power, sc.pos)
            scalar, power = Fraction(1), 0
        runs.append((vec, count))
        n_factors += count
    if scalar != 1 or power:
        if not runs:
            raise ParseError("dangling coefficient with no factor", offset + sc.pos)
        # a trailing coefficient scales the last factor of the last run
        vec, count = runs.pop()
        if count > 1:
            runs.append((vec, count - 1))
        runs.append((_scaled(vec, scalar, power, offset + sc.pos), 1))

    if not runs:
        raise ParseError("empty product", offset)

    idx = 1
    for vec, count in runs:
        if not any(vec):
            raise NonLinearFactor(idx, "zero factor")
        idx += count
    if not 3 <= n_factors <= 8:
        raise ValueError(f"expected 3..8 forms, got {n_factors}")
    return ParamArrangement([LinearForm(vec) for vec, count in runs
                             for _ in range(count)])


# the factor each projective variable stands for
_UNIT = {v: tuple(Poly.const(1) if u == v else Poly() for u in VARIABLES)
         for v in VARIABLES}


def _scaled(vec: tuple, scalar: Fraction, power: int,
            position: int) -> tuple:
    """The factor ``vec`` times scalar * w^power.  A coefficient of degree
    above ``MAX_W_DEGREE`` in w is refused at ``position``."""
    if power + max(p.degree for p in vec) > MAX_W_DEGREE:
        raise ParseError(f"degree in w above {MAX_W_DEGREE}", position)
    return tuple(Poly([0] * power + [scalar * c for c in p.coeffs]) if p else p
                 for p in vec)


def _parse_int(sc: _Scanner) -> Fraction:
    start = sc.pos
    digits = ""
    while sc.peek().isdigit():
        digits += sc.take()
    if not digits:
        raise ParseError("expected an integer", start)
    if sc.peek() == "/":
        sc.take()
        dd = ""
        while sc.peek().isdigit():
            dd += sc.take()
        if not dd:
            raise sc.error("expected a denominator")
        if not int(dd):
            raise ParseError("zero denominator", start)
        return Fraction(int(digits), int(dd))
    return Fraction(int(digits))


def _times_w(sc: _Scanner, power: int) -> int:
    """``power`` plus the exponent of the ``w`` at the scanner, which it
    takes; a total above ``MAX_W_DEGREE`` is refused at the exponent,
    before any coefficient list is built."""
    sc.take()
    start = sc.pos
    power += _maybe_exponent(sc)
    if power > MAX_W_DEGREE:
        raise ParseError(f"degree in w above {MAX_W_DEGREE}", start)
    return power


def _maybe_exponent(sc: _Scanner) -> int:
    if sc.peek() != "^":
        return 1
    sc.take()
    if not sc.peek().isdigit():
        raise sc.error("expected an exponent")
    n = _parse_int(sc)
    if n.denominator != 1 or n <= 0:
        raise sc.error("exponent must be a positive integer")
    return int(n)


def _parse_paren(sc: _Scanner, index: int):
    """One parenthesized linear combination, factor ``index`` (from 1).
    Terms without a projective variable are constant terms and land on t
    (chart t = 1)."""
    sc.take()  # the "(" the caller peeked at
    vec = [Poly(), Poly(), Poly(), Poly()]
    sign = 1
    empty = True
    while True:
        c = sc.peek()
        if c == "":
            raise sc.error("unterminated '('")
        if c == ")":
            sc.take()
            break
        if c == "+":
            sc.take()
            sign = 1
            continue
        if c == "-":
            sc.take()
            sign = -1
            continue
        coeff, var = _parse_term(sc, index)
        if sign < 0:
            coeff = -coeff
        # an additive constant is homogenized onto t
        slot = 3 if var is None else VARIABLES.index(var)
        vec[slot] = vec[slot] + coeff
        sign = 1
        empty = False
    if empty:
        raise sc.error("empty parentheses")
    return tuple(vec)


def _parse_term(sc: _Scanner, index: int):
    """One product of an optional rational coefficient, powers of w, and at
    most one projective variable, in factor ``index``.  Returns (the
    coefficient as one monomial ``Poly`` in w, var|None).
    """
    coeff, power = Fraction(1), 0
    var = None
    saw_anything = False
    while True:
        c = sc.peek()
        if c.isdigit():
            coeff *= _parse_int(sc)
        elif c == PARAMETER:
            power = _times_w(sc, power)
        elif c and c in "xyzt":
            sc.take()
            k = _maybe_exponent(sc)
            if var is not None or k > 1:
                raise NonLinearFactor(index, "term of degree > 1")
            var = c
        else:
            break
        saw_anything = True
    if not saw_anything:
        raise sc.error("expected a term")
    return Poly([0] * power + [coeff]), var

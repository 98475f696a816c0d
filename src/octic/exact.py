"""Exact arithmetic kernel.

Rationals are `fractions.Fraction` (arbitrary precision, always reduced,
positive denominator, so the invariants come for free).  On top of that:
dense univariate polynomials over Q (``Poly``, the coefficients the parser
builds), one kernel of integer polynomials in Z[w] for everything computed
from them, and the rank of a matrix over Q by fraction-free elimination on
integer rows.  A family's rows enter the kernel once, made primitive integer
rows (``_integer_row``), and so do a matrix's rows (``rank``).

Minors of Z[w] rows are taken by Kronecker substitution: each entry is
packed into one Python integer, its value at w = 2^k (``_zw_pack``), the
products and sums run on those integers, and a result's coefficients are
its balanced base-2^k digits (``_zw_unpack``), read where they are needed.
The width k comes from a 1-norm bound (``_zw_width``): k - 1 bits hold 24
times the product of the four largest row norms, which bounds every
coefficient of every maximal minor of at most four rows.  Gcds in Z[w] are
taken on packed integers too, by the heuristic gcd GCDHEU (Char, Geddes and
Gonnet 1989): one integer gcd at a 2^k large enough to hold the inputs'
roots, read back as digits and checked by exact division, with primitive
pseudo-remainder sequences as the fallback.  ``rational_roots`` tests and
divides out each candidate root in integers, leaving the square-free
decomposition, also in Z[w], to the leftovers without a rational root.

Everything here is immutable and pure; no floats anywhere.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import islice, zip_longest
from math import gcd as int_gcd, lcm as int_lcm, prod
from typing import Iterable, Optional, Sequence, Union


class ZeroPolynomial(ValueError):
    pass


def _coerce_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


class Poly:
    """Univariate polynomial over Q, coefficients ascending.

    The zero polynomial has an empty coefficient list; otherwise the
    leading coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_coerce_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------

    @staticmethod
    def const(c) -> "Poly":
        return Poly([_coerce_fraction(c)])

    # -- basic queries -----------------------------------------------

    @property
    def degree(self) -> int:
        # degree of 0 is -1 by convention here
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        # only a Poly equals a Poly, so that equal objects hash alike
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    # -- arithmetic --------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*w" if c != 1 else "w")
            else:
                parts.append(f"{c}*w^{i}" if c != 1 else f"w^{i}")
        return " + ".join(parts)


def _as_poly(x) -> Union[Poly, None]:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly([x])
    return None


# ---------------------------------------------------------------------------
# Z[w]: ascending integer coefficient tuples without trailing zeros; () is 0
#
# Minors, gcds, coordinates and roots are all computed here, fraction-free.
# The names stay private: they run in the innermost loops, which tools that
# wrap every public function of a module (profilers, tracers) leave alone.
#
# Packing (Kronecker substitution) is exact: evaluation at w = 2^k is a ring
# homomorphism, so a packed result is the true result's value at 2^k, and
# its balanced base-2^k digits are the true coefficients while each lies in
# [-2^(k-1), 2^(k-1)).


def _zw_sub(a: tuple, b: tuple) -> tuple:
    return _zw_trim([x - y for x, y in zip_longest(a, b, fillvalue=0)])


def _zw_trim(coeffs: list) -> tuple:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _integer_row(row: Sequence[Poly]) -> tuple:
    """The ``Poly`` ``row`` times the positive rational that makes it a
    primitive integer row: its entries as Z[w] tuples whose coefficients
    share no common factor."""
    ints = iter(_primitive([c for x in row for c in x.coeffs]))
    return tuple(tuple(islice(ints, len(x.coeffs))) for x in row)


def _primitive(cs: Sequence) -> list:
    """The ints or Fractions ``cs``, not all 0, times the positive rational
    that makes them integers without a common factor."""
    den = int_lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (den // c.denominator) for c in cs]
    content = int_gcd(*ints)
    return [x // content for x in ints]


def _pack_rows(rows: Sequence[Sequence[tuple]]) -> tuple[list, int]:
    """The Z[w] ``rows`` with every entry packed at w = 2^k, for k the
    ``_zw_width`` of them, and k."""
    k = _zw_width(rows)
    return [[_zw_pack(x, k) for x in r] for r in rows], k


def _zw_width(rows: Sequence[Sequence[tuple]]) -> int:
    """A packing width k for the maximal minors of any at most four of the
    nonzero Z[w] ``rows``.  A minor of m rows is a sum of m! products of one
    entry per row, so the 1-norm of its coefficients, and with it each
    coefficient, is at most m! <= 24 times the product of the rows' largest
    entry 1-norms, which the product of the four largest such norms over
    all rows bounds (each is >= 1).  k - 1 bits hold that bound."""
    norms = sorted(max(sum(map(abs, x)) for x in r) for r in rows)
    return (24 * prod(norms[-4:])).bit_length() + 1


def _zw_pack(c: tuple, k: int) -> int:
    """The value of ``c`` at w = 2^k, one shift per nonzero coefficient, so
    a sparse ``c`` of high degree costs no more than its length."""
    return sum(x << (k * i) for i, x in enumerate(c) if x)


def _zw_unpack(value: int, k: int) -> tuple:
    """The Z[w] tuple whose value at w = 2^k (k >= 2) is ``value`` and
    whose coefficients all lie in [-2^(k-1), 2^(k-1)): the balanced
    base-2^k digits of ``value``, lowest first.  A run of zero digits is
    shifted off at once, so a sparse result of high degree takes one shift
    per nonzero digit."""
    half, mask = 1 << (k - 1), (1 << k) - 1
    digits = []
    while value:
        low = value & mask
        if not low:
            zeros = ((value & -value).bit_length() - 1) // k
            digits += [0] * zeros
            value >>= k * zeros
            continue
        if low >= half:
            low -= mask + 1
        digits.append(low)
        value = (value - low) >> k
    return tuple(digits)


def _zw_div(a: tuple, b: tuple) -> Optional[tuple]:
    """The quotient of ``a`` by a nonzero ``b`` in Z[w], or None when ``b``
    does not divide ``a`` there (by Gauss's lemma, for a primitive ``b``,
    when it does not divide it in Q[w])."""
    if not a:
        return ()
    r, lead, n = list(a), b[-1], len(b)
    if len(r) < n:
        return None
    quotient = [0] * (len(a) - n + 1)
    for k in reversed(range(len(quotient))):
        c, rest = divmod(r[k + n - 1], lead)
        if rest:
            return None
        if c:
            quotient[k] = c
            for i, y in enumerate(b):
                r[k + i] -= c * y
    return None if any(r[:n - 1]) else tuple(quotient)


# tries of the heuristic gcd, each at twice the width of the last, before
# the pseudo-remainder sequence takes over
_HEU_TRIES = 4


def _zw_gcd(polys: Iterable[tuple], k: int = 0) -> tuple:
    """The gcd in Z[w] of ``polys`` in primitive form (coefficients without
    a common factor, positive leading one): () when all are 0, and (1,) when
    it is constant.

    GCDHEU (Char, Geddes and Gonnet 1989): one integer gcd of the values at
    w = 2^k, with 2^k >= 2 h + 2 for h the least height (largest absolute
    coefficient) of a nonzero input, read back as balanced base-2^k digits
    and made primitive (``_zw_heu``).  A candidate that fails the division
    test is retried at twice the width, and after ``_HEU_TRIES`` widths the
    primitive pseudo-remainder sequence decides (``_zw_prs_gcd``).  ``k``
    sets the first width; one below the bound is doubled up to it.
    """
    polys = [p for p in polys if p]
    if not polys:
        return ()
    if any(len(p) == 1 for p in polys):
        return (1,)
    bound = 2 * min(max(map(abs, p)) for p in polys) + 2
    k = k or (bound - 1).bit_length()
    for _ in range(_HEU_TRIES):
        if 1 << k >= bound:
            g = _zw_heu(polys, int_gcd(*(_zw_pack(p, k) for p in polys)), k)
            if g:
                return g
        k *= 2
    return _zw_prs_gcd(polys)


def _zw_heu(polys: Sequence[tuple], value: int, k: int) -> Optional[tuple]:
    """The primitive gcd of the nonzero ``polys`` read off ``value``, the
    integer gcd of their values at w = 2^k, or None when the candidate (the
    balanced base-2^k digits of ``value``, made primitive) does not divide
    them all.

    It needs 2^k >= 2 h + 2 for the height h of one of them: every root of
    that one then lies below 1 + h <= 2^(k-1) in absolute value (Cauchy),
    so each nonconstant factor f of it has |f(2^k)| > 2^(k-1).  The gcd's
    value divides ``value``, so a ``value`` below 2^(k-1) in absolute value
    makes the gcd 1.  A candidate that divides them all is the gcd: the gcd
    is the candidate times a factor whose value divides the digits'
    content, which is at most 2^(k-1), so that factor is constant."""
    g = _zw_primitive(_zw_unpack(value, k))
    if len(g) == 1 or all(_zw_div(p, g) is not None for p in polys):
        return g
    return None


def _zw_prs_gcd(polys: Sequence[tuple]) -> tuple:
    """``_zw_gcd`` of the nonzero ``polys`` by primitive pseudo-remainder
    sequences (Brown 1971), every step in Z[w]."""
    g = ()
    for p in polys:
        p = _zw_primitive(p)
        if g:
            if len(g) < len(p):
                g, p = p, g
            while len(p) > 1:
                r = _zw_prem(g, p)
                g, p = p, _zw_primitive(r) if r else ()
            if p:
                g = (1,)
        else:
            g = p
        if len(g) == 1:
            return g
    return g


def _zw_primitive(a: tuple) -> tuple:
    """Nonzero ``a`` without its content, leading coefficient positive."""
    g = int_gcd(*a)
    return tuple(x // (g if a[-1] > 0 else -g) for x in a)


def _zw_prem(a: tuple, b: tuple) -> tuple:
    """A nonzero integer multiple of the remainder of a by b in Q[w]: each
    step scales by b's leading coefficient before subtracting."""
    r, lead = a, b[-1]
    while len(r) >= len(b):
        c, k = r[-1], len(r) - len(b)
        r = [x * lead for x in r]
        for i, y in enumerate(b):
            r[k + i] -= c * y
        r = _zw_trim(r)
    return r


def _zw_value(c: tuple, p: int, q: int) -> int:
    """The value of ``c`` at w = p/q times q^degree, by Horner's rule in
    integers; it is 0 exactly when ``c`` vanishes at p/q."""
    value, scale = 0, 1
    for x in reversed(c):
        value = value * p + x * scale
        scale *= q
    return value


def _zw_at(polys: Sequence[tuple], w0: Fraction) -> list:
    """The values of ``polys`` at ``w0`` = p/q as constant Z[w] tuples, all
    over the one denominator q^d, d their top degree: the vector of values
    times the positive integer q^d."""
    p, q = w0.numerator, w0.denominator
    top = max(map(len, polys))
    return [_zw_trim([_zw_value(c, p, q) * q ** (top - len(c))])
            for c in polys]


def _zw_squarefree(p: tuple) -> list:
    """Yun's square-free decomposition of ``p`` (degree >= 1) in Z[w]: its
    pairwise coprime square-free factors of degree >= 1, each primitive,
    one per multiplicity that occurs."""
    g = _zw_gcd([p, tuple(i * c for i, c in enumerate(p))[1:]])
    w = _zw_div(p, g)
    out = []
    while len(w) > 1:
        y = _zw_gcd([w, g])
        factor = _zw_div(w, y)
        if len(factor) > 1:
            out.append(_zw_primitive(factor))
        w, g = y, _zw_div(g, y)
    return out


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def rational_roots(p: tuple) -> tuple[list[tuple[Fraction, int]], list[tuple]]:
    """All rational roots of the nonzero Z[w] polynomial ``p`` (ascending
    integer coefficients, such as the primitive gcd ``_zw_gcd`` returns)
    with multiplicities, plus the leftover square-free, pairwise coprime
    primitive factors of degree >= 2 that have no rational root.  No claim
    of irreducibility is made for the leftovers.

    The roots are peeled off a0 + ... + an w^n in integers: 0 as often as w
    divides it, then each n/d in lowest terms with n | a0 and d | an,
    divided out as often as d w - n divides it (by Gauss's lemma it divides
    in Z[w] exactly when n/d is a root).  A remaining degree-1 factor's
    root is read off, with no divisor search.  The square-free
    decomposition runs only on a leftover of degree >= 2.
    """
    if not p:
        raise ZeroPolynomial("roots of the zero polynomial")
    shift = next(i for i, c in enumerate(p) if c)
    ints = p[shift:]
    roots: list[tuple[Fraction, int]] = [(Fraction(0), shift)] if shift else []
    if len(ints) > 2:
        for num, den in _root_candidates(ints[0], ints[-1]):
            mult = 0
            while (quotient := _divide_root(ints, num, den)) is not None:
                ints, mult = quotient, mult + 1
            if mult:
                roots.append((Fraction(num, den), mult))
            if len(ints) <= 2:
                break
    if len(ints) == 2:
        roots.append((Fraction(-ints[0], ints[1]), 1))
    roots.sort(key=lambda rm: rm[0])
    residual = _zw_squarefree(tuple(ints)) if len(ints) > 2 else []
    return roots, residual


def _root_candidates(a0: int, an: int):
    """Every n/d in lowest terms, both signs, with n | a0 and d | an."""
    dens = _divisors(an)
    for num in _divisors(a0):
        for den in dens:
            if int_gcd(num, den) == 1:
                yield num, den
                yield -num, den


def _divide_root(ints: Sequence[int], num: int, den: int) -> Optional[list[int]]:
    """The quotient of the ascending integer coefficients ``ints`` by
    den*w - num in Z[w], or None when it does not divide."""
    quotient, carry = [], 0
    for c in reversed(ints[1:]):
        carry, rem = divmod(c + num * carry, den)
        if rem:
            return None
        quotient.append(carry)
    if ints[0] + num * carry:
        return None
    return quotient[::-1]


# ---------------------------------------------------------------------------
# matrices over Q


def rank(rows: Sequence[Sequence]) -> int:
    """The rank of the matrix over Q whose ``rows`` hold ints or Fractions.

    Each nonzero row is scaled to a primitive integer row (``_primitive``),
    which keeps the rank.  Fraction-free elimination (Bareiss 1968) then
    runs on the integers: for each column, the first row below the pivots
    with a nonzero entry there becomes the next pivot row (a column without
    one is skipped), and every row below it is cross-multiplied by the new
    pivot and divided by the previous one.  By Sylvester's identity the
    division is exact, each entry stays a minor of the scaled matrix (up to
    sign), and the rank is the number of pivots.
    """
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise ValueError("ragged matrix")
    work = [_primitive(row) for row in rows if any(row)]
    r, prev = 0, 1
    for c in range(width):
        if r == len(work):
            break
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        top = work[r]
        lead = top[c]
        for i in range(r + 1, len(work)):
            a = work[i][c]
            work[i] = [(lead * x - a * y) // prev for x, y in zip(work[i], top)]
        r, prev = r + 1, lead
    return r


def fraction_str(x: Fraction) -> str:
    """Canonical text form "p/q" in lowest terms, integers without "/1"."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def parse_fraction(s: str) -> Fraction:
    """``s`` read as ``Fraction`` reads it, refused (ValueError) where its
    numerator or denominator would print more digits than
    ``sys.get_int_max_str_digits()`` allows.  A long exponent, and more
    digits than that in ``s`` itself, are refused before the Fraction is
    built: building it expands ``10**exponent``, which a large enough
    exponent never ends, and reads each run of digits as an integer, which
    a run over the limit fails in the interpreter's words."""
    # 4300, the limit's default, where the limit is off (0) or the
    # interpreter predates it (Python 3.10.6 and older)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    exponent = _EXPONENT.search(s)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(limit)) or int(digits or 0) > limit:
            raise ValueError(f"the exponent of {s!r} exceeds {limit}, the "
                             "most digits an integer prints")
    if sum(map(str.isdigit, s)) <= limit:
        try:
            x = Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {s!r}") from None
        top = max(abs(x.numerator), x.denominator)
        # below 2^(3 limit) < 10^limit, no test of the digits is needed
        if top.bit_length() <= 3 * limit or top < 10 ** limit:
            return x
    shown = s if len(s) <= 40 else s[:20] + "..."
    raise ValueError(f"the value of {shown!r} has more than {limit} digits, "
                     "the most an integer prints")

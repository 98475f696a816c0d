"""Exact arithmetic kernel.

Rationals are `fractions.Fraction` (arbitrary precision, always reduced,
positive denominator, so the invariants come for free).  On top of that:
dense univariate polynomials over Q, their rational roots, determinants of
small matrices with polynomial or rational entries (for coordinates), and
dense matrices over Q with deterministic Gauss-Jordan reduction.  Where the
data are integers the work stays in integers: ``Poly.evaluate`` sums over
one common denominator, and ``rational_roots`` tests and divides out each
candidate root on the primitive integer form, leaving Euclid over Q and the
square-free decomposition to the leftovers without a rational root.

Everything here is immutable and pure; no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm as int_lcm
from typing import Iterable, Optional, Sequence, Union

Rational = Fraction


class ZeroPolynomial(ValueError):
    pass


class BothZero(ValueError):
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

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    # -- basic queries -----------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        # degree of 0 is -1 by convention here
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is None:
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

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.coeffs
        while len(rem) >= len(d):
            if rem[-1] == 0:
                rem.pop()
                continue
            k = len(rem) - len(d)
            c = rem[-1] / d[-1]
            q[k] = c
            for i, dc in enumerate(d):
                rem[k + i] -= c * dc
            rem.pop()
        return Poly(q), Poly(rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if r:
            raise ValueError("division was not exact")
        return q

    # -- structure ---------------------------------------------------

    def monic(self) -> "Poly":
        if not self.coeffs:
            return self
        lc = self.coeffs[-1]
        if lc == 1:
            return self
        return Poly([c / lc for c in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, v) -> Fraction:
        """The value at ``v``.  With v = a/b and D the common denominator of
        the n + 1 coefficients, one integer sum of c_i D a^i b^(n-i) is
        divided once by D b^n; a constant is its own value."""
        v = _coerce_fraction(v)
        cs = self.coeffs
        if len(cs) < 2:
            return cs[0] if cs else Fraction(0)
        den = 1
        for c in cs:
            den = int_lcm(den, c.denominator)
        a, b = v.numerator, v.denominator
        acc, scale = 0, 1
        for c in reversed(cs):
            acc = acc * a + c.numerator * (den // c.denominator) * scale
            scale *= b
        return Fraction(acc, den * scale // b)

    def primitive_integer(self) -> tuple[Fraction, list[int]]:
        """Split off content: p = content * primitive, primitive integral
        with gcd of coefficients 1 and positive leading coefficient."""
        if not self.coeffs:
            return Fraction(0), []
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // int_gcd(den, c.denominator)
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for c in ints:
            g = int_gcd(g, abs(c))
        ints = [c // g for c in ints]
        sign = 1
        if ints[-1] < 0:
            sign = -1
            ints = [-c for c in ints]
        return Fraction(sign * g, den), ints

    def shift_scale(self, scale: Fraction) -> "Poly":
        return Poly([c * scale for c in self.coeffs])

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


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm.  Raises BothZero on (0, 0)."""
    if not p and not q:
        raise BothZero("gcd of two zero polynomials")
    a, b = p, q
    while b:
        a, b = b, a % b
    return a.monic()


def squarefree_factors(p: Poly) -> list[tuple[Poly, int]]:
    """Yun-style square-free decomposition: pairwise coprime monic factors
    with multiplicities, product (with lead constant) rebuilding p."""
    if not p:
        raise ZeroPolynomial("square-free decomposition of 0")
    p = p.monic()
    out: list[tuple[Poly, int]] = []
    d = p.derivative()
    if not d:
        # constant
        return out
    g = poly_gcd(p, d)
    w = p.exact_div(g)
    mult = 1
    while w.degree > 0:
        y = poly_gcd(w, g)
        factor = w.exact_div(y)
        if factor.degree > 0:
            out.append((factor.monic(), mult))
        w = y
        g = g.exact_div(y)
        mult += 1
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


def rational_roots(p: Poly) -> tuple[list[tuple[Fraction, int]], list[Poly]]:
    """All rational roots of p with multiplicities, plus the leftover
    square-free, pairwise coprime monic factors of degree >= 2 that have no
    rational root.  No claim of irreducibility is made for the leftovers.

    The roots are peeled off the primitive integer form a0 + ... + an w^n
    in integers: 0 as often as w divides it, then each n/d in lowest terms
    with n | a0 and d | an, divided out as often as d w - n divides it (by
    Gauss's lemma it divides in Z[w] exactly when n/d is a root).  A
    remaining degree-1 factor's root is read off, with no divisor search.
    The square-free decomposition runs only on a leftover of degree >= 2.
    """
    if not p:
        raise ZeroPolynomial("roots of the zero polynomial")
    _, ints = p.primitive_integer()
    shift = next(i for i, c in enumerate(ints) if c)
    ints = ints[shift:]
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
    residual = ([f for f, _ in squarefree_factors(Poly(ints))]
                if len(ints) > 2 else [])
    return roots, residual


def _root_candidates(a0: int, an: int):
    """Every n/d in lowest terms, both signs, with n | a0 and d | an."""
    dens = _divisors(an)
    for num in _divisors(a0):
        for den in dens:
            if int_gcd(num, den) == 1:
                yield num, den
                yield -num, den


def _divide_root(ints: list[int], num: int, den: int) -> Optional[list[int]]:
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


class ExactMatrix:
    """Dense matrix over Q.  ``field`` names the scalar domain, always "Q"."""

    __slots__ = ("rows", "cols", "entries", "field", "_rank")

    def __init__(self, entries: Sequence[Sequence]):
        grid = [list(row) for row in entries]
        ncols = len(grid[0]) if grid else 0
        for row in grid:
            if len(row) != ncols:
                raise ValueError("ragged matrix")
        self.entries = [[_coerce_fraction(e) for e in row] for row in grid]
        self.rows = len(grid)
        self.cols = ncols
        self.field = "Q"
        self._rank = None

    def rank(self) -> int:
        """The rank, by one ``rref`` on the first request; a transpose is
        handed the rank already known, since it has the same."""
        if self._rank is None:
            self._rank = rref(self)[0]
        return self._rank

    def transpose(self) -> "ExactMatrix":
        if self.rows == 0:
            t = ExactMatrix([[] for _ in range(self.cols)]) if self.cols else ExactMatrix([])
        else:
            t = ExactMatrix([[self.entries[r][c] for r in range(self.rows)]
                             for c in range(self.cols)])
        t._rank = self._rank
        return t

    def matvec(self, v: Sequence) -> list:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        out = []
        for row in self.entries:
            acc = None
            for a, b in zip(row, v):
                term = a * b
                acc = term if acc is None else acc + term
            if acc is None:
                acc = Fraction(0)
            out.append(acc)
        return out

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols} over {self.field})"


def rref(m: ExactMatrix) -> tuple[int, list[list], list[int]]:
    """Reduced row echelon form bookkeeping, by Gauss-Jordan over Q.

    Returns (rank, kernel_basis, pivot_columns).  Pivoting is always on the
    first nonzero entry scanning columns left to right, so the kernel basis
    is canonical: one vector per free column, with 1 in the free position.
    """
    if m.rows == 0 or m.cols == 0:
        return 0, _trivial_kernel(m.cols), []
    work = [row[:] for row in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = Fraction(1) / work[r][c]
        work[r] = [e * inv for e in work[r]]
        for i in range(nrows):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    rank = len(pivots)
    free = [c for c in range(ncols) if c not in pivots]
    kernel = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -work[i][fc]
        kernel.append(v)
    return rank, kernel, pivots


def _trivial_kernel(ncols: int) -> list[list]:
    out = []
    for fc in range(ncols):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        out.append(v)
    return out


def poly_det(rows: Sequence[Sequence]):
    """Determinant of a small square matrix by Laplace expansion down the
    first column.  Entries are all ``Poly`` or all ``Fraction``, and so is
    the result; only ``+ - *`` and truthiness are used.  It serves the
    coordinates of incidence points and lines (``incidence.minors``); the
    minor table that decides incidences is computed fraction-free in
    ``incidence``.  Not meant for anything big."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Poly.const(1)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = None
    for i in range(n):
        if rows[i][0]:
            minor = [r[1:] for j, r in enumerate(rows) if j != i]
            term = rows[i][0] * poly_det(minor)
            if i % 2:
                term = -term
            total = term if total is None else total + term
    # an all-zero first column leaves the determinant at that zero
    return rows[0][0] if total is None else total


def fraction_str(x: Fraction) -> str:
    """Canonical text form "p/q" in lowest terms, integers without "/1"."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None

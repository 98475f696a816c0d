"""Seeded one-parameter families of eight planes, degenerate at w = 0.

Each family is x, y, z, t and four small-integer forms: two or three
constant forms from a fixed base, and one or two moving forms
``g + w*h`` drawn from the seed, where ``g`` lies in the pencil of two of
the constant planes or in the net of three, so that at w = 0 it meets
them in a new triple line or a new quadruple point.  A family is kept
only if an independent exact check, written here with integers and
Fractions and never with ``octic``, confirms that the generic fiber is
octic (no line on four planes, no point on six), that the fiber at w = 0
is still eight distinct planes, that some 3x4 or 4x4 block of the
coefficient rows drops rank at w = 0, and that the number of degenerate
values lies in ``DEGENERATE_BAND`` (all by ``scan``).

A row is a pair ``(base, slope)`` of integer 4-vectors: the form is
``base + w*slope`` in the variables x, y, z, t.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import isqrt

VARIABLES = "xyzt"
# Coefficients are affine in w, so an r x r minor is a polynomial of
# degree <= r <= 4 in w, and a nonzero one is nonzero at one of any five
# points: the rank over Q(w) is the largest rank at these points.
GENERIC_POINTS = (1, 2, 3, 5, 7)
# The constant forms besides x, y, z, t.  Drawing them from the seed as
# well made one family's cost vary threefold, and a run meets only about
# ten families, so the spread between seeds outgrew the benchmark's
# bounds.  With the base fixed, the moving forms alone vary the family.
BASES = (((1, 1, 1, 1), (1, -1, 2, -2), (2, 1, -1, 3)),
         ((1, 2, -1, 1), (1, -1, 1, 2), (-2, 1, 1, 1)))
# An item's cost grows with the number of degenerate values, which runs
# from about 10 to 30 on these bases; keeping families in the middle band
# keeps the few items a run completes comparable.
DEGENERATE_BAND = (16, 22)


def at(row, w) -> list:
    base, slope = row
    return [b + w * s for b, s in zip(base, slope)]


def fiber(rows, w) -> list:
    return [at(r, w) for r in rows]


def rank(rows) -> int:
    """Rank of a small matrix of integers or Fractions."""
    work = [list(r) for r in rows]
    r = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        p = work[r]
        for i in range(r + 1, len(work)):
            if work[i][c]:
                f = work[i][c]
                work[i] = [p[c] * a - f * b for a, b in zip(work[i], p)]
        r += 1
    return r


def _generic_rank_at_least(rows, k: int) -> bool:
    return any(rank(fiber(rows, w)) >= k for w in GENERIC_POINTS)


def fiber_is_arrangement(rows, w) -> bool:
    """No form vanishes and no two forms are proportional at w."""
    f = fiber(rows, w)
    if any(not any(r) for r in f):
        return False
    return all(rank(pair) == 2 for pair in combinations(f, 2))


def generic_is_octic(rows) -> bool:
    """Distinct planes, no line on >= 4 planes, no point on >= 6 planes."""
    for size, need in ((2, 2), (4, 3), (6, 4)):
        for sub in combinations(rows, size):
            if not _generic_rank_at_least(sub, need):
                return False
    return True


def _small_vector(rng, bound: int) -> list:
    while True:
        v = [rng.randint(-bound, bound) for _ in range(4)]
        if any(v):
            return v


def _candidate(rng, base, moving: int) -> list:
    rows = [([int(i == j) for j in range(4)], [0] * 4) for i in range(4)]
    rows += [(list(b), [0] * 4) for b in base[:4 - moving]]
    fixed = len(rows)
    for _ in range(moving):
        g = [0] * 4
        for m in rng.sample(range(fixed), rng.choice((2, 3))):
            coef = rng.choice((-2, -1, 1, 2))
            g = [a + coef * b for a, b in zip(g, rows[m][0])]
        rows.append((g, _small_vector(rng, 2)))
    return rows


def generate(rng: random.Random, base, moving: int) -> list:
    """One accepted family on ``base`` with ``moving`` forms depending on w.
    It is degenerate at w = 0 when some minor drops rank there, that is,
    when 0 is among the degenerate values of ``scan``."""
    lo, hi = DEGENERATE_BAND
    while True:
        rows = _candidate(rng, base, moving)
        if not (fiber_is_arrangement(rows, 0) and generic_is_octic(rows)):
            continue
        degenerate, _ = scan(rows)
        if 0 in degenerate and lo <= len(degenerate) <= hi:
            return rows


def families(seed: int, count: int) -> list:
    """``count`` families from ``seed``; the same seed gives the same list.
    Family i has ``1 + i % 2`` moving forms on base ``i // 2 % 2``, so
    every run meets the same mix."""
    rng = random.Random(seed)
    return [generate(rng, BASES[i // 2 % len(BASES)], 1 + i % 2)
            for i in range(count)]


# ---------------------------------------------------------------------------
# equation text in the syntax of ``octic``


def _term(coef: int, var: str, first: bool) -> str:
    sign = "-" if coef < 0 else ("" if first else "+")
    return f"{sign}{'' if abs(coef) == 1 else abs(coef)}{var}"


def form_text(row) -> str:
    terms = []
    for c, s, v in zip(*row, VARIABLES):
        if c:
            terms.append(_term(c, v, not terms))
        if s:
            terms.append(_term(s, "w" + v, not terms))
    if len(terms) == 1 and terms[0] in VARIABLES:
        return terms[0]
    return "(" + "".join(terms) + ")"


def equation(rows) -> str:
    return "".join(form_text(r) for r in rows)


# ---------------------------------------------------------------------------
# the parameter values an exact scan must report


def _det(m) -> int:
    if len(m) == 1:
        return m[0][0]
    total = 0
    for i, row in enumerate(m):
        if row[0]:
            minor = [r[1:] for j, r in enumerate(m) if j != i]
            total += (-1) ** i * row[0] * _det(minor)
    return total


def _minor_polys(fibers, size: int) -> list:
    """(a, b, c) with minor = a + b*w + c*w^2, for every size x size minor
    of the rows, given as their fibers at w = 0, 1, 2.  With at most two
    rows depending on w, no minor has higher degree."""
    out = []
    for cols in combinations(range(4), size):
        p0, p1, p2 = (_det([[r[c] for c in cols] for r in f]) for f in fibers)
        c = (p2 - 2 * p1 + p0) // 2
        out.append((p0, p1 - p0 - c, c))
    return out


def _roots(p) -> list:
    a, b, c = p
    if c:
        disc = b * b - 4 * a * c
        s = isqrt(disc) if disc >= 0 else -1
        if s * s != disc:
            return []
        return sorted({Fraction(-b + s, 2 * c), Fraction(-b - s, 2 * c)})
    return [Fraction(-a, b)] if b else []


def _common_roots(polys) -> list:
    nonzero = [p for p in polys if any(p)]
    if not nonzero:
        return []
    return [r for r in _roots(nonzero[0])
            if all(a + b * r + c * r * r == 0 for a, b, c in nonzero)]


def scan(rows) -> tuple:
    """(degenerate, fatal): sets of rational w.  Fatal values are where a
    form vanishes or two forms become proportional; degenerate values are
    the other rational w where every maximal minor of some triple or
    quadruple of rows vanishes without vanishing identically."""
    fibers = [fiber(rows, w) for w in (0, 1, 2)]
    fatal = set()
    for r in rows:
        fatal.update(_common_roots([(b, s, 0) for b, s in zip(*r)]))
    found = set()
    for k in (2, 3, 4):
        for s in combinations(range(len(rows)), k):
            roots = _common_roots(_minor_polys([[f[m] for m in s] for f in fibers], k))
            (fatal if k == 2 else found).update(roots)
    return found - fatal, fatal


"""Incidence profiles of plane arrangements and their degenerations.

The combinatorial type of an arrangement is the list of its maximal
multiple lines (q planes through a common line, q >= 2) and multiple
points (p planes through a common point, p >= 3, decorated with the
count j of triple-or-worse lines through it).  Everything is decided by
the maximal minors of coefficient matrices with 4 columns, over Z for a
single arrangement and over Z[w] for a one-parameter family, so "generic"
really means generic and not "at a randomly sampled parameter".  The
minors are taken fraction-free, on each plane's coefficient row scaled to
a primitive integer row; scaling a row by a nonzero constant scales its
minors by that constant, so which minors vanish, and where, is unchanged.

A profile holds plane sets only, so later incidence questions are subset
tests.  Coordinates are computed on demand from its coefficient rows
(``point_vector``, ``line_basis``) where they are printed or compared: the
centers ``reduce`` prints, the trace's fiber-collision message and
moving-line test, and a collapsed generic point in ``profile_diff``.

Degenerate parameter values are located by scanning the maximal minors of
the coefficient rows, each computed once: a subset of planes acquires a new
coincidence exactly where its minors all vanish, that is at the roots of
their gcd.  The scan stays in Z[w]: a subset with a nonzero constant minor
is skipped, the others' gcd is taken by primitive pseudo-remainders, and
the rational roots of each distinct primitive gcd are searched once per
family.  The profile at a rational root is read off which minors vanish
there: each dependent triple (quadruple) adds its planes to the pencil
(star) of each pair (triple) inside it.  Irrational candidates are handed
back unevaluated.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, zip_longest
from math import gcd as int_gcd, lcm as int_lcm
from typing import Iterable, Optional, Sequence, Union

from .exact import Poly, fraction_str, poly_det, poly_gcd, rational_roots
from .forms import Arrangement, ParamArrangement


class CoincidentPlanes(ValueError):
    def __init__(self, i: int, j: int):
        super().__init__(f"planes {i + 1} and {j + 1} coincide")
        self.indices = (i + 1, j + 1)


class WrongPlaneCount(ValueError):
    def __init__(self, n: int):
        super().__init__(f"octic check needs 8 planes, got {n}")
        self.n_forms = n


# ---------------------------------------------------------------------------
# profile records


Vec4 = tuple[Poly, Poly, Poly, Poly]


@dataclass(frozen=True)
class MultipleLine:
    """Maximal pencil: all planes through one line.  q = len(planes).

    ``planes`` lists every plane of the arrangement containing the line,
    so a point lies on the line exactly when its plane set contains
    ``planes``.
    """

    planes: tuple[int, ...]  # 1-based form indices, sorted

    @property
    def q(self) -> int:
        return len(self.planes)


@dataclass(frozen=True)
class MultiplePoint:
    """Point on three or more planes.  p = len(planes).

    ``planes`` lists every plane of the arrangement through the point, so
    a plane passes through it exactly when the plane's index is listed.
    """

    planes: tuple[int, ...]  # 1-based, sorted
    j: int  # triple-or-worse lines through the point

    @property
    def p(self) -> int:
        return len(self.planes)


class IncidenceProfile:
    """Lines and points of one arrangement, lexicographically ordered.

    Every line and point carries the set of all planes through it, so
    incidence questions reduce to subset tests on plane indices: a point
    lies on a line when ``line.planes <= point.planes``, two lines meet
    when some point's planes contain both plane sets, and a set of planes
    has a common line (point) when some line (point) contains it.

    Coordinates are not stored: ``point_vector`` and ``line_basis``
    compute canonical ones from the coefficient rows when asked.
    """

    def __init__(
        self,
        lines: Sequence[MultipleLine],
        points: Sequence[MultiplePoint],
        rows: Sequence[Sequence],
        at: Optional[Fraction] = None,
    ):
        self.lines = tuple(sorted(lines, key=lambda l: l.planes))
        self.points = tuple(sorted(points, key=lambda pt: pt.planes))
        self.rows = tuple(tuple(r) for r in rows)  # Poly or Fraction entries
        self.n_forms = len(self.rows)
        self.at = at

    def point_vector(self, pt: MultiplePoint) -> Vec4:
        """Primitive coordinates of ``pt``: the cross product of the first
        three of its planes that meet in a point."""
        triples = (minors([self.rows[k - 1] for k in t])
                   for t in combinations(pt.planes, 3))
        return primitive_vector(_cross(next(ms for ms in triples if any(ms))))

    def line_basis(self, line: MultipleLine) -> tuple[Vec4, Vec4]:
        """Two primitive points spanning ``line``, sorted: the kernel of its
        first two planes, one vector for each column f outside their first
        nonzero minor's columns, supported on those columns and f."""
        i, j = line.planes[:2]
        ms = dict(zip(combinations(range(4), 2),
                      minors([self.rows[i - 1], self.rows[j - 1]])))
        pivots = next(cols for cols, m in ms.items() if m)
        vectors = []
        for f in sorted(set(range(4)) - set(pivots)):
            a, b, c = sorted(pivots + (f,))
            v: list = [0] * 4
            v[a], v[b], v[c] = ms[b, c], -ms[a, c], ms[a, b]
            vectors.append(primitive_vector(v))
        return tuple(sorted(vectors,
                            key=lambda vec: tuple(p.coeffs for p in vec)))

    def combinatorial_key(self):
        """The profile with coordinates forgotten; two arrangements have
        the same incidences exactly when these keys agree."""
        return (
            tuple((l.planes, l.q) for l in self.lines),
            tuple((pt.planes, pt.p, pt.j) for pt in self.points),
        )

    def line_through(self, planes: Iterable[int]) -> Optional[MultipleLine]:
        """The line contained in every plane of ``planes`` (at least two
        distinct planes), or None when they share no line."""
        wanted = set(planes)
        return next((l for l in self.lines if wanted <= set(l.planes)), None)

    def point_through(self, planes: Iterable[int]) -> Optional[MultiplePoint]:
        """The first point lying on every plane of ``planes``, or None.

        The point is unique when the planes share no line."""
        wanted = set(planes)
        return next((pt for pt in self.points if wanted <= set(pt.planes)),
                    None)

    def to_json(self) -> dict:
        return {
            "lines": [{"planes": list(l.planes), "q": l.q} for l in self.lines],
            "points": [
                {"planes": list(pt.planes), "p": pt.p, "j": pt.j}
                for pt in self.points
            ],
        }

    def __repr__(self):
        ls = ", ".join(f"l{l.q}{set(l.planes)}" for l in self.lines)
        ps = ", ".join(f"p{pt.p}^{pt.j}{set(pt.planes)}" for pt in self.points)
        return f"IncidenceProfile({ls}; {ps})"


@dataclass(frozen=True)
class NewIncidence:
    """One incidence present in a special fiber but not in the generic one.

    ``sources`` lists the plane sets of generic multiple points (p >= 4 or
    j >= 1) that land on the special point; ``new_lines`` the
    newly-coincident pencils through it; ``multiplicity`` the (p, j) of the
    special point.
    """

    kind: str  # NewTripleLine | NewPoint | PointCollision | PointOnNewLine
    involved_planes: tuple[int, ...]
    sources: tuple[tuple[int, ...], ...] = ()
    source_profiles: tuple[tuple[int, int], ...] = ()
    new_lines: tuple[tuple[int, ...], ...] = ()
    multiplicity: Optional[tuple[int, int]] = None

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "planes": list(self.involved_planes),
        }
        if self.multiplicity is not None:
            out["p"], out["j"] = self.multiplicity
        if self.sources:
            out["sources"] = [list(s) for s in self.sources]
        if self.new_lines:
            out["new_lines"] = [list(s) for s in self.new_lines]
        return out


# ---------------------------------------------------------------------------
# the minors kernel
#
# ``profile`` and ``degenerate_values`` ask every incidence question of a
# matrix with 4 columns whose rows are plane coefficients: all ``Poly`` (a
# family, over Q[w]) or all ``Fraction`` (one fiber).  Ranks of such a
# matrix are read off its maximal minors, so only + - * are needed.
# ``_minor_table`` computes them fraction-free, over Z for a fiber and over
# Z[w] for a family, on primitive integer rows: each row times the positive
# rational that clears its denominators and its content.  Scaling a row by
# a nonzero constant scales every minor it enters by that constant, so which
# minors vanish, their rational roots and their gcds up to a constant are
# those of the original rows.  ``degenerate_values`` scans the table in Z[w]
# as well: gcds by primitive pseudo-remainders (``_zw_gcd``), and only a
# nonconstant primitive gcd becomes a ``Poly``, for ``rational_roots``.
# ``minors`` serves coordinates only (``point_vector``, ``line_basis``), on
# the original rows.  Later questions read the profile's plane sets.


def minors(rows: Sequence[Sequence]) -> list:
    """The maximal minors of at most 4 rows of 4 entries, one per set of
    ``len(rows)`` columns in lexicographic order."""
    k = len(rows)
    if k > 4:
        raise ValueError(f"{k} rows have no maximal minors in 4 columns")
    return [
        poly_det([[row[c] for c in cols] for row in rows])
        for cols in combinations(range(4), k)
    ]


def _cross(ms: Sequence) -> list:
    """The signed complementary minors of three rows: a point on all three,
    whose dot product with a fourth row is their determinant up to sign."""
    return [ms[3], -ms[2], ms[1], -ms[0]]


def primitive_vector(vec: Sequence) -> Vec4:
    """Canonical representative of a projective point with ``Poly`` or
    rational entries: polynomial entries with integer coefficients, no
    common polynomial or integer factor, first nonzero entry with positive
    leading coefficient."""
    polys = [v if isinstance(v, Poly) else Poly([v]) for v in vec]
    nonzero = [p for p in polys if p]
    if not nonzero:
        raise ValueError("zero vector has no primitive form")
    if all(p.degree > 0 for p in nonzero):
        g = nonzero[0]
        for p in nonzero[1:]:
            g = poly_gcd(g, p)
        if g.degree > 0:
            polys = [p.exact_div(g) for p in polys]
    coeffs = [c for p in polys for c in p.coeffs if c]
    scale = Fraction(
        int_lcm(*(c.denominator for c in coeffs)),
        int_gcd(*(c.numerator for c in coeffs)),
    )
    if next(p for p in polys if p).lead < 0:
        scale = -scale
    return tuple(p.shift_scale(scale) for p in polys)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# the profile computation


def profile(
    a: Union[Arrangement, ParamArrangement], at: Optional[Fraction] = None
) -> IncidenceProfile:
    """Exact incidence profile; generic over Q(w) when any coefficient
    involves w.

    Raises CoincidentPlanes when two forms are proportional, which for a
    specialized fiber marks the degeneration as out of scope.
    """
    param = any(c.degree > 0 for f in a.forms for c in f.coeffs)
    rows = [[c if param else c.evaluate(0) for c in f.coeffs] for f in a.forms]
    table = _minor_table(rows)
    return _profile_of({s for s, ms in table.items() if not any(ms)}, rows, at)


def _minor_table(rows: Sequence[Sequence]) -> dict:
    """The maximal minors of every two, three and four rows, keyed by sorted
    0-based index tuples, over Z (``Fraction`` rows) or Z[w] (``Poly`` rows,
    minors as ascending coefficient tuples) on the rows made primitive
    integer rows, so each entry is the original minor times a positive
    rational.  A triple's minors expand along its last row into its first
    pair's; a quadruple's one minor is its last row dotted with the cross
    product of the first three.

    Raises CoincidentPlanes when two rows are proportional.
    """
    if isinstance(rows[0][0], Poly):
        add, sub, mul = _zw_add, _zw_sub, _zw_mul
    else:
        add, sub, mul = operator.add, operator.sub, operator.mul
    rows = [_integer_row(r) for r in rows]
    table = {}
    for i, j in combinations(range(len(rows)), 2):
        ri, rj = rows[i], rows[j]
        ms = [sub(mul(ri[a], rj[b]), mul(ri[b], rj[a]))
              for a, b in _COLUMN_PAIRS]
        if not any(ms):
            raise CoincidentPlanes(i, j)
        table[i, j] = ms
    for i, j, k in combinations(range(len(rows)), 3):
        m, r = table[i, j], rows[k]
        table[i, j, k] = [
            add(sub(mul(r[a], m[bc]), mul(r[b], m[ac])), mul(r[c], m[ab]))
            for a, b, c, bc, ac, ab in _COLUMN_TRIPLES
        ]
    for i, j, k, l in combinations(range(len(rows)), 4):
        m, r = table[i, j, k], rows[l]
        table[i, j, k, l] = [sub(add(sub(mul(r[0], m[3]), mul(r[1], m[2])),
                                     mul(r[2], m[1])), mul(r[3], m[0]))]
    return table


# a pair's minors in column-pair order; each column triple (a, b, c) with
# the positions of its pairs (b, c), (a, c) and (a, b) in that order
_COLUMN_PAIRS = tuple(combinations(range(4), 2))
_COLUMN_TRIPLES = tuple(
    (a, b, c, _COLUMN_PAIRS.index((b, c)), _COLUMN_PAIRS.index((a, c)),
     _COLUMN_PAIRS.index((a, b)))
    for a, b, c in combinations(range(4), 3)
)


def _integer_row(row: Sequence) -> list:
    """``row`` times the positive rational that makes it a primitive integer
    row: ``int`` entries for rational ones, ascending coefficient tuples
    for ``Poly`` ones."""
    polys = isinstance(row[0], Poly)
    cs = [c for x in row for c in (x.coeffs if polys else (x,))]
    den = int_lcm(*(c.denominator for c in cs))
    content = int_gcd(*(c.numerator * (den // c.denominator) for c in cs))

    def scaled(c) -> int:
        return c.numerator * (den // c.denominator) // content

    if polys:
        return [tuple(scaled(c) for c in x.coeffs) for x in row]
    return [scaled(x) for x in row]


# Z[w] as ascending coefficient tuples without trailing zeros; () is 0


def _zw_add(a: tuple, b: tuple) -> tuple:
    return _zw_trim([x + y for x, y in zip_longest(a, b, fillvalue=0)])


def _zw_sub(a: tuple, b: tuple) -> tuple:
    return _zw_trim([x - y for x, y in zip_longest(a, b, fillvalue=0)])


def _zw_trim(coeffs: list) -> tuple:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _zw_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    if len(a) == 1:
        return tuple(a[0] * y for y in b)
    if len(b) == 1:
        return tuple(x * b[0] for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _zw_gcd(polys: Iterable[tuple]) -> tuple:
    """The gcd in Z[w] of ``polys`` in primitive form (coefficients without
    a common factor, positive leading one): () when all are 0, and (1,) as
    soon as it is constant.  Pairs are reduced by primitive pseudo-remainder
    sequences (Brown 1971), so every step stays in Z[w]."""
    g = ()
    for p in polys:
        if not p:
            continue
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


def _profile_of(dependent: set, rows: Sequence[Sequence],
                at: Optional[Fraction] = None) -> IncidenceProfile:
    """The profile of ``rows`` whose dependent triples and quadruples (keys
    of ``_minor_table`` whose minors all vanish) are ``dependent``."""
    # the planes through the line of a pair: the pair and the third plane of
    # each dependent triple containing it; the planes through the point of
    # an independent triple: the triple and the fourth plane of each
    # dependent quadruple containing it.  Only subsets that grow get a set.
    grown: dict[tuple, set] = {}
    for s in dependent:
        for sub in combinations(s, len(s) - 1):
            if sub not in dependent:
                grown.setdefault(sub, set(sub)).update(s)
    n = len(rows)
    pencils = {tuple(k + 1 for k in sorted(grown.get(s, s)))
               for s in combinations(range(n), 2)}
    stars = {tuple(k + 1 for k in sorted(grown.get(t, t)))
             for t in combinations(range(n), 3) if t not in dependent}
    triple_sets = [set(l) for l in pencils if len(l) >= 3]
    points = [MultiplePoint(planes=p, j=sum(s <= set(p) for s in triple_sets))
              for p in stars]
    return IncidenceProfile([MultipleLine(planes=l) for l in pencils], points,
                            rows, at=at)


# ---------------------------------------------------------------------------
# octic condition


@dataclass(frozen=True)
class OcticCheck:
    valid: bool
    violations: tuple


def is_octic(p: IncidenceProfile) -> OcticCheck:
    """An arrangement of 8 planes qualifies when no line carries more than
    3 of them and no point more than 5."""
    if p.n_forms != 8:
        raise WrongPlaneCount(p.n_forms)
    bad: list = [l for l in p.lines if l.q >= 4]
    bad += [pt for pt in p.points if pt.p >= 6]
    return OcticCheck(valid=not bad, violations=tuple(bad))


# ---------------------------------------------------------------------------
# profile diff


def profile_diff(
    generic: IncidenceProfile, special: IncidenceProfile
) -> list[NewIncidence]:
    """New incidences of the fiber profile ``special`` relative to
    ``generic``.

    A generic point lands on the special point whose planes contain its
    own: at ``special.at`` its planes still pass through it.  Where they
    also still meet in a single point, that point is the special one.  Only
    when they collapse onto one special line are coordinates compared: the
    generic point, evaluated at ``special.at``, against the special point.
    A changed point owns the new pencils through it; pencils away from
    every changed point are reported on their own.
    """
    if generic.n_forms != special.n_forms:
        raise ValueError("profiles of different arrangements")
    generic_line_sets = {l.planes for l in generic.lines}
    new_lines = [
        l
        for l in special.lines
        if l.q >= 3 and l.planes not in generic_line_sets
    ]

    def lands_on(g: MultiplePoint, s: MultiplePoint) -> bool:
        if not set(g.planes) <= set(s.planes):
            return False
        if special.line_through(g.planes) is None:
            return True
        image = [p.evaluate(special.at) for p in generic.point_vector(g)]
        return primitive_vector(image) == special.point_vector(s)

    changes: list[NewIncidence] = []
    claimed_line_sets: set[tuple[int, ...]] = set()
    for s in special.points:
        if s.p < 4 and s.j < 1:
            continue
        notable = [g for g in generic.points
                   if (g.p >= 4 or g.j >= 1) and lands_on(g, s)]
        if any(g.planes == s.planes and g.j == s.j for g in notable):
            continue  # the point was already there, unchanged
        lines_here = tuple(
            l.planes for l in new_lines if set(l.planes) <= set(s.planes)
        )
        claimed_line_sets.update(lines_here)
        if len(notable) >= 2:
            kind = "PointCollision"
        elif lines_here:
            kind = "PointOnNewLine"
        else:
            kind = "NewPoint"
        changes.append(
            NewIncidence(
                kind=kind,
                involved_planes=s.planes,
                sources=tuple(g.planes for g in notable),
                source_profiles=tuple((g.p, g.j) for g in notable),
                new_lines=lines_here,
                multiplicity=(s.p, s.j),
            )
        )

    line_changes = [
        NewIncidence(
            kind="NewTripleLine",
            involved_planes=l.planes,
            new_lines=(l.planes,),
        )
        for l in new_lines
        if l.planes not in claimed_line_sets
    ]
    line_changes.sort(key=lambda c: c.involved_planes)
    changes.sort(key=lambda c: c.involved_planes)
    return line_changes + changes


# ---------------------------------------------------------------------------
# degenerate parameter values


@dataclass(frozen=True)
class DegenerateValue:
    w0: Fraction
    profile: IncidenceProfile
    changes: tuple[NewIncidence, ...]


@dataclass(frozen=True)
class FatalValue:
    """Parameter where the fiber stops being an arrangement of distinct
    planes; everything downstream refuses to touch these."""

    w0: Fraction
    reason: str


@dataclass(frozen=True)
class DegenerationScan:
    values: tuple[DegenerateValue, ...]
    fatal: tuple[FatalValue, ...]
    generic: IncidenceProfile  # the profile each value was compared with
    unresolved: tuple[Poly, ...] = field(default=())

    @property
    def sigma(self) -> tuple[Fraction, ...]:
        return tuple(v.w0 for v in self.values)


def degenerate_values(a: ParamArrangement) -> DegenerationScan:
    """Scan the family for parameters with different incidences.

    Candidates come from vanishing loci of maximal minors, each computed
    once over Z[w]: a single form degenerating (fatal), a pair turning
    proportional (fatal), a triple acquiring a common line, a quadruple
    acquiring a common point.  Rank drops of larger subsets are witnessed
    by their 3- and 4-element subsets, so those two scans see every
    combinatorial change.  The profile at a rational root adds the minors
    with that root to the generic vanishing pattern; factors of degree
    >= 2 without rational roots are returned unresolved.
    """
    rows = [list(f.coeffs) for f in a.forms]
    table = _minor_table(rows)
    fatal: dict[Fraction, str] = {}
    unresolved: dict[tuple, Poly] = {}
    # root -> the triples and quadruples that turn dependent there
    turning: dict[Fraction, set] = {}
    # primitive gcd -> its rational roots, so each is searched once
    roots_of: dict[tuple, list[Fraction]] = {}

    def common_roots(polys: Sequence[tuple]) -> list[Fraction]:
        """The rational roots where the Z[w] polynomials ``polys`` all
        vanish; none when one is a nonzero constant or all are 0."""
        if any(len(p) == 1 for p in polys):
            return []
        g = _zw_gcd(polys)
        if len(g) < 2:
            return []
        if g not in roots_of:
            roots, leftovers = rational_roots(Poly(g))
            roots_of[g] = [r for r, _ in roots]
            for q in leftovers:
                unresolved[q.coeffs] = q
        return roots_of[g]

    for i, row in enumerate(rows):
        for r in common_roots(_integer_row(row)):
            fatal.setdefault(r, f"form {i + 1} vanishes")
    for s, ms in table.items():
        for r in common_roots(ms):
            if len(s) == 2:
                fatal.setdefault(r, f"planes {s[0] + 1} and {s[1] + 1} coincide")
            else:
                turning.setdefault(r, set()).add(s)

    dependent = {s for s, ms in table.items() if not any(ms)}
    generic = _profile_of(dependent, rows)
    generic_key = generic.combinatorial_key()
    values = []
    for w0 in sorted(turning.keys() - fatal.keys()):
        fiber = [[c.evaluate(w0) for c in row] for row in rows]
        prof = _profile_of(dependent | turning[w0], fiber, at=w0)
        if prof.combinatorial_key() == generic_key:
            continue
        changes = profile_diff(generic, prof)
        values.append(DegenerateValue(w0, prof, tuple(changes)))

    return DegenerationScan(
        values=tuple(values),
        fatal=tuple(
            FatalValue(w0, fatal[w0]) for w0 in sorted(fatal)
        ),
        generic=generic,
        unresolved=tuple(
            unresolved[k] for k in sorted(unresolved, key=lambda c: (len(c), c))
        ),
    )


def point_text(vec: Vec4) -> str:
    """(a:b:c:d) with entries printed exactly."""
    parts = []
    for p in vec:
        if p.degree <= 0:
            parts.append(fraction_str(p.coeffs[0]) if p.coeffs else "0")
        else:
            parts.append(str(p))
    return "(" + ":".join(parts) + ")"

"""Incidence profiles of plane arrangements and their degenerations.

The combinatorial type of an arrangement is the list of its maximal
multiple lines (q planes through a common line, q >= 2) and multiple
points (p planes through a common point, p >= 3, decorated with the
count j of triple-or-worse lines through it).  Everything is decided by
the maximal minors of coefficient matrices with 4 columns, with rational
entries for a single arrangement and polynomial entries in Q[w] for a
one-parameter family, so "generic" really means generic and not "at a
randomly sampled parameter".

A profile holds plane sets only, so later incidence questions are subset
tests.  Coordinates are computed on demand from its coefficient rows
(``point_vector``, ``line_basis``) where they are printed or compared: the
centers ``reduce`` prints, the trace's fiber-collision message and
moving-line test, and a collapsed generic point in ``profile_diff``.

Degenerate parameter values are located by scanning minor ideals of the
coefficient rows: a subset of planes acquires a new coincidence exactly
where its maximal minors all vanish.  Rational roots are classified by
recomputing the profile there; irrational candidates are handed back
unevaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd as int_gcd, lcm as int_lcm
from typing import Iterable, Optional, Sequence, Union

from .exact import Poly, fraction_str, poly_det, poly_gcd, rational_roots
from .forms import Arrangement, FormVanishes, ParamArrangement, specialize


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
        (cross,) = _cramer(next(ms for ms in triples if any(ms)), 3)
        return primitive_vector(cross)

    def line_basis(self, line: MultipleLine) -> tuple[Vec4, Vec4]:
        """Two primitive points spanning ``line``, sorted, from the kernel
        of its first two planes."""
        i, j = line.planes[:2]
        vectors = _cramer(minors([self.rows[i - 1], self.rows[j - 1]]), 2)
        return tuple(sorted((primitive_vector(v) for v in vectors),
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
# matrix with 4 columns, whose rows are plane coefficients with entries all
# ``Poly`` (a family, over Q[w]) or all ``Fraction`` (one fiber).  Ranks
# and kernels of such a matrix are read off its maximal minors, so only
# + - * are needed.  Later questions read the profile's plane sets.


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


def _cramer(ms: Sequence, k: int) -> list[list]:
    """Kernel vectors of k independent rows, given their maximal minors.

    Over the lexicographically first nonzero minor, each free column f
    gets the vector supported on the minor's columns and f whose entries
    are the signed complementary minors: the generalised cross product of
    the rows restricted to those k + 1 columns.
    """
    by_cols = dict(zip(combinations(range(4), k), ms))
    pivots = next(cols for cols, m in by_cols.items() if m)
    out = []
    for f in range(4):
        if f in pivots:
            continue
        support = sorted(pivots + (f,))
        v: list = [0] * 4
        for u, c in enumerate(support):
            m = by_cols[tuple(x for x in support if x != c)]
            v[c] = -m if u % 2 else m
        out.append(v)
    return out


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
    n = len(rows)
    for i, j in combinations(range(n), 2):
        if not any(minors([rows[i], rows[j]])):
            raise CoincidentPlanes(i, j)
    triple = {t: minors([rows[m] for m in t]) for t in combinations(range(n), 3)}

    # maximal pencils: the planes through the line of a pair (i, j) are
    # exactly those k for which the minors of (i, j, k) all vanish
    pencils = {
        tuple(k + 1 for k in range(n)  # 1-based outward
              if k in (i, j) or not any(triple[tuple(sorted((i, j, k)))]))
        for i, j in combinations(range(n), 2)
    }
    lines = [MultipleLine(planes=key) for key in pencils]
    triple_sets = [set(l.planes) for l in lines if l.q >= 3]

    # points: the cross product of each rank-3 triple; a plane passes
    # through it when its row is orthogonal to that product
    points: list[MultiplePoint] = []
    for t, ms in triple.items():
        if not any(ms):
            continue  # a pencil; already recorded as a line
        planes = {m + 1 for m in t}
        if any(planes <= set(pt.planes) for pt in points):
            continue  # a triple through a point already found
        (cross,) = _cramer(ms, 3)
        members = tuple(
            m + 1 for m in range(n)
            if not sum(r * x for r, x in zip(rows[m], cross))
        )
        j = sum(1 for s in triple_sets if s <= set(members))
        points.append(MultiplePoint(planes=members, j=j))

    return IncidenceProfile(lines, points, rows, at=at)


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

    Candidates come from vanishing loci of maximal minors: a single form
    degenerating (fatal), a pair turning proportional (fatal), a triple
    acquiring a common line, a quadruple acquiring a common point.  Rank
    drops of larger subsets are witnessed by their 3- and 4-element
    subsets, so those two scans see every combinatorial change.  Each
    rational candidate is confirmed by recomputing the profile; factors
    of degree >= 2 without rational roots are returned unresolved.
    """
    rows = [list(f.coeffs) for f in a.forms]
    n = len(rows)
    candidates: set[Fraction] = set()
    fatal: dict[Fraction, str] = {}
    unresolved: dict[tuple, Poly] = {}

    def scan(polys: list[Poly], on_root) -> None:
        g: Optional[Poly] = None
        for p in polys:
            if p:
                g = p if g is None else poly_gcd(g, p)
        if g is None or g.degree < 1:
            return
        roots, leftovers = rational_roots(g)
        for r, _ in roots:
            on_root(r)
        for q in leftovers:
            unresolved[q.coeffs] = q

    for i in range(n):
        scan(
            minors([rows[i]]),
            lambda r, i=i: fatal.setdefault(r, f"form {i + 1} vanishes"),
        )
    for i, j in combinations(range(n), 2):
        scan(
            minors([rows[i], rows[j]]),
            lambda r, i=i, j=j: fatal.setdefault(
                r, f"planes {i + 1} and {j + 1} coincide"
            ),
        )
    for triple in combinations(range(n), 3):
        ms = minors([rows[m] for m in triple])
        if not any(ms):
            continue  # generically a pencil already
        scan(ms, candidates.add)
    for quad in combinations(range(n), 4):
        (det,) = minors([rows[m] for m in quad])
        if not det:
            continue  # generically concurrent already
        scan([det], candidates.add)

    generic = profile(a)
    generic_key = generic.combinatorial_key()
    values = []
    for w0 in sorted(candidates - set(fatal)):
        try:
            spec = specialize(a, w0)
            prof = profile(spec, at=w0)
        except FormVanishes as e:
            fatal[w0] = str(e)
            continue
        except CoincidentPlanes as e:
            fatal[w0] = str(e)
            continue
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

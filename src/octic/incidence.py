"""Incidence profiles of plane arrangements and their degenerations.

The combinatorial type of an arrangement is the list of its maximal
multiple lines (q planes through a common line, q >= 2) and multiple
points (p planes through a common point, p >= 3, decorated with the
count j of triple-or-worse lines through it).  Everything is decided by
the maximal minors of coefficient matrices with 4 columns, over Z[w] for a
one-parameter family and over Z for one of its fibers, so "generic" really
means generic and not "at a randomly sampled parameter".  The minors are
taken fraction-free on the family's primitive integer rows
(``ParamArrangement.rows``), a fiber's on those rows evaluated at its
parameter; scaling a row by a nonzero constant scales its minors by that
constant, so which minors vanish, and where, is unchanged.  A form that
vanishes at a parameter is named (``FormVanishes``) before any pair of
planes is compared there.

A profile holds plane sets only, each as a sorted tuple and as a bit mask
(bit k for plane k), so later incidence questions are subset tests on
integers: a set ``a`` contains ``b`` when ``a & b == b``.  It also indexes
them: ``_pencils`` maps each pair of planes to the mask of its line and
``_stars`` each independent triple to the mask of its point.  So the line
through a set of planes is read off its two lowest planes, and the point
through a set off its first independent triple, and each is checked to
contain the whole set.  A set of fewer than two planes has no one line,
and a set with no independent triple no one point: both are refused.
Plane numbers 1..n key the records, the indexes and the minor table
alike.  Coordinates are read on demand off the profile's minor table
(``point_vector``, ``line_basis``) where they are printed or compared: the
centers ``reduce`` prints, the trace's fiber-collision message and
moving-line test, and a collapsed generic point in ``profile_diff``.  A
fiber of a family evaluates the minors it reads at its parameter.

Degenerate parameter values are located by scanning the maximal minors of
the coefficient rows, each computed once and kept packed: a subset of
planes acquires a new coincidence exactly where its minors all vanish, that
is at the roots of their gcd.  The scan stays on the packed integers: a
subset whose packed minors have an integer gcd below 2^(k-1) has coprime
minors (a nonzero constant among them, say) or only zero ones, and is
passed over without unpacking; the others are unpacked, and their gcd is
read off that same integer gcd (GCDHEU, ``exact._zw_heu``).  The rational
roots of each distinct primitive gcd are searched once per family.  The
profile at a rational root is the generic one with the subsets whose minors
vanish there folded in: each dependent triple (quadruple) adds its planes
to the pencil (star) of each pair (triple) inside it, and only the lines
and points that grow, or whose ``j`` changes, are new objects, which
``profile_diff`` visits.  Irrational candidates are handed back
unevaluated.  ``IncidenceProfile.fiber`` reads the fiber at any parameter
off the same table, unpacking only the minors it tests; ``profile_diff``
compares only such a folded fiber with the profile it was folded from.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd as int_gcd
from typing import Iterable, Optional, Sequence

from .exact import (Poly, _pack_rows, _zw_at, _zw_div, _zw_gcd, _zw_heu,
                    _zw_sub, _zw_trim, _zw_unpack, _zw_value, rational_roots)
from .forms import FormVanishes, ParamArrangement


class CoincidentPlanes(ValueError):
    def __init__(self, i: int, j: int):
        super().__init__(f"planes {i} and {j} coincide")
        self.indices = (i, j)


# ---------------------------------------------------------------------------
# profile records


# a projective point: four Z[w] coefficient tuples
Vec4 = tuple[tuple, tuple, tuple, tuple]


@dataclass(frozen=True)
class MultipleLine:
    """Maximal pencil: all planes through one line.  q = len(planes).

    ``planes`` lists every plane of the arrangement containing the line,
    so a point lies on the line exactly when its plane set contains
    ``planes``.  ``mask`` is the same set as bits (bit k for plane k).
    """

    planes: tuple[int, ...]  # plane numbers 1..n, sorted
    mask: int = field(repr=False, compare=False)

    @property
    def q(self) -> int:
        return len(self.planes)


@dataclass(frozen=True)
class MultiplePoint:
    """Point on three or more planes.  p = len(planes).

    ``planes`` lists every plane of the arrangement through the point, so
    a plane passes through it exactly when the plane's index is listed.
    ``mask`` is the same set as bits (bit k for plane k).
    """

    planes: tuple[int, ...]  # plane numbers 1..n, sorted
    j: int  # triple-or-worse lines through the point
    mask: int = field(repr=False, compare=False)

    @property
    def p(self) -> int:
        return len(self.planes)


_BY_PLANES = operator.attrgetter("planes")


def _plane_mask(planes: Iterable[int]) -> int:
    """The bit mask of a set of plane numbers: bit k for plane k.
    A plane set contains another exactly when ``a & b == b``."""
    m = 0
    for k in planes:
        m |= 1 << k
    return m


class IncidenceProfile:
    """Lines and points of one arrangement, lexicographically ordered.

    Every line and point carries the set of all planes through it, as a
    sorted tuple and as a bit mask, so incidence questions reduce to subset
    tests on plane masks: a point lies on a line when
    ``line.mask & point.mask == line.mask``, two lines meet when some
    point's mask contains both, and a set of planes has a common line
    (point) when some line (point) contains it.

    A profile also keeps, for every pair (``_pencils``) and every
    independent triple (``_stars``) of plane numbers, the mask of all
    planes through their line or point.  ``line_through``, ``point_through``
    and ``points_on`` are index reads on these, in time independent of the
    number of lines and points; a set of planes the index cannot answer is
    refused.  A fiber read off a family's profile (``fiber``) is that
    profile with more dependent triples and quadruples folded in
    (``_special``): only the lines and points that grow, and the points
    whose ``j`` changes, are new objects, and ``profile_diff`` visits only
    them.  ``lines`` and ``points`` are sorted when first read.  Every
    profile keeps the packed minor table it was read off, so ``fiber`` of
    a family's profile reads the fiber at any parameter off it.

    Coordinates are not stored: ``point_vector`` and ``line_basis`` read
    canonical ones off the table's minors when asked, a fiber of a family
    evaluating them at ``at``.
    """

    def __init__(self, pencils: dict, stars: dict, dependent: set,
                 line_of: dict, point_of: dict, rows: Sequence, table: dict,
                 width: int, at: Optional[Fraction] = None,
                 base: Optional[IncidenceProfile] = None,
                 new: tuple[Sequence, Sequence] = ((), ())):
        """``pencils`` maps each pair, ``stars`` each independent triple of
        plane numbers, to the mask of all planes through its line or
        point; ``dependent`` holds the dependent triples and quadruples, and
        ``line_of`` and ``point_of`` map each line's and point's mask to its
        record.  ``rows`` are the family's primitive integer Z[w] rows and
        ``table`` a minor table of them (``_minor_table``): over Z[w],
        packed at w = 2^``width``, or over Z (``width`` 0) for the fiber at
        ``at``; a profile with ``at`` set is the fiber there.  A special
        profile names the profile ``base`` it was folded from and its
        ``new`` lines and points, the records that are not ``base``'s."""
        self.n_forms = len(rows)
        self.at = at
        self._rows, self._table, self._width = rows, table, width
        self._pencils, self._stars, self._dependent = pencils, stars, dependent
        self._line_of, self._point_of = line_of, point_of
        self._base, self._new = base, new

    @cached_property
    def lines(self) -> tuple[MultipleLine, ...]:
        return tuple(sorted(self._line_of.values(), key=_BY_PLANES))

    @cached_property
    def points(self) -> tuple[MultiplePoint, ...]:
        return tuple(sorted(self._point_of.values(), key=_BY_PLANES))

    def fiber(self, w0: Fraction) -> IncidenceProfile:
        """The profile of the fiber at ``w0`` of the family this profile
        was computed for, read off its minor table: the triples and
        quadruples whose minors all vanish at ``w0`` are folded in.  A
        packed minor vanishes at 0 when its low ``width`` bits do; at any
        other ``w0`` it is unpacked, one at a time, until one does not.
        A profile that is itself a fiber has no family left to read off,
        and is refused (ValueError).

        Raises FormVanishes for the first form that vanishes at ``w0``
        (``_rows_at``), and then CoincidentPlanes for the first pair whose
        minors all vanish there: the errors ``profile`` of the family at
        ``w0`` raises, in its order.
        """
        if self.at is not None:
            raise ValueError("the profile is already the fiber at "
                             f"w = {self.at}")
        _rows_at(self._rows, w0)
        k, extra = self._width, set()
        p, q, low = w0.numerator, w0.denominator, (1 << k) - 1
        for s, ms in self._table.items():
            if s in self._dependent:
                continue
            for m in ms:
                if _zw_value(_zw_unpack(m, k), p, q) if p else m & low:
                    break
            else:
                if len(s) == 2:
                    raise CoincidentPlanes(*s)
                extra.add(s)
        return self._special(extra, w0)

    def _special(self, extra: set, at: Fraction) -> IncidenceProfile:
        """The fiber at ``at`` whose dependent triples and quadruples are
        this profile's and ``extra``.

        Only what ``extra`` reaches changes: the pencils of the pairs inside
        its triples, the stars of the triples inside its quadruples (and
        its triples' own, which go), and the ``j`` of the points on a new
        triple line.  A line or point whose mask no pencil or star keeps is
        dropped, and only the masks that appear, and the points whose ``j``
        changes, become new records; every other record is this profile's.
        """
        pencils, stars = dict(self._pencils), dict(self._stars)
        line_of, point_of = dict(self._line_of), dict(self._point_of)
        pairs, triples = set(), set()
        for s in extra:
            m = _plane_mask(s)
            if len(s) == 3:
                for sub in combinations(s, 2):
                    pencils[sub] |= m
                    pairs.add(sub)
            else:
                for sub in combinations(s, 3):
                    if sub in stars:
                        stars[sub] |= m
                        triples.add(sub)
        for s in extra:
            if len(s) == 3 and stars.pop(s, None) is not None:
                triples.add(s)
        new_lines = _regrown(line_of, pencils, pairs, self._pencils, _line)
        threes = _triple_lines(line_of)
        new_points = _regrown(point_of, stars, triples, self._stars,
                              lambda m: _point(m, threes))
        for l in new_lines:
            # a generic point on a new triple line counts one more of them
            for m in _stars_on(stars, l, self.n_forms):
                pt = point_of[m]
                if pt is self._point_of.get(m) and pt.j != _j(m, threes):
                    point_of[m] = _point(m, threes)
                    new_points.append(point_of[m])
        return IncidenceProfile(pencils, stars, self._dependent | extra,
                                line_of, point_of, self._rows, self._table,
                                self._width, at, self, (new_lines, new_points))

    def _minors(self, planes: tuple[int, ...]) -> list:
        """The table's minors of the sorted plane numbers ``planes`` as Z[w]
        tuples: each the minor of the original rows times one positive
        rational for the whole set, which a fiber of a family evaluates at
        ``at``.  Only these entries of the table are unpacked."""
        ms = self._table[planes]
        if not self._width:
            return [_zw_trim([m]) for m in ms]
        ms = [_zw_unpack(m, self._width) for m in ms]
        return ms if self.at is None else _zw_at(ms, self.at)

    def point_vector(self, pt: MultiplePoint) -> Vec4:
        """Primitive coordinates of ``pt``: the cross product of the first
        three of its planes that meet in a point."""
        triples = (self._minors(t) for t in combinations(pt.planes, 3))
        return primitive_vector(_cross(next(ms for ms in triples if any(ms))))

    def line_basis(self, line: MultipleLine) -> tuple[Vec4, Vec4]:
        """Two primitive points spanning ``line``, sorted: the kernel of its
        first two planes, one vector for each column f outside their first
        nonzero minor's columns, supported on those columns and f."""
        ms = dict(zip(_COLUMN_PAIRS, self._minors(line.planes[:2])))
        pivots = next(cols for cols, m in ms.items() if m)
        vectors = []
        for f in sorted(set(range(4)) - set(pivots)):
            a, b, c = sorted(pivots + (f,))
            v: list = [()] * 4
            v[a], v[b], v[c] = ms[b, c], _zw_sub((), ms[a, c]), ms[a, b]
            vectors.append(primitive_vector(v))
        return tuple(sorted(vectors))

    def combinatorial_key(self):
        """The profile with coordinates forgotten; two arrangements have
        the same incidences exactly when these keys agree."""
        return (
            tuple((l.planes, l.q) for l in self.lines),
            tuple((pt.planes, pt.p, pt.j) for pt in self.points),
        )

    def line_through(self, planes: Iterable[int]) -> Optional[MultipleLine]:
        """The line contained in every plane of ``planes``, or None when
        they share no line.

        Two distinct planes meet in one line, so this is the pencil of the
        two lowest planes (an index read on ``_pencils``) when its mask
        contains the whole set.  Fewer than two distinct planes lie on more
        than one line, and are refused (ValueError)."""
        ks = sorted(set(planes))
        if len(ks) < 2:
            raise ValueError(f"planes {ks} lie on more than one line")
        m = self._pencils[ks[0], ks[1]]
        wanted = _plane_mask(ks)
        return self._line_of[m] if m & wanted == wanted else None

    def point_through(self, planes: Iterable[int]) -> Optional[MultiplePoint]:
        """The point lying on every plane of ``planes``, or None.

        Three planes that share no line meet in one point, so this is the
        star of the set's first such triple (an index read on ``_stars``)
        when its mask contains the whole set.  A set with no such triple
        (fewer than three planes, or all on one line) lies on more than one
        point, and is refused (ValueError)."""
        ks = sorted(set(planes))
        for t in combinations(ks, 3):
            m = self._stars.get(t)
            if m is not None:
                wanted = _plane_mask(ks)
                return self._point_of[m] if m & wanted == wanted else None
        raise ValueError(f"no three of the planes {ks} meet in a point")

    def points_on(self, line: MultipleLine) -> list[MultiplePoint]:
        """The points on ``line``, each once, in no particular order."""
        return [self._point_of[m]
                for m in _stars_on(self._stars, line, self.n_forms)]

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


def _stars_on(stars: dict, line: MultipleLine, n: int) -> set[int]:
    """The masks of the points on ``line`` among ``stars``: the stars of
    its first two planes with each of the ``n`` planes off it."""
    i, j = line.planes[:2]
    return {stars[(k, i, j) if k < i else (i, k, j) if k < j else (i, j, k)]
            for k in range(1, n + 1) if not line.mask >> k & 1}


def _planes(mask: int) -> tuple[int, ...]:
    """The sorted plane indices of a plane mask."""
    planes = []
    while mask:
        low = mask & -mask
        planes.append(low.bit_length() - 1)
        mask ^= low
    return tuple(planes)


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
# matrix with 4 columns whose rows are a family's primitive integer rows
# (``ParamArrangement.rows``): each form's coefficients times the positive
# rational that clears their denominators and their content, as Z[w]
# tuples.  Ranks of such a matrix are read off its maximal minors, so only
# + - * are needed.  ``_minor_table`` computes them fraction-free, over Z[w]
# for the family and over Z for a fiber, whose integer rows are the family's
# rows evaluated at its parameter over one denominator each (``_rows_at``).
# Scaling a row by a nonzero constant scales every minor it enters by that
# constant, so which minors vanish, their rational roots and their gcds up
# to a constant are those of the original rows, and so are the canonical
# coordinates read off them.  Z and Z[w] share one arithmetic path: a Z[w]
# row's entries are packed into integers, their values at w = 2^k
# (Kronecker substitution), with k - 1 bits holding 24 times the product of
# the four largest row norms (a row's largest entry 1-norm), which bounds
# every coefficient of every minor; the expansions run on plain integers,
# and the table keeps the packed minors with k (k = 0 over Z).  A minor's
# coefficients are the balanced base-2^k digits of its packed value, read
# (``_zw_unpack``) only where they are used: by ``_minors``, for the
# coordinates ``point_vector`` and ``line_basis`` read off a point's triple
# minors and a line's pair minors; by ``fiber``, which tests which minors
# vanish at w0 = p/q by evaluating them in integers (``_zw_value``), or at
# w0 = 0 by their low k bits; and by ``degenerate_values`` for the subsets
# whose minors may share a root.  Since every coefficient is below
# 2^(k-1) in absolute value, 2^k meets the bound of the heuristic gcd
# (``_zw_heu``): a nonconstant common factor keeps the integer gcd of a
# subset's packed minors at 2^(k-1) or more, so the scan passes over every
# subset below that, and reads the others' gcd off that integer gcd; it
# searches the rational roots of each nonconstant primitive gcd.  A
# profile keeps the table it was computed from, so a command computes one
# table.  Later questions are subset tests on the profile's plane masks.


def _cross(ms: Sequence[tuple]) -> list:
    """The signed complementary minors of three rows: a point on all three,
    whose dot product with a fourth row is their determinant up to sign."""
    return [ms[3], _zw_sub((), ms[2]), ms[1], _zw_sub((), ms[0])]


def primitive_vector(vec: Sequence[tuple]) -> Vec4:
    """Canonical representative of a projective point with Z[w] entries:
    no common polynomial or integer factor, first nonzero entry with
    positive leading coefficient."""
    g = _zw_gcd(vec)
    if not g:
        raise ValueError("zero vector has no primitive form")
    if len(g) > 1:
        vec = [_zw_div(v, g) for v in vec]
    content = int_gcd(*(c for v in vec for c in v))
    if next(v for v in vec if v)[-1] < 0:
        content = -content
    return tuple(tuple(c // content for c in v) for v in vec)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# the profile computation


def profile(a: ParamArrangement,
            at: Optional[Fraction] = None) -> IncidenceProfile:
    """Exact incidence profile of the family ``a``: the generic one, over
    Q(w), or with ``at`` set the one of its fiber at ``at``, whose table
    is taken over Z on the rows evaluated there (``_rows_at``).  Such a
    fiber stands alone: ``IncidenceProfile.fiber`` and ``profile_diff``
    take only the family's profile and the fibers read off it.

    Raises FormVanishes for a form that vanishes at ``at``, and then
    CoincidentPlanes when two forms are proportional, which for a fiber
    marks the degeneration as out of scope.
    """
    rows = a.rows if at is None else _rows_at(a.rows, at)
    table, width = _minor_table(rows)
    return _profile_of({s for s, ms in table.items() if not any(ms)},
                       a.rows, table, width, at)


def _rows_at(rows: Sequence[Sequence[tuple]], w0: Fraction) -> list:
    """The Z[w] ``rows`` at ``w0`` as integer rows, each its values over
    one denominator (``_zw_at``).  Raises FormVanishes for the first row
    that vanishes at ``w0``, before any pair of rows is compared."""
    out = []
    for i, row in enumerate(rows, 1):
        values = [v[0] if v else 0 for v in _zw_at(row, w0)]
        if not any(values):
            raise FormVanishes(i, w0)
        out.append(values)
    return out


def _minor_table(rows: Sequence[Sequence]) -> tuple[dict, int]:
    """The maximal minors of every two, three and four rows, keyed by their
    sorted plane numbers (the first row is plane 1), and the width k they
    are packed at.  A triple's minors expand along its last row into
    its first pair's, and a quadruple's one minor into its first triple's.

    Rows of Z[w] tuples are packed into integers at w = 2^k, k from the
    rows' norms (``_pack_rows``), and the minors stay packed: each is its
    Z[w] minor's value at 2^k, whose balanced base-2^k digits
    (``_zw_unpack``) are the minor's coefficients.  Rows of integers give
    minors over Z, and k = 0.  Both run the same integer expansions.

    Raises CoincidentPlanes when two rows are proportional.
    """
    width = 0
    if isinstance(rows[0][0], tuple):
        rows, width = _pack_rows(rows)
    row = dict(enumerate(rows, 1))  # plane k's row
    table = {}
    for i, j in combinations(row, 2):
        ri, rj = row[i], row[j]
        ms = [ri[a] * rj[b] - ri[b] * rj[a] for a, b in _COLUMN_PAIRS]
        if not any(ms):
            raise CoincidentPlanes(i, j)
        table[i, j] = ms
    for i, j, k in combinations(row, 3):
        m, r = table[i, j], row[k]
        table[i, j, k] = [r[a] * m[bc] - r[b] * m[ac] + r[c] * m[ab]
                          for a, b, c, bc, ac, ab in _COLUMN_TRIPLES]
    for i, j, k, l in combinations(row, 4):
        m, r = table[i, j, k], row[l]
        table[i, j, k, l] = [r[3] * m[0] - r[2] * m[1] + r[1] * m[2]
                             - r[0] * m[3]]
    return table, width


# a pair's minors in column-pair order; each column triple (a, b, c) with
# the positions of its pairs (b, c), (a, c) and (a, b) in that order
_COLUMN_PAIRS = tuple(combinations(range(4), 2))
_COLUMN_TRIPLES = tuple(
    (a, b, c, _COLUMN_PAIRS.index((b, c)), _COLUMN_PAIRS.index((a, c)),
     _COLUMN_PAIRS.index((a, b)))
    for a, b, c in combinations(range(4), 3)
)


def _profile_of(dependent: set, rows: Sequence, table: dict, width: int,
                at: Optional[Fraction] = None) -> IncidenceProfile:
    """The profile of the family ``rows`` with minor table ``table``, packed
    at w = 2^``width`` (0 over Z), whose dependent triples and quadruples
    (keys whose minors all vanish) are ``dependent``: every record made
    here."""
    planes = range(1, len(rows) + 1)
    pencils = {(i, j): 1 << i | 1 << j for i, j in combinations(planes, 2)}
    stars = {(i, j, k): 1 << i | 1 << j | 1 << k
             for i, j, k in combinations(planes, 3)
             if (i, j, k) not in dependent}
    for s in dependent:
        m = _plane_mask(s)
        grown = pencils if len(s) == 3 else stars
        for sub in combinations(s, len(s) - 1):
            if sub in grown:
                grown[sub] |= m
    line_of = {m: _line(m) for m in set(pencils.values())}
    threes = _triple_lines(line_of)
    point_of = {m: _point(m, threes) for m in set(stars.values())}
    return IncidenceProfile(pencils, stars, dependent, line_of, point_of, rows,
                            table, width, at)


def _line(m: int) -> MultipleLine:
    return MultipleLine(_planes(m), m)


def _triple_lines(line_of: dict) -> list[int]:
    """The masks among ``line_of``'s of lines on three or more planes."""
    return [l for l in line_of if l.bit_count() >= 3]


def _j(m: int, threes: Sequence[int]) -> int:
    """The number of the triple-line masks ``threes`` inside the mask ``m``."""
    return sum(l & m == l for l in threes)


def _point(m: int, threes: Sequence[int]) -> MultiplePoint:
    return MultiplePoint(_planes(m), _j(m, threes), m)


def _regrown(records: dict, index: dict, keys: set, before: dict,
             make) -> list:
    """Bring ``records`` (mask -> record) up to date with ``index`` (index
    tuples -> the mask of their line or point) after its ``keys`` changed
    from their values in ``before``, or left it.  Each mask they held
    before goes when no entry of ``index`` holds it any more, and each mask
    they hold now that has no record gets one from ``make``.  Returns the
    new records."""
    if not keys:
        return []
    for old in {before[t] for t in keys}.difference(index.values()):
        del records[old]
    new = []
    for m in {index[t] for t in keys if t in index}:
        if m not in records:
            records[m] = make(m)
            new.append(records[m])
    return new


# ---------------------------------------------------------------------------
# octic condition


def octic_violations(p: IncidenceProfile) -> tuple:
    """Where an arrangement breaks the octic bound: ``("line", planes)`` for
    each line on more than 3 planes, then ``("point", planes)`` for each
    point on more than 5.  An arrangement of 8 planes with none is octic."""
    return tuple([("line", l.planes) for l in p.lines if l.q >= 4]
                 + [("point", pt.planes) for pt in p.points if pt.p >= 6])


# ---------------------------------------------------------------------------
# profile diff


def profile_diff(
    generic: IncidenceProfile, special: IncidenceProfile
) -> list[NewIncidence]:
    """New incidences of the fiber profile ``special``, folded from
    ``generic`` (``generic.fiber``), relative to ``generic``.  Any other
    profile, such as one computed from scratch or a fiber of another
    profile, is refused (ValueError).

    A generic point lands on the special point whose planes contain its
    own: at ``special.at`` its planes still pass through it.  Where they
    also still meet in a single point, that point is the special one.  Only
    when they collapse onto one special line are coordinates compared: the
    generic point, evaluated at ``special.at``, against the special point.
    A changed point owns the new pencils through it; pencils away from
    every changed point are reported on their own.

    Only the new lines and points of ``special``, which it lists, are
    visited: every other record is ``generic``'s own.  Of the points, only
    those with p >= 4 or j >= 1 count.  The generic points inside one are
    the generic stars of the triples of its planes, so its sources are
    found there rather than among all generic points.  No other test of a
    change runs: an empty list means the same incidences.
    """
    if special._base is not generic:
        raise ValueError("the special profile is not a fiber folded from "
                         "the generic one")
    lines, points = special._new
    new_lines = sorted((l for l in lines if l.q >= 3), key=_BY_PLANES)

    def lands_on(g: MultiplePoint, s: MultiplePoint) -> bool:
        if special.line_through(g.planes) is None:
            return True
        image = _zw_at(generic.point_vector(g), special.at)
        return primitive_vector(image) == special.point_vector(s)

    def sources(s: MultiplePoint) -> list[MultiplePoint]:
        """The generic points with p >= 4 or j >= 1 that land on ``s``, in
        the generic profile's order."""
        inside = {generic._stars.get(t) for t in combinations(s.planes, 3)}
        inside.discard(None)
        found = [generic._point_of[m] for m in inside if m & s.mask == m]
        return sorted((g for g in found
                       if (g.p >= 4 or g.j >= 1) and lands_on(g, s)),
                      key=_BY_PLANES)

    changes: list[NewIncidence] = []
    claimed_line_sets: set[tuple[int, ...]] = set()
    for s in points:
        if s.p < 4 and s.j < 1:
            continue
        notable = sources(s)
        lines_here = tuple(
            l.planes for l in new_lines if l.mask & s.mask == l.mask
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
    combinatorial change.  The minors are packed, and a subset's are
    unpacked only when their integer gcd shows that they may share a root.
    The profile at a rational root adds the minors with that root to the
    generic vanishing pattern, and the root is a degenerate value when
    ``profile_diff`` finds a change there; factors of degree >= 2 without
    rational roots are returned unresolved.
    """
    rows = a.rows
    table, k = _minor_table(rows)
    half = 1 << (k - 1)
    fatal: dict[Fraction, str] = {}
    # monic coefficients -> the unresolved factor
    unresolved: dict[tuple, Poly] = {}
    # root -> the triples and quadruples that turn dependent there
    turning: dict[Fraction, set] = {}
    # primitive gcd -> its rational roots, so each is searched once
    roots_of: dict[tuple, list[Fraction]] = {}

    def roots(g: tuple) -> list[Fraction]:
        """The rational roots of the primitive gcd ``g``."""
        if len(g) < 2:
            return []
        if g not in roots_of:
            found, leftovers = rational_roots(g)
            roots_of[g] = [r for r, _ in found]
            for f in leftovers:
                monic = tuple(Fraction(c, f[-1]) for c in f)
                unresolved[monic] = Poly(monic)
        return roots_of[g]

    for i, row in enumerate(rows, 1):
        for r in roots(_zw_gcd(row)):
            fatal.setdefault(r, f"form {i} vanishes")
    for s, ms in table.items():
        # the integer gcd of the packed minors is a multiple of the value at
        # 2^k of their gcd, which exceeds 2^(k-1) when that gcd is
        # nonconstant (``_zw_heu``): a set whose minors are coprime (a
        # nonzero constant among them, say) or all 0 stops here, unpacked
        value = int_gcd(*ms)
        if value < half:
            continue
        polys = [_zw_unpack(m, k) for m in ms if m]
        for r in roots(_zw_heu(polys, value, k) or _zw_gcd(polys, 2 * k)):
            if len(s) == 2:
                fatal.setdefault(r, f"planes {s[0]} and {s[1]} coincide")
            else:
                turning.setdefault(r, set()).add(s)

    dependent = {s for s, ms in table.items() if not any(ms)}
    generic = _profile_of(dependent, rows, table, k)
    values = []
    for w0 in sorted(turning.keys() - fatal.keys()):
        prof = generic._special(turning[w0], w0)
        changes = profile_diff(generic, prof)
        if changes:
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
    """(a:b:c:d) with each entry printed as its ``Poly``."""
    return "(" + ":".join(str(Poly(p)) for p in vec) + ")"

"""Independent checks and data shared between test modules: the eleven
bundled families, a sympy brute-force incidence oracle, incidence lookups,
profile diffs and node scans by scanning every line, point or schedule
step, random projective coordinate changes, the relations among a cycle
model's rows, and schoolbook multiplication and Horner evaluation of
polynomials."""

from fractions import Fraction
from functools import cache
from itertools import combinations

import sympy
from sympy.polys.matrices import DomainMatrix

from octic import classify, cli, incidence
from octic.exact import Poly, _zw_at
from octic.forms import LinearForm, ParamArrangement

# the eleven bundled families in ``classify.TAGS`` order, read from their
# scenario files: name -> scenario, (name, equation) pairs, and the pinch
# multiset each scenario expects
FAMILIES = {name: cli.find_scenario(name)[0] for name in classify.TAGS}
ELEVEN = [(name, data["equation"]) for name, data in FAMILIES.items()]
PINCHES = {name: tuple(data["expected"]["pinches"])
           for name, data in FAMILIES.items()}

# the seeded 8-plane families of the benchmark's octic-families workload,
# seed 1
SEED1 = [
    "xyzt(x+y+z+t)(x-y+2z-2t)(2x+y-z+3t)(-4x-2wx+y-2wy-6z+2wz+2t-2wt)",
    "xyzt(x+y+z+t)(x-y+2z-2t)(-2x+2wx+2y+wy-3z+2wz+4t-wt)(-2x-wx-2y+wy+wz-wt)",
    "xyzt(x+2y-z+t)(x-y+z+2t)(-2x+y+z+t)(-wx-6y+2wy+2z+wz+2t)",
    "xyzt(x+2y-z+t)(x-y+z+2t)(-2x-2wx-2y+2wy+z-2t-2wt)(2y-wy-2z-4t-2wt)",
    "xyzt(x+y+z+t)(x-y+2z-2t)(2x+y-z+3t)(-x-2wx+y-3z-2wz+2t-2wt)",
    "xyzt(x+y+z+t)(x-y+2z-2t)(2wx-y-2wy+z+2wz-2t-wt)(-2wx+y-wy-z+2wz-t+wt)",
    "xyzt(x+2y-z+t)(x-y+z+2t)(-2x+y+z+t)(x+2wx+wy-2wz+2t)",
    "xyzt(x+2y-z+t)(x-y+z+2t)(x-y+wy-z-wz)(2x+2wx+4y-wy-2z-2wz+3t-2wt)",
    "xyzt(x+y+z+t)(x-y+2z-2t)(2x+y-z+3t)(x+2wx+2y+wy-5z-wz+5t+2wt)",
    "xyzt(x+y+z+t)(x-y+2z-2t)(-2x+wx+2y-3z-2wz+4t-2wt)(-2x-2wx+4y-wy-2z-wz+6t+2wt)",
    "xyzt(x+2y-z+t)(x-y+z+2t)(-2x+y+z+t)(-x-2wx-y+wy+wz-t+2wt)",
    "xyzt(x+2y-z+t)(x-y+z+2t)(2x-wx+y+2wy+z-wz)(-2wx-2y+wy+z-2wz+2wt)",
]


def oracle(rows, domain=sympy.QQ):
    """Recompute the profile with sympy: pencils, points, decorations.

    Ranks and null spaces are taken with ``DomainMatrix`` over ``domain``:
    QQ for one arrangement, ``QQ.frac_field(w)`` for a family.  Entries
    are anything ``sympy.sympify`` reads (``Fraction``, or expressions in
    w)."""
    n = len(rows)
    elems = [[domain.from_sympy(sympy.sympify(x)) for x in r] for r in rows]
    mat = lambda ks: DomainMatrix([elems[k] for k in ks], (len(ks), 4), domain)
    rank = cache(lambda ks: mat(ks).rank())  # ks: sorted index tuples
    for i, j in combinations(range(n), 2):
        if rank((i, j)) < 2:
            raise incidence.CoincidentPlanes(i + 1, j + 1)
    pencils = set()
    for i, j in combinations(range(n), 2):
        members = tuple(
            k for k in range(n)
            if k in (i, j) or rank(tuple(sorted((i, j, k)))) == 2)
        pencils.add(members)
    lines = {tuple(m + 1 for m in mem): len(mem) for mem in pencils}

    points = {}
    for trip in combinations(range(n), 3):
        if rank(trip) != 3:
            continue
        (v,) = mat(trip).nullspace().to_list()
        lead = next(x for x in v if x)
        key = tuple(x / lead for x in v)
        members = tuple(
            k + 1 for k in range(n)
            if not sum((elems[k][t] * v[t] for t in range(4)), domain.zero))
        points[key] = members
    big = [set(m + 1 for m in mem) for mem in pencils if len(mem) >= 3]
    decorated = {}
    for mem in points.values():
        j = sum(1 for s in big if s <= set(mem))
        decorated[mem] = (len(mem), j)
    return lines, decorated


def line_through(prof, planes):
    """The first line of ``prof`` whose plane set contains ``planes``."""
    wanted = set(planes)
    return next((l for l in prof.lines if wanted <= set(l.planes)), None)


def point_through(prof, planes):
    """The first point of ``prof`` whose plane set contains ``planes``."""
    wanted = set(planes)
    return next((pt for pt in prof.points if wanted <= set(pt.planes)),
                None)


def profile_diff(generic, special):
    """``incidence.profile_diff`` by brute force: every special point with
    p >= 4 or j >= 1 against every generic one, lookups by scanning."""
    new_lines = [l for l in special.lines if l.q >= 3
                 and all(l.planes != g.planes for g in generic.lines)]
    sources = [g for g in generic.points if g.p >= 4 or g.j >= 1]

    def lands_on(g, s):
        if not set(g.planes) <= set(s.planes):
            return False
        if line_through(special, g.planes) is None:
            return True
        image = _zw_at(generic.point_vector(g), special.at)
        return incidence.primitive_vector(image) == special.point_vector(s)

    changes, claimed = [], set()
    for s in special.points:
        if s.p < 4 and s.j < 1:
            continue
        notable = [g for g in sources if lands_on(g, s)]
        if any(g.planes == s.planes and g.j == s.j for g in notable):
            continue
        lines_here = tuple(l.planes for l in new_lines
                           if set(l.planes) <= set(s.planes))
        claimed.update(lines_here)
        kind = ("PointCollision" if len(notable) >= 2 else
                "PointOnNewLine" if lines_here else "NewPoint")
        changes.append(incidence.NewIncidence(
            kind=kind, involved_planes=s.planes,
            sources=tuple(g.planes for g in notable),
            source_profiles=tuple((g.p, g.j) for g in notable),
            new_lines=lines_here, multiplicity=(s.p, s.j)))
    line_changes = [
        incidence.NewIncidence(kind="NewTripleLine", involved_planes=l.planes,
                               new_lines=(l.planes,))
        for l in new_lines if l.planes not in claimed]
    key = lambda c: c.involved_planes
    return sorted(line_changes, key=key) + sorted(changes, key=key)


def node_scan(driver, c, prior, flagged, flag_points):
    """The node scan of the trace driver ``driver`` after it blew up the
    plain double line ``c``, by brute force: every schedule step is tried,
    in schedule order, with lookups by scanning.  ``prior`` holds the masks
    of the lines blown before ``c``; the pairs and crossing points flagged
    are added to ``flagged`` and ``flag_points``."""
    for c2 in driver.sched.steps:
        if c2.role != "pair" or c2.name in driver.blown:
            continue
        if not set(c.indices).isdisjoint(c2.indices):
            continue
        four = c.indices + c2.indices
        if point_through(driver.generic, four) is not None:
            continue
        if line_through(driver.central, c2.indices).q != 2:
            continue
        pt = point_through(driver.central, four)
        if pt is None or pt.mask in flag_points or not driver._virgin(pt):
            continue
        if any(m & pt.mask == m for m in prior):
            continue
        flagged.add(c2.name)
        flag_points.add(pt.mask)


def family_through(rows) -> ParamArrangement:
    """A family whose fiber at w = 0 has the rational ``rows``: row i (from
    1) plus w (1, i, i^2, i^3).  Those vectors are pairwise independent, so
    no two forms are proportional over Q(w), while the fiber at 0 may have
    coincident planes."""
    return ParamArrangement([
        LinearForm([Poly([c, i ** k]) for k, c in enumerate(r)])
        for i, r in enumerate(rows, 1)])


def random_constant_arrangement(rng, n):
    """``n`` random nonzero rows of integers in [-2, 2], as ``Fraction``s,
    and the family through them at w = 0 (``family_through``)."""
    rows = []
    for _ in range(n):
        while True:
            r = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
            if any(r):
                break
        rows.append(r)
    return rows, family_through(rows)


def random_gl4(rng):
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
        if sympy.Matrix(m).det() != 0:
            return m


def transform(a, m):
    """Substitute x_i -> sum_k m[i][k] x_k in every form of the family
    ``a``."""
    return ParamArrangement([
        LinearForm([sum((times(f.coeffs[i], m[i][k]) for i in range(4)),
                        Poly()) for k in range(4)])
        for f in a.forms])


def relations(cm) -> list:
    """A basis of the relations among the rows of the cycle model ``cm``
    (the left kernel of its matrix, by sympy's nullspace of the transpose),
    each as {row label: nonzero coefficient}."""
    kernel = sympy.Matrix(cm.matrix).T.nullspace()
    return [{label: Fraction(int(c.p), int(c.q))
             for label, c in zip(cm.row_labels, vec) if c}
            for vec in kernel]


def combination_vanishes(cm, chain) -> bool:
    """Whether the rows of ``cm`` combined with the coefficients of the
    {row label: coefficient} ``chain`` sum to zero."""
    coeffs = [Fraction(chain.get(label, 0)) for label in cm.row_labels]
    return not any(sum(c * x for c, x in zip(coeffs, col))
                   for col in zip(*cm.matrix))


def zw_mul(a: tuple, b: tuple) -> tuple:
    """The product of two polynomials given as ascending coefficient tuples
    without trailing zeros (() for 0), such as Z[w] tuples, by schoolbook
    convolution."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def times(p: Poly, c) -> Poly:
    """The ``Poly`` ``p`` times the ``Poly`` or rational ``c``."""
    return Poly(zw_mul(p.coeffs, c.coeffs if isinstance(c, Poly) else (c,)))


def evaluate(coeffs, v) -> Fraction:
    """The value at ``v`` of the polynomial with the ascending coefficients
    ``coeffs`` (a ``Poly``'s, or a Z[w] tuple), by Horner's rule."""
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * v + c
    return value

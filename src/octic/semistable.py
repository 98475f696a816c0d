"""Components of the semistable model and the nerve of their intersections.

Fiberwise resolution replaces the degenerate fiber by a reduced normal
crossing divisor: the resolved threefold Y plus one new component per
residual double curve (a bundle over the curve) or per node-bearing
surface.  The catalogue of component geometries is closed -- each entry in
the residual report maps to a known bundle type with a known Betti vector,
and every double or triple intersection locus is one of three surface
geometries or a smooth conic.  Configurations the rules never produce are
rejected rather than guessed at.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from . import Record
from .classify import (FIVEFOLD_POINT, NODE_MARKER, TRIPLE_LINE,
                       ResidualSingularities)


class UnsupportedConfiguration(ValueError):
    """Residual shape outside the catalogue of worked component models."""


# ---------------------------------------------------------------------------
# component geometries (threefolds)
#
# Each geometry is a ``Record``, so that geometries of different classes
# never compare equal, even where they hold the same values.


class ResolvedCY(Record):
    """The resolved central fiber itself; its Betti vector is an input."""

    __slots__ = _fields = ("betti",)

    def __init__(self, betti: tuple):
        b = self.betti = tuple(int(x) for x in betti)
        if len(b) != 7:
            raise ValueError("a threefold carries seven Betti numbers")
        if b[0] != 1 or b[6] != 1 or b[1] != 0 or b[5] != 0:
            raise ValueError(f"not the Betti vector of a connected Calabi-Yau: {b}")
        if b[2] != b[4]:
            raise ValueError(f"Betti vector is not palindromic: {b}")


class QuadricBundle(Record):
    """Bundle of quadric surfaces over a rational double curve.

    ``split_fibers`` lists, per completely reducible fiber, how many
    components it breaks into; ``cone_fibers`` counts fibers degenerating
    to a quadric cone.  A cone fiber makes the two rulings of the generic
    fiber homologous, which is what drops the rank below the split case.
    """

    __slots__ = _fields = ("split_fibers", "cone_fibers")

    def __init__(self, split_fibers: tuple = (), cone_fibers: int = 0):
        self.split_fibers = split_fibers
        self.cone_fibers = cone_fibers


class DoubleCoverP2xP1(Record):
    """Double cover of P2 x P1 branched along a conic bundle with pinches."""

    __slots__ = _fields = ("pinch_fibers",)

    def __init__(self, pinch_fibers: int):
        if pinch_fibers < 2:
            # b3 = pinch_fibers - 2 in this family; fewer pinches never occur
            raise UnsupportedConfiguration(
                f"double cover with {pinch_fibers} pinch fibers is outside the catalogue")
        self.pinch_fibers = pinch_fibers


class NodeResolution(Record):
    """Component replacing a surface that carries ordinary double points."""

    __slots__ = _fields = ("node_count_on_surface",)

    def __init__(self, node_count_on_surface: int):
        self.node_count_on_surface = node_count_on_surface


# ---------------------------------------------------------------------------
# stratum geometries (surfaces and curves)


class ConicBundle(Record):
    """Conic bundle over P1; ``split_fibers`` lists component counts of the
    reducible fibers (two for a pinch, three over a split quadric fiber)."""

    __slots__ = _fields = ("split_fibers",)

    def __init__(self, split_fibers: tuple = ()):
        self.split_fibers = split_fibers


class SmoothQuadric(Record):
    """P1 x P1 with no points blown up."""

    __slots__ = ()


class BlownP1xP1(Record):
    """P1 x P1 blown up in a set of points."""

    __slots__ = _fields = ("points",)

    def __init__(self, points: int):
        self.points = points


class SmoothConic(Record):
    """A smooth conic curve, isomorphic to P1."""

    __slots__ = ()


ComponentGeometry = Union[ResolvedCY, QuadricBundle, DoubleCoverP2xP1, NodeResolution]
SurfaceGeometry = Union[ConicBundle, SmoothQuadric, BlownP1xP1]
CurveGeometry = SmoothConic


# ---------------------------------------------------------------------------
# Betti numbers


def betti(geometry) -> tuple:
    """Betti vector of a catalogue geometry (7, 5 or 3 entries)."""
    if isinstance(geometry, ResolvedCY):
        return geometry.betti
    if isinstance(geometry, QuadricBundle):
        r = 2 if geometry.cone_fibers == 0 else 1
        mid = 1 + r + sum(c - 1 for c in geometry.split_fibers)
        return (1, 0, mid, 0, mid, 0, 1)
    if isinstance(geometry, DoubleCoverP2xP1):
        return (1, 0, 2, geometry.pinch_fibers - 2, 2, 0, 1)
    if isinstance(geometry, NodeResolution):
        return (1, 0, 3, 0, 3, 0, 1)
    if isinstance(geometry, ConicBundle):
        mid = 2 + sum(c - 1 for c in geometry.split_fibers)
        return (1, 0, mid, 0, 1)
    if isinstance(geometry, SmoothQuadric):
        return (1, 0, 2, 0, 1)
    if isinstance(geometry, BlownP1xP1):
        return (1, 0, 2 + geometry.points, 0, 1)
    if isinstance(geometry, SmoothConic):
        return (1, 0, 1)
    raise TypeError(f"not a catalogue geometry: {geometry!r}")


def euler(geometry) -> int:
    b = betti(geometry)
    return sum((-1) ** i * x for i, x in enumerate(b))


# ---------------------------------------------------------------------------
# the strata complex


class Component(NamedTuple):
    label: str
    geometry: ComponentGeometry


class DoubleStratum(NamedTuple):
    pair: tuple            # two component labels, in component order
    geometry: SurfaceGeometry


class TripleStratum(NamedTuple):
    triple: tuple          # three component labels, in component order
    geometry: CurveGeometry = SmoothConic()


class StrataComplex(NamedTuple):
    """Nerve of the semistable fiber: components, double and triple loci.

    The component order (Y first, new components in creation order) is part
    of the data; differential signs downstream depend on it.  Only
    ``build_components`` makes one: its labels are distinct, each stratum
    lists its components in that order, and every face of a triple stratum
    is a double stratum.
    """

    components: tuple
    double_strata: tuple = ()
    triple_strata: tuple = ()

    # -- views ----------------------------------------------------------

    @property
    def depth(self) -> int:
        """Deepest nonempty level: 3 with triple strata, 2 with double strata."""
        return 3 if self.triple_strata else (2 if self.double_strata else 1)

    def level(self, m: int):
        """Strata of depth m as (member labels, geometry) pairs, in canonical
        order.

        Depth 1 are the components themselves, depth 2 the double strata,
        depth 3 the triple strata.
        """
        if m == 1:
            return [((c.label,), c.geometry) for c in self.components]
        if m == 2:
            return [(tuple(d.pair), d.geometry) for d in self.double_strata]
        if m == 3:
            return [(tuple(t.triple), t.geometry) for t in self.triple_strata]
        return []

    def counts(self) -> tuple:
        return (len(self.components), len(self.double_strata), len(self.triple_strata))


# ---------------------------------------------------------------------------
# assembly from a residual report


def _first_counts(residual: ResidualSingularities) -> list:
    """How many triple meeting points each curve is the earliest-blown member of."""
    firsts = [0] * len(residual.double_curves)
    for t in residual.triple_meeting_points:
        firsts[min(t)] += 1
    return firsts


def build_components(residual: ResidualSingularities, y_betti) -> StrataComplex:
    """Assemble the strata complex for a residual report.

    ``y_betti`` is the Betti vector of the resolved central fiber; it is an
    input because it comes from the fiberwise resolution, not from the
    combinatorics handled here.
    """
    y = Component("Y", ResolvedCY(tuple(y_betti)))

    if residual.nodes:
        if residual.double_curves or residual.triple_meeting_points:
            raise UnsupportedConfiguration(
                "nodes mixed with residual double curves have no worked model")
        if residual.node_surface_marker != NODE_MARKER:
            raise UnsupportedConfiguration(
                f"nodes marked {residual.node_surface_marker!r} are not resolved by "
                "blowing up the surface")
        q = Component("Q1", NodeResolution(residual.nodes))
        cross = DoubleStratum(("Y", "Q1"), BlownP1xP1(points=residual.nodes))
        return StrataComplex((y, q), (cross,))

    for t in residual.triple_meeting_points:
        for i in t:
            if residual.double_curves[i].over != TRIPLE_LINE:
                raise UnsupportedConfiguration(
                    f"triple meeting point {t} involves curve {i} over "
                    f"{residual.double_curves[i].over}; only curves over triple "
                    "lines meet in the worked models")

    firsts = _first_counts(residual)
    components = [y]
    doubles = []
    for i, curve in enumerate(residual.double_curves):
        label = f"Q{i + 1}"
        if curve.over == TRIPLE_LINE:
            geom = QuadricBundle(split_fibers=(4,) * firsts[i],
                                 cone_fibers=curve.pinch_points)
        elif curve.over == FIVEFOLD_POINT:
            geom = DoubleCoverP2xP1(pinch_fibers=curve.pinch_points)
        else:
            raise UnsupportedConfiguration(f"curve {i} lies over {curve.over!r}")
        components.append(Component(label, geom))
        # the trace of Y on the new component: conics over the double curve,
        # splitting into two lines at a pinch and into three components over
        # a completely reducible quadric fiber
        fibers = (2,) * curve.pinch_points + (3,) * firsts[i]
        doubles.append(DoubleStratum(("Y", label), ConicBundle(fibers)))

    triples = []
    quadric_pairs = set()
    for t in sorted(residual.triple_meeting_points):
        f = min(t)
        for o in sorted(set(t) - {f}):
            pair = (f"Q{f + 1}", f"Q{o + 1}")
            if pair in quadric_pairs:
                raise UnsupportedConfiguration(
                    f"components {pair} would meet along two distinct quadrics")
            quadric_pairs.add(pair)
            doubles.append(DoubleStratum(pair, SmoothQuadric()))
            triples.append(TripleStratum(("Y",) + pair))

    return StrataComplex(tuple(components), tuple(doubles), tuple(triples))

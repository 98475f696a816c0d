"""The eleven local degeneration types and their residual singularities.

A combinatorial degeneration is matched against a closed list of local
models by the multiplicity data of its location: how many notable points
collapse there, their (p, j) before, the (p, j) after, and the pencils
involved.  Each type comes with a fixed residual-singularity outcome --
what is left after resolving generic fibers fiberwise -- which the
blow-up engine later recomputes independently; the two must agree.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Optional

from . import Record
from .incidence import IncidenceProfile, NewIncidence

TRIPLE_LINE = "triple_line"
FIVEFOLD_POINT = "fivefold_point"
# the surface whose blow-up resolves a node pair
NODE_MARKER = "small_resolution"


class Unclassifiable(ValueError):
    def __init__(self, change: NewIncidence, detail: str = ""):
        msg = f"degeneration outside the local taxonomy: {change.kind}{change.involved_planes}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.change = change


class DoubleCurve(Record):
    """One double curve of the partially resolved central fiber.

    ``over`` records what the curve lies over in the branch locus: the
    degenerate triple line itself, or the exceptional surface of a
    fivefold point.
    """

    __slots__ = _fields = ("pinch_points", "over")

    def __init__(self, pinch_points: int, over: str):
        if pinch_points < 0:
            raise ValueError("negative pinch count")
        if over not in (TRIPLE_LINE, FIVEFOLD_POINT):
            raise ValueError(f"unknown curve location {over!r}")
        self.pinch_points = pinch_points
        self.over = over


class ResidualSingularities(NamedTuple):
    double_curves: tuple[DoubleCurve, ...] = ()
    nodes: int = 0
    node_surface_marker: Optional[str] = None
    triple_meeting_points: tuple[tuple[int, int, int], ...] = ()

    @property
    def adjacency(self) -> tuple[tuple[int, int], ...]:
        """Index pairs of meeting curves: two curves meet where they share
        a triple meeting point."""
        return tuple(sorted({tuple(sorted(pair))
                             for t in self.triple_meeting_points
                             for pair in combinations(t, 2)}))

    def pinch_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(c.pinch_points for c in self.double_curves))

    def to_json(self) -> dict:
        out: dict = {
            "curves": [
                {"pinch": c.pinch_points, "over": c.over}
                for c in self.double_curves
            ],
            "nodes": self.nodes,
        }
        if self.node_surface_marker:
            out["node_surface"] = self.node_surface_marker
        if self.triple_meeting_points:
            out["triple_points"] = [list(t) for t in self.triple_meeting_points]
        if self.adjacency:
            out["adjacency"] = [list(p) for p in self.adjacency]
        return out


def residual_key(r: ResidualSingularities):
    """Order-insensitive comparison key: the per-curve data as a multiset,
    node data, and the shape of the incidence graph (curve degrees)."""
    degree = [0] * len(r.double_curves)
    for a, b in r.adjacency:
        degree[a] += 1
        degree[b] += 1
    return (
        tuple(sorted((c.pinch_points, c.over) for c in r.double_curves)),
        r.nodes,
        r.node_surface_marker,
        len(r.triple_meeting_points),
        tuple(sorted(degree)),
    )


# ---------------------------------------------------------------------------
# classification


_SINGLE_SOURCE = {
    ((4, 0), (4, 1)): "P40toP41",
    ((4, 0), (5, 1)): "P40toP51",
    ((4, 0), (5, 2)): "P40toP52",
    ((5, 0), (5, 1)): "P50toP51",
    ((5, 0), (5, 2)): "P50toP52",
    ((5, 1), (5, 2)): "P51toP52",
}


def classify_local(
    change: NewIncidence,
    generic: IncidenceProfile,
) -> str:
    """Match one new incidence against the local taxonomy; returns the tag
    of its local type.

    Points are dispatched on (sources before, multiplicity after); the
    two-point collision splits by which plane the old and the new pencil
    share.  Anything else is out of taxonomy, never guessed.
    """
    if change.kind == "NewTripleLine":
        if len(change.involved_planes) == 3:
            return "NewL3"
        raise Unclassifiable(change, "line of multiplicity > 3")

    s = change.multiplicity
    if s is None:
        raise Unclassifiable(change, "point change without multiplicity")
    sources = change.source_profiles

    if len(sources) >= 2:
        if len(sources) != 2 or set(sources) != {(4, 1)} or s[0] != 5:
            raise Unclassifiable(change, "unrecognized collision")
        old = [
            l.planes
            for l in generic.lines
            if l.q >= 3
            and all(set(l.planes) <= set(src) for src in change.sources)
        ]
        new = [pl for pl in change.new_lines if pl not in old]
        if len(old) != 1 or len(new) != 1:
            raise Unclassifiable(change, "collision pencils not in standard position")
        shared = set(new[0]) & set(old[0])
        if len(shared) != 1:
            raise Unclassifiable(change, "pencils share more than one plane")
        if shared == {min(old[0])}:
            return "TwoP41toP52"
        return "TwoP41toP51"

    if len(sources) == 1:
        tag = _SINGLE_SOURCE.get((sources[0], s))
        if tag is None:
            raise Unclassifiable(change, f"no model for {sources[0]} -> {s}")
        return tag

    if s == (4, 0) and change.kind == "NewPoint":
        return "NewP40"
    if s == (4, 1) and change.kind == "PointOnNewLine":
        return "NewP41"
    raise Unclassifiable(change, f"point {s} from nowhere")


# ---------------------------------------------------------------------------
# the outcome table

_T = TRIPLE_LINE
_F = FIVEFOLD_POINT


def _curves(*spec: tuple[int, str]) -> tuple[DoubleCurve, ...]:
    return tuple(DoubleCurve(pinch_points=p, over=o) for p, o in spec)


_OUTCOMES: dict[str, ResidualSingularities] = {
    "NewL3": ResidualSingularities(double_curves=_curves((0, _T))),
    "NewP40": ResidualSingularities(nodes=2, node_surface_marker=NODE_MARKER),
    "P51toP52": ResidualSingularities(double_curves=_curves((1, _T))),
    # curves listed in creation order of the reference trace
    "TwoP41toP52": ResidualSingularities(
        double_curves=_curves((1, _T), (3, _T))
    ),
    "TwoP41toP51": ResidualSingularities(double_curves=_curves((4, _F))),
    "P40toP52": ResidualSingularities(
        double_curves=_curves((0, _F), (0, _T), (2, _F), (0, _T), (2, _F)),
        triple_meeting_points=((0, 1, 2), (0, 3, 4)),
    ),
    "NewP41": ResidualSingularities(double_curves=_curves((1, _T))),
    "P40toP41": ResidualSingularities(double_curves=_curves((0, _T))),
    "P40toP51": ResidualSingularities(
        double_curves=_curves((2, _F), (0, _T), (2, _F)),
        triple_meeting_points=((0, 1, 2),),
    ),
    "P50toP52": ResidualSingularities(
        double_curves=_curves((1, _T), (1, _T))
    ),
    "P50toP51": ResidualSingularities(double_curves=_curves((1, _T))),
}


# the eleven tags, in the order of the taxonomy table
TAGS = tuple(_OUTCOMES)


def residual_outcome(tag: str) -> ResidualSingularities:
    return _OUTCOMES[tag]

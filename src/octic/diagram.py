"""Configuration diagrams of central fibers and their blow-up rewrites.

A diagram records the branch-divisor combinatorics of a central fiber
while the resolution of the nearby fibers is pulled across the family:
one node per surface (plane, exceptional component, or piece split off a
plane), one record per double or triple curve with its pinch count, the
triple meetings of split curves, and the node pairs.  ``apply_blowup``
consumes one blow-up step described by a :class:`CenterContext` and
returns the rewritten diagram; the geometric analysis that decides which
rewrite applies lives in :mod:`octic.resolve`.  The diagram reads no
coordinates and marks no points: a pinch is counted on its curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from .classify import (FIVEFOLD_POINT, NODE_MARKER, DoubleCurve,
                       ResidualSingularities)
from .incidence import IncidenceProfile


class CenterNotInDiagram(Exception):
    """A blow-up step referenced a curve or surface the diagram does not hold."""

    def __init__(self, what):
        self.what = what
        super().__init__("center not present in diagram: %r" % (what,))


class RuleConflict(Exception):
    """The described step matches no rewrite rule (or is self-contradictory)."""


PLANE = "plane"
EXCEPTIONAL = "exceptional"
SPLIT = "split"

# curve kinds
STRICT = "strict"            # intersection of two (or more) original planes
SPLIT_CURVE = "split"        # P meets the piece P' split off it
SECTION = "section"          # plane meets a split piece along a section
SPLIT_FIBER = "split_fiber"  # fiber curve joining two split pieces
TRACE = "trace"              # trace of a plane on a point tower
TOWER_SECTION = "tower_section"  # sections of a line tower
TOWER_FIBER = "tower_fiber"
TOWER_MEET = "tower_meet"    # two exceptional towers meet

# rewrite selectors used by CenterContext
PLAIN_EVEN = "plain_even"
PLAIN_ODD = "plain_odd"
SPLIT_REWRITE = "split"
NODE_PAIR = "node_pair"


def _surface_key(label: str):
    """Deterministic ordering: planes by index and prime count, towers after."""
    if label.startswith("P"):
        body = label[1:]
        base = body.rstrip("'")
        return (0, int(base), len(body) - len(base))
    return (1, label)


def _short(label: str) -> str:
    return label[1:] if label.startswith("P") else label


def curve_label(surfaces: Iterable[str]) -> str:
    return "".join(_short(s) for s in sorted(surfaces, key=_surface_key))


@dataclass(frozen=True)
class Surface:
    label: str
    origin: str                      # plane | exceptional | split
    parent: Optional[str] = None     # the plane a split piece came from


@dataclass(frozen=True)
class DiagramCurve:
    id: int
    surfaces: tuple               # sorted surface labels, len >= 2
    kind: str
    exceptional_on: tuple = ()    # surfaces on which the curve is drawn dashed
    over: Optional[str] = None    # triple_line | fivefold_point for split-type curves
    pinch_count: int = 0

    @property
    def label(self) -> str:
        return curve_label(self.surfaces)


# ---------------------------------------------------------------------------
# events


@dataclass(frozen=True)
class NewExceptionalSurface:
    center: str
    label: str

    def to_json(self):
        return {"event": "new_exceptional_surface", "center": self.center,
                "label": self.label}


@dataclass(frozen=True)
class SplitComponent:
    center: str
    parent: str
    label: str
    over: str

    def to_json(self):
        return {"event": "split_component", "center": self.center,
                "parent": self.parent, "label": self.label, "over": self.over}


@dataclass(frozen=True)
class NewPinch:
    center: str
    curve: int
    count: int = 1

    def to_json(self):
        return {"event": "new_pinch", "center": self.center,
                "curve": self.curve, "count": self.count}


@dataclass(frozen=True)
class NewNodePair:
    center: str
    count: int
    marker: str

    def to_json(self):
        return {"event": "new_node_pair", "center": self.center,
                "count": self.count, "marker": self.marker}


# ---------------------------------------------------------------------------
# step description handed over by the driver


@dataclass(frozen=True)
class CenterContext:
    """Geometric summary of one blow-up step restricted to the central fiber.

    The driver compares generic and central multiplicities of the center,
    decides which rewrite applies, and fills in the structural data; the
    diagram performs the rewrite without re-deriving any geometry.
    """

    name: str
    rewrite: str
    target_curves: tuple = ()                 # curve ids consumed by the step
    # plain odd blow-ups (new exceptional tower)
    tower_label: Optional[str] = None
    tower_traces: tuple = ()                  # planes traced on a point tower
    tower_sections: tuple = ()                # planes with sections on a line tower
    tower_fibers: tuple = ()                  # planes with fiber curves on a line tower
    tower_meets: tuple = ()                   # earlier towers met along a curve
    # split rewrites
    split_surface: Optional[str] = None
    split_over: Optional[str] = None
    section_surfaces: tuple = ()
    fiber_with: Optional[str] = None          # earlier split piece joined by a fiber
    # pinches fired by this step: (curve id, count)
    pinches: tuple = ()

    def __post_init__(self):
        # a transcribed split may leave out its parent
        if self.rewrite == SPLIT_REWRITE and not self.split_surface:
            raise RuleConflict("split rewrite with no surface to split")


# ---------------------------------------------------------------------------
# the diagram itself


@dataclass
class Diagram:
    surfaces: dict = field(default_factory=dict)   # label -> Surface
    curves: dict = field(default_factory=dict)     # id -> DiagramCurve
    events: list = field(default_factory=list)
    triple_meetings: list = field(default_factory=list)  # [(cid, cid, cid)]
    nodes: int = 0
    next_curve_id: int = 0

    def clone(self) -> "Diagram":
        return Diagram(
            surfaces=dict(self.surfaces),
            curves=dict(self.curves),
            events=list(self.events),
            triple_meetings=list(self.triple_meetings),
            nodes=self.nodes,
            next_curve_id=self.next_curve_id,
        )

    # -- construction helpers ------------------------------------------------

    def add_surface(self, s: Surface):
        if s.label in self.surfaces:
            raise RuleConflict("surface %s added twice" % s.label)
        self.surfaces[s.label] = s

    def add_curve(self, surfaces, kind, exceptional_on=(), over=None) -> int:
        labels = tuple(sorted(surfaces, key=_surface_key))
        for s in labels:
            if s not in self.surfaces:
                raise CenterNotInDiagram(s)
        cid = self.next_curve_id
        self.next_curve_id += 1
        self.curves[cid] = DiagramCurve(
            id=cid, surfaces=labels, kind=kind,
            exceptional_on=tuple(sorted(exceptional_on, key=_surface_key)),
            over=over)
        return cid

    def curve_by_surfaces(self, surfaces) -> Optional[DiagramCurve]:
        want = tuple(sorted(surfaces, key=_surface_key))
        for c in self.curves.values():
            if c.surfaces == want:
                return c
        return None

    def split_family(self, base_label: str):
        """All split pieces carved off ``base_label``, in creation order."""
        return [s for s in self.surfaces.values()
                if s.origin == SPLIT and s.parent == base_label]

    def next_prime_label(self, base_label: str) -> str:
        return base_label + "'" * (len(self.split_family(base_label)) + 1)

    # -- internal rewrite pieces --------------------------------------------

    def _remove_curve(self, cid: int):
        if cid not in self.curves:
            raise CenterNotInDiagram(cid)
        del self.curves[cid]

    def _apply_pinches(self, ctx: CenterContext):
        for cid, count in ctx.pinches:
            if cid not in self.curves:
                raise CenterNotInDiagram(cid)
            c = self.curves[cid]
            if c.kind not in (SPLIT_CURVE, SPLIT_FIBER):
                raise RuleConflict(
                    "pinch emitted on %s curve %s" % (c.kind, c.label))
            self.curves[cid] = replace(c, pinch_count=c.pinch_count + count)
            self.events.append(NewPinch(ctx.name, cid, count))


def initial_diagram(prof: IncidenceProfile) -> Diagram:
    """Diagram of an arrangement's branch divisor before any blow-up, read
    off its incidence profile.

    One surface per plane and one curve per multiple line of the profile.
    """
    d = Diagram()
    for i in range(1, prof.n_forms + 1):
        d.add_surface(Surface(label="P%d" % i, origin=PLANE))
    for line in prof.lines:
        d.add_curve(["P%d" % i for i in line.planes], STRICT)
    return d


def apply_blowup(d: Diagram, ctx: CenterContext) -> Diagram:
    """Rewrite ``d`` by one blow-up step; returns a new diagram.

    Emits at most two events.  Rewrites:

    * ``plain_even``   separation only; may fire pinches on split curves
    * ``plain_odd``    new exceptional tower with its traces/sections/fibers
    * ``split``        a plane sheds a new piece along the center
    * ``node_pair``    the center degenerated into two crossing curves: two
                       nodes, resolved on a ``NODE_MARKER`` surface
    """
    out = d.clone()
    events_before = len(out.events)

    if ctx.rewrite == PLAIN_EVEN:
        for cid in ctx.target_curves:
            out._remove_curve(cid)
        out._apply_pinches(ctx)

    elif ctx.rewrite == PLAIN_ODD:
        label = ctx.tower_label
        out.add_surface(Surface(label=label, origin=EXCEPTIONAL))
        out.events.append(NewExceptionalSurface(ctx.name, label))
        for cid in ctx.target_curves:
            out._remove_curve(cid)
        for p in ctx.tower_traces:
            out.add_curve((p, label), TRACE, exceptional_on=(p,))
        for p in ctx.tower_sections:
            out.add_curve((p, label), TOWER_SECTION)
        for p in ctx.tower_fibers:
            out.add_curve((p, label), TOWER_FIBER, exceptional_on=(p,))
        for t in ctx.tower_meets:
            out.add_curve((t, label), TOWER_MEET, exceptional_on=(t,))

    elif ctx.rewrite == SPLIT_REWRITE:
        parent = ctx.split_surface
        if parent not in out.surfaces:
            raise CenterNotInDiagram(parent)
        over = ctx.split_over
        label = out.next_prime_label(parent)
        out.add_surface(Surface(label=label, origin=SPLIT, parent=parent))
        out.events.append(SplitComponent(ctx.name, parent, label, over))
        for cid in ctx.target_curves:
            out._remove_curve(cid)
        split_cid = out.add_curve((parent, label), SPLIT_CURVE,
                                  exceptional_on=(parent,), over=over)
        for s in ctx.section_surfaces:
            out.add_curve((s, label), SECTION, exceptional_on=(s,))
        if ctx.fiber_with is not None:
            if ctx.fiber_with not in out.surfaces:
                raise CenterNotInDiagram(ctx.fiber_with)
            prev = out.curve_by_surfaces((parent, ctx.fiber_with))
            if prev is None or prev.kind != SPLIT_CURVE:
                raise RuleConflict(
                    "fiber curve requires the earlier split curve %s"
                    % curve_label((parent, ctx.fiber_with)))
            fiber_cid = out.add_curve((ctx.fiber_with, label), SPLIT_FIBER,
                                      exceptional_on=(ctx.fiber_with, label),
                                      over=FIVEFOLD_POINT)
            out.triple_meetings.append((prev.id, split_cid, fiber_cid))
        out._apply_pinches(ctx)

    elif ctx.rewrite == NODE_PAIR:
        for cid in ctx.target_curves:
            out._remove_curve(cid)
        out.nodes += 2
        out.events.append(NewNodePair(ctx.name, 2, NODE_MARKER))

    if len(out.events) - events_before > 2:
        raise RuleConflict("blow-up step emitted more than two events")
    return out


def residual_report(d: Diagram) -> ResidualSingularities:
    """Collect what is still singular: split curves, pinches, node pairs."""
    residual = []
    index_of = {}
    for c in d.curves.values():          # insertion order == creation order
        if c.kind in (SPLIT_CURVE, SPLIT_FIBER):
            index_of[c.id] = len(residual)
            residual.append(DoubleCurve(pinch_points=c.pinch_count, over=c.over))
    triples = []
    for (a, b, c) in d.triple_meetings:
        if a in index_of and b in index_of and c in index_of:
            triples.append(tuple(sorted((index_of[a], index_of[b], index_of[c]))))
    return ResidualSingularities(
        double_curves=tuple(residual),
        nodes=d.nodes,
        node_surface_marker=NODE_MARKER if d.nodes else None,
        triple_meeting_points=tuple(sorted(triples)),
    )


def render_dot(d: Diagram, name: str = "central_fiber") -> str:
    """Graphviz source for the diagram; output is deterministic.

    One cluster per surface; each curve appears as a node inside every
    surface it lies on (dashed where the curve is exceptional there), with
    dotted cross-links tying the appearances together.  Pinch points show
    as diamond glyphs, node pairs as a doubled circle on the diagram root.
    """
    lines = ["graph %s {" % name]
    lines.append('  graph [compound=true, fontname="Helvetica"];')
    lines.append('  node [shape=box, fontname="Helvetica"];')
    for label in sorted(d.surfaces, key=_surface_key):
        surf = d.surfaces[label]
        lines.append('  subgraph "cluster_%s" {' % label)
        style = {PLANE: "solid", EXCEPTIONAL: "dashed", SPLIT: "dashed"}[surf.origin]
        lines.append('    label="%s"; style=%s;' % (label, style))
        members = [c for c in sorted(d.curves.values(), key=lambda c: c.id)
                   if label in c.surfaces]
        if not members:
            lines.append('    "anchor_%s" [shape=point, style=invis];' % label)
        for c in members:
            dash = ', style=dashed' if label in c.exceptional_on else ''
            lines.append('    "c%d@%s" [label="%s"%s];' % (c.id, label, c.label, dash))
        lines.append("  }")
    for c in sorted(d.curves.values(), key=lambda c: c.id):
        surfs = list(c.surfaces)
        for a, b in zip(surfs, surfs[1:]):
            lines.append('  "c%d@%s" -- "c%d@%s" [style=dotted];'
                         % (c.id, a, c.id, b))
    pinch_idx = 0
    for c in sorted(d.curves.values(), key=lambda c: c.id):
        for _ in range(c.pinch_count):
            home = c.surfaces[0]
            lines.append('  "pinch%d" [shape=diamond, label="", width=0.15, '
                         'height=0.15];' % pinch_idx)
            lines.append('  "pinch%d" -- "c%d@%s";' % (pinch_idx, c.id, home))
            pinch_idx += 1
    if d.nodes:
        lines.append('  "nodes" [shape=doublecircle, label="%d nodes\\n%s"];'
                     % (d.nodes, NODE_MARKER))
    lines.append("}")
    return "\n".join(lines) + "\n"

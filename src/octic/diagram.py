"""Configuration diagrams of central fibers and their blow-up rewrites.

A diagram records the branch-divisor combinatorics of a central fiber
while the resolution of the nearby fibers is pulled across the family:
one node per surface (plane, exceptional component, or piece split off a
plane), one record per double or triple curve with its pinch count, the
triple meetings of split curves, and the node pairs.  One blow-up step is
one of four rewrites, each a function that takes exactly what it reads
and returns the rewritten diagram: ``separate`` (the center's curves go,
pinches may fire), ``tower`` (a new exceptional surface), ``split`` (a
plane sheds a piece) and ``node_pair``.  The geometric analysis that
decides which rewrite applies lives in :mod:`octic.resolve`.  The diagram
reads no coordinates and marks no points: a pinch is counted on its curve.

Each diagram of a trace carries the events of the step that made it, at
most two, as the plain dicts ``reduce`` prints (a new exceptional surface,
a split component, a pinch, a node pair), so a step's record is its
center and its diagram's ``events``; the initial diagram has none.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from . import Record
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


class Surface(NamedTuple):
    label: str
    origin: str                      # plane | exceptional | split
    parent: Optional[str] = None     # the plane a split piece came from


class DiagramCurve(NamedTuple):
    id: int
    surfaces: tuple               # sorted surface labels, len >= 2
    kind: str
    exceptional_on: tuple = ()    # surfaces on which the curve is drawn dashed
    over: Optional[str] = None    # triple_line | fivefold_point for split-type curves
    pinch_count: int = 0

    @property
    def label(self) -> str:
        return "".join(_short(s) for s in self.surfaces)


# ---------------------------------------------------------------------------
# the diagram itself


class Diagram(Record):
    """The diagram being rewritten: ``surfaces`` maps a label to its
    ``Surface``, ``curves`` an id to its ``DiagramCurve``, ``events`` holds
    this step's as dicts and ``triple_meetings`` (cid, cid, cid) triples.
    Each list or dict left out starts empty."""

    __slots__ = _fields = ("surfaces", "curves", "events", "triple_meetings",
                           "nodes", "next_curve_id")
    __hash__ = None  # mutable, so unhashable

    def __init__(self, surfaces=None, curves=None, events=None,
                 triple_meetings=None, nodes: int = 0, next_curve_id: int = 0):
        self.surfaces = {} if surfaces is None else surfaces
        self.curves = {} if curves is None else curves
        self.events = [] if events is None else events
        self.triple_meetings = [] if triple_meetings is None else triple_meetings
        self.nodes = nodes
        self.next_curve_id = next_curve_id

    def clone(self) -> "Diagram":
        """A copy to rewrite, with no events: each step records its own."""
        return Diagram(
            surfaces=dict(self.surfaces),
            curves=dict(self.curves),
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

    def _remove_curves(self, cids):
        for cid in cids:
            if cid not in self.curves:
                raise CenterNotInDiagram(cid)
            del self.curves[cid]

    def _record(self, **event):
        """Record one event of this step, the dict ``reduce`` prints."""
        if len(self.events) == 2:
            raise RuleConflict("blow-up step emitted more than two events")
        self.events.append(event)

    def _pinch(self, name: str, pinches):
        """Add each (curve id, count) pair of ``pinches`` to that split
        curve's pinch count, recording one event per pair."""
        for cid, count in pinches:
            if cid not in self.curves:
                raise CenterNotInDiagram(cid)
            c = self.curves[cid]
            if c.kind not in (SPLIT_CURVE, SPLIT_FIBER):
                raise RuleConflict(
                    "pinch emitted on %s curve %s" % (c.kind, c.label))
            self.curves[cid] = c._replace(pinch_count=c.pinch_count + count)
            self._record(event="new_pinch", center=name, curve=cid,
                         count=count)


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


# ---------------------------------------------------------------------------
# the rewrites: each returns a new diagram, whose ``events`` are its step's
# (at most two) and no earlier one's; ``name`` is the center blown up and
# ``targets`` the ids of the curves it consumes


def separate(d: Diagram, name: str, targets=(), pinches=()) -> Diagram:
    """A blow-up that only separates: the targets go, and the step may fire
    ``pinches``, (curve id, count) pairs on split curves."""
    out = d.clone()
    out._remove_curves(targets)
    out._pinch(name, pinches)
    return out


def tower(d: Diagram, name: str, label: str, targets=(), traces=(),
          sections=(), fibers=(), meets=()) -> Diagram:
    """A new exceptional tower ``label``: the planes it traces (over a
    point), the planes with a section or fiber curve on it (over a line)
    and the earlier towers it meets along a curve."""
    out = d.clone()
    out.add_surface(Surface(label=label, origin=EXCEPTIONAL))
    out._record(event="new_exceptional_surface", center=name, label=label)
    out._remove_curves(targets)
    for p in traces:
        out.add_curve((p, label), TRACE, exceptional_on=(p,))
    for p in sections:
        out.add_curve((p, label), TOWER_SECTION)
    for p in fibers:
        out.add_curve((p, label), TOWER_FIBER, exceptional_on=(p,))
    for t in meets:
        out.add_curve((t, label), TOWER_MEET, exceptional_on=(t,))
    return out


def split(d: Diagram, name: str, parent: str, over: str, targets=(),
          sections=(), fiber_with: Optional[str] = None,
          pinches=()) -> Diagram:
    """The plane ``parent`` sheds a new piece along the center, over a
    ``triple_line`` or ``fivefold_point``: a split curve, a section on each
    plane of ``sections``, and a fiber curve to ``fiber_with``, an earlier
    piece of ``parent`` whose split curve it meets in a triple point."""
    out = d.clone()
    if parent not in out.surfaces:
        raise CenterNotInDiagram(parent)
    label = out.next_prime_label(parent)
    out.add_surface(Surface(label=label, origin=SPLIT, parent=parent))
    out._record(event="split_component", center=name, parent=parent,
                label=label, over=over)
    out._remove_curves(targets)
    split_cid = out.add_curve((parent, label), SPLIT_CURVE,
                              exceptional_on=(parent,), over=over)
    for s in sections:
        out.add_curve((s, label), SECTION, exceptional_on=(s,))
    if fiber_with is not None:
        if fiber_with not in out.surfaces:
            raise CenterNotInDiagram(fiber_with)
        prev = out.curve_by_surfaces((parent, fiber_with))
        if prev is None or prev.kind != SPLIT_CURVE:
            raise RuleConflict(
                "fiber curve requires the earlier split curve %s"
                % curve_label((parent, fiber_with)))
        fiber_cid = out.add_curve((fiber_with, label), SPLIT_FIBER,
                                  exceptional_on=(fiber_with, label),
                                  over=FIVEFOLD_POINT)
        out.triple_meetings.append((prev.id, split_cid, fiber_cid))
    out._pinch(name, pinches)
    return out


def node_pair(d: Diagram, name: str, target: int) -> Diagram:
    """The center degenerated into two crossing curves: two nodes, resolved
    on a ``NODE_MARKER`` surface."""
    out = d.clone()
    out._remove_curves((target,))
    out.nodes += 2
    out._record(event="new_node_pair", center=name, count=2,
                marker=NODE_MARKER)
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


_STYLE = {PLANE: "solid", EXCEPTIONAL: "dashed", SPLIT: "dashed"}


def _curve_lines(c: DiagramCurve) -> tuple:
    """A curve's node line on each of its surfaces, in ``c.surfaces``
    order, and its dotted links between consecutive ones."""
    label = c.label
    nodes = tuple('    "c%d@%s" [label="%s"%s];'
                  % (c.id, s, label,
                     ', style=dashed' if s in c.exceptional_on else '')
                  for s in c.surfaces)
    links = tuple('  "c%d@%s" -- "c%d@%s" [style=dotted];' % (c.id, a, c.id, b)
                  for a, b in zip(c.surfaces, c.surfaces[1:]))
    return nodes, links


def render_dot(d: Diagram, name: str = "central_fiber",
               fragments: Optional[dict] = None) -> str:
    """Graphviz source for the diagram; output is deterministic.

    One cluster per surface; each curve appears as a node inside every
    surface it lies on (dashed where the curve is exceptional there), with
    dotted cross-links tying the appearances together.  Pinch points show
    as diamond glyphs, node pairs as a doubled circle on the diagram root.

    ``fragments`` is a dict for the caller to keep across the diagrams of
    one trace, which share most of their curves: it holds the node and
    link lines of each curve record (a record ``_pinch`` replaced is a new
    key) and the sort key of each surface label, so each is worked out
    once per trace.  The text is the same with or without it.
    """
    if fragments is None:
        fragments = {}
    curves = [d.curves[cid] for cid in sorted(d.curves)]
    members = {label: [] for label in d.surfaces}
    links = []
    for c in curves:
        frag = fragments.get(c)
        if frag is None:
            frag = fragments[c] = _curve_lines(c)
        for label, line in zip(c.surfaces, frag[0]):
            members[label].append(line)
        links.extend(frag[1])
    for label in members:
        if label not in fragments:
            fragments[label] = _surface_key(label)
    lines = ["graph %s {" % name]
    lines.append('  graph [compound=true, fontname="Helvetica"];')
    lines.append('  node [shape=box, fontname="Helvetica"];')
    for label in sorted(members, key=fragments.__getitem__):
        lines.append('  subgraph "cluster_%s" {' % label)
        lines.append('    label="%s"; style=%s;'
                     % (label, _STYLE[d.surfaces[label].origin]))
        if not members[label]:
            lines.append('    "anchor_%s" [shape=point, style=invis];' % label)
        lines.extend(members[label])
        lines.append("  }")
    lines.extend(links)
    pinch_idx = 0
    for c in curves:
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

"""Blow-up schedules over the w-line and the central-fiber trace.

The generic fiber of a degenerating arrangement is resolved by a fixed
four-phase schedule: fivefold points, triple lines, quadruple points,
double lines (plane-plane lines first, then the double curves created on
exceptional components).  Carrying the schedule across the family and
restricting to a special fiber turns every step into one diagram
rewrite.  This module decides which rewrite fires at each step by
comparing generic and central multiplicities of the center, drives
:func:`octic.diagram.apply_blowup`, and collects the residual report.
The multiplicities stay here: a step reaches the diagram as a
:class:`~octic.diagram.CenterContext` naming only the rewrite and the
curves, surfaces, pinches and node pairs it touches.

No coefficient row is read here.  Incidences come from two incidence
profiles, the generic one the schedule is built from and the central one
at the traced value, read off the generic one's minor table
(``IncidenceProfile.fiber``).  Their lines and points list every plane
through them, as tuples and as bit masks: a plane passes through a point
when its index is listed, a point lies on a line when its mask contains
the line's, and two lines meet when one point's mask contains both.
The line or point through a set of planes is an index read on a profile
(``line_through``, ``point_through``).  After a plain double line is blown
up, the node scan looks for later double lines among the planes of the
central points on it (``points_on``), through a map from plane pairs to
schedule steps, rather than over the whole schedule.
Coordinates are computed only for the centers ``reduce`` prints, a
fiber-curve collision message and whether a pair's line moves with w.  A
point center whose planes meet in a central line rather than a point (the
central fiber then has a fourfold or worse line) stops the trace at that
center.

A scenario may transcribe individual steps explicitly (``directives``)
when two fiber curves of one tower collide in the central fiber; that
situation is outside the derivable rule set and the transcribed rewrite
is applied verbatim.

The trace checks neither that the blow-up centers are smooth nor that
the strata of the branch divisor at w0 are near-pencil; a residual is
reported without either check (ROADMAP item 10).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from . import incidence
from .classify import FIVEFOLD_POINT, TRIPLE_LINE
from .diagram import (
    NODE_PAIR,
    PLAIN_EVEN,
    PLAIN_ODD,
    SPLIT_REWRITE,
    CenterContext,
    CenterNotInDiagram,
    RuleConflict,
    apply_blowup,
    initial_diagram,
    residual_report,
)
from .forms import ParamArrangement

QUADRUPLE_POINT = "quadruple_point"
DOUBLE_LINE = "double_line"


class NotOctic(ValueError):
    """The arrangement violates the multiplicity bounds (q <= 3, p <= 5);
    ``violations`` as ``incidence.octic_violations`` lists them."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("arrangement is not octic: %r" % (self.violations,))


class TraceAborted(RuntimeError):
    """A step matched no rewrite rule; carries the partial trace."""

    def __init__(self, step: str, reason: str, trace):
        self.step = step
        self.reason = reason
        self.trace = tuple(trace)
        super().__init__("trace aborted at %s: %s" % (step, reason))


# ---------------------------------------------------------------------------
# schedule


@dataclass(frozen=True)
class Center:
    """One blow-up center, named the way the trace tables name it."""

    name: str
    kind: str        # fivefold_point | triple_line | quadruple_point | double_line
    phase: int
    planes: tuple    # surface labels involved
    role: str        # p5 | l3 | p4 | pair | trace | section | fiber | meet
    indices: tuple = ()          # 1-based plane indices (geometric roles)
    point: Optional[tuple] = None    # Vec4 of a point center
    tower: Optional[str] = None      # exceptional surface this center lives on
    base_point: Optional[tuple] = None   # fiber curves: crossing point
    towers: tuple = ()               # meet curves: the two towers

    def to_json(self):
        out = {
            "name": self.name,
            "kind": self.kind,
            "phase": self.phase,
            "planes": list(self.planes),
            "role": self.role,
        }
        if self.indices:
            out["indices"] = list(self.indices)
        if self.point is not None:
            out["point"] = incidence.point_text(self.point)
        if self.tower:
            out["tower"] = self.tower
        if self.base_point is not None:
            out["base_point"] = incidence.point_text(self.base_point)
        if self.towers:
            out["towers"] = list(self.towers)
        return out


@dataclass(frozen=True)
class BlowUpSchedule:
    steps: tuple
    generic: incidence.IncidenceProfile  # the profile the steps come from

    def names(self):
        return [c.name for c in self.steps]


def schedule(generic: incidence.IncidenceProfile,
             order: tuple = ()) -> BlowUpSchedule:
    """Four-phase blow-up schedule of the generic fiber.

    Quadruple points on a triple line are consumed by the line blow-up
    and are not separate centers; a plane crossing a blown triple line
    away from a fivefold point leaves a fiber curve on the line's tower,
    and a fivefold point on a blown triple line leaves a curve where the
    two exceptional towers meet.  Centers named in ``order`` come first
    within their phase; the rest keep the lexicographic default.
    """
    bad = incidence.octic_violations(generic)
    if bad:
        raise NotOctic(bad)

    centers: list[Center] = []
    tower_count = 0

    def next_tower() -> str:
        nonlocal tower_count
        label = chr(ord("A") + tower_count)
        tower_count += 1
        return label

    p5_centers = []
    for pt in generic.points:
        if pt.p != 5:
            continue
        label = next_tower()
        c = Center(
            name="P" + "".join(str(i) for i in pt.planes),
            kind=FIVEFOLD_POINT, phase=1,
            planes=tuple("P%d" % i for i in pt.planes),
            role="p5", indices=pt.planes, point=generic.point_vector(pt),
            tower=label)
        p5_centers.append(c)
        centers.append(c)

    l3_centers = []
    for line in generic.lines:
        if line.q != 3:
            continue
        label = next_tower()
        c = Center(
            name="L" + "".join(str(i) for i in line.planes),
            kind=TRIPLE_LINE, phase=2,
            planes=tuple("P%d" % i for i in line.planes),
            role="l3", indices=line.planes, tower=label)
        l3_centers.append(c)
        centers.append(c)

    for pt in generic.points:
        if pt.p == 4 and pt.j == 0:
            centers.append(Center(
                name="P" + "".join(str(i) for i in pt.planes),
                kind=QUADRUPLE_POINT, phase=3,
                planes=tuple("P%d" % i for i in pt.planes),
                role="p4", indices=pt.planes,
                point=generic.point_vector(pt)))

    # phase 4: plane-plane double lines, then the tower curves
    for line in generic.lines:
        if line.q != 2:
            continue
        i, j = line.planes
        centers.append(Center(
            name="L%d%d" % (i, j), kind=DOUBLE_LINE, phase=4,
            planes=("P%d" % i, "P%d" % j), role="pair", indices=line.planes))
    for c in p5_centers:
        for i in c.indices:
            centers.append(Center(
                name="L%d%s" % (i, c.tower), kind=DOUBLE_LINE, phase=4,
                planes=("P%d" % i, c.tower), role="trace",
                indices=(i,), tower=c.tower))
    for c in l3_centers:
        for i in c.indices:
            centers.append(Center(
                name="L%d%s" % (i, c.tower), kind=DOUBLE_LINE, phase=4,
                planes=("P%d" % i, c.tower), role="section",
                indices=(i,), tower=c.tower))
    for c in l3_centers:
        for j in range(1, generic.n_forms + 1):
            if j in c.indices:
                continue
            # a plane off the line meets it in one point of the profile
            crossing = generic.point_through(set(c.indices) | {j})
            if crossing.p == 5:
                continue  # separated with the fivefold point
            centers.append(Center(
                name="L%d%s" % (j, c.tower), kind=DOUBLE_LINE, phase=4,
                planes=("P%d" % j, c.tower), role="fiber",
                indices=(j,), tower=c.tower,
                base_point=generic.point_vector(crossing)))
    for cp in p5_centers:
        for cl in l3_centers:
            if set(cl.indices) <= set(cp.indices):
                centers.append(Center(
                    name="L%s%s" % (cp.tower, cl.tower), kind=DOUBLE_LINE,
                    phase=4, planes=(cp.tower, cl.tower), role="meet",
                    point=cp.point, towers=(cp.tower, cl.tower)))

    known = {c.name for c in centers}
    for name in order:
        if name not in known:
            raise ValueError("explicit order names unknown center %s" % name)
    pos = {name: k for k, name in enumerate(order)}
    centers = sorted(
        enumerate(centers),
        key=lambda kv: (kv[1].phase, pos.get(kv[1].name, len(order)), kv[0]))
    return BlowUpSchedule(steps=tuple(c for _, c in centers), generic=generic)


# ---------------------------------------------------------------------------
# central-fiber trace


class _Driver:
    """Applies one schedule to one special fiber, deriving each rewrite."""

    def __init__(self, w0, sched: BlowUpSchedule, directives=None):
        self.w0 = Fraction(w0)
        self.sched = sched
        self.directives = dict(directives or {})
        self.generic = sched.generic
        self.central = self.generic.fiber(self.w0)
        self.d = initial_diagram(self.central)
        self.trace = [self.d]
        self.blown: set = set()
        self.blown_points: list = []   # chronological point-center records
        self.blown_lines: dict = {}    # central line mask -> record
        self.flagged: set = set()      # pair names marked for a node rewrite
        self.flag_points: set = set()  # masks of crossing points the scan used
        self.pending: dict = {}        # center name -> [curve ids to pinch]
        # the plane pair of each plane-plane double line -> (position, step)
        self.pair_steps = {c.indices: (k, c) for k, c in enumerate(sched.steps)
                           if c.role == "pair"}

    # -- central geometry ----------------------------------------------------

    def _central_point(self, c: Center) -> incidence.MultiplePoint:
        """Where the planes of a point center meet in the central fiber."""
        if self.central.line_through(c.indices) is not None:
            raise RuleConflict("the planes of %s meet in a central line, "
                               "not a point" % c.name)
        return self.central.point_through(c.indices)

    def _resolve_curve(self, surfaces) -> int:
        c = self.d.curve_by_surfaces(surfaces)
        if c is None:
            raise CenterNotInDiagram(tuple(surfaces))
        return c.id

    def _fire(self, name: str) -> tuple:
        counts = Counter(self.pending.pop(name, ()))
        return tuple(sorted(counts.items()))

    def _virgin(self, pt: incidence.MultiplePoint) -> bool:
        return all(bp["point"].mask != pt.mask for bp in self.blown_points)

    # -- rule applications ---------------------------------------------------

    def run(self):
        for c in self.sched.steps:
            self._step(c)
        if self.pending:
            raise TraceAborted(
                "end", "pinch attributions never fired: %r"
                % sorted(self.pending), self.trace)
        return tuple(self.trace), residual_report(self.d)

    def _step(self, c: Center):
        try:
            if c.name in self.directives:
                ctx, post = self._directive_ctx(c, self.directives[c.name])
            else:
                ctx, post = self._auto_ctx(c)
            new_d = apply_blowup(self.d, ctx)
        except (RuleConflict, CenterNotInDiagram) as e:
            raise TraceAborted(c.name, str(e), self.trace) from e
        self.d = new_d
        self.trace.append(new_d)
        self.blown.add(c.name)
        if post is not None:
            post(new_d)

    def _auto_ctx(self, c: Center):
        if c.role == "p5":
            return self._point_tower_ctx(c)
        if c.role == "l3":
            return self._line_tower_ctx(c)
        if c.role == "p4":
            return self._quadruple_ctx(c)
        if c.role == "pair":
            return self._pair_ctx(c)
        return self._tower_curve_ctx(c)

    def _point_tower_ctx(self, c: Center):
        pt = self._central_point(c)
        if pt.p != 5:
            raise RuleConflict(
                "fivefold point %s has central multiplicity %d"
                % (c.name, pt.p))
        ctx = CenterContext(
            name=c.name, rewrite=PLAIN_ODD, tower_label=c.tower,
            tower_traces=c.planes)

        def post(_):
            self.blown_points.append({
                "name": c.name, "point": pt, "jump": False,
                "tower": c.tower, "parent": None, "split_label": None})
        return ctx, post

    def _line_tower_ctx(self, c: Center):
        line = self.central.line_through(c.indices)
        if line.q != 3:
            raise RuleConflict(
                "triple line %s has central multiplicity %d"
                % (c.name, line.q))
        fibers = tuple(
            "P%d" % s.indices[0] for s in self.sched.steps
            if s.role == "fiber" and s.tower == c.tower)
        meets = tuple(
            t for s in self.sched.steps if s.role == "meet"
            and c.tower in s.towers
            for t in s.towers if t != c.tower)
        target = self._resolve_curve(c.planes)
        ctx = CenterContext(
            name=c.name, rewrite=PLAIN_ODD,
            tower_label=c.tower, target_curves=(target,),
            tower_sections=c.planes, tower_fibers=fibers, tower_meets=meets)

        def post(_):
            self.blown_lines[line.mask] = {"jump": False, "name": c.name}
        return ctx, post

    def _quadruple_ctx(self, c: Center):
        pt = self._central_point(c)
        if pt.p == 4:
            ctx = CenterContext(
                name=c.name, rewrite=PLAIN_EVEN, pinches=self._fire(c.name))

            def post(_):
                self.blown_points.append({
                    "name": c.name, "point": pt, "jump": False,
                    "tower": None, "parent": None, "split_label": None})
            return ctx, post
        if pt.p != 5:
            raise RuleConflict(
                "quadruple point %s has central multiplicity %d"
                % (c.name, pt.p))
        extra = set(pt.planes) - set(c.indices)
        if len(extra) != 1:
            raise RuleConflict(
                "no single extra plane at %s: %r" % (c.name, sorted(extra)))
        e = extra.pop()
        parent = "P%d" % e
        label = self.d.next_prime_label(parent)
        ctx = CenterContext(
            name=c.name, rewrite=SPLIT_REWRITE, split_surface=parent,
            split_over=FIVEFOLD_POINT, section_surfaces=c.planes,
            pinches=self._fire(c.name))

        def post(new_d):
            split_cid = new_d.curve_by_surfaces((parent, label)).id
            self._register_crossing_pairs(
                e, split_cid, tuple(self.blown_lines), point=pt)
            self.blown_points.append({
                "name": c.name, "point": pt, "jump": True,
                "tower": None, "parent": parent, "split_label": label})
        return ctx, post

    def _pair_ctx(self, c: Center):
        if c.name in self.flagged:
            target = self._resolve_curve(c.planes)
            if self.pending.get(c.name):
                raise RuleConflict("pinch attribution on a node pair %s" % c.name)
            ctx = CenterContext(
                name=c.name, rewrite=NODE_PAIR, target_curves=(target,))
            return ctx, None
        line = self.central.line_through(c.indices)
        if line.mask in self.blown_lines:
            return self._successor_ctx(c, line)
        if line.q == 2:
            return self._plain_pair_ctx(c, line)
        if line.q == 3:
            return self._jump_ctx(c, line)
        raise RuleConflict(
            "double line %s has central multiplicity %d" % (c.name, line.q))

    def _plain_pair_ctx(self, c: Center, line: incidence.MultipleLine):
        target = self._resolve_curve(c.planes)
        ctx = CenterContext(
            name=c.name, rewrite=PLAIN_EVEN,
            target_curves=(target,), pinches=self._fire(c.name))

        def post(_):
            prior = tuple(self.blown_lines)
            self.blown_lines[line.mask] = {"jump": False, "name": c.name}
            self._node_scan(c, line, prior)
        return ctx, post

    def _node_scan(self, c: Center, line: incidence.MultipleLine, prior):
        # a blown double line may reveal that a later center degenerated
        # into two curves crossing at a fresh central point; such a center
        # is a pair {k, l} of planes through a central point on the line
        found = {}
        for pt in self.central.points_on(line):
            rest = [k for k in pt.planes if k not in c.indices]
            for pair in combinations(rest, 2):
                if pair in self.pair_steps:
                    k, c2 = self.pair_steps[pair]
                    found[k] = c2
        # in schedule order: the first pair through a crossing point takes it
        for k in sorted(found):
            c2 = found[k]
            if c2.name in self.blown:
                continue
            four = c.indices + c2.indices
            if self.generic.point_through(four) is not None:
                continue  # the generic lines already meet
            if self.central.line_through(c2.indices).q != 2:
                continue
            pt = self.central.point_through(four)
            if pt is None or pt.mask in self.flag_points \
                    or not self._virgin(pt):
                continue
            if any(m & pt.mask == m for m in prior):
                continue  # separated by the blow-up of that line
            self.flagged.add(c2.name)
            self.flag_points.add(pt.mask)

    def _successor_ctx(self, c: Center, line: incidence.MultipleLine):
        entry = self.blown_lines[line.mask]
        if not entry.get("jump"):
            raise RuleConflict(
                "double line %s lies on the blown line %s"
                % (c.name, entry["name"]))
        e = entry["extra"]
        if e not in c.indices:
            raise RuleConflict(
                "successor %s misses the split plane P%d" % (c.name, e))
        x = c.indices[0] if c.indices[1] == e else c.indices[1]
        targets = []
        for piece in self.d.split_family("P%d" % e):
            cv = self.d.curve_by_surfaces(("P%d" % x, piece.label))
            if cv is not None:
                targets.append(cv.id)
        ctx = CenterContext(
            name=c.name, rewrite=PLAIN_EVEN,
            target_curves=tuple(targets), pinches=self._fire(c.name))
        return ctx, None

    def _jump_ctx(self, c: Center, line: incidence.MultipleLine):
        e = (set(line.planes) - set(c.indices)).pop()
        parent = "P%d" % e
        label = self.d.next_prime_label(parent)
        target = self._resolve_curve(tuple("P%d" % k for k in line.planes))
        points_on = [bp for bp in self.blown_points
                     if line.mask & bp["point"].mask == line.mask]
        fiber_with = None
        for bp in points_on:
            if bp["jump"] and bp["parent"] == parent:
                fiber_with = bp["split_label"]
                break
        ctx = CenterContext(
            name=c.name, rewrite=SPLIT_REWRITE,
            split_surface=parent, split_over=TRIPLE_LINE,
            target_curves=(target,),
            section_surfaces=c.planes, fiber_with=fiber_with,
            pinches=self._fire(c.name))

        def post(new_d):
            prior = tuple(self.blown_lines)
            self.blown_lines[line.mask] = {
                "jump": True, "extra": e, "parent": parent, "name": c.name}
            split_cid = new_d.curve_by_surfaces((parent, label)).id
            successors = [
                c2 for c2 in self.sched.steps
                if c2.role == "pair" and c2.name not in self.blown
                and set(c2.indices) <= set(line.planes)]
            if fiber_with is not None:
                fiber_cid = new_d.curve_by_surfaces((fiber_with, label)).id
                for c2 in successors:
                    self.pending.setdefault(c2.name, []).append(fiber_cid)
            else:
                # a pinch needs a blown point on the line to sit over; it
                # goes to a successor whose generic line does not move
                constant = [
                    c2 for c2 in successors
                    if all(len(p) <= 1 for v in self.generic.line_basis(
                        self.generic.line_through(c2.indices)) for p in v)
                ] if points_on else []
                if constant:
                    self.pending.setdefault(
                        constant[0].name, []).append(split_cid)
                else:
                    for bp in points_on:
                        if bp["tower"] is None:
                            continue
                        trace_name = "L%d%s" % (e, bp["tower"])
                        if any(s.name == trace_name for s in self.sched.steps) \
                                and trace_name not in self.blown:
                            self.pending.setdefault(
                                trace_name, []).append(split_cid)
                            break
            self._register_crossing_pairs(e, split_cid, prior, line=line)
        return ctx, post

    def _register_crossing_pairs(self, e: int, split_cid: int, prior,
                                 point=None, line=None):
        """Pinch attribution for plain double lines through the jump locus.

        A later plain double line containing the split plane and crossing
        the blown center at a point no earlier center touched carries one
        pinch of the new split curve.
        """
        for c2 in self.sched.steps:
            if c2.role != "pair" or c2.name in self.blown:
                continue
            if e not in c2.indices:
                continue
            line2 = self.central.line_through(c2.indices)
            if line2.q != 2:
                continue
            if point is not None:
                if line2.mask & point.mask != line2.mask:
                    continue
                pt = point
            else:
                pt = self.central.point_through(line.planes + line2.planes)
                if pt is None:
                    continue
            if not self._virgin(pt) or any(m & pt.mask == m for m in prior):
                continue
            self.pending.setdefault(c2.name, []).append(split_cid)

    def _tower_curve_ctx(self, c: Center):
        if c.role == "fiber":
            # the curve's base point is where plane j crosses the tower's
            # triple line L, which is still a triple line at w0
            line = next(s.indices for s in self.sched.steps
                        if s.role == "l3" and s.tower == c.tower)
            base = self.central.point_through(line + c.indices)
            for c2 in self.sched.steps:
                if c2.role == "fiber" and c2.tower == c.tower \
                        and c2.name != c.name \
                        and c2.indices[0] in base.planes:
                    raise RuleConflict(
                        "fiber curves %s and %s share the central point %s; "
                        "the scenario must transcribe these steps"
                        % (c.name, c2.name, incidence.point_text(
                            self.central.point_vector(base))))
        target = self._resolve_curve(c.planes)
        ctx = CenterContext(
            name=c.name, rewrite=PLAIN_EVEN,
            target_curves=(target,), pinches=self._fire(c.name))
        return ctx, None

    # -- transcribed steps ---------------------------------------------------

    def _directive_ctx(self, c: Center, spec: dict):
        targets = tuple(self._resolve_curve(tuple(labels))
                        for labels in spec.get("targets", ()))
        counts = Counter(self.pending.pop(c.name, ()))
        for labels in spec.get("pinches", ()):
            counts[self._resolve_curve(tuple(labels))] += 1
        pinches = tuple(sorted(counts.items()))
        rewrite = spec.get("rewrite", "plain")
        if rewrite == "plain":
            ctx = CenterContext(
                name=c.name, rewrite=PLAIN_EVEN,
                target_curves=targets, pinches=pinches)
            return ctx, None
        if rewrite == "split":
            over = spec.get("over")
            if over not in (TRIPLE_LINE, FIVEFOLD_POINT):
                raise RuleConflict(
                    "transcribed split at %s needs a singular-locus tag"
                    % c.name)
            ctx = CenterContext(
                name=c.name, rewrite=SPLIT_REWRITE,
                split_surface=spec.get("parent"), split_over=over,
                target_curves=targets,
                section_surfaces=tuple(spec.get("sections", ())),
                fiber_with=spec.get("fiber_with"), pinches=pinches)
            return ctx, None
        raise RuleConflict(
            "transcribed step %s has unknown rewrite %r" % (c.name, rewrite))


def trace_central_fiber(a: ParamArrangement, w0, s: BlowUpSchedule,
                        directives=None):
    """Carry the schedule across the family, restricted to the fiber at w0.

    ``s`` is scheduled from ``incidence.profile(a)``, whose minor table the
    central fiber is read off (``IncidenceProfile.fiber``, which raises
    FormVanishes for a form of ``a`` that vanishes at w0).  Returns
    ``(trace, residual)``: every intermediate diagram (the fiber's initial
    diagram first) and the residual-singularity report of the last one.

    A step that matches no rewrite rule raises :class:`TraceAborted`
    carrying the partial trace; parse and incidence errors propagate.
    """
    # ``a`` stays unused: bench/tracer.py reads ``s`` as the third argument
    return _Driver(w0, s, directives).run()

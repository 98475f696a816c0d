"""Blow-up traces of the eleven degenerations against the outcome table."""

import json
import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

import octic
import oracles
from octic import incidence, resolve
from octic.classify import classify_local, residual_key, residual_outcome
from octic.forms import parse_equation
from octic.resolve import (NotOctic, TraceAborted, schedule,
                           trace_central_fiber)

FAMILIES = {
    path.stem: json.loads(path.read_text(encoding="utf-8"))
    for path in sorted((Path(octic.__file__).parent / "data" / "families")
                       .glob("*.json"))
}


def _order(tag):
    return tuple(FAMILIES[tag].get("blowup_order", ()))


def _run(tag):
    a = parse_equation(FAMILIES[tag]["equation"])
    s = schedule(incidence.profile(a), _order(tag))
    trace, res = trace_central_fiber(a, Fraction(0), s,
                                     FAMILIES[tag].get("directives"))
    return a, s, trace, res


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_trace_reproduces_the_residual_outcome(tag):
    _, _, trace, res = _run(tag)
    want = residual_outcome(tag)
    assert [(c.pinch_points, c.over) for c in res.double_curves] == \
        [(c.pinch_points, c.over) for c in want.double_curves]
    assert res.nodes == want.nodes
    assert res.node_surface_marker == want.node_surface_marker
    assert res.triple_meeting_points == want.triple_meeting_points
    assert res.adjacency == want.adjacency
    assert residual_key(res) == residual_key(want)


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_nondegenerate_fiber_has_empty_residual(tag):
    a = parse_equation(FAMILIES[tag]["equation"])
    s = schedule(incidence.profile(a), _order(tag))
    _, res = trace_central_fiber(a, Fraction(2), s)
    assert res.double_curves == ()
    assert res.nodes == 0


def test_explicit_order_is_realized():
    for tag, data in FAMILIES.items():
        order = data.get("blowup_order")
        if not order:
            continue
        a = parse_equation(data["equation"])
        names = schedule(incidence.profile(a), _order(tag)).names()
        named = [n for n in names if n in set(order)]
        assert named == order, tag
    with pytest.raises(ValueError):
        schedule(incidence.profile(parse_equation("xy(x+y+w)")), ("L99",))


def test_lexicographic_schedule_is_deterministic():
    a = parse_equation("xyz(x+y+z+w)")
    prof = incidence.profile(a)
    s1 = schedule(prof)
    s2 = schedule(prof, order=())
    assert s1.names() == s2.names()


def test_triple_line_order_invariance():
    a = parse_equation("xy(x+y+w)")
    prof = incidence.profile(a)
    keys = set()
    for perm in permutations(["L12", "L13", "L23"]):
        s = schedule(prof, perm)
        _, r = trace_central_fiber(a, Fraction(0), s)
        keys.add(residual_key(r))
    assert len(keys) == 1


def test_node_scan_order_invariance_720():
    a = parse_equation("xyz(x+y+z+w)")
    prof = incidence.profile(a)
    keys, nodes = set(), set()
    for perm in permutations(["L12", "L13", "L14", "L23", "L24", "L34"]):
        s = schedule(prof, perm)
        _, r = trace_central_fiber(a, Fraction(0), s)
        keys.add(residual_key(r))
        nodes.add(r.nodes)
    assert len(keys) == 1
    assert nodes == {2}


class _CheckedDriver(resolve._Driver):
    """A trace driver that also runs the brute-force node scan on its own
    flags and compares the two after every step."""

    def __init__(self, *args):
        super().__init__(*args)
        self.ref_flagged, self.ref_flag_points = set(), set()
        self.scans = 0

    def _node_scan(self, c, line, prior):
        oracles.node_scan(self, c, prior, self.ref_flagged,
                          self.ref_flag_points)
        super()._node_scan(c, line, prior)
        self.scans += 1

    def _step(self, c):
        super()._step(c)
        assert self.flagged == self.ref_flagged, c.name
        assert self.flag_points == self.ref_flag_points, c.name


def _check_node_scans(equation, order, directives):
    """Trace ``equation`` at w = 0 in the default order and in ten seeded
    random orders of its plane-plane double lines (``order``'s other names
    first); returns how many node scans ran and how many pairs they
    flagged."""
    a = parse_equation(equation)
    generic = incidence.profile(a)
    pairs = [c.name for c in schedule(generic).steps if c.role == "pair"]
    others = tuple(n for n in order if n not in pairs)
    orders = [order]
    for seed in range(10):
        shuffled = list(pairs)
        random.Random(seed).shuffle(shuffled)
        orders.append(others + tuple(shuffled))
    scans = flags = 0
    for o in orders:
        driver = _CheckedDriver(Fraction(0), schedule(generic, o), directives)
        try:
            driver.run()
        except TraceAborted:
            pass
        scans += driver.scans
        flags += len(driver.flagged)
    return scans, flags


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_node_scan_matches_brute_force_on_the_families(tag):
    _check_node_scans(FAMILIES[tag]["equation"], _order(tag),
                      FAMILIES[tag].get("directives"))


@pytest.mark.parametrize("text", oracles.SEED1)
def test_node_scan_matches_brute_force_on_seeded_families(text):
    scans, _ = _check_node_scans(text, (), None)
    assert scans > 0


def test_one_change_values_meet_the_taxonomy_on_seeded_families():
    """At every degenerate value of ``oracles.SEED1`` with one change, the
    default-order trace ends at the taxonomy's residual for its type."""
    values = 0
    for text in oracles.SEED1:
        a = parse_equation(text)
        scan = incidence.degenerate_values(a)
        sched = schedule(scan.generic)
        for value in scan.values:
            if len(value.changes) != 1:
                continue
            values += 1
            tag = classify_local(value.changes[0], scan.generic)
            _, res = trace_central_fiber(a, value.w0, sched)
            assert res.to_json() == residual_outcome(tag).to_json(), (
                text, value.w0, tag)
    assert values == 149


def test_node_scans_flag_pairs():
    """The node scans above flag pairs, on a bundled family and on a seeded
    one, so their comparison is not between empty sets."""
    assert _check_node_scans(FAMILIES["NewP40"]["equation"], _order("NewP40"),
                             None)[1] > 0
    assert _check_node_scans(oracles.SEED1[0], (), None)[1] > 0


def test_fiber_collision_steps_need_directives():
    data = FAMILIES["TwoP41toP52"]
    a = parse_equation(data["equation"])
    s = schedule(incidence.profile(a), _order("TwoP41toP52"))
    with pytest.raises(TraceAborted) as exc:
        trace_central_fiber(a, Fraction(0), s)
    assert exc.value.trace
    assert exc.value.step in set(data["blowup_order"])


def test_point_center_collapsing_into_a_pencil_aborts_there():
    # at w = 0 the four planes of P1234 share the line x = y = 0: the
    # central fiber has a fourfold line and the trace stops at P1234
    a = parse_equation("xy(x+y+wz)(x+2y+w^2z)")
    s = schedule(incidence.profile(a))
    assert s.names()[0] == "P1234"
    with pytest.raises(TraceAborted) as exc:
        trace_central_fiber(a, Fraction(0), s)
    assert exc.value.step == "P1234"
    assert len(exc.value.trace) == 1


def test_step_counts():
    want = {"NewL3": 3, "NewP40": 6, "P51toP52": 18, "TwoP41toP52": 13,
            "TwoP41toP51": 13, "P40toP52": 11, "NewP41": 6, "P40toP41": 7,
            "P40toP51": 11, "P50toP52": 16, "P50toP51": 16}
    for tag in want:
        _, s, trace, _ = _run(tag)
        assert len(s.names()) == want[tag], tag
        assert len(trace) == want[tag] + 1, tag


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_each_step_records_its_own_events(tag):
    """A diagram of the trace holds the events of the step that made it and
    no earlier one's: at most two, each naming that step's center."""
    _, s, trace, _ = _run(tag)
    assert trace[0].events == []
    for c, d in zip(s.steps, trace[1:]):
        assert len(d.events) <= 2, c.name
        assert [e["center"] for e in d.events] == [c.name] * len(d.events)
    assert any(d.events for d in trace)


def test_center_kind_phase_and_planes_follow_from_its_role():
    """What ``reduce`` prints of a center: the surface labels its name
    spells, and the kind and phase of its role."""
    want = {"p5": ("fivefold_point", 1), "l3": ("triple_line", 2),
            "p4": ("quadruple_point", 3)}
    roles = set()
    for tag in ("P51toP52", "TwoP41toP51", "P40toP41"):
        for c in _run(tag)[1].steps:
            roles.add(c.role)
            labels = ["P" + ch if ch.isdigit() else ch for ch in c.name[1:]]
            out = c.to_json()
            assert out["planes"] == labels, c.name
            assert (out["kind"], out["phase"]) == \
                want.get(c.role, ("double_line", 4)), c.name
    assert roles == {"p5", "l3", "p4", "pair", "trace", "section", "fiber",
                     "meet"}

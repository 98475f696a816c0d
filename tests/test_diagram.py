"""Diagram rewrites: construction, cloning, events, DOT rendering."""

from fractions import Fraction

import pytest

import oracles
from octic import cli, diagram, incidence, resolve
from octic.classify import TRIPLE_LINE
from octic.diagram import (RuleConflict, initial_diagram, render_dot,
                           residual_report, separate, split)
from octic.forms import parse_equation
from octic.resolve import schedule, trace_central_fiber


def _fiber(text, w0=Fraction(0)):
    """Incidence profile of the family's fiber at w0."""
    return incidence.profile(parse_equation(text), at=w0)


def test_initial_diagram_of_triple_line_fiber():
    d = initial_diagram(_fiber("xy(x+y+w)"))
    assert sorted(d.surfaces) == ["P1", "P2", "P3"]
    assert len(d.curves) == 1
    (curve,) = d.curves.values()
    assert sorted(curve.surfaces) == ["P1", "P2", "P3"]
    assert d.nodes == 0


def test_initial_diagram_of_fourfold_point_fiber():
    d = initial_diagram(_fiber("xyz(x+y+z+w)"))
    assert len(d.surfaces) == 4
    # six double lines through the fourfold point
    assert len(d.curves) == 6


def test_clone_is_isolated():
    d = initial_diagram(_fiber("xy(x+y+w)"))
    c = d.clone()
    c.nodes += 1
    c.events.append("marker")
    first = next(iter(c.curves))
    del c.curves[first]
    assert d.nodes == 0
    assert d.events == []
    assert len(d.curves) == 1


def test_trace_produces_clones_not_aliases():
    a = parse_equation("xy(x+y+w)")
    s = schedule(incidence.profile(a))
    trace, _ = trace_central_fiber(a, Fraction(0), s)
    ids = [id(d) for d in trace]
    assert len(set(ids)) == len(ids)


def test_residual_report_collects_pinches():
    a = parse_equation("xy(x+y)z(x+wy+z)")
    order = ["P12345", "L123", "L14", "L15", "L24", "L25", "L34", "L35",
             "L45", "L1A", "L2A", "L3A", "L4A", "L5A", "L1B", "L2B",
             "L3B", "LAB"]
    s = schedule(incidence.profile(a), tuple(order))
    trace, res = trace_central_fiber(a, Fraction(0), s)
    assert residual_report(trace[-1]).pinch_multiset() == res.pinch_multiset()
    assert res.pinch_multiset() == (1,)


def test_render_dot_is_deterministic_and_wellformed():
    d = initial_diagram(_fiber("xyz(x+y+z+w)"))
    s1 = render_dot(d)
    s2 = render_dot(d)
    assert s1 == s2
    assert s1.startswith("graph ")
    assert s1.rstrip().endswith("}")
    for lab in ("P1", "P2", "P3", "P4"):
        assert lab in s1


def test_render_dot_name_parameter():
    d = initial_diagram(_fiber("xy(x+y+w)"))
    s = render_dot(d, name="step_3")
    assert "step_3" in s.splitlines()[0]


def test_duplicate_surface_rejected():
    d = initial_diagram(_fiber("xy(x+y+w)"))
    with pytest.raises(Exception):
        d.add_surface(diagram.Surface(label="P1", origin=diagram.PLANE))


def test_node_bookkeeping_survives_trace():
    a = parse_equation("xyz(x+y+z+w)")
    s = schedule(incidence.profile(a))
    trace, res = trace_central_fiber(a, Fraction(0), s)
    assert trace[-1].nodes == 2
    assert res.nodes == 2
    assert res.node_surface_marker == "small_resolution"


def test_a_step_records_at_most_two_events():
    """P40toP51 ends with the split curves 55' and 55'' and the fiber curve
    5'5''.  A split records its component and each pinch; a separation
    records its pinches alone, so it reaches three events only with three."""
    data, _ = cli.find_scenario("P40toP51")
    _, trace, _ = cli._trace_scenario(data)
    d = trace[-1]
    c55, c55_, fiber = (c.id for c in d.curves.values()
                        if c.kind in (diagram.SPLIT_CURVE, diagram.SPLIT_FIBER))
    two = ((c55, 1), (c55_, 1))
    before = (dict(d.curves), list(d.events))
    assert [e["event"] for e in separate(d, "X", pinches=two).events] == [
        "new_pinch", "new_pinch"]
    message = "^blow-up step emitted more than two events$"
    with pytest.raises(RuleConflict, match=message):
        split(d, "X", "P1", TRIPLE_LINE, pinches=two)
    with pytest.raises(RuleConflict, match=message):
        separate(d, "X", pinches=two + ((fiber, 1),))
    assert (d.curves, d.events) == before


def _bundled_traces():
    """(name, trace) of every bundled scenario that traces."""
    names = [p.stem for p in (cli.data_root() / "families").glob("*.json")]
    for name in sorted(names) + ["two-nodes", "four-pinches", "seven-lines"]:
        data, _ = cli.find_scenario(name)
        if data.get("equation"):
            yield name, cli._trace_scenario(data)[1]


def _seed1_traces():
    """(name, trace) of each ``oracles.SEED1`` family at w0 = 0; a trace
    that aborts gives the diagrams it made."""
    for k, equation in enumerate(oracles.SEED1):
        a = parse_equation(equation)
        try:
            trace, _ = trace_central_fiber(a, Fraction(0),
                                           schedule(incidence.profile(a)))
        except resolve.TraceAborted as err:
            trace = err.trace
        yield "seed1-%02d" % (k + 1), trace


def test_shared_fragments_change_no_byte():
    """A fragments dict kept across a trace gives each diagram the text it
    has alone: on four-pinches, whose split curves are replaced as their
    pinch counts grow, and on every other trace at hand."""
    traces = dict(_bundled_traces())
    assert len(traces) == 13 and "four-pinches" in traces
    pinched = [c for d in traces["four-pinches"] for c in d.curves.values()
               if c.pinch_count]
    assert len({c.id for c in pinched}) < len(set(pinched))
    traces.update(_seed1_traces())
    assert len(traces) == 25
    for name, trace in traces.items():
        shared = {}
        for i, d in enumerate(trace):
            step = "step_%d" % i
            assert render_dot(d, step, shared) == render_dot(d, step), \
                (name, i)

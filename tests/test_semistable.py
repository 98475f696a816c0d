"""Semistable components, stratum geometries, and Betti bookkeeping."""

import pytest
from hypothesis import given, strategies as st

from octic import semistable as ss
from octic.classify import (FIVEFOLD_POINT, TRIPLE_LINE, DoubleCurve,
                            ResidualSingularities)

two_nodes = ResidualSingularities(nodes=2, node_surface_marker="small_resolution")
four_pinches = ResidualSingularities(
    double_curves=(DoubleCurve(4, FIVEFOLD_POINT),))
seven_lines = ResidualSingularities(
    double_curves=tuple(DoubleCurve(p, TRIPLE_LINE)
                        for p in (0, 0, 2, 2, 2, 2, 2)),
    triple_meeting_points=((0, 1, 2), (0, 3, 4), (1, 5, 6)),
)
Y70 = (1, 0, 70, 2, 70, 0, 1)
Y54 = (1, 0, 54, 2, 54, 0, 1)


# ---------------------------------------------------------------------------
# the Betti regression table


BETTI_TABLE = [
    (ss.QuadricBundle((4, 4), 0), (1, 0, 9, 0, 9, 0, 1)),
    (ss.QuadricBundle((4,), 0), (1, 0, 6, 0, 6, 0, 1)),
    (ss.QuadricBundle((), 2), (1, 0, 2, 0, 2, 0, 1)),
    (ss.DoubleCoverP2xP1(4), (1, 0, 2, 2, 2, 0, 1)),
    (ss.NodeResolution(2), (1, 0, 3, 0, 3, 0, 1)),
    (ss.ConicBundle((3, 3)), (1, 0, 6, 0, 1)),
    (ss.ConicBundle((2, 2, 2, 2)), (1, 0, 6, 0, 1)),
    (ss.ConicBundle((3,)), (1, 0, 4, 0, 1)),
    (ss.BlownP1xP1(2), (1, 0, 4, 0, 1)),
    (ss.SmoothQuadric(), (1, 0, 2, 0, 1)),
    (ss.SmoothConic(), (1, 0, 1)),
]


@pytest.mark.parametrize("geometry,want", BETTI_TABLE,
                         ids=[repr(g) for g, _ in BETTI_TABLE])
def test_betti_regression(geometry, want):
    assert ss.betti(geometry) == want


@pytest.mark.parametrize("geometry,want", BETTI_TABLE,
                         ids=[repr(g) for g, _ in BETTI_TABLE])
def test_betti_palindromic(geometry, want):
    b = ss.betti(geometry)
    assert b == tuple(reversed(b))


@given(st.lists(st.integers(min_value=2, max_value=6), max_size=5),
       st.integers(min_value=0, max_value=3))
def test_quadric_bundle_betti_law(split, cones):
    g = ss.QuadricBundle(tuple(split), cones)
    b = ss.betti(g)
    r = 2 if cones == 0 else 1
    assert b[2] == 1 + r + sum(c - 1 for c in split)
    assert b == tuple(reversed(b))
    assert ss.euler(g) == sum((-1) ** i * x for i, x in enumerate(b))


@given(st.lists(st.integers(min_value=2, max_value=6), max_size=6))
def test_conic_bundle_betti_law(split):
    b = ss.betti(ss.ConicBundle(tuple(split)))
    assert b == (1, 0, 2 + sum(c - 1 for c in split), 0, 1)


@given(st.integers(min_value=2, max_value=40))
def test_double_cover_betti_law(pinches):
    b = ss.betti(ss.DoubleCoverP2xP1(pinches))
    assert b == (1, 0, 2, pinches - 2, 2, 0, 1)


# ---------------------------------------------------------------------------
# component construction for the worked examples


def test_two_nodes_complex():
    c = ss.build_components(two_nodes, Y70)
    assert c.counts() == (2, 1, 0)
    assert c.components[0].geometry == ss.ResolvedCY(Y70)
    assert c.components[1].geometry == ss.NodeResolution(2)
    assert c.double_strata[0] == ss.DoubleStratum(("Y", "Q1"), ss.BlownP1xP1(2))
    assert ss.betti(c.double_strata[0].geometry) == (1, 0, 4, 0, 1)


def test_four_pinches_complex():
    c = ss.build_components(four_pinches, Y54)
    assert c.counts() == (2, 1, 0)
    assert c.components[1].geometry == ss.DoubleCoverP2xP1(4)
    assert c.double_strata[0].geometry == ss.ConicBundle((2, 2, 2, 2))
    # chi of a double cover: twice the base minus the branch surface
    assert ss.euler(c.components[1].geometry) == \
        2 * 6 - ss.euler(c.double_strata[0].geometry)


def test_seven_lines_complex():
    c = ss.build_components(seven_lines, Y54)
    assert c.counts() == (8, 13, 6)
    want_quadrics = [ss.QuadricBundle((4, 4), 0), ss.QuadricBundle((4,), 0)] \
        + [ss.QuadricBundle((), 2)] * 5
    assert [x.geometry for x in c.components[1:]] == want_quadrics
    assert c.double_strata[0].geometry == ss.ConicBundle((3, 3))
    assert c.double_strata[1].geometry == ss.ConicBundle((3,))
    assert c.double_strata[2].geometry == ss.ConicBundle((2, 2))
    assert [d.pair for d in c.double_strata[7:]] == [
        ("Q1", "Q2"), ("Q1", "Q3"), ("Q1", "Q4"), ("Q1", "Q5"),
        ("Q2", "Q6"), ("Q2", "Q7")]
    assert [t.triple for t in c.triple_strata] == [
        ("Y", "Q1", "Q2"), ("Y", "Q1", "Q3"), ("Y", "Q1", "Q4"),
        ("Y", "Q1", "Q5"), ("Y", "Q2", "Q6"), ("Y", "Q2", "Q7")]


def test_seven_lines_dimension_totals():
    c = ss.build_components(seven_lines, Y54)
    assert sum(ss.betti(d.geometry)[2] for d in c.double_strata) == 42
    assert sum(ss.betti(x.geometry)[2] for x in c.components) \
        + len(c.triple_strata) == 85
    assert sum(ss.betti(d.geometry)[4] for d in c.double_strata) == 13
    assert sum(ss.betti(x.geometry)[6] for x in c.components) == 8
    assert sum(ss.betti(x.geometry)[3] for x in c.components) == 2


def test_empty_residual_is_just_y():
    c = ss.build_components(ResidualSingularities(), Y70)
    assert c.counts() == (1, 0, 0)
    assert c.components[0].label == "Y"


def test_level_views():
    c = ss.build_components(seven_lines, Y54)
    assert [len(c.level(m)) for m in (1, 2, 3)] == [8, 13, 6]
    assert c.level(3)[0][0] == ("Y", "Q1", "Q2")
    assert c.level(1)[0][0] == ("Y",)
    # Y first, then the new components in creation order
    assert [members for members, _ in c.level(1)] == \
        [("Y",)] + [(f"Q{i}",) for i in range(1, 8)]
    assert c.depth == 3
    assert ss.build_components(four_pinches, Y70).depth == 2
    assert ss.build_components(ResidualSingularities(), Y70).depth == 1


def test_json_deterministic():
    a = ss.build_components(seven_lines, Y54)
    b = ss.build_components(seven_lines, Y54)
    assert a == b


# ---------------------------------------------------------------------------
# refusals


def test_fivefold_curve_in_triple_meeting_unsupported():
    shape = ResidualSingularities(
        double_curves=(DoubleCurve(0, FIVEFOLD_POINT),
                       DoubleCurve(0, TRIPLE_LINE),
                       DoubleCurve(2, FIVEFOLD_POINT),
                       DoubleCurve(0, TRIPLE_LINE),
                       DoubleCurve(2, FIVEFOLD_POINT)),
        triple_meeting_points=((0, 1, 2), (0, 3, 4)),
    )
    with pytest.raises(ss.UnsupportedConfiguration):
        ss.build_components(shape, Y54)


def test_nodes_mixed_with_curves_unsupported():
    shape = ResidualSingularities(
        double_curves=(DoubleCurve(1, TRIPLE_LINE),),
        nodes=2, node_surface_marker="small_resolution")
    with pytest.raises(ss.UnsupportedConfiguration):
        ss.build_components(shape, Y54)


def test_sparse_double_cover_unsupported():
    with pytest.raises(ss.UnsupportedConfiguration):
        ss.DoubleCoverP2xP1(1)


def test_bad_y_betti_rejected():
    with pytest.raises(ValueError):
        ss.ResolvedCY((1, 0, 70, 2, 69, 0, 1))
    with pytest.raises(ValueError):
        ss.ResolvedCY((2, 0, 70, 2, 70, 0, 1))

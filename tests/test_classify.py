"""Local classification of the degenerations and their residual outcomes."""

from fractions import Fraction

import pytest

from oracles import ELEVEN, PINCHES

from octic import classify, incidence
from octic.classify import (FIVEFOLD_POINT, TRIPLE_LINE, DoubleCurve,
                            ResidualSingularities, Unclassifiable,
                            classify_local, residual_outcome)
from octic.forms import parse_equation


def _changes_at_zero(text):
    generic = incidence.profile(parse_equation(text))
    special = generic.fiber(Fraction(0))
    return incidence.profile_diff(generic, special), generic, special


@pytest.mark.parametrize("tag,text", ELEVEN)
def test_each_member_classifies_to_its_tag(tag, text):
    changes, generic, special = _changes_at_zero(text)
    assert len(changes) == 1
    assert classify_local(changes[0], generic) == tag


@pytest.mark.parametrize("tag,text", ELEVEN)
def test_residual_pinch_multisets(tag, text):
    assert residual_outcome(tag).pinch_multiset() == PINCHES[tag]


def test_node_outcome_is_special():
    r = residual_outcome("NewP40")
    assert r.nodes == 2
    assert r.node_surface_marker == "small_resolution"
    assert r.double_curves == ()


def test_triple_meeting_structures():
    r = residual_outcome("P40toP52")
    assert r.triple_meeting_points == ((0, 1, 2), (0, 3, 4))
    assert len(r.double_curves) == 5
    assert [c.over for c in r.double_curves] == [
        FIVEFOLD_POINT, TRIPLE_LINE, FIVEFOLD_POINT, TRIPLE_LINE,
        FIVEFOLD_POINT]
    r2 = residual_outcome("P40toP51")
    assert r2.triple_meeting_points == ((0, 1, 2),)
    assert r2.adjacency == ((0, 1), (0, 2), (1, 2))


def test_residual_json_round_trip_fields():
    for tag, _ in ELEVEN:
        r = residual_outcome(tag)
        j = r.to_json()
        assert isinstance(j["curves"], list)
        assert isinstance(j["nodes"], int)
        if r.triple_meeting_points:
            assert j["triple_points"] == [list(t)
                                          for t in r.triple_meeting_points]


@pytest.mark.parametrize("text", [
    "xy(x+y+w)(x-y+w)",          # four planes collapse onto one line
    "xyz(x+y+w)(x-y+w)(2x+y+w)",  # sixfold point collision
])
def test_unclassifiable_change_raises(text):
    changes, generic, _ = _changes_at_zero(text)
    assert changes
    for c in changes:
        with pytest.raises(Unclassifiable):
            classify_local(c, generic)


def test_curve_validation():
    with pytest.raises(ValueError):
        DoubleCurve(-1, TRIPLE_LINE)
    with pytest.raises(ValueError):
        DoubleCurve(0, "nowhere")


def test_outcomes_cover_all_tags():
    for tag in classify.TAGS:
        assert residual_outcome(tag) is not None

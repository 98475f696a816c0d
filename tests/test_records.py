"""Record semantics: equal fields make equal records with equal hashes,
records of different classes stay apart where the answer depends on it,
and each record that validates its fields refuses bad ones."""

from fractions import Fraction
from itertools import combinations

import pytest

from octic import diagram, incidence, resolve
from octic import semistable as ss
from octic import specseq as sq
from octic.classify import (FIVEFOLD_POINT, TRIPLE_LINE, DoubleCurve,
                            ResidualSingularities)

Y70 = (1, 0, 70, 2, 70, 0, 1)

# each builds a fresh record from fresh containers, so that two calls share
# only the values
HASHABLE = {
    "DoubleCurve": lambda: DoubleCurve(2, FIVEFOLD_POINT),
    "ResidualSingularities": lambda: ResidualSingularities(
        (DoubleCurve(0, TRIPLE_LINE), DoubleCurve(1, TRIPLE_LINE)),
        triple_meeting_points=((0, 1, 1),)),
    "MultipleLine": lambda: incidence.MultipleLine((1, 2, 3), 0b1110),
    "MultiplePoint": lambda: incidence.MultiplePoint((1, 2, 3, 4), 1, 0b11110),
    "NewIncidence": lambda: incidence.NewIncidence(
        "PointCollision", (1, 2, 3, 4, 5), sources=((1, 2, 3, 4),),
        source_profiles=((4, 1),), multiplicity=(5, 1)),
    "FatalValue": lambda: incidence.FatalValue(Fraction(1, 2), "form 3 vanishes"),
    "Surface": lambda: diagram.Surface("P1'", diagram.SPLIT, parent="P1"),
    "DiagramCurve": lambda: diagram.DiagramCurve(
        3, ("P1", "P1'"), diagram.SPLIT_CURVE, ("P1",), TRIPLE_LINE, 2),
    "Center": lambda: resolve.Center(
        "L1A", "fiber", (1,), tower="A", base_point=((1,), (), (), ())),
    "ResolvedCY": lambda: ss.ResolvedCY(list(Y70)),
    "QuadricBundle": lambda: ss.QuadricBundle((4, 4), 1),
    "DoubleCoverP2xP1": lambda: ss.DoubleCoverP2xP1(4),
    "NodeResolution": lambda: ss.NodeResolution(2),
    "ConicBundle": lambda: ss.ConicBundle((2, 3)),
    "SmoothQuadric": ss.SmoothQuadric,
    "BlownP1xP1": lambda: ss.BlownP1xP1(2),
    "SmoothConic": ss.SmoothConic,
    "Component": lambda: ss.Component("Q1", ss.NodeResolution(2)),
    "DoubleStratum": lambda: ss.DoubleStratum(("Y", "Q1"), ss.BlownP1xP1(2)),
    "TripleStratum": lambda: ss.TripleStratum(("Y", "Q1", "Q2")),
    "StrataComplex": lambda: ss.StrataComplex(
        (ss.Component("Y", ss.ResolvedCY(Y70)),)),
    "Summand": lambda: sq.Summand("Y&Q1", 2, 0, 6),
    "E1Entry": lambda: sq.E1Entry(0, 2, (sq.Summand("Y", 2, 0, 70),)),
    "RankAnnotation": lambda: sq.RankAnnotation(-1, 4, 5, "a model"),
    "Arrow": lambda: sq.Arrow(2, 3, ((1, 0), (0, 1), (1, 1)), 2),
}

# records that hold a dict or a list: equal, but not hashable
UNHASHABLE = {
    "Diagram": lambda: diagram.Diagram(
        surfaces={"P1": diagram.Surface("P1", diagram.PLANE)}, nodes=2),
    "E1Grid": lambda: sq.E1Grid(
        ss.StrataComplex((ss.Component("Y", ss.ResolvedCY(Y70)),)),
        {(0, 0): sq.E1Entry(0, 0)}),
    "CycleModel": lambda: sq.CycleModel(
        {"Y&Q1": ["c0", "c1"]}, ["c0"], ["t0", "t1"], ((1, Fraction(1, 2)),)),
}


@pytest.mark.parametrize("name", sorted(HASHABLE))
def test_equal_fields_make_equal_records_with_equal_hashes(name):
    a, b = HASHABLE[name](), HASHABLE[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: name}[b] == name


@pytest.mark.parametrize("name", sorted(UNHASHABLE))
def test_records_holding_containers_are_equal_but_unhashable(name):
    a, b = UNHASHABLE[name](), UNHASHABLE[name]()
    assert a is not b and a == b
    with pytest.raises(TypeError):
        hash(a)


def test_a_diagram_that_changes_stops_being_equal():
    a, b = UNHASHABLE["Diagram"](), UNHASHABLE["Diagram"]()
    b.nodes += 2
    assert a != b


def test_a_record_prints_its_class_and_fields():
    # test_semistable names its cases by these
    assert repr(ss.QuadricBundle((4, 4), 0)) == \
        "QuadricBundle(split_fibers=(4, 4), cone_fibers=0)"
    assert repr(ss.SmoothConic()) == "SmoothConic()"
    assert repr(DoubleCurve(2, FIVEFOLD_POINT)) == \
        "DoubleCurve(pinch_points=2, over='fivefold_point')"


# geometries whose fields could coincide: each pair from two classes holds
# the same values, or none at all
SAME_VALUES = [
    (ss.NodeResolution(2), ss.BlownP1xP1(2)),
    (ss.NodeResolution(2), ss.DoubleCoverP2xP1(2)),
    (ss.BlownP1xP1(2), ss.DoubleCoverP2xP1(2)),
    (ss.ConicBundle((2, 2)), ss.QuadricBundle((2, 2))),
    (ss.SmoothQuadric(), ss.SmoothConic()),
]


@pytest.mark.parametrize("pair", SAME_VALUES,
                         ids=[f"{type(a).__name__}-{type(b).__name__}"
                              for a, b in SAME_VALUES])
def test_geometries_of_two_classes_never_compare_equal(pair):
    a, b = pair
    assert a != b and b != a and not a == b
    assert len({a, b}) == 2


def test_no_two_catalogue_geometries_compare_equal():
    catalogue = [ss.ResolvedCY(Y70), ss.QuadricBundle(), ss.DoubleCoverP2xP1(2),
                 ss.NodeResolution(2), ss.ConicBundle(), ss.SmoothQuadric(),
                 ss.BlownP1xP1(2), ss.SmoothConic()]
    for a, b in combinations(catalogue, 2):
        assert a != b, (a, b)
    # nor does a geometry equal the tuple of its fields
    assert ss.NodeResolution(2) != (2,) and ss.SmoothConic() != ()


def test_a_geometry_with_no_fields_is_true():
    assert ss.SmoothQuadric() and ss.SmoothConic()


# every validation of a record: its exception and its message
REFUSED = {
    "negative-pinches": (lambda: DoubleCurve(-1, TRIPLE_LINE), ValueError,
                         "^negative pinch count$"),
    "unknown-location": (lambda: DoubleCurve(1, "nowhere"), ValueError,
                         "^unknown curve location 'nowhere'$"),
    "six-betti-numbers": (
        lambda: ss.ResolvedCY((1, 0, 70, 2, 70, 0)), ValueError,
        "^a threefold carries seven Betti numbers$"),
    "not-calabi-yau": (
        lambda: ss.ResolvedCY((1, 1, 70, 2, 70, 1, 1)), ValueError,
        r"^not the Betti vector of a connected Calabi-Yau: "
        r"\(1, 1, 70, 2, 70, 1, 1\)$"),
    "not-palindromic": (
        lambda: ss.ResolvedCY((1, 0, 70, 2, 69, 0, 1)), ValueError,
        r"^Betti vector is not palindromic: \(1, 0, 70, 2, 69, 0, 1\)$"),
    "one-pinch-fiber": (
        lambda: ss.DoubleCoverP2xP1(1), ss.UnsupportedConfiguration,
        "^double cover with 1 pinch fibers is outside the catalogue$"),
    "generators-repeat": (
        lambda: sq.CycleModel({"A": ("c0",), "B": ("c0",)}, (), (), ()),
        ValueError, "^generator labels repeat across strata$"),
    "unknown-row": (
        lambda: sq.CycleModel({"A": ("c0",)}, ("c1",), (), ((),)),
        sq.UnknownLabel, "c1"),
    "rows-repeat": (
        lambda: sq.CycleModel({"A": ("c0",)}, ("c0", "c0"), (), ((), ())),
        ValueError, "^matrix row labels repeat$"),
    "columns-repeat": (
        lambda: sq.CycleModel({"A": ("c0",)}, ("c0",), ("t", "t"), ((1, 1),)),
        ValueError, "^matrix column labels repeat$"),
    "height": (
        lambda: sq.CycleModel({"A": ("c0",)}, ("c0",), ("t",), ()),
        ValueError, "^matrix height does not match its row labels$"),
    "width": (
        lambda: sq.CycleModel({"A": ("c0",)}, ("c0",), ("t",), ((1, 2),)),
        ValueError, "^matrix width does not match its column labels$"),
    "negative-rank": (
        lambda: sq.RankAnnotation(0, 2, -1, "below zero"), ValueError,
        "^negative rank annotation$"),
    "no-why": (
        lambda: sq.RankAnnotation(0, 2, 1, ""), ValueError,
        "^a rank annotation must carry its justification$"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_each_validation_refuses_its_bad_input(case):
    build, error, message = REFUSED[case]
    with pytest.raises(error, match=message) as raised:
        build()
    assert type(raised.value) is error


def test_records_normalise_what_they_hold():
    assert ss.ResolvedCY([1, 0, "70", 2, 70, 0, 1]).betti == Y70
    model = sq.CycleModel({"A": ["c0"]}, ["c0"], ["t"], ((1,),))
    assert (model.row_labels, model.col_labels) == (("c0",), ("t",))
    assert model.rank == 1

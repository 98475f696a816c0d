"""Weight spectral sequence: first page assembly, differentials, limits."""

import json
from fractions import Fraction

import pytest

from oracles import combination_vanishes, relations

from octic import cli
from octic import semistable as ss
from octic import specseq as sq
from octic.classify import ResidualSingularities
from octic import exact


def _example(name):
    """A bundled example: its residual, y_betti and referenced blocks."""
    data, base = cli.find_scenario(name)
    return (cli.residual_from_json(cli._referenced(data, base, "residual")),
            tuple(data["y_betti"]),
            list(cli.annotations_from_json(
                cli._referenced(data, base, "annotations"))),
            cli._referenced(data, base, "cycle_model"))


two_nodes, Y_TWO_NODES, ANN1, _ = _example("two-nodes")
four_pinches, Y_FOUR_PINCHES, ANN2, _ = _example("four-pinches")
seven_lines, Y_SEVEN_LINES, ANN3, CYCLE_MODEL = _example("seven-lines")


@pytest.fixture(scope="module")
def complexes():
    return (ss.build_components(two_nodes, Y_TWO_NODES),
            ss.build_components(four_pinches, Y_FOUR_PINCHES),
            ss.build_components(seven_lines, Y_SEVEN_LINES))


@pytest.fixture(scope="module")
def grids(complexes):
    return tuple(sq.assemble_e1(c) for c in complexes)


@pytest.fixture(scope="module")
def model():
    return cli.cycle_model_from_json(CYCLE_MODEL)


@pytest.fixture(scope="module")
def reports(grids, model):
    g1, g2, g3 = grids
    return (sq.compute_e2(g1, sq.build_d1(g1, annotations=ANN1)),
            sq.compute_e2(g2, sq.build_d1(g2, annotations=ANN2)),
            sq.compute_e2(g3, sq.build_d1(g3, cm=model, annotations=ANN3)))


def _dims(g):
    return {q: [g.dim_pq(p, q) for p in g.columns] for q in range(6, -1, -1)}


def _e2(r):
    return {q: [r.e2_pq(p, q) for p in r.e1.columns] for q in range(6, -1, -1)}


# ---------------------------------------------------------------------------
# first page


def test_e1_dimension_grids(grids):
    g1, g2, g3 = grids
    assert g1.columns == [-1, 0, 1]
    assert _dims(g1) == {6: [1, 2, 0], 5: [0, 0, 0], 4: [4, 73, 1],
                         3: [0, 2, 0], 2: [1, 73, 4], 1: [0, 0, 0],
                         0: [0, 2, 1]}
    assert _dims(g2) == {6: [1, 2, 0], 5: [0, 0, 0], 4: [6, 56, 1],
                         3: [0, 4, 0], 2: [1, 56, 6], 1: [0, 0, 0],
                         0: [0, 2, 1]}
    assert g3.columns == [-2, -1, 0, 1, 2]
    assert _dims(g3) == {6: [6, 13, 8, 0, 0], 5: [0, 0, 0, 0, 0],
                         4: [6, 42, 85, 13, 0], 3: [0, 0, 2, 0, 0],
                         2: [0, 13, 85, 42, 6], 1: [0, 0, 0, 0, 0],
                         0: [0, 0, 8, 13, 6]}


def test_e1_summand_structure(grids):
    g1, _, g3 = grids
    e = g1.entry_pq(0, 4)
    assert [(s.stratum, s.dim) for s in e.summands] == [("Y", 70), ("Q1", 3)]
    split = g3.entry_pq(0, 4)
    assert sum(s.dim for s in split.summands if s.twist == 0) == 79
    assert sum(s.dim for s in split.summands if s.twist == 1) == 6
    assert [(s.stratum, s.degree, s.dim)
            for s in g1.entry_pq(0, 3).summands] == [("Y", 3, 2)]


def test_e1_euler(grids):
    g1, g2, g3 = grids
    assert (g1.euler(), g2.euler(), g3.euler()) == (136, 96, 72)


def test_e1_depth_keying(grids):
    # column p = -k at total degree h = p + q holds cohomology of the
    # depth k+1 strata; cells print the formula's (k, h)
    e = grids[0].entry_pq(-1, 4)
    assert e.dim == 4
    assert (e.to_json()["k"], e.to_json()["h"]) == (1, 3)


# ---------------------------------------------------------------------------
# nerve coboundaries


def test_nerve_coboundaries(complexes):
    c3 = complexes[2]
    d1m = sq.nerve_coboundary(c3, 1)
    d2m = sq.nerve_coboundary(c3, 2)
    assert (len(d1m), {len(row) for row in d1m}) == (13, {8})
    assert (len(d2m), {len(row) for row in d2m}) == (6, {13})
    assert exact.rank(d1m) == 7
    assert exact.rank(d2m) == 6
    assert all(sum(a * b for a, b in zip(row, col)) == 0
               for row in d2m for col in zip(*d1m))
    doubles = [tuple(d.pair) for d in c3.double_strata]
    row = d2m[0]
    got = {doubles[i]: row[i] for i in range(13) if row[i] != 0}
    assert got == {("Q1", "Q2"): 1, ("Y", "Q2"): -1, ("Y", "Q1"): 1}


# ---------------------------------------------------------------------------
# the cycle model


def test_cycle_model_rank_and_relation(model):
    assert sum(len(labs) for labs in model.generators.values()) == 42
    assert model.rank == 11
    rels = relations(model)
    assert len(rels) == 1
    chain = {r: (1 if r.endswith("_1") else -1) for r in model.row_labels}
    rel = rels[0]
    scale = Fraction(1) / rel["e12_1"]
    assert {k: v * scale for k, v in rel.items()} == \
        {k: Fraction(v) for k, v in chain.items()}
    assert combination_vanishes(model, chain)


def test_cycle_model_label_validation(model):
    with pytest.raises(sq.UnknownLabel):
        sq.CycleModel(model.generators, ("nope",), model.col_labels,
                      model.matrix[:1])


def test_cycle_model_rank_key_is_optional():
    # a stored rank is checked on load (see test_cli); without one the
    # model loads as before
    without = {k: v for k, v in CYCLE_MODEL.items() if k != "rank"}
    assert cli.cycle_model_from_json(without).rank == 11


def _pinch_model(rows: int) -> sq.CycleModel:
    """A model of the Gysin block of four-pinches leaving H^2(Y&Q1) (six
    classes) for H^4 of the components (56 classes), presenting ``rows``
    of the six classes."""
    labels = tuple(f"c{i}" for i in range(rows))
    cols = tuple(f"t{i}" for i in range(56))
    matrix = tuple(tuple(Fraction(int(c == r)) for c in range(56))
                   for r in range(rows))
    return sq.CycleModel({"Y&Q1": labels}, labels, cols, matrix)


def test_partial_model_leaves_its_arrow_unassembled(grids):
    g2 = grids[1]
    full = _pinch_model(6)
    arrow = sq.build_d1(g2, cm=full, annotations=ANN2)[(-1, 4)]
    assert arrow.matrix is not None
    assert arrow.matrix == tuple(zip(*full.matrix))
    partial = _pinch_model(3)
    arrow = sq.build_d1(g2, cm=partial, annotations=ANN2)[(-1, 4)]
    assert arrow.matrix is None
    # the annotated arrow's lower bound is the rank of the model's block
    assert (arrow.lower, partial.rank) == (3, 3)


# ---------------------------------------------------------------------------
# second page and limits


def test_e2_grids(reports):
    r1, r2, r3 = reports
    assert _e2(r1) == {6: [0, 1, 0], 5: [0, 0, 0], 4: [1, 69, 0],
                       3: [0, 2, 0], 2: [0, 69, 1], 1: [0, 0, 0],
                       0: [0, 1, 0]}
    assert _e2(r2) == {6: [0, 1, 0], 5: [0, 0, 0], 4: [0, 49, 0],
                       3: [0, 4, 0], 2: [0, 49, 0], 1: [0, 0, 0],
                       0: [0, 1, 0]}
    assert _e2(r3) == {6: [0, 0, 1, 0, 0], 5: [0, 0, 0, 0, 0],
                       4: [0, 1, 37, 0, 0], 3: [0, 0, 2, 0, 0],
                       2: [0, 0, 37, 1, 0], 1: [0, 0, 0, 0, 0],
                       0: [0, 0, 1, 0, 0]}


def test_betti_recovery(reports):
    r1, r2, r3 = reports
    assert r1.betti == (1, 0, 69, 4, 69, 0, 1)
    assert r2.betti == (1, 0, 49, 4, 49, 0, 1)
    assert r3.betti == (1, 0, 37, 4, 37, 0, 1)


def test_weight_filtration_on_middle_cohomology(reports):
    r1, r2, r3 = reports
    assert r1.h3_weights == (1, 2, 1)
    assert r2.h3_weights == (0, 4, 0)
    assert r3.h3_weights == (1, 2, 1)
    assert (r1.pure, r2.pure, r3.pure) == (False, True, False)


def test_no_warnings_on_the_examples(reports):
    assert all(r.warnings == () for r in reports)


def test_rank_provenance(reports):
    r1, _, r3 = reports
    assert r3.ranks[(0, 0)][:2] == (7, "matrix")
    assert r3.ranks[(1, 0)][:2] == (6, "matrix")
    assert r3.ranks[(-2, 6)][:2] == (6, "matrix")
    assert r3.ranks[(-1, 6)][:2] == (7, "annotation")
    assert r3.ranks[(-1, 4)][:2] == (35, "annotation")
    assert r3.ranks[(0, 2)][:2] == (35, "duality")
    assert r3.ranks[(0, 4)][:2] == (13, "duality")
    assert r3.ranks[(1, 2)][:2] == (6, "duality")
    assert r1.ranks[(-1, 2)][:2] == (1, "duality")
    assert r1.ranks[(0, 0)][:2] == (1, "matrix")


def test_euler_conservation(reports):
    for r in reports:
        j = r.to_json()
        assert j["euler_e1"] == j["euler_betti"]
        assert j["euler_e1"] == r.e1.euler()


def test_report_json_deterministic(grids, model):
    g3 = grids[2]
    a = json.dumps(sq.compute_e2(
        g3, sq.build_d1(g3, cm=model, annotations=ANN3)).to_json(),
        sort_keys=True)
    b = json.dumps(sq.compute_e2(
        g3, sq.build_d1(g3, cm=model, annotations=ANN3)).to_json(),
        sort_keys=True)
    assert a == b


def test_echo_annotation_is_optional(grids, model, reports):
    # the incidence-relations entry is the transposed coboundary; dropping
    # its annotation leaves every number unchanged
    g3, r3 = grids[2], reports[2]
    alt = sq.compute_e2(g3, sq.build_d1(g3, cm=model, annotations=ANN3[:-1]))
    assert _e2(alt) == _e2(r3)
    assert alt.betti == r3.betti
    assert alt.ranks[(-1, 6)][:2] == (7, "matrix")


# ---------------------------------------------------------------------------
# rendering


def test_render_e1_spells_small_and_sums_large(grids):
    g1, g2, g3 = grids
    lines = sq.render_e1(g1).splitlines()
    assert len(lines) == 7
    assert lines[2].split() == ["C^4", "C^70⊕C^3", "C"]
    assert lines[0].split() == ["C", "C⊕C", "0"]
    assert lines[6].split() == ["0", "C⊕C", "C"]
    assert sq.render_e1(g3).splitlines()[2].split() == \
        ["C^6", "C^42", "C^85", "C^13", "0"]
    assert sq.render_e1(g2).splitlines()[3].split() == ["0", "C^2⊕C^2", "0"]


def test_render_e2(reports):
    lines = sq.render_e2(reports[2]).splitlines()
    assert lines[2].split() == ["0", "C", "C^37", "0", "0"]
    assert lines[4].split() == ["0", "0", "C^37", "C", "0"]


# ---------------------------------------------------------------------------
# degenerate cases and failure modes


def test_single_component_first_page_is_final():
    c0 = ss.build_components(ResidualSingularities(), (1, 0, 2, 0, 2, 0, 1))
    g0 = sq.assemble_e1(c0)
    assert g0.columns == [0]
    r0 = sq.compute_e2(g0, sq.build_d1(g0))
    assert r0.betti == (1, 0, 2, 0, 2, 0, 1)
    assert r0.pure
    assert r0.warnings == ()


def test_missing_blocks_are_reported(grids):
    with pytest.raises(sq.MissingBlock) as exc:
        sq.build_d1(grids[2])
    msg = str(exc.value)
    assert "(-1, 4)" in msg


def test_annotation_below_model_bound(grids, model):
    g3 = grids[2]
    bad = ANN3[:1] + [sq.RankAnnotation(-1, 4, 5, "below the model")] \
        + ANN3[2:]
    with pytest.raises(sq.InconsistentRanks):
        sq.compute_e2(g3, sq.build_d1(g3, cm=model, annotations=bad))


def test_duality_conflict(grids):
    g1 = grids[0]
    bad = ANN1 + [sq.RankAnnotation(0, 2, 2, "conflicts")]
    with pytest.raises(sq.InconsistentRanks):
        sq.compute_e2(g1, sq.build_d1(g1, annotations=bad))


def test_annotation_contradicting_matrix(grids):
    g1 = grids[0]
    bad = ANN1 + [sq.RankAnnotation(-1, 6, 0, "contradicts")]
    with pytest.raises(sq.InconsistentRanks):
        sq.compute_e2(g1, sq.build_d1(g1, annotations=bad))


def test_overfull_composition(grids, model):
    g3 = grids[2]
    bad = [ANN3[0], ANN3[2], sq.RankAnnotation(0, 2, 42, "too big")]
    with pytest.raises(sq.InconsistentRanks):
        sq.compute_e2(g3, sq.build_d1(g3, cm=model, annotations=bad))


def test_unmatched_annotation(grids):
    with pytest.raises(ValueError):
        sq.build_d1(grids[0], annotations=[
            sq.RankAnnotation(5, 5, 1, "nowhere")])


def test_empty_why_rejected():
    with pytest.raises(ValueError, match="justification"):
        cli.annotations_from_json([{"p": -1, "q": 2, "rank": 1, "why": ""}])


def test_arrows_of_another_page_are_refused(grids):
    d1 = sq.build_d1(grids[1], annotations=ANN2)
    with pytest.raises(sq.InconsistentRanks, match="built for a different"):
        sq.compute_e2(grids[0], d1)

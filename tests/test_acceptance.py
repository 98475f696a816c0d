"""End-to-end acceptance checklist.

One test per checklist item, so ``pytest -v tests/test_acceptance.py`` prints
one verdict line per item.  The equations and pinch multisets of the eleven
families are read from their bundled scenario files; the numbers of the
three worked limits are frozen here, so this file also guards those examples.

Item 1 is split.  1a checks the classification of every family at w = 0.
1b states the stronger claim that w = 0 is the only degenerate value for all
eleven families; three of them genuinely have further degenerate values, so
1b is expected to fail and is marked strict-xfail to keep the record honest.
Item 7 is one property suite per line, keeping every line under its time
budget.
"""

import json
import random
from fractions import Fraction

import pytest
import sympy

from oracles import (ELEVEN, PINCHES, combination_vanishes, evaluate,
                     family_through, oracle, random_constant_arrangement,
                     random_gl4, relations, transform)

from octic import classify, cli, exact, incidence, semistable, specseq
from octic.forms import parse_equation

EXAMPLES = ["two-nodes", "four-pinches", "seven-lines"]


@pytest.fixture(scope="module")
def limits():
    """The limit report of each bundled example, built as ``ss`` builds
    it."""
    return {name: cli.limit_report(*cli.find_scenario(name))
            for name in EXAMPLES}


def _dims(g):
    return {q: [g.dim_pq(p, q) for p in g.columns] for q in range(6, -1, -1)}


def _e2(r):
    return {q: [r.e2_pq(p, q) for p in r.e1.columns] for q in range(6, -1, -1)}


# ---------------------------------------------------------------------------
# 1: the degeneration scan over the parameter line


def test_criterion_1a_every_family_classified_at_zero():
    for name, equation in ELEVEN:
        a = parse_equation(equation)
        generic = incidence.profile(a)
        scan = incidence.degenerate_values(a)
        assert Fraction(0) in scan.sigma, name
        assert not scan.unresolved, name
        changes = incidence.profile_diff(generic,
                                         generic.fiber(Fraction(0)))
        tags = {classify.classify_local(c, generic) for c in changes}
        assert tags == {name}


@pytest.mark.xfail(
    strict=True,
    reason="three of the eleven families (P51toP52, P50toP52, P50toP51) "
           "degenerate at further parameter values; the claim that zero is "
           "the only one does not hold and is recorded here unweakened")
def test_criterion_1b_zero_is_the_only_degenerate_value():
    for name, equation in ELEVEN:
        scan = incidence.degenerate_values(parse_equation(equation))
        assert scan.sigma == (Fraction(0),), name


# ---------------------------------------------------------------------------
# 2: blow-up traces reach the expected residual singularities


def test_criterion_2_traces_reproduce_pinch_multisets():
    for name, _ in ELEVEN:
        data, _ = cli.find_scenario(name)
        _, _, residual = cli._trace_scenario(data)
        assert tuple(sorted(residual.pinch_multiset())) == \
            tuple(sorted(PINCHES[name])), name
        if name == "NewP40":
            assert residual.nodes == 2
        else:
            assert residual.nodes == 0


# ---------------------------------------------------------------------------
# 3-5: the three worked limit mixed Hodge structures


def test_criterion_3_two_nodes_limit(limits):
    _, e1, report, _ = limits["two-nodes"]
    assert e1.columns == [-1, 0, 1]
    assert _dims(e1) == {6: [1, 2, 0], 5: [0, 0, 0], 4: [4, 73, 1],
                         3: [0, 2, 0], 2: [1, 73, 4], 1: [0, 0, 0],
                         0: [0, 2, 1]}
    assert [(s.stratum, s.dim) for s in e1.entry_pq(0, 4).summands] == \
        [("Y", 70), ("Q1", 3)]
    assert e1.entry_pq(-1, 4).dim == 4
    assert e1.entry_pq(0, 3).dim == 2
    assert _e2(report) == {6: [0, 1, 0], 5: [0, 0, 0], 4: [1, 69, 0],
                           3: [0, 2, 0], 2: [0, 69, 1], 1: [0, 0, 0],
                           0: [0, 1, 0]}
    assert report.betti == (1, 0, 69, 4, 69, 0, 1)
    assert report.h3_weights == (1, 2, 1)
    assert report.pure is False
    assert not report.warnings


def test_criterion_4_four_pinches_limit(limits):
    _, e1, report, _ = limits["four-pinches"]
    assert _dims(e1) == {6: [1, 2, 0], 5: [0, 0, 0], 4: [6, 56, 1],
                         3: [0, 4, 0], 2: [1, 56, 6], 1: [0, 0, 0],
                         0: [0, 2, 1]}
    assert [(s.stratum, s.dim) for s in e1.entry_pq(0, 4).summands] == \
        [("Y", 54), ("Q1", 2)]
    assert [(s.stratum, s.dim) for s in e1.entry_pq(0, 3).summands] == \
        [("Y", 2), ("Q1", 2)]
    assert e1.entry_pq(-1, 4).dim == 6
    middle = [report.e2_pq(0, q) for q in range(6, -1, -1)]
    assert middle == [1, 0, 49, 4, 49, 0, 1]
    off = {(p, q): report.e2_pq(p, q)
           for p in e1.columns for q in range(7) if p != 0}
    assert all(v == 0 for v in off.values())
    assert report.betti == (1, 0, 49, 4, 49, 0, 1)
    assert report.h3_weights == (0, 4, 0)
    assert report.pure is True
    assert not report.warnings


def test_criterion_5_seven_lines_limit(limits):
    _, e1, report, cm = limits["seven-lines"]
    assert e1.columns == [-2, -1, 0, 1, 2]
    assert _dims(e1) == {6: [6, 13, 8, 0, 0], 5: [0, 0, 0, 0, 0],
                         4: [6, 42, 85, 13, 0], 3: [0, 0, 2, 0, 0],
                         2: [0, 13, 85, 42, 6], 1: [0, 0, 0, 0, 0],
                         0: [0, 0, 8, 13, 6]}
    # the bundled ruling matrix and its single relation
    assert (len(cm.matrix), {len(row) for row in cm.matrix}) == (12, {18})
    assert cm.rank == 11
    rels = relations(cm)
    assert len(rels) == 1
    chain = {label: (1 if label.endswith("_1") else -1)
             for label in cm.row_labels}
    rel = rels[0]
    scale = Fraction(1) / rel[cm.row_labels[0]]
    assert {k: v * scale for k, v in rel.items()} == \
        {k: Fraction(v) for k, v in chain.items()}
    assert combination_vanishes(cm, chain)
    assert _e2(report) == {6: [0, 0, 1, 0, 0], 5: [0, 0, 0, 0, 0],
                           4: [0, 1, 37, 0, 0], 3: [0, 0, 2, 0, 0],
                           2: [0, 0, 37, 1, 0], 1: [0, 0, 0, 0, 0],
                           0: [0, 0, 1, 0, 0]}
    assert report.betti == (1, 0, 37, 4, 37, 0, 1)
    assert report.h3_weights == (1, 2, 1)
    assert report.pure is False
    assert not report.warnings


# ---------------------------------------------------------------------------
# 6: component geometries reproduce their Betti vectors


def test_criterion_6_component_betti_regression():
    table = [
        (semistable.QuadricBundle((4, 4), 0), (1, 0, 9, 0, 9, 0, 1)),
        (semistable.QuadricBundle((4,), 0), (1, 0, 6, 0, 6, 0, 1)),
        (semistable.QuadricBundle((), 2), (1, 0, 2, 0, 2, 0, 1)),
        (semistable.DoubleCoverP2xP1(4), (1, 0, 2, 2, 2, 0, 1)),
        (semistable.NodeResolution(2), (1, 0, 3, 0, 3, 0, 1)),
        (semistable.ConicBundle((3, 3)), (1, 0, 6, 0, 1)),
        (semistable.ConicBundle((3,)), (1, 0, 4, 0, 1)),
        (semistable.SmoothQuadric(), (1, 0, 2, 0, 1)),
        (semistable.SmoothConic(), (1, 0, 1)),
    ]
    for geometry, want in table:
        assert semistable.betti(geometry) == want, geometry


# ---------------------------------------------------------------------------
# 7: property suites


def test_criterion_7a_profile_invariant_under_coordinate_changes(limits):
    rng = random.Random(20260822)
    # fibers of the first eight families, and two generic profiles
    fibers = [(parse_equation(e), Fraction(v))
              for (_, e), v in zip(ELEVEN[:8], (0, 3, 2, -1, 0, 5, 0, 1))]
    parameterized = [(parse_equation(ELEVEN[2][1]), None),
                     (parse_equation(ELEVEN[9][1]), None)]
    sources = fibers + parameterized
    keys = [incidence.profile(a, at).combinatorial_key() for a, at in sources]
    for i in range(100):
        j = i % len(sources)
        a, at = sources[j]
        b = transform(a, random_gl4(rng))
        assert incidence.profile(b, at).combinatorial_key() == keys[j], (i, j)


def test_criterion_7b_profile_matches_oracle_on_small_arrangements():
    rng = random.Random(77)
    corpus = []
    for _, equation in ELEVEN:
        a = parse_equation(equation)
        for v in (0, 1, -1, 2):
            rows = [[evaluate(c, v) for c in r] for r in a.rows]
            if all(any(r) for r in rows):  # no form vanishes at v
                corpus.append(rows)
    while len(corpus) < 100:
        rows, _ = random_constant_arrangement(rng, rng.randint(3, 5))
        corpus.append(rows)
    checked = 0
    for rows in corpus:
        try:
            expected = oracle(rows)
        except incidence.CoincidentPlanes:
            with pytest.raises(incidence.CoincidentPlanes):
                incidence.profile(family_through(rows), Fraction(0))
            continue
        prof = incidence.profile(family_through(rows), Fraction(0))
        got = ({l.planes: l.q for l in prof.lines},
               {p.planes: (p.p, p.j) for p in prof.points})
        assert got == expected, rows
        checked += 1
    assert checked >= 90


def test_criterion_7c_rank_on_random_matrices():
    """The rank of 500 seeded rational matrices, and of as many
    rank-deficient ones whose extra rows are sums of earlier rows, is
    sympy's."""
    rng = random.Random(4242)
    deficient = 0
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 7)
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
              for _ in range(cols)] for _ in range(rows)]
        assert exact.rank(m) == sympy.Matrix(m).rank()
        summed = m + [[sum(col) for col in zip(*rng.sample(m, k))]
                      for k in (rng.randint(1, rows) for _ in range(3))]
        rng.shuffle(summed)
        assert exact.rank(summed) == sympy.Matrix(summed).rank()
        deficient += exact.rank(summed) < min(len(summed), cols)
    assert deficient > 200


def test_criterion_7d_differentials_compose_to_zero(limits):
    composed = 0
    for name in EXAMPLES:
        _, e1, _, cm = limits[name]
        data, base = cli.find_scenario(name)
        annotations = cli.annotations_from_json(
            cli._referenced(data, base, "annotations") or [])
        d1 = specseq.build_d1(e1, cm=cm, annotations=annotations)
        for (p, q), first in sorted(d1.items()):
            second = d1.get((p + 1, q))
            if second is None:
                continue
            m1, m2 = first.matrix, second.matrix
            if m1 is None or m2 is None:
                continue
            for col in zip(*m1):
                assert all(sum(a * b for a, b in zip(row, col)) == 0
                           for row in m2), (name, p, q)
            composed += 1
    assert composed > 0


def test_criterion_7e_euler_characteristic_conserved(limits):
    expected = {"two-nodes": 136, "four-pinches": 96, "seven-lines": 72}
    for name in EXAMPLES:
        _, e1, report, _ = limits[name]
        from_betti = sum((-1) ** i * b for i, b in enumerate(report.betti))
        assert e1.euler() == from_betti == expected[name]


def test_criterion_7f_every_betti_vector_is_palindromic(limits):
    vectors = [
        (1, 0, 9, 0, 9, 0, 1), (1, 0, 6, 0, 6, 0, 1), (1, 0, 2, 0, 2, 0, 1),
        (1, 0, 2, 2, 2, 0, 1), (1, 0, 3, 0, 3, 0, 1), (1, 0, 6, 0, 1),
        (1, 0, 4, 0, 1), (1, 0, 2, 0, 1), (1, 0, 1),
    ]
    for name in EXAMPLES:
        data, _ = cli.find_scenario(name)
        vectors.append(tuple(data["y_betti"]))
        vectors.append(limits[name][2].betti)
    for v in vectors:
        assert v == tuple(reversed(v)), v


# ---------------------------------------------------------------------------
# 8: two consecutive runs emit identical artifacts


def test_criterion_8_reports_and_dot_files_deterministic(capsys, tmp_path):
    for name in EXAMPLES:
        outs = []
        for _ in range(2):
            assert cli.main(["ss", name, "--json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], name
    for name, _ in ELEVEN:
        outs, trees = [], []
        for run in range(2):
            d = tmp_path / f"{name}-{run}"
            assert cli.main(["resolve", name, "--json",
                             "--dot-dir", str(d)]) == 0
            outs.append(capsys.readouterr().out)
            trees.append({p.name: p.read_bytes() for p in d.glob("*.dot")})
        payloads = [json.loads(o) for o in outs]
        for p in payloads:
            del p["dot_files"]      # carries the differing directory names
        assert payloads[0] == payloads[1], name
        assert trees[0].keys() == trees[1].keys()
        assert trees[0] == trees[1], name
